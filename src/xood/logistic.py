"""Self-supervised detector: logistic regression on split extreme-value
features, trained to predict classifier correctness.

No out-of-distribution data is needed. ``pipeline`` forwards the folds: a
held-out calibration split of the classifier's own training data and one
distorted copy of it per family, each row labeled 1 where the classifier
still predicts the (possibly mixup-adjusted) label and 0 where it fails;
``build_training_set`` stacks them. Each power-transformed feature is split
around its in-distribution mean, 0, since the transform standardizes each
column on the correctly classified training images:

    m_plus  = relu(m)
    m_minus = relu(-m)

so a weight can respond differently to a feature sitting above or below
its usual value. Split features are standardized with statistics computed
on the full training matrix. The detector stores those statistics, and
scoring applies the same standardization to new features. The ridge
penalty is chosen by holding out one fold at a time: k distortions give
k+1 folds. Ties prefer the larger penalty, whatever the grid's order.
Each fold's lambdas are fitted from the largest to the smallest, whatever
the grid's order, each fit after the first starting from the previous
lambda's weights; the held-out losses then differ from fits started at
zero by less than 1e-7 relative (3.4e-8 at most over eight benchmark
seeds), and the final fit on all rows starts at zero.
``pipeline`` calibrates the fitted detector's threshold, as it does xood-m's.

The solver is full-batch Newton with step halving on the objective

    mean logistic loss + lambda/2 * ||w||^2   (intercept unpenalized)

stopping when the gradient's infinity norm drops below 1e-8; each step
computes the linear predictor and its sigmoid once, for the gradient and
the Hessian weights alike. A fit that
takes 100 Newton steps without getting there, or whose step no halving
makes lower the loss, raises ``NumericalError`` naming lambda and the
gradient norm, in a cross-validation cell as in the final fit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ContractError, NumericalError
from .features import check_fields, check_penalty, pin_constant_stds

logger = logging.getLogger(__name__)

GRAD_TOL = 1e-8
MAX_NEWTON_ITER = 100
LAMBDA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)


# ---------------------------------------------------------------------------
# split features and scaling


def split_features(features: np.ndarray) -> np.ndarray:
    """Map each feature m_i to the pair (relu(m_i), relu(-m_i)): a split at
    its in-distribution mean, 0, since the power transform standardizes each
    column on the correctly classified training images. Columns are
    interleaved: (f0+, f0-, f1+, f1-, ...); the two halves reconstruct the
    feature exactly (their difference) and never overlap (their product is
    zero).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError(f"features must be 2-D, got {x.shape}")
    out = np.empty((x.shape[0], 2 * x.shape[1]))
    np.maximum(x, 0.0, out=out[:, 0::2])
    np.maximum(-x, 0.0, out=out[:, 1::2])
    return out


def fit_split_scaler(
    fit_features: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit the standardization of the columns ``split_features`` makes,
    split at 0, on ``fit_features``, the full detector training matrix.
    Returns ``(scale_means, scale_stds, pinned, standardized)``: the two
    tensors ``LDetector`` stores besides its weights, the (2d,) flags of
    the split columns whose std was pinned to 1, and the standardized
    split fit matrix.
    """
    splitted = split_features(fit_features)
    scale_means = splitted.mean(axis=0)
    scale_stds = splitted.std(axis=0)
    pinned = pin_constant_stds(scale_stds, "split columns")
    standardized = (splitted - scale_means) / scale_stds
    return scale_means, scale_stds, pinned, standardized


# ---------------------------------------------------------------------------
# ridge logistic regression, full-batch Newton


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) as exp(-log(1 + e^-z)), branch-free and overflow-free.

    Against the masked two-branch form it replaced, the result moves by
    at most 3.4e-16 relative for z >= 0; for z < 0 the rounding of
    log(1 + e^-z) grows with |z|, up to 4e-15 relative near z = -37, and
    below about -37 both forms give exp(z) exactly. On the README's
    12-class data, xood-l scores moved by at most 3.3e-16 relative and
    the fitted weights by at most 6.4e-16.
    """
    return np.exp(-np.logaddexp(0.0, -z))


def _log1pexp(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z), stable for large |z|
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def logreg_loss(w: np.ndarray, x: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Mean logistic loss plus lam/2 * ||w||^2 (intercept unpenalized)."""
    z = w[0] + x @ w[1:]
    data = float(np.mean(_log1pexp(z) - y * z))
    return data + 0.5 * lam * float(w[1:] @ w[1:])


def logreg_gradient(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, lam: float,
    probabilities: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of ``logreg_loss``. ``probabilities``, the sigmoid of the
    linear predictor at ``w`` when the caller already has it, is used
    instead of computing it again; the result is the same to the bit."""
    if probabilities is None:
        probabilities = _sigmoid(w[0] + x @ w[1:])
    residual = probabilities - y
    grad = np.empty_like(w)
    grad[0] = residual.mean()
    grad[1:] = (x.T @ residual) / x.shape[0] + lam * w[1:]
    return grad


def fit_logreg(
    x: np.ndarray, y: np.ndarray, lam: float, start: np.ndarray | None = None
) -> np.ndarray:
    """Newton's method with step halving from ``start`` (zeros by default);
    returns (1 + p,) weights, intercept first. See the module docstring for
    when the fit stops."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ContractError(
            f"bad logistic regression shapes {x.shape} / {y.shape}"
        )
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ContractError("labels must be 0 or 1")
    if y.min() == y.max():
        raise ContractError("training labels are single-class")
    check_penalty("lambda", lam)
    n, p = x.shape
    xb = np.hstack([np.ones((n, 1)), x])
    reg = np.full(p + 1, lam)
    reg[0] = 0.0
    w = np.zeros(p + 1) if start is None else np.array(start, dtype=np.float64)
    if w.shape != (p + 1,):
        raise ContractError(f"start has shape {w.shape}, expected {(p + 1,)}")
    loss = logreg_loss(w, x, y, lam)
    for _ in range(MAX_NEWTON_ITER):
        pr = _sigmoid(w[0] + x @ w[1:])
        grad = logreg_gradient(w, x, y, lam, probabilities=pr)
        if float(np.max(np.abs(grad))) < GRAD_TOL:
            return w
        weights = np.maximum(pr * (1.0 - pr), 1e-12)
        hessian = (xb.T * weights) @ xb / n + np.diag(reg)
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Newton system is singular: {exc}") from None
        scale = 1.0
        for _ in range(60):
            trial = w - scale * step
            trial_loss = logreg_loss(trial, x, y, lam)
            if trial_loss <= loss:
                break
            scale *= 0.5
        else:
            raise NumericalError(
                f"lambda {lam:g}: no step lowers the loss; gradient norm "
                f"{float(np.max(np.abs(grad))):.3g}"
            )
        w, loss = trial, trial_loss
    raise NumericalError(
        f"lambda {lam:g}: {MAX_NEWTON_ITER} Newton steps without convergence; "
        f"gradient norm {float(np.max(np.abs(logreg_gradient(w, x, y, lam)))):.3g}"
    )


# ---------------------------------------------------------------------------
# distortion-holdout cross-validation


@dataclass
class CVResult:
    lambdas: tuple[float, ...]
    fold_losses: np.ndarray  # (len(lambdas), n_folds) held-out mean losses
    # set by fit_l_detector: split columns whose std was pinned to 1, and
    # each fold's share of label-1 rows
    pinned_split_columns: tuple[int, ...] = ()
    fold_positive_rates: tuple[float, ...] = ()

    @property
    def mean_losses(self) -> np.ndarray:
        """(len(lambdas),) mean held-out loss per lambda."""
        return self.fold_losses.mean(axis=1)

    @property
    def best_lambda(self) -> float:
        """The largest lambda of lowest mean loss, whatever the grid's order."""
        means = self.mean_losses
        return float(max(np.asarray(self.lambdas)[means == means.min()]))


def cross_validate(
    x: np.ndarray,
    y: np.ndarray,
    fold_ids: np.ndarray,
    grid: tuple[float, ...] = LAMBDA_GRID,
) -> CVResult:
    """Hold out one fold at a time; pick the lambda with the lowest mean
    held-out logistic loss, preferring the larger lambda on ties.

    Each fold's rows are sliced once and its lambdas fitted from the largest
    to the smallest, whatever the grid's order, each fit after the first
    starting from the previous lambda's weights."""
    fold_ids = np.asarray(fold_ids)
    folds = np.unique(fold_ids)
    if folds.shape[0] < 2:
        raise ContractError("cross-validation needs at least 2 folds")
    if not grid:
        raise ContractError("lambda grid is empty")
    table = np.empty((len(grid), folds.shape[0]))
    descending = sorted(range(len(grid)), key=lambda gi: -grid[gi])
    for fi, fold in enumerate(folds):
        held = fold_ids == fold
        x_fit, y_fit, x_held, y_held = x[~held], y[~held], x[held], y[held]
        w = None
        for gi in descending:
            w = fit_logreg(x_fit, y_fit, grid[gi], start=w)
            table[gi, fi] = logreg_loss(w, x_held, y_held, 0.0)
    return CVResult(tuple(grid), table)


# ---------------------------------------------------------------------------
# training-set construction


@dataclass
class LabeledFeatureSet:
    """Transformed features, correctness labels, and fold ids for training."""

    features: np.ndarray  # (n, d) float64, power-transformed
    labels: np.ndarray  # (n,) 0/1
    fold_ids: np.ndarray  # (n,) 0 = calibration, then one id per family
    fold_names: tuple[str, ...] = ()


def build_training_set(
    folds: dict[str, tuple[np.ndarray, np.ndarray]]
) -> LabeledFeatureSet:
    """Stack folds, named (transformed rows, correct flags) pairs in order:
    fold i's rows get fold id i, and label 1 where the classifier was right."""
    rows, correct = zip(*folds.values())
    ids = [np.full(len(flags), fold, np.int64) for fold, flags in enumerate(correct)]
    labels = np.concatenate(correct).astype(np.float64)
    return LabeledFeatureSet(np.vstack(rows), labels, np.concatenate(ids), tuple(folds))


# ---------------------------------------------------------------------------
# detector


@dataclass
class LDetector:
    """Fitted logistic detector; immutable after calibration. Its arrays
    are the bundle's tensors, named after their files.

    Built by a fit, a load or a caller, it refuses, with a ContractError
    whose message starts with the field's name, tensors that are not finite
    float64 of shapes (2d,), (2d,) and (2d + 1,), a std <= 0, a negative or
    non-finite penalty, or a non-finite threshold."""

    method: ClassVar[str] = "l"

    scale_means: np.ndarray  # (2d,) split-column means on the training matrix
    scale_stds: np.ndarray  # (2d,) split-column stds, constant columns pinned to 1
    weights: np.ndarray  # (2d + 1,), intercept first
    reg_lambda: float
    threshold: float | None = None

    def __post_init__(self):
        d = np.size(self.scale_means) // 2
        check_fields(self, {"scale_means": (2 * d,), "scale_stds": (2 * d,),
                            "weights": (2 * d + 1,)}, "reg_lambda")
        if not (self.scale_stds > 0).all():
            raise ContractError("scale_stds has an entry <= 0")

    @property
    def dim(self) -> int:
        return self.scale_means.shape[0] // 2

    def score(self, transformed: np.ndarray) -> np.ndarray:
        return score_l(self, transformed)


def fit_l_detector(
    training: LabeledFeatureSet,
    grid: tuple[float, ...] = LAMBDA_GRID,
) -> tuple[LDetector, CVResult]:
    """Scale, cross-validate the penalty, fit on everything; uncalibrated."""
    scale_means, scale_stds, pinned, x = fit_split_scaler(training.features)
    cv = cross_validate(x, training.labels, training.fold_ids, grid)
    cv.pinned_split_columns = tuple(np.flatnonzero(pinned).tolist())
    ids = training.fold_ids
    cv.fold_positive_rates = tuple(
        float(training.labels[ids == fold].mean()) for fold in np.unique(ids))
    weights = fit_logreg(x, training.labels, cv.best_lambda)
    logger.info("selected lambda %g", cv.best_lambda)
    return LDetector(scale_means, scale_stds, weights, cv.best_lambda), cv


def score_l(det: LDetector, features: np.ndarray) -> np.ndarray:
    """P(classifier is correct | features), in [0, 1]; higher means
    more in-distribution. Features not of shape (n, ``det.dim``) are refused."""
    if np.shape(features)[1:] != (det.dim,):
        raise ContractError(
            f"features shape {np.shape(features)} does not match detector dim {det.dim}"
        )
    scores = np.empty(len(features))
    # blocks of at most 2**16 split values (512 KiB) stay in a 2 MiB L2 cache
    step = max(1, 2**16 // det.weights.shape[0])
    for start in range(0, len(features), step):
        rows = slice(start, start + step)
        x = (split_features(features[rows]) - det.scale_means) / det.scale_stds
        scores[rows] = _sigmoid(det.weights[0] + x @ det.weights[1:])
    return scores
