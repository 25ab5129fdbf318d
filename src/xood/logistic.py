"""Self-supervised detector: logistic regression on split extreme-value
features, trained to predict classifier correctness.

No out-of-distribution data is needed. A held-out calibration split of the
classifier's own training data is copied through the four distortion
families; each row is labeled 1 where the classifier still predicts the
(possibly mixup-adjusted) label and 0 where it fails. Features are the
power-transformed extreme values, reusing the transform fitted on the
training data, then split around the in-distribution feature means:

    m_plus  = relu(m - m_bar)
    m_minus = relu(-m + m_bar)

so a weight can respond differently to a feature sitting above or below
its usual value. Split features are standardized with statistics computed
on the full training matrix, and the ridge penalty is chosen by holding
out one distortion family (plus the clean fold) at a time: k distortions
give k+1 folds. Ties prefer the larger penalty.

The solver is full-batch Newton with step halving on the objective

    mean logistic loss + lambda/2 * ||w||^2   (intercept unpenalized)

stopping when the gradient's infinity norm drops below 1e-8. A fit that
takes 100 Newton steps without getting there, or whose step no halving
makes lower the loss, stops too and logs a warning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .datasets import Dataset
from .distortions import DISTORTION_FAMILIES
from .errors import ContractError, NumericalError
from .features import (
    FeatureKind, PowerTransform, apply_power_transform, pin_constant_stds,
)
from .mahalanobis import calibrate
from .network import Network, run_network
from .rng import derive_seed

logger = logging.getLogger(__name__)

GRAD_TOL = 1e-8
MAX_NEWTON_ITER = 100
LAMBDA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)

FOLD_NAMES = ("calibration",) + tuple(DISTORTION_FAMILIES)


# ---------------------------------------------------------------------------
# split features and scaling


def split_features(features: np.ndarray, raw_means: np.ndarray) -> np.ndarray:
    """Map each feature m_i to the pair (relu(m_i - mean_i), relu(mean_i - m_i)).

    Columns are interleaved: (f0+, f0-, f1+, f1-, ...). The two halves
    reconstruct the deviation exactly (their difference) and never overlap
    (their product is zero).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != raw_means.shape[0]:
        raise ContractError(
            f"features shape {x.shape} does not match {raw_means.shape[0]} means"
        )
    delta = x - raw_means
    out = np.empty((x.shape[0], 2 * x.shape[1]))
    out[:, 0::2] = np.maximum(delta, 0.0)
    out[:, 1::2] = np.maximum(-delta, 0.0)
    return out


@dataclass
class SplitScaler:
    """Split means plus standardization statistics for the split columns."""

    raw_means: np.ndarray  # (d,) column means of the in-distribution features
    scale_means: np.ndarray  # (2d,)
    scale_stds: np.ndarray  # (2d,)
    flags: np.ndarray  # (2d,) bool, True where the std guard fired


def fit_split_scaler(
    fit_features: np.ndarray, means_source: np.ndarray
) -> tuple[SplitScaler, np.ndarray]:
    """Build the scaler and return the standardized split fit matrix.

    ``means_source`` is the matrix of transformed features of correctly
    classified training images; its column means define the split point.
    Standardization statistics come from ``fit_features`` (the full
    detector training matrix), not from ``means_source``.
    """
    means_source = np.asarray(means_source, dtype=np.float64)
    if means_source.ndim != 2:
        raise ContractError(f"means source must be 2-D, got {means_source.shape}")
    raw_means = means_source.mean(axis=0)
    splitted = split_features(fit_features, raw_means)
    scale_means = splitted.mean(axis=0)
    scale_stds = splitted.std(axis=0)
    flags = pin_constant_stds(scale_stds, "split columns")
    scaler = SplitScaler(raw_means, scale_means, scale_stds, flags)
    return scaler, (splitted - scale_means) / scale_stds


def apply_split_scaler(scaler: SplitScaler, features: np.ndarray) -> np.ndarray:
    splitted = split_features(features, scaler.raw_means)
    return (splitted - scaler.scale_means) / scaler.scale_stds


# ---------------------------------------------------------------------------
# ridge logistic regression, full-batch Newton


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log1pexp(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z), stable for large |z|
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def logreg_loss(w: np.ndarray, x: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Mean logistic loss plus lam/2 * ||w||^2 (intercept unpenalized)."""
    z = w[0] + x @ w[1:]
    data = float(np.mean(_log1pexp(z) - y * z))
    return data + 0.5 * lam * float(w[1:] @ w[1:])


def logreg_gradient(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, lam: float
) -> np.ndarray:
    z = w[0] + x @ w[1:]
    residual = _sigmoid(z) - y
    grad = np.empty_like(w)
    grad[0] = residual.mean()
    grad[1:] = (x.T @ residual) / x.shape[0] + lam * w[1:]
    return grad


def fit_logreg(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Newton's method with step halving; returns (1 + p,) weights,
    intercept first. See the module docstring for when the fit stops."""
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
    if lam < 0:
        raise ContractError(f"penalty must be >= 0, got {lam}")
    n, p = x.shape
    xb = np.hstack([np.ones((n, 1)), x])
    reg = np.full(p + 1, lam)
    reg[0] = 0.0
    w = np.zeros(p + 1)
    loss = logreg_loss(w, x, y, lam)
    for _ in range(MAX_NEWTON_ITER):
        grad = logreg_gradient(w, x, y, lam)
        if float(np.max(np.abs(grad))) < GRAD_TOL:
            return w
        z = w[0] + x @ w[1:]
        pr = _sigmoid(z)
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
            logger.warning(
                "lambda %g: no step lowers the loss; stopping at gradient "
                "norm %.3g", lam, float(np.max(np.abs(grad))),
            )
            return w
        w, loss = trial, trial_loss
    logger.warning(
        "lambda %g: %d Newton steps without convergence; gradient norm %.3g",
        lam, MAX_NEWTON_ITER, float(np.max(np.abs(logreg_gradient(w, x, y, lam)))),
    )
    return w


# ---------------------------------------------------------------------------
# distortion-holdout cross-validation


@dataclass
class CVResult:
    best_lambda: float
    lambdas: tuple[float, ...]
    fold_losses: np.ndarray  # (len(lambdas), n_folds) held-out mean losses
    mean_losses: np.ndarray  # (len(lambdas),)


def cross_validate(
    x: np.ndarray,
    y: np.ndarray,
    fold_ids: np.ndarray,
    grid: tuple[float, ...] = LAMBDA_GRID,
) -> CVResult:
    """Hold out one fold at a time; pick the lambda with the lowest mean
    held-out logistic loss, preferring the larger lambda on ties."""
    fold_ids = np.asarray(fold_ids)
    folds = np.unique(fold_ids)
    if folds.shape[0] < 2:
        raise ContractError("cross-validation needs at least 2 folds")
    if not grid:
        raise ContractError("lambda grid is empty")
    table = np.empty((len(grid), folds.shape[0]))
    for gi, lam in enumerate(grid):
        for fi, fold in enumerate(folds):
            held = fold_ids == fold
            w = fit_logreg(x[~held], y[~held], lam)
            table[gi, fi] = logreg_loss(w, x[held], y[held], 0.0)
    means = table.mean(axis=1)
    best = 0
    for gi in range(1, len(grid)):
        if means[gi] <= means[best]:  # ties resolved toward the larger lambda
            best = gi
    return CVResult(float(grid[best]), tuple(grid), table, means)


# ---------------------------------------------------------------------------
# training-set construction


@dataclass
class LabeledFeatureSet:
    """Transformed features, correctness labels, and fold ids for training."""

    features: np.ndarray  # (5m, d) float64, power-transformed
    labels: np.ndarray  # (5m,) 0/1
    fold_ids: np.ndarray  # (5m,) 0 = calibration, then one id per family
    fold_names: tuple[str, ...] = FOLD_NAMES


def build_training_set(
    net: Network,
    calibration: Dataset,
    pt: PowerTransform,
    seed: int,
    kind: FeatureKind = FeatureKind.MINMAX,
) -> LabeledFeatureSet:
    """Calibration data plus one distorted copy per family.

    Every row's label is 1 exactly when the classifier's prediction matches
    the row's (possibly mixup-adjusted) label; the power transform is the
    one fitted on the training data, never refit here.
    """
    if calibration.labels is None:
        raise ContractError("calibration dataset must be labeled")
    sources = [calibration]
    for name, family in DISTORTION_FAMILIES.items():
        sources.append(family(calibration, derive_seed(seed, f"distort-{name}")))
    blocks = []
    labels = []
    fold_ids = []
    for fold, source in enumerate(sources):
        outputs = run_network(net, source.images, kind)
        blocks.append(apply_power_transform(pt, outputs.features))
        labels.append((outputs.predictions == source.labels).astype(np.float64))
        fold_ids.append(np.full(len(source), fold, dtype=np.int64))
    return LabeledFeatureSet(
        np.vstack(blocks), np.concatenate(labels), np.concatenate(fold_ids)
    )


# ---------------------------------------------------------------------------
# detector


@dataclass
class LDetector:
    """Fitted logistic detector; immutable after calibration."""

    method: ClassVar[str] = "l"

    scaler: SplitScaler
    weights: np.ndarray  # (2*2d + 1,), intercept first
    reg_lambda: float
    threshold: float | None = None

    def score(self, transformed: np.ndarray) -> np.ndarray:
        return score_l(self, transformed)


def fit_l_detector(
    training: LabeledFeatureSet,
    means_source: np.ndarray,
    grid: tuple[float, ...] = LAMBDA_GRID,
) -> tuple[LDetector, CVResult]:
    """Scale, cross-validate the penalty, fit on everything, calibrate."""
    scaler, x = fit_split_scaler(training.features, means_source)
    cv = cross_validate(x, training.labels, training.fold_ids, grid)
    weights = fit_logreg(x, training.labels, cv.best_lambda)
    det = LDetector(scaler, weights, cv.best_lambda)
    calibrate(det, score_l(det, training.features[training.fold_ids == 0]))
    logger.info(
        "selected lambda %g, threshold %.6f", cv.best_lambda, det.threshold
    )
    return det, cv


def score_l(det: LDetector, features: np.ndarray) -> np.ndarray:
    """P(classifier is correct | features), in [0, 1]; higher means
    more in-distribution."""
    x = apply_split_scaler(det.scaler, features)
    return _sigmoid(det.weights[0] + x @ det.weights[1:])
