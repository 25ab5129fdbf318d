"""Per-layer feature extraction and the Yeo-Johnson power transform.

Each tapped activation layer is reduced to a handful of scalars per image.
The default reduction keeps the global minimum and maximum of the tensor
feeding each Relu, giving 2r features for r activation layers; alternative
reductions (positivity fraction, sum, Lp norms, split Lp norms) exist for
ablation-style comparisons and share the same extraction interface:
``reduce_tap`` writes one tap's columns straight into ``out``, its block
of a feature matrix allocated once, so no per-column arrays are built and
stacked.

Extreme values are strongly non-Gaussian, so before any covariance is
estimated every feature dimension is mapped through a Yeo-Johnson power
transform with a per-dimension maximum-likelihood lambda and standardized
to zero mean and unit variance. The lambda search maximizes the profile
log-likelihood

    l(lambda) = -(n/2) * log(sigma_hat^2(lambda))
                + (lambda - 1) * sum(sign(x) * log(|x| + 1))

by golden-section search on [-5, 5] to a 1e-4 interval. The fit searches
all non-constant columns in lockstep, one transform of the transposed
matrix per step, each column computing its log1p base and skew term once,
keeping its own bracket and stopping on its own: its lambda, mean and std
are bit for bit those of a search on that column alone. The transform
runs its log1p-limit passes only when some element's power lies at the
limit, and applying a fitted transform standardizes in place. This module
holds only the math: ``pipeline`` saves and loads fitted transforms.
It also holds the penalty rule, ``is_penalty``, that the CLI, both fits
and both detectors apply to xood-m's C and xood-l's lambda.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from operator import methodcaller
from typing import Callable

import numpy as np

from .errors import ContractError

logger = logging.getLogger(__name__)

LAMBDA_LO = -5.0
LAMBDA_HI = 5.0
LAMBDA_TOL = 1e-4
STD_FLOOR = 1e-8
MIN_FIT_ROWS = 10

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Yeo-Johnson powers closer to 0 than this take the log1p limit
_LIMIT = np.spacing(1.0)


class FeatureKind(str, Enum):
    MINMAX = "minmax"
    MIN = "min"
    MAX = "max"
    POSITIVITY = "positivity"
    SUM = "sum"
    L1 = "l1"
    L2 = "l2"
    L3 = "l3"
    SPLIT_L1 = "split-l1"
    SPLIT_L2 = "split-l2"
    SPLIT_L3 = "split-l3"

    @classmethod
    def _missing_(cls, value):
        # FeatureKind("nope") raises this instead of Enum's bare ValueError
        choices = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown feature kind {value!r}; choose from {choices}")


ALL_FEATURE_KINDS = tuple(FeatureKind)


def _lp_norm(p: int, sign: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """Reduction to the per-image Lp norm of the flattened tap, or of its
    positive (``sign`` 1) or negative (``sign`` -1) part."""

    def reduce(flat: np.ndarray) -> np.ndarray:
        part = np.maximum(flat if sign > 0 else -flat, 0) if sign else flat
        return (np.abs(part, dtype=np.float64) ** p).sum(axis=1) ** (1.0 / p)

    return reduce


# Per kind, the columns each layer contributes, in order: (name suffix,
# reduction of the (N, -1) flattened tap to one value per image). Min and
# max are ufuncs whose ``reduce`` writes straight into the column: it is
# what ``.min/.max(axis=1)`` run, bit for bit, signed-zero ties and NaNs
# included, at less fixed cost per call than ``reduceat`` on one image.
# The other reductions run in float64 and are rounded once into it.
_COLUMNS = {
    FeatureKind.MINMAX: (("min", np.minimum), ("max", np.maximum)),
    FeatureKind.MIN: (("min", np.minimum),),
    FeatureKind.MAX: (("max", np.maximum),),
    FeatureKind.POSITIVITY: (
        ("positivity", lambda flat: (flat > 0).mean(axis=1, dtype=np.float64)),
    ),
    FeatureKind.SUM: (("sum", methodcaller("sum", axis=1, dtype=np.float64)),),
    **{FeatureKind(f"l{p}"): ((f"l{p}", _lp_norm(p)),) for p in (1, 2, 3)},
    **{FeatureKind(f"split-l{p}"): ((f"l{p}_pos", _lp_norm(p, 1)),
                                    (f"l{p}_neg", _lp_norm(p, -1)))
       for p in (1, 2, 3)},
}


def feature_width(kind: FeatureKind, num_layers: int) -> int:
    """Feature count: 2r for the paired kinds, r otherwise."""
    return len(_COLUMNS[kind]) * num_layers


def feature_names(kind: FeatureKind, num_layers: int) -> list[str]:
    """Column names, layer indices 1-based: layer1_min, layer1_max, ..."""
    return [f"layer{j}_{suffix}" for j in range(1, num_layers + 1)
            for suffix, _ in _COLUMNS[kind]]


def reduce_tap(tap: np.ndarray, kind: FeatureKind, out: np.ndarray) -> None:
    """Reduce one tap tensor of shape (N, ...) to the kind's per-image
    columns, written into ``out``, an (N, feature_width(kind, 1)) float32
    block such as one tap's columns of a feature matrix.

    Min and max reduce straight into their column; the other kinds reduce
    in float64 and are rounded once on assignment. Callers that hold the
    tensor right after it is produced should reduce it immediately: the
    reads then stay in cache instead of waiting until later layers have
    pushed the tap out to memory.
    """
    flat = tap.reshape(tap.shape[0], math.prod(tap.shape[1:]))
    for j, (_, reduction) in enumerate(_COLUMNS[kind]):
        if isinstance(reduction, np.ufunc):
            reduction.reduce(flat, axis=1, out=out[:, j])
        else:
            out[:, j] = reduction(flat)


def extract_features(
    taps: list[np.ndarray], kind: FeatureKind = FeatureKind.MINMAX
) -> np.ndarray:
    """Reduce each tap tensor to per-image scalars.

    ``taps`` holds r arrays of shape (N, ...); the reduction runs over all
    non-batch axes. Returns a float32 matrix (N, feature_width).
    """
    if not taps:
        raise ContractError("need at least one tap tensor")
    n = taps[0].shape[0]
    per_tap = feature_width(kind, 1)
    features = np.empty((n, per_tap * len(taps)), np.float32)
    for j, tap in enumerate(taps):
        if tap.shape[0] != n:
            raise ContractError("tap tensors disagree on batch size")
        reduce_tap(tap, kind, features[:, j * per_tap : (j + 1) * per_tap])
    return features


# ---------------------------------------------------------------------------
# Yeo-Johnson


def yeo_johnson(x: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """Yeo-Johnson transform of ``x`` in float64.

    ``lam`` is one lambda or an array broadcasting against ``x``, such as
    one lambda per column of an (n, d) matrix. Uses the log1p/expm1 forms
    so the lambda -> 0 and lambda -> 2 limits are approached smoothly.
    Elements whose power (lambda, or 2 - lambda for x < 0) lies within
    ``spacing(1)`` of 0 take the log1p limit; when there are none, the
    limit passes are skipped, which changes no bit of the result.
    """
    return _yeo_johnson_parts(*_yeo_johnson_base(x), lam)


def _yeo_johnson_base(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the transform of ``x`` needs whatever lambda: the x >= 0 mask,
    the sign (+1 for x >= 0, else -1) and log1p(|x|)."""
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    # x < 0 maps through the x >= 0 form of -x at power 2 - lambda, negated
    sign = np.where(pos, 1.0, -1.0)
    return pos, sign, np.log1p(sign * x)


def _yeo_johnson_parts(
    pos: np.ndarray, sign: np.ndarray, base: np.ndarray, lam: float | np.ndarray
) -> np.ndarray:
    power = np.where(pos, lam, 2.0 - lam)
    limit = np.abs(power) < _LIMIT
    if limit.any():
        safe = np.where(limit, 1.0, power)
        return sign * np.where(limit, base, np.expm1(power * base) / safe)
    return sign * (np.expm1(power * base) / power)


def _lockstep_loglik(parts, skew: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The profile log-likelihood l(lambda) of each row of a transposed
    (k, n) matrix, whose ``_yeo_johnson_base`` is ``parts`` and skew terms
    ``skew``, at that row's lambda; -inf where the variance is not finite
    and positive. Each reduction runs over one contiguous row, so a row's
    value is bit for bit the one its column alone would give."""
    var = _yeo_johnson_parts(*parts, lam[:, None]).var(axis=1)
    n = parts[2].shape[1]
    return np.array([
        -0.5 * n * math.log(v) + (lm - 1.0) * s
        if math.isfinite(v) and v > 0.0 else -math.inf
        for v, lm, s in zip(var.tolist(), lam.tolist(), skew.tolist())
    ])


def _golden_max_lockstep(f, k: int, lo: float, hi: float, tol: float) -> np.ndarray:
    """Golden-section maximization of k unimodal functions on [lo, hi] at
    once: ``f(lam)`` evaluates the k functions at the (k,) points ``lam``.
    Each keeps its own bracket and stops on its own, after the steps a
    search of it alone takes."""
    a, b = np.full(k, lo), np.full(k, hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while ((b - a) > tol).any():
        active = (b - a) > tol
        left = active & (fc >= fd)
        right = active & ~left
        # left: b, d, fd = d, c, fc; c = b - INVPHI (b - a)
        b = np.where(left, d, b)
        d, fd = np.where(left, c, d), np.where(left, fc, fd)
        # right: a, c, fc = c, d, fd; d = a + INVPHI (b - a)
        a = np.where(right, c, a)
        c, fc = np.where(right, d, c), np.where(right, fd, fc)
        c = np.where(left, b - _INVPHI * (b - a), c)
        d = np.where(right, a + _INVPHI * (b - a), d)
        values = f(np.where(left, c, d))
        fc = np.where(left, values, fc)
        fd = np.where(right, values, fd)
    return 0.5 * (a + b)


@dataclass
class PowerTransform:
    """Fitted per-dimension Yeo-Johnson parameters plus standardization."""

    lambdas: np.ndarray  # (d,) float64
    means: np.ndarray  # (d,) float64, mean of transformed fit data
    stds: np.ndarray  # (d,) float64, MLE std of transformed fit data
    flags: np.ndarray  # (d,) bool, True where the std guard fired

    @property
    def dim(self) -> int:
        return self.lambdas.shape[0]

    @property
    def lambdas_at_edge(self) -> tuple[int, ...]:
        """The columns whose lambda lies within LAMBDA_TOL of the search
        bracket's edge, -5 or 5: their likelihood still rose there."""
        edge = ((self.lambdas <= LAMBDA_LO + LAMBDA_TOL)
                | (self.lambdas >= LAMBDA_HI - LAMBDA_TOL))
        return tuple(np.flatnonzero(edge).tolist())


def is_penalty(value: float) -> bool:
    """The penalty rule: a penalty is finite and >= 0."""
    return math.isfinite(value) and value >= 0


def check_penalty(name: str, value: float) -> None:
    """Refuse a bad penalty with a ContractError that starts with ``name``."""
    if not is_penalty(value):
        raise ContractError(f"{name} must be finite and >= 0, got {value!r}")


def check_fields(
    owner: object, shapes: dict[str, tuple[int, ...]], penalty: str
) -> None:
    """Check a detector's fields, refusing each bad one with a ContractError
    whose message starts with the field's name: make each field that
    ``shapes`` names a float64 array, refusing one of another shape or with
    a non-finite entry; refuse a ``penalty`` that is negative or not finite,
    and a ``threshold`` that is not finite (None, not yet calibrated, is
    allowed)."""
    for name, shape in shapes.items():
        values = np.asarray(getattr(owner, name), dtype=np.float64)
        if values.shape != shape:
            raise ContractError(f"{name} has shape {values.shape}, expected {shape}")
        if not np.isfinite(values).all():
            raise ContractError(f"{name} holds non-finite values")
        setattr(owner, name, values)
    check_penalty(penalty, getattr(owner, penalty))
    if owner.threshold is not None and not math.isfinite(owner.threshold):
        raise ContractError(f"threshold must be finite, got {owner.threshold!r}")


def pin_constant_stds(stds: np.ndarray, what: str) -> np.ndarray:
    """Pin the entries of ``stds`` below STD_FLOOR to 1, in place, and
    return the flags of the pinned ones.

    Such a column is (nearly) constant and carries no signal; one warning
    names all of them, ``what`` saying which table they belong to.
    """
    flags = stds < STD_FLOOR
    if flags.any():
        logger.warning(
            "%s %s are constant; std pinned to 1",
            what, np.flatnonzero(flags).tolist(),
        )
        stds[flags] = 1.0
    return flags


def fit_power_transform(features: np.ndarray) -> PowerTransform:
    """Fit lambda, mean, and std per column; constant columns get their
    std pinned to 1 and are flagged (see ``pin_constant_stds``)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError(f"features must be 2-D, got shape {x.shape}")
    n, d = x.shape
    if n < MIN_FIT_ROWS:
        raise ContractError(f"need at least {MIN_FIT_ROWS} rows to fit, got {n}")
    if not np.all(np.isfinite(x)):
        raise ContractError("features contain non-finite values")
    # one contiguous row per column: each reduction runs as the column's own
    columns = np.ascontiguousarray(x.T)
    lambdas = np.ones(d)  # a constant column keeps 1: any lambda fits it as well
    varying = np.flatnonzero(columns.max(axis=1) - columns.min(axis=1) != 0.0)
    if varying.size:
        rows = columns[varying]
        skew = np.sum(np.sign(rows) * np.log1p(np.abs(rows)), axis=1)
        parts = _yeo_johnson_base(rows)
        lambdas[varying] = _golden_max_lockstep(
            lambda lam: _lockstep_loglik(parts, skew, lam),
            varying.size, LAMBDA_LO, LAMBDA_HI, LAMBDA_TOL,
        )
    transformed = yeo_johnson(columns, lambdas[:, None])
    means = transformed.mean(axis=1)
    stds = transformed.std(axis=1)
    flags = pin_constant_stds(stds, "feature dimensions")
    return PowerTransform(lambdas, means, stds, flags)


def apply_power_transform(pt: PowerTransform, features: np.ndarray) -> np.ndarray:
    """Transform and standardize ``features`` with fitted parameters.

    Returns float64. Non-finite inputs are rejected naming the first bad
    cell, so bad upstream data cannot masquerade as an extreme score.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != pt.dim:
        raise ContractError(
            f"features shape {x.shape} does not match transform dim {pt.dim}"
        )
    if not np.isfinite(x).all():
        row, col = np.argwhere(~np.isfinite(x))[0]
        raise ContractError(f"non-finite feature at row {row}, column {col}")
    y = yeo_johnson(x, pt.lambdas)
    y -= pt.means
    y /= pt.stds
    return y
