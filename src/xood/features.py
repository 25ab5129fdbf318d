"""Per-layer feature extraction and the Yeo-Johnson power transform.

Each tapped activation layer is reduced to a handful of scalars per image.
The default reduction keeps the global minimum and maximum of the tensor
feeding each Relu, giving 2r features for r activation layers; alternative
reductions (positivity fraction, sum, Lp norms, split Lp norms) exist for
ablation-style comparisons and share the same extraction interface.

Extreme values are strongly non-Gaussian, so before any covariance is
estimated every feature dimension is mapped through a Yeo-Johnson power
transform with a per-dimension maximum-likelihood lambda and standardized
to zero mean and unit variance. The lambda search maximizes the profile
log-likelihood

    l(lambda) = -(n/2) * log(sigma_hat^2(lambda))
                + (lambda - 1) * sum(sign(x) * log(|x| + 1))

by golden-section search on [-5, 5] to a 1e-4 interval.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError
from .keyvalue import read_utf8

logger = logging.getLogger(__name__)

LAMBDA_LO = -5.0
LAMBDA_HI = 5.0
LAMBDA_TOL = 1e-4
STD_FLOOR = 1e-8
MIN_FIT_ROWS = 10

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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

_PAIRED = {FeatureKind.MINMAX, FeatureKind.SPLIT_L1, FeatureKind.SPLIT_L2,
           FeatureKind.SPLIT_L3}
_NORM_P = {FeatureKind.L1: 1, FeatureKind.L2: 2, FeatureKind.L3: 3,
           FeatureKind.SPLIT_L1: 1, FeatureKind.SPLIT_L2: 2,
           FeatureKind.SPLIT_L3: 3}


def feature_width(kind: FeatureKind, num_layers: int) -> int:
    """Feature count: 2r for the paired kinds, r otherwise."""
    return (2 if kind in _PAIRED else 1) * num_layers


def feature_names(kind: FeatureKind, num_layers: int) -> list[str]:
    """Column names, layer indices 1-based: layer1_min, layer1_max, ..."""
    names = []
    for j in range(1, num_layers + 1):
        if kind is FeatureKind.MINMAX:
            names += [f"layer{j}_min", f"layer{j}_max"]
        elif kind in (FeatureKind.SPLIT_L1, FeatureKind.SPLIT_L2,
                      FeatureKind.SPLIT_L3):
            p = _NORM_P[kind]
            names += [f"layer{j}_l{p}_pos", f"layer{j}_l{p}_neg"]
        else:
            names.append(f"layer{j}_{kind.value}")
    return names


def _lp_norm(flat: np.ndarray, p: int) -> np.ndarray:
    acc = (np.abs(flat, dtype=np.float64) ** p).sum(axis=1)
    return acc ** (1.0 / p)


def reduce_tap(tap: np.ndarray, kind: FeatureKind = FeatureKind.MINMAX) -> list[np.ndarray]:
    """Per-image scalar columns for one tap tensor of shape (N, ...).

    Callers that hold the tensor right after it is produced should reduce
    it immediately: the reads then stay in cache instead of waiting until
    later layers have pushed the tap out to memory.
    """
    flat = tap.reshape(tap.shape[0], -1)
    if kind is FeatureKind.MINMAX:
        return [flat.min(axis=1), flat.max(axis=1)]
    if kind is FeatureKind.MIN:
        return [flat.min(axis=1)]
    if kind is FeatureKind.MAX:
        return [flat.max(axis=1)]
    if kind is FeatureKind.POSITIVITY:
        return [(flat > 0).mean(axis=1, dtype=np.float64)]
    if kind is FeatureKind.SUM:
        return [flat.sum(axis=1, dtype=np.float64)]
    if kind in (FeatureKind.L1, FeatureKind.L2, FeatureKind.L3):
        return [_lp_norm(flat, _NORM_P[kind])]
    if kind in (FeatureKind.SPLIT_L1, FeatureKind.SPLIT_L2, FeatureKind.SPLIT_L3):
        p = _NORM_P[kind]
        return [
            _lp_norm(np.maximum(flat, 0), p),
            _lp_norm(np.maximum(-flat, 0), p),
        ]
    raise ContractError(f"unknown feature kind {kind}")


def assemble_columns(columns: list[np.ndarray]) -> np.ndarray:
    """Stack per-image scalar columns into a float32 feature matrix."""
    if not columns:
        raise ContractError("need at least one feature column")
    return np.stack(columns, axis=1).astype(np.float32)


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
    columns: list[np.ndarray] = []
    for tap in taps:
        if tap.shape[0] != n:
            raise ContractError("tap tensors disagree on batch size")
        columns += reduce_tap(tap, kind)
    return assemble_columns(columns)


# ---------------------------------------------------------------------------
# Yeo-Johnson


def yeo_johnson(x: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """Yeo-Johnson transform of ``x`` in float64.

    ``lam`` is one lambda or an array broadcasting against ``x``, such as
    one lambda per column of an (n, d) matrix. Uses the log1p/expm1 forms
    so the lambda -> 0 and lambda -> 2 limits are approached smoothly.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    # x < 0 maps through the x >= 0 form of -x at power 2 - lambda, negated
    sign = np.where(pos, 1.0, -1.0)
    power = np.where(pos, lam, 2.0 - lam)
    base = np.log1p(sign * x)
    limit = np.abs(power) < np.spacing(1.0)
    safe = np.where(limit, 1.0, power)
    return sign * np.where(limit, base, np.expm1(power * base) / safe)


def yeo_johnson_loglik(x: np.ndarray, lam: float) -> float:
    """Profile log-likelihood of lambda for one feature column."""
    x = np.asarray(x, dtype=np.float64)
    y = yeo_johnson(x, lam)
    var = float(y.var())
    if not np.isfinite(var) or var <= 0.0:
        return -math.inf
    skew_term = float(np.sum(np.sign(x) * np.log1p(np.abs(x))))
    return -0.5 * x.size * math.log(var) + (lam - 1.0) * skew_term


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
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


def fit_power_transform(features: np.ndarray) -> PowerTransform:
    """Fit lambda, mean, and std per column.

    Columns whose transformed values are (nearly) constant get std pinned
    to 1 and are flagged; a warning is logged because such a dimension
    carries no signal.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError(f"features must be 2-D, got shape {x.shape}")
    n, d = x.shape
    if n < MIN_FIT_ROWS:
        raise ContractError(f"need at least {MIN_FIT_ROWS} rows to fit, got {n}")
    if not np.all(np.isfinite(x)):
        raise ContractError("features contain non-finite values")
    lambdas = np.empty(d)
    means = np.empty(d)
    stds = np.empty(d)
    flags = np.zeros(d, dtype=bool)
    for j in range(d):
        col = x[:, j]
        if float(col.max()) - float(col.min()) == 0.0:
            # constant column: any lambda is as good as any other
            lambdas[j] = 1.0
        else:
            lambdas[j] = _golden_max(
                lambda lam: yeo_johnson_loglik(col, lam),
                LAMBDA_LO,
                LAMBDA_HI,
                LAMBDA_TOL,
            )
        y = yeo_johnson(col, lambdas[j])
        means[j] = y.mean()
        std = float(y.std())
        if std < STD_FLOOR:
            logger.warning(
                "feature dimension %d is constant after transform; "
                "std pinned to 1",
                j,
            )
            std = 1.0
            flags[j] = True
        stds[j] = std
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
    bad = ~np.isfinite(x)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ContractError(f"non-finite feature at row {row}, column {col}")
    return (yeo_johnson(x, pt.lambdas) - pt.means) / pt.stds


# ---------------------------------------------------------------------------
# persistence


def save_power_transform(pt: PowerTransform, path: str | Path) -> None:
    """Text manifest, one line per dimension: dim,lambda,mean,std,flagged."""
    lines = ["dim,lambda,mean,std,flagged"]
    for j in range(pt.dim):
        lines.append(
            f"{j},{float(pt.lambdas[j])!r},{float(pt.means[j])!r},"
            f"{float(pt.stds[j])!r},{int(pt.flags[j])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_power_transform(path: str | Path) -> PowerTransform:
    lines = [l for l in read_utf8(path).splitlines() if l.strip()]
    if not lines or lines[0].strip() != "dim,lambda,mean,std,flagged":
        raise FormatError(f"bad power transform header in {path}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise FormatError(f"bad power transform line: {line!r}")
        try:
            rows.append(
                (int(parts[0]), float(parts[1]), float(parts[2]),
                 float(parts[3]), bool(int(parts[4])))
            )
        except ValueError as exc:
            raise FormatError(f"bad power transform value: {exc}") from None
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise FormatError("power transform dims are not 0..d-1")
    return PowerTransform(
        np.array([r[1] for r in rows]),
        np.array([r[2] for r in rows]),
        np.array([r[3] for r in rows]),
        np.array([r[4] for r in rows], dtype=bool),
    )


def write_feature_csv(
    path: str | Path, features: np.ndarray, names: list[str]
) -> None:
    """Feature table with an image_id column; floats use 9 significant
    digits, enough to round-trip float32 exactly."""
    if features.ndim != 2 or features.shape[1] != len(names):
        raise ContractError(
            f"features shape {features.shape} vs {len(names)} column names"
        )
    lines = ["image_id," + ",".join(names)]
    for i, row in enumerate(features):
        lines.append(f"{i}," + ",".join(f"{v:.9g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_feature_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Returns (column names, float32 matrix); image_id order is checked."""
    lines = [l for l in read_utf8(path).splitlines() if l.strip()]
    if not lines or not lines[0].startswith("image_id,"):
        raise FormatError(f"bad feature CSV header in {path}")
    names = lines[0].split(",")[1:]
    rows = []
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        try:
            index, row = int(parts[0]), [float(v) for v in parts[1:]]
        except ValueError:
            index = None
        if len(parts) != len(names) + 1 or index != i:
            raise FormatError(f"bad feature CSV row {i}: {line!r}")
        rows.append(row)
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    with np.errstate(over="ignore"):
        narrowed = values.astype(np.float32)
    overflow = (np.isinf(narrowed) & np.isfinite(values)).any(axis=1)
    if overflow.any():
        i = int(overflow.argmax())
        raise FormatError(
            f"bad feature CSV row {i}: {lines[i + 1]!r} exceeds the float32 range"
        )
    return names, narrowed
