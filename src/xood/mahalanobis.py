"""Unsupervised detector: regularized Mahalanobis distance over transformed
extreme-value features.

Fit estimates the feature mean mu and the unbiased covariance M of the
transformed features of *correctly classified* training images, then
factorizes M' = M + C*I once. Because the features were standardized by the
power transform, the diagonal of M sits near 1 and a single scalar C
(default 10) regularizes every direction uniformly: C = 0 recovers the
textbook Mahalanobis distance, while C >> ||M|| collapses the score
ordering onto plain Euclidean distance.

Scoring computes D(x) = sqrt((x - mu)^T M'^-1 (x - mu)) by one triangular
solve against the cached Cholesky factor. The matrix is never inverted
explicitly. Confidence is -D; an input is accepted as in-distribution when
its confidence exceeds a threshold calibrated to the 5th percentile of
held-out in-distribution confidences.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import ContractError, FormatError, SingularityError
from .keyvalue import optional_float, read_key_values
from .xten import read_tensor, write_tensor

DEFAULT_REG_C = 10.0
THRESHOLD_QUANTILE = 0.05


def cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == matrix.

    Hand-rolled so a non-positive pivot can be reported exactly; with the
    default C this cannot trigger, at C = 0 it surfaces singular feature
    covariances instead of jittering them away.
    """
    a = np.asarray(matrix, dtype=np.float64)
    d = a.shape[0]
    if a.ndim != 2 or a.shape[1] != d:
        raise ContractError(f"matrix must be square, got shape {a.shape}")
    lower = np.zeros_like(a)
    for j in range(d):
        pivot = a[j, j] - np.dot(lower[j, :j], lower[j, :j])
        if pivot <= 0.0 or not np.isfinite(pivot):
            raise SingularityError(
                f"factorization failed at row {j}: pivot {pivot:.6e} "
                "(matrix is not positive definite)",
                pivot=float(pivot),
            )
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < d:
            lower[j + 1 :, j] = (
                a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]
            ) / lower[j, j]
    return lower


def _solve_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution: solve lower @ z = rhs for (d,) or (d, n) rhs."""
    z = np.array(rhs, dtype=np.float64, copy=True)
    d = lower.shape[0]
    for j in range(d):
        if j:
            z[j] -= lower[j, :j] @ z[:j]
        z[j] /= lower[j, j]
    return z


@dataclass
class MDetector:
    """Fitted Mahalanobis detector; immutable after calibration. The
    covariance is not kept: it is ``factor @ factor.T - reg_c * I``."""

    method: ClassVar[str] = "m"

    mean: np.ndarray  # (d,) float64
    reg_c: float
    factor: np.ndarray  # (d, d) float64 lower Cholesky factor of cov + C*I
    threshold: float | None = None

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def score(self, transformed: np.ndarray) -> np.ndarray:
        return confidence(self, transformed)

    def save(self, directory: str | Path) -> None:
        save_m_detector(self, directory)


def fit_mahalanobis(features: np.ndarray, reg_c: float = DEFAULT_REG_C) -> MDetector:
    """Estimate mu and M from transformed features and factorize M + C*I."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError(f"features must be 2-D, got shape {x.shape}")
    n, d = x.shape
    if n <= d:
        raise ContractError(f"need more rows than dimensions, got {n} rows for d={d}")
    if reg_c < 0:
        raise ContractError(f"regularizer must be >= 0, got {reg_c}")
    if not np.all(np.isfinite(x)):
        raise ContractError("features contain non-finite values")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = (centered.T @ centered) / (n - 1)
    cov = 0.5 * (cov + cov.T)
    factor = cholesky_lower(cov + reg_c * np.eye(d))
    return MDetector(mean, float(reg_c), factor)


def mahalanobis_score(det: MDetector, features: np.ndarray) -> np.ndarray:
    """Regularized Mahalanobis distance, (n,) for a (n, d) batch."""
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != det.dim:
        raise ContractError(
            f"features shape {x.shape} does not match detector dim {det.dim}"
        )
    z = _solve_lower(det.factor, (x - det.mean).T)
    d = np.sqrt((z * z).sum(axis=0))
    return d[0] if single else d


def confidence(det: MDetector, features: np.ndarray) -> np.ndarray:
    """Detector confidence: higher means more in-distribution."""
    return -mahalanobis_score(det, features)


def lower_quantile_threshold(
    confidences: np.ndarray, quantile: float = THRESHOLD_QUANTILE
) -> float:
    """The k-th smallest confidence with k = ceil(quantile * n).

    Accepting scores strictly above this keeps (n - k)/n of the
    calibration set, i.e. 95% at the default quantile.
    """
    values = np.sort(np.asarray(confidences, dtype=np.float64))
    n = values.shape[0]
    if n < 20:
        raise ContractError(f"need at least 20 calibration scores, got {n}")
    k = int(np.ceil(quantile * n - 1e-9))
    return float(values[k - 1])


def calibrate(det: MDetector, calibration_confidences: np.ndarray) -> MDetector:
    """Set the acceptance threshold from held-out in-distribution scores."""
    det.threshold = lower_quantile_threshold(calibration_confidences)
    return det


# ---------------------------------------------------------------------------
# persistence: text manifest + XTEN blobs in a directory


def read_detector_tensor(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """A saved detector tensor as float64. A shape other than ``shape`` or
    a non-finite entry raises FormatError naming the file."""
    values = read_tensor(path).astype(np.float64)
    if values.shape != shape:
        raise FormatError(f"{path} has shape {values.shape}, expected {shape}")
    if not np.isfinite(values).all():
        raise FormatError(f"{path} holds non-finite values")
    return values


def save_m_detector(det: MDetector, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        "detector=mahalanobis",
        f"dim={det.dim}",
        f"reg_c={float(det.reg_c)!r}",
        f"threshold={'none' if det.threshold is None else repr(float(det.threshold))}",
    ]
    (directory / "detector.txt").write_text("\n".join(lines) + "\n")
    write_tensor(directory / "mean.xten", det.mean)
    write_tensor(directory / "factor.xten", det.factor)


def load_m_detector(directory: str | Path) -> MDetector:
    """Read a saved detector; a stale ``cov.xten`` is ignored."""
    directory = Path(directory)
    entries = read_key_values(directory / "detector.txt")
    if entries.get("detector") != "mahalanobis":
        raise ContractError(f"{directory} does not hold a mahalanobis detector")
    dim = entries.get("dim", int)
    factor = read_detector_tensor(directory / "factor.xten", (dim, dim))
    if not (np.diag(factor) > 0).all():
        raise FormatError(f"{directory / 'factor.xten'} has a diagonal entry <= 0")
    return MDetector(
        mean=read_detector_tensor(directory / "mean.xten", (dim,)),
        reg_c=entries.get("reg_c", float),
        factor=factor,
        threshold=entries.get("threshold", optional_float),
    )
