"""Test-only helpers: a wall-clock timing harness, the overhead arithmetic
criterion 10 reports, bit-exact network equality, the feature CSV reader,
and reference forms of code the library now does in matrix or lockstep
form: the tap-loop Gaussian blur, the one-column Yeo-Johnson likelihood
and golden-section search, and cold-started cross-validation."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from xood.errors import ContractError, FormatError
from xood.features import yeo_johnson
from xood.keyvalue import read_table, read_utf8
from xood.logistic import fit_logreg, logreg_loss
from xood.network import Network, _encode_network


def overhead(t: float, t_base: float) -> float:
    """Relative slowdown of t against the baseline t_base."""
    if t_base <= 0:
        raise ContractError(f"baseline time must be positive, got {t_base}")
    return (t - t_base) / t_base


def format_overhead(value: float) -> str:
    """Rounded percent form: 0.3724 -> '37%'."""
    return f"{round(value * 100):d}%"


@dataclass
class TimingStats:
    times: tuple[float, ...]


def time_call(
    fn: Callable[[], object], repeats: int = 10, warmup: int = 2
) -> TimingStats:
    """Wall-clock timing: run ``warmup`` unmeasured calls, then record
    ``repeats`` measured ones."""
    if repeats < 2:
        raise ContractError(f"need at least 2 repeats, got {repeats}")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return TimingStats(tuple(times))


def networks_equal(a: Network, b: Network) -> bool:
    """Bit-exact structural and parameter equality: equal XNET encodings."""
    return _encode_network(a) == _encode_network(b)


def read_feature_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Returns (column names, float32 matrix); see ``read_table``. The
    names are the header's after ``image_id``."""
    lines = [line for line in read_utf8(path).splitlines() if line.strip()]
    names = lines[0].split(",")[1:] if lines else []
    values = read_table(path, "image_id", names)
    with np.errstate(over="ignore"):
        narrowed = values.astype(np.float32)
    overflow = np.isinf(narrowed).any(axis=1)
    if overflow.any():
        raise FormatError(
            f"{path} row {int(overflow.argmax())} exceeds the float32 range"
        )
    return names, narrowed


def reference_blur_images(images: np.ndarray, sigmas) -> np.ndarray:
    """Separable Gaussian blur as a loop over the taps, with reflected
    boundaries: images grouped by kernel radius, each group's reflect-padded
    rows summed tap by tap in float64, then the same along the transposed
    columns."""
    kernels = []
    for sigma in np.asarray(sigmas, np.float64).reshape(-1):
        radius = math.ceil(3.0 * sigma)
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
        kernels.append(kernel / kernel.sum())
    radii = np.array([(len(k) - 1) // 2 for k in kernels])
    out = np.empty(images.shape, dtype=np.float32)
    for radius in np.unique(radii):
        members = np.flatnonzero(radii == radius)
        taps = np.stack([kernels[m] for m in members])
        work = images[members].astype(np.float64)
        for _ in range(2):  # along the rows, then along the transposed columns
            padded = np.pad(work, ((0, 0), (0, 0), (radius, radius), (0, 0)), "reflect")
            acc = np.zeros_like(work)
            for k, tap in enumerate(taps.T):
                acc += tap[:, None, None, None] * padded[:, :, k : k + work.shape[2]]
            work = acc.swapaxes(2, 3)
        out[members] = work
    return out


def yeo_johnson_loglik(x: np.ndarray, lam: float) -> float:
    """Profile log-likelihood of lambda for one feature column."""
    x = np.asarray(x, dtype=np.float64)
    y = yeo_johnson(x, lam)
    var = float(y.var())
    if not np.isfinite(var) or var <= 0.0:
        return -math.inf
    skew_term = float(np.sum(np.sign(x) * np.log1p(np.abs(x))))
    return -0.5 * x.size * math.log(var) + (lam - 1.0) * skew_term


def golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def cold_cv_losses(x, y, fold_ids, grid) -> np.ndarray:
    """(len(grid), folds) held-out losses, each cell fitted from zeros."""
    folds = np.unique(fold_ids)
    table = np.empty((len(grid), len(folds)))
    for gi, lam in enumerate(grid):
        for fi, fold in enumerate(folds):
            held = fold_ids == fold
            w = fit_logreg(x[~held], y[~held], lam)
            table[gi, fi] = logreg_loss(w, x[held], y[held], 0.0)
    return table
