"""Test-only helpers: a wall-clock timing harness, the overhead arithmetic
criterion 10 reports, bit-exact network equality, and the feature CSV
reader."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from xood.errors import ContractError, FormatError
from xood.keyvalue import read_table, read_utf8
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
