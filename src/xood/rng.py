"""Deterministic, platform-independent randomness.

Every random quantity in the package flows from one master seed. Independent
streams are derived by hashing a short purpose tag into that seed
(``derive_seed``), so weight initialization, dataset splitting, and each
distortion family never share state and adding a new consumer cannot shift
the values seen by an existing one.

Streams are counter-based SplitMix64 generators: the k-th output word is
``mix64(seed + (k+1) * GOLDEN)``.  That makes bulk generation a single
vectorized uint64 expression, keeps results identical across platforms
(no libm or BLAS involvement), and lets per-item streams be forked as
``seed XOR item_index``, one at a time or many in lockstep. The finalizer
``mix64`` exists once, on arrays (``_mix64_array``): ``derive_seed`` runs
it on a one-element array, as numpy warns on scalar uint64 wrap-around.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# 2**-53, scale from a 53-bit integer to [0, 1)
_U53 = 1.0 / (1 << 53)


def _fnv1a64(tag: str) -> int:
    h = _FNV_OFFSET
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, tag: str) -> int:
    """Derive an independent stream seed from a master seed and a purpose tag."""
    state = np.array([(seed & _MASK64) ^ _fnv1a64(tag)], dtype=np.uint64)
    return int(_mix64_array(state)[0])


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


class Stream:
    """Counter-based SplitMix64 random stream.

    All draw methods consume words from a single monotone counter, so the
    sequence of values depends only on the seed and the order of calls.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._count = 0

    def fork(self, index: int | np.ndarray) -> "Stream":
        """Independent per-item stream, derived as ``seed XOR index``. An
        (n, 1) uint64 ``index`` forks n streams that share one counter: each
        draw gains a leading axis, and its row i is ``fork(index[i, 0])``'s."""
        return Stream(self._seed ^ (index & _MASK64))

    def words(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words."""
        if n < 0:
            raise ValueError("word count must be non-negative")
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        state = np.uint64(self._seed) + idx * np.uint64(_GOLDEN)
        return _mix64_array(state)

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """``n`` float64 variates uniform on [low, high)."""
        base = (self.words(n) >> np.uint64(11)).astype(np.float64) * _U53
        return low + base * (high - low)

    def normal(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """``n`` float64 Gaussian variates via Box-Muller."""
        pairs = (n + 1) // 2
        # u1 in (0, 1] so the log is always finite
        u1 = ((self.words(pairs) >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
        u2 = (self.words(pairs) >> np.uint64(11)).astype(np.float64) * _U53
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(u1.shape[:-1] + (2 * pairs,))
        out[..., 0::2] = radius * np.cos(theta)
        out[..., 1::2] = radius * np.sin(theta)
        return mean + std * out[..., :n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """``n`` int64 values uniform on [0, bound).

        Uses the 53-bit float construction; the bias is negligible for the
        bounds used here (far below 2**53).
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n)."""
        return np.argsort(self.uniform(n), kind="stable")
