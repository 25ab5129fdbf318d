"""Detection metrics and the softmax baseline.

Score convention everywhere: higher scores mean "more in-distribution".
The in-distribution set is the positive class.

* auroc: probability an ID score exceeds an OOD score, ties counted half;
  computed from midranks so heavy ties are exact.
* tnr_at_95tpr: pick the largest threshold T that still accepts (score >=
  T) at least 95% of the ID set; report the fraction of OOD scores
  strictly below T. fpr_at_95tpr is its complement.
* detection_accuracy: best achievable mean of the two per-class accuracies
  over all thresholds, sweeping the n+1 distinct cut positions.
* msp_baseline: maximum softmax probability per row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError


def _check_scores(scores: np.ndarray, is_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    if scores.shape != is_id.shape or scores.ndim != 1:
        raise ContractError(
            f"scores {scores.shape} and is_id {is_id.shape} must be equal 1-D"
        )
    if not np.all(np.isfinite(scores)):
        raise ContractError("scores contain non-finite values")
    if is_id.all() or not is_id.any():
        raise ContractError("need both ID and OOD scores")
    return scores, is_id


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the mean rank of their block."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def auroc(scores: np.ndarray, is_id: np.ndarray) -> float:
    """P(ID score > OOD score) + 0.5 * P(tie), via the rank statistic."""
    scores, is_id = _check_scores(scores, is_id)
    ranks = _midranks(scores)
    n_id = int(is_id.sum())
    n_ood = scores.shape[0] - n_id
    rank_sum = float(ranks[is_id].sum())
    return (rank_sum - n_id * (n_id + 1) / 2.0) / (n_id * n_ood)


def tnr_at_95tpr(scores: np.ndarray, is_id: np.ndarray) -> float:
    """TNR at the largest threshold keeping TPR >= 0.95.

    The threshold is the order statistic sorted_id[n - ceil(0.95 * n)]
    (0-indexed ascending): accepting score >= T keeps exactly
    ceil(0.95 * n) of n distinct ID scores. An OOD input counts as detected
    when its score is strictly below T.
    """
    scores, is_id = _check_scores(scores, is_id)
    id_scores = np.sort(scores[is_id])
    n = id_scores.shape[0]
    if n < 20:
        raise ContractError(f"need at least 20 ID scores, got {n}")
    keep = int(math.ceil(0.95 * n - 1e-9))
    threshold = id_scores[n - keep]
    return float(np.mean(scores[~is_id] < threshold))


def fpr_at_95tpr(scores: np.ndarray, is_id: np.ndarray) -> float:
    return 1.0 - tnr_at_95tpr(scores, is_id)


def detection_accuracy(scores: np.ndarray, is_id: np.ndarray) -> float:
    """max over thresholds T of (P(s > T | ID) + P(s <= T | OOD)) / 2.

    Candidate thresholds are every distinct score plus one below the
    minimum; that covers all n+1 distinct partitions, so the result is
    never below 0.5 (the all-ID / all-OOD cuts are included).
    """
    scores, is_id = _check_scores(scores, is_id)
    n_id = int(is_id.sum())
    n_ood = scores.shape[0] - n_id
    # ID and OOD scores at or below each distinct score, ascending
    _, inverse = np.unique(scores, return_inverse=True)
    cum_id = np.cumsum(np.bincount(inverse, weights=is_id))
    cum_ood = np.cumsum(np.bincount(inverse, weights=~is_id))
    acc = 0.5 * ((n_id - cum_id) / n_id + cum_ood / n_ood)
    # 0.5 is the threshold below the minimum: all accepted
    return float(max(0.5, acc.max()))


def msp_baseline(probabilities: np.ndarray) -> np.ndarray:
    """Maximum softmax probability per row; rows must sum to 1 within 1e-4."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 2:
        raise ContractError(f"probabilities must be 2-D, got {probs.shape}")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-4):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ContractError(
            f"row {bad} sums to {sums[bad]:.6f}, not a probability vector"
        )
    return probs.max(axis=1)
