import numpy as np
import pytest

from xood.errors import ContractError
from xood.metrics import (
    auroc,
    detection_accuracy,
    fpr_at_95tpr,
    msp_baseline,
    tnr_at_95tpr,
)
from xood.rng import Stream

from helpers import format_overhead, overhead, time_call


def auroc_pairwise(scores, is_id):
    """O(n^2) definition: wins + half-ties over all ID/OOD pairs."""
    id_scores = scores[is_id]
    ood_scores = scores[~is_id]
    total = 0.0
    for a in id_scores:
        for b in ood_scores:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (id_scores.size * ood_scores.size)


def det_acc_sweep(scores, is_id):
    """Midpoint sweep over every adjacent pair of distinct scores."""
    distinct = np.unique(scores)
    cuts = [distinct[0] - 1.0]
    cuts += list((distinct[:-1] + distinct[1:]) / 2.0)
    cuts += list(distinct)  # thresholds at the values themselves
    best = 0.0
    n_id = is_id.sum()
    n_ood = (~is_id).sum()
    for t in cuts:
        acc = 0.5 * (
            (scores[is_id] > t).sum() / n_id + (scores[~is_id] <= t).sum() / n_ood
        )
        best = max(best, acc)
    return best


def random_tied_scores(stream, n):
    scores = np.round(stream.uniform(n, -2.0, 2.0) * 4.0) / 4.0  # heavy ties
    is_id = stream.bernoulli(n, 0.5)
    if is_id.all() or not is_id.any():
        is_id[0] = ~is_id[0]
    return scores, is_id


def test_auroc_matches_pairwise_oracle():
    s = Stream(1)
    for _ in range(25):
        scores, is_id = random_tied_scores(s, 60)
        assert auroc(scores, is_id) == pytest.approx(
            auroc_pairwise(scores, is_id), abs=1e-12
        )


def test_auroc_known_values():
    # perfect separation
    scores = np.r_[np.full(30, 2.0), np.full(30, 1.0)]
    is_id = np.r_[np.ones(30, bool), np.zeros(30, bool)]
    assert auroc(scores, is_id) == 1.0
    assert auroc(-scores, is_id) == 0.0  # reversed
    assert auroc(np.ones(60), is_id) == 0.5  # all tied


def test_auroc_invariant_under_monotone_transform():
    s = Stream(2)
    scores, is_id = random_tied_scores(s, 80)
    base = auroc(scores, is_id)
    assert auroc(3.0 * scores + 7.0, is_id) == pytest.approx(base, abs=1e-12)
    assert auroc(np.exp(scores), is_id) == pytest.approx(base, abs=1e-12)


def test_score_contract_checks():
    with pytest.raises(ContractError, match="both"):
        auroc(np.ones(5), np.ones(5, bool))
    with pytest.raises(ContractError, match="non-finite"):
        auroc(np.array([1.0, np.nan]), np.array([True, False]))
    with pytest.raises(ContractError, match="equal 1-D"):
        auroc(np.ones(5), np.ones(4, bool))


def test_tnr_hand_case_distinct_scores():
    # ID = 1..20; threshold = ceil(0.95*20) = 19th kept -> T = id_sorted[1] = 2
    scores = np.r_[np.arange(1.0, 21.0), [0.5]]
    is_id = np.r_[np.ones(20, bool), [False]]
    assert tnr_at_95tpr(scores, is_id) == 1.0  # 0.5 < 2: detected
    # an OOD score of 2.0 equals T: not strictly below, so missed
    scores[-1] = 2.0
    assert tnr_at_95tpr(scores, is_id) == 0.0


def test_tnr_hand_case_n40():
    # n = 40: keep ceil(38) = 38, T = id_sorted[2] = 3
    id_scores = np.arange(1.0, 41.0)
    ood = np.array([0.5, 2.5, 3.5])  # two below T, one above
    scores = np.r_[id_scores, ood]
    is_id = np.r_[np.ones(40, bool), np.zeros(3, bool)]
    assert tnr_at_95tpr(scores, is_id) == pytest.approx(2.0 / 3.0)


def test_tnr_float_guard_at_exact_multiples():
    # 0.95 * 20 = 19.000000000000004 in floats; ceil must still give 19
    id_scores = np.arange(1.0, 21.0)
    scores = np.r_[id_scores, [1.5]]
    is_id = np.r_[np.ones(20, bool), [False]]
    # T = id_sorted[20 - 19] = 2.0, so 1.5 is detected
    assert tnr_at_95tpr(scores, is_id) == 1.0


def test_tnr_exchangeable_scores_sit_near_five_percent():
    s = Stream(3)
    rates = []
    for _ in range(30):
        scores = s.uniform(400)
        is_id = np.r_[np.ones(200, bool), np.zeros(200, bool)]
        rates.append(tnr_at_95tpr(scores, is_id))
    assert abs(float(np.mean(rates)) - 0.05) < 0.02


def test_tnr_requires_enough_id_scores():
    with pytest.raises(ContractError, match="at least 20"):
        tnr_at_95tpr(np.arange(20.0), np.r_[np.ones(19, bool), [False]])


def test_fpr_is_complement():
    s = Stream(4)
    scores, is_id = s.uniform(100), np.r_[np.ones(50, bool), np.zeros(50, bool)]
    assert fpr_at_95tpr(scores, is_id) == pytest.approx(
        1.0 - tnr_at_95tpr(scores, is_id), abs=1e-12
    )


def test_detection_accuracy_matches_sweep_oracle():
    s = Stream(5)
    for _ in range(25):
        scores, is_id = random_tied_scores(s, 50)
        assert detection_accuracy(scores, is_id) == pytest.approx(
            det_acc_sweep(scores, is_id), abs=1e-12
        )


def test_detection_accuracy_known_values():
    is_id = np.r_[np.ones(10, bool), np.zeros(10, bool)]
    perfect = np.r_[np.full(10, 1.0), np.full(10, 0.0)]
    assert detection_accuracy(perfect, is_id) == 1.0
    # indistinguishable: never below chance
    assert detection_accuracy(np.ones(20), is_id) == 0.5
    reversed_scores = -perfect
    assert detection_accuracy(reversed_scores, is_id) == 0.5


def test_msp_baseline():
    probs = np.array([[0.7, 0.2, 0.1], [0.3, 0.4, 0.3]])
    np.testing.assert_allclose(msp_baseline(probs), [0.7, 0.4])
    with pytest.raises(ContractError, match="row 1"):
        msp_baseline(np.array([[0.5, 0.5], [0.9, 0.2]]))
    with pytest.raises(ContractError, match="2-D"):
        msp_baseline(np.ones(3))


def test_overhead_values():
    assert overhead(1.99, 1.45) == pytest.approx(0.3724137931034483)
    assert format_overhead(overhead(1.99, 1.45)) == "37%"
    assert format_overhead(0.0) == "0%"
    assert format_overhead(1.0) == "100%"
    assert format_overhead(-0.051) == "-5%"
    with pytest.raises(ContractError):
        overhead(1.0, 0.0)


def test_time_call_measures_and_reports():
    calls = []

    def fn():
        calls.append(1)

    stats = time_call(fn, repeats=5, warmup=2)
    assert len(calls) == 7  # warmups run but are not measured
    assert len(stats.times) == 5
    with pytest.raises(ContractError):
        time_call(fn, repeats=1)
