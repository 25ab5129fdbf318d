import numpy as np
import pytest

from xood.errors import ContractError, SingularityError
from xood.mahalanobis import (
    MDetector,
    calibrate,
    cholesky_lower,
    confidence,
    fit_mahalanobis,
    load_m_detector,
    lower_quantile_threshold,
    mahalanobis_score,
    save_m_detector,
)
from xood.rng import Stream
from xood.xten import write_tensor


def gauss_jordan_inverse(m):
    """Textbook row reduction; the independent route to M'^-1."""
    d = m.shape[0]
    aug = np.hstack([m.astype(np.float64), np.eye(d)])
    for col in range(d):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(d):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, d:]


def spd_matrix(stream, d):
    a = stream.normal(d * d).reshape(d, d)
    return a @ a.T + 0.5 * np.eye(d)


def test_cholesky_reconstructs():
    s = Stream(1)
    for d in (1, 2, 5, 12):
        m = spd_matrix(s, d)
        lower = cholesky_lower(m)
        np.testing.assert_allclose(lower @ lower.T, m, rtol=1e-10, atol=1e-10)
        assert np.allclose(lower, np.tril(lower))


def test_cholesky_matches_numpy():
    s = Stream(2)
    m = spd_matrix(s, 8)
    np.testing.assert_allclose(
        cholesky_lower(m), np.linalg.cholesky(m), rtol=1e-10, atol=1e-12
    )


def test_cholesky_reports_failing_pivot():
    # rank-1 2x2 matrix: first pivot fine, second exactly zero
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularityError, match="row 1") as info:
        cholesky_lower(m)
    assert info.value.pivot == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ContractError, match="square"):
        cholesky_lower(np.zeros((2, 3)))


def test_fit_toy_moments():
    # three points on the diagonal: mu = (1,1), unbiased cov = [[1,1],[1,1]]
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    det = fit_mahalanobis(x, reg_c=1.0)
    np.testing.assert_allclose(det.mean, [1.0, 1.0], atol=1e-15)
    cov = det.factor @ det.factor.T - det.reg_c * np.eye(2)
    np.testing.assert_allclose(cov, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)


def test_score_identity_covariance_is_euclidean():
    det = MDetector(
        mean=np.zeros(2),
        reg_c=1.0,
        factor=np.eye(2),  # M' = I
    )
    assert mahalanobis_score(det, np.array([3.0, 4.0])) == pytest.approx(5.0)
    batch = mahalanobis_score(det, np.array([[3.0, 4.0], [0.0, 0.0]]))
    np.testing.assert_allclose(batch, [5.0, 0.0], atol=1e-12)


def test_score_hand_case_without_regularization():
    # mu = 0, M = [[4/3, 2/3], [2/3, 2/3]] from these four points
    x = np.array([[1.0, 1.0], [1.0, 0.0], [-1.0, -1.0], [-1.0, 0.0]])
    det = fit_mahalanobis(x, reg_c=0.0)
    np.testing.assert_allclose(det.mean, [0.0, 0.0], atol=1e-15)
    cov = det.factor @ det.factor.T - det.reg_c * np.eye(2)
    np.testing.assert_allclose(
        cov, [[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 2.0 / 3.0]], atol=1e-15
    )
    # D^2((1,0)) = 3/2 and D^2((0,1)) = 3, computed by hand from M^-1
    assert mahalanobis_score(det, np.array([1.0, 0.0])) == pytest.approx(
        np.sqrt(1.5), abs=1e-12
    )
    assert mahalanobis_score(det, np.array([0.0, 1.0])) == pytest.approx(
        np.sqrt(3.0), abs=1e-12
    )


def test_score_matches_explicit_inverse():
    s = Stream(3)
    for trial in range(20):
        d = 2 + trial % 6
        x = s.normal(40 * d).reshape(40, d) @ spd_matrix(s, d)
        det = fit_mahalanobis(x, reg_c=10.0)
        q = s.normal(5 * d).reshape(5, d) * 3.0
        inv = gauss_jordan_inverse(np.cov(x, rowvar=False) + 10.0 * np.eye(d))
        diff = q - det.mean
        want = np.sqrt(np.einsum("ij,jk,ik->i", diff, inv, diff))
        np.testing.assert_allclose(
            mahalanobis_score(det, q), want, rtol=1e-8, atol=1e-10
        )


def test_factor_scale_homogeneity():
    # scaling M' by s^2 scales distances by 1/s
    s = Stream(4)
    x = s.normal(200).reshape(50, 4)
    det = fit_mahalanobis(x, reg_c=1.0)
    scaled = MDetector(det.mean, det.reg_c, det.factor * 2.0)
    q = s.normal(4)
    assert mahalanobis_score(scaled, q) == pytest.approx(
        mahalanobis_score(det, q) / 2.0, rel=1e-12
    )


def test_huge_regularizer_ranks_like_euclidean():
    s = Stream(5)
    x = s.normal(100 * 4).reshape(100, 4) @ spd_matrix(s, 4)
    det = fit_mahalanobis(x, reg_c=1e9)
    q = s.normal(50 * 4).reshape(50, 4) * 5.0
    scores = mahalanobis_score(det, q)
    euclid = np.sqrt(((q - det.mean) ** 2).sum(axis=1))
    np.testing.assert_array_equal(np.argsort(scores), np.argsort(euclid))


def test_degenerate_covariance_fails_loudly_at_c_zero():
    s = Stream(6)
    base = s.normal(30 * 2).reshape(30, 2)
    # a constant column zeroes a covariance row exactly: pivot is exactly 0
    x = np.hstack([np.full((30, 1), 3.14), base])
    with pytest.raises(SingularityError) as info:
        fit_mahalanobis(x, reg_c=0.0)
    assert info.value.pivot == 0.0
    fit_mahalanobis(x, reg_c=10.0)  # regularized fit succeeds


def test_fit_contract_checks():
    with pytest.raises(ContractError, match="more rows"):
        fit_mahalanobis(np.zeros((3, 3)))
    with pytest.raises(ContractError, match=">= 0"):
        fit_mahalanobis(np.zeros((10, 2)), reg_c=-1.0)
    bad = np.zeros((10, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        fit_mahalanobis(bad)


def test_threshold_is_kth_smallest():
    # n = 40, quantile 0.05: k = 2, threshold = second smallest
    values = np.arange(40, dtype=np.float64)
    Stream(7).permutation(40)  # order must not matter; shuffle the input
    shuffled = values[Stream(7).permutation(40)]
    assert lower_quantile_threshold(shuffled) == 1.0
    # n = 20: ceil(0.05 * 20) = 1 despite float 0.95*20 = 19.000000000000004
    assert lower_quantile_threshold(np.arange(20.0)) == 0.0
    with pytest.raises(ContractError, match="at least 20"):
        lower_quantile_threshold(np.arange(19.0))


def test_calibrated_decide_accepts_95_percent():
    s = Stream(8)
    x = s.normal(400 * 3).reshape(400, 3)
    det = fit_mahalanobis(x, reg_c=10.0)
    calib = s.normal(200 * 3).reshape(200, 3)
    det = calibrate(det, confidence(det, calib))
    accepted = det.score(calib) > det.threshold
    # k = 10 of 200 sit at or below the threshold
    assert accepted.sum() == 190
    far = np.full((5, 3), 50.0)
    assert not (det.score(far) > det.threshold).any()


def test_persistence_round_trip(tmp_path):
    s = Stream(10)
    x = s.normal(100 * 3).reshape(100, 3)
    det = calibrate(fit_mahalanobis(x), confidence(fit_mahalanobis(x), x[:50]))
    save_m_detector(det, tmp_path)
    back = load_m_detector(tmp_path)
    assert back.reg_c == det.reg_c
    assert back.threshold == pytest.approx(det.threshold, rel=1e-6)
    q = s.normal(20 * 3).reshape(20, 3)
    # parameters pass through float32 tensors; scores agree to that precision
    np.testing.assert_allclose(
        mahalanobis_score(back, q), mahalanobis_score(det, q), rtol=1e-4
    )


def test_load_ignores_stale_covariance_file(tmp_path):
    # older versions also wrote cov.xten; the factor alone defines the scores
    s = Stream(12)
    x = s.normal(60 * 3).reshape(60, 3)
    det = calibrate(fit_mahalanobis(x), confidence(fit_mahalanobis(x), x))
    save_m_detector(det, tmp_path)
    assert not (tmp_path / "cov.xten").exists()
    q = s.normal(20 * 3).reshape(20, 3)
    want = mahalanobis_score(load_m_detector(tmp_path), q)
    write_tensor(tmp_path / "cov.xten", np.cov(x, rowvar=False))
    back = load_m_detector(tmp_path)
    np.testing.assert_array_equal(mahalanobis_score(back, q), want)


def test_load_rejects_wrong_detector_kind(tmp_path):
    det = fit_mahalanobis(Stream(11).normal(60).reshape(30, 2))
    save_m_detector(det, tmp_path)
    text = (tmp_path / "detector.txt").read_text()
    (tmp_path / "detector.txt").write_text(text.replace("mahalanobis", "other"))
    with pytest.raises(ContractError):
        load_m_detector(tmp_path)
