import numpy as np
import pytest

from xood.errors import ContractError, SingularityError
from xood.features import FeatureKind, fit_power_transform
from xood.mahalanobis import (
    MDetector,
    calibrate,
    cholesky_lower,
    confidence,
    fit_mahalanobis,
    lower_quantile_threshold,
    mahalanobis_score,
)
from xood.pipeline import DetectorBundle, load_bundle, save_bundle
from xood.rng import Stream


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


def test_score_matches_triangular_solve():
    """The derived L^-1 sums in another order than a solve with L; the
    module docstring states 1e-15 relative, checked here with margin."""
    s = Stream(5)
    for trial in range(40):
        d = 1 + trial % 12
        x = s.normal(60 * d).reshape(60, d) @ spd_matrix(s, d)
        det = fit_mahalanobis(x, reg_c=(0.0, 1.0, 10.0)[trial % 3])
        q = s.normal(7 * d).reshape(7, d) * 3.0
        z = np.linalg.solve(det.factor, (q - det.mean).T)
        want = np.sqrt((z * z).sum(axis=0))
        np.testing.assert_allclose(mahalanobis_score(det, q), want, rtol=1e-14)


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


def _m_with(name, value):
    good = {"mean": np.zeros(2), "factor": np.array([[2.0, 0.0], [1.0, 3.0]])}
    return {**good, name: value}


@pytest.mark.parametrize("name, value, message", [
    ("mean", np.zeros((1, 2)), "mean has shape"),
    ("mean", np.zeros(3), "factor has shape"),
    ("factor", np.eye(3), "factor has shape"),
    ("factor", np.ones(4), "factor has shape"),
    ("mean", np.array([0.0, np.nan]), "mean holds non-finite"),
    ("factor", np.array([[1.0, 0.0], [np.inf, 1.0]]), "factor holds non-finite"),
    ("factor", np.array([[1.0, 5.0], [0.0, 1.0]]), "factor has a non-zero entry above"),
    ("factor", np.array([[1.0, 0.0], [0.5, 0.0]]), "factor has a diagonal entry <= 0"),
    ("factor", np.array([[-1.0, 0.0], [0.5, 1.0]]), "factor has a diagonal entry <= 0"),
], ids=["2-d-mean", "long-mean", "big-factor", "flat-factor", "nan-mean",
        "inf-factor", "above-diagonal", "zero-diagonal", "negative-diagonal"])
def test_detector_refuses_invalid_tensors(name, value, message):
    """The rules hold for a detector built in memory, not only for a load."""
    with pytest.raises(ContractError, match=message):
        MDetector(reg_c=1.0, **_m_with(name, value))


@pytest.mark.parametrize("fields, message", [
    ({"reg_c": -1.0}, "reg_c must be finite and >= 0"),
    ({"reg_c": np.nan}, "reg_c must be finite and >= 0"),
    ({"reg_c": np.inf}, "reg_c must be finite and >= 0"),
    ({"threshold": np.nan}, "threshold must be finite"),
    ({"threshold": np.inf}, "threshold must be finite"),
], ids=["negative-penalty", "nan-penalty", "inf-penalty", "nan-threshold",
        "inf-threshold"])
def test_detector_refuses_invalid_scalars(fields, message):
    with pytest.raises(ContractError, match=message):
        MDetector(**{**_m_with("mean", np.zeros(2)), "reg_c": 1.0, **fields})
    # zero penalty and no threshold yet are both valid
    assert MDetector(**_m_with("mean", np.zeros(2)), reg_c=0.0).threshold is None


def test_detector_refuses_factor_without_finite_inverse():
    factor = np.array([[5.7e-216, 0.0], [-5.9e266, 1.38]])
    with pytest.raises(SingularityError, match="factor has no finite inverse"):
        MDetector(np.zeros(2), 1.0, factor)


def test_detector_takes_any_float_array_as_float64():
    det = MDetector([0, 1], 1.0, np.array([[2, 0], [1, 3]], np.float32))
    assert det.mean.dtype == det.factor.dtype == np.float64
    assert det.dim == 2


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
    for reg_c in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ContractError, match="reg_c must be finite and >= 0"):
            fit_mahalanobis(np.zeros((10, 2)), reg_c=reg_c)
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
    # n = 30: k = ceil(1.5) = 2, threshold = second smallest; keeps 28 of 30
    assert lower_quantile_threshold(np.arange(30.0)[::-1]) == 1.0
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
    bundle = DetectorBundle(FeatureKind.MINMAX, fit_power_transform(x), det)
    save_bundle(bundle, tmp_path)
    back = load_bundle(tmp_path).detector
    assert back.reg_c == det.reg_c
    assert back.threshold == det.threshold
    # the inverse factor is derived at load, never written to the bundle
    assert sorted(p.name for p in tmp_path.glob("*.xten")) == ["factor.xten", "mean.xten"]
    assert np.array_equal(back.inverse_factor, det.inverse_factor)
    q = s.normal(20 * 3).reshape(20, 3)
    # parameters are stored as float64, so scores agree bit for bit
    assert mahalanobis_score(back, q).tobytes() == mahalanobis_score(det, q).tobytes()
