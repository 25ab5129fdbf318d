import numpy as np
import pytest

from xood.datasets import make_blobs
from xood import logistic
from xood.errors import ContractError, NumericalError
from xood.features import FeatureKind, extract_features, fit_power_transform
from xood.mahalanobis import calibrate
from xood.logistic import (
    LAMBDA_GRID,
    LabeledFeatureSet,
    LDetector,
    _sigmoid,
    cross_validate,
    fit_l_detector,
    fit_logreg,
    fit_split_scaler,
    logreg_gradient,
    logreg_loss,
    score_l,
    split_features,
)
from xood.network import TrainConfig, forward_with_taps, train_reference_cnn
from xood.pipeline import DetectorBundle, _l_training_set, load_bundle, save_bundle
from xood.rng import Stream


@pytest.fixture(scope="module")
def fixture():
    """Trained net, its power transform, and a labeled calibration set."""
    train = make_blobs(300, 3, 16, seed=21)
    net = train_reference_cnn(
        train.images, train.labels, TrainConfig(epochs=4, batch_size=32, seed=3)
    )
    result = forward_with_taps(net, train.images)
    feats = extract_features(result.taps, FeatureKind.MINMAX)
    correct = result.predictions == train.labels
    pt = fit_power_transform(feats[correct].astype(np.float64))
    calib = make_blobs(80, 3, 16, seed=22)
    return net, pt, calib


def test_split_features_identities():
    x = np.array([[2.0, 0.0], [-1.0, 3.0]])
    out = split_features(x)
    np.testing.assert_array_equal(out, [[2.0, 0.0, 0.0, 0.0],
                                        [0.0, 1.0, 3.0, 0.0]])
    # the halves reconstruct the feature and never overlap
    np.testing.assert_array_equal(out[:, 0::2] - out[:, 1::2], x)
    assert not (out[:, 0::2] * out[:, 1::2]).any()
    assert (out >= 0).all()
    with pytest.raises(ContractError, match="2-D"):
        split_features(x[0])


def test_split_scaler_standardizes_fit_matrix():
    s = Stream(1)
    fit = s.normal(500 * 3).reshape(500, 3) * 2.0 + 1.0
    scale_means, scale_stds, pinned, standardized = fit_split_scaler(fit)
    np.testing.assert_allclose(standardized.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(standardized.std(axis=0), 1.0, atol=1e-12)
    assert not pinned.any()
    # scoring applies the stored standardization to the same rows
    weights = s.normal(2 * 3 + 1)
    det = LDetector(scale_means, scale_stds, weights, 1.0)
    want = 1.0 / (1.0 + np.exp(-(weights[0] + standardized @ weights[1:])))
    np.testing.assert_allclose(score_l(det, fit), want, atol=1e-12)


def test_score_l_in_row_blocks_matches_one_pass():
    # at width 64, 1300 rows span three of score_l's 508-row blocks
    s = Stream(3)
    x = s.normal(1300 * 64).reshape(1300, 64)
    det = LDetector(s.normal(128), 0.5 + s.uniform(128), s.normal(129), 1.0)
    standardized = (split_features(x) - det.scale_means) / det.scale_stds
    want = _sigmoid(det.weights[0] + standardized @ det.weights[1:])
    np.testing.assert_allclose(score_l(det, x), want, rtol=1e-15, atol=0)
    assert score_l(det, x[:0]).shape == (0,)


def test_split_scaler_flags_constant_columns(caplog):
    # every fit value sits above 0: all "below" columns stay zero
    fit = np.abs(Stream(2).normal(100)).reshape(100, 1) + 10.0
    _, scale_stds, pinned, standardized = fit_split_scaler(fit)
    assert pinned[1] and not pinned[0]
    assert scale_stds[1] == 1.0
    assert np.isfinite(standardized).all()
    # the fitted detector reports the pinned column with its penalty table
    labels = (np.arange(100) % 3 != 0).astype(np.float64)
    training = LabeledFeatureSet(fit, labels, np.arange(100) % 5)
    det, cv = fit_l_detector(training, grid=(1.0,))
    assert cv.pinned_split_columns == (1,)
    assert det.scale_stds[1] == 1.0


def numeric_gradient(w, x, y, lam, eps=1e-6):
    g = np.zeros_like(w)
    for i in range(w.shape[0]):
        hi, lo = w.copy(), w.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (logreg_loss(hi, x, y, lam) - logreg_loss(lo, x, y, lam)) / (2 * eps)
    return g


def make_problem(stream, n=200, p=4):
    x = stream.normal(n * p).reshape(n, p)
    true_w = stream.normal(p + 1)
    z = true_w[0] + x @ true_w[1:]
    y = (stream.uniform(n) < 1.0 / (1.0 + np.exp(-z))).astype(np.float64)
    if y.min() == y.max():  # re-roll the rare single-class draw
        y[0] = 1.0 - y[0]
    return x, y


def test_sigmoid_stays_within_its_stated_tolerance():
    """The branch-free form against the masked two-branch one it replaced:
    3.4e-16 relative for z >= 0, up to 4e-15 near z = -37 (see _sigmoid)."""
    z = np.concatenate([np.linspace(-60.0, 60.0, 200_001), [-800.0, 800.0, 0.0, -0.0]])
    pos = z >= 0
    want = np.where(pos, 1.0 / (1.0 + np.exp(-np.abs(z))), 0.0)
    ez = np.exp(z[~pos])
    want[~pos] = ez / (1.0 + ez)
    got = _sigmoid(z)
    assert ((got >= 0) & (got <= 1)).all()
    np.testing.assert_allclose(got[pos], want[pos], rtol=3.5e-16, atol=0)
    np.testing.assert_allclose(got[~pos], want[~pos], rtol=4e-15, atol=0)
    np.testing.assert_array_equal(got[z < -38], want[z < -38])


def test_gradient_matches_finite_differences():
    s = Stream(11)
    for _ in range(10):
        x, y = make_problem(s)
        w = s.normal(5) * 0.5
        lam = float(s.uniform(1, 0.0, 2.0)[0])
        got = logreg_gradient(w, x, y, lam)
        want = numeric_gradient(w, x, y, lam)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


def test_loss_stays_finite_at_extreme_weights():
    x = np.array([[1000.0], [-1000.0]])
    y = np.array([1.0, 0.0])
    w = np.array([0.0, 5.0])
    assert np.isfinite(logreg_loss(w, x, y, 0.0))
    assert np.isfinite(logreg_gradient(w, x, y, 0.0)).all()


def test_solver_reaches_stationary_point():
    s = Stream(12)
    for _ in range(8):
        x, y = make_problem(s)
        lam = 10.0 ** float(s.uniform(1, -3.0, 1.0)[0])
        w = fit_logreg(x, y, lam)
        grad = logreg_gradient(w, x, y, lam)
        assert float(np.max(np.abs(grad))) < 1e-6
        # convexity: no random probe beats the solver
        best = logreg_loss(w, x, y, lam)
        for _ in range(20):
            probe = w + s.normal(w.shape[0]) * 0.3
            assert logreg_loss(probe, x, y, lam) >= best - 1e-12


def test_zero_features_give_base_rate_intercept():
    y = np.array([1.0] * 30 + [0.0] * 10)
    x = np.zeros((40, 2))
    w = fit_logreg(x, y, 1.0)
    np.testing.assert_allclose(w[1:], 0.0, atol=1e-12)
    assert 1.0 / (1.0 + np.exp(-w[0])) == pytest.approx(0.75, abs=1e-8)


def test_penalty_shrinks_weights_monotonically():
    x, y = make_problem(Stream(13), n=300)
    norms = []
    for lam in (1e-3, 1e-1, 1.0, 10.0, 100.0):
        w = fit_logreg(x, y, lam)
        norms.append(float(np.linalg.norm(w[1:])))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_separable_data_does_not_crash():
    x = np.linspace(-1, 1, 50).reshape(-1, 1)
    y = (x[:, 0] > 0).astype(np.float64)
    w = fit_logreg(x, y, 0.0)
    assert logreg_loss(w, x, y, 0.0) < 0.05


def test_fit_logreg_contract_checks():
    x = np.zeros((10, 2))
    with pytest.raises(ContractError, match="0 or 1"):
        fit_logreg(x, np.full(10, 0.5), 1.0)
    with pytest.raises(ContractError, match="single-class"):
        fit_logreg(x, np.ones(10), 1.0)
    with pytest.raises(ContractError, match=">= 0"):
        fit_logreg(x, np.r_[np.ones(5), np.zeros(5)], -1.0)


def test_fit_logreg_raises_after_max_newton_steps(monkeypatch):
    x, y = make_problem(Stream(15))
    monkeypatch.setattr(logistic, "MAX_NEWTON_ITER", 1)
    with pytest.raises(
        NumericalError, match=r"lambda 0\.5: 1 Newton steps .* gradient norm \d"
    ):
        fit_logreg(x, y, 0.5)


def test_fit_logreg_raises_when_no_step_lowers_the_loss(monkeypatch):
    # a loss that is lowest at the all-zero start rejects every trial step
    x, y = make_problem(Stream(16))
    monkeypatch.setattr(
        logistic, "logreg_loss", lambda w, x, y, lam: float(np.abs(w).sum())
    )
    with pytest.raises(
        NumericalError, match=r"lambda 2: no step lowers the loss; gradient norm \d"
    ):
        fit_logreg(x, y, 2.0)


def test_cross_validate_table_and_determinism():
    s = Stream(14)
    x, y = make_problem(s, n=250, p=3)
    fold_ids = np.arange(250) % 5
    grid = (1e-2, 1.0, 100.0)
    a = cross_validate(x, y, fold_ids, grid)
    b = cross_validate(x, y, fold_ids, grid)
    assert a.fold_losses.shape == (3, 5)
    np.testing.assert_array_equal(a.fold_losses, b.fold_losses)
    assert a.best_lambda == b.best_lambda
    assert a.best_lambda in grid
    np.testing.assert_allclose(a.mean_losses, a.fold_losses.mean(axis=1))
    assert a.mean_losses[np.searchsorted(grid, a.best_lambda)] == a.mean_losses.min()


def test_cross_validate_ties_prefer_larger_lambda():
    # with all-zero features the fit ignores lambda entirely, so every
    # grid entry produces identical held-out loss: a pure tie
    y = np.r_[np.ones(60), np.zeros(40)]
    x = np.zeros((100, 2))
    fold_ids = np.arange(100) % 4
    for grid in ((1e-3, 1.0, 100.0), (100.0, 1.0, 1e-3)):
        cv = cross_validate(x, y, fold_ids, grid)
        assert np.ptp(cv.mean_losses) == 0.0
        assert cv.best_lambda == 100.0


def test_cross_validate_needs_two_folds():
    with pytest.raises(ContractError, match="2 folds"):
        cross_validate(np.zeros((10, 1)), np.r_[np.ones(5), np.zeros(5)],
                       np.zeros(10))


def test_build_training_set_layout(fixture):
    net, pt, calib = fixture
    ts = _l_training_set(net, calib, pt, 123, FeatureKind.MINMAX)
    m = len(calib)
    assert ts.features.shape == (5 * m, pt.dim)
    assert ts.labels.shape == (5 * m,)
    assert ts.fold_names == ("calibration", "geometric", "mixup", "noise", "blur")
    np.testing.assert_array_equal(np.unique(ts.fold_ids), np.arange(5))
    np.testing.assert_array_equal(ts.fold_ids[:m], 0)
    for fold in range(5):
        assert (ts.fold_ids == fold).sum() == m
    # fold 0 must be the undistorted calibration data
    result = forward_with_taps(net, calib.images)
    want_labels = (result.predictions == calib.labels).astype(np.float64)
    np.testing.assert_array_equal(ts.labels[:m], want_labels)
    # repeatable
    ts2 = _l_training_set(net, calib, pt, 123, FeatureKind.MINMAX)
    np.testing.assert_array_equal(ts.features, ts2.features)
    np.testing.assert_array_equal(ts.labels, ts2.labels)
    # distorted folds contain mistakes; clean fold is mostly right
    assert ts.labels[:m].mean() > 0.9
    assert ts.labels[m:].mean() < ts.labels[:m].mean()


def test_fit_l_detector_end_to_end(fixture):
    net, pt, calib = fixture
    ts = _l_training_set(net, calib, pt, 9, FeatureKind.MINMAX)
    det, cv = fit_l_detector(ts, grid=(1e-2, 1.0, 100.0))
    assert det.threshold is None
    # calibrated as pipeline.fit_l_bundle does, on fold 0
    calibrate(det, det.score(ts.features[ts.fold_ids == 0]))
    assert det.reg_lambda == cv.best_lambda
    assert det.threshold is not None
    scores = score_l(det, ts.features)
    assert scores.min() >= 0.0 and scores.max() <= 1.0
    m = len(calib)
    accepted = score_l(det, ts.features[:m]) > det.threshold
    assert 0.90 <= accepted.mean() <= 0.96  # threshold targets 95%
    # weights order: intercept + one pair per feature dimension
    assert det.weights.shape == (2 * pt.dim + 1,)


def test_l_detector_round_trip(tmp_path, fixture):
    net, pt, calib = fixture
    ts = _l_training_set(net, calib, pt, 9, FeatureKind.MINMAX)
    det, _ = fit_l_detector(ts, grid=(1.0,))
    calibrate(det, det.score(ts.features[ts.fold_ids == 0]))
    save_bundle(DetectorBundle(FeatureKind.MINMAX, pt, det), tmp_path)
    back = load_bundle(tmp_path).detector
    assert back.reg_lambda == det.reg_lambda
    assert back.threshold == det.threshold
    # parameters are stored as float64, so scores agree bit for bit
    assert score_l(back, ts.features).tobytes() == score_l(det, ts.features).tobytes()
