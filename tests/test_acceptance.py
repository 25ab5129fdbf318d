"""Acceptance suite: each test pins one end-to-end guarantee of the toolkit.

The shared fixture trains the reference CNN on a synthetic twelve-class
blob task that is deliberately hard enough to leave the classifier some
uncertainty; a saturated softmax would make the baseline comparison
meaningless. Everything is seeded, so the measured numbers reproduce
bit for bit; only the wall-clock checks depend on the machine.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from xood.cli import main
from xood.datasets import gen_noise, make_blobs, make_gratings, save_dataset, split
from xood.features import (
    ALL_FEATURE_KINDS,
    FeatureKind,
    apply_power_transform,
    feature_width,
    fit_power_transform,
    yeo_johnson,
)
from xood.logistic import (
    LDetector,
    fit_logreg,
    logreg_gradient,
    logreg_loss,
    score_l,
    split_features,
)
from xood.mahalanobis import fit_mahalanobis, mahalanobis_score
from xood.metrics import auroc, detection_accuracy, msp_baseline, tnr_at_95tpr
from xood.network import TrainConfig, forward_with_taps, save_network, train_reference_cnn
from xood.pipeline import (
    _l_training_set,
    fit_l_bundle,
    fit_m_bundle,
    run_network,
    score_images,
)
from xood.rng import Stream, derive_seed

from helpers import format_overhead, overhead, read_feature_csv, time_call


SEED = 7
NUM_CLASSES = 12
SIDE = 28


class Depot:
    """Trained network, fitted detectors, and the evaluation image sets."""

    def __init__(self, root: Path):
        start = time.perf_counter()
        blobs = make_blobs(2000, NUM_CLASSES, SIDE, seed=SEED)
        self.train, self.calib = split(
            blobs, 0.7, derive_seed(SEED, "calibration-split")
        )
        config = TrainConfig(
            epochs=5, learning_rate=0.1, batch_size=64,
            seed=derive_seed(SEED, "train"),
        )
        self.net = train_reference_cnn(self.train.images, self.train.labels, config)
        self.m_bundle = fit_m_bundle(self.net, self.train, self.calib)
        self.l_bundle, self.cv = fit_l_bundle(
            self.net, self.train, self.calib, seed=SEED
        )

        self.id_test = make_blobs(800, NUM_CLASSES, SIDE, seed=SEED + 1)
        self.uniform = gen_noise("uniform", 2000, (1, SIDE, SIDE), seed=99)
        self.gaussian = gen_noise("gaussian", 2000, (1, SIDE, SIDE), seed=98)
        self.gratings = make_gratings(1000, SIDE, seed=97)

        self.id_scores = {
            "xood-m": score_images(self.m_bundle, self.net, self.id_test.images),
            "xood-l": score_images(self.l_bundle, self.net, self.id_test.images),
        }
        self.msp_id = msp_baseline(
            run_network(self.net, self.id_test.images).probabilities
        )
        self.build_seconds = time.perf_counter() - start

        self.root = root
        self.model_path = root / "model.xnet"
        save_network(self.net, self.model_path)
        self.id_path = root / "id.xten"
        save_dataset(self.id_test, self.id_path)
        self.noise_path = root / "uniform.xten"
        save_dataset(self.uniform, self.noise_path)

    def separation(self, detector: str, ood_images: np.ndarray) -> tuple[float, float]:
        """(AUROC, TNR@95TPR) of a fitted detector against one OOD set."""
        bundle = self.m_bundle if detector == "xood-m" else self.l_bundle
        ood = score_images(bundle, self.net, ood_images)
        scores = np.concatenate([self.id_scores[detector], ood])
        is_id = np.zeros(scores.shape[0], bool)
        is_id[: self.id_scores[detector].shape[0]] = True
        return auroc(scores, is_id), tnr_at_95tpr(scores, is_id)

    def msp_auroc(self, ood_images: np.ndarray) -> float:
        ood = msp_baseline(run_network(self.net, ood_images).probabilities)
        scores = np.concatenate([self.msp_id, ood])
        is_id = np.zeros(scores.shape[0], bool)
        is_id[: self.msp_id.shape[0]] = True
        return auroc(scores, is_id)


@pytest.fixture(scope="module")
def depot(tmp_path_factory) -> Depot:
    return Depot(tmp_path_factory.mktemp("depot"))


# ---------------------------------------------------------------------------
# 1: both detectors separate pixel noise from the training distribution


def test_criterion_01_noise_separation(depot):
    start = time.perf_counter()
    for name, ood in (("uniform", depot.uniform), ("gaussian", depot.gaussian)):
        for detector in ("xood-m", "xood-l"):
            roc, tnr = depot.separation(detector, ood.images)
            assert roc >= 0.99, f"{detector} AUROC {roc:.4f} on {name}"
            assert tnr >= 0.95, f"{detector} TNR {tnr:.4f} on {name}"
    elapsed = depot.build_seconds + (time.perf_counter() - start)
    assert elapsed < 300.0, f"end-to-end run took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 2: activation extremes beat the softmax baseline on structured OOD images


def test_criterion_02_beats_msp_baseline(depot):
    msp = depot.msp_auroc(depot.gratings.images)
    assert 0.5 < msp < 1.0, f"baseline is degenerate at {msp:.4f}"
    roc_m, _ = depot.separation("xood-m", depot.gratings.images)
    roc_l, _ = depot.separation("xood-l", depot.gratings.images)
    assert roc_m >= msp - 0.01
    assert roc_l >= msp - 0.01
    assert max(roc_m, roc_l) > msp


# ---------------------------------------------------------------------------
# 3: factored scoring matches an explicit-inverse computation


def test_criterion_03_mahalanobis_matches_explicit_inverse(depot):
    rng = Stream(310)
    regs = (0.0, 0.5, 10.0, 100.0)
    for trial in range(500):
        d = 1 + int(rng.integers(1, 10)[0])
        n = d + 2 + int(rng.integers(1, 40)[0])
        feats = rng.normal(n * d).reshape(n, d) * rng.uniform(d, 0.5, 3.0)
        reg_c = regs[trial % len(regs)]
        det = fit_mahalanobis(feats, reg_c)
        queries = rng.normal(8 * d, std=2.0).reshape(8, d)

        mu = feats.mean(axis=0)
        cov = np.atleast_2d(np.cov(feats, rowvar=False, ddof=1))
        inv = np.linalg.inv(cov + reg_c * np.eye(d))
        delta = queries - mu
        ref = np.sqrt(np.einsum("ij,jk,ik->i", delta, inv, delta))

        np.testing.assert_allclose(
            mahalanobis_score(det, queries), ref, rtol=1e-5, atol=1e-12
        )

    # by-hand case, unregularized: points (0,0), (2,0), (1,3) have
    # mean (1,1) and unbiased covariance [[1,0],[0,3]]
    det = fit_mahalanobis(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]]), 0.0)
    queries = np.array([[3.0, 1.0], [1.0, 4.0], [2.0, 2.0]])
    expected = np.array([2.0, math.sqrt(3.0), math.sqrt(4.0 / 3.0)])
    np.testing.assert_allclose(mahalanobis_score(det, queries), expected, atol=1e-6)


# ---------------------------------------------------------------------------
# 4: a huge regularizer reduces the ranking to Euclidean distance


def test_criterion_04_large_reg_is_euclidean_ranking(depot):
    rng = Stream(41)
    feats = rng.normal(200 * 6).reshape(200, 6) * rng.uniform(6, 0.2, 4.0)
    det = fit_mahalanobis(feats, 1e9)
    queries = rng.uniform(1000 * 6, -5.0, 5.0).reshape(1000, 6)
    scores = mahalanobis_score(det, queries)
    euclid = np.linalg.norm(queries - det.mean, axis=1)
    np.testing.assert_array_equal(
        np.argsort(scores, kind="mergesort"),
        np.argsort(euclid, kind="mergesort"),
    )


# ---------------------------------------------------------------------------
# 5: power transform correctness against a step-0.01 grid oracle


def _yj_reference(x: np.ndarray, lam: float) -> np.ndarray:
    """Piecewise-defined power transform, written independently."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    if abs(lam) < 1e-12:
        out[pos] = np.log1p(x[pos])
    else:
        out[pos] = ((x[pos] + 1.0) ** lam - 1.0) / lam
    if abs(lam - 2.0) < 1e-12:
        out[~pos] = -np.log1p(-x[~pos])
    else:
        out[~pos] = -((1.0 - x[~pos]) ** (2.0 - lam) - 1.0) / (2.0 - lam)
    return out


def _profile_loglik(x: np.ndarray, lam: float) -> float:
    t = _yj_reference(x, lam)
    var = float(t.var())
    return -0.5 * x.shape[0] * math.log(var) + (lam - 1.0) * float(
        np.sum(np.sign(x) * np.log1p(np.abs(x)))
    )


def _grid_best_lambda(x: np.ndarray) -> float:
    grid = np.arange(-5.0, 5.0 + 1e-9, 0.01)
    values = [_profile_loglik(x, lam) for lam in grid]
    return float(grid[int(np.argmax(values))])


def _skewed_column(i: int, n: int = 300) -> np.ndarray:
    stream = Stream(500 + i)
    base = np.exp(stream.normal(n, mean=0.0, std=0.4 + 0.1 * (i % 5)))
    shift = stream.uniform(1, -0.5, 0.5)[0]
    if i % 2:
        return -(base + shift)  # left-skewed
    return base + shift


def test_criterion_05_power_transform_oracle():
    x = Stream(50).uniform(200, -4.0, 4.0)
    np.testing.assert_allclose(yeo_johnson(x, 1.0), x, atol=1e-9)
    assert abs(yeo_johnson(np.array([math.e - 1.0]), 0.0)[0] - 1.0) < 1e-9
    assert abs(yeo_johnson(np.array([1.0 - math.e]), 2.0)[0] + 1.0) < 1e-9

    for i in range(20):
        col = _skewed_column(i)
        pt = fit_power_transform(col[:, None])
        oracle = _grid_best_lambda(col)
        assert abs(float(pt.lambdas[0]) - oracle) <= 0.05, (
            f"dataset {i}: fitted {pt.lambdas[0]:.3f}, grid {oracle:.3f}"
        )

    matrix = np.column_stack([_skewed_column(i, 400) for i in range(3)])
    pt = fit_power_transform(matrix)
    transformed = apply_power_transform(pt, matrix)
    np.testing.assert_allclose(transformed.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(transformed.var(axis=0), 1.0, atol=1e-4)


# ---------------------------------------------------------------------------
# 6: ranking metrics equal brute-force oracles


def test_criterion_06_metric_oracles():
    rng = Stream(60)
    for trial in range(100):
        n_id = 5 + int(rng.integers(1, 96)[0])
        n_ood = 5 + int(rng.integers(1, 96)[0])
        levels = 3 + trial % 8  # coarse quantization forces heavy ties
        id_s = np.round(rng.uniform(n_id) * levels) / levels
        ood_s = np.round(rng.uniform(n_ood) * levels) / levels
        scores = np.concatenate([id_s, ood_s])
        is_id = np.zeros(scores.shape[0], bool)
        is_id[:n_id] = True

        diff = id_s[:, None] - ood_s[None, :]
        pairwise = (np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / (n_id * n_ood)
        assert abs(auroc(scores, is_id) - pairwise) < 1e-12

        distinct = np.unique(scores)
        cuts = np.concatenate(
            [[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0, distinct]
        )
        best = max(
            0.5 * (np.mean(id_s > t) + np.mean(ood_s <= t)) for t in cuts
        )
        assert abs(detection_accuracy(scores, is_id) - best) < 1e-12

    id_s = np.arange(1.0, 21.0)  # threshold lands on 2.0: 19 of 20 kept
    def tnr(ood):
        scores = np.concatenate([id_s, np.asarray(ood, dtype=np.float64)])
        is_id = np.zeros(scores.shape[0], bool)
        is_id[:20] = True
        return tnr_at_95tpr(scores, is_id)

    assert np.mean(id_s >= 2.0) == 0.95
    assert tnr([0.5] * 5) == 1.0
    assert tnr([2.0, 5.0]) == 0.0  # detection is strictly below the threshold
    assert tnr([0.5, 2.0, 1.99]) == pytest.approx(2.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# 7: the logistic solver lands on a stationary point of the true loss


def _fd_gradient(w, x, y, lam, step=1e-5):
    grad = np.empty_like(w)
    for i in range(w.shape[0]):
        up, down = w.copy(), w.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (logreg_loss(up, x, y, lam) - logreg_loss(down, x, y, lam)) / (
            2.0 * step
        )
    return grad


def test_criterion_07_logistic_solver_optimality():
    grid = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)
    rng = Stream(70)
    for trial in range(50):
        n = 40 + int(rng.integers(1, 101)[0])
        p = 2 + int(rng.integers(1, 5)[0])
        x = rng.normal(n * p).reshape(n, p)
        w_true = rng.normal(p + 1)
        y = ((w_true[0] + x @ w_true[1:] + rng.normal(n)) > 0).astype(np.float64)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        lam = grid[trial % len(grid)]

        w = fit_logreg(x, y, lam)
        grad = logreg_gradient(w, x, y, lam)
        assert float(np.max(np.abs(grad))) < 1e-6

        w_probe = rng.normal(p + 1, std=0.5)
        analytic = logreg_gradient(w_probe, x, y, lam)
        numeric = _fd_gradient(w_probe, x, y, lam)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-8)


# ---------------------------------------------------------------------------
# 8: split features carry the deviation exactly, with no overlap


def test_criterion_08_split_feature_identities():
    values = Stream(80).uniform(100_000, -50.0, 50.0).reshape(500, 200)
    means = Stream(81).uniform(200, -5.0, 5.0)
    splitted = split_features(values - means)
    plus, minus = splitted[:, 0::2], splitted[:, 1::2]
    assert np.array_equal(plus - minus, values - means)
    assert np.all(plus * minus == 0.0)
    assert np.all(splitted >= 0.0)


# ---------------------------------------------------------------------------
# 9: cross-validation evaluates every cell of a 5-fold table, deterministically


def test_criterion_09_distortion_holdout_cv_shape(depot):
    training = _l_training_set(
        depot.net, depot.calib, depot.l_bundle.transform, SEED, FeatureKind.MINMAX
    )
    assert tuple(training.fold_names) == (
        "calibration", "geometric", "mixup", "noise", "blur",
    )
    np.testing.assert_array_equal(np.unique(training.fold_ids), np.arange(5))

    assert depot.cv.fold_losses.shape == (len(depot.cv.lambdas), 5)
    assert np.all(np.isfinite(depot.cv.fold_losses))
    assert depot.cv.best_lambda in depot.cv.lambdas

    _, cv_again = fit_l_bundle(depot.net, depot.train, depot.calib, seed=SEED)
    assert cv_again.best_lambda == depot.cv.best_lambda
    np.testing.assert_array_equal(cv_again.fold_losses, depot.cv.fold_losses)


# ---------------------------------------------------------------------------
# 10: reported overhead arithmetic, measured overhead, and O(d) scoring


def test_criterion_10_overhead_and_scaling(depot):
    assert overhead(1.99, 1.45) == pytest.approx(0.3724137931034483, rel=1e-12)
    assert format_overhead(overhead(1.99, 1.45)) == "37%"

    images = depot.uniform.images
    starts = list(range(0, images.shape[0], 128))

    def baseline(chunk):
        forward_with_taps(depot.net, chunk)

    def scored(chunk):
        score_images(depot.m_bundle, depot.net, chunk)

    # pair the two sides batch by batch so they sample the same machine
    # conditions, and keep per-batch floors across sweeps: the summed
    # floors estimate the quiet-machine cost of each side, which is the
    # quantity the bound is about; extra sweeps only sharpen the floors
    baseline(images[:128]), scored(images[:128])
    floor_base = [math.inf] * len(starts)
    floor_m = [math.inf] * len(starts)
    ratio = math.inf
    for sweep in range(40):
        for bi, start in enumerate(starts):
            chunk = images[start : start + 128]
            pair = (
                (baseline, scored) if (sweep + bi) % 2 == 0 else (scored, baseline)
            )
            for fn in pair:
                t0 = time.perf_counter()
                fn(chunk)
                took = time.perf_counter() - t0
                if fn is baseline:
                    floor_base[bi] = min(floor_base[bi], took)
                else:
                    floor_m[bi] = min(floor_m[bi], took)
        ratio = overhead(sum(floor_m), sum(floor_base))
        if sweep >= 9 and ratio < 0.08:
            break
    assert ratio < 0.10, (
        f"detector added {ratio:.1%} on top of the forward pass"
    )

    # scoring cost against feature width: three sweeps, elementwise minimum,
    # then a straight-line fit; small matrices keep every width in cache
    widths = (8, 16, 32, 64)
    rows = 2000
    best = np.full(len(widths), np.inf)
    for _ in range(3):
        rng = Stream(101)
        for i, d in enumerate(widths):
            x = rng.uniform(rows * d).reshape(rows, d)
            det = LDetector(
                np.zeros(2 * d), np.ones(2 * d),
                rng.uniform(2 * d + 1, -0.5, 0.5),
                1.0,
            )

            def call():
                for _ in range(40):
                    score_l(det, x)

            best[i] = min(best[i], min(time_call(call, repeats=9, warmup=3).times))
    xs = np.asarray(widths, dtype=np.float64)
    slope, intercept = np.polyfit(xs, best, 1)
    residual = best - (slope * xs + intercept)
    r2 = 1.0 - float((residual**2).sum()) / float(((best - best.mean()) ** 2).sum())
    assert slope > 0
    assert r2 >= 0.99, f"R^2 {r2:.4f} for times {best}"


# ---------------------------------------------------------------------------
# 11: the histogram report shows noise mass outside the in-distribution band


def test_criterion_11_histogram_band_separation(depot, tmp_path):
    out = tmp_path / "hists"
    code = main([
        "hist", "--model", str(depot.model_path),
        "--id-images", str(depot.id_path),
        "--ood-images", str(depot.noise_path),
        "--bins", "40", "--out", str(out),
    ])
    assert code == 0
    rows = (out / "hist_summary.csv").read_text().splitlines()[1:]
    fractions = [float(r.split(",")[4]) for r in rows]
    assert len(fractions) == 6
    assert max(fractions) >= 0.5


# ---------------------------------------------------------------------------
# 12: every feature kind flows through extraction, fitting, and evaluation


def test_criterion_12_feature_kind_harness(tmp_path):
    root = tmp_path

    def run(*args):
        return main([str(a) for a in args])

    assert run(
        "gen", "--kind", "blobs", "--count", 240, "--classes", 3, "--side", 16,
        "--seed", SEED, "--images-out", root / "id.xten",
        "--labels-out", root / "labels.xten",
    ) == 0
    assert run(
        "gen", "--kind", "uniform", "--count", 120, "--side", 16, "--seed", 99,
        "--images-out", root / "noise.xten",
    ) == 0
    assert run(
        "train", "--images", root / "id.xten", "--labels", root / "labels.xten",
        "--epochs", 2, "--batch-size", 32, "--seed", SEED,
        "--out", root / "model.xnet",
    ) == 0

    table = root / "kinds.csv"
    for kind in ALL_FEATURE_KINDS:
        feats = root / f"feats_{kind.value}.csv"
        assert run(
            "extract", "--model", root / "model.xnet", "--images", root / "id.xten",
            "--feature-kind", kind.value, "--out", feats,
        ) == 0
        names, values = read_feature_csv(feats)
        assert len(names) == feature_width(kind, 3)
        assert values.shape == (240, len(names))

        detector = root / f"det_{kind.value}"
        assert run(
            "fit-m", "--model", root / "model.xnet", "--images", root / "id.xten",
            "--labels", root / "labels.xten", "--seed", SEED,
            "--feature-kind", kind.value, "--out", detector,
        ) == 0
        for tag, images in (("id", "id.xten"), ("ood", "noise.xten")):
            assert run(
                "score", "--model", root / "model.xnet", "--detector", detector,
                "--images", root / images,
                "--out", root / f"{tag}_{kind.value}.csv",
            ) == 0
        assert run(
            "eval", "--id-scores", root / f"id_{kind.value}.csv",
            "--ood-scores", root / f"ood_{kind.value}.csv",
            "--method", kind.value, "--id-name", "blobs", "--ood-names", "noise",
            "--out", table, "--append",
        ) == 0

    lines = table.read_text().splitlines()
    assert lines[0].startswith("in_dist,out_dist,method,auroc")
    methods = [line.split(",")[2] for line in lines[1:]]
    assert methods == [kind.value for kind in ALL_FEATURE_KINDS]
    for line in lines[1:]:
        value = float(line.split(",")[3])
        assert 0.0 <= value <= 1.0
