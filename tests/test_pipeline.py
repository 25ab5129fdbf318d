import re
import shutil

import numpy as np
import pytest

from xood import network, pipeline
from xood.datasets import Dataset, gen_noise, make_blobs, split
from xood.errors import ContractError, DimensionError, FormatError
from xood.features import FeatureKind, apply_power_transform, extract_features
from xood.logistic import LDetector
from xood.mahalanobis import MDetector, confidence
from xood.network import TrainConfig, forward_with_taps, train_reference_cnn
from xood.pipeline import (
    fit_l_bundle,
    fit_m_bundle,
    load_bundle,
    run_network,
    save_bundle,
    save_power_transform,
    score_images,
)
from xood.rng import derive_seed
from xood.xten import write_tensor


@pytest.fixture(scope="module")
def world():
    ds = make_blobs(300, 3, 16, seed=21)
    train, calib = split(ds, 0.8, derive_seed(21, "calibration-split"))
    net = train_reference_cnn(
        train.images, train.labels, TrainConfig(epochs=4, batch_size=32, seed=3)
    )
    return net, train, calib


@pytest.fixture(scope="module")
def bundles(world):
    net, train, calib = world
    return {
        "m": fit_m_bundle(net, train, calib),
        "l": fit_l_bundle(net, train, calib, seed=77, grid=(1.0,))[0],
    }


def test_run_network_batching_is_invisible(world):
    # run_network forwards in blocks of 64; images forwarded 7 at a time
    # must give the same outputs up to the dense layers' float32 sums
    net, train, _ = world
    whole = run_network(net, train.images, FeatureKind.MINMAX)
    parts = [forward_with_taps(net, train.images[start : start + 7])
             for start in range(0, len(train), 7)]
    np.testing.assert_array_equal(
        whole.predictions, np.concatenate([p.predictions for p in parts])
    )
    np.testing.assert_allclose(
        whole.features, np.vstack([extract_features(p.taps) for p in parts]),
        atol=1e-6,
    )
    np.testing.assert_allclose(
        whole.probabilities, np.vstack([p.probabilities for p in parts]),
        atol=1e-6,
    )
    assert whole.features.shape == (len(train), 6)


def test_run_network_matches_retained_tap_extraction(world):
    # run_network reduces taps inside the forward pass; the result must be
    # bit-identical to extracting from taps retained until after the block
    net, train, _ = world
    for kind in (FeatureKind.MINMAX, FeatureKind.SUM, FeatureKind.SPLIT_L2):
        rows = []
        for start in range(0, len(train), 64):
            result = forward_with_taps(net, train.images[start : start + 64])
            rows.append(extract_features(result.taps, kind))
        fused = run_network(net, train.images, kind)
        np.testing.assert_array_equal(fused.features, np.vstack(rows))


@pytest.mark.parametrize("method", ["m", "l"])
def test_empty_image_set_gives_empty_outputs(world, bundles, method):
    net, train, _ = world
    none = train.images[:0]
    bundle = bundles[method]
    outputs = run_network(net, none, bundle.kind)
    assert outputs.predictions.shape == (0,)
    assert outputs.probabilities.shape == (0, net.num_classes)
    assert outputs.features.shape == (0, bundle.transform.dim)
    scores = score_images(bundle, net, none)
    assert scores.shape == (0,) and scores.dtype == np.float64
    # the empty batch still runs, so a wrong image shape is refused
    with pytest.raises(DimensionError, match="input shape"):
        score_images(bundle, net, none[:, :, 1:])


def test_fit_m_bundle_uses_correct_rows_only(world):
    net, train, calib = world
    bundle = fit_m_bundle(net, train, calib)
    outputs = run_network(net, train.images)
    correct = outputs.predictions == train.labels
    transformed = apply_power_transform(
        bundle.transform, outputs.features[correct]
    )
    assert isinstance(bundle.detector, MDetector)
    np.testing.assert_allclose(
        bundle.detector.mean, transformed.mean(axis=0), atol=1e-12
    )
    assert bundle.detector.threshold is not None


def test_fit_m_bundle_requires_labels_and_accuracy(world):
    net, train, calib = world
    with pytest.raises(ContractError, match="labeled"):
        fit_m_bundle(net, Dataset(train.images), calib)
    # shuffled labels leave too few "correct" rows to estimate a covariance
    wrong = Dataset(train.images, (train.labels + 1) % 3)
    with pytest.raises(ContractError, match="correctly classified"):
        fit_m_bundle(net, wrong, calib)


def test_score_images_matches_manual_route(world):
    net, train, calib = world
    bundle = fit_m_bundle(net, train, calib)
    noise = gen_noise("uniform", 30, (1, 16, 16), seed=5)
    got = score_images(bundle, net, noise.images)
    outputs = run_network(net, noise.images)
    transformed = apply_power_transform(bundle.transform, outputs.features)
    want = confidence(bundle.detector, transformed)
    np.testing.assert_allclose(got, want, atol=1e-12)
    # in-distribution scores higher than noise scores on average
    id_scores = score_images(bundle, net, calib.images)
    assert id_scores.mean() > got.mean()


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130, 300])
def test_pooled_scores_are_the_serial_loops(world, bundles, monkeypatch, n):
    net, train, calib = world
    images = np.concatenate([train.images, calib.images])[:n]
    for bundle in bundles.values():
        scores = []
        for workers in (1, 2):
            monkeypatch.setattr(network, "_WORKERS", workers)
            scores.append(score_images(bundle, net, images))
        serial, pooled = (s.view(np.uint64) for s in scores)
        np.testing.assert_array_equal(pooled, serial)
        assert scores[1].shape == (n,)


@pytest.mark.parametrize("kind", list(FeatureKind))
def test_scores_are_the_full_forward_composition_bit_for_bit(world, bundles, kind):
    # score_images forwards without the head; its scores must be those of
    # the features a full forward pass gives, transformed and scored
    net, train, calib = world
    fitted = bundles if kind is FeatureKind.MINMAX else {
        "m": fit_m_bundle(net, train, calib, kind=kind),
        "l": fit_l_bundle(net, train, calib, seed=77, grid=(1.0,), kind=kind)[0],
    }
    images = np.concatenate([train.images, calib.images])
    for bundle in fitted.values():
        for n in (0, 1, 63, 64, 65, 130):
            full = run_network(net, images[:n], kind, head=True)
            assert full.predictions.shape == (n,)
            want = bundle.detector.score(
                apply_power_transform(bundle.transform, full.features)
            )
            got = score_images(bundle, net, images[:n])
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            headless = run_network(net, images[:n], kind, head=False)
            assert headless.predictions is None and headless.probabilities is None
            np.testing.assert_array_equal(
                headless.features.view(np.uint32), full.features.view(np.uint32)
            )


def test_fit_l_bundle_cv_structure(world):
    net, train, calib = world
    bundle, cv = fit_l_bundle(net, train, calib, seed=77, grid=(1e-2, 1.0))
    assert isinstance(bundle.detector, LDetector)
    assert cv.fold_losses.shape == (2, 5)  # clean fold + four families
    assert bundle.detector.reg_lambda == cv.best_lambda
    assert bundle.detector.threshold is not None
    scores = score_images(bundle, net, calib.images)
    assert scores.min() >= 0.0 and scores.max() <= 1.0


def test_fit_l_bundle_refuses_unlabeled_calibration_before_any_work(
    world, monkeypatch
):
    net, train, calib = world

    def forward(*args, **kwargs):
        raise AssertionError("ran the network before checking the labels")

    monkeypatch.setattr(pipeline, "run_network", forward)
    with pytest.raises(ContractError, match="calibration dataset must be labeled"):
        fit_l_bundle(net, train, Dataset(calib.images), seed=77)


def assert_round_trip_exact(bundle, back, net):
    """``back`` holds ``bundle``'s scalars and scores images bit for bit."""
    assert type(back.detector) is type(bundle.detector)
    assert back.kind is bundle.kind
    penalty = "reg_c" if bundle.detector.method == "m" else "reg_lambda"
    assert getattr(back.detector, penalty) == getattr(bundle.detector, penalty)
    assert back.detector.threshold == bundle.detector.threshold
    for kind, seed in (("uniform", 6), ("gaussian", 7)):
        images = gen_noise(kind, 20, (1, 16, 16), seed=seed).images
        want = score_images(bundle, net, images)
        assert score_images(back, net, images).tobytes() == want.tobytes()


def test_bundle_round_trip_m(tmp_path, world, bundles):
    save_bundle(bundles["m"], tmp_path / "det")
    assert_round_trip_exact(bundles["m"], load_bundle(tmp_path / "det"), world[0])


def test_bundle_round_trip_l(tmp_path, world, bundles):
    save_bundle(bundles["l"], tmp_path / "det")
    assert_round_trip_exact(bundles["l"], load_bundle(tmp_path / "det"), world[0])


def test_load_bundle_ignores_stale_covariance_file(tmp_path, world, bundles):
    # older versions also wrote cov.xten (xood-m), and scale_flags.xten and
    # raw_means.xten (xood-l); the detector's own tensors alone define the
    # scores
    net, _, calib = world
    for method, stale, values in (
        ("m", "cov.xten", lambda d: np.eye(d)),
        ("l", "scale_flags.xten", lambda d: np.ones(2 * d)),
        ("l", "raw_means.xten", lambda d: np.zeros(d)),
    ):
        target = tmp_path / method
        save_bundle(bundles[method], target)
        assert not (target / stale).exists()
        want = score_images(load_bundle(target), net, calib.images)
        write_tensor(target / stale, values(bundles[method].transform.dim))
        got = score_images(load_bundle(target), net, calib.images)
        assert got.tobytes() == want.tobytes()


def test_load_bundle_names_missing_file(tmp_path, bundles):
    for method, bundle in bundles.items():
        saved = tmp_path / method
        save_bundle(bundle, saved)
        for path in sorted(saved.iterdir()):
            if path.name == "bundle.txt":
                continue
            target = tmp_path / f"{method}-{path.name}"
            shutil.copytree(saved, target)
            (target / path.name).unlink()
            with pytest.raises(FormatError, match=re.escape(f"{path.name} is missing")):
                load_bundle(target)


def test_load_bundle_rejects_wrong_detector_tag(tmp_path, bundles):
    for method, tag in (("m", "mahalanobis"), ("l", "logistic")):
        target = tmp_path / method
        save_bundle(bundles[method], target)
        text = (target / "detector.txt").read_text()
        (target / "detector.txt").write_text(text.replace(tag, "other"))
        with pytest.raises(FormatError, match=f"does not hold a {tag} detector"):
            load_bundle(target)


@pytest.mark.parametrize("method, key, value, message", [
    ("m", "reg_c", "-1.0", "reg_c must be finite and >= 0, got -1.0"),
    ("l", "reg_lambda", "-0.5", "reg_lambda must be finite and >= 0, got -0.5"),
])
def test_load_bundle_names_detector_txt_for_a_refused_penalty(
    tmp_path, bundles, method, key, value, message
):
    target = tmp_path / method
    save_bundle(bundles[method], target)
    text = (target / "detector.txt").read_text()
    (target / "detector.txt").write_text(re.sub(f"{key}=.*", f"{key}={value}", text))
    with pytest.raises(FormatError, match=re.escape(f"detector.txt: {message}")):
        load_bundle(target)


def test_load_bundle_rejects_mismatched_weights(tmp_path, bundles):
    target = tmp_path / "det"
    save_bundle(bundles["l"], target)
    write_tensor(target / "weights.xten", np.zeros(3))
    with pytest.raises(FormatError, match="weights.xten has shape"):
        load_bundle(target)


def test_load_bundle_rejects_dim_other_than_power_transform(tmp_path, world, bundles):
    net, train, calib = world
    target = tmp_path / "det"
    save_bundle(bundles["m"], target)
    narrow = fit_m_bundle(net, train, calib, kind=FeatureKind.L2).transform
    save_power_transform(narrow, target / "power_transform.txt")
    with pytest.raises(FormatError, match="dim=6, the power transform 3"):
        load_bundle(target)


def test_load_bundle_rejects_tensors_of_another_width(tmp_path, bundles):
    """Tensors that agree with each other but not with ``dim``: the detector
    accepts them, the loader does not."""
    target = tmp_path / "det"
    save_bundle(bundles["m"], target)
    write_tensor(target / "mean.xten", np.zeros(2))
    write_tensor(target / "factor.xten", np.eye(2))
    with pytest.raises(FormatError, match="detector.txt has dim=6, its tensors 2"):
        load_bundle(target)


def test_load_bundle_error_paths(tmp_path, world):
    net, train, calib = world
    with pytest.raises(FormatError, match="not a detector bundle"):
        load_bundle(tmp_path / "missing")
    target = tmp_path / "det"
    bundle = fit_m_bundle(net, train, calib)
    save_bundle(bundle, target)
    (target / "bundle.txt").write_text("method=q\nfeature_kind=minmax\n")
    with pytest.raises(FormatError, match="method"):
        load_bundle(target)
    (target / "bundle.txt").write_text("method=m\nfeature_kind=nope\n")
    with pytest.raises(FormatError, match="feature kind"):
        load_bundle(target)


def test_alternative_feature_kind_flows_through(tmp_path, world):
    net, train, calib = world
    bundle = fit_m_bundle(net, train, calib, kind=FeatureKind.L2)
    assert bundle.transform.dim == 3  # one norm per activation layer
    save_bundle(bundle, tmp_path / "det")
    assert load_bundle(tmp_path / "det").kind is FeatureKind.L2
