"""Mutated files either load or raise FormatError, never anything else;
a table, image file or bundle that loads holds only finite numbers.

Every format, and every file of a saved xood-m and xood-l bundle, draws its
own truncations, single-byte overwrites and swaps of two equal-length,
non-overlapping byte spans. Faults that only one byte value at one position
reaches are pinned in ``PINNED``. Every binary file is also cut at every
length, and grown by one byte.
"""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xood.cli import read_scores_csv
from xood.datasets import (
    load_images_any,
    load_labels_any,
    write_idx_images,
    write_idx_labels,
)
from xood.errors import FormatError
from xood.features import FeatureKind, apply_power_transform, fit_power_transform
from xood.keyvalue import write_table
from xood.logistic import LabeledFeatureSet, fit_l_detector
from xood.mahalanobis import calibrate, fit_mahalanobis
from xood.network import build_reference_cnn, load_network, save_network
from xood.pipeline import (
    DetectorBundle,
    load_bundle,
    load_power_transform,
    save_bundle,
    save_power_transform,
)
from xood.rng import Stream
from xood.xten import read_tensor, write_tensor

from helpers import read_feature_csv

LABELS = np.array([0, 3, 1, 2, 255, 7])


def bundle_numbers(directory):
    """Every number of a loaded bundle: transform, scalars and tensors."""
    bundle = load_bundle(directory)
    det = bundle.detector
    pt = bundle.transform
    if det.method == "m":
        penalty, tensors = det.reg_c, [det.mean, det.factor]
    else:
        penalty, tensors = det.reg_lambda, [det.scale_means, det.scale_stds, det.weights]
    return np.hstack([pt.lambdas, pt.means, pt.stds, penalty, det.threshold,
                      *(t.ravel() for t in tensors)])


# Each of these loaders returns the array of numbers it loaded.
FINITE = {
    "scores.csv": read_scores_csv,
    "features.csv": lambda path: read_feature_csv(path)[1],
    "power_transform.txt": lambda path: np.hstack(
        [(pt := load_power_transform(path)).lambdas, pt.means, pt.stds]
    ),
    "images.xten": lambda path: load_images_any(path).images,
}
LOADERS = {
    "model.xnet": load_network,
    "tensor.xten": read_tensor,
    "images.idx": load_images_any,
    "labels.idx": lambda path: load_labels_any(path, len(LABELS)),
    "labels.xten": lambda path: load_labels_any(path, len(LABELS)),
    **FINITE,
}
BUNDLES = ("mdet", "ldet")
BUNDLE_FILES = {
    "mdet": ("bundle.txt", "detector.txt", "factor.xten", "mean.xten",
             "power_transform.txt"),
    "ldet": ("bundle.txt", "detector.txt", "power_transform.txt",
             "scale_means.xten", "scale_stds.xten", "weights.xten"),
}
# every file the mutation test mutates: a format's file name, or
# ``<bundle>/<file>``
CASES = sorted([*LOADERS, *(f"{bundle}/{name}"
                            for bundle, names in BUNDLE_FILES.items()
                            for name in names)])

# One-byte overwrites too rare to be drawn, as (file, old bytes, new bytes):
# a "." overwritten with "e" makes a number overflow to inf, and a high
# byte of 0xff makes the XTEN label 7.0 a NaN.
PINNED = [
    ("features.csv", b"-1.2490", b"-1e2490"),
    ("power_transform.txt", b"0,1.44", b"0,1e44"),
    ("labels.xten", b"\xe0\x40", b"\xe0\xff"),
    ("mdet/detector.txt", b"threshold=-1.", b"threshold=-1e"),
]


def save_bundles(root):
    """An xood-m and an xood-l bundle of width 2, fitted on small draws."""
    stream = Stream(6)
    raw = stream.normal(200).reshape(100, 2)
    pt = fit_power_transform(raw)
    x = apply_power_transform(pt, raw)
    m = fit_mahalanobis(x[:50], reg_c=1.0)
    calibrate(m, m.score(x[50:]))
    training = LabeledFeatureSet(
        x, (stream.uniform(100) < 0.7).astype(np.float64), np.arange(100) % 5
    )
    l, _ = fit_l_detector(training, grid=(1.0,))
    calibrate(l, l.score(x[training.fold_ids == 0]))
    for name, det in zip(BUNDLES, (m, l)):
        save_bundle(DetectorBundle(FeatureKind.MINMAX, pt, det), root / name)


class Originals(tuple):
    """(the bytes of each saved file, keyed by its name in ``CASES``; the
    directory they are saved in). Hypothesis prints every argument of a
    falsifying example, and a repr of the bytes (about 70 kB) would raise
    its large-repr warning, an error here, before the replay runs."""

    def __repr__(self):
        return f"<originals in {self[1]}>"


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    save_network(build_reference_cnn((1, 8, 8), 3, seed=5), root / "model.xnet")
    write_tensor(root / "tensor.xten", Stream(3).normal(24).reshape(2, 3, 4))
    write_idx_images(root / "images.idx", np.arange(48, dtype=np.uint8).reshape(3, 4, 4))
    write_tensor(root / "images.xten", Stream(7).uniform(48).reshape(3, 1, 4, 4))
    write_idx_labels(root / "labels.idx", LABELS)
    write_tensor(root / "labels.xten", LABELS)
    (root / "scores.csv").write_text("index,score\n0,0.25\n1,-1.5e-3\n2,7\n")
    feats = Stream(4).normal(24).astype(np.float32).reshape(12, 2)
    write_table(root / "features.csv", "image_id",
                {"layer1_min": feats[:, 0], "layer1_max": feats[:, 1]})
    save_power_transform(fit_power_transform(feats), root / "power_transform.txt")
    save_bundles(root)
    files = {name: (root / name).read_bytes() for name in LOADERS}
    for bundle in BUNDLES:
        for path in sorted((root / bundle).iterdir()):
            files[f"{bundle}/{path.name}"] = path.read_bytes()
    assert sorted(files) == CASES
    return Originals((files, root))


def load_mutated(files, root, case, mutated):
    """Load ``case`` with its bytes replaced by ``mutated`` (the rest of its
    bundle intact): only FormatError may come out, and a table or bundle
    that loads must hold only finite numbers."""
    bundle, _, name = case.rpartition("/")
    (root / case).write_bytes(mutated)
    try:
        if bundle:
            loaded = bundle_numbers(root / bundle)
        else:
            loaded = LOADERS[name](root / name)
    except FormatError:
        return
    finally:
        (root / case).write_bytes(files[case])
    if bundle or name in FINITE:
        assert np.isfinite(loaded).all(), f"{case} loaded non-finite numbers"


# When an example fails, hypothesis's pytest plugin imports libcst to suggest
# a patch, and some libcst versions warn on import; as an error that would
# replace the falsifying example's report with a pytest internal error.
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)
@pytest.mark.parametrize("case", CASES)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(how=st.sampled_from(("cut", "overwrite", "swap")), data=st.data())
def test_mutated_file_loads_or_raises_format_error(originals, case, how, data):
    files, root = originals
    raw = files[case]
    if how == "swap":
        # the equal-length spans [a, a + n) and [b, b + n) trade places
        n = data.draw(st.integers(1, len(raw) // 2), label="length")
        a = data.draw(st.integers(0, len(raw) - 2 * n), label="first")
        b = data.draw(st.integers(a + n, len(raw) - n), label="second")
        mutated = (raw[:a] + raw[b : b + n] + raw[a + n : b]
                   + raw[a : a + n] + raw[b + n :])
    else:
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        if how == "cut":
            mutated = raw[:pos]
        else:
            byte = data.draw(st.integers(0, 255), label="byte")
            mutated = raw[:pos] + bytes([byte]) + raw[pos + 1 :]
    load_mutated(files, root, case, mutated)


@pytest.mark.parametrize("case, old, new", PINNED, ids=[p[0] for p in PINNED])
def test_pinned_overwrite_loads_or_raises_format_error(originals, case, old, new):
    files, root = originals
    assert files[case].count(old) == 1
    load_mutated(files, root, case, files[case].replace(old, new))


def test_factor_with_entries_above_its_diagonal_is_refused(originals):
    """An xood-m factor must be lower triangular: with factor[0, 1] set to
    f00 * f11 / f10 it is not a Cholesky factor, and it is singular."""
    files, root = originals
    path = root / "mdet" / "factor.xten"
    factor = read_tensor(path)
    factor[0, 1] = factor[0, 0] * factor[1, 1] / factor[1, 0]
    assert abs(np.linalg.det(factor)) < 1e-12
    write_tensor(path, factor)
    try:
        with pytest.raises(FormatError, match="factor.xten has a non-zero entry"):
            load_bundle(root / "mdet")
    finally:
        path.write_bytes(files["mdet/factor.xten"])
    load_bundle(root / "mdet")


def test_factor_without_a_finite_inverse_is_refused(originals):
    """A lower-triangular, finite factor with a positive diagonal can still
    be singular in floating point; loading refuses it, naming the file."""
    files, root = originals
    path = root / "mdet" / "factor.xten"
    write_tensor(path, np.array([[5.7e-216, 0.0], [-5.9e266, 1.38]]))
    try:
        with pytest.raises(FormatError, match="factor.xten has no finite inverse"):
            load_bundle(root / "mdet")
    finally:
        path.write_bytes(files["mdet/factor.xten"])
    load_bundle(root / "mdet")


BINARY = ("model.xnet", "tensor.xten", "images.xten", "labels.xten",
          "images.idx", "labels.idx")


@pytest.mark.parametrize("case", BINARY)
def test_every_prefix_and_one_extra_byte_is_refused(originals, tmp_path, case):
    """A cut file is refused at an offset inside what is left (an empty
    label file is read as text, without one); a file cut inside its 4-byte
    magic goes to that format's reader, which names a truncated header at
    offset 0. One byte past the end is trailing."""
    files, _ = originals
    raw = files[case]
    path = tmp_path / case
    path.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        LOADERS[case](path)
    for end in reversed(range(len(raw))):
        os.truncate(path, end)
        with pytest.raises(FormatError) as err:
            LOADERS[case](path)
        offset = err.value.offset
        assert offset is None or 0 <= offset <= end, (end, str(err.value))
        if 0 < end < 4:
            assert offset == 0, (end, str(err.value))
            assert re.match(r"truncated (XNET|XTEN|IDX) (\w+ )?header", str(err.value))
