"""Mutated files either load or raise FormatError, never anything else;
a table that loads holds only finite numbers."""

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
from xood.features import (
    fit_power_transform,
    load_power_transform,
    read_feature_csv,
    save_power_transform,
    write_feature_csv,
)
from xood.network import build_reference_cnn, load_network, save_network
from xood.rng import Stream
from xood.xten import read_tensor, write_tensor

LABELS = np.array([0, 3, 1, 2, 255, 7])

# Each table loader returns the array of values it loaded.
TABLES = {
    "scores.csv": read_scores_csv,
    "features.csv": lambda path: read_feature_csv(path)[1],
    "power_transform.txt": lambda path: np.hstack(
        [(pt := load_power_transform(path)).lambdas, pt.means, pt.stds]
    ),
}
LOADERS = {
    "model.xnet": load_network,
    "tensor.xten": read_tensor,
    "images.idx": load_images_any,
    "labels.idx": lambda path: load_labels_any(path, len(LABELS)),
    "labels.xten": lambda path: load_labels_any(path, len(LABELS)),
    **TABLES,
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The bytes of one saved file per format, and a path to mutate them at."""
    root = tmp_path_factory.mktemp("hostile")
    save_network(build_reference_cnn((1, 8, 8), 3, seed=5), root / "model.xnet")
    write_tensor(root / "tensor.xten", Stream(3).normal(24).reshape(2, 3, 4))
    write_idx_images(root / "images.idx", np.arange(48, dtype=np.uint8).reshape(3, 4, 4))
    write_idx_labels(root / "labels.idx", LABELS)
    write_tensor(root / "labels.xten", LABELS)
    (root / "scores.csv").write_text("index,score\n0,0.25\n1,-1.5e-3\n2,7\n")
    feats = Stream(4).normal(24).astype(np.float32).reshape(12, 2)
    write_feature_csv(root / "features.csv", feats, ["layer1_min", "layer1_max"])
    save_power_transform(fit_power_transform(feats), root / "power_transform.txt")
    return {name: (root / name).read_bytes() for name in LOADERS}, root / "mutated"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(LOADERS)), cut=st.booleans(), data=st.data())
def test_truncated_or_overwritten_file_loads_or_raises_format_error(
    originals, name, cut, data
):
    files, path = originals
    raw = files[name]
    pos = data.draw(st.integers(0, len(raw) - 1), label="position")
    if cut:
        mutated = raw[:pos]
    else:
        byte = data.draw(st.integers(0, 255), label="byte")
        mutated = raw[:pos] + bytes([byte]) + raw[pos + 1 :]
    path.write_bytes(mutated)
    try:
        loaded = LOADERS[name](path)
    except FormatError:
        return
    if name in TABLES:
        assert np.isfinite(loaded).all()
