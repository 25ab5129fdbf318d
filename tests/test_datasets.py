import re
import struct

import numpy as np
import pytest

from xood.datasets import (
    Dataset,
    dataset_to_idx,
    gen_noise,
    load_idx,
    load_images_any,
    load_labels_any,
    make_blobs,
    make_gratings,
    save_dataset,
    split,
    write_idx_images,
    write_idx_labels,
)
from xood.errors import ContractError, FormatError
from xood.rng import Stream
from xood.xten import write_tensor


def test_dataset_contract_checks():
    with pytest.raises(ContractError, match="N,C,H,W"):
        Dataset(np.zeros((3, 4, 4), np.float32))
    with pytest.raises(ContractError, match="0, 1"):
        Dataset(np.full((1, 1, 2, 2), 1.5, np.float32))
    with pytest.raises(ContractError, match="does not match"):
        Dataset(np.zeros((2, 1, 2, 2), np.float32), labels=[0, 1, 2])
    with pytest.raises(ContractError, match="non-negative"):
        Dataset(np.zeros((2, 1, 2, 2), np.float32), labels=[0, -1])
    # refused before the int64 cast could truncate them or warn on NaN
    for labels in ([0.7, 1.2], [0.0, np.nan], [0.0, np.inf], [1.0, 1e300]):
        with pytest.raises(ContractError, match="non-integer"):
            Dataset(np.zeros((2, 1, 2, 2), np.float32), labels=labels)
    with pytest.raises(ContractError, match="non-integer"):
        Dataset(np.zeros((2, 1, 2, 2), np.float32), labels=["0", "1"])
    ds = Dataset(np.zeros((2, 1, 2, 2), np.float32), labels=[1.0, 0.0])
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]


def test_idx_round_trip(tmp_path):
    raw = Stream(1).integers(2 * 6 * 5, 256).astype(np.uint8).reshape(2, 6, 5)
    labels = np.array([3, 9], np.int64)
    write_idx_images(tmp_path / "im.idx", raw)
    write_idx_labels(tmp_path / "lb.idx", labels)
    ds = load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")
    assert ds.images.shape == (2, 1, 6, 5)
    np.testing.assert_array_equal(ds.labels, labels)
    # scaled by 1/255, up to float32 rounding
    np.testing.assert_allclose(ds.images[:, 0], raw / 255.0, rtol=0, atol=1e-7)

    # quantize back: bytes identical since pixels are exact multiples of 1/255
    dataset_to_idx(ds, tmp_path / "im2.idx", tmp_path / "lb2.idx")
    assert (tmp_path / "im.idx").read_bytes() == (tmp_path / "im2.idx").read_bytes()
    assert (tmp_path / "lb.idx").read_bytes() == (tmp_path / "lb2.idx").read_bytes()


def test_idx_extreme_values(tmp_path):
    raw = np.array([[[0, 255]]], np.uint8)
    write_idx_images(tmp_path / "im.idx", raw)
    ds = load_idx(tmp_path / "im.idx")
    np.testing.assert_array_equal(ds.images[0, 0], [[0.0, 1.0]])


def test_idx_error_reporting(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x00" * 10)
    with pytest.raises(FormatError, match="truncated IDX image header"):
        load_idx(p)
    p.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(FormatError, match="magic"):
        load_idx(p)
    p.write_bytes(struct.pack(">IIII", 0x00000803, 1, 2, 2) + b"\x00" * 3)
    with pytest.raises(FormatError, match="payload is 3 bytes, expected 4"):
        load_idx(p)
    for dims, index in (((0, 2, 2), 0), ((1, 2, 0), 2)):
        p.write_bytes(struct.pack(">IIII", 0x00000803, *dims))
        with pytest.raises(FormatError, match=f"IDX dim {index} must be >= 1") as err:
            load_idx(p)
        assert err.value.offset == 4 + 4 * index

    im = tmp_path / "im.idx"
    write_idx_images(im, np.zeros((2, 2, 2), np.uint8))
    lb = tmp_path / "lb.idx"
    lb.write_bytes(struct.pack(">II", 0x00000801, 5) + b"\x00" * 5)
    with pytest.raises(FormatError, match="label count 5 does not match 2"):
        load_idx(im, lb)


def test_save_and_sniff_xten(tmp_path):
    ds = make_blobs(6, 3, 8, seed=2)
    save_dataset(ds, tmp_path / "im.xten", tmp_path / "lb.xten")
    back = load_images_any(tmp_path / "im.xten")
    np.testing.assert_array_equal(back.images, ds.images)
    labels = load_labels_any(tmp_path / "lb.xten", 6)
    np.testing.assert_array_equal(labels, ds.labels)


def test_sniff_idx_and_reject_unknown(tmp_path):
    write_idx_images(tmp_path / "im.idx", np.zeros((1, 4, 4), np.uint8))
    ds = load_images_any(tmp_path / "im.idx")
    assert ds.images.shape == (1, 1, 4, 4)
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"ZZZZ1234")
    with pytest.raises(FormatError, match="magic"):
        load_images_any(junk)


def test_text_labels(tmp_path):
    p = tmp_path / "labels.txt"
    p.write_text("0\n2\n1\n")
    np.testing.assert_array_equal(load_labels_any(p, 3), [0, 2, 1])
    with pytest.raises(FormatError, match="count"):
        load_labels_any(p, 4)
    p.write_text("0\nx\n1\n")
    with pytest.raises(FormatError, match="not integers"):
        load_labels_any(p, 3)
    p.write_text("0\n99999999999999999999\n1\n")
    with pytest.raises(FormatError, match="not integers"):
        load_labels_any(p, 3)
    p.write_text("0\n-2\n1\n")
    with pytest.raises(FormatError, match=f"{re.escape(str(p))}: .*non-negative"):
        load_labels_any(p, 3)


def test_label_tensor_must_hold_integers(tmp_path):
    ds = Dataset(np.zeros((2, 1, 2, 2), np.float32), labels=[0, 1])
    save_dataset(ds, tmp_path / "im.xten", tmp_path / "lb.xten")
    write_tensor(tmp_path / "lb.xten", np.array([0.5, 1.0], np.float32))
    with pytest.raises(FormatError, match="non-integer"):
        load_labels_any(tmp_path / "lb.xten", 2)


def test_image_tensor_must_hold_pixels(tmp_path):
    """NaN fails both halves of a min/max range test; a float64 value beyond
    float32's range is refused before the cast could overflow."""
    images = np.full((2, 1, 2, 2), 0.5)
    images[1, 0, 1, 0] = np.nan
    with pytest.raises(ContractError, match=r"\[0, 1\]"):
        Dataset(images)
    path = tmp_path / "im.xten"
    for bad in (np.nan, 1e300, -0.25):
        images[1, 0, 1, 0] = bad
        write_tensor(path, images)
        with pytest.raises(FormatError, match=r"im\.xten: pixel values"):
            load_images_any(path)
    write_tensor(path, np.zeros((2, 3)))
    with pytest.raises(FormatError, match=r"im\.xten: images must be"):
        load_images_any(path)


def test_gen_noise_uniform_stats():
    ds = gen_noise("uniform", 50, (1, 16, 16), seed=4)
    assert ds.images.shape == (50, 1, 16, 16)
    assert ds.images.min() >= 0.0 and ds.images.max() < 1.0
    assert abs(float(ds.images.mean()) - 0.5) < 0.01


def test_gen_noise_gaussian_clipped():
    ds = gen_noise("gaussian", 50, (1, 16, 16), seed=4)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    # sd 0.25 around 0.5 puts a small mass at the clip boundaries
    assert float((ds.images == 0.0).mean()) < 0.05
    assert abs(float(ds.images.mean()) - 0.5) < 0.01
    ds2 = gen_noise("gaussian", 50, (1, 16, 16), seed=4)
    np.testing.assert_array_equal(ds.images, ds2.images)


def test_split_is_disjoint_and_exhaustive():
    ds = make_blobs(100, 4, 8, seed=1)
    a, b = split(ds, 0.8, seed=9)
    assert len(a) == 80 and len(b) == 20
    key = lambda part: {bytes(part.images[i].tobytes()) for i in range(len(part))}
    union = key(a) | key(b)
    assert len(union) == 100  # all rows distinct and none lost
    a2, b2 = split(ds, 0.8, seed=9)
    np.testing.assert_array_equal(a.images, a2.images)
    np.testing.assert_array_equal(a.labels, a2.labels)
    with pytest.raises(ContractError):
        split(ds, 0.0001, seed=9)


def test_split_keeps_image_label_pairing():
    ds = make_blobs(60, 3, 8, seed=5)
    # encode the label in the first pixel so pairing is checkable after shuffle
    images = ds.images.copy()
    images[:, 0, 0, 0] = ds.labels / 10.0
    ds = Dataset(images, ds.labels)
    a, b = split(ds, 0.5, seed=3)
    for part in (a, b):
        np.testing.assert_allclose(
            part.images[:, 0, 0, 0], part.labels / 10.0, atol=1e-6
        )


def test_make_blobs_properties():
    ds = make_blobs(40, 4, 28, seed=7)
    assert ds.images.shape == (40, 1, 28, 28)
    assert set(np.unique(ds.labels)) == {0, 1, 2, 3}
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    # bump peaks are bright, background with noise floor stays dim
    assert float(ds.images.max(axis=(1, 2, 3)).min()) > 0.5
    assert float(np.median(ds.images)) < 0.1
    np.testing.assert_array_equal(ds.images, make_blobs(40, 4, 28, seed=7).images)


def test_blob_classes_are_spatially_separated():
    ds = make_blobs(200, 4, 28, seed=11)
    centers = []
    for k in range(4):
        sel = ds.images[ds.labels == k, 0]
        yy, xx = np.mgrid[0:28, 0:28]
        mass = sel.sum()
        centers.append(
            ((sel * xx).sum() / mass, (sel * yy).sum() / mass)
        )
    for i in range(4):
        for j in range(i + 1, 4):
            dist = np.hypot(
                centers[i][0] - centers[j][0], centers[i][1] - centers[j][1]
            )
            assert dist > 4.0, (i, j, dist)


def test_make_gratings_properties():
    ds = make_gratings(30, 28, seed=3)
    assert ds.labels is None
    assert ds.images.shape == (30, 1, 28, 28)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    # gratings fill the frame: mean near 0.5, much more energy than blobs
    assert abs(float(ds.images.mean()) - 0.5) < 0.05
    assert float(ds.images.std()) > 0.2
