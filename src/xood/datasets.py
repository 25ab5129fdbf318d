"""Dataset container, file IO, and synthetic data generators.

Images are float32 NCHW with pixel values in [0, 1]; labels are optional
int64 class ids, non-negative integers (``class_ids``, checked before any
cast, in memory and for every file format). Supported on disk:

* IDX image/label files (big-endian, magics 0x00000803 / 0x00000801);
  uint8 pixels are scaled by 1/255 and a singleton channel axis is added
* XTEN image batches of shape (N, C, H, W) or (N, H, W), refused with a
  FormatError naming the file unless every value lies in [0, 1]; labels
  as floats in a 1-D XTEN tensor, or one integer per line of a text file

The synthetic generators provide a desk-scale stand-in for real corpora:
``make_blobs`` (class = location of a Gaussian bump) trains cleanly in a
few epochs, ``make_gratings`` (oriented sinusoids) is a structurally
different image distribution for detector evaluation, and ``gen_noise``
produces the uniform/Gaussian pixel-noise sets.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError
from .keyvalue import read_utf8
from .rng import Stream
from .xten import ByteReader, read_tensor, write_tensor

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def class_ids(values) -> np.ndarray:
    """``values`` as int64, refused with a ContractError before the cast
    unless every one is a non-negative integer."""
    values = np.asarray(values)
    # NaN, inf and out-of-range values fail both tests without a cast
    if values.dtype.kind not in "biuf" or not (
            (np.abs(values) < 2.0**62) & (np.trunc(values) == values)).all():
        raise ContractError("labels hold non-integer values")
    ids = values.astype(np.int64, copy=False)
    if ids.size and ids.min() < 0:
        raise ContractError("labels must be non-negative class ids")
    return ids


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32 in [0, 1]
    labels: np.ndarray | None = None  # (N,) int64, or None for unlabeled sets

    def __post_init__(self):
        images = np.asarray(self.images)
        if images.ndim != 4:
            raise ContractError(f"images must be (N,C,H,W), got shape {images.shape}")
        # checked before the float32 cast can overflow; NaN fails both tests
        if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
            raise ContractError("pixel values must lie in [0, 1]")
        self.images = images.astype(np.float32, copy=False)
        if self.labels is not None:
            self.labels = class_ids(self.labels)
            if self.labels.shape != (self.images.shape[0],):
                raise ContractError(
                    f"labels shape {self.labels.shape} does not match "
                    f"{self.images.shape[0]} images"
                )

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        labels = None if self.labels is None else self.labels[indices]
        return Dataset(self.images[indices], labels)


# ---------------------------------------------------------------------------
# IDX files


def load_idx(
    images_path: str | Path, labels_path: str | Path | None = None
) -> Dataset:
    reader = ByteReader(Path(images_path).read_bytes(), "IDX")
    magic, *dims = reader.unpack(">IIII", "image header")
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"bad IDX image magic 0x{magic:08x}", offset=0)
    for i, d in enumerate(dims):
        if d < 1:
            raise FormatError(f"IDX dim {i} must be >= 1, got {d}", offset=4 + 4 * i)
    payload = reader.take(math.prod(dims), "payload")
    reader.finish()
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    images = (raw.astype(np.float32) / 255.0)[:, None, :, :]
    labels = None
    if labels_path is not None:
        labels = _load_idx_labels(labels_path, dims[0])
    return Dataset(images, labels)


def _load_idx_labels(path: str | Path, expected: int) -> np.ndarray:
    reader = ByteReader(Path(path).read_bytes(), "IDX")
    magic, n = reader.unpack(">II", "label header")
    if magic != IDX_LABELS_MAGIC:
        raise FormatError(f"bad IDX label magic 0x{magic:08x}", offset=0)
    if n != expected:
        raise FormatError(f"label count {n} does not match {expected} images", offset=4)
    payload = reader.take(n, "label payload")
    reader.finish()
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def write_idx_images(path: str | Path, images_u8: np.ndarray) -> None:
    """Write (N, H, W) uint8 images as an IDX file."""
    arr = np.ascontiguousarray(images_u8, dtype=np.uint8)
    if arr.ndim != 3:
        raise ContractError(f"IDX images must be (N,H,W), got {arr.shape}")
    header = struct.pack(">IIII", IDX_IMAGES_MAGIC, *arr.shape)
    Path(path).write_bytes(header + arr.tobytes())


def write_idx_labels(path: str | Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels.size and (labels.min() < 0 or labels.max() > 255)):
        raise ContractError("IDX labels must be 1-D values in 0..255")
    header = struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0])
    Path(path).write_bytes(header + labels.astype(np.uint8).tobytes())


def dataset_to_idx(
    ds: Dataset, images_path: str | Path, labels_path: str | Path | None = None
) -> None:
    """Quantize a single-channel dataset back to uint8 IDX files."""
    if ds.images.shape[1] != 1:
        raise ContractError("IDX export needs single-channel images")
    u8 = np.clip(np.rint(ds.images[:, 0] * 255.0), 0, 255).astype(np.uint8)
    write_idx_images(images_path, u8)
    if labels_path is not None:
        if ds.labels is None:
            raise ContractError("dataset has no labels to write")
        write_idx_labels(labels_path, ds.labels)


# ---------------------------------------------------------------------------
# XTEN / text IO and format sniffing


def save_dataset(
    ds: Dataset,
    images_path: str | Path,
    labels_path: str | Path | None = None,
) -> None:
    write_tensor(images_path, ds.images)
    if labels_path is not None:
        if ds.labels is None:
            raise ContractError("dataset has no labels to write")
        write_tensor(labels_path, ds.labels.astype(np.float32))


def load_images_any(path: str | Path) -> Dataset:
    """Load an image file, sniffing XTEN vs IDX by magic; a file cut inside
    a magic goes to that format's reader, which names the cut."""
    with open(path, "rb") as f:
        head = f.read(4)
    if head and b"XTEN".startswith(head):
        images = read_tensor(path)
        if images.ndim == 3:
            images = images[:, None, :, :]
        try:
            return Dataset(images)
        except ContractError as exc:
            raise FormatError(f"image tensor in {path}: {exc}") from None
    if head and struct.pack(">I", IDX_IMAGES_MAGIC).startswith(head):
        return load_idx(path)
    raise FormatError(f"unrecognized image file magic {head!r}", offset=0)


def load_labels_any(path: str | Path, expected: int) -> np.ndarray:
    """Load labels from XTEN, IDX, or one-integer-per-line text as ``class_ids``."""
    with open(path, "rb") as f:
        head = f.read(4)
    if head and b"XTEN".startswith(head):
        labels = read_tensor(path)
        if labels.ndim != 1:
            raise FormatError(f"label tensor must be 1-D, got {labels.shape}")
    elif head and struct.pack(">I", IDX_LABELS_MAGIC).startswith(head):
        labels = _load_idx_labels(path, expected)
    else:
        try:
            lines = read_utf8(path).split()
            labels = np.array([int(v) for v in lines], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"labels are not integers: {exc}") from None
    if labels.shape[0] != expected:
        raise FormatError(
            f"label count {labels.shape[0]} does not match {expected} images"
        )
    try:
        return class_ids(labels)
    except ContractError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# synthetic generators


class NoiseKind(str, Enum):
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


def gen_noise(
    kind: NoiseKind | str,
    n: int,
    shape: tuple[int, int, int] = (1, 28, 28),
    seed: int = 0,
) -> Dataset:
    """Pixel-noise image sets: uniform on [0,1) or Normal(0.5, sd 0.25)
    clipped to [0,1]."""
    kind = NoiseKind(kind)
    if n < 1:
        raise ContractError(f"need at least one image, got {n}")
    stream = Stream(seed)
    count = n * int(np.prod(shape))
    if kind is NoiseKind.UNIFORM:
        flat = stream.uniform(count)
    else:
        flat = np.clip(stream.normal(count, mean=0.5, std=0.25), 0.0, 1.0)
    images = flat.astype(np.float32).reshape(n, *shape)
    return Dataset(images)


def split(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into (first, rest); parts are disjoint and
    exhaustive, sizes (floor(fraction*n), rest)."""
    if not 0.0 < fraction < 1.0:
        raise ContractError(f"fraction must be in (0, 1), got {fraction}")
    n = len(ds)
    order = Stream(seed).permutation(n)
    cut = int(fraction * n)
    if cut == 0 or cut == n:
        raise ContractError(f"split of {n} at {fraction} leaves an empty part")
    return ds.subset(order[:cut]), ds.subset(order[cut:])


def make_blobs(
    n: int,
    num_classes: int = 4,
    side: int = 28,
    seed: int = 0,
) -> Dataset:
    """Labeled images of one Gaussian bump; the class is the bump's location.

    Classes sit evenly on a circle around the image center, far enough
    apart that the reference CNN separates them within a few epochs.
    """
    if num_classes < 2 or n < num_classes:
        raise ContractError("need >= 2 classes and n >= num_classes")
    stream = Stream(seed)
    labels = np.arange(n, dtype=np.int64) % num_classes
    angles = 2.0 * np.pi * labels / num_classes
    mid = (side - 1) / 2.0
    radius = side * 0.27
    cx = mid + radius * np.cos(angles) + stream.uniform(n, -1.5, 1.5)
    cy = mid + radius * np.sin(angles) + stream.uniform(n, -1.5, 1.5)
    sigma = stream.uniform(n, 2.0, 3.0) * (side / 28.0)
    amp = stream.uniform(n, 0.75, 1.0)
    yy, xx = np.mgrid[0:side, 0:side]
    d2 = (xx[None] - cx[:, None, None]) ** 2 + (yy[None] - cy[:, None, None]) ** 2
    images = amp[:, None, None] * np.exp(-d2 / (2.0 * sigma[:, None, None] ** 2))
    images += stream.uniform(n * side * side, 0.0, 0.04).reshape(n, side, side)
    images = np.clip(images, 0.0, 1.0).astype(np.float32)[:, None]
    return Dataset(images, labels)


def make_gratings(n: int, side: int = 28, seed: int = 0) -> Dataset:
    """Unlabeled oriented sinusoidal gratings; structurally unlike blobs."""
    if n < 1:
        raise ContractError(f"need at least one image, got {n}")
    stream = Stream(seed)
    theta = stream.uniform(n, 0.0, np.pi)
    freq = stream.uniform(n, 2.0, 6.0)
    phase = stream.uniform(n, 0.0, 2.0 * np.pi)
    contrast = stream.uniform(n, 0.4, 1.0)
    yy, xx = np.mgrid[0:side, 0:side]
    u = (
        xx[None] * np.cos(theta)[:, None, None]
        + yy[None] * np.sin(theta)[:, None, None]
    ) / side
    waves = np.sin(2.0 * np.pi * freq[:, None, None] * u + phase[:, None, None])
    images = 0.5 + 0.5 * contrast[:, None, None] * waves
    return Dataset(images.astype(np.float32)[:, None])
