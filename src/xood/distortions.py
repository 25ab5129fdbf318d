"""Image distortions used to manufacture "hard" training rows for the
supervised detector.

Four families, all deterministic per seed and all clipping pixels back to
[0, 1]. Geometric, noise, and blur transform ``CHUNK`` images at a time;
image i draws its parameters from a stream forked as ``seed XOR i``, the
chunk's streams drawing in lockstep, so results do not depend on chunk or
batch boundaries. Mixup is inherently batch-level (it samples one
permutation) and uses the seed directly.

* geometric: zoom U(0.9, 1.1) about the image center with bilinear
  resampling and zero fill, then a brightness multiplier U(0.2, 2). Neither
  moves a blob around the center, so labels are unchanged.
* mixup: convex combination with a permuted partner, weight w ~ U(0, 1);
  the label follows the dominant image (ties at w = 0.5 go to the first).
* noise + pixel affine: additive Gaussian noise with variance U(0, 2),
  then x <- a*x + b with a log-uniform on [1/8, 8] and
  b ~ U(min(0, 1-a), max(0, 1-a)), constant per image. Labels unchanged.
* blur + pixel affine: separable Gaussian blur with variance U(0.2, 5)
  (kernel radius ceil(3*sigma), reflected boundary), then the same pixel
  affine family. Labels unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import Dataset
from .errors import ContractError
from .rng import Stream

GEOMETRIC_ZOOM = (0.9, 1.1)
GEOMETRIC_BRIGHTNESS = (0.2, 2.0)
NOISE_VARIANCE_MAX = 2.0
BLUR_VARIANCE = (0.2, 5.0)
AFFINE_SCALE_RANGE = (1.0 / 8.0, 8.0)
CHUNK = 256  # images per lockstep pass; bounds the float64 temporaries

# Per-image scales go through libm, as a scalar draw's do: numpy's SIMD exp
# may differ from it in the last bit for some arguments.
_exp = np.vectorize(math.exp, otypes=[np.float64])


def _per_image(ds: Dataset, seed: int, family) -> Dataset:
    """Run ``family(images, streams, draw)`` on ``CHUNK`` images at a time.
    ``draw(low, high)`` gives each image, as an (n, 1, 1, 1) array, the
    uniform that ``Stream(seed).fork(i).uniform(1, low, high)`` would."""
    out = np.empty_like(ds.images)
    for start in range(0, len(ds), CHUNK):
        stop = min(start + CHUNK, len(ds))
        streams = Stream(seed).fork(np.arange(start, stop, dtype=np.uint64)[:, None])
        def draw(low=0.0, high=1.0):
            return low + streams.uniform(1).reshape(-1, 1, 1, 1) * (high - low)
        out[start:stop] = family(ds.images[start:stop], streams, draw)
    return Dataset(out, ds.labels)


# ---------------------------------------------------------------------------
# geometric


def _zoom_taps(size: int, zoom) -> np.ndarray:
    """(K, size, size) bilinear weights along one axis: output p samples the
    source at c + (p - c) / zoom[k] about the center c, each source pixel q
    weighted by the hat max(0, 1 - |position - q|). Positions off the image
    find no pixel, which is zero fill."""
    center = (size - 1) / 2.0
    at = (np.arange(size) - center)[:, None] / np.reshape(zoom, (-1, 1, 1)) + center
    return np.maximum(0.0, 1.0 - np.abs(at - np.arange(size)))


def warp_images(images: np.ndarray, zoom):
    """Zoom (N, C, H, W) images about their centers, sampling bilinearly
    with zero fill outside the source. ``zoom`` is a scalar or an
    (N, 1, 1, 1) array of per-image values. A zoom moves rows and columns
    apart, so each image is its row weights @ image @ column weights.T."""
    h, w = images.shape[2:]
    rows = _zoom_taps(h, zoom)[:, None]
    cols = _zoom_taps(w, zoom)[:, None].swapaxes(2, 3)
    return (rows @ images.astype(np.float64) @ cols).astype(np.float32)


def _geometric(images: np.ndarray, streams: Stream, draw) -> np.ndarray:
    zoom = draw(*GEOMETRIC_ZOOM)
    brightness = draw(*GEOMETRIC_BRIGHTNESS)
    return np.clip(warp_images(images, zoom) * brightness, 0.0, 1.0)


def distort_geometric(ds: Dataset, seed: int) -> Dataset:
    return _per_image(ds, seed, _geometric)


# ---------------------------------------------------------------------------
# mixup


def distort_mixup(ds: Dataset, seed: int) -> Dataset:
    if ds.labels is None:
        raise ContractError("mixup needs a labeled dataset")
    stream = Stream(seed)
    n = len(ds)
    partner = stream.permutation(n)
    weight = stream.uniform(n)
    wa = weight.reshape(n, 1, 1, 1)
    mixed = wa * ds.images.astype(np.float64) + (1.0 - wa) * ds.images[
        partner
    ].astype(np.float64)
    labels = np.where(weight >= 0.5, ds.labels, ds.labels[partner])
    return Dataset(mixed.astype(np.float32), labels)


# ---------------------------------------------------------------------------
# pixel affine shared by the noise and blur families


def pixel_affine(draw) -> tuple[np.ndarray, np.ndarray]:
    """Draw (a, b): a log-uniform on [1/8, 8], b ~ U(min(0, 1-a), max(0, 1-a))."""
    a = _exp(draw(*map(math.log, AFFINE_SCALE_RANGE)))
    b = draw(np.minimum(0.0, 1.0 - a), np.maximum(0.0, 1.0 - a))
    return a, b


def _noise_affine(images: np.ndarray, streams: Stream, draw) -> np.ndarray:
    """Additive N(0, variance) pixel noise followed by the pixel affine."""
    variance = draw(0.0, NOISE_VARIANCE_MAX)
    a, b = pixel_affine(draw)
    noise = streams.normal(images[0].size, std=np.sqrt(variance).reshape(-1, 1))
    return np.clip((images + noise.reshape(images.shape)) * a + b, 0.0, 1.0)


def distort_noise_affine(ds: Dataset, seed: int) -> Dataset:
    return _per_image(ds, seed, _noise_affine)


# ---------------------------------------------------------------------------
# blur


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps with radius ceil(3*sigma)."""
    if sigma <= 0:
        raise ContractError(f"sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def blur_images(images: np.ndarray, sigmas) -> np.ndarray:
    """Separable Gaussian blur of (N, C, H, W) images with reflected
    boundaries, image i with standard deviation ``sigmas[i]``. Images are
    blurred in groups of one kernel radius, each with its own taps."""
    kernels = [gaussian_kernel(s) for s in np.asarray(sigmas, np.float64).reshape(-1)]
    radii = np.array([(len(k) - 1) // 2 for k in kernels])
    h, w = images.shape[2:]
    out = np.empty(images.shape, dtype=np.float32)
    for radius in np.unique(radii):
        members = np.flatnonzero(radii == radius)
        taps = np.stack([kernels[m] for m in members])
        if radius >= h or radius >= w:
            raise ContractError(f"blur radius {radius} too large for a {h}x{w} image")
        work = images[members].astype(np.float64)
        for _ in range(2):  # along the rows, then along the transposed columns
            padded = np.pad(work, ((0, 0), (0, 0), (radius, radius), (0, 0)), "reflect")
            acc = np.zeros_like(work)
            for k, tap in enumerate(taps.T):
                acc += tap[:, None, None, None] * padded[:, :, k : k + work.shape[2]]
            work = acc.swapaxes(2, 3)
        out[members] = work
    return out


def _blur_affine(images: np.ndarray, streams: Stream, draw) -> np.ndarray:
    variance = draw(*BLUR_VARIANCE)
    a, b = pixel_affine(draw)
    return np.clip(blur_images(images, np.sqrt(variance)) * a + b, 0.0, 1.0)


def distort_blur_affine(ds: Dataset, seed: int) -> Dataset:
    return _per_image(ds, seed, _blur_affine)


# Order matters: it fixes the fold layout of the supervised detector's
# training set (fold 0 is the undistorted calibration data).
DISTORTION_FAMILIES: dict[str, object] = {
    "geometric": distort_geometric,
    "mixup": distort_mixup,
    "noise": distort_noise_affine,
    "blur": distort_blur_affine,
}
