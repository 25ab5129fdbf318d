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

Zoom and blur each act on rows and columns apart, so both are two float64
matrix products per image, row weights @ image @ column weights.T, built
for all of a chunk's images at once and rounded once to float32; a square
image reuses its row weights for the columns.
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
    return _separable(images, lambda size: _zoom_taps(size, zoom))


def _separable(images: np.ndarray, taps) -> np.ndarray:
    """(N, C, H, W) images filtered along each axis, ``taps(size)`` giving
    the (K, size, size) per-image weights along an axis of that size (K is
    N or 1): row weights @ image @ column weights.T, in float64, rounded
    once to float32. Square images reuse the row weights for the columns."""
    h, w = images.shape[2:]
    rows = taps(h)[:, None]
    cols = rows if w == h else taps(w)[:, None]
    return (rows @ images.astype(np.float64) @ cols.swapaxes(2, 3)).astype(np.float32)


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


def gaussian_kernels(sigmas) -> np.ndarray:
    """(n, 2R + 1) normalized 1-D Gaussian taps, one row per standard
    deviation: row i holds offsets -R..R, nonzero within its radius
    ceil(3*sigmas[i]), where R is the largest radius. Each row is summed
    left to right, so the zeros beyond its radius change none of its bits,
    and an image's taps do not depend on the others in its batch."""
    sigmas = np.asarray(sigmas, np.float64).reshape(-1, 1)
    if not (sigmas > 0).all():
        raise ContractError(f"sigma must be positive, got {sigmas[~(sigmas > 0)][0]}")
    radii = np.ceil(3.0 * sigmas)
    reach = int(radii.max(initial=0.0))
    offsets = np.arange(-reach, reach + 1, dtype=np.float64)
    kernels = np.exp(-0.5 * (offsets / sigmas) ** 2)
    kernels[np.abs(offsets) > radii] = 0.0
    return kernels / np.cumsum(kernels, axis=1)[:, -1:]


def _blur_taps(size: int, kernels: np.ndarray) -> np.ndarray:
    """(n, size, size) weights of the ``kernels`` along one axis with
    reflected boundaries: output p reads source p + offset, mirrored about
    the edge pixels (-1 reads 1, size reads size - 2), so two taps can add
    into one weight."""
    reach = kernels.shape[1] // 2
    source = np.arange(size)[:, None] + np.arange(-reach, reach + 1)
    source = np.where(source < 0, -source, source)
    source = np.where(source >= size, 2 * (size - 1) - source, source)
    return np.tensordot(kernels, source[:, :, None] == np.arange(size), axes=(1, 1))


def blur_images(images: np.ndarray, sigmas) -> np.ndarray:
    """Separable Gaussian blur of (N, C, H, W) images with reflected
    boundaries, image i with standard deviation ``sigmas[i]``: row weights
    @ image @ column weights.T, as ``warp_images``.

    Against a float64 loop over the taps, the kernel sums and the products
    run in another order and can round differently in the last bit; over
    10M float32 pixels of blob and uniform-noise images (16x16 and 28x28,
    radii 2 to 7, eight seeds) no output differed."""
    kernels = gaussian_kernels(sigmas)
    h, w = images.shape[2:]
    if kernels.shape[1] // 2 >= min(h, w):
        raise ContractError(
            f"blur radius {kernels.shape[1] // 2} too large for a {h}x{w} image")
    return _separable(images, lambda size: _blur_taps(size, kernels))


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
