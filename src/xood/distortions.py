"""Label-preserving-ish image distortions used to manufacture "hard"
training rows for the supervised detector.

Four families, all deterministic per seed and all clipping pixels back to
[0, 1]. Geometric, noise, and blur draw their per-image parameters from a
stream forked as ``seed XOR image_index``, so results do not depend on
batch boundaries; mixup is inherently batch-level (it samples one
permutation) and uses the seed directly.

* geometric: horizontal flip (p 0.5), rotation U(-90, 90) degrees, zoom
  U(0.9, 1.1), width/height shifts U(-0.2, 0.2) of the extent, applied in
  the order flip, rotate, zoom, shift with bilinear resampling and zero
  fill, then a brightness multiplier U(0.2, 2). Labels unchanged.
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

GEOMETRIC_ROTATION_DEG = 90.0
GEOMETRIC_SHIFT_FRAC = 0.2
GEOMETRIC_ZOOM = (0.9, 1.1)
GEOMETRIC_BRIGHTNESS = (0.2, 2.0)
NOISE_VARIANCE_MAX = 2.0
BLUR_VARIANCE = (0.2, 5.0)
AFFINE_SCALE_RANGE = (1.0 / 8.0, 8.0)


# ---------------------------------------------------------------------------
# geometric


def warp_image(
    img: np.ndarray,
    angle_deg: float,
    zoom: float,
    shift_x: float,
    shift_y: float,
    flip: bool,
) -> np.ndarray:
    """Flip, rotate, zoom, then shift one (C, H, W) image about its center,
    sampling bilinearly with zero fill outside the source."""
    c, h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    # invert the forward chain: shift, then zoom, then rotation, then flip
    x0 = (xx - cx - shift_x) / zoom
    y0 = (yy - cy - shift_y) / zoom
    rad = math.radians(angle_deg)
    cos_t, sin_t = math.cos(rad), math.sin(rad)
    xs = cos_t * x0 + sin_t * y0
    ys = -sin_t * x0 + cos_t * y0
    if flip:
        xs = -xs
    return _bilinear(img, ys + cy, xs + cx)


def _bilinear(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    c, h, w = img.shape
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    dy = ys - y0
    dx = xs - x0
    out = np.zeros((c,) + ys.shape, dtype=np.float64)
    src = img.astype(np.float64)
    corners = (
        (y0, x0, (1.0 - dy) * (1.0 - dx)),
        (y0, x0 + 1, (1.0 - dy) * dx),
        (y0 + 1, x0, dy * (1.0 - dx)),
        (y0 + 1, x0 + 1, dy * dx),
    )
    for yi, xi, weight in corners:
        valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        yc = np.clip(yi, 0, h - 1)
        xc = np.clip(xi, 0, w - 1)
        out += (weight * valid) * src[:, yc, xc]
    return out.astype(np.float32)


def distort_geometric(ds: Dataset, seed: int) -> Dataset:
    base = Stream(seed)
    out = np.empty_like(ds.images)
    h, w = ds.images.shape[2], ds.images.shape[3]
    for i in range(len(ds)):
        stream = base.fork(i)
        flip = bool(stream.bernoulli(1, 0.5)[0])
        angle = stream.uniform(1, -GEOMETRIC_ROTATION_DEG, GEOMETRIC_ROTATION_DEG)[0]
        zoom = stream.uniform(1, *GEOMETRIC_ZOOM)[0]
        shift_x = stream.uniform(1, -GEOMETRIC_SHIFT_FRAC, GEOMETRIC_SHIFT_FRAC)[0] * w
        shift_y = stream.uniform(1, -GEOMETRIC_SHIFT_FRAC, GEOMETRIC_SHIFT_FRAC)[0] * h
        brightness = stream.uniform(1, *GEOMETRIC_BRIGHTNESS)[0]
        warped = warp_image(ds.images[i], angle, zoom, shift_x, shift_y, flip)
        out[i] = np.clip(warped.astype(np.float64) * brightness, 0.0, 1.0)
    return Dataset(out, ds.labels)


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


def affine_offset_bounds(a: float) -> tuple[float, float]:
    """Offset range for pixel scale ``a``: U(min(0, 1-a), max(0, 1-a))."""
    return min(0.0, 1.0 - a), max(0.0, 1.0 - a)


def sample_pixel_affine(stream: Stream) -> tuple[float, float]:
    """Draw (a, b): a log-uniform on [1/8, 8], b uniform on the offset range."""
    lo, hi = math.log(AFFINE_SCALE_RANGE[0]), math.log(AFFINE_SCALE_RANGE[1])
    a = math.exp(stream.uniform(1, lo, hi)[0])
    b = stream.uniform(1, *affine_offset_bounds(a))[0]
    return a, b


def apply_pixel_affine(img: np.ndarray, a: float, b: float) -> np.ndarray:
    return np.clip(img.astype(np.float64) * a + b, 0.0, 1.0).astype(np.float32)


def noise_affine_image(
    img: np.ndarray, variance: float, a: float, b: float, stream: Stream
) -> np.ndarray:
    """Additive N(0, variance) pixel noise followed by the pixel affine."""
    noisy = img.astype(np.float64) + stream.normal(
        img.size, std=math.sqrt(variance)
    ).reshape(img.shape)
    return np.clip(noisy * a + b, 0.0, 1.0).astype(np.float32)


def distort_noise_affine(ds: Dataset, seed: int) -> Dataset:
    base = Stream(seed)
    out = np.empty_like(ds.images)
    for i in range(len(ds)):
        stream = base.fork(i)
        variance = stream.uniform(1, 0.0, NOISE_VARIANCE_MAX)[0]
        a, b = sample_pixel_affine(stream)
        out[i] = noise_affine_image(ds.images[i], variance, a, b, stream)
    return Dataset(out, ds.labels)


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


def blur_image(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of (C, H, W) with reflected boundaries."""
    kernel = gaussian_kernel(sigma)
    radius = (kernel.shape[0] - 1) // 2
    c, h, w = img.shape
    if radius >= h or radius >= w:
        raise ContractError(
            f"blur radius {radius} too large for a {h}x{w} image"
        )
    work = img.astype(np.float64)
    padded = np.pad(work, ((0, 0), (radius, radius), (0, 0)), mode="reflect")
    rows = np.zeros_like(work)
    for k, tap in enumerate(kernel):
        rows += tap * padded[:, k : k + h, :]
    padded = np.pad(rows, ((0, 0), (0, 0), (radius, radius)), mode="reflect")
    cols = np.zeros_like(work)
    for k, tap in enumerate(kernel):
        cols += tap * padded[:, :, k : k + w]
    return cols.astype(np.float32)


def blur_affine_image(img: np.ndarray, variance: float, a: float, b: float) -> np.ndarray:
    return apply_pixel_affine(blur_image(img, math.sqrt(variance)), a, b)


def distort_blur_affine(ds: Dataset, seed: int) -> Dataset:
    base = Stream(seed)
    out = np.empty_like(ds.images)
    for i in range(len(ds)):
        stream = base.fork(i)
        variance = stream.uniform(1, *BLUR_VARIANCE)[0]
        a, b = sample_pixel_affine(stream)
        out[i] = blur_affine_image(ds.images[i], variance, a, b)
    return Dataset(out, ds.labels)


# Order matters: it fixes the fold layout of the supervised detector's
# training set (fold 0 is the undistorted calibration data).
DISTORTION_FAMILIES: dict[str, object] = {
    "geometric": distort_geometric,
    "mixup": distort_mixup,
    "noise": distort_noise_affine,
    "blur": distort_blur_affine,
}
