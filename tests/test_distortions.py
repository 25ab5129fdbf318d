import math

import numpy as np
import pytest

from xood.datasets import Dataset, gen_noise, make_blobs
from xood.distortions import (
    AFFINE_SCALE_RANGE,
    BLUR_VARIANCE,
    CHUNK,
    DISTORTION_FAMILIES,
    GEOMETRIC_BRIGHTNESS,
    GEOMETRIC_ZOOM,
    NOISE_VARIANCE_MAX,
    _exp,
    _noise_affine,
    blur_images,
    distort_blur_affine,
    distort_geometric,
    distort_mixup,
    distort_noise_affine,
    gaussian_kernels,
    pixel_affine,
    warp_images,
)
from xood.errors import ContractError
from xood.rng import Stream

from helpers import reference_blur_images

PER_IMAGE = (distort_geometric, distort_noise_affine, distort_blur_affine)


@pytest.fixture(scope="module")
def blobs():
    return make_blobs(24, 4, 16, seed=13)


@pytest.fixture(scope="module")
def many():
    """More images than one chunk, the second chunk only partly full."""
    return make_blobs(CHUNK + 44, 4, 16, seed=17)


def draws(*values):
    """A stand-in for the per-chunk ``draw`` that returns ``values`` in turn."""
    values = iter(values)
    return lambda low=0.0, high=1.0: next(values)


def pixel_affine_only(img, a, b):
    # zero-variance noise leaves the pixel affine x <- a*x + b alone
    return _noise_affine(img[None], Stream(0), draws(0.0, math.log(a), b))[0]


def test_all_families_deterministic_and_in_range(blobs):
    for name, family in DISTORTION_FAMILIES.items():
        a = family(blobs, seed=99)
        b = family(blobs, seed=99)
        np.testing.assert_array_equal(a.images, b.images, err_msg=name)
        assert a.images.dtype == np.float32
        assert a.images.shape == blobs.images.shape
        assert float(a.images.min()) >= 0.0 and float(a.images.max()) <= 1.0
        c = family(blobs, seed=100)
        assert not np.array_equal(a.images, c.images), name


def test_geometric_identity_parameters():
    img = make_blobs(2, 2, 12, seed=3).images[0]
    out = warp_images(img[None], zoom=1.0)[0]
    np.testing.assert_allclose(out, img, atol=1e-6)


def test_geometric_zoom_spreads_mass():
    img = np.zeros((1, 9, 9), np.float32)
    img[0, 4, 4] = 1.0
    grown = warp_images(img[None], 1.1)[0]
    assert grown[0, 4, 4] == pytest.approx(1.0, abs=1e-6)  # center fixed
    shrunk = warp_images(img[None], 0.9)[0]
    assert shrunk[0, 4, 4] == pytest.approx(1.0, abs=1e-6)


def test_geometric_zoom_is_pointwise_bilinear():
    # each output pixel samples the source at c + (p - c) / zoom, reading
    # its four neighbors with bilinear weights and zero off the image
    images = Stream(21).uniform(2 * 2 * 7 * 9).reshape(2, 2, 7, 9).astype(np.float32)
    zooms = np.array([0.9, 1.07]).reshape(2, 1, 1, 1)
    out = warp_images(images, zooms)
    for k, zoom in enumerate(zooms.ravel()):
        for y in range(7):
            for x in range(9):
                sy, sx = 3.0 + (y - 3.0) / zoom, 4.0 + (x - 4.0) / zoom
                y0, x0 = math.floor(sy), math.floor(sx)
                want = np.zeros(2)
                for yi, xi in ((y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1)):
                    if 0 <= yi < 7 and 0 <= xi < 9:
                        weight = (1 - abs(sy - yi)) * (1 - abs(sx - xi))
                        want += weight * images[k, :, yi, xi]
                np.testing.assert_allclose(out[k, :, y, x], want, atol=1e-6)


def test_geometric_fill_is_zero():
    # zoom 0.5 about (3.5, 3.5): outputs 2..5 sample source 0.5..6.5, and
    # outputs 0, 1, 6 and 7 sample outside the image
    img = np.ones((1, 8, 8), np.float32)
    out = warp_images(img[None], 0.5)[0, 0]
    border = np.ones((8, 8), bool)
    border[2:6, 2:6] = False
    assert float(out[border].max()) == 0.0
    assert float(out[~border].min()) == pytest.approx(1.0, abs=1e-6)


def centroid_angles(images):
    """Each image's intensity-weighted centroid, in degrees around the center."""
    h, w = images.shape[2:]
    yy, xx = np.mgrid[0:h, 0:w] - np.array([(h - 1) / 2.0, (w - 1) / 2.0])[:, None, None]
    mass = images[:, 0].astype(np.float64)
    total = mass.sum(axis=(1, 2))
    cy = (mass * yy).sum(axis=(1, 2)) / total
    cx = (mass * xx).sum(axis=(1, 2)) / total
    return np.degrees(np.arctan2(cy, cx))


def test_geometric_keeps_each_blob_at_its_class_angle():
    # a blob's class is its angle around the center, 30 degrees apart for 12
    # classes; a distortion that keeps labels must not carry it halfway there
    blobs = make_blobs(240, 12, 28, seed=3)
    moved = centroid_angles(distort_geometric(blobs, seed=5).images)
    turn = (moved - centroid_angles(blobs.images) + 180.0) % 360.0 - 180.0
    assert float(np.abs(turn).max()) < 15.0


def test_geometric_keeps_labels(blobs):
    out = distort_geometric(blobs, seed=5)
    np.testing.assert_array_equal(out.labels, blobs.labels)


def test_mixup_requires_labels(blobs):
    unlabeled = Dataset(blobs.images)
    with pytest.raises(ContractError, match="label"):
        distort_mixup(unlabeled, seed=1)


def test_mixup_is_convex_and_needs_no_clipping(blobs):
    out = distort_mixup(blobs, seed=31)
    assert float(out.images.min()) >= 0.0 and float(out.images.max()) <= 1.0
    lo = np.minimum.reduce([blobs.images[i] for i in range(len(blobs))])
    assert float(out.images.min()) >= float(lo.min())


def test_mixup_label_follows_dominant_weight():
    # one pair of images; weight decides which label survives
    images = np.stack([np.zeros((1, 4, 4)), np.ones((1, 4, 4))]).astype(np.float32)
    ds = Dataset(images, labels=[0, 1])
    for seed in range(40):
        out = distort_mixup(ds, seed=seed)
        stream = Stream(seed)
        partner = stream.permutation(2)
        weight = stream.uniform(2)
        for i in range(2):
            want = ds.labels[i] if weight[i] >= 0.5 else ds.labels[partner[i]]
            assert out.labels[i] == want
            mean = float(out.images[i].mean())
            expect = weight[i] * float(ds.images[i].mean()) + (
                1.0 - weight[i]
            ) * float(ds.images[partner[i]].mean())
            assert mean == pytest.approx(expect, abs=1e-6)


def test_affine_offset_bounds_hand_values():
    # the offset b is drawn from the range its scale a gives it
    for a, bounds in ((2.0, (-1.0, 0.0)), (0.5, (0.0, 0.5)), (1.0, (0.0, 0.0))):
        ranges = []

        def draw(low, high):
            ranges.append((low, high))
            return math.log(a) if len(ranges) == 1 else low

        assert pixel_affine(draw) == (a, bounds[0])
        assert ranges[1] == bounds


def test_pixel_affine_identity_and_clip():
    img = np.linspace(0, 1, 16, dtype=np.float32).reshape(1, 4, 4)
    np.testing.assert_array_equal(pixel_affine_only(img, 1.0, 0.0), img)
    out = pixel_affine_only(img, 8.0, 0.0)
    assert float(out.max()) == 1.0  # clipped
    out = pixel_affine_only(img, 1.0, -0.5)
    assert float(out.min()) == 0.0


def test_noise_zero_variance_identity():
    img = np.linspace(0, 1, 36, dtype=np.float32).reshape(1, 6, 6)
    out = _noise_affine(img[None], Stream(3), draws(0.0, 0.0, 0.0))[0]
    np.testing.assert_allclose(out, img, atol=1e-7)


def test_noise_variance_scales_spread(blobs):
    img = np.full((1, 32, 32), 0.5, np.float32)
    lo = _noise_affine(img[None], Stream(4), draws(0.01, 0.0, 0.0))
    hi = _noise_affine(img[None], Stream(4), draws(1.0, 0.0, 0.0))
    assert float(hi.std()) > 3.0 * float(lo.std())


def test_gaussian_kernel_properties():
    for sigma in (0.5, 1.0, 2.2):
        (k,) = gaussian_kernels([sigma])
        assert k.shape[0] == 2 * int(np.ceil(3 * sigma)) + 1
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(k, k[::-1], atol=0)  # symmetric
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ContractError, match="sigma must be positive"):
            gaussian_kernels([1.0, bad])


def test_gaussian_kernels_do_not_depend_on_the_batch():
    # a row is zero beyond its own radius and bit-equal to its kernel alone
    sigmas = np.sqrt(Stream(21).uniform(400, *BLUR_VARIANCE))
    kernels = gaussian_kernels(sigmas)
    reach = kernels.shape[1] // 2
    assert reach == 7
    for sigma, row in zip(sigmas, kernels):
        (alone,) = gaussian_kernels([sigma])
        radius = alone.shape[0] // 2
        assert row[reach - radius : reach + radius + 1].tobytes() == alone.tobytes()
        assert not row[: reach - radius].any() and not row[reach + radius + 1 :].any()


@pytest.mark.parametrize("side", [16, 28])
def test_blur_matches_the_tap_loop_bit_for_bit(side):
    # the matrix form sums in another order than a float64 loop over the
    # taps; rounded to float32, no pixel of blob or noise images differs
    for seed in (1, 4242):
        blobs = make_blobs(160, 12, side, seed=seed).images
        noise = gen_noise("uniform", 160, (1, side, side), seed).images
        images = np.concatenate([blobs, noise])
        sigmas = np.sqrt(Stream(seed).uniform(len(images), *BLUR_VARIANCE))
        sigmas[:2] = math.sqrt(BLUR_VARIANCE[1])  # radius 7
        for part in (images, images[:, :, :, 1:-1]):  # square, then not
            out = blur_images(part, sigmas)
            want = reference_blur_images(part, sigmas)
            assert out.tobytes() == want.tobytes(), (side, seed, part.shape)


def test_blur_matches_direct_2d_convolution():
    img = np.zeros((1, 15, 15), np.float32)
    img[0, 7, 7] = 1.0
    sigma = 1.2
    out = blur_images(img[None], [sigma])[0]
    # direct 2-D Gaussian evaluated on the grid; far from edges the
    # reflected padding contributes nothing
    (k,) = gaussian_kernels([sigma])
    want = np.outer(k, k)
    r = (k.shape[0] - 1) // 2
    np.testing.assert_allclose(
        out[0, 7 - r : 7 + r + 1, 7 - r : 7 + r + 1], want, atol=1e-4
    )
    assert out.sum() == pytest.approx(1.0, abs=1e-5)  # mass preserved


def test_blur_constant_image_invariant():
    img = np.full((2, 10, 10), 0.37, np.float32)
    out = blur_images(img[None], [1.7])[0]
    np.testing.assert_allclose(out, img, atol=1e-6)


def test_blur_reduces_high_frequency_energy(blobs):
    out = distort_blur_affine(blobs, seed=8)
    def tv(images):  # total variation as a roughness proxy
        return float(np.abs(np.diff(images, axis=3)).mean())
    # affine rescale can amplify values, so compare per-image normalized TV
    raw = blobs.images
    assert tv(blur_images(raw[:1], [1.5])) < tv(raw[:1])
    assert out.images.shape == raw.shape


def test_family_results_do_not_depend_on_batch_boundaries(many):
    # distorting a prefix must reproduce the same images when the per-image
    # streams are forked from the same seed and absolute index, also when
    # the prefix ends its last chunk early
    for family in PER_IMAGE:
        whole = family(many, seed=55)
        for stop in (5, CHUNK + 5):
            head = family(many.subset(np.arange(stop)), seed=55)
            np.testing.assert_array_equal(whole.images[:stop], head.images)


def scalar_pixel_affine(stream):
    a = math.exp(stream.uniform(1, *map(math.log, AFFINE_SCALE_RANGE))[0])
    return a, stream.uniform(1, min(0.0, 1.0 - a), max(0.0, 1.0 - a))[0]


def one_image(family, img, stream):
    """``family`` applied to one (C, H, W) image with scalar draws from
    ``stream``, in the order the family draws them."""
    if family is distort_geometric:
        zoom = stream.uniform(1, *GEOMETRIC_ZOOM)[0]
        brightness = stream.uniform(1, *GEOMETRIC_BRIGHTNESS)[0]
        warped = warp_images(img[None], zoom)[0]
        return np.clip(warped.astype(np.float64) * brightness, 0.0, 1.0)
    if family is distort_noise_affine:
        variance = stream.uniform(1, 0.0, NOISE_VARIANCE_MAX)[0]
        a, b = scalar_pixel_affine(stream)
        noise = stream.normal(img.size, std=math.sqrt(variance)).reshape(img.shape)
        return np.clip((img.astype(np.float64) + noise) * a + b, 0.0, 1.0)
    variance = stream.uniform(1, *BLUR_VARIANCE)[0]
    a, b = scalar_pixel_affine(stream)
    blurred = blur_images(img[None], [math.sqrt(variance)])[0]
    return np.clip(blurred.astype(np.float64) * a + b, 0.0, 1.0)


def test_pixel_affine_in_lockstep_equals_scalar_draws():
    # every image's (a, b) is bit-equal to its own scalar draw, not just close
    streams = Stream(9).fork(np.arange(CHUNK, dtype=np.uint64)[:, None])
    a, b = pixel_affine(lambda low, high: low + streams.uniform(1) * (high - low))
    for i in range(CHUNK):
        assert (a[i, 0], b[i, 0]) == scalar_pixel_affine(Stream(9).fork(i)), i


def test_lockstep_exp_is_libm_bit_for_bit():
    # pixel scales equal math's, as scalar draws gave them
    x = Stream(4).uniform(20000, *map(math.log, AFFINE_SCALE_RANGE))
    assert _exp(x).tolist() == [math.exp(v) for v in x.tolist()]


@pytest.mark.parametrize("family", PER_IMAGE, ids=lambda f: f.__name__)
def test_family_matches_one_image_at_a_time_at_chunk_edges(many, family):
    # image i of a chunked, lockstep run is bit-equal to the family's
    # formula on image i alone with scalar draws from fork(i)
    for seed in (5, 2**64 - 1):
        out = family(many, seed).images
        for i in (0, CHUNK - 1, CHUNK, len(many) - 1):
            want = one_image(family, many.images[i], Stream(seed).fork(i))
            assert out[i].tobytes() == want.astype(np.float32).tobytes(), (seed, i)


def test_families_map_no_images_to_no_images():
    empty = Dataset(np.zeros((0, 1, 16, 16), np.float32), np.zeros(0, np.int64))
    for name, family in DISTORTION_FAMILIES.items():
        out = family(empty, seed=3)
        assert out.images.shape == empty.images.shape, name
        assert out.labels.shape == (0,), name


def test_blur_rejects_overlarge_radius():
    img = np.zeros((1, 4, 4), np.float32)
    with pytest.raises(ContractError, match="radius"):
        blur_images(img[None], [3.0])
