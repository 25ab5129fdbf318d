import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from xood.errors import DimensionError
from xood.rng import Stream
from xood.tensor_ops import (
    conv2d,
    conv2d_backward,
    dense,
    dense_backward,
    flatten,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
    softmax,
)


def rand(stream, *shape):
    return stream.normal(int(np.prod(shape))).astype(np.float32).reshape(shape)


def conv2d_loops(x, kernel, bias, stride=1, padding=0):
    """Six nested loops in float64; the slow, obviously-correct route."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x.astype(np.float64)
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, ho, wo))
    for i in range(n):
        for j in range(f):
            for y in range(ho):
                for z in range(wo):
                    acc = 0.0
                    for cc in range(c):
                        for dy in range(kh):
                            for dz in range(kw):
                                acc += (
                                    xp[i, cc, y * stride + dy, z * stride + dz]
                                    * kernel[j, cc, dy, dz]
                                )
                    out[i, j, y, z] = acc + bias[j]
    return out


def maxpool_loops(x, window, stride):
    n, c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((n, c, ho, wo), dtype=np.float32)
    for y in range(ho):
        for z in range(wo):
            patch = x[:, :, y * stride : y * stride + window,
                      z * stride : z * stride + window]
            out[:, :, y, z] = patch.max(axis=(2, 3))
    return out


def maxpool_windowed(x, window, stride):
    """The sliding-window max the offset-slice kernel replaced; bitwise oracle."""
    win = sliding_window_view(x, (window, window), axis=(2, 3))
    return win[:, :, ::stride, ::stride].max(axis=(4, 5))


def maxpool_backward_argmax(x, window, grad_out):
    """The argmax/put_along_axis routing the offset-slice kernel replaced."""
    n, c, h, w = x.shape
    ho, wo = h // window, w // window
    xw = (
        x.reshape(n, c, ho, window, wo, window)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, ho, wo, window * window)
    )
    idx = xw.argmax(axis=-1)
    grad_win = np.zeros_like(xw)
    np.put_along_axis(grad_win, idx[..., None], grad_out[..., None], axis=-1)
    return (
        grad_win.reshape(n, c, ho, wo, window, window)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h, w)
    )


def assert_bitwise(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    # compare bit patterns so that -0.0 against +0.0 counts as a difference
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def test_conv2d_matches_loop_oracle():
    s = Stream(100)
    for stride, padding, shape, kshape in [
        (1, 0, (2, 3, 6, 5), (4, 3, 3, 3)),
        (1, 1, (2, 1, 8, 8), (2, 1, 3, 3)),
        (2, 0, (1, 2, 6, 6), (3, 2, 2, 2)),
        (1, 2, (3, 2, 5, 7), (1, 2, 5, 5)),
    ]:
        x, k = rand(s, *shape), rand(s, *kshape) * 0.5
        b = rand(s, kshape[0])
        got = conv2d(x, k, b, stride, padding)
        want = conv2d_loops(x, k, b, stride, padding)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_conv2d_identity_kernel():
    x = rand(Stream(4), 2, 1, 4, 4)
    k = np.zeros((1, 1, 1, 1), np.float32)
    k[0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(conv2d(x, k, np.zeros(1, np.float32)), x)


def test_conv2d_shape_errors():
    x = np.zeros((1, 3, 6, 6), np.float32)
    k = np.zeros((2, 4, 3, 3), np.float32)
    with pytest.raises(DimensionError, match="channels"):
        conv2d(x, k, np.zeros(2, np.float32))
    k = np.zeros((2, 3, 3, 3), np.float32)
    with pytest.raises(DimensionError, match="bias"):
        conv2d(x, k, np.zeros(5, np.float32))
    with pytest.raises(DimensionError, match="does not tile"):
        conv2d(x, k, np.zeros(2, np.float32), stride=4)
    with pytest.raises(DimensionError, match="exceeds"):
        conv2d(np.zeros((1, 3, 2, 2), np.float32), k, np.zeros(2, np.float32))


def numeric_grad(f, x, eps=1e-3):
    """Central differences in float64, one coordinate at a time."""
    g = np.zeros(x.shape)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def test_conv2d_backward_matches_finite_differences():
    s = Stream(200)
    x, k = rand(s, 2, 2, 5, 5), rand(s, 3, 2, 3, 3) * 0.3
    b = rand(s, 3) * 0.1
    proj = rand(s, 2, 3, 5, 5)  # random linear functional of the output
    padding = 1

    def loss():
        return float((conv2d(x, k, b, 1, padding).astype(np.float64) * proj).sum())

    gx, gk, gb = conv2d_backward(x, k, proj, padding)
    np.testing.assert_allclose(gx, numeric_grad(loss, x), rtol=2e-2, atol=2e-3)
    np.testing.assert_allclose(gk, numeric_grad(loss, k), rtol=2e-2, atol=2e-3)
    np.testing.assert_allclose(gb, numeric_grad(loss, b), rtol=2e-2, atol=2e-3)


# the reference CNN's two conv layers: 1->8 channels at 28x28, 8->16 at 14x14
REFERENCE_CONV_SHAPES = [((2, 1, 28, 28), (8, 1, 3, 3)), ((2, 8, 14, 14), (16, 8, 3, 3))]


def test_conv2d_reference_layers_match_loop_oracle():
    s = Stream(110)
    for shape, kshape in REFERENCE_CONV_SHAPES:
        x, k = rand(s, *shape), rand(s, *kshape) * 0.3
        b = rand(s, kshape[0])
        np.testing.assert_allclose(
            conv2d(x, k, b, 1, 1), conv2d_loops(x, k, b, 1, 1),
            rtol=1e-5, atol=1e-5,
        )


def test_conv2d_backward_reference_layers_match_finite_differences():
    s = Stream(210)
    for shape, kshape in REFERENCE_CONV_SHAPES:
        x, k = rand(s, 1, *shape[1:]), rand(s, *kshape) * 0.3
        b = rand(s, kshape[0]) * 0.1
        proj = rand(s, 1, kshape[0], *shape[2:])

        def loss():
            return float((conv2d(x, k, b, 1, 1).astype(np.float64) * proj).sum())

        # conv2d is linear in each argument, so a large step has no
        # truncation error and keeps float32 rounding small against it
        gx, gk, gb = conv2d_backward(x, k, proj, 1)
        for got, arg in ((gx, x), (gk, k), (gb, b)):
            np.testing.assert_allclose(
                got, numeric_grad(loss, arg, eps=0.5), rtol=2e-2, atol=2e-3
            )


def test_dense_matches_matmul_and_backward():
    s = Stream(300)
    x, w, b = rand(s, 4, 6), rand(s, 6, 3), rand(s, 3)
    np.testing.assert_allclose(
        dense(x, w, b),
        x.astype(np.float64) @ w.astype(np.float64) + b,
        rtol=1e-6, atol=1e-6,
    )
    proj = rand(s, 4, 3)

    def loss():
        return float((dense(x, w, b).astype(np.float64) * proj).sum())

    gx, gw, gb = dense_backward(x, w, proj)
    np.testing.assert_allclose(gx, numeric_grad(loss, x), rtol=2e-2, atol=2e-3)
    np.testing.assert_allclose(gw, numeric_grad(loss, w), rtol=2e-2, atol=2e-3)
    np.testing.assert_allclose(gb, numeric_grad(loss, b), rtol=2e-2, atol=2e-3)
    with pytest.raises(DimensionError, match="width"):
        dense(rand(s, 4, 5), w, b)


def test_relu_and_backward():
    x = np.array([[-2.0, 0.0, 3.5]], np.float32)
    np.testing.assert_array_equal(relu(x), [[0.0, 0.0, 3.5]])
    g = np.ones_like(x)
    # gradient at exactly zero is defined as zero
    np.testing.assert_array_equal(relu_backward(x, g), [[0.0, 0.0, 1.0]])


def test_maxpool_matches_loop_oracle():
    s = Stream(400)
    for window, stride, shape in [(2, 2, (2, 3, 6, 8)), (3, 3, (1, 2, 9, 9)),
                                  (2, 1, (1, 1, 5, 5))]:
        x = rand(s, *shape)
        np.testing.assert_array_equal(
            maxpool2d(x, window, stride), maxpool_loops(x, window, stride)
        )
    with pytest.raises(DimensionError, match="exceeds"):
        maxpool2d(rand(s, 1, 1, 3, 3), window=4, stride=4)


def test_maxpool_is_bitwise_the_windowed_argmax_kernel():
    s = Stream(410)
    # values from {0, 1, 2} make most windows hold a tied maximum
    ties = s.integers(2 * 8 * 28 * 28, 3).astype(np.float32).reshape(2, 8, 28, 28)
    ties[0, 0, :2, :2] = -0.0
    grad = rand(s, 2, 8, 14, 14)
    grad[0, 0, 0, 0] = -0.0
    nans = ties.copy()
    nans[0, 0, 0, 1] = nans[0, 0, 1, 0] = nans[1, 3, 5, 5] = np.nan
    for x in (ties, nans, rand(s, 2, 8, 28, 28)):
        assert_bitwise(maxpool2d(x, 2, 2), maxpool_windowed(x, 2, 2))
        assert_bitwise(
            maxpool2d_backward(x, 2, grad), maxpool_backward_argmax(x, 2, grad)
        )
    # non-divisible extent: the last row and column fall outside every window
    odd = s.integers(2 * 3 * 7 * 7, 3).astype(np.float32).reshape(2, 3, 7, 7)
    assert_bitwise(maxpool2d(odd, 2, 2), maxpool_windowed(odd, 2, 2))
    # overlapping windows, forward only
    assert_bitwise(maxpool2d(odd, 3, 2), maxpool_windowed(odd, 3, 2))


def test_maxpool_backward_routes_to_first_max():
    x = np.zeros((1, 1, 2, 2), np.float32)  # all equal: tie
    g = np.array([[[[5.0]]]], np.float32)
    got = maxpool2d_backward(x, 2, g)
    want = np.zeros((1, 1, 2, 2), np.float32)
    want[0, 0, 0, 0] = 5.0  # first occurrence in row-major window order
    np.testing.assert_array_equal(got, want)


def test_maxpool_backward_finite_differences():
    s = Stream(500)
    x = rand(s, 2, 2, 4, 4)
    proj = rand(s, 2, 2, 2, 2)

    def loss():
        return float((maxpool2d(x, 2, 2).astype(np.float64) * proj).sum())

    got = maxpool2d_backward(x, 2, proj)
    np.testing.assert_allclose(got, numeric_grad(loss, x), rtol=2e-2, atol=2e-3)
    with pytest.raises(DimensionError, match="divisible"):
        maxpool2d_backward(rand(s, 1, 1, 5, 5), 2, proj)


def test_flatten():
    x = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
    out = flatten(x)
    assert out.shape == (2, 12)
    np.testing.assert_array_equal(out[0], np.arange(12))
    with pytest.raises(DimensionError):
        flatten(np.zeros(3, np.float32))


def test_softmax_rows_and_stability():
    s = Stream(600)
    x = rand(s, 5, 4) * 3
    p = softmax(x)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(5), rtol=0, atol=1e-6)
    assert (p > 0).all()
    # large logits must not overflow
    big = np.array([[1000.0, 0.0]], np.float32)
    p = softmax(big)
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-6)
    # invariant under constant shifts
    np.testing.assert_allclose(softmax(x), softmax(x + 7.0), atol=1e-6)


def test_ops_do_not_mutate_inputs():
    s = Stream(700)
    x = rand(s, 1, 2, 4, 4)
    k, b = rand(s, 2, 2, 3, 3), rand(s, 2)
    g_conv, g_pool = rand(s, 1, 2, 4, 4), rand(s, 1, 2, 2, 2)
    before = [a.copy() for a in (x, k, b, g_conv, g_pool)]
    conv2d(x, k, b, padding=1)
    conv2d_backward(x, k, g_conv, padding=1)
    maxpool2d(x, 2, 2)
    maxpool2d_backward(x, 2, g_pool)
    relu(x)
    for got, want in zip((x, k, b, g_conv, g_pool), before):
        np.testing.assert_array_equal(got, want)
