import functools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from xood.errors import DimensionError
from xood.rng import Stream
from xood.tensor_ops import (
    _pad,
    conv2d,
    conv2d_backward,
    conv2d_batch_sums,
    conv2d_columns,
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


def maxpool_per_offset(x, window, stride):
    """The per-offset fold the separable kernel replaced: one np.maximum
    per window offset (dy, dx) in row-major order; bitwise oracle."""
    n, c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = None
    for dy in range(window):
        for dx in range(window):
            view = x[:, :, dy : dy + stride * ho : stride,
                     dx : dx + stride * wo : stride]
            out = view.copy() if out is None else np.maximum(out, view, out=out)
    return out


def im2col_per_offset(x, kh, kw, stride):
    """The per-offset im2col the one-copy window view replaced."""
    n, c, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    cols = np.empty((n, c, kh * kw, ho, wo), np.float32)
    for dy in range(kh):
        for dx in range(kw):
            cols[:, :, dy * kw + dx] = x[:, :, dy : dy + stride * ho : stride,
                                         dx : dx + stride * wo : stride]
    return cols.reshape(n, c * kh * kw, ho * wo)


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


def conv2d_backward_loops(x, kernel, grad_out, padding):
    """The three conv2d gradients in float64, one output cell at a time:
    each cell's gradient spread over its window of the padded input."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    ho, wo = grad_out.shape[2:]
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x
    k, g = kernel.astype(np.float64), grad_out.astype(np.float64)
    grad_xp, grad_k = np.zeros_like(xp), np.zeros(kernel.shape)
    for y in range(ho):
        for z in range(wo):
            cell = g[:, :, y, z]  # (n, f)
            grad_xp[:, :, y : y + kh, z : z + kw] += np.einsum("nf,fcij->ncij", cell, k)
            grad_k += np.einsum("nf,ncij->fcij", cell, xp[:, :, y : y + kh, z : z + kw])
    grad_x = grad_xp[:, :, padding : padding + h, padding : padding + w]
    return grad_x, grad_k, g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("kh", [1, 2, 3, 5])
@pytest.mark.parametrize("kw", [1, 2, 3, 5])
def test_conv2d_backward_matches_loop_oracle(kh, kw):
    """Square and non-square kernels on a non-square input, at every
    padding from 0 to one past the larger kernel extent, where grad_out
    is cropped instead of padded on one or both axes."""
    s = Stream(205)
    for n in (0, 1, 5):
        for padding in range(max(kh, kw) + 1):
            x, k = rand(s, n, 2, 6, 7), rand(s, 3, 2, kh, kw) * 0.5
            ho, wo = 6 + 2 * padding - kh + 1, 7 + 2 * padding - kw + 1
            grad = rand(s, n, 3, ho, wo)
            got = conv2d_backward(x, k, grad, padding)
            want = conv2d_backward_loops(x, k, grad, padding)
            for g, wnt in zip(got, want):
                assert g.dtype == np.float32 and g.shape == wnt.shape
                np.testing.assert_allclose(g, wnt, rtol=1e-5, atol=1e-5)


def test_backward_shape_errors():
    """Each mismatch is a DimensionError naming the axes, never a numpy
    error or a gradient of the wrong shape."""
    s = Stream(206)
    x, k = rand(s, 2, 3, 7, 7), rand(s, 4, 3, 3, 3)
    # a 5 x 5 grad_out for the 7 x 7 output at padding 1
    for grad, axes in [
        (rand(s, 2, 4, 5, 5), "axes 2, 3"),
        (rand(s, 2, 5, 7, 7), "axis 1"),
        (rand(s, 3, 4, 7, 7), "axis 0"),
    ]:
        with pytest.raises(DimensionError, match=f"grad_out has shape .*{axes}"):
            conv2d_backward(x, k, grad, 1)
    with pytest.raises(DimensionError, match=r"channels.*\(axis 1\)"):
        conv2d_backward(x, rand(s, 4, 2, 3, 3), rand(s, 2, 4, 7, 7), 1)
    with pytest.raises(DimensionError, match="exceeds"):
        conv2d_backward(x, rand(s, 4, 3, 9, 9), rand(s, 2, 4, 1, 1))
    w = rand(s, 6, 3)
    with pytest.raises(DimensionError, match=r"width.*\(axis 1\)"):
        dense_backward(rand(s, 4, 5), w, rand(s, 4, 3))
    for grad, axes in [(rand(s, 4, 2), "axis 1"), (rand(s, 5, 3), "axis 0")]:
        with pytest.raises(DimensionError, match=f"grad_out has shape .*{axes}"):
            dense_backward(rand(s, 4, 6), w, grad)


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


def test_conv2d_reuse_of_columns_is_bitwise():
    """Passing the forward im2col buffer, or skipping the input gradient,
    changes no bit of what the default calls return."""
    s = Stream(220)
    for shape, kshape in REFERENCE_CONV_SHAPES:
        x, k = rand(s, *shape), rand(s, *kshape) * 0.3
        b, grad = rand(s, kshape[0]), rand(s, shape[0], kshape[0], *shape[2:])
        cols = conv2d_columns(x, 3, 3, 1, 1)
        assert cols.shape == (shape[0], shape[1] * 9, shape[2] * shape[3])
        assert_bitwise(conv2d(x, k, b, 1, 1, cols=cols), conv2d(x, k, b, 1, 1))
        want = conv2d_backward(x, k, grad, 1)
        for got, expected in zip(conv2d_backward(x, k, grad, 1, cols=cols), want):
            assert_bitwise(got, expected)
        for reuse in ({"cols": cols}, {}):
            grad_x, grad_k, grad_b = conv2d_backward(
                x, k, grad, 1, input_grad=False, **reuse
            )
            assert grad_x is None
            assert_bitwise(grad_k, want[1])
            assert_bitwise(grad_b, want[2])
    # strided forward
    x, k, b = rand(s, 2, 2, 6, 6), rand(s, 3, 2, 2, 2), rand(s, 3)
    cols = conv2d_columns(x, 2, 2, stride=2)
    assert_bitwise(conv2d(x, k, b, 2, cols=cols), conv2d(x, k, b, 2))
    with pytest.raises(DimensionError, match="im2col buffer"):
        conv2d(x, k, b, 1, cols=cols)
    with pytest.raises(DimensionError, match="bad stride"):
        conv2d_columns(x, 2, 2, stride=0)


def test_conv2d_batch_sums_over_row_parts_are_bitwise():
    """The kernel and bias gradients are conv2d_batch_sums of the
    batch_sums=False terms, also when each part of the rows was
    differentiated in its own call. The bias terms are each image's output
    gradient summed over its positions, and summing them over the batch is
    bit for bit the one-call sum over the batch and the positions."""
    s = Stream(225)
    for shape, kshape in REFERENCE_CONV_SHAPES:
        shape = (5, *shape[1:])
        x, k = rand(s, *shape), rand(s, *kshape) * 0.3
        grad = rand(s, shape[0], kshape[0], *shape[2:])
        want = conv2d_backward(x, k, grad, 1)
        grad_x, products, bias_terms = conv2d_backward(x, k, grad, 1, batch_sums=False)
        assert_bitwise(grad_x, want[0])
        assert products.shape == (shape[0], *kshape)
        assert_bitwise(bias_terms, grad.sum(axis=(2, 3)))
        for cut in (1, 2, 4):
            parts = [
                conv2d_backward(x[rows], k, grad[rows], 1, batch_sums=False)
                for rows in (slice(0, cut), slice(cut, None))
            ]
            joined = [np.concatenate([part[i] for part in parts]) for i in range(3)]
            assert_bitwise(joined[0], want[0])
            for got, expected in zip(conv2d_batch_sums(*joined[1:]), want[1:]):
                assert_bitwise(got, expected)


@pytest.mark.parametrize("n", [1, 5, 12, 32, 64])
def test_bias_gradient_sum_order_is_pinned(n):
    """Summing the per-image bias terms over the batch gives the bits of
    the one-call ``grad_out.sum(axis=(0, 2, 3))`` on the reference layers'
    output gradients, at training-batch and row-part sizes."""
    s = Stream(226)
    for shape, kshape in REFERENCE_CONV_SHAPES:
        grad = rand(s, n, kshape[0], *shape[2:])
        grad *= np.float32(10.0) ** rand(s, n, 1, 1, 1)
        x, k = rand(s, n, *shape[1:]), rand(s, *kshape)
        assert_bitwise(conv2d_backward(x, k, grad, 1, input_grad=False)[2],
                       grad.sum(axis=(0, 2, 3)))


def test_pad_is_bitwise_np_pad():
    s = Stream(230)
    for shape in [(2, 3, 5, 4), (1, 1, 1, 1), (0, 2, 4, 4)]:
        x = rand(s, *shape)
        if x.size:
            x.flat[0] = -0.0
        assert _pad(x, 0, 0) is x
        for ph, pw in ((1, 1), (2, 2), (0, 1), (2, 0), (1, 3)):
            want = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
            assert_bitwise(_pad(x, ph, pw), want)


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


def test_relu_backward_is_bitwise_the_where_form():
    # the mask multiplies the gradient's bits: signed zeros, NaN and inf
    # gradients pass unchanged where x > 0, and a NaN input gives +0.0
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.5],
                        np.float32)
    inputs = np.array([1.0, -1.0, 0.0, -0.0, np.nan, np.inf, -np.inf], np.float32)
    s = Stream(41)
    shape = (4, 8, 14, 14)
    random = [s.normal(math.prod(shape)).reshape(shape).astype(np.float32)
              for _ in range(2)]
    for x, g in ((np.repeat(inputs, 8), np.tile(specials, 7)), random):
        got = relu_backward(x, g)
        want = np.where(x > 0, g, np.float32(0))
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
        want = maxpool_backward_argmax(x, 2, grad)
        assert_bitwise(maxpool2d_backward(x, 2, grad), want)
        pooled = maxpool2d(x, 2, 2)
        assert_bitwise(maxpool2d_backward(x, 2, grad, pooled=pooled), want)
    with pytest.raises(DimensionError, match="pooled"):
        maxpool2d_backward(ties, 2, grad, pooled=pooled[:1])
    # non-divisible extent: the last row and column fall outside every window
    odd = s.integers(2 * 3 * 7 * 7, 3).astype(np.float32).reshape(2, 3, 7, 7)
    assert_bitwise(maxpool2d(odd, 2, 2), maxpool_windowed(odd, 2, 2))
    # overlapping windows, forward only
    assert_bitwise(maxpool2d(odd, 3, 2), maxpool_windowed(odd, 3, 2))


def test_maxpool_backward_is_the_argmax_routing_on_hard_windows():
    s = Stream(415)
    # window 3 on values from {0, 1, 2}: most windows tie
    x3 = s.integers(2 * 3 * 9 * 9, 3).astype(np.float32).reshape(2, 3, 9, 9)
    # a non-contiguous input: every other column
    wide = s.integers(2 * 3 * 6 * 12, 3).astype(np.float32).reshape(2, 3, 6, 12)
    strided = wide[:, :, :, ::2]
    assert not strided.flags.c_contiguous
    # every window's maximum tied between zeros of either sign
    signs = s.integers(2 * 3 * 6 * 6, 2).astype(bool).reshape(2, 3, 6, 6)
    zeros = np.where(signs, np.float32(-0.0), np.float32(0.0))
    # a tie followed by a NaN routes to the NaN; two NaNs to the first
    nans = rand(s, 2, 3, 6, 6)
    nans[0, 0, :2, :2] = [[1.0, 1.0], [np.nan, 0.0]]
    nans[1, 2, 2:4, 4:] = [[np.nan, 5.0], [np.nan, 5.0]]
    for x, window in ((x3, 3), (strided, 2), (zeros, 2), (nans, 2)):
        n, c, h, w = x.shape
        grad = rand(s, n, c, h // window, w // window)
        grad.flat[::4] = -0.0
        grad.flat[1::7] = np.nan
        want = maxpool_backward_argmax(x, window, grad)
        assert_bitwise(maxpool2d_backward(x, window, grad), want)
        pooled = maxpool2d(x, window, window)
        assert_bitwise(maxpool2d_backward(x, window, grad, pooled=pooled), want)
        # a column-major gradient and pooled maximum route the same way
        assert_bitwise(
            maxpool2d_backward(x, window, np.asfortranarray(grad),
                               pooled=np.asfortranarray(pooled)),
            want,
        )
    np.testing.assert_array_equal(
        maxpool2d_backward(nans, 2, np.ones((2, 3, 3, 3), np.float32))[0, 0, :2, :2],
        [[0.0, 0.0], [1.0, 0.0]],
    )
    with pytest.raises(DimensionError, match="grad_out"):
        maxpool2d_backward(nans, 2, np.ones((2, 3, 3, 1), np.float32))


POOL_GEOMETRIES = [(1, 1), (2, 2), (2, 1), (3, 1), (3, 2)]


@pytest.mark.parametrize("window,stride", POOL_GEOMETRIES)
def test_maxpool_is_bitwise_the_per_offset_fold(window, stride):
    s = Stream(420)
    # values from {-1, 0, 1} with zeros of both signs make most windows hold
    # a tied maximum; NaNs of both signs and two payloads sit among them
    x = s.integers(3 * 4 * 11 * 10, 3).astype(np.float32).reshape(3, 4, 11, 10) - 1
    bits = x.view(np.uint32)
    marks = s.integers(x.size, 40).reshape(x.shape)
    x[marks < 8] = 0.0
    x[marks >= 32] = -0.0
    bits[marks == 8] = 0x7FC00000  # +NaN
    bits[marks == 9] = 0xFFC00000  # -NaN
    bits[marks == 10] = 0x7FC00123  # +NaN with a payload
    assert np.isnan(x).any() and (bits == 0x80000000).any()
    for data in (x, x[:, :, ::-1, 1:]):  # also a non-contiguous view
        assert_bitwise(maxpool2d(data, window, stride),
                       maxpool_per_offset(data, window, stride))


@pytest.mark.parametrize("window,stride", [(1, 1), (2, 2), (2, 1), (3, 2)])
def test_relu_commutes_with_maxpool_bit_for_bit(window, stride):
    """Inference runs a Relu after the max-pool it feeds; both orders must
    give the same bits, NaN payloads and zero signs included."""
    s = Stream(425)
    x = s.integers(3 * 4 * 11 * 10, 3).astype(np.float32).reshape(3, 4, 11, 10) - 1
    bits = x.view(np.uint32)
    marks = s.integers(x.size, 40).reshape(x.shape)
    x[marks < 8] = 0.0
    x[marks >= 32] = -0.0
    bits[marks == 8] = 0x7FC00000  # +NaN
    bits[marks == 9] = 0xFFC00000  # -NaN
    bits[marks == 10] = 0x7FC00123  # +NaN with a payload
    bits[marks == 11] = 0xFFC00456  # -NaN with a payload
    assert (bits == 0x80000000).any() and (bits == 0xFFC00456).any()
    for data in (x, x[:, :, ::-1, 1:]):  # also a non-contiguous view
        assert_bitwise(relu(maxpool2d(data, window, stride)),
                       maxpool2d(relu(data), window, stride))


def test_maxpool_nans_and_signed_zero_ties_resolve_in_window_order():
    """A window holding a NaN pools to its first NaN in row-major order. A
    tie between zeros of opposite sign goes where np.maximum folded over
    the cells in row-major order puts it; numpy returns the second of two
    equal arguments, so that is the last tied cell."""
    windows = [
        ((-0.0, 0.0, 0.0, 0.0), 0x00000000),
        ((0.0, -0.0, -0.0, -0.0), 0x80000000),
        ((-0.0, -0.0, 0.0, -1.0), 0x00000000),
        ((0.0, 0.0, -0.0, -1.0), 0x80000000),
        ((1.0, np.nan, -np.nan, 2.0), 0x7FC00000),
        ((1.0, 2.0, -np.nan, np.nan), 0xFFC00000),
    ]
    for cells, want in windows:
        x = np.array(cells, np.float32).reshape(1, 1, 2, 2)
        folded = functools.reduce(np.maximum, x.ravel())
        assert int(np.float32(folded).view(np.uint32)) == want
        assert int(maxpool2d(x, 2, 2).view(np.uint32)[0, 0, 0, 0]) == want


@pytest.mark.parametrize("kh,stride,side", [(3, 1, 9), (2, 2, 8), (3, 2, 9)])
def test_im2col_is_the_per_offset_copy_on_non_contiguous_input(kh, stride, side):
    """At stride 1 the buffer copies whole window rows, otherwise single
    cells; either way it is the per-offset copy, also on empty and
    one-image batches, which building a network runs."""
    s = Stream(430)
    base = rand(s, 2, 3, 9, 18)
    base.flat[::7] = -0.0
    k, b = rand(s, 4, 3, kh, kh), rand(s, 4)
    for n in (0, 1, 2):
        x = base[:n, :, :side, : 2 * side : 2]  # every other column: not contiguous
        assert n == 0 or not x.flags.c_contiguous
        dense_x = np.ascontiguousarray(x)
        for padding in (0, 1, 2):
            padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
            assert_bitwise(conv2d_columns(x, kh, kh, stride, padding),
                           im2col_per_offset(padded, kh, kh, stride))
            assert_bitwise(conv2d(x, k, b, stride, padding),
                           conv2d(dense_x, k, b, stride, padding))
    # a 1 x 1 window view of a contiguous input is contiguous too; the
    # buffer is still a fresh copy
    assert not np.shares_memory(conv2d_columns(dense_x, 1, 1), dense_x)


def test_im2col_takes_rows_too_long_for_one_segment_by_cells():
    """A window row of 2**29 or more float32 values is no numpy void type;
    such a layer still checks on an empty batch, as building a network
    does."""
    for width in (2**29 - 1, 2**29, 2**30):
        x = np.zeros((0, 1, 1, width), np.float32)
        assert conv2d_columns(x, 1, 1).shape == (0, 1, width)
        assert conv2d(x, np.ones((2, 1, 1, 1), np.float32),
                      np.zeros(2, np.float32)).shape == (0, 2, 1, width)


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
