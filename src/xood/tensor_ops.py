"""Float32 tensor primitives for the reference CNN.

The five forward ops (conv2d, dense, relu, maxpool2d, softmax) plus the
hand-written backward passes the trainer needs. Conventions:

* activations are float32 in NCHW layout; dense activations are (N, D)
* every function is pure: inputs are never mutated, outputs are fresh
* shape problems raise DimensionError naming the offending axes
* convolution is cross-correlation with zero padding

Backward passes cover exactly what the reference CNN uses: stride-1
convolutions and non-overlapping max pooling. They can reuse what the
forward pass already computed, so a training step does each piece of work
once: ``conv2d`` and ``conv2d_backward`` accept the im2col buffer built by
``conv2d_columns`` (``cols=``), ``conv2d_backward(..., input_grad=False)``
skips the input gradient (the layer that reads the images needs none), and
``maxpool2d_backward`` accepts the pooled forward output (``pooled=``).
Each reuse is an exact copy of what the kernel would otherwise compute, so
results are bit-identical with or without it.
``conv2d_backward(..., batch_sums=False)`` returns, in place of the kernel
and bias gradients, the terms they sum over the batch: each image's kernel
product (N, F, C, kh, kw) and its bias term, its output gradient summed
over its positions (N, F). ``conv2d_batch_sums`` sums both over axis 0, so
a batch's rows can be differentiated in parts and summed once, bit for bit
the gradients of one call; the bias sum is also bit for bit
``grad_out.sum(axis=(0, 2, 3))`` on the reference CNN's shapes with numpy
2.4, a fact of numpy's reduction order that the tests pin.

The spatial kernels work on whole strided views, never per window.
Pooling is a separable fold: ``np.maximum`` over the strided column views
``x[:, :, :, dx::stride]`` gives each row's window maximum, and a second
fold over that result's row views gives the window's, 2 * (window - 1)
ufunc calls instead of window**2 - 1. The result is bit for bit the fold
over the window's cells in row-major order: a NaN pools to the first NaN,
and since ``np.maximum`` returns the second of two equal arguments, a tie
between zeros of opposite sign goes to the last tied cell. The backward
pass works on x viewed as (N, C, Ho, window, W): one compare against the
pooled maxima repeated along W marks every cell that equals its window's
maximum (a NaN window marks its NaNs), and the gradient bits, repeated the
same way, are copied through that mask with one multiply. Only when some
window holds two or more marks does a pass per window offset (dy, dx) clear
all but the first in row-major window order. Both are exact (max, compare
and copy only).
Convolution makes its (N, C*kh*kw, Ho*Wo) im2col buffer with one copy of a
(N, C, kh, kw, Ho, Wo) window view of the padded input, then does one
batched matmul per call, whose output is already NCHW; the kernel gradient
is a batched product with the same buffer. At stride 1 the Wo cells of a
window row are adjacent in the input, so the view holds each row as one
Wo-value ``np.void`` segment and the copy moves whole rows (at 32 and 64
images about 15-20% faster than cell by cell for the reference CNN's
1-channel layer and 38% for its 8-channel one); a strided view copies
cell by cell. Both are pure copies, bit for bit the per-offset im2col. The
input gradient correlates ``grad_out`` with the flipped, channel-swapped
kernel at padding ``k - 1 - padding`` per axis, which gives exactly the
input's extent (``grad_out`` is cropped instead where padding > k - 1).
The GEMMs reorder the float32 sums: against the earlier sliding-window
tensordot kernel, with numpy's OpenBLAS 0.3 on x86-64, the 1-channel
reference layer came out bit-identical and the 8-channel one within
~2e-7 relative. The input gradient in this form differs from the one
computed at padding k - 1 and then cropped on about 1% of its values, by
at most 3.5e-7 of its largest magnitude on the reference layers. The
float64 loop oracles in the tests bound the error at rtol 1e-5.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

# Largest buffer, in values per image, that a kernel builds or a layer passes
# on; past it numpy may not even describe an im2col window view.
MAX_IMAGE_VALUES = 2**31


def _as_f32(name: str, x: np.ndarray, ndim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != ndim:
        raise DimensionError(f"{name} must have {ndim} axes, got {x.ndim}")
    return x


def _out_extent(extent: int, k: int, stride: int, padding: int, axis: str) -> int:
    span = extent + 2 * padding - k
    if span < 0:
        raise DimensionError(
            f"window {k} exceeds padded input {axis} {extent + 2 * padding}"
        )
    if span % stride != 0:
        raise DimensionError(
            f"{axis} {extent} with padding {padding}, window {k} does not tile "
            f"at stride {stride}"
        )
    return span // stride + 1


def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int
) -> np.ndarray:
    """(N,C,H,W) -> (N, C*kh*kw, ho*wo), rows ordered like kernel.reshape(F, -1).

    Element [n, c, dy, dx, i, j] of the window view is the (dy, dx) cell of
    output (i, j)'s window; copying it is the only pass over the data. At
    stride 1 the wo cells of a window row are adjacent in x, so the view
    holds each row as one wo-value segment and the copy moves whole rows.
    """
    x = np.ascontiguousarray(x)
    n, c = x.shape[:2]
    sn, sc, sh, sw = x.strides
    # numpy's void type holds under 2**31 bytes; longer rows go by cells
    if stride == 1 and x.itemsize * wo < 2**31:
        cells, segments = np.dtype(f"V{x.itemsize * wo}"), 1
    else:
        cells, segments = x.dtype, wo
    # a plain ndarray over x's buffer: as_strided's Python overhead costs
    # about as much as the copy on a one-image batch
    windows = np.ndarray(
        (n, c, kh, kw, ho, segments), cells, buffer=x,
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
    )
    return windows.copy().view(np.float32).reshape(n, c * kh * kw, ho * wo)


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the two spatial axes by ph rows and pw columns on each side;
    bitwise ``np.pad``, at a fraction of its per-call cost."""
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), x.dtype)
    out[:, :, ph : ph + h, pw : pw + w] = x
    return out


def _expect_shape(name: str, x: np.ndarray, want: tuple[int, ...]) -> None:
    """DimensionError naming the axes where ``x.shape`` differs from ``want``
    (same rank)."""
    if x.shape != want:
        axes = [str(i) for i, (a, b) in enumerate(zip(x.shape, want)) if a != b]
        raise DimensionError(
            f"{name} has shape {x.shape}, expected {want} "
            f"({'axis' if len(axes) == 1 else 'axes'} {', '.join(axes)})"
        )


def _conv_extents(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> tuple[int, int]:
    if stride < 1 or padding < 0:
        raise DimensionError(f"bad stride {stride} or padding {padding}")
    ho = _out_extent(x.shape[2], kh, stride, padding, "height")
    wo = _out_extent(x.shape[3], kw, stride, padding, "width")
    values = x.shape[1] * kh * kw * ho * wo
    if values > MAX_IMAGE_VALUES:
        raise DimensionError(f"im2col buffer of {values} values per image is too big")
    return ho, wo


def conv2d_columns(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """The (N, C*kh*kw, Ho*Wo) im2col buffer of (N,C,H,W) for a kh x kw
    conv2d; pass it as ``cols=`` to conv2d and conv2d_backward to build it
    once for both."""
    x = _as_f32("input", x, 4)
    ho, wo = _conv_extents(x, kh, kw, stride, padding)
    return _im2col(_pad(x, padding, padding), kh, kw, stride, ho, wo)


def _columns(
    cols: np.ndarray | None, x: np.ndarray, kh: int, kw: int,
    stride: int, padding: int, ho: int, wo: int,
) -> np.ndarray:
    """The im2col buffer of ``x``: ``cols`` after a shape check, or built
    when ``cols`` is None."""
    if cols is None:
        return _im2col(_pad(x, padding, padding), kh, kw, stride, ho, wo)
    cols = _as_f32("cols", cols, 3)
    _expect_shape("im2col buffer", cols, (x.shape[0], x.shape[1] * kh * kw, ho * wo))
    return cols


def _check_channels(kernel: np.ndarray, x: np.ndarray) -> None:
    if kernel.shape[1] != x.shape[1]:
        raise DimensionError(
            f"kernel expects {kernel.shape[1]} input channels, input has "
            f"{x.shape[1]} (axis 1)"
        )


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    *,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-correlate (N,C,H,W) with (F,C,kh,kw) kernels, zero padding.

    ``cols``, if given, is ``conv2d_columns(x, kh, kw, stride, padding)``.
    """
    x = _as_f32("input", x, 4)
    kernel = _as_f32("kernel", kernel, 4)
    bias = _as_f32("bias", bias, 1)
    _check_channels(kernel, x)
    n = x.shape[0]
    f, _, kh, kw = kernel.shape
    if bias.shape[0] != f:
        raise DimensionError(f"bias has {bias.shape[0]} entries for {f} filters")
    ho, wo = _conv_extents(x, kh, kw, stride, padding)
    cols = _columns(cols, x, kh, kw, stride, padding, ho, wo)
    # (f, c*kh*kw) @ (n, c*kh*kw, ho*wo) -> (n, f, ho*wo), already NCHW
    out = np.matmul(kernel.reshape(f, -1), cols)
    out += bias[:, None]
    return out.reshape(n, f, ho, wo)


def conv2d_backward(
    x: np.ndarray,
    kernel: np.ndarray,
    grad_out: np.ndarray,
    padding: int = 0,
    *,
    cols: np.ndarray | None = None,
    input_grad: bool = True,
    batch_sums: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of a stride-1 conv2d w.r.t. input, kernel, and bias.

    ``grad_out`` must have the conv output's shape. ``cols``, if given, is
    the forward pass's ``conv2d_columns(x, kh, kw, 1, padding)``. With
    ``input_grad=False`` the input gradient is not computed and comes back
    as None. With ``batch_sums=False`` the kernel and bias gradients come
    back as the terms they sum over the batch: the (N, F, C, kh, kw)
    per-image kernel products and the (N, F) per-image bias terms
    ``grad_out.sum(axis=(2, 3))``. ``conv2d_batch_sums`` of those terms is
    the two gradients bit for bit, also when their rows were computed in
    separate calls, since each image's terms depend on that image alone.
    """
    x = _as_f32("input", x, 4)
    kernel = _as_f32("kernel", kernel, 4)
    grad_out = _as_f32("grad_out", grad_out, 4)
    _check_channels(kernel, x)
    n, c = x.shape[:2]
    f, _, kh, kw = kernel.shape
    ho, wo = _conv_extents(x, kh, kw, 1, padding)
    _expect_shape("grad_out", grad_out, (n, f, ho, wo))
    cols = _columns(cols, x, kh, kw, 1, padding, ho, wo)
    # (n, f, ho*wo) @ (n, ho*wo, c*kh*kw) -> (n, f, c, kh, kw)
    products = np.matmul(
        grad_out.reshape(n, f, ho * wo), cols.transpose(0, 2, 1)
    ).reshape(n, f, c, kh, kw)
    grad_x = None
    if input_grad:
        # Correlating grad_out with the flipped, channel-swapped kernel at
        # padding k - 1 - padding per axis gives exactly the input's extent;
        # where padding > k - 1, grad_out is cropped by the excess instead.
        ph, pw = kh - 1 - padding, kw - 1 - padding
        crop_h, crop_w = max(-ph, 0), max(-pw, 0)
        grad = _pad(
            grad_out[:, :, crop_h : ho - crop_h, crop_w : wo - crop_w],
            max(ph, 0), max(pw, 0),
        )
        flipped = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        grad_x = conv2d(grad, flipped, np.zeros(c, np.float32))
    bias_terms = grad_out.sum(axis=(2, 3))
    if not batch_sums:
        return grad_x, products, bias_terms
    return (grad_x, *conv2d_batch_sums(products, bias_terms))


def conv2d_batch_sums(
    products: np.ndarray, bias_terms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel and bias gradients from ``conv2d_backward``'s
    ``batch_sums=False`` terms, each summed over the whole batch in one
    call."""
    return products.sum(axis=0), bias_terms.sum(axis=0)


def _dense_args(
    x: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    x = _as_f32("input", x, 2)
    weights = _as_f32("weights", weights, 2)
    if x.shape[1] != weights.shape[0]:
        raise DimensionError(
            f"input width {x.shape[1]} vs weight rows {weights.shape[0]} (axis 1)"
        )
    return x, weights


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map (N,D) @ (D,K) + (K,)."""
    x, weights = _dense_args(x, weights)
    bias = _as_f32("bias", bias, 1)
    if bias.shape[0] != weights.shape[1]:
        raise DimensionError(
            f"bias has {bias.shape[0]} entries for {weights.shape[1]} outputs"
        )
    return x @ weights + bias


def dense_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of dense() w.r.t. input, weights, and bias; ``grad_out``
    must have the output's shape (N, K)."""
    x, weights = _dense_args(x, weights)
    grad_out = _as_f32("grad_out", grad_out, 2)
    _expect_shape("grad_out", grad_out, (x.shape[0], weights.shape[1]))
    grad_x = grad_out @ weights.T
    grad_w = x.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0), any rank."""
    return np.maximum(np.asarray(x, dtype=np.float32), np.float32(0))


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of relu at the recorded input: ``grad_out`` where x > 0 and
    +0.0 elsewhere, a NaN input included, bit for bit
    ``np.where(x > 0, grad_out, 0)``. As in ``maxpool2d_backward``, the
    gradient's bits are multiplied by the 0/1 mask, which copies them
    exactly without a branch per element."""
    grad_out = np.asarray(grad_out, dtype=np.float32)
    grad_x = np.empty(np.broadcast_shapes(np.shape(x), grad_out.shape), np.float32)
    np.multiply(grad_out.view(np.uint32), np.asarray(x) > 0,
                out=grad_x.view(np.uint32))
    return grad_x


def maxpool2d(x: np.ndarray, window: int = 2, stride: int = 2) -> np.ndarray:
    """Max over window x window patches of (N,C,H,W), stepped by stride."""
    x = _as_f32("input", x, 4)
    if window < 1 or stride < 1:
        raise DimensionError(f"bad window {window} or stride {stride}")
    n, c, h, w = x.shape
    if h < window or w < window:
        raise DimensionError(
            f"pool window {window} exceeds input {h}x{w} (axes 2, 3)"
        )
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    # each row's window maximum, then the maximum over the window's rows
    rows = _fold_max([x[:, :, :, dx : dx + stride * wo : stride]
                      for dx in range(window)])
    return _fold_max([rows[:, :, dy : dy + stride * ho : stride]
                      for dy in range(window)])


def _fold_max(views: list[np.ndarray]) -> np.ndarray:
    """Fresh elementwise maximum of ``views``, folded left to right: a NaN
    resolves to the earliest view holding one, a tie to the latest."""
    if len(views) == 1:
        return views[0].copy()
    out = np.maximum(views[0], views[1])
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out


def maxpool2d_backward(
    x: np.ndarray,
    window: int,
    grad_out: np.ndarray,
    *,
    pooled: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of non-overlapping maxpool2d (stride == window, H,W divisible).

    Routes each window's gradient to the first occurrence of its maximum
    in row-major window order. ``pooled``, if given, is the forward
    pass's ``maxpool2d(x, window, window)``.
    """
    x = _as_f32("input", x, 4)
    n, c, h, w = x.shape
    if h % window or w % window:
        raise DimensionError(
            f"pool backward needs H,W divisible by {window}, got {h}x{w}"
        )
    ho, wo = h // window, w // window
    if pooled is None:
        pooled = maxpool2d(x, window, window)
    else:
        pooled = _as_f32("pooled", pooled, 4)
        _expect_shape("pooled", pooled, (n, c, ho, wo))
    grad_out = _as_f32("grad_out", grad_out, 4)
    _expect_shape("grad_out", grad_out, (n, c, ho, wo))
    # axis 3 is a window's row offset dy; axis 4 runs over every window
    # column of that row, each pooled value repeated across its window
    rows = x.reshape(n, c, ho, window, w)
    maxima = _repeat_columns(pooled.view(np.uint32), window).view(np.float32)
    hit = rows == maxima[:, :, :, None, :]
    # a window holding NaN pools to NaN, which equals nothing
    if np.isnan(pooled).any():
        hit |= np.isnan(rows)
    # every window holds at least one hit; more than one is a tie
    if np.count_nonzero(hit) != pooled.size:
        _keep_first_hits(hit.reshape(n, c, ho, window, wo, window))
    grad_x = np.empty((n, c, h, w), np.float32)
    grad_bits = grad_out.view(np.uint32)
    # multiplying the bit patterns by the 0/1 mask copies the gradient
    # exactly where hit and writes +0.0 elsewhere, whatever its sign or
    # finiteness; a float multiply would leave -0.0 or NaN there
    np.multiply(
        _repeat_columns(grad_bits, window)[:, :, :, None, :], hit,
        out=grad_x.view(np.uint32).reshape(n, c, ho, window, w),
    )
    return grad_x


def _repeat_columns(bits: np.ndarray, window: int) -> np.ndarray:
    """``bits`` (uint32) with each element repeated ``window`` times along
    the last axis."""
    if window == 2:
        # a uint64 holding the same 32 bits twice is two equal uint32s in
        # either byte order; one cast and one multiply beat np.repeat
        wide = bits.astype(np.uint64, order="C")
        return (wide * np.uint64(0x1_0000_0001)).view(np.uint32)
    return np.repeat(bits, window, axis=-1)


def _keep_first_hits(hit: np.ndarray) -> None:
    """Clear, in place, every hit of an (N, C, Ho, dy, Wo, dx) window mask
    but each window's first in row-major (dy, dx) order."""
    seen = np.zeros(hit.shape[:3] + hit.shape[4:5], bool)
    for dy in range(hit.shape[3]):
        for dx in range(hit.shape[5]):
            cell = hit[:, :, :, dy, :, dx]
            cell &= ~seen
            seen |= cell


def flatten(x: np.ndarray) -> np.ndarray:
    """Collapse all non-batch axes: (N, ...) -> (N, D)."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim < 2:
        raise DimensionError(f"flatten needs a batch axis, got {x.ndim} axes")
    return x.reshape(x.shape[0], math.prod(x.shape[1:]))


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (N,K), stabilized by max subtraction."""
    x = _as_f32("input", x, 2)
    e = x - x.max(axis=1, keepdims=True)
    e /= np.exp(e, out=e).sum(axis=1, keepdims=True)
    return e
