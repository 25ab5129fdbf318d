"""Float32 tensor primitives for the reference CNN.

The five forward ops (conv2d, dense, relu, maxpool2d, softmax) plus the
hand-written backward passes the trainer needs. Conventions:

* activations are float32 in NCHW layout; dense activations are (N, D)
* every function is pure: inputs are never mutated, outputs are fresh
* shape problems raise DimensionError naming the offending axes
* convolution is cross-correlation with zero padding

Backward passes cover exactly what the reference CNN uses: stride-1
convolutions and non-overlapping max pooling.

The spatial kernels share one strategy: for each window offset (dy, dx)
take the strided view ``x[:, :, dy::stride, dx::stride]`` cut to the
output extent, and work on whole views. Pooling folds the views with
``np.maximum``; its backward pass routes each window's gradient to the
first view, in row-major window order, that equals the pooled maximum.
Both are exact (max, compare and copy only). Convolution copies the
views into one (N, C*kh*kw, Ho*Wo) im2col buffer and does one batched
matmul per call, whose output is already NCHW; the kernel gradient is a
batched product with the same buffer. The GEMM reorders the float32
sums: against the earlier sliding-window tensordot kernel, with numpy's
OpenBLAS 0.3 on x86-64, the 1-channel reference layer came out
bit-identical and the 8-channel one within ~2e-7 relative. The float64
loop oracle in the tests bounds the error at rtol 1e-5.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import DimensionError


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


def _window_offsets(
    x: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int
) -> Iterator[np.ndarray]:
    """Yield, per window offset (dy, dx) in row-major order, the view of
    ``x[:, :, dy::stride, dx::stride]`` cut to (ho, wo).

    Element [i, j] of the view is the (dy, dx) cell of output (i, j)'s
    window, so a window reduction becomes ``kh * kw`` whole-array ops.
    """
    for dy in range(kh):
        for dx in range(kw):
            rows = slice(dy, dy + stride * ho, stride)
            cols = slice(dx, dx + stride * wo, stride)
            yield x[:, :, rows, cols]


def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int
) -> np.ndarray:
    """(N,C,H,W) -> (N, C*kh*kw, ho*wo), rows ordered like kernel.reshape(F, -1)."""
    n, c = x.shape[:2]
    cols = np.empty((n, c, kh * kw, ho, wo), np.float32)
    for k, view in enumerate(_window_offsets(x, kh, kw, stride, ho, wo)):
        cols[:, :, k] = view
    return cols.reshape(n, c * kh * kw, ho * wo)


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    if not padding:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Cross-correlate (N,C,H,W) with (F,C,kh,kw) kernels, zero padding."""
    x = _as_f32("input", x, 4)
    kernel = _as_f32("kernel", kernel, 4)
    bias = _as_f32("bias", bias, 1)
    n, c, h, w = x.shape
    f, kc, kh, kw = kernel.shape
    if kc != c:
        raise DimensionError(
            f"kernel expects {kc} input channels, input has {c} (axis 1)"
        )
    if bias.shape[0] != f:
        raise DimensionError(f"bias has {bias.shape[0]} entries for {f} filters")
    if stride < 1 or padding < 0:
        raise DimensionError(f"bad stride {stride} or padding {padding}")
    ho = _out_extent(h, kh, stride, padding, "height")
    wo = _out_extent(w, kw, stride, padding, "width")
    cols = _im2col(_pad(x, padding), kh, kw, stride, ho, wo)
    # (f, c*kh*kw) @ (n, c*kh*kw, ho*wo) -> (n, f, ho*wo), already NCHW
    out = np.matmul(kernel.reshape(f, -1), cols)
    out += bias[:, None]
    return out.reshape(n, f, ho, wo)


def conv2d_backward(
    x: np.ndarray,
    kernel: np.ndarray,
    grad_out: np.ndarray,
    padding: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a stride-1 conv2d w.r.t. input, kernel, and bias."""
    x = _as_f32("input", x, 4)
    kernel = _as_f32("kernel", kernel, 4)
    grad_out = _as_f32("grad_out", grad_out, 4)
    f, c, kh, kw = kernel.shape
    n, _, ho, wo = grad_out.shape
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    cols = _im2col(_pad(x, padding), kh, kw, 1, ho, wo)
    # (n, f, ho*wo) @ (n, ho*wo, c*kh*kw), summed over n -> (f, c, kh, kw)
    grad_kernel = np.matmul(
        grad_out.reshape(n, f, ho * wo), cols.transpose(0, 2, 1)
    ).sum(axis=0).reshape(f, c, kh, kw)
    # full correlation of grad_out with the flipped, channel-swapped kernel
    flipped = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    grad_xp = conv2d(grad_out, flipped, np.zeros(c, np.float32), padding=kh - 1)
    h, w = x.shape[2], x.shape[3]
    grad_x = grad_xp[:, :, padding : padding + h, padding : padding + w]
    return np.ascontiguousarray(grad_x), grad_kernel, grad_bias


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map (N,D) @ (D,K) + (K,)."""
    x = _as_f32("input", x, 2)
    weights = _as_f32("weights", weights, 2)
    bias = _as_f32("bias", bias, 1)
    if x.shape[1] != weights.shape[0]:
        raise DimensionError(
            f"input width {x.shape[1]} vs weight rows {weights.shape[0]} (axis 1)"
        )
    if bias.shape[0] != weights.shape[1]:
        raise DimensionError(
            f"bias has {bias.shape[0]} entries for {weights.shape[1]} outputs"
        )
    return x @ weights + bias


def dense_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of dense() w.r.t. input, weights, and bias."""
    grad_x = grad_out @ weights.T
    grad_w = x.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0), any rank."""
    return np.maximum(np.asarray(x, dtype=np.float32), np.float32(0))


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of relu at the recorded input (zero where x <= 0)."""
    return np.where(x > 0, grad_out, np.float32(0))


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
    views = _window_offsets(x, window, window, stride, ho, wo)
    out = next(views).copy()
    for view in views:
        np.maximum(out, view, out=out)
    return out


def maxpool2d_backward(
    x: np.ndarray, window: int, grad_out: np.ndarray
) -> np.ndarray:
    """Gradient of non-overlapping maxpool2d (stride == window, H,W divisible).

    Routes each window's gradient to the first occurrence of its maximum
    in row-major window order.
    """
    x = _as_f32("input", x, 4)
    n, c, h, w = x.shape
    if h % window or w % window:
        raise DimensionError(
            f"pool backward needs H,W divisible by {window}, got {h}x{w}"
        )
    ho, wo = h // window, w // window
    pooled = maxpool2d(x, window, window)
    grad_bits = np.asarray(grad_out, dtype=np.float32).view(np.uint32)
    # the windows tile x, so every cell of grad_x is written exactly once
    grad_x = np.empty_like(x)
    routed = np.zeros(pooled.shape, bool)
    # a window holding NaN pools to NaN and routes to its first NaN
    has_nan = bool(np.isnan(pooled).any())
    for view, grad_view in zip(
        _window_offsets(x, window, window, window, ho, wo),
        _window_offsets(grad_x, window, window, window, ho, wo),
    ):
        hit = view == pooled
        if has_nan:
            hit |= np.isnan(view)
        hit &= ~routed
        # multiplying the bit patterns by the 0/1 mask copies the gradient
        # exactly where hit and writes +0.0 elsewhere, whatever its sign
        # or finiteness; a float multiply would leave -0.0 or NaN there
        np.multiply(grad_bits, hit, out=grad_view.view(np.uint32))
        routed |= hit
    return grad_x


def flatten(x: np.ndarray) -> np.ndarray:
    """Collapse all non-batch axes: (N, ...) -> (N, D)."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim < 2:
        raise DimensionError(f"flatten needs a batch axis, got {x.ndim} axes")
    return x.reshape(x.shape[0], -1)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (N,K), stabilized by max subtraction."""
    x = _as_f32("input", x, 2)
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)
