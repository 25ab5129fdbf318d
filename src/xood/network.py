"""Classifier container: layer stack, tapped forward pass, the batched
forward-and-reduce loop every detector uses, trainer, file IO.

The tapped forward pass records the tensor fed *into* every Relu layer.
Those pre-activation tensors are the signal the detectors reduce to
per-image extreme values, so taps must be exactly the Relu inputs and
recording them must not change the computation.

Inference runs in blocks of ``DEFAULT_BATCH`` = 64 images. On 28x28
inputs a block's largest tensors are the first conv's output (1.6 MB, the
first tap) and the second conv's im2col buffer (3.6 MB), against 6.4 and
14.4 MB at 256 images and a 2 MiB L2 per core, so each layer and each tap
reduction reads data the previous step left in cache; smaller blocks would
pay the per-layer dispatch more often for no such gain. Outputs stay those
of larger batches: the dense layers' float32 GEMM sums come out the same
for any block of 24 or more rows, so only a trailing block of 16 or fewer
images differs from a full block's, by about 1e-6. Within a block,
a Relu that feeds a max-pool runs after that pool, on a quarter of the
values, with bit-identical results (see ``forward_with_taps``). Training
runs in the same order and walks it back, bit for bit the gradients of
the stack's own order (see ``_batch_loss_and_grad``). A network derives
that run order and counts its Relus once, when it is built. A batch of at
most 64 images is one block, whose tensors are returned as the outputs
without a copy, so a one-image request pays only for its layers. Layers
dispatch through one table keyed by layer kind.

The trainer is plain seeded SGD with cross-entropy, no momentum. The
classifier is a fixture for the detection pipeline, not a contribution in
itself, so the trainer stays minimal but fully deterministic: the same
seed produces bit-identical weights.

Network file format (magic "XNET", version 1):

    bytes 0..3  magic b"XNET"
    byte  4     version 0x01
    uint32 LE   manifest byte length
    ...         UTF-8 manifest, one ``key=value`` per line, describing
                input shape, class count, and each layer's kind and
                hyperparameters
    uint32 LE   blob count
    per blob    uint32 LE name length, UTF-8 name ("layer3.weight"),
                then the XTEN encoding of the tensor

Save/load round trips are bit-exact for the float32 parameters.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor_ops as ops
from .datasets import Dataset
from .errors import (
    ContractError,
    DimensionError,
    FormatError,
    TrainingDivergedError,
)
from .features import FeatureKind, feature_width, reduce_tap
from .keyvalue import KeyValues, decode_utf8
from .rng import Stream, derive_seed
from .xten import decode_tensor, encode_tensor

logger = logging.getLogger(__name__)

NETWORK_MAGIC = b"XNET"
NETWORK_VERSION = 1
DEFAULT_BATCH = 64


class LayerKind(str, Enum):
    CONV2D = "conv2d"
    RELU = "relu"
    MAXPOOL2D = "maxpool2d"
    FLATTEN = "flatten"
    DENSE = "dense"
    SOFTMAX = "softmax"


# layers that carry a weight and a bias
_WEIGHTED = (LayerKind.CONV2D, LayerKind.DENSE)
# hyperparameters each layer kind writes to and reads from the manifest
_HYPERPARAMETERS = {
    LayerKind.CONV2D: ("stride", "padding"),
    LayerKind.MAXPOOL2D: ("window", "stride"),
}
# Ceilings that keep every tensor of a layer within numpy's index range, so
# checking a declared stack on an empty batch can fail only in the kernels'
# own shape checks: values per image entering or leaving any layer, and each
# hyperparameter (padding widens a layer's input before its output exists).
_MAX_IMAGE_VALUES = 2**31
_MAX_HYPERPARAMETER = 2**16


@dataclass
class LayerSpec:
    """One layer of the stack; weight/bias present only for conv2d and dense."""

    kind: LayerKind
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0
    window: int = 2


@dataclass
class Network:
    """A validated feed-forward stack ending in softmax over num_classes.

    ``run_order``, the (layer, tap index or None) steps in the order the
    layers run (see ``_run_order``), and ``num_activation_layers``, the
    Relu count, are derived once, when the network is built."""

    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]
    num_classes: int
    run_order: tuple[tuple[LayerSpec, int | None], ...] = field(
        init=False, repr=False, compare=False
    )
    num_activation_layers: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = tuple(self.input_shape)
        if (
            len(shape) != 3
            or min(shape) < 1
            or math.prod(shape) > _MAX_IMAGE_VALUES
        ):
            raise DimensionError(
                f"input shape must be (C,H,W) with extents >= 1 and at most "
                f"{_MAX_IMAGE_VALUES} values, got {shape}"
            )
        # An empty batch runs each kernel's own shape checks and allocates
        # nothing, whatever extents the layers declare.
        x = np.zeros((0, *shape), np.float32)
        try:
            for i, layer in enumerate(self.layers):
                where = f"layer {i}"
                if not isinstance(layer.kind, LayerKind):
                    raise ContractError(f"{where}: unknown layer kind {layer.kind!r}")
                if layer.kind in _WEIGHTED and (
                    layer.weight is None or layer.bias is None
                ):
                    raise ContractError(
                        f"{where}: {layer.kind.value} is missing parameters"
                    )
                for name in _HYPERPARAMETERS.get(layer.kind, ()):
                    value = getattr(layer, name)
                    if value > _MAX_HYPERPARAMETER:
                        raise DimensionError(
                            f"{name} {value} exceeds {_MAX_HYPERPARAMETER}"
                        )
                x = _apply_layer(layer, x)
                if math.prod(x.shape[1:]) > _MAX_IMAGE_VALUES:
                    raise DimensionError(
                        f"output {x.shape[1:]} exceeds {_MAX_IMAGE_VALUES} "
                        f"values per image"
                    )
        except DimensionError as exc:
            raise DimensionError(f"{where}: {exc}") from None
        if x.shape[1:] != (self.num_classes,):
            raise DimensionError(
                f"stack produces shape {x.shape[1:]}, expected ({self.num_classes},)"
            )
        if not self.layers or self.layers[-1].kind is not LayerKind.SOFTMAX:
            raise ContractError("network must end in softmax")
        self.run_order = _run_order(self.layers)
        self.num_activation_layers = sum(tap is not None for _, tap in self.run_order)


def _run_order(layers: list[LayerSpec]) -> tuple[tuple[LayerSpec, int | None], ...]:
    """The stack as (layer, tap) steps in the order both the forward pass
    and training run them: each Relu behind the max-pools it feeds.

    The j-th Relu's tap, its input in stack order, is the input of the
    step that carries ``tap == j``: the Relu itself, or the first max-pool
    it was moved behind. relu(maxpool(x)) is maxpool(relu(x)) bit for bit,
    since a window holding NaN pools to its first NaN either way and the
    Relu keeps its bits, and the Relu maps -0.0, +0.0 and every negative to
    +0.0, so zero ties cannot pick different cells.
    """
    order: list[tuple[LayerSpec, int | None]] = []
    relus = 0
    for layer in layers:
        if (
            layer.kind is LayerKind.MAXPOOL2D
            and order
            and order[-1][0].kind is LayerKind.RELU
        ):
            relu, tap = order.pop()
            order += [(layer, tap), (relu, None)]
        elif layer.kind is LayerKind.RELU:
            order.append((layer, relus))
            relus += 1
        else:
            order.append((layer, None))
    return tuple(order)


# Each layer kind's forward kernel. Kernels are looked up in ``tensor_ops``
# at call time, so a wrapper installed there sees every call.
_FORWARD = {
    LayerKind.CONV2D: lambda layer, x: ops.conv2d(
        x, layer.weight, layer.bias, layer.stride, layer.padding
    ),
    LayerKind.RELU: lambda layer, x: ops.relu(x),
    LayerKind.MAXPOOL2D: lambda layer, x: ops.maxpool2d(x, layer.window, layer.stride),
    LayerKind.FLATTEN: lambda layer, x: ops.flatten(x),
    LayerKind.DENSE: lambda layer, x: ops.dense(x, layer.weight, layer.bias),
    LayerKind.SOFTMAX: lambda layer, x: ops.softmax(x),
}


def _apply_layer(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    return _FORWARD[layer.kind](layer, x)


@dataclass
class ForwardResult:
    """Predictions, probabilities, and the per-Relu tap tensors."""

    predictions: np.ndarray  # (N,) int64, argmax ties -> lowest class id
    probabilities: np.ndarray  # (N, K) float32
    taps: list  # r (N, ...) Relu inputs, or empty; see forward_with_taps


def forward_with_taps(
    net: Network,
    batch: np.ndarray,
    tap_map: Callable[[int, slice, np.ndarray], None] | None = None,
) -> ForwardResult:
    """Run the network, recording the input of every Relu layer.

    The batch runs through the stack in blocks of ``DEFAULT_BATCH`` rows,
    in ``net.run_order`` (each Relu that feeds a max-pool after that pool,
    its tap taken on the pool's input), so every layer reads its input
    from cache (see the module docstring for why 64). The shape is
    checked once. A batch of at most 64 rows is one block, and
    that block's tensors are the outputs: its softmax output becomes the
    probabilities and its taps the raw taps, without a copy. A larger
    batch writes each block's probabilities and raw taps into arrays
    allocated once. An empty batch still runs one empty block, which
    checks the layer shapes, and gives empty outputs.

    Without ``tap_map`` each taps entry is the raw (N, ...) Relu input.
    With it, the j-th tap of the block holding ``rows`` goes to
    ``tap_map(j, rows, tap)`` while it is cache-resident, and taps comes
    back empty.

    An image's outputs do not depend on the other images in its block,
    except the dense layers' sums: a trailing block of 16 or fewer rows
    can differ from a full block's by about 1e-6.
    """
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim != 4 or batch.shape[1:] != net.input_shape:
        raise DimensionError(
            f"batch shape {batch.shape} does not match input shape "
            f"(N,{','.join(map(str, net.input_shape))})"
        )
    n = batch.shape[0]
    one_block = n <= DEFAULT_BATCH
    taps: list = []
    if not one_block:
        probabilities = np.empty((n, net.num_classes), np.float32)
    for start in range(0, max(n, 1), DEFAULT_BATCH):
        rows = slice(start, start + DEFAULT_BATCH)
        x = batch[rows]
        for layer, tap in net.run_order:
            if tap is not None:
                if tap_map is not None:
                    tap_map(tap, rows, x)
                elif one_block:
                    taps.append(x)
                else:
                    if start == 0:
                        taps.append(np.empty((n, *x.shape[1:]), np.float32))
                    taps[tap][rows] = x
            x = _FORWARD[layer.kind](layer, x)
        if one_block:
            probabilities = x
        else:
            probabilities[rows] = x
    return ForwardResult(probabilities.argmax(axis=1), probabilities, taps)


@dataclass
class NetworkOutputs:
    predictions: np.ndarray  # (N,) int64
    probabilities: np.ndarray  # (N, K) float32
    features: np.ndarray  # (N, width) float32, untransformed


def run_network(
    net: Network,
    images: np.ndarray,
    kind: FeatureKind = FeatureKind.MINMAX,
) -> NetworkOutputs:
    """Forward a whole image set, reducing taps as they appear.

    One ``forward_with_taps`` call runs the set in blocks of
    ``DEFAULT_BATCH`` = 64 images, each Relu that feeds a max-pool after
    that pool; ``reduce_tap`` reduces each block's taps while they are
    cache-resident, straight into that block's rows of a feature matrix
    allocated once.
    The columns match extract_features on retained taps bit for bit, an
    empty image set gives empty outputs, and as in ``forward_with_taps``
    only a trailing block of 16 or fewer images can move, by about 1e-6.
    """
    per_tap = feature_width(kind, 1)
    features = np.empty(
        (images.shape[0], feature_width(kind, net.num_activation_layers)),
        np.float32,
    )

    def reduce(index: int, rows: slice, tap: np.ndarray) -> None:
        reduce_tap(tap, kind, features[rows, index * per_tap : (index + 1) * per_tap])

    result = forward_with_taps(net, images, tap_map=reduce)
    return NetworkOutputs(result.predictions, result.probabilities, features)


# ---------------------------------------------------------------------------
# reference CNN and trainer


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    learning_rate: float = 0.1
    batch_size: int = 64
    seed: int = 0


def build_reference_cnn(
    input_shape: tuple[int, int, int], num_classes: int, seed: int
) -> Network:
    """conv(8,3x3)-relu-pool(2)-conv(16,3x3)-relu-pool(2)-flatten-
    dense(64)-relu-dense(K)-softmax.

    Convolutions use stride 1 and padding 1 so spatial extent is preserved;
    H and W must therefore be divisible by 4. Weights are drawn
    uniform(-s, s) with s = sqrt(1/fan_in) from the init stream in layer
    order; biases start at zero.
    """
    c, h, w = input_shape
    if h % 4 or w % 4:
        raise ContractError(
            f"reference CNN needs H,W divisible by 4, got {h}x{w}"
        )
    if num_classes < 2:
        raise ContractError(f"need at least 2 classes, got {num_classes}")
    stream = Stream(derive_seed(seed, "weight-init"))

    def conv_spec(c_in: int, c_out: int) -> LayerSpec:
        fan_in = c_in * 9
        s = math.sqrt(1.0 / fan_in)
        weight = stream.uniform(c_out * fan_in, -s, s).astype(np.float32)
        return LayerSpec(
            LayerKind.CONV2D,
            weight=weight.reshape(c_out, c_in, 3, 3),
            bias=np.zeros(c_out, np.float32),
            stride=1,
            padding=1,
        )

    def dense_spec(d_in: int, d_out: int) -> LayerSpec:
        s = math.sqrt(1.0 / d_in)
        weight = stream.uniform(d_in * d_out, -s, s).astype(np.float32)
        return LayerSpec(
            LayerKind.DENSE,
            weight=weight.reshape(d_in, d_out),
            bias=np.zeros(d_out, np.float32),
        )

    flat = 16 * (h // 4) * (w // 4)
    layers = [
        conv_spec(c, 8),
        LayerSpec(LayerKind.RELU),
        LayerSpec(LayerKind.MAXPOOL2D, window=2, stride=2),
        conv_spec(8, 16),
        LayerSpec(LayerKind.RELU),
        LayerSpec(LayerKind.MAXPOOL2D, window=2, stride=2),
        LayerSpec(LayerKind.FLATTEN),
        dense_spec(flat, 64),
        LayerSpec(LayerKind.RELU),
        dense_spec(64, num_classes),
        LayerSpec(LayerKind.SOFTMAX),
    ]
    return Network(layers, (c, h, w), num_classes)


def _batch_loss_and_grad(
    net: Network, xb: np.ndarray, yb: np.ndarray
) -> tuple[float, list]:
    """Forward through the logits, cross-entropy, and per-layer gradients.

    The layers run in ``net.run_order``, as in inference, and the backward
    pass walks it in reverse: ``relu_backward`` masks by the pooled
    pre-activation, a quarter of the values, and ``maxpool2d_backward``
    routes from the conv output to the same first-maximum cell the pooled
    Relu output would pick. Where a window's maximum is <= 0, NaN included,
    both orders write +0.0, so the gradients are bit for bit those of the
    stack's own order. The backward pass reuses each conv layer's forward
    im2col buffer and each pool layer's output, and computes no gradient
    for the images.
    """
    steps = [layer for layer, _ in net.run_order[:-1]]  # stop before the softmax
    acts = [xb]  # acts[s] is step s's input, acts[s + 1] its output
    columns = {}
    for s, layer in enumerate(steps):
        x = acts[s]
        if layer.kind is LayerKind.CONV2D:
            kh, kw = layer.weight.shape[2:]
            columns[s] = ops.conv2d_columns(
                x, kh, kw, layer.stride, layer.padding
            )
            x = ops.conv2d(
                x, layer.weight, layer.bias, layer.stride, layer.padding,
                cols=columns[s],
            )
        else:
            x = _apply_layer(layer, x)
        acts.append(x)
    logits = acts.pop().astype(np.float64)
    n = logits.shape[0]
    # mean cross-entropy via logsumexp; never produces NaN on finite logits
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), yb]))
    probs = np.exp(logits - lse[:, None])
    grad = probs
    grad[np.arange(n), yb] -= 1.0
    grad = (grad / n).astype(np.float32)

    updates = []
    for s in reversed(range(len(steps))):
        layer, x_in = steps[s], acts[s]
        kind = layer.kind
        if kind is LayerKind.DENSE:
            grad, gw, gb = ops.dense_backward(x_in, layer.weight, grad)
            updates.append((layer, gw, gb))
        elif kind is LayerKind.RELU:
            grad = ops.relu_backward(x_in, grad)
        elif kind is LayerKind.FLATTEN:
            grad = grad.reshape(x_in.shape)
        elif kind is LayerKind.MAXPOOL2D:
            grad = ops.maxpool2d_backward(
                x_in, layer.window, grad, pooled=acts[s + 1]
            )
        elif kind is LayerKind.CONV2D:
            grad, gw, gb = ops.conv2d_backward(
                x_in, layer.weight, grad, layer.padding,
                cols=columns[s], input_grad=s > 0,
            )
            updates.append((layer, gw, gb))
        else:
            raise ContractError(f"no backward pass for layer kind {kind}")
    return loss, updates


def train_reference_cnn(
    images: np.ndarray, labels: np.ndarray, config: TrainConfig
) -> Network:
    """Train the reference CNN with plain SGD and cross-entropy.

    ``epochs == 0`` returns the seeded initialization unchanged. A
    non-finite epoch loss raises TrainingDivergedError naming the epoch.
    """
    ds = Dataset(images, labels)
    images, labels = ds.images, ds.labels
    if labels.size == 0:
        raise ContractError("training set is empty")
    num_classes = int(labels.max()) + 1
    if num_classes < 2:
        raise ContractError("training data must contain at least 2 classes")

    net = build_reference_cnn(images.shape[1:], num_classes, config.seed)
    if config.epochs == 0:
        return net
    if config.batch_size < 1 or config.learning_rate <= 0:
        raise ContractError("batch size must be >= 1 and learning rate > 0")

    shuffle = Stream(derive_seed(config.seed, "epoch-shuffle"))
    n = images.shape[0]
    lr = np.float32(config.learning_rate)
    for epoch in range(config.epochs):
        order = shuffle.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, updates = _batch_loss_and_grad(net, images[idx], labels[idx])
            epoch_loss += loss * len(idx)
            for layer, gw, gb in updates:
                layer.weight -= lr * gw
                layer.bias -= lr * gb
        epoch_loss /= n
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"loss became non-finite in epoch {epoch}", epoch=epoch
            )
        logger.info("epoch %d mean loss %.6f", epoch, epoch_loss)
    return net


def _drop_tap(index: int, rows: slice, tap: np.ndarray) -> None:
    """A ``tap_map`` that keeps nothing."""


def evaluate_accuracy(net: Network, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of images whose argmax prediction matches the label; the
    forward pass drops its taps unreduced."""
    predictions = forward_with_taps(net, images, tap_map=_drop_tap).predictions
    return int((predictions == labels).sum()) / images.shape[0]


# ---------------------------------------------------------------------------
# persistence


def _manifest_lines(net: Network) -> list[str]:
    lines = [
        "format=xnet",
        f"version={NETWORK_VERSION}",
        "input_shape=" + ",".join(map(str, net.input_shape)),
        f"num_classes={net.num_classes}",
        f"num_layers={len(net.layers)}",
    ]
    for i, layer in enumerate(net.layers):
        lines.append(f"layer{i}.kind={layer.kind.value}")
        for name in _HYPERPARAMETERS.get(layer.kind, ()):
            lines.append(f"layer{i}.{name}={getattr(layer, name)}")
    return lines


def _encode_network(net: Network) -> bytes:
    """The XNET bytes of ``net``."""
    manifest = "\n".join(_manifest_lines(net)).encode("utf-8")
    blobs: list[tuple[str, np.ndarray]] = []
    for i, layer in enumerate(net.layers):
        if layer.weight is not None:
            blobs.append((f"layer{i}.weight", layer.weight))
            blobs.append((f"layer{i}.bias", layer.bias))
    out = bytearray()
    out += NETWORK_MAGIC
    out.append(NETWORK_VERSION)
    out += struct.pack("<I", len(manifest))
    out += manifest
    out += struct.pack("<I", len(blobs))
    for name, tensor in blobs:
        raw = name.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
        out += encode_tensor(np.asarray(tensor, np.float32))
    return bytes(out)


def save_network(net: Network, path: str | Path) -> None:
    """Write the network as an XNET container file."""
    Path(path).write_bytes(_encode_network(net))


def load_network(path: str | Path) -> Network:
    """Read an XNET container. Truncated or inconsistent files raise
    FormatError; no partially constructed network is ever returned."""
    buf = Path(path).read_bytes()
    if len(buf) < 9:
        raise FormatError("truncated XNET header", offset=len(buf))
    if buf[:4] != NETWORK_MAGIC:
        raise FormatError("bad XNET magic", offset=0)
    if buf[4] != NETWORK_VERSION:
        raise FormatError(f"unsupported XNET version {buf[4]}", offset=4)
    (manifest_len,) = struct.unpack_from("<I", buf, 5)
    pos = 9
    if len(buf) < pos + manifest_len:
        raise FormatError("truncated XNET manifest", offset=len(buf))
    source = f"XNET manifest of {path}"
    manifest = decode_utf8(buf[pos : pos + manifest_len], source, pos)
    entries = KeyValues(manifest, source)
    pos += manifest_len
    if len(buf) < pos + 4:
        raise FormatError("truncated XNET blob count", offset=len(buf))
    (blob_count,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    tensors: dict[str, np.ndarray] = {}
    for _ in range(blob_count):
        if len(buf) < pos + 4:
            raise FormatError("truncated XNET blob name length", offset=len(buf))
        (name_len,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        if len(buf) < pos + name_len:
            raise FormatError("truncated XNET blob name", offset=len(buf))
        name = decode_utf8(
            buf[pos : pos + name_len], f"XNET blob name in {path}", pos
        )
        pos += name_len
        tensors[name], pos = decode_tensor(buf, pos)
    if pos != len(buf):
        raise FormatError("trailing bytes after XNET blobs", offset=pos)

    input_shape = entries.get(
        "input_shape", lambda text: tuple(int(v) for v in text.split(","))
    )
    num_classes = entries.get("num_classes", int)
    layers: list[LayerSpec] = []
    for i in range(entries.get("num_layers", int)):
        spec = LayerSpec(entries.get(f"layer{i}.kind", LayerKind))
        for name in _HYPERPARAMETERS.get(spec.kind, ()):
            setattr(spec, name, entries.get(f"layer{i}.{name}", int))
        if spec.kind in _WEIGHTED:
            spec.weight = tensors.get(f"layer{i}.weight")
            spec.bias = tensors.get(f"layer{i}.bias")
        layers.append(spec)
    try:
        return Network(layers, input_shape, num_classes)
    except (DimensionError, ContractError) as exc:
        raise FormatError(f"inconsistent network file: {exc}", offset=9) from None
