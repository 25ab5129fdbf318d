"""Classifier container: layer stack, tapped forward pass, the batched
forward-and-reduce loop every detector uses, trainer, file IO.

The tapped forward pass records the tensor fed *into* every Relu layer.
Those pre-activation tensors are the signal the detectors reduce to
per-image extreme values, so taps must be exactly the Relu inputs and
recording them must not change the computation.

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
from dataclasses import dataclass
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
from .features import FeatureKind, assemble_columns, reduce_tap
from .keyvalue import KeyValues, decode_utf8
from .rng import Stream, derive_seed
from .xten import decode_tensor, encode_tensor

logger = logging.getLogger(__name__)

NETWORK_MAGIC = b"XNET"
NETWORK_VERSION = 1
DEFAULT_BATCH = 256


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
    """A validated feed-forward stack ending in softmax over num_classes."""

    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]
    num_classes: int

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

    @property
    def activation_indices(self) -> list[int]:
        """Positions of the Relu layers, in forward order."""
        return [i for i, l in enumerate(self.layers) if l.kind is LayerKind.RELU]

    @property
    def num_activation_layers(self) -> int:
        return len(self.activation_indices)


def _apply_layer(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    kind = layer.kind
    if kind is LayerKind.CONV2D:
        return ops.conv2d(x, layer.weight, layer.bias, layer.stride, layer.padding)
    if kind is LayerKind.RELU:
        return ops.relu(x)
    if kind is LayerKind.MAXPOOL2D:
        return ops.maxpool2d(x, layer.window, layer.stride)
    if kind is LayerKind.FLATTEN:
        return ops.flatten(x)
    if kind is LayerKind.DENSE:
        return ops.dense(x, layer.weight, layer.bias)
    if kind is LayerKind.SOFTMAX:
        return ops.softmax(x)
    raise ContractError(f"unknown layer kind {kind}")


@dataclass
class ForwardResult:
    """Predictions, probabilities, and the per-Relu tap tensors."""

    predictions: np.ndarray  # (N,) int64, argmax ties -> lowest class id
    probabilities: np.ndarray  # (N, K) float32
    taps: list  # r entries, one per Relu input; see forward_with_taps


def forward_with_taps(
    net: Network,
    batch: np.ndarray,
    tap_map: Callable[[np.ndarray], object] | None = None,
) -> ForwardResult:
    """Run the network, recording the input of every Relu layer.

    Without ``tap_map`` each taps entry is the raw (N, ...) tensor. With
    it, each entry is ``tap_map(tensor)``, applied as soon as the layer
    runs; reducing a tap there reads it while it is still cache-resident
    instead of after later layers have evicted it.
    """
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim != 4 or batch.shape[1:] != net.input_shape:
        raise DimensionError(
            f"batch shape {batch.shape} does not match input shape "
            f"(N,{','.join(map(str, net.input_shape))})"
        )
    taps: list = []
    x = batch
    for layer in net.layers:
        if layer.kind is LayerKind.RELU:
            taps.append(x if tap_map is None else tap_map(x))
        x = _apply_layer(layer, x)
    predictions = np.argmax(x, axis=1).astype(np.int64)
    return ForwardResult(predictions, x, taps)


@dataclass
class NetworkOutputs:
    predictions: np.ndarray  # (N,) int64
    probabilities: np.ndarray  # (N, K) float32
    features: np.ndarray  # (N, width) float32, untransformed


def run_network(
    net: Network,
    images: np.ndarray,
    kind: FeatureKind = FeatureKind.MINMAX,
    batch_size: int = DEFAULT_BATCH,
) -> NetworkOutputs:
    """Forward a whole image set in batches, reducing taps as they appear.

    Each tap is reduced inside the forward pass, while the tensor is still
    cache-resident; the columns match extract_features on retained taps
    bit for bit.
    """
    preds, probs, feats = [], [], []
    for start in range(0, images.shape[0], batch_size):
        result = forward_with_taps(
            net,
            images[start : start + batch_size],
            tap_map=lambda tap: reduce_tap(tap, kind),
        )
        preds.append(result.predictions)
        probs.append(result.probabilities)
        feats.append(
            assemble_columns([col for cols in result.taps for col in cols])
        )
    return NetworkOutputs(
        np.concatenate(preds), np.vstack(probs), np.vstack(feats)
    )


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
    """Forward through the logits, cross-entropy, and per-layer gradients."""
    inputs = []
    x = xb
    for layer in net.layers[:-1]:  # stop before the softmax
        inputs.append(x)
        x = _apply_layer(layer, x)
    logits = x.astype(np.float64)
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
    for layer, x_in in zip(reversed(net.layers[:-1]), reversed(inputs)):
        kind = layer.kind
        if kind is LayerKind.DENSE:
            grad, gw, gb = ops.dense_backward(x_in, layer.weight, grad)
            updates.append((layer, gw, gb))
        elif kind is LayerKind.RELU:
            grad = ops.relu_backward(x_in, grad)
        elif kind is LayerKind.FLATTEN:
            grad = grad.reshape(x_in.shape)
        elif kind is LayerKind.MAXPOOL2D:
            grad = ops.maxpool2d_backward(x_in, layer.window, grad)
        elif kind is LayerKind.CONV2D:
            grad, gw, gb = ops.conv2d_backward(
                x_in, layer.weight, grad, layer.padding
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


def evaluate_accuracy(net: Network, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of images whose argmax prediction matches the label."""
    predictions = run_network(net, images).predictions
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


def networks_equal(a: Network, b: Network) -> bool:
    """Bit-exact structural and parameter equality: equal XNET encodings."""
    return _encode_network(a) == _encode_network(b)
