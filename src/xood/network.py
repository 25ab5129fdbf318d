"""Classifier container: layer stack, tapped forward pass, trainer, file IO.

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
that run order, its tap shapes and its Relu count once, when it is built.
A batch of at most 64 images is one block, whose tensors are returned as
the outputs without a copy. A caller that reads only the taps asks for no
head: each block then stops at the last tap, so a one-image scoring
request pays for the layers up to it and no more. Layers dispatch through
one table keyed by layer kind.

A larger batch's blocks are independent, and each writes only its own
rows of outputs allocated before any block starts, so they run
concurrently on a cached thread pool with one worker per CPU the
process may use, each worker pinned to its own CPU (unpinned workers were
seen to settle on one CPU after a stretch of one-image calls and then ran
no faster than one thread). The pool is used only when BLAS was limited to
one thread when this module loaded (``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` equal to 1); otherwise BLAS's own threads compete with
the workers, and the blocks run one after another on the calling thread.
For a given BLAS thread count the two ways give bit for bit the same
outputs; OpenBLAS's threaded GEMM sums in another order, so weights,
features, bundles and scores are reproducible only for that count.

The trainer is plain seeded SGD with cross-entropy, no momentum. The
classifier is a fixture for the detection pipeline, not a contribution in
itself, so the trainer stays minimal but fully deterministic: the same
seed produces bit-identical weights under the same BLAS thread count.
Within a step, the per-image conv work (convs, pools, Relus and their
backward passes, up to the flatten) runs on the same pool in contiguous
row parts, one per worker, while the calling thread runs the dense head,
the loss and every sum over the batch axis on the whole batch, so the
weights do not depend on the worker count (see ``_batch_loss_and_grad``).

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

Blob names are unique, and each is the weight or bias of a conv or dense
layer. Save/load round trips are bit-exact for the float32 parameters.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor_ops as ops
from .datasets import Dataset, class_ids
from .errors import (
    ContractError,
    DimensionError,
    FormatError,
    TrainingDivergedError,
)
from .keyvalue import KeyValues, decode_utf8
from .rng import Stream, derive_seed
from .xten import ByteReader, decode_tensor, encode_tensor

logger = logging.getLogger(__name__)

NETWORK_MAGIC = b"XNET"
NETWORK_VERSION = 1
DEFAULT_BATCH = 64
_BLAS_ONE_THREAD = any(
    os.environ.get(name) == "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
)
_WORKERS = (
    len(os.sched_getaffinity(0))
    if _BLAS_ONE_THREAD and hasattr(os, "sched_setaffinity")
    else 1
)


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
    layers run (see ``_run_order``), ``tap_shapes``, each Relu input's
    per-image shape, and ``num_activation_layers``, the Relu count, are
    derived once, when the network is built."""

    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]
    num_classes: int
    run_order: tuple[tuple[LayerSpec, int | None], ...] = field(
        init=False, repr=False, compare=False
    )
    tap_shapes: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    num_activation_layers: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = tuple(self.input_shape)
        if (
            len(shape) != 3
            or min(shape) < 1
            or math.prod(shape) > ops.MAX_IMAGE_VALUES
        ):
            raise DimensionError(
                f"input shape must be (C,H,W) with extents >= 1 and at most "
                f"{ops.MAX_IMAGE_VALUES} values, got {shape}"
            )
        # An empty batch runs each kernel's own shape checks and allocates
        # nothing, whatever extents the layers declare.
        x = np.zeros((0, *shape), np.float32)
        tap_shapes = []
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
                if layer.kind is LayerKind.RELU:
                    tap_shapes.append(x.shape[1:])
                x = _FORWARD[layer.kind](layer, x)
                if math.prod(x.shape[1:]) > ops.MAX_IMAGE_VALUES:
                    raise DimensionError(
                        f"output {x.shape[1:]} exceeds {ops.MAX_IMAGE_VALUES} "
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
        self.tap_shapes = tuple(tap_shapes)
        self.num_activation_layers = len(tap_shapes)


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


@dataclass
class ForwardResult:
    """Predictions, probabilities, and the per-Relu tap tensors."""

    predictions: np.ndarray | None  # (N,) int64, argmax ties -> lowest class id
    probabilities: np.ndarray | None  # (N, K) float32
    taps: list  # r (N, ...) Relu inputs, or empty; see forward_with_taps


def forward_with_taps(
    net: Network,
    batch: np.ndarray,
    tap_map: Callable[[int, slice, np.ndarray], None] | None = None,
    head: bool = True,
) -> ForwardResult:
    """Run the network, recording the input of every Relu layer.

    The batch runs through the stack in blocks of ``DEFAULT_BATCH`` rows,
    in ``net.run_order`` (each Relu that feeds a max-pool after that pool,
    its tap taken on the pool's input), so every layer reads its input
    from cache (see the module docstring for why 64). The shape is
    checked once. A batch of at most 64 rows is one block, run on the
    calling thread, and that block's tensors are the outputs: its softmax
    output becomes the probabilities and its taps the raw taps, without a
    copy. An empty batch still runs one empty block, which checks the
    layer shapes, and gives empty outputs. A larger batch's blocks each
    write their probabilities and raw taps into their own rows of arrays
    allocated before any block starts, under the caller's ``np.geterr()``,
    on the pinned worker pool when BLAS was limited to one thread at load
    and otherwise one after another. Every block has finished when this
    returns, and an exception raised in a block reaches the caller as
    itself (the first block's, in row order, if several fail).

    Without ``tap_map`` each taps entry is the raw (N, ...) Relu input.
    With it, ``tap_map(j, rows, tap)`` is called once per block with the
    block's j-th tap, while it is cache-resident, for j in order; blocks
    may run concurrently and in any order, so ``tap_map`` must touch only
    what belongs to ``rows``. Taps then comes back empty.

    With ``head=False`` each block stops once its last tap has been
    handed over: the steps after it (for the reference CNN the last Relu,
    the last dense layer and the softmax) do not run, no probabilities are
    allocated, and predictions and probabilities come back as None. The
    taps are computed as with the head, bit for bit. A network with no
    Relu runs no layer.

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
    taps: list = []
    if n <= DEFAULT_BATCH:
        on_tap = tap_map or (lambda index, rows, tap: taps.append(tap))
        probabilities = _forward_block(
            net, batch, slice(0, DEFAULT_BATCH), on_tap, head
        )
    else:
        probabilities = np.empty((n, net.num_classes), np.float32) if head else None
        if tap_map is None:
            taps = [np.empty((n, *shape), np.float32) for shape in net.tap_shapes]

            def tap_map(index: int, rows: slice, tap: np.ndarray) -> None:
                taps[index][rows] = tap

        def run(rows: slice) -> None:
            out = _forward_block(net, batch[rows], rows, tap_map, head)
            if head:
                probabilities[rows] = out

        _run_parts(
            run, [slice(i, i + DEFAULT_BATCH) for i in range(0, n, DEFAULT_BATCH)]
        )
    predictions = probabilities.argmax(axis=1) if head else None
    return ForwardResult(predictions, probabilities, taps)


def _forward_block(
    net: Network,
    x: np.ndarray,
    rows: slice,
    tap_map: Callable[[int, slice, np.ndarray], None],
    head: bool,
) -> np.ndarray | None:
    """One block through ``net.run_order``, each tap to ``tap_map`` in order;
    returns the softmax output, or None without ``head``, right after the
    last tap."""
    last = net.num_activation_layers - 1
    if last < 0 and not head:
        return None
    for layer, tap in net.run_order:
        if tap is not None:
            tap_map(tap, rows, x)
            if tap == last and not head:
                return None
        x = _FORWARD[layer.kind](layer, x)
    return x


def _run_parts(run: Callable, parts: list) -> list:
    """``[run(part) for part in parts]`` under the caller's ``np.geterr()``:
    on the pinned worker pool when BLAS was limited to one thread at load
    and there is more than one part, else one after another on the calling
    thread. Every part has finished when this returns, and an exception
    raised by a part reaches the caller as itself (the first part's, in
    order, if several fail)."""
    errors = np.geterr()

    def run_part(part):
        with np.errstate(**errors):
            return run(part)

    if _WORKERS == 1 or len(parts) == 1:
        return [run_part(part) for part in parts]
    pool = _worker_pool(_WORKERS)
    futures = [pool.submit(run_part, part) for part in parts]
    wait(futures)
    return [future.result() for future in futures]


@functools.cache
def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """A pool of ``workers`` threads, each pinned to one CPU of the process's
    affinity set; a forked child, which has none of its parent's threads,
    starts with an empty cache. No lock is needed: two threads that miss the
    cache at once can each build a pool; the one not kept is garbage-collected,
    and ``ThreadPoolExecutor``'s weakref callback then lets its threads exit
    once the blocks already queued have run."""
    cpus = sorted(os.sched_getaffinity(0))
    cpus = [cpus[i % len(cpus)] for i in range(workers)]

    def pin() -> None:
        os.sched_setaffinity(0, {cpus.pop()})

    return ThreadPoolExecutor(workers, "xood-forward", pin)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker_pool.cache_clear)


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

    The steps before the first dense layer work on each image alone, so
    the batch's rows are split into ``min(_WORKERS, n)`` contiguous parts
    that run those steps, forward and then backward, through
    ``_run_parts``: on the pinned worker pool when BLAS was limited to one
    thread at load, else as one part on the calling thread. The caller
    runs the dense head, the loss and the head's backward on the whole
    batch, since a dense GEMM split by rows would sum in another order.
    Each part writes its rows of every conv layer's
    ``conv2d_backward(..., batch_sums=False)`` terms into whole-batch
    arrays: the per-image kernel products and the (N, F) bias terms, each
    image's output gradient summed over its positions, so no part copies a
    whole output gradient. The caller takes each sum over the batch axis
    once (``conv2d_batch_sums``). Each image's conv GEMMs are their own
    BLAS calls, its bias terms its own sums, and pools and Relus work per
    image or per value, so the gradients are bit for bit the same for any
    number of parts; as in inference, they depend on the BLAS thread
    count.
    """
    steps = [layer for layer, _ in net.run_order[:-1]]  # stop before the softmax
    cut = next(
        (s for s, layer in enumerate(steps) if layer.kind is LayerKind.DENSE),
        len(steps),
    )
    prefix, head = steps[:cut], steps[cut:]
    n = xb.shape[0]
    k = min(_WORKERS, n)
    parts = [slice(n * i // k, n * (i + 1) // k) for i in range(k)]
    saved = _run_parts(lambda rows: _forward_steps(prefix, xb[rows]), parts)
    outputs = [part_acts[-1] for part_acts, _ in saved]
    acts, columns = _forward_steps(
        head, outputs[0] if k == 1 else np.concatenate(outputs)
    )
    logits = acts.pop().astype(np.float64)
    # mean cross-entropy via logsumexp; never produces NaN on finite logits
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), yb]))
    probs = np.exp(logits - lse[:, None])
    grad = probs
    grad[np.arange(n), yb] -= 1.0
    grad = (grad / n).astype(np.float32)

    grad, updates = _backward_steps(head, acts, columns, grad)
    # Several parts write their rows of each conv layer's batch terms, last
    # layer first, into whole-batch arrays; a single part's are the whole.
    whole = [] if k == 1 else [
        (layer, np.empty((n, *layer.weight.shape), np.float32),
         np.empty((n, layer.weight.shape[0]), np.float32))
        for layer in reversed(prefix)
        if layer.kind is LayerKind.CONV2D
    ]

    def back(part: tuple) -> list:
        rows, (part_acts, part_columns) = part
        terms = _backward_steps(prefix, part_acts, part_columns, grad[rows])[1]
        for (_, products, bias_terms), (_, all_products, all_bias_terms) in zip(
            terms, whole
        ):
            all_products[rows] = products
            all_bias_terms[rows] = bias_terms
        return terms

    terms = _run_parts(back, list(zip(parts, saved)))
    for layer, products, bias_terms in whole or terms[0]:
        updates.append((layer, *ops.conv2d_batch_sums(products, bias_terms)))
    return loss, updates


def _forward_steps(
    steps: list[LayerSpec], x: np.ndarray
) -> tuple[list[np.ndarray], dict[int, np.ndarray]]:
    """Run ``steps`` on ``x``. Returns every step's input followed by the
    last step's output, and each conv step's im2col buffer by step index."""
    acts, columns = [x], {}
    for s, layer in enumerate(steps):
        if layer.kind is LayerKind.CONV2D:
            kh, kw = layer.weight.shape[2:]
            columns[s] = ops.conv2d_columns(x, kh, kw, layer.stride, layer.padding)
            x = ops.conv2d(
                x, layer.weight, layer.bias, layer.stride, layer.padding,
                cols=columns[s],
            )
        else:
            x = _FORWARD[layer.kind](layer, x)
        acts.append(x)
    return acts, columns


def _backward_steps(
    steps: list[LayerSpec],
    acts: list[np.ndarray],
    columns: dict[int, np.ndarray],
    grad: np.ndarray,
) -> tuple[np.ndarray | None, list]:
    """Walk ``_forward_steps``'s run back from ``grad``, the gradient at its
    output. Returns the gradient at its input, None when ``steps[0]`` is a
    conv (its input is the images), and one (layer, weight term, bias term)
    per weighted step, last step first: a dense layer's gradients, and a
    conv layer's ``conv2d_backward(..., batch_sums=False)`` terms."""
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
                cols=columns[s], input_grad=s > 0, batch_sums=False,
            )
            updates.append((layer, gw, gb))
        else:
            raise ContractError(f"no backward pass for layer kind {kind}")
    return grad, updates


def train_reference_cnn(
    images: np.ndarray, labels: np.ndarray, config: TrainConfig
) -> Network:
    """Train the reference CNN with plain SGD and cross-entropy.

    A batch size below 1 or a learning rate not finite and > 0 raises
    ContractError, also with ``epochs == 0``, which returns the seeded
    initialization unchanged. A non-finite epoch loss raises
    TrainingDivergedError naming the epoch.
    """
    ds = Dataset(images, labels)
    images, labels = ds.images, ds.labels
    if labels.size == 0:
        raise ContractError("training set is empty")
    num_classes = int(labels.max()) + 1
    if num_classes < 2:
        raise ContractError("training data must contain at least 2 classes")

    rate = config.learning_rate
    if config.batch_size < 1 or not (math.isfinite(rate) and rate > 0):
        raise ContractError("batch size must be >= 1 and learning rate finite and > 0")
    net = build_reference_cnn(images.shape[1:], num_classes, config.seed)
    if config.epochs == 0:
        return net

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
    """Fraction of images whose argmax prediction matches the label; the
    forward pass drops its taps unreduced. Before it runs, labels that are
    not class ids (``class_ids``) or not of shape (N,), and an empty set,
    raise ContractError."""
    images = np.asarray(images, dtype=np.float32)
    labels = class_ids(labels)
    if labels.shape != images.shape[:1]:
        raise ContractError(
            f"labels shape {labels.shape} does not match images {images.shape}"
        )
    if labels.size == 0:
        raise ContractError("accuracy of an empty image set is undefined")
    result = forward_with_taps(net, images, tap_map=lambda index, rows, tap: None)
    return int((result.predictions == labels).sum()) / labels.size


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
    reader = ByteReader(buf, "XNET")
    magic, version, manifest_len = reader.unpack("<4sBI", "header")
    if magic != NETWORK_MAGIC:
        raise FormatError("bad XNET magic", offset=0)
    if version != NETWORK_VERSION:
        raise FormatError(f"unsupported XNET version {version}", offset=4)
    source = f"XNET manifest of {path}"
    entries = KeyValues(
        decode_utf8(reader.take(manifest_len, "manifest"), source, 9), source
    )
    (blob_count,) = reader.unpack("<I", "blob count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(blob_count):
        (name_len,) = reader.unpack("<I", "blob name length")
        start = reader.pos
        name = decode_utf8(
            reader.take(name_len, "blob name"), f"XNET blob name in {path}", start
        )
        if name in tensors:
            raise FormatError(f"XNET repeats blob {name!r}", offset=start)
        tensors[name], reader.pos = decode_tensor(buf, reader.pos)
    reader.finish()

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
            spec.weight = tensors.pop(f"layer{i}.weight", None)
            spec.bias = tensors.pop(f"layer{i}.bias", None)
        layers.append(spec)
    if tensors:
        raise FormatError(f"XNET blob {next(iter(tensors))!r} belongs to no layer")
    try:
        return Network(layers, input_shape, num_classes)
    except (DimensionError, ContractError) as exc:
        raise FormatError(f"inconsistent network file: {exc}", offset=9) from None
