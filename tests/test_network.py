import copy
import multiprocessing
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from xood import network, tensor_ops
from xood.datasets import make_blobs
from xood.errors import (
    ContractError,
    DimensionError,
    FormatError,
    TrainingDivergedError,
)
from xood.network import (
    LayerKind,
    LayerSpec,
    Network,
    TrainConfig,
    _batch_loss_and_grad,
    _encode_network,
    build_reference_cnn,
    evaluate_accuracy,
    forward_with_taps,
    load_network,
    save_network,
    train_reference_cnn,
)
from xood.rng import Stream, derive_seed
from xood.tensor_ops import conv2d, dense, flatten, maxpool2d, relu, softmax
from xood.xten import encode_tensor

from helpers import networks_equal


# the CPUs this process may run on, where the system can tell
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else 1


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.fixture(scope="module")
def toy_net():
    return build_reference_cnn((1, 8, 8), 3, seed=5)


@pytest.fixture(scope="module")
def trained():
    """A small net trained to high accuracy on an easy blob problem."""
    ds = make_blobs(300, 3, 16, seed=21)
    net = train_reference_cnn(
        ds.images, ds.labels, TrainConfig(epochs=4, batch_size=32, seed=3)
    )
    return net, ds


def test_reference_architecture(toy_net):
    kinds = [l.kind for l in toy_net.layers]
    assert kinds == [
        LayerKind.CONV2D, LayerKind.RELU, LayerKind.MAXPOOL2D,
        LayerKind.CONV2D, LayerKind.RELU, LayerKind.MAXPOOL2D,
        LayerKind.FLATTEN, LayerKind.DENSE, LayerKind.RELU,
        LayerKind.DENSE, LayerKind.SOFTMAX,
    ]
    assert toy_net.num_activation_layers == 3
    # each Relu runs behind the pool it feeds, its tap on the pool's input
    position = {id(layer): i for i, layer in enumerate(toy_net.layers)}
    assert [(position[id(layer)], tap) for layer, tap in toy_net.run_order] == [
        (0, None), (2, 0), (1, None), (3, None), (5, 1), (4, None),
        (6, None), (7, None), (8, 2), (9, None), (10, None),
    ]
    assert toy_net.layers[0].weight.shape == (8, 1, 3, 3)
    assert toy_net.layers[3].weight.shape == (16, 8, 3, 3)
    assert toy_net.layers[7].weight.shape == (16 * 2 * 2, 64)
    assert toy_net.layers[9].weight.shape == (64, 3)
    for layer in toy_net.layers:
        if layer.bias is not None:
            assert not layer.bias.any()  # biases start at zero


def test_init_is_seeded_and_bounded():
    a = build_reference_cnn((1, 8, 8), 3, seed=5)
    b = build_reference_cnn((1, 8, 8), 3, seed=5)
    c = build_reference_cnn((1, 8, 8), 3, seed=6)
    assert networks_equal(a, b)
    assert not networks_equal(a, c)
    bound = np.sqrt(1.0 / 9.0)
    w = a.layers[0].weight
    assert float(np.abs(w).max()) <= bound
    assert float(np.abs(w).max()) > 0.5 * bound  # actually spread out


def test_build_rejects_bad_geometry():
    with pytest.raises(ContractError, match="divisible by 4"):
        build_reference_cnn((1, 6, 8), 3, seed=0)
    with pytest.raises(ContractError, match="classes"):
        build_reference_cnn((1, 8, 8), 1, seed=0)


def test_taps_are_relu_inputs(toy_net):
    x = Stream(9).uniform(2 * 64).astype(np.float32).reshape(2, 1, 8, 8)
    result = forward_with_taps(toy_net, x)
    assert len(result.taps) == 3

    l = toy_net.layers
    conv1 = conv2d(x, l[0].weight, l[0].bias, l[0].stride, l[0].padding)
    np.testing.assert_array_equal(result.taps[0], conv1)
    pooled = maxpool2d(relu(conv1), 2, 2)
    conv2 = conv2d(pooled, l[3].weight, l[3].bias, l[3].stride, l[3].padding)
    np.testing.assert_array_equal(result.taps[1], conv2)
    flat = flatten(maxpool2d(relu(conv2), 2, 2))
    hidden = dense(flat, l[7].weight, l[7].bias)
    np.testing.assert_array_equal(result.taps[2], hidden)
    logits = dense(relu(hidden), l[9].weight, l[9].bias)
    np.testing.assert_array_equal(result.probabilities, softmax(logits))
    assert result.probabilities.shape == (2, 3)
    np.testing.assert_allclose(result.probabilities.sum(axis=1), 1.0, atol=1e-5)


def test_forward_batch_invariance(toy_net):
    x = Stream(31).uniform(6 * 64).astype(np.float32).reshape(6, 1, 8, 8)
    whole = forward_with_taps(toy_net, x)
    parts = [forward_with_taps(toy_net, x[i : i + 1]) for i in range(6)]
    for i in range(6):
        np.testing.assert_allclose(
            whole.probabilities[i], parts[i].probabilities[0], atol=1e-6
        )
        for t_whole, t_part in zip(whole.taps, parts[i].taps):
            np.testing.assert_allclose(t_whole[i], t_part[0], atol=1e-6)


@pytest.fixture
def workers(monkeypatch):
    """Sets the worker count whatever the BLAS setting: 1 runs a batch's
    blocks one after another and a training step's conv work as one part,
    more on the worker pool."""
    return lambda count: monkeypatch.setattr(network, "_WORKERS", count)


# the stack's own order (Relu before pool) through the public ops
PUBLIC_OPS = {
    LayerKind.CONV2D: lambda l, x: conv2d(x, l.weight, l.bias, l.stride, l.padding),
    LayerKind.RELU: lambda l, x: relu(x),
    LayerKind.MAXPOOL2D: lambda l, x: maxpool2d(x, l.window, l.stride),
    LayerKind.FLATTEN: lambda l, x: flatten(x),
    LayerKind.DENSE: lambda l, x: dense(x, l.weight, l.bias),
    LayerKind.SOFTMAX: lambda l, x: softmax(x),
}


def reference_forward(net, x):
    taps = []
    for layer in net.layers:
        if layer.kind is LayerKind.RELU:
            taps.append(x)
        x = PUBLIC_OPS[layer.kind](layer, x)
    return taps, x


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_blocked_forward_is_the_stack_order_loop_on_64_row_slices(
    toy_net, monkeypatch, workers, n
):
    workers(1)
    x = Stream(32).normal(max(n, 1) * 64).astype(np.float32)[: n * 64]
    x = x.reshape(n, 1, 8, 8)
    x.flat[::5] = -0.0
    blocks = [x[start : start + 64] for start in range(0, max(n, 1), 64)]
    want = [reference_forward(toy_net, block) for block in blocks]
    relu_inputs = []
    monkeypatch.setattr(
        tensor_ops, "relu", lambda t: relu_inputs.append(t.shape) or relu(t)
    )
    got = forward_with_taps(toy_net, x)
    # one block per 64 images, an empty set included, and every Relu that
    # feeds a pool runs on the pooled values
    sizes = [block.shape[0] for block in blocks]
    assert relu_inputs == [
        shape for b in sizes for shape in ((b, 8, 4, 4), (b, 16, 2, 2), (b, 64))
    ]
    assert len(got.taps) == 3
    for j, tap in enumerate(got.taps):
        assert_bitwise(tap, np.concatenate([taps[j] for taps, _ in want]))
    probabilities = np.concatenate([probs for _, probs in want])
    assert_bitwise(got.probabilities, probabilities)
    np.testing.assert_array_equal(got.predictions, probabilities.argmax(axis=1))
    assert got.predictions.shape == (n,) and got.predictions.dtype == np.int64
    assert got.probabilities.shape == (n, 3)


def test_relu_deferred_past_pools_on_any_stack():
    # Relus back to back, a Relu feeding two pools, and a Relu at the input
    layers = [
        LayerSpec(LayerKind.RELU),
        LayerSpec(LayerKind.RELU),
        LayerSpec(LayerKind.MAXPOOL2D, window=2, stride=1),
        LayerSpec(LayerKind.MAXPOOL2D, window=3, stride=2),
        LayerSpec(LayerKind.RELU),
        LayerSpec(LayerKind.FLATTEN),
        LayerSpec(LayerKind.DENSE, weight=Stream(34).normal(18).astype(np.float32)
                  .reshape(9, 2), bias=np.zeros(2, np.float32)),
        LayerSpec(LayerKind.SOFTMAX),
    ]
    net = Network(layers, (1, 8, 8), 2)
    x = Stream(35).normal(70 * 64).astype(np.float32).reshape(70, 1, 8, 8)
    got = forward_with_taps(net, x)
    want = [reference_forward(net, x[start : start + 64]) for start in (0, 64)]
    assert len(got.taps) == 3
    for j, tap in enumerate(got.taps):
        assert_bitwise(tap, np.concatenate([taps[j] for taps, _ in want]))
    assert_bitwise(got.probabilities, np.concatenate([p for _, p in want]))


def test_tap_map_gets_each_blocks_taps_in_order(toy_net, workers):
    workers(1)
    x = Stream(33).normal(130 * 64).astype(np.float32).reshape(130, 1, 8, 8)
    whole = forward_with_taps(toy_net, x)
    seen = []

    def tap_map(index, rows, tap):
        assert_bitwise(tap, whole.taps[index][rows])
        seen.append((index, rows.start))

    result = forward_with_taps(toy_net, x, tap_map=tap_map)
    assert result.taps == []
    assert seen == [(j, start) for start in (0, 64, 128) for j in range(3)]
    assert_bitwise(result.probabilities, whole.probabilities)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130, 300])
def test_pooled_forward_is_the_serial_loop_bit_for_bit(toy_net, workers, n):
    x = Stream(36).normal(max(n, 1) * 64).astype(np.float32)[: n * 64]
    x = x.reshape(n, 1, 8, 8)
    raw, mapped = [], []
    for count in (1, 2):
        workers(count)
        raw.append(forward_with_taps(toy_net, x))
        seen = {}

        def tap_map(index, rows, tap, seen=seen):
            seen[index, rows.start] = tap.copy()

        result = forward_with_taps(toy_net, x, tap_map=tap_map)
        assert result.taps == []
        assert_bitwise(result.probabilities, raw[-1].probabilities)
        mapped.append(seen)
    serial, got = raw
    assert len(got.taps) == len(serial.taps) == 3
    for tap, want in zip(got.taps, serial.taps):
        assert_bitwise(tap, want)
    assert_bitwise(got.probabilities, serial.probabilities)
    np.testing.assert_array_equal(got.predictions, serial.predictions)
    assert mapped[1].keys() == mapped[0].keys()
    for key, tap in mapped[0].items():
        assert_bitwise(mapped[1][key], tap)


def test_pooled_blocks_run_the_stack_order_loop_on_worker_threads(
    toy_net, workers, monkeypatch
):
    workers(2)
    # blocks run concurrently and in any order, so only each block's own
    # Relu and tap order is fixed, on whichever worker runs it
    x = Stream(37).normal(300 * 64).astype(np.float32).reshape(300, 1, 8, 8)
    relu_inputs = defaultdict(list)
    monkeypatch.setattr(
        tensor_ops, "relu",
        lambda t: relu_inputs[threading.get_ident()].append(t.shape) or relu(t),
    )
    taps_seen = defaultdict(list)

    def tap_map(index, rows, tap):
        assert threading.current_thread().name.startswith("xood-forward")
        taps_seen[rows.start].append(index)

    forward_with_taps(toy_net, x, tap_map=tap_map)
    assert taps_seen == {start: [0, 1, 2] for start in range(0, 300, 64)}
    sizes = []
    for shapes in relu_inputs.values():
        for i in range(0, len(shapes), 3):
            b = shapes[i][0]
            assert shapes[i : i + 3] == [(b, 8, 4, 4), (b, 16, 2, 2), (b, 64)]
            sizes.append(b)
    assert sorted(sizes) == [44, 64, 64, 64, 64]


def test_concurrent_callers_on_more_workers_than_cpus(toy_net, workers):
    # blocks and training-step parts of several calls interleave on one
    # pool; each call's rows must still hold exactly its own parts' outputs
    batches = [
        Stream(40 + i).normal(n * 64).astype(np.float32).reshape(n, 1, 8, 8)
        for i, n in enumerate((65, 130, 300, 200))
    ]
    labels = [np.arange(x.shape[0]) % 3 for x in batches]
    workers(1)
    want = [forward_with_taps(toy_net, x) for x in batches]
    want_steps = [_batch_loss_and_grad(toy_net, x, y) for x, y in zip(batches, labels)]
    workers(CPUS + 2)
    got = [None] * len(batches)
    got_steps = [None] * len(batches)

    def call(i):
        for _ in range(5):
            got[i] = forward_with_taps(toy_net, batches[i])
            got_steps[i] = _batch_loss_and_grad(toy_net, batches[i], labels[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for result, expected in zip(got, want, strict=True):
        assert_bitwise(result.probabilities, expected.probabilities)
        for tap, want_tap in zip(result.taps, expected.taps, strict=True):
            assert_bitwise(tap, want_tap)
    for (loss, updates), (want_loss, want_updates) in zip(got_steps, want_steps):
        assert loss == want_loss
        for (_, gw, gb), (_, want_gw, want_gb) in zip(
            updates, want_updates, strict=True
        ):
            assert_bitwise(gw, want_gw)
            assert_bitwise(gb, want_gb)


@pytest.mark.parametrize("count", [1, 2])
def test_pooled_blocks_use_the_callers_errstate(toy_net, workers, count):
    workers(count)
    big = copy.deepcopy(toy_net)
    for layer in big.layers:
        if layer.weight is not None:
            layer.weight[...] = 1e20
    x = np.ones((130, 1, 8, 8), np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            result = forward_with_taps(big, x)
        assert not np.isfinite(result.taps[2]).all()
        # a worker's warning, raised as an error there, reaches the caller
        with np.errstate(over="warn", invalid="warn"), pytest.raises(
            RuntimeWarning, match="overflow"
        ):
            forward_with_taps(big, x)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        forward_with_taps(big, x)


def test_worker_pool_is_made_once_per_size():
    assert network._worker_pool(2) is network._worker_pool(2)
    assert network._worker_pool(3) is not network._worker_pool(2)


def _forward_in_child(net, x, conn):
    result = forward_with_taps(net, x)
    conn.send((result.probabilities, result.taps))


# a fork of a process whose pool threads are running is the point here
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork"
)
def test_forked_child_runs_its_own_pool(toy_net, workers):
    workers(2)
    x = Stream(38).normal(130 * 64).astype(np.float32).reshape(130, 1, 8, 8)
    parent = forward_with_taps(toy_net, x)  # the parent's pool now has threads
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_forward_in_child, args=(toy_net, x, send))
    child.start()
    try:
        assert receive.poll(60), "the forked child's forward pass hung"
        probabilities, taps = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert_bitwise(probabilities, parent.probabilities)
    for tap, want in zip(taps, parent.taps, strict=True):
        assert_bitwise(tap, want)


@pytest.mark.skipif(CPUS < 2, reason="the pool needs at least 2 CPUs")
def test_pool_is_used_only_with_blas_on_one_thread():
    src = str(Path(network.__file__).resolve().parent.parent)
    env = {
        name: value for name, value in os.environ.items()
        if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }

    def pool_size(**blas):
        out = subprocess.run(
            [sys.executable, "-c", "import xood.network as n; print(n._WORKERS)"],
            env={**env, "PYTHONPATH": src, **blas},
            capture_output=True, text=True, check=True,
        )
        return int(out.stdout)

    assert pool_size() == 1
    assert pool_size(OPENBLAS_NUM_THREADS="1") == CPUS


def test_forward_shape_check(toy_net):
    with pytest.raises(DimensionError, match="batch shape"):
        forward_with_taps(toy_net, np.zeros((2, 1, 8, 9), np.float32))


def test_argmax_tie_goes_to_lowest_class():
    # a dense layer with zero weights produces identical logits
    layers = [
        LayerSpec(LayerKind.FLATTEN),
        LayerSpec(
            LayerKind.DENSE,
            weight=np.zeros((4, 3), np.float32),
            bias=np.zeros(3, np.float32),
        ),
        LayerSpec(LayerKind.SOFTMAX),
    ]
    net = Network(layers, (1, 2, 2), 3)
    result = forward_with_taps(net, np.ones((2, 1, 2, 2), np.float32))
    np.testing.assert_array_equal(result.predictions, [0, 0])


def test_network_validation():
    with pytest.raises(ContractError, match="softmax"):
        Network([LayerSpec(LayerKind.FLATTEN)], (1, 2, 2), 4)
    with pytest.raises(DimensionError, match="produces shape"):
        Network(
            [LayerSpec(LayerKind.FLATTEN), LayerSpec(LayerKind.SOFTMAX)],
            (1, 2, 2),
            3,
        )
    with pytest.raises(ContractError, match="missing parameters"):
        Network(
            [LayerSpec(LayerKind.DENSE), LayerSpec(LayerKind.SOFTMAX)],
            (1, 2, 2),
            3,
        )
    # the layer table is keyed by LayerKind; a bare string is not one
    with pytest.raises(ContractError, match="layer 0: unknown layer kind 'flatten'"):
        Network([LayerSpec("flatten"), LayerSpec(LayerKind.SOFTMAX)], (1, 2, 2), 4)


def test_epochs_zero_returns_initialization():
    ds = make_blobs(30, 3, 8, seed=1)
    net = train_reference_cnn(ds.images, ds.labels, TrainConfig(epochs=0, seed=11))
    assert networks_equal(net, build_reference_cnn((1, 8, 8), 3, 11))


def test_training_is_bit_deterministic():
    ds = make_blobs(60, 3, 8, seed=2)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=4)
    a = train_reference_cnn(ds.images, ds.labels, cfg)
    b = train_reference_cnn(ds.images, ds.labels, cfg)
    assert networks_equal(a, b)


def batch_step_loop(net, xb, yb):
    """One training step with the default kernel calls: each backward
    kernel rebuilds what it needs, and every conv returns an input gradient."""
    inputs, x = [], xb
    for layer in net.layers[:-1]:
        inputs.append(x)
        x = network._FORWARD[layer.kind](layer, x)
    logits = x.astype(np.float64)
    n = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), yb]))
    grad = np.exp(logits - lse[:, None])
    grad[np.arange(n), yb] -= 1.0
    grad = (grad / n).astype(np.float32)
    updates = []
    for layer, x_in in zip(reversed(net.layers[:-1]), reversed(inputs)):
        if layer.kind is LayerKind.DENSE:
            grad, gw, gb = tensor_ops.dense_backward(x_in, layer.weight, grad)
            updates.append((layer, gw, gb))
        elif layer.kind is LayerKind.RELU:
            grad = tensor_ops.relu_backward(x_in, grad)
        elif layer.kind is LayerKind.FLATTEN:
            grad = grad.reshape(x_in.shape)
        elif layer.kind is LayerKind.MAXPOOL2D:
            grad = tensor_ops.maxpool2d_backward(x_in, layer.window, grad)
        else:
            grad, gw, gb = tensor_ops.conv2d_backward(
                x_in, layer.weight, grad, layer.padding
            )
            updates.append((layer, gw, gb))
    return loss, updates


def test_training_step_is_bitwise_the_default_kernels(workers):
    """On one part or on the pool, with more workers than CPUs or rows."""
    ds = make_blobs(24, 3, 8, seed=6)
    net = build_reference_cnn((1, 8, 8), 3, seed=7)
    for count in (1, 2, 3):
        workers(count)
        for n in (24, 2, 1):
            images, labels = ds.images[:n], ds.labels[:n]
            loss, updates = _batch_loss_and_grad(net, images, labels)
            want_loss, want = batch_step_loop(net, images, labels)
            assert loss == want_loss, (count, n)
            assert len(updates) == len(want) == 4
            for (layer, gw, gb), (want_layer, want_gw, want_gb) in zip(
                updates, want
            ):
                assert layer is want_layer
                assert_bitwise(gw, want_gw)
                assert_bitwise(gb, want_gb)


def test_training_is_bitwise_sgd_over_the_stack_order_step(monkeypatch, workers):
    """Two epochs of train_reference_cnn write the .xnet bytes of the same
    SGD driven by batch_step_loop, which runs each Relu before its pool,
    on one part or on 2 or 3 workers, with a trailing batch of 12 or of 1
    image, or batches of 1. Blank image rows give conv outputs whose
    windows tie, some at or below zero, so the pool backward's tie pass
    runs too."""
    ties = []
    keep_first_hits = tensor_ops._keep_first_hits
    monkeypatch.setattr(
        tensor_ops, "_keep_first_hits",
        lambda hit: ties.append(hit.shape) or keep_first_hits(hit),
    )
    for images, batch_size in ((60, 16), (49, 16), (10, 1)):
        ds = make_blobs(images, 3, 8, seed=2)
        ds.images[::3, :, :4] = 0.0
        ds.images[1::3, :, :, 2:] = -0.0
        cfg = TrainConfig(epochs=2, batch_size=batch_size, seed=4)
        want = build_reference_cnn((1, 8, 8), 3, cfg.seed)
        shuffle = Stream(derive_seed(cfg.seed, "epoch-shuffle"))
        lr = np.float32(cfg.learning_rate)
        for _ in range(cfg.epochs):
            order = shuffle.permutation(images)
            for start in range(0, images, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _, updates = batch_step_loop(want, ds.images[idx], ds.labels[idx])
                for layer, gw, gb in updates:
                    layer.weight -= lr * gw
                    layer.bias -= lr * gb
        for count in (1, 2, 3):
            workers(count)
            ties.clear()
            net = train_reference_cnn(ds.images, ds.labels, cfg)
            assert ties, (images, batch_size, count)
            assert _encode_network(net) == _encode_network(want), (
                images, batch_size, count
            )


def test_training_step_does_each_piece_of_work_once(monkeypatch, workers):
    """The forward pass convolves and pools each layer once per part of the
    batch; backward re-pools nothing and computes no gradient for the
    images, so the only conv2d inside conv2d_backward is the second conv's
    input gradient. Each Relu that feeds a pool runs, and is
    differentiated, on the pooled values of its part; the dense head runs
    once on the whole batch."""
    calls = defaultdict(int)
    in_backward = []
    conv, conv_backward, pool = (
        tensor_ops.conv2d, tensor_ops.conv2d_backward, tensor_ops.maxpool2d
    )
    relu_backward = tensor_ops.relu_backward
    relu_shapes, relu_backward_shapes = [], []

    def counted_conv(*args, **kwargs):
        calls["conv2d in backward" if in_backward else "conv2d"] += 1
        return conv(*args, **kwargs)

    def counted_conv_backward(*args, **kwargs):
        in_backward.append(True)
        try:
            return conv_backward(*args, **kwargs)
        finally:
            in_backward.pop()

    def counted_pool(*args, **kwargs):
        calls["maxpool2d"] += 1
        return pool(*args, **kwargs)

    # building the net checks its shapes on an empty batch: not counted
    net = build_reference_cnn((1, 8, 8), 3, seed=5)
    ds = make_blobs(12, 3, 8, seed=4)
    monkeypatch.setattr(tensor_ops, "conv2d", counted_conv)
    monkeypatch.setattr(tensor_ops, "conv2d_backward", counted_conv_backward)
    monkeypatch.setattr(tensor_ops, "maxpool2d", counted_pool)
    monkeypatch.setattr(
        tensor_ops, "relu", lambda x: relu_shapes.append(x.shape) or relu(x)
    )
    monkeypatch.setattr(
        tensor_ops, "relu_backward",
        lambda x, g: relu_backward_shapes.append((x.shape, g.shape))
        or relu_backward(x, g),
    )
    for parts in (1, 2):
        workers(parts)
        calls.clear()
        relu_shapes.clear()
        relu_backward_shapes.clear()
        _batch_loss_and_grad(net, ds.images, ds.labels)
        assert calls == {
            "conv2d": 2 * parts, "conv2d in backward": parts, "maxpool2d": 2 * parts
        }
        rows = 12 // parts
        pooled = [(rows, 8, 4, 4), (rows, 16, 2, 2)] * parts + [(12, 64)]
        # parts run concurrently, so their calls interleave in any order
        assert sorted(relu_shapes) == sorted(pooled)
        assert sorted(relu_backward_shapes) == sorted((x, x) for x in pooled)
        if parts == 1:
            assert relu_shapes == pooled
            assert relu_backward_shapes == [(x, x) for x in reversed(pooled)]


@pytest.mark.parametrize("kernel", ["conv2d_columns", "conv2d_backward"])
def test_pooled_step_raises_a_parts_own_exception(monkeypatch, workers, kernel):
    """With 2 workers, an exception raised in the second part's forward or
    backward conv work reaches the caller as itself; when both parts
    fail, the first part's does."""
    workers(2)
    ds = make_blobs(8, 3, 8, seed=6)
    net = build_reference_cnn((1, 8, 8), 3, seed=7)
    # each part's first image carries a mark: rows 0-3 and 4-7
    ds.images[0, 0, 0, 0], ds.images[4, 0, 0, 0] = 0.25, 0.75
    failures = {}
    original = getattr(tensor_ops, kernel)

    def failing(x, *args, **kwargs):
        error = failures.get(float(x[0, 0, 0, 0])) if x.shape[1] == 1 else None
        if error is not None:
            raise error
        return original(x, *args, **kwargs)

    monkeypatch.setattr(tensor_ops, kernel, failing)
    for mark, name in ((0.75, "second"), (0.25, "first")):
        failures[mark] = error = RuntimeError(f"{name} part")
        with pytest.raises(RuntimeError) as caught:
            _batch_loss_and_grad(net, ds.images, ds.labels)
        assert caught.value is error


def _with_big_weights(net):
    for layer in net.layers:
        if layer.weight is not None:
            layer.weight[...] = 1e20
    return net


@pytest.mark.parametrize("count", [1, 2])
def test_training_step_uses_the_callers_errstate(monkeypatch, workers, count):
    """1e20 weights overflow in the second conv, which runs in the parts."""
    workers(count)
    big = _with_big_weights(build_reference_cnn((1, 8, 8), 3, seed=7))
    x = np.ones((8, 1, 8, 8), np.float32)
    y = np.arange(8) % 3
    # under the suite's warnings-as-errors, a part that ignored the
    # caller's errstate would raise a RuntimeWarning here
    with np.errstate(all="ignore"):
        loss, _ = _batch_loss_and_grad(big, x, y)
    assert not np.isfinite(loss)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        _batch_loss_and_grad(big, x, y)
    build = network.build_reference_cnn
    monkeypatch.setattr(
        network, "build_reference_cnn", lambda *args: _with_big_weights(build(*args))
    )
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        train_reference_cnn(x, y, TrainConfig(epochs=1, batch_size=8))


@pytest.mark.parametrize("count", [1, 2])
def test_diverging_training_names_its_epoch(workers, count):
    workers(count)
    ds = make_blobs(40, 3, 8, seed=1)
    cfg = TrainConfig(epochs=3, learning_rate=1e30, batch_size=8, seed=2)
    with np.errstate(all="ignore"), pytest.raises(
        TrainingDivergedError, match="epoch 0"
    ) as caught:
        train_reference_cnn(ds.images, ds.labels, cfg)
    assert caught.value.epoch == 0


def _train_in_child(images, labels, cfg, conn):
    conn.send(_encode_network(train_reference_cnn(images, labels, cfg)))


# a fork of a process whose pool threads are running is the point here
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork"
)
def test_forked_child_trains_bitwise_as_its_parent(workers):
    workers(2)
    ds = make_blobs(40, 3, 8, seed=3)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=5)
    # the parent's pool now has threads
    parent = _encode_network(train_reference_cnn(ds.images, ds.labels, cfg))
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(
        target=_train_in_child, args=(ds.images, ds.labels, cfg, send)
    )
    child.start()
    try:
        assert receive.poll(60), "the forked child's training hung"
        got = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert got == parent


def accuracy_loop(net, images, labels, batch_size):
    """The per-batch accuracy loop evaluate_accuracy used to keep."""
    correct = 0
    for start in range(0, images.shape[0], batch_size):
        result = forward_with_taps(net, images[start : start + batch_size])
        correct += int(
            (result.predictions == labels[start : start + batch_size]).sum()
        )
    return correct / images.shape[0]


def test_training_reaches_high_accuracy(trained):
    net, ds = trained
    accuracy = evaluate_accuracy(net, ds.images, ds.labels)
    assert accuracy >= 0.95
    for batch_size in (1, 7, 256):
        assert accuracy == accuracy_loop(net, ds.images, ds.labels, batch_size)


def test_training_input_validation():
    ds = make_blobs(30, 3, 8, seed=1)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ContractError, match="labels shape"):
        train_reference_cnn(ds.images, ds.labels[:-1], cfg)
    with pytest.raises(ContractError, match="0, 1"):
        train_reference_cnn(ds.images + 10.0, ds.labels, cfg)
    with pytest.raises(ContractError, match="2 classes"):
        train_reference_cnn(ds.images, np.zeros(30, np.int64), cfg)
    for epochs in (1, 0):
        for rate in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ContractError, match="learning rate"):
                train_reference_cnn(
                    ds.images, ds.labels, TrainConfig(epochs, learning_rate=rate)
                )
        with pytest.raises(ContractError, match="batch size"):
            train_reference_cnn(ds.images, ds.labels, TrainConfig(epochs, batch_size=0))


def test_class_count_inferred_from_labels():
    ds = make_blobs(40, 4, 8, seed=3)
    net = train_reference_cnn(ds.images, ds.labels, TrainConfig(epochs=0))
    assert net.num_classes == 4


def test_save_load_round_trip(tmp_path, trained):
    net, ds = trained
    path = tmp_path / "model.xnet"
    save_network(net, path)
    back = load_network(path)
    assert networks_equal(net, back)
    # behavior identical, not just parameters
    r1 = forward_with_taps(net, ds.images[:8])
    r2 = forward_with_taps(back, ds.images[:8])
    np.testing.assert_array_equal(r1.probabilities, r2.probabilities)


def test_load_error_reporting(tmp_path, toy_net):
    path = tmp_path / "model.xnet"
    save_network(toy_net, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.xnet"
    bad.write_bytes(raw[:5])
    with pytest.raises(FormatError, match="truncated"):
        load_network(bad)
    bad.write_bytes(b"WHAT" + raw[4:])
    with pytest.raises(FormatError, match="magic"):
        load_network(bad)
    bad.write_bytes(raw[:4] + b"\x09" + raw[5:])
    with pytest.raises(FormatError, match="version"):
        load_network(bad)
    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        load_network(bad)
    bad.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_network(bad)


def patch_manifest(raw: bytes, old: bytes, new: bytes) -> bytes:
    """Replace text in an XNET manifest, keeping its length prefix right."""
    (length,) = struct.unpack_from("<I", raw, 5)
    manifest = raw[9 : 9 + length].replace(old, new)
    return raw[:5] + struct.pack("<I", len(manifest)) + manifest + raw[9 + length :]


def test_load_rejects_inconsistent_manifest(tmp_path, toy_net):
    path = tmp_path / "model.xnet"
    save_network(toy_net, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.xnet"
    rank2_kernel, short_bias = copy.deepcopy(toy_net), copy.deepcopy(toy_net)
    rank2_kernel.layers[0].weight = toy_net.layers[0].weight.reshape(8, 9)
    short_bias.layers[7].bias = toy_net.layers[7].bias[:63]
    # a wrong class count or stride, a renamed key leaving num_classes
    # missing, a bad number, a blob name that is not UTF-8 and parameters
    # of the wrong shape
    for patched, match in (
        (raw.replace(b"num_classes=3", b"num_classes=7"), "inconsistent"),
        (raw.replace(b"layer0.stride=1", b"layer0.stride=0"), "layer 0: bad stride"),
        (raw.replace(b"num_classes=3", b"num_clauses=3"), "missing key 'num_classes'"),
        (raw.replace(b"num_classes=3", b"num_classes=x"),
         "bad value 'x' for key 'num_classes'"),
        (raw.replace(b"layer0.weight", b"\xffayer0.weight"), 
         r"XNET blob name in \S*bad\.xnet is not UTF-8"),
        (_encode_network(rank2_kernel), "layer 0: kernel must have 4 axes"),
        (_encode_network(short_bias), "layer 7: bias has 63 entries for 64 outputs"),
    ):
        bad.write_bytes(patched)
        with pytest.raises(FormatError, match=match):
            load_network(bad)


def with_blob(raw: bytes, name: bytes, tensor: np.ndarray) -> bytes:
    """An XNET file with one more blob after its last, and its count raised."""
    (length,) = struct.unpack_from("<I", raw, 5)
    at = 9 + length
    (count,) = struct.unpack_from("<I", raw, at)
    blob = struct.pack("<I", len(name)) + name + encode_tensor(tensor)
    return raw[:at] + struct.pack("<I", count + 1) + raw[at + 4 :] + blob


def test_load_refuses_repeated_and_unread_blobs(tmp_path, toy_net):
    """A second ``layer0.bias`` would overwrite the first, and neither a
    stray name nor a weight for layer 1, a Relu, is read by any layer."""
    assert toy_net.layers[1].kind is LayerKind.RELU
    raw = _encode_network(toy_net)
    path = tmp_path / "bad.xnet"
    for name, tensor, match in (
        (b"layer0.bias", np.full(8, 7.0, np.float32), "repeats blob 'layer0.bias'"),
        (b"junk", np.zeros(1, np.float32), "blob 'junk' belongs to no layer"),
        (b"layer1.weight", np.ones((8, 1, 3, 3), np.float32),
         "blob 'layer1.weight' belongs to no layer"),
    ):
        path.write_bytes(with_blob(raw, name, tensor))
        with pytest.raises(FormatError, match=match):
            load_network(path)


@pytest.mark.parametrize(
    "patches",
    [
        [(b"input_shape=1,8,8", b"input_shape=1,9999,99999")],
        # extents numpy cannot index, even in an empty array
        [(b"input_shape=1,8,8", b"input_shape=1,4294967296,4294967296")],
        [(b"layer0.padding=1", b"layer0.padding=99999999999999999999")],
        [(b"layer0.padding=1", b"layer0.padding=65537")],
        # a pool window of 4096 x 4096 cells on an empty batch
        [(b"input_shape=1,8,8", b"input_shape=1,4096,4096"),
         (b"layer2.window=2", b"layer2.window=4096")],
        # a 16384 x 16384 window that would tile conv0's 2**31-value output
        # and pool it to 1 x 1; conv0's 9 * 2**28-value im2col buffer is
        # refused first
        [(b"input_shape=1,8,8", b"input_shape=1,16384,16384"),
         (b"layer2.window=2", b"layer2.window=16384"),
         (b"layer2.stride=2", b"layer2.stride=16384")],
    ],
)
def test_load_checks_declared_shapes_without_allocating(tmp_path, toy_net, patches):
    path = tmp_path / "model.xnet"
    save_network(toy_net, path)
    raw = path.read_bytes()
    for old, new in patches:
        raw = patch_manifest(raw, old, new)
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        started = time.perf_counter()
        with pytest.raises(FormatError, match="inconsistent"):
            load_network(path)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert elapsed < 2.0


def test_oversized_conv_kernel_is_dimension_error():
    # a broadcast kernel allocates nothing; its im2col window view would
    # need more bytes than numpy can address even for an empty batch
    layers = [
        LayerSpec(
            LayerKind.CONV2D,
            weight=np.broadcast_to(np.float32(0), (1, 1, 16384, 16384)),
            bias=np.zeros(1, np.float32),
            padding=65536,
        ),
        LayerSpec(LayerKind.FLATTEN),
        LayerSpec(LayerKind.SOFTMAX),
    ]
    with pytest.raises(DimensionError, match="layer 0: im2col buffer of .* too big"):
        Network(layers, (1, 16384, 16384), 2)


def test_kernel_faults_other_than_shapes_are_not_wrapped(toy_net):
    """Only DimensionError means an inconsistent stack; a bias of strings
    is a caller's bug and keeps numpy's own exception."""
    layers = copy.deepcopy(toy_net.layers)
    layers[0].bias = np.array(["x"] * 8)
    with pytest.raises(ValueError, match="could not convert"):
        Network(layers, toy_net.input_shape, toy_net.num_classes)
