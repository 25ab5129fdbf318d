"""The benchmark under ``perfbench/`` wraps package functions by name; a
rename that breaks those lookups fails here instead of in every benchmark
run."""

from pathlib import Path

import pytest

import xood
from xood import (cli, datasets, distortions, features, logistic, mahalanobis,
                  network, pipeline, tensor_ops, xten)
from xood.datasets import make_blobs
from xood.network import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (xood, cli, datasets, distortions, features, logistic, mahalanobis,
           network, pipeline, tensor_ops, xten)


def assert_bindings_restored(before):
    """Every module attribute is the object it was in ``before``."""
    for module, bindings in zip(MODULES, before):
        for attr, value in bindings.items():
            assert vars(module)[attr] is value, f"{module.__name__}.{attr}"


@pytest.fixture
def bench_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_trace

    return bench_trace


def test_benchmark_instrumentation_installs_and_uninstalls(bench_trace):
    original = pipeline.run_network
    hooks = bench_trace.Instrumentation(bench_trace.Tracer(), 28)
    hooks.install()
    try:
        assert pipeline.run_network is not original
        assert pipeline.run_network.__wrapped__ is original
    finally:
        hooks.uninstall()
    assert pipeline.run_network is original
    assert xood.run_network is original


def test_traced_training_step_labels_every_kernel_span(bench_trace):
    """The tracer labels conv and pool spans by layer from their first
    argument and reads the shape of what conv2d returns; a kernel signature
    that breaks either shows up as a missing or stray span name."""
    before = [dict(vars(module)) for module in MODULES]
    families = dict(distortions.DISTORTION_FAMILIES)
    ds = make_blobs(16, 3, 8, seed=1)
    tracer = bench_trace.Tracer()
    hooks = bench_trace.Instrumentation(tracer, 8)
    hooks.install()
    try:
        network.train_reference_cnn(
            ds.images, ds.labels, TrainConfig(epochs=1, batch_size=16)
        )
    finally:
        hooks.uninstall()
    names = set(tracer.calls)
    for kernel in ("conv2d", "conv2d_backward", "maxpool2d", "maxpool2d_backward"):
        assert {f"tensor_ops.{kernel}.l1", f"tensor_ops.{kernel}.l2"} <= names
    assert {n for n in names if n.startswith("tensor_ops.conv2d.")} == {
        "tensor_ops.conv2d.l1", "tensor_ops.conv2d.l2"
    }
    assert_bindings_restored(before)
    assert distortions.DISTORTION_FAMILIES == families


def test_traced_scoring_spans_one_forward_call_per_request(bench_trace):
    """Scoring 1 or 130 images runs one forward_with_taps call of one or
    three blocks: the benchmark counts images_forwarded from that call's
    argument and labels each block's conv and pool spans, so every kernel
    must still be looked up through its module at call time, and
    reduce_tap through the pipeline module, once per tap per block. No
    kernel after the last tap runs."""
    before = [dict(vars(module)) for module in MODULES]
    ds = make_blobs(330, 3, 8, seed=2)
    train, rest = ds.images[:200], ds.images[200:]
    net = network.train_reference_cnn(
        train, ds.labels[:200], TrainConfig(epochs=2, batch_size=16)
    )
    bundle = pipeline.fit_m_bundle(
        net, datasets.Dataset(train, ds.labels[:200]), datasets.Dataset(rest[:60])
    )
    for n, blocks in ((1, 1), (130, 3)):
        tracer = bench_trace.Tracer()
        hooks = bench_trace.Instrumentation(tracer, 8)
        hooks.install()
        try:
            with tracer.fitting():
                pipeline.score_images(bundle, net, ds.images[:n])
        finally:
            hooks.uninstall()
        calls = tracer.calls
        assert calls["pipeline.run_network"] == calls["network.forward_with_taps"] == 1
        assert calls["features.apply_power_transform"] == 1
        assert tracer.counts["pipeline.images_forwarded"] == n
        for kernel in ("conv2d", "maxpool2d"):
            assert {m for m in calls if m.startswith(f"tensor_ops.{kernel}.")} == {
                f"tensor_ops.{kernel}.l1", f"tensor_ops.{kernel}.l2"
            }
            assert calls[f"tensor_ops.{kernel}.l1"] == blocks
            assert calls[f"tensor_ops.{kernel}.l2"] == blocks
        # scoring stops each block at its last tap: the last Relu, the
        # last dense layer and the softmax do not run
        assert calls["features.reduce_tap"] == 3 * blocks
        assert calls["tensor_ops.relu"] == 2 * blocks
        assert calls["tensor_ops.dense"] == blocks
        assert "tensor_ops.softmax" not in calls
        assert_bindings_restored(before)


def test_benchmark_set_up_and_requests_run_clean(monkeypatch, tmp_path):
    """One set-up and three 4-image requests of the benchmark at its smoke
    scale and seed: this runs the calls ``bench_workloads`` makes itself,
    ``Stream.integers``, ``derive_seed``, its ``xood`` argv and the manifest
    keys its stage checks read, so a change to any of them fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_trace
    import bench_workloads

    tracer = bench_trace.Tracer()
    bench = bench_workloads.Bench(
        tmp_path, bench_workloads.SMOKE, 2, False, tracer,
        bench_trace.Instrumentation(tracer, bench_workloads.SMOKE.side),
    )
    pool, is_id = bench.generate_inputs()
    bench.cli_flow(traced=False)
    loaded = bench.load()
    ref = bench.reference(loaded, pool, is_id, traced=False)
    bench.requests(loaded, pool, ref, 4, lambda measured: measured < 3)
    samples = bench.samples
    assert len(samples.times["untraced"]["m"]) == 3
    assert samples.attempted == 7 and samples.failed == 0
