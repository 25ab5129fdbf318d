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
    for module, bindings in zip(MODULES, before):
        for attr, value in bindings.items():
            assert vars(module)[attr] is value, f"{module.__name__}.{attr}"
    assert distortions.DISTORTION_FAMILIES == families
