"""The benchmark under ``perfbench/`` wraps package functions by name; a
rename that breaks those lookups fails here instead of in every benchmark
run."""

from pathlib import Path

import xood
from xood import pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_instrumentation_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_trace

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
