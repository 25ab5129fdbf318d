"""Run one xood benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload score-bulk|score-online \\
        --seed N --seconds S --trace 0|1 [--smoke]

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
installs span recorders around the public functions of each ``src/xood``
module, alternates traced and untraced operations, and prints the per-layer
metrics with the trace accounting. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
record (machine block, sample counts, all values) and, when traced, the
spans go to ``.perfbench_work/results/``. ``--smoke`` runs the same code at
tiny sizes, for ``perfbench/smoke.py``.

The BLAS thread count is pinned to one before numpy loads. The program is
imported from ``src/``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("score-bulk", "score-online")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own checks")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "xood" / "__init__.py").is_file():
        print(f"error: no xood sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import logging

    # configured before xood.cli.main's own INFO-level basicConfig, which then
    # does nothing: a library caller keeps per-epoch logging off
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    from bench_machine import machine_block
    from bench_metrics import END_TO_END, PER_LAYER, per_layer_values
    from bench_trace import Instrumentation, Tracer
    from bench_workloads import (FULL, SMOKE, WORKLOADS, Bench, end_to_end, latency_ms,
                                 prepare_workdir, summary)

    scale = SMOKE if args.smoke else FULL
    trace = bool(args.trace)
    machine = machine_block(ROOT, args.seed, BLAS_THREADS)
    work = prepare_workdir(ROOT, args.workload)
    tracer = Tracer()
    bench = Bench(work, scale, args.seed, trace, tracer, Instrumentation(tracer, scale.side))
    try:
        WORKLOADS[args.workload](bench, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1

    samples = bench.samples
    untraced = end_to_end(samples, "untraced")
    if trace:
        traced = end_to_end(samples, "traced")
        # tracing must not change outputs: accuracy and AUROCs are bit-for-bit equal
        quality = ("train_accuracy", "auroc_m", "auroc_l")
        samples.count(all(traced[k] == untraced[k] for k in quality),
                      "traced and untraced accuracy and AUROC agree")
        p50 = {path: latency_ms(samples, "untraced", path, 50) for path in ("forward", "m", "l")}
        values = per_layer_values(tracer, untraced, traced, p50, machine["l2_bytes"])
        spec = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = untraced
        spec = [(name, unit) for name, unit, _, _ in END_TO_END]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}

    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine,
        "scale": dataclasses.asdict(scale),
        "samples": {mode: summary(samples, mode) for mode in ("untraced", "traced")},
        "attempted": samples.attempted, "failed": samples.failed,
        "end_to_end_untraced": untraced, "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tracer.write(results / f"{stem}.spans.npz")
    shutil.rmtree(work, ignore_errors=True)

    print(f"machine: {json.dumps(machine)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops_attempted={samples.attempted} ops_failed={samples.failed} "
          f"samples={json.dumps(record['samples']['untraced']['counts'])}")
    for name, unit in spec:
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
