"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload with ``--smoke``, untraced and traced, and checks that
each run exits 0, passes every output check (``failed == 0``) and prints
exactly the metric names and units that ``BENCHMARK.json`` lists. It also
checks that a copy holding only ``BENCHMARK.json`` and ``perfbench/`` exits
non-zero without printing a result. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

TIMEOUT_S = 170
# At smoke sizes the classifier does not reach the 0.5 training-accuracy
# check for every seed (seeds 3 and 4 stall near 0.4-0.8); seed 2 trains
# cleanly, so the smoke run exercises the plumbing rather than that limit.
SMOKE_SEED = "2"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SMOKE_SEED,
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_spec() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    want_e2e = [{"name": n, "unit": u, "better": b, "bound": d} for n, u, b, d in END_TO_END]
    if spec["end_to_end"] != want_e2e:
        errors.append("BENCHMARK.json end_to_end differs from bench_metrics.END_TO_END")
    want_layer = [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    if spec["per_layer"] != want_layer:
        errors.append("BENCHMARK.json per_layer differs from bench_metrics.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    return errors


def check_run(workload: str, trace: int) -> list[str]:
    where = f"{workload} trace={trace}"
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} attempted="
                      f"{result['attempted']} failed={result['failed']}")
    expected = ({n: u for n, u, _ in PER_LAYER} if trace
                else {n: u for n, u, _, _ in END_TO_END})
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metric names or units differ: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}")
    if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
        errors.append(f"{where}: an end-to-end metric is not positive")
    return errors


def check_without_sources() -> list[str]:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, WORKLOAD_NAMES[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without src/: expected a non-zero exit and no result"]
    return []


def main() -> int:
    errors = check_spec() + check_without_sources()
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            errors += check_run(workload, trace)
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
