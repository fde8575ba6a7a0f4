"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]
    python3 perfbench/selftest.py --heap [--seed N] [--seconds S] [--pairs P] [WORKLOAD ...]

Run from the repository root.  Checks that ``BENCHMARK.json`` names exactly
the metrics the benchmark prints, then runs each workload traced twice at
the same seed and asserts that every exact-repeat counter (sweeps, kernel
terms, pattern-search calls, primitive call counts) is identical across the
two runs and that no operation failed.

``--heap`` is a control for the speed scaling of ``speed.py``: it runs the
untraced measurement ``--pairs`` times without and with ``HEAP_OBJECTS``
extra live objects and asserts that neither the mean probe time, the
divisor of the scaling, nor the scaled ``wall_s`` moves by more than
``HEAP_TOLERANCE``.  It also prints how the raw ``wall_s`` moves.  Exits 1
if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import run

HERE = Path(__file__).resolve().parent
HEAP_OBJECTS = 10**6
# Largest allowed change of each median per-pair ratio.  A run's mean probe
# time carries the speed state the machine was in, so it gets more room.
HEAP_TOLERANCE = {"probe_ms": 0.10, "wall_s": 0.05}


def check_declared_metrics() -> list:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    errors = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        errors.append(f"end_to_end {declared} != printed {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != layers.metric_units():
        errors.append(f"per_layer differs from the traced metrics: {set(declared) ^ set(layers.metric_units())}")
    return errors


def traced(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def heap_control(workload, seed, seconds, pairs) -> list:
    """Untraced runs without and with a large extra heap, in pairs whose
    order alternates, so that drift of the machine's speed hits both alike.
    Each metric is compared as the median of its per-pair ratios."""
    runs: dict = {0: [], HEAP_OBJECTS: []}
    deadline = time.monotonic() + 2 * pairs * (seconds + 60)
    for i in range(pairs):
        for ballast in (0, HEAP_OBJECTS) if i % 2 == 0 else (HEAP_OBJECTS, 0):
            result = run.run_child(workload, seed, seconds, "time", deadline, ["--ballast", str(ballast)])
            if result["failed"]:
                raise SystemExit(f"{workload}: {result['failed']} failed operations: {result['failures']}")
            runs[ballast].append({
                "probe_ms": result["probe_ms"],
                "wall_s": statistics.median(result["passes"]),
                "wall_raw_s": statistics.median(result["passes_raw"]),
            })
    errors = []
    for name in ("probe_ms", "wall_s", "wall_raw_s"):
        ratios = [b[name] / a[name] for a, b in zip(runs[0], runs[HEAP_OBJECTS])]
        change = statistics.median(ratios) - 1
        print(f"{workload}: {name} with/without {HEAP_OBJECTS} extra objects, per pair "
              f"{[round(r, 3) for r in ratios]}: median change {change:+.4f}")
        if abs(change) > HEAP_TOLERANCE.get(name, float("inf")):
            errors.append(f"{workload}: {name} moved by {change:+.4f} with a larger heap")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--heap", action="store_true", help="run the heap control instead")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = ap.parse_args(argv)
    if args.heap:
        errors = []
        for workload in args.workloads:
            errors += heap_control(workload, args.seed, args.seconds, args.pairs)
        for error in errors:
            print(f"FAIL {error}")
        print("heap control", "failed" if errors else "passed")
        return 1 if errors else 0
    errors = check_declared_metrics()
    for workload in args.workloads:
        first, second = (traced(workload, args.seed, args.seconds) for _ in range(2))
        for result in (first, second):
            if result["failed"]:
                errors.append(f"{workload}: {result['failed']} failed operations")
        for name, metric in first["metrics"].items():
            if layers.is_exact(name) and metric["value"] != second["metrics"][name]["value"]:
                errors.append(
                    f"{workload}: {name} {metric['value']} != {second['metrics'][name]['value']}"
                )
        counted = sum(1 for name in first["metrics"] if layers.is_exact(name))
        print(f"{workload}: {counted} exact-repeat counters compared")
    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
