"""Benchmark of the busemann CLI: one workload per call, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ``src/``.
Every measurement happens in fresh single-threaded child processes
(``child.py``) with BLAS threads pinned to 1 in their environment.

``--trace 0`` starts several children: the first sets up and measures
passes over the workload's operation list for ``--seconds``; the others
only set up (at least ``SETUPS`` in all), so ``setup_s`` is a median.
``setup_s`` and ``wall_s`` are scaled to a nominal CPU speed (``speed.py``);
for the start of each set-up, a reference process is started just before
the child.
``--trace 1`` starts one child that alternates untraced and traced passes
and reports per-layer metrics.  The last stdout line is the JSON result;
the lines before it give the run metadata and each metric with its unit.
``--workload all`` runs every workload, prints the lines of each in turn and
ends with one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from layers import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUPS = 3  # set-up repeats per run, at least; cheap set-ups repeat until
SETUP_BUDGET_S = 2.0  # this much set-up time is spent, up to MAX_SETUPS
MAX_SETUPS = 15
DEADLINE_S = 170.0  # every run must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_ENV})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # the child puts src/ first itself
    return env


def run_child(workload, seed, seconds, mode, deadline, extra=()) -> dict:
    args = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, *extra]
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(args + ["--t0", repr(t0)], env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        raise BenchError(f"{workload}: child timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_start(deadline) -> float:
    """Seconds to start and end the reference process of ``speed.py``."""
    t0 = time.monotonic()
    try:
        subprocess.run([sys.executable, *speed.START_REFERENCE], env=child_env(), capture_output=True,
                       check=True, timeout=max(deadline - t0, 0.001))
    except (subprocess.SubprocessError, OSError) as ex:
        raise BenchError(f"reference process failed: {ex}")
    return time.monotonic() - t0


def run_workload(workload, seed, seconds, trace, deadline) -> dict:
    """Run one workload; returns the result object of the output contract
    plus per-op medians and failure reasons for the human-readable lines."""
    if trace:
        main = run_child(workload, seed, seconds, "trace", deadline)
        metrics = main["layers"]
        units = metric_units()
        if main["inexact"]:
            print(f"warning: counters differ between traced passes: {main['inexact']}")
        if main["missing"]:
            print(f"note: not found in the program, reported as 0: {main['missing']}")
        raw = {}
    else:
        setups = []  # (child result, reference seconds)
        while len(setups) < SETUPS or (
            sum(c["setup_raw_s"] for c, _ in setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
        ):
            reference = reference_start(deadline)
            mode = "setup" if setups else "time"
            setups.append((run_child(workload, seed, seconds, mode, deadline), reference))
        main = setups[0][0]
        metrics = {
            "setup_s": statistics.median(
                speed.start_scaled(c["start_raw_s"], reference) + c["lazy_s"] for c, reference in setups
            ),
            "wall_s": statistics.median(main["passes"]),
            "peak_rss_mb": main["rss_mb"],
        }
        units = END_TO_END
        raw = {
            "setup_raw_s": statistics.median(c["setup_raw_s"] for c, _ in setups),
            "start_reference_s": statistics.median(reference for _, reference in setups),
            "wall_raw_s": statistics.median(main["passes_raw"]),
        }
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "raw": raw,
        "op_s": main["op_s"],
        "passes": len(main["passes"]),
        "failures": main["failures"],
    }


def metadata(seed) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "busemann").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = child_env()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
        "blas_env": {name: env[name] for name in BLAS_ENV},
        "parent_blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def report_lines(workload, result) -> list:
    lines = [f"{workload}: {name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    lines += [f"{workload}: {name} = {v:.6g} s (unscaled)" for name, v in result["raw"].items()]
    lines.append(f"{workload}: passes = {result['passes']} (wall_s and per-layer values are medians over them)")
    fail_frac = result["failed"] / result["attempted"]
    lines.append(f"{workload}: fail_frac = {fail_frac:.6g} ratio ({result['failed']}/{result['attempted']} operations)")
    lines += [f"{workload}: op {name} median {t:.6g} s" for name, t in result["op_s"].items()]
    lines += [f"{workload}: FAILED {reason}" for reason in result["failures"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "busemann" / "cli.py").is_file():
        print(f"no busemann sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    print("meta " + json.dumps(metadata(args.seed), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload == "all":
        deadline += DEADLINE_S * (len(names) - 1)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            for line in report_lines(name, results[name]):
                print(line)
    except BenchError as ex:
        print(f"benchmark error: {ex}", file=sys.stderr)
        return 1
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({name: {k: r[k] for k in keys} for name, r in results.items()}))
    else:
        print(json.dumps({k: results[args.workload][k] for k in keys}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
