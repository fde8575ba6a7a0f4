"""One fresh benchmark process: set up a workload, run its operation list in
passes, check every result and print one JSON line for ``run.py``.

    python child.py --root DIR --workload NAME --seed N --seconds S
                    --mode {time,setup,trace} --t0 MONOTONIC_START [--ballast K]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is system-wide, so the set-up covers interpreter
start, imports, config generation and the lazy work of the workload.  It is
reported in two parts: ``start_raw_s``, up to the end of the imports, as
measured, and ``lazy_s``, the rest, scaled to the nominal CPU speed.  Mode
``setup`` stops there; ``time`` runs untraced passes; ``trace`` alternates
untraced and traced passes.  Each op is timed around ``busemann.cli.main``
only; its check runs afterwards.  In ``time`` and ``setup`` mode a
``SpeedProbe`` runs throughout, and pass times are reported both as measured
and scaled to the nominal CPU speed (see ``speed.py``).  ``--ballast K`` keeps
K extra small objects alive during the passes; ``selftest.py --heap`` uses
it to check that the speed probe does not depend on the program's heap.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("time", "setup", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--ballast", type=int, default=0)
    return ap.parse_args(argv)


def capture_comm_extras(cli, sink: list) -> None:
    """Record ``SolveReport.extras`` of every commensurability solve the CLI
    runs (the CLI writes no restart data).  The wrapper resolves the solver
    through its module, so a tracer patched there still sees the call."""
    import busemann.commensurability as comm

    def subgroup_harmonic(*args, **kwargs):
        report = comm.subgroup_harmonic(*args, **kwargs)
        sink.append(report.extras)
        return report

    cli.subgroup_harmonic = subgroup_harmonic


def run_op(cli, op) -> tuple[float, int, str]:
    """Time one CLI call; return (seconds, exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(op.argv)
        dt = time.perf_counter() - t0
    return dt, code, err.getvalue()


def run_pass(cli, ops, comm_sink, failures: list, op_times: dict, probe) -> tuple[float, float, int]:
    """One pass over the op list.  Returns (seconds, seconds at the nominal
    CPU speed, failed ops); without a probe both times are as measured."""
    from workloads import check_op

    elapsed = 0.0
    sampled = [0, 0.0, 0.0]  # probes, timed loop seconds, handler seconds
    failed = 0
    for op in ops:
        comm_sink.clear()
        mark = probe.mark() if probe else None
        dt, code, err = run_op(cli, op)
        elapsed += dt
        op_times.setdefault(op.name, []).append(dt)
        if probe:
            sampled = [a + b for a, b in zip(sampled, probe.since(mark))]
        reason = check_op(op, code, comm_sink)
        if reason is not None:
            failed += 1
            failures.append(f"{op.name}: {reason} {err.strip()[-200:]}".strip())
    own, at_nominal = speed.scaled(elapsed, *sampled)
    return own, at_nominal, failed


def oracle_checks(cli, workload, work: Path, failures: list) -> tuple[int, int]:
    """Cross-check small tree instances against the exhaustive grid oracle:
    the solver's energy may sit neither above the grid minimum nor below it
    by more than the grid's resolution bound."""
    from busemann.oracles import grid_minimum_energy
    from workloads import Op, materialize

    attempted = failed = 0
    for name, config, coarse in workload.oracle_configs:
        attempted += 1
        op = Op(name, config)
        materialize([op], work / "oracle")
        _, code, _ = run_op(cli, op)
        reason = None if code == 0 else f"exit code {code}"
        if reason is None:
            energy = json.loads((op.out / "summary.json").read_text())["final_energy"]
            prob = cli.parse_config(op.argv[1]).problem
            _, e_grid, bound = grid_minimum_energy(prob, coarse=coarse)
            if energy > e_grid + 1e-5 or e_grid > energy + bound + 1e-5:
                reason = f"solver {energy!r} vs grid {e_grid!r} (bound {bound:.2e})"
        if reason is not None:
            failed += 1
            failures.append(f"{name}: {reason}")
    return attempted, failed


def measure(cli, workload, work, args, tracer, probe) -> dict:
    import layers

    comm_sink: list = []
    capture_comm_extras(cli, comm_sink)
    failures: list = []
    untraced, at_nominal, traced, pass_metrics = [], [], [], []
    op_times: dict = {}
    attempted = failed = 0
    probe_mark = probe.mark() if probe else None
    start = time.perf_counter()
    while True:
        dt, dt_nominal, bad = run_pass(cli, workload.ops, comm_sink, failures, op_times, probe)
        untraced.append(dt)
        at_nominal.append(dt_nominal)
        attempted += len(workload.ops)
        failed += bad
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                dt, _, bad = run_pass(cli, workload.ops, comm_sink, failures, {}, None)
            finally:
                tracer.uninstall()
            traced.append(dt)
            pass_metrics.append(tracer.pass_metrics())
            attempted += len(workload.ops)
            failed += bad
        # stop at the pass boundary nearest to the requested duration
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(untraced) >= args.seconds:
            break
    probes, probe_s, _ = probe.since(probe_mark) if probe else speed.NO_PROBES
    a, f = oracle_checks(cli, workload, work, failures)
    out = {
        "passes": at_nominal,
        "passes_raw": untraced,
        "op_s": {name: statistics.median(ts) for name, ts in op_times.items()},
        "attempted": attempted + a,
        "failed": failed + f,
        "failures": failures[:20],
        "probe_ms": 1e3 * probe_s / probes if probes else None,
    }
    if tracer is not None:
        metrics = layers.combine(pass_metrics)
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
        out["layers"] = metrics
        out["inexact"] = layers.exact_mismatches(pass_metrics)
        out["missing"] = tracer.missing
    return out


def run(args, probe) -> dict:
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import busemann
    import busemann.cli as cli
    import busemann.mapspace as mapspace

    import layers
    from workloads import WORKLOADS, materialize

    if Path(busemann.__file__).resolve().parent != (root / "src" / "busemann").resolve():
        raise RuntimeError(f"busemann imported from {busemann.__file__}, not from {root / 'src'}")
    start_mark = probe.mark() if probe else speed.NO_PROBES
    started = time.monotonic()
    start_raw = started - args.t0 - start_mark[2]
    tracer = layers.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()  # during set-up only to time the modulus curves
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed)
        materialize(workload.ops, work)
        for p in workload.lazy_exponents:
            mapspace.banach_lp_modulus(p, 1.0)  # looked up late: the tracer may patch it
        lazy_elapsed = time.monotonic() - started
        if tracer is not None:
            tracer.uninstall()
        lazy_raw, lazy_nominal = speed.scaled(
            lazy_elapsed,
            *(probe.since(start_mark) if probe else speed.NO_PROBES),
        )
        result = {"start_raw_s": start_raw, "lazy_s": lazy_nominal, "setup_raw_s": start_raw + lazy_raw}
        if args.mode != "setup":
            ballast = [[i] for i in range(args.ballast)]
            result.update(measure(cli, workload, work, args, tracer, probe))
            del ballast
            result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.mode == "trace":
        result = run(args, None)
    else:
        with speed.SpeedProbe() as probe:
            result = run(args, probe)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
