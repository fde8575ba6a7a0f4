"""Per-op A/B of two source trees on one benchmark workload.

    python scripts/op_ab.py PARENT_DIR CHANGE_DIR --workload NAME [--rounds N]

Run it from the repository root.  PARENT_DIR and CHANGE_DIR are source
trees, each holding ``src/busemann`` (for instance two ``git archive``
exports).  The ops and their configs come from ``perfbench/workloads.py`` of
the current directory, which is only read, so both sides run the same
configs at workload seed ``SEED``.  The script alternates the two trees in
fresh Python processes, ``PROCESSES`` per side, the first process of each
pair alternating between the sides.  Each process imports ``busemann.cli``
from its tree, runs every op once untimed (imports, caches, the lazy L_p
modulus curves), then runs every op ``--rounds`` times through
``busemann.cli.main``, timing the call alone, with BLAS threads pinned to 1
and ``PYTHONHASHSEED=0`` as the benchmark does.  A nonzero exit code stops
the script.  It prints, for each op, the minimum and the median over all
timed calls of each side and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PROCESSES = 4
SEED = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The program of one process: argv is [tree, perfbench dir, workload, rounds, seed].
CHILD = r"""
import contextlib, io, json, sys, tempfile, time
from pathlib import Path
tree, bench, workload, rounds, seed = sys.argv[1:]
sys.path[:0] = [str(Path(tree) / "src"), bench]
import busemann.cli as cli
from workloads import WORKLOADS, materialize

ops = WORKLOADS[workload](int(seed)).ops
times = {op.name: [] for op in ops}
with tempfile.TemporaryDirectory() as work:
    materialize(ops, Path(work))
    for r in range(int(rounds) + 1):
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                t0 = time.perf_counter()
                code = cli.main(op.argv)
                dt = time.perf_counter() - t0
            if code != 0:
                sys.exit(f"{op.name}: exit code {code}: {err.getvalue().strip()[-200:]}")
            if r:
                times[op.name].append(dt)
print(json.dumps(times))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_ENV})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_side(tree: Path, workload: str, rounds: int) -> dict:
    """Per-op call times of one fresh process on ``tree``."""
    bench = str(Path.cwd() / "perfbench")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree), bench, workload, str(rounds), str(SEED)],
        capture_output=True, text=True, env=child_env(),
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "busemann" / "cli.py").is_file():
            ap.error(f"{tree} holds no src/busemann/cli.py")
    samples = {"parent": {}, "change": {}}
    for i in range(PROCESSES):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            for op, ts in run_side(getattr(args, side), args.workload, args.rounds).items():
                samples[side].setdefault(op, []).extend(ts)
    print(f"{args.workload}: {PROCESSES} processes x {args.rounds} rounds per side, times in ms")
    print(f"{'op':32} {'parent min':>10} {'median':>8} {'change min':>10} {'median':>8} {'ratio':>6}")
    for op, ts in samples["parent"].items():
        cs = samples["change"][op]
        pm, cm = statistics.median(ts), statistics.median(cs)
        print(f"{op:32} {1e3 * min(ts):10.3f} {1e3 * pm:8.3f} "
              f"{1e3 * min(cs):10.3f} {1e3 * cm:8.3f} {cm / pm:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
