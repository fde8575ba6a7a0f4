"""Time one compiled cell step of each kernel against its number of term entries.

    PYTHONPATH=src python scripts/step_crossover.py [--sweeps 1000] [--repeats 15]

The table it prints is the measurement behind ``harmonic.FLOAT_STEP_MAX``: a
one-dimensional cell with at most that many entries steps on Python floats,
a larger one on numpy arrays.  For each entry count from 2 to 512 the script
builds two cells on the line joined by that many terms from cell 1 into
cell 0, by seeded translations and point reflections in turn, so that each
cell has that many entries; or by one term fewer plus a reflection
self-loop on each cell.  It runs ``--sweeps`` sweeps of the two cells
through ``harmonic._compiled_sweeps`` with the threshold forced to each
kernel (0 for numpy, the entry count for floats).
Before timing, it checks that both kernels give ``repr``-identical results
on every case, the state and largest move after each sweep included, and
exits 1 naming the first case where they differ, so the table only ever
compares kernels that agree.  Every case runs once per round, the first
round only warms up, and the table holds the best of ``--repeats`` rounds
in microseconds per step (the time of a sweep over 2), so a slow spell of
the machine does not land on one row.  A last line names the largest entry
count at which floats win both with and without a loop.  BLAS is pinned to one
thread, as the benchmark pins it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from busemann import harmonic  # noqa: E402

ENTRIES = (2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 256, 512)


def two_cells(entries: int, loop: bool, rng):
    """The plan and start values of two cells with ``entries`` entries each,
    the last one a reflection self-loop when ``loop``."""
    k = entries - loop
    signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    c1, c2 = [0] * k, [1] * k
    weight, matrix, shift = rng.uniform(0.1, 1.0, k).tolist(), signs.tolist(), rng.uniform(-1.0, 1.0, k).tolist()
    if loop:
        c1, c2 = c1 + [0, 1], c2 + [0, 1]
        weight, matrix, shift = weight + [0.5, 0.5], matrix + [-1.0, -1.0], shift + [0.3, -0.3]
    plan = harmonic.compile_terms(1, c1, c2, weight, matrix, shift)
    return plan, [(0.25,), (float(rng.uniform(-2.0, 2.0)),)]


ROW = harmonic.TraceRow(0, 0.0, (0.0,), 0.0, 0.0, 0.0)


def sweep_cells(plan, values, threshold: int, sweeps: int, evaluate=lambda *_: ROW):
    """``harmonic._compiled_sweeps`` of one case with the kernel threshold
    forced; tol 0 never converges, so every run makes all its sweeps."""
    harmonic.FLOAT_STEP_MAX = threshold
    counts = dict.fromkeys(harmonic.LOCAL_PATHS, 0)
    result = harmonic._compiled_sweeps(plan, values, 0.0, sweeps, evaluate, counts)
    assert counts["linear"] == 2 * sweeps
    return result


def step_us(plan, values, threshold: int, sweeps: int) -> float:
    """Time of one step in a run of ``sweeps`` sweeps of two steps each, in
    microseconds."""
    start = time.perf_counter()
    sweep_cells(plan, values, threshold, sweeps)
    return 1e6 * (time.perf_counter() - start) / (2 * sweeps)


def kernel_record(plan, values, threshold: int, sweeps: int) -> str:
    """The ``repr`` of a run's result and of the state and largest move after
    each of its sweeps."""
    seen = []

    def evaluate(x, sweep, max_move):
        seen.append((x.tolist(), max_move))
        return ROW

    return repr((sweep_cells(plan, values, threshold, sweeps, evaluate), seen))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sweeps", type=int, default=1000)
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args()
    # (entries, loop, kernel threshold) -> case; both kernels of every case
    # run once per round, so a slow spell of the machine hits all of them
    runs = {
        (entries, loop, threshold): two_cells(entries, loop, np.random.default_rng([entries, loop]))
        for entries in ENTRIES for loop in (False, True) for threshold in (0, entries)
    }
    for entries, loop in itertools.product(ENTRIES, (False, True)):
        floats, arrays = (kernel_record(*runs[entries, loop, t], t, args.sweeps) for t in (entries, 0))
        if floats != arrays:
            sys.exit(f"the kernels differ at {entries} entries {'with' if loop else 'without'} a loop")
    best = dict.fromkeys(runs, float("inf"))
    for round_ in range(args.repeats + 1):
        for key, case in runs.items():
            elapsed = step_us(*case, key[2], args.sweeps)
            if round_:  # the first round only warms up
                best[key] = min(best[key], elapsed)
    print(f"one cell step in microseconds (best of {args.repeats} rounds of {args.sweeps} sweeps)")
    print("| Entries | Points: numpy | Points: floats | With a loop: numpy | With a loop: floats |")
    print("|---|---|---|---|---|")
    for entries in ENTRIES:
        cells = [best[entries, loop, threshold] for loop in (False, True) for threshold in (0, entries)]
        print(f"| {entries} | " + " | ".join(f"{t:.1f}" for t in cells) + " |")
    wins = [e for e in ENTRIES if all(best[e, loop, e] < best[e, loop, 0] for loop in (False, True))]
    print(f"largest entry count at which floats win in both columns: {max(wins, default='none')}")


if __name__ == "__main__":
    main()
