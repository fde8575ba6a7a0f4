"""Solve the dihedral line model end to end and print the energy trace.

    PYTHONPATH=src python scripts/run_dihedral.py [--cells N] [--tol TOL]

``--tol`` is the tolerance of the edge-energy solve; the kernel solve runs
at 1e-9.  The same run is reproducible through the CLI with an equivalent
config.
"""

import argparse

from busemann.commensurability import comm_energy_model, subgroup_harmonic
from busemann.harmonic import minimize_energy
from busemann.models import dihedral_line_model


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cells", type=int, default=3)
    ap.add_argument("--tol", type=float, default=1e-11)
    args = ap.parse_args()

    gm = dihedral_line_model(args.cells)
    rep = minimize_energy(gm.problem, gm.init, tol=args.tol, max_sweeps=2000)
    print(f"edge-energy minimizer ({args.cells} cells):")
    for row in rep.trace[:3]:
        print(f"  sweep {row.sweep:3d}  E = {row.energy_total:.12f}  max_move = {row.max_move:.2e}")
    print("  ...")
    row = rep.trace[-1]
    print(f"  sweep {row.sweep:3d}  E = {row.energy_total:.12f}  max_move = {row.max_move:.2e}")
    print(f"  solution: {[v[0] for v in rep.solution.values]}")

    m = comm_energy_model(gm.problem)
    rep2 = subgroup_harmonic(m, tol=1e-9, seed=0)
    print("all-pairs kernel minimizer:")
    print(f"  I = {rep2.energy_total:.12f}, unique = {rep2.extras['unique']}")
    print(f"  solution: {[round(v[0], 9) for v in rep2.solution.values]}")


if __name__ == "__main__":
    main()
