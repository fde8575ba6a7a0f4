"""Seeded workload definitions: CLI configs, the operation list and the
correctness check of every operation.

Each workload is a fixed list of ``Op``s.  An op is one ``busemann solve`` or
``busemann verify`` call on a config generated here from the workload seed,
plus the check of its outputs.  The seed draws explicit init maps, tree
edge lengths, cell and edge weights, the l_p translation, mirror centres,
and the config seeds behind commensurability restarts and verify sampling;
it never changes the size of a problem, so the work per op stays
comparable across seeds.  Checks read the files the CLI wrote and run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# Energies with no closed form, recorded from this implementation at
# tol 1e-9 (they do not depend on the seed: every minimizer here is unique).
# The all-pairs kernel energy does not depend on the cell count of the
# dihedral model; the index-2 covers carry half of it.
REF_DIHEDRAL6 = 1.1178571428571427  # edge energy, 6 cells (formula is asymptotic)
REF_DIHEDRAL_COVER2 = 1.238095238095238  # edge energy, k=2 cover of 3 cells
REF_COMM_DIHEDRAL = 2.506608010215817
REF_COMM_COVER = 1.2533040051079085

TOL = 1e-9
ENERGY_ZERO = 1e-9  # consensus-type energies
ENERGY_REL = 1e-8  # relative tolerance against closed forms and references


@dataclass
class Op:
    """One CLI call: ``argv`` for ``busemann.cli.main`` and its expected result."""

    name: str
    config: dict
    command: str = "solve"  # or a verify suite name
    expect: Optional[float] = None  # expected final energy (solve ops)
    comm: bool = False  # commensurability op: restarts must agree
    argv: list = field(default_factory=list)
    out: Optional[Path] = None


@dataclass
class Workload:
    ops: list
    lazy_exponents: tuple = ()  # L_p modulus curves every verify process builds
    oracle_configs: list = field(default_factory=list)  # small tree instances


def _config(seed, problem, solver=None, space=None):
    cfg = {"schema": 1, "seed": int(seed), "problem": problem}
    if solver is not None:
        cfg["solver"] = solver
    if space is not None:
        cfg["space"] = space
    return cfg


def _cells(n, weights=None):
    weights = weights if weights is not None else [1.0 / n] * n
    return [{"id": f"c{i}", "weight": float(w)} for i, w in enumerate(weights)]


def _chain(n, twist, weights=None):
    """Edges c_i <-> c_{i+1} in both directions with the same twist."""
    weights = weights if weights is not None else [1.0] * (n - 1)
    edges = []
    for i in range(n - 1):
        w = float(weights[i])
        edges.append({"src": f"c{i}", "dst": f"c{i + 1}", "weight": w, "twist": twist})
        edges.append({"src": f"c{i + 1}", "dst": f"c{i}", "weight": w, "twist": twist})
    return edges


IDENTITY = {"kind": "identity"}
STAR3 = {
    "kind": "tree",
    "vertices": ["c", "l1", "l2", "l3"],
    "edges": [["c", "l1", 1.0], ["c", "l2", 1.0], ["c", "l3", 1.0]],
}


def _tree_point(rng, edge, length):
    """A point 3/4 along the edge, jittered by the seed."""
    return {"edge": edge, "offset": length * float(rng.uniform(0.7, 0.8))}


def _weighted_tree(rng):
    """A fixed 6-vertex topology (a spine with two branches) whose edge
    lengths the seed draws; a random topology would change the sweep count
    several-fold from seed to seed."""
    parents = (0, 1, 2, 1, 2)
    verts = [f"v{i}" for i in range(6)]
    edges = [
        [verts[parent], verts[i + 1], float(rng.uniform(0.8, 1.2))]
        for i, parent in enumerate(parents)
    ]
    return {"kind": "tree", "vertices": verts, "edges": edges}


def _tree_consensus(rng, space, cells, base, weighted=False):
    """Identity chain into a tree, cell i starting on edge i mod #edges."""
    tree_edges = space["edges"]
    weights = None
    edge_weights = None
    if weighted:
        w = rng.uniform(0.8, 1.2, cells)
        weights = list(w / w.sum())
        edge_weights = list(rng.uniform(0.8, 1.2, cells - 1))
    init = [
        _tree_point(rng, i % len(tree_edges), tree_edges[i % len(tree_edges)][2])
        for i in range(cells)
    ]
    return {
        "cells": _cells(cells, weights),
        "edges": _chain(cells, IDENTITY, edge_weights),
        "base_point": base,
        "init": init,
    }


def solve_euclid(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    n = 20
    # a ramp plus small seeded noise: the slow chain mode keeps its amplitude,
    # so the sweep count barely depends on the seed
    init = [[i + float(rng.uniform(-0.1, 0.1))] for i in range(n)]
    consensus = _config(
        seed,
        {"cells": _cells(n), "edges": _chain(n, IDENTITY), "base_point": [0.0], "init": init},
        {"method": "bcd", "tol": TOL, "max_sweeps": 5000},
        {"kind": "euclidean", "dim": 1},
    )
    dihedral = _config(
        seed,
        {"generator": "dihedral-line", "params": {"cells": 200}},
        {"method": "bcd", "tol": TOL},
    )
    norm_minimal = _config(
        seed,
        {"generator": "dihedral-line", "params": {"cells": 6}},
        {"method": "norm-minimal", "tol": TOL},
    )
    cover = _config(
        seed, {"generator": "dihedral-cover", "params": {"k": 2}}, {"method": "bcd", "tol": TOL}
    )
    lex = _config(
        seed,
        {"generator": "product-two-class"},
        {"method": "lexicographic", "tol": TOL, "class_order": [1, 2]},
    )
    return Workload(
        [
            Op("consensus-20", consensus, expect=0.0),
            Op("dihedral-line-200", dihedral, expect=1.0 + math.sqrt(2.0) / 400.0),
            Op("dihedral-line-6-norm-minimal", norm_minimal, expect=REF_DIHEDRAL6),
            Op("dihedral-cover-2", cover, expect=REF_DIHEDRAL_COVER2),
            Op("product-two-class-lex", lex, expect=0.0),
        ]
    )


def solve_tree_lp(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    bcd = {"method": "bcd", "tol": TOL}
    star_base = {"vertex": "c"}
    star = _config(seed, _tree_consensus(rng, STAR3, 6, star_base), bcd, STAR3)
    swap_twist = {"kind": "tree", "vertex_map": {"c": "c", "l1": "l2", "l2": "l1", "l3": "l3"}}
    leafswap = _config(
        seed,
        {
            "cells": _cells(1),
            "edges": [{"src": "c0", "dst": "c0", "weight": 1.0, "twist": swap_twist}],
            "base_point": star_base,
            "init": [_tree_point(rng, 0, 1.0)],
        },
        bcd,
        STAR3,
    )
    tree = _weighted_tree(rng)
    weighted_tree = _config(seed, _tree_consensus(rng, tree, 4, {"vertex": "v0"}, weighted=True), bcd, tree)
    # l_p(2,3) chain closed by a translation: by convexity of the norm every
    # step carries v/4, so the minimum is 4 * (1/4) * |v/4|_3^2 = |v|_3^2 / 16
    u = rng.normal(size=2)
    v = 0.9 * u / float(np.sum(np.abs(u) ** 3) ** (1.0 / 3.0))
    lp_space = {"kind": "lp", "dim": 2, "p": 3.0}
    lp_edges = [e for e in _chain(4, IDENTITY) if e["src"] < e["dst"]]
    lp_edges.append({"src": "c3", "dst": "c0", "weight": 1.0, "twist": {"kind": "translation", "by": [float(c) for c in v]}})
    lp_chain = _config(
        seed,
        {
            "cells": _cells(4),
            "edges": lp_edges,
            "base_point": [0.0, 0.0],
            "init": [[float(c) for c in rng.uniform(-0.5, 0.5, 2)] for _ in range(4)],
        },
        bcd,
        lp_space,
    )
    # l_3 product of two lines: a consensus pair with a mirror loop whose
    # fixed point has zero energy
    center = [float(c) for c in rng.uniform(-0.5, 0.5, 2)]
    prod_space = {"kind": "product", "q": 3.0, "factors": [{"kind": "euclidean", "dim": 1}] * 2}
    mirror = {
        "kind": "product",
        "parts": [{"kind": "point-reflection", "center": [c]} for c in center],
    }
    product = _config(
        seed,
        {
            "cells": _cells(2),
            "edges": _chain(2, IDENTITY)
            + [{"src": "c0", "dst": "c0", "weight": 1.0, "twist": mirror}],
            "base_point": [[0.0], [0.0]],
            "init": [[[c + float(rng.uniform(-0.3, 0.3))] for c in center] for _ in range(2)],
        },
        bcd,
        prod_space,
    )
    oracle_rng = np.random.default_rng([seed, 3])
    oracles = [
        ("oracle-star-2", _config(seed, _tree_consensus(oracle_rng, STAR3, 2, star_base), bcd, STAR3), 24),
        ("oracle-leafswap", leafswap, 48),
        ("oracle-weighted-tree-2", _config(seed, _tree_consensus(oracle_rng, tree, 2, {"vertex": "v0"}, weighted=True), bcd, tree), 12),
    ]
    return Workload(
        [
            Op("star-tree-consensus-6", star, expect=0.0),
            Op("tree-leafswap", leafswap, expect=0.0),
            Op("weighted-tree-consensus-4", weighted_tree, expect=0.0),
            Op("lp23-translation-chain-4", lp_chain, expect=0.81 / 16.0),
            Op("l3-product-mirror-2", product, expect=0.0),
        ],
        oracle_configs=oracles,
    )


def comm_kernel(seed: int) -> Workload:
    comm = {"method": "commensurability", "tol": TOL}
    # The random restart draws its start from the config seed and takes 18 to
    # 24 sweeps; two draws per model halve that seed-to-seed variance.
    ops = [
        Op(
            f"comm-dihedral-{n}-{k}",
            _config(2 * seed + k, {"generator": "dihedral-line", "params": {"cells": n}}, comm),
            expect=REF_COMM_DIHEDRAL,
            comm=True,
        )
        for n in (6, 12)
        for k in (0, 1)
    ]
    ops.append(
        Op(
            "comm-dihedral-cover-2",
            _config(seed, {"generator": "dihedral-cover", "params": {"k": 2}}, comm),
            expect=REF_COMM_COVER,
            comm=True,
        )
    )
    # the norm-minimal homotopy on a model with a unique minimizer, where
    # the restarts must agree
    ops.append(
        Op(
            "comm-dihedral-3-norm-minimal",
            _config(
                seed,
                {"generator": "dihedral-line", "params": {"cells": 3}},
                {**comm, "norm_minimal": True},
            ),
            expect=REF_COMM_DIHEDRAL,
            comm=True,
        )
    )
    return Workload(ops)


def verify_sampled(seed: int) -> Workload:
    problem = {"generator": "translation-loop"}  # verify configs still need a problem
    budgets = {"uc-witness": 500, "mazur": 2500, "parallelogram": 500}
    ops = [
        Op(f"verify-{suite}", {**_config(seed, problem), "verify": {"samples": n}}, command=suite)
        for suite, n in budgets.items()
    ]
    return Workload(ops, lazy_exponents=(1.5, 2.0, 3.0))


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "solve-euclid": solve_euclid,
    "solve-tree-lp": solve_tree_lp,
    "comm-kernel": comm_kernel,
    "verify-sampled": verify_sampled,
}


def materialize(ops: list, work: Path) -> None:
    """Write every op's config and fix its argv and output directory."""
    configs = work / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for op in ops:
        path = configs / f"{op.name}.json"
        path.write_text(json.dumps(op.config))
        op.out = work / "out" / op.name
        if op.command == "solve":
            op.argv = ["solve", str(path), "--out", str(op.out)]
        else:
            op.argv = ["verify", str(path), "--suite", op.command, "--out", str(op.out)]


# ---------------------------------------------------------------------------
# Checks (outside the timed region)
# ---------------------------------------------------------------------------


def energy_ok(energy: float, expect: float) -> bool:
    if expect == 0.0:
        return abs(energy) <= ENERGY_ZERO
    return abs(energy - expect) <= ENERGY_REL * abs(expect)


def check_op(op: Op, code: int, comm_extras: list) -> Optional[str]:
    """None when the op's outputs are correct, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    if op.command != "solve":
        with open(op.out / "report.csv", newline="") as fh:
            failed = [row["check"] for row in csv.DictReader(fh) if row["passed"] != "1"]
        return f"failed checks {failed}" if failed else None
    summary = json.loads((op.out / "summary.json").read_text())
    if not summary["converged"]:
        return "not converged"
    if not energy_ok(summary["final_energy"], op.expect):
        return f"energy {summary['final_energy']!r}, expected {op.expect!r}"
    if op.comm:
        if len(comm_extras) != 1:
            return f"expected one commensurability report, got {len(comm_extras)}"
        extras = comm_extras[0]
        if not extras["unique"] or extras["restart_gap"] > 10.0 * TOL:
            return f"restarts disagree (gap {extras['restart_gap']:.3e})"
    return None
