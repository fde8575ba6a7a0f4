"""Byte-identity check of `busemann solve` output on every named generator
and of `busemann verify --suite all`.

    PYTHONPATH=src python scripts/golden_csv.py --write DIR   # record outputs
    PYTHONPATH=src python scripts/golden_csv.py --check DIR   # compare with them
    PYTHONPATH=src python scripts/golden_csv.py --manifest tests/golden.sha256

Every generator in ``busemann.models.GENERATORS`` is solved with its default
parameters under every solver method (``bcd``, ``norm-minimal``,
``lexicographic``, ``commensurability``, and ``commensurability`` with
``norm_minimal`` as ``commensurability-norm-minimal``) at a fixed seed
(``--seed``, default 7, stored in ``DIR/seed``).  The ``norm-minimal``
run and both commensurability runs of the generators on a Euclidean target
(``consensus``, ``dihedral-line``, ``translation-loop``,
``dihedral-cover``) take the exact path of
``harmonic.norm_minimal_minimizer``: sweeps from the minimum-norm minimizer
of ``harmonic.quadratic_minimizer`` (in ``subgroup_harmonic`` checked by
the sweeps from the base point); those of ``product-two-class`` run the
penalty homotopy and the restarts.  Beside them ``bcd`` runs
four explicit problems (``DIR/<name>/bcd/``):

- ``consensus-chain-20``: 20 cells with identity twists both ways, started
  from the ramp i + noise(seed), ``max_sweeps`` 5000, the slow-mixing case
  that dominates Euclidean solve time;
- ``star-tree-consensus-6``: 6 cells with identity twists both ways into the
  unit tripod, cell i starting on leaf edge i mod 3 at a seeded offset (the
  exact tree step);
- ``lp23-translation-chain-4``: 4 cells in l_p(2, 3), a chain closed by a
  seeded translation, from a seeded start (the Newton step);
- ``hub-reflection-leaves-64``: a hub cell on the line joined both ways to
  64 leaf cells, back to the hub by the identity and out to a leaf by the
  identity (even leaves) or a seeded point reflection (odd leaves), with a
  point-reflection self-loop on the hub, from a seeded start.  The hub has
  129 term entries and each leaf 2, so one solve steps on both compiled
  kernels (``harmonic.FLOAT_STEP_MAX`` is 128).

and ``bcd``, ``norm-minimal`` and ``lexicographic`` run one explicit problem
in the plane (``DIR/<name>/<method>/``), the one case of the compiled engine
in more than one dimension:

- ``plane-turn-mirror-3``: 3 cells in R^2 joined by the identity, a quarter
  turn about (1, 0) and the mirror in the line y = 0.25, with a quarter-turn
  self-loop in edge class 2, from a seeded start, at solver tol 1e-8 (the
  tol at which its ``bcd`` and ``lexicographic`` files were recorded; the
  exact norm-minimal solve also exits 0 at 1e-9).  Its lexicographic run
  stops at ``max_sweeps`` in the stiff second stage and exits 3 with its
  files written.

The two commensurability methods run two explicit problems with a
``cover`` section, the only runs that parse one
(``DIR/<name>/<method>/``):

- ``translation-cover-3``: the ``dihedral-line`` problem on 3 cells and its
  index-2 translation subgroup, the mirror swapping the cosets, represented
  by the identity and the mirror (``models.translation_cover_spec``); its
  kernel energy has a flat direction;
- ``cyclic-cover-3``: the ``translation-loop`` problem and its index-3
  subgroup of translations by multiples of 3, the unit translation moving
  coset j to j - 1, represented by translations by 0, 1 and 2.

Last, ``busemann verify --suite all`` runs at the stored seed and the
default budgets (about 5 s) into ``DIR/verify/all/``, which holds its
``report.csv`` and ``exit_code``.

Each solve run leaves
``DIR/<generator>/<method>/`` holding ``trace.csv``, ``solution.csv``, ``summary.json`` without its
``wall_time_s`` entry, and ``exit_code`` (a run that stops with a solver
error writes only the exit code).  ``--check`` reruns everything at the
stored seed in a temporary directory and compares the files byte for byte:
it prints one line per difference and exits 1 if there is any.  A
differing ``summary.json`` is listed with the keys that differ, as in
``differs: dihedral-line/norm-minimal/summary.json (sweeps)``.

``--manifest FILE`` records instead the SHA-256 digest of every output
file, one ``<digest>  <path>`` line each, under a header naming the Python
and numpy versions and the seed.  The repository keeps this manifest as
``tests/golden.sha256``, and a Tier-1 test (``tests/test_golden.py``)
reruns every run and names each file whose digest differs.  A change that
alters outputs on purpose re-records the manifest in the same commit.
"""

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from busemann.cli import main as busemann_main
from busemann.models import GENERATORS

# run directory -> solver config
METHODS = {
    "bcd": {"method": "bcd"},
    "norm-minimal": {"method": "norm-minimal"},
    "lexicographic": {"method": "lexicographic"},
    "commensurability": {"method": "commensurability"},
    "commensurability-norm-minimal": {"method": "commensurability", "norm_minimal": True},
}
IDENTITY = {"kind": "identity"}
SHIFT_1 = {"kind": "translation", "by": [1.0]}
MIRROR_0 = {"kind": "point-reflection", "center": [0.0]}


def chain_edges(cells: int) -> list:
    """Identity edges c_i <-> c_{i+1}, both ways."""
    return [
        {"src": f"c{src}", "dst": f"c{dst}", "weight": 1.0, "twist": IDENTITY}
        for i in range(cells - 1)
        for src, dst in ((i, i + 1), (i + 1, i))
    ]


def consensus_chain(seed: int, cells: int = 20) -> dict:
    """Config of the explicit consensus chain run by ``bcd``."""
    rng = np.random.default_rng(seed)
    edges = chain_edges(cells)
    return {
        "schema": 1,
        "seed": seed,
        "space": {"kind": "euclidean", "dim": 1},
        "problem": {
            "cells": [{"id": f"c{i}", "weight": 1.0 / cells} for i in range(cells)],
            "edges": edges,
            "base_point": [0.0],
            "init": [[i + float(rng.uniform(-0.1, 0.1))] for i in range(cells)],
        },
        "solver": {"method": "bcd", "max_sweeps": 5000},
    }


def star_tree_consensus(seed: int, cells: int = 6) -> dict:
    """Config of the explicit star-tree consensus run by ``bcd``."""
    rng = np.random.default_rng([seed, 1])
    tripod = {
        "kind": "tree",
        "vertices": ["c", "l1", "l2", "l3"],
        "edges": [["c", f"l{i}", 1.0] for i in (1, 2, 3)],
    }
    return {
        "schema": 1,
        "seed": seed,
        "space": tripod,
        "problem": {
            "cells": [{"id": f"c{i}", "weight": 1.0 / cells} for i in range(cells)],
            "edges": chain_edges(cells),
            "base_point": {"vertex": "c"},
            "init": [{"edge": i % 3, "offset": float(rng.uniform(0.7, 0.8))} for i in range(cells)],
        },
        "solver": {"method": "bcd"},
    }


def lp_translation_chain(seed: int, cells: int = 4) -> dict:
    """Config of the explicit l_p(2, 3) translation chain run by ``bcd``."""
    rng = np.random.default_rng([seed, 2])
    edges = [e for e in chain_edges(cells) if e["src"] < e["dst"]]
    shift = [float(c) for c in rng.uniform(-0.6, 0.6, 2)]
    edges.append({"src": f"c{cells - 1}", "dst": "c0", "weight": 1.0, "twist": {"kind": "translation", "by": shift}})
    return {
        "schema": 1,
        "seed": seed,
        "space": {"kind": "lp", "dim": 2, "p": 3.0},
        "problem": {
            "cells": [{"id": f"c{i}", "weight": 1.0 / cells} for i in range(cells)],
            "edges": edges,
            "base_point": [0.0, 0.0],
            "init": [[float(c) for c in rng.uniform(-0.5, 0.5, 2)] for _ in range(cells)],
        },
        "solver": {"method": "bcd"},
    }


def hub_reflection_leaves(seed: int, leaves: int = 64) -> dict:
    """Config of the explicit hub-and-leaves problem run by ``bcd``."""
    rng = np.random.default_rng([seed, 4])
    reflect = lambda: {"kind": "point-reflection", "center": [float(rng.uniform(-1.0, 1.0))]}
    edges = [{"src": "hub", "dst": "hub", "weight": 0.5, "twist": reflect()}]
    for i in range(leaves):
        edges += [
            {"src": "hub", "dst": f"l{i}", "weight": 1.0, "twist": IDENTITY if i % 2 == 0 else reflect()},
            {"src": f"l{i}", "dst": "hub", "weight": 0.5, "twist": IDENTITY},
        ]
    return {
        "schema": 1,
        "seed": seed,
        "space": {"kind": "euclidean", "dim": 1},
        "problem": {
            "cells": [{"id": "hub", "weight": 0.5}] + [{"id": f"l{i}", "weight": 0.5 / leaves} for i in range(leaves)],
            "edges": edges,
            "base_point": [0.0],
            "init": [[float(rng.uniform(-2.0, 2.0))] for _ in range(leaves + 1)],
        },
        "solver": {"method": "bcd"},
    }


def plane_turn_mirror(seed: int) -> dict:
    """Config of the explicit two-dimensional problem (method set per run)."""
    rng = np.random.default_rng([seed, 3])
    turn = {"kind": "linear", "matrix": [[0.0, -1.0], [1.0, 0.0]], "shift": [1.0, -1.0]}
    mirror = {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, -1.0]], "shift": [0.0, 0.5]}
    return {
        "schema": 1,
        "seed": seed,
        "space": {"kind": "euclidean", "dim": 2},
        "problem": {
            "cells": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 0.25}, {"id": "c", "weight": 0.25}],
            "edges": [
                {"src": "a", "dst": "b", "weight": 1.0, "twist": IDENTITY},
                {"src": "b", "dst": "c", "weight": 1.0, "twist": turn},
                {"src": "c", "dst": "a", "weight": 2.0, "twist": mirror},
                {"src": "b", "dst": "b", "weight": 0.5, "class": 2, "twist": turn},
            ],
            "base_point": [0.0, 0.0],
            "init": [[float(c) for c in rng.uniform(-2.0, 2.0, 2)] for _ in range(3)],
        },
        "solver": {"tol": 1e-8},
    }


def translation_cover(seed: int) -> dict:
    """Config of the index-2 translation cover of the 3-cell dihedral line."""
    cells = ["c0", "c1", "c2"]
    edges = [
        {"src": "c0", "dst": "c1", "weight": 1.0, "twist": IDENTITY},
        {"src": "c1", "dst": "c2", "weight": 1.0, "twist": IDENTITY},
        {"src": "c2", "dst": "c0", "weight": 1.0, "twist": SHIFT_1},
    ]
    for c in cells:
        edges += [
            {"src": c, "dst": c, "weight": 1.0, "twist": SHIFT_1},
            {"src": c, "dst": c, "weight": 1.0, "twist": MIRROR_0},
        ]
    return {
        "schema": 1,
        "seed": seed,
        "space": {"kind": "euclidean", "dim": 1},
        "problem": {
            "cells": [{"id": c, "weight": 1.0 / 3.0} for c in cells],
            "edges": edges,
            "base_point": [0.0],
            "cover": {
                "index": 2,
                "generators": [IDENTITY, SHIFT_1, MIRROR_0],
                "permutations": [[0, 1], [0, 1], [1, 0]],
                "coset_reps": [IDENTITY, MIRROR_0],
            },
        },
    }


def cyclic_cover(seed: int) -> dict:
    """Config of the index-3 cyclic cover of the translation loop."""
    return {
        "schema": 1,
        "seed": seed,
        "space": {"kind": "euclidean", "dim": 1},
        "problem": {
            "cells": [{"id": "c0", "weight": 1.0}],
            "edges": [{"src": "c0", "dst": "c0", "weight": 1.0, "twist": SHIFT_1}],
            "base_point": [0.0],
            "cover": {
                "index": 3,
                "generators": [SHIFT_1],
                "permutations": [[2, 0, 1]],
                "coset_reps": [IDENTITY, SHIFT_1, {"kind": "translation", "by": [2.0]}],
            },
        },
    }


# explicit problems solved by ``bcd``: run directory -> config builder
EXPLICIT = {
    "consensus-chain-20": consensus_chain,
    "star-tree-consensus-6": star_tree_consensus,
    "lp23-translation-chain-4": lp_translation_chain,
    "hub-reflection-leaves-64": hub_reflection_leaves,
}
# the methods run on ``plane_turn_mirror``
PLANE_METHODS = ("bcd", "norm-minimal", "lexicographic")
# explicit problems with a cover section: run directory -> config builder,
# each run under COVER_METHODS
COVERS = {"translation-cover-3": translation_cover, "cyclic-cover-3": cyclic_cover}
COVER_METHODS = ("commensurability", "commensurability-norm-minimal")
RUNS = (
    len(GENERATORS) * len(METHODS) + len(EXPLICIT) + len(PLANE_METHODS) + len(COVERS) * len(COVER_METHODS) + 1
)


def run_cli(out: Path, config: dict, command: str, *options: str) -> None:
    """Run ``busemann COMMAND config.json --out OUT OPTIONS`` quietly and
    record its exit code."""
    out.mkdir(parents=True)
    path = out / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = busemann_main([command, str(path), "--out", str(out), *options])
    path.unlink()
    (out / "exit_code").write_text(f"{code}\n")


def solve(out: Path, config: dict) -> None:
    run_cli(out, config, "solve")
    summary = out / "summary.json"
    if summary.exists():
        data = json.loads(summary.read_text())
        del data["wall_time_s"]
        summary.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run_all(root: Path, seed: int) -> None:
    root.mkdir(parents=True)
    (root / "seed").write_text(f"{seed}\n")
    for generator in sorted(GENERATORS):
        for run, solver in METHODS.items():
            solve(root / generator / run, {
                "schema": 1,
                "seed": seed,
                "problem": {"generator": generator},
                "solver": solver,
            })
    for name, config in EXPLICIT.items():
        solve(root / name / "bcd", config(seed))
    for run in PLANE_METHODS:
        config = plane_turn_mirror(seed)
        config["solver"].update(METHODS[run])
        solve(root / "plane-turn-mirror-3" / run, config)
    for name, build in COVERS.items():
        for run in COVER_METHODS:
            config = build(seed)
            config["solver"] = METHODS[run]
            solve(root / name / run, config)
    # verify reads only the seed and budgets; the problem is parsed and unused
    verify = {"schema": 1, "seed": seed, "problem": {"generator": "consensus"}}
    run_cli(root / "verify" / "all", verify, "verify", "--suite", "all")


def differences(expected: Path, actual: Path) -> list:
    names = lambda root: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
    want, got = names(expected), names(actual)
    diffs = [f"missing: {p}" for p in sorted(want - got)]
    diffs += [f"unexpected: {p}" for p in sorted(got - want)]
    diffs += [
        f"differs: {p}{summary_keys(expected / p, actual / p)}"
        for p in sorted(want & got)
        if (expected / p).read_bytes() != (actual / p).read_bytes()
    ]
    return diffs


def summary_keys(expected: Path, actual: Path) -> str:
    """For two differing ``summary.json`` files, the keys whose values
    differ, as " (key, ...)"; "" for other files."""
    if expected.name != "summary.json":
        return ""
    want, got = (json.loads(p.read_text()) for p in (expected, actual))
    keys = sorted(
        k for k in want.keys() | got.keys()
        if k not in want or k not in got or json.dumps(want[k]) != json.dumps(got[k])
    )
    return f" ({', '.join(keys)})" if keys else ""


MANIFEST = Path(__file__).resolve().parents[1] / "tests" / "golden.sha256"


def versions() -> str:
    """The manifest's first line: the versions the outputs were made with."""
    return f"# python {platform.python_version()} numpy {np.__version__}"


def digests(root: Path) -> dict:
    """The SHA-256 digest of every file under ``root``, by relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def write_manifest(path: Path, seed: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run_all(Path(tmp) / "runs", seed)
        lines = [versions(), f"# seed {seed}"] + [f"{d}  {p}" for p, d in digests(Path(tmp) / "runs").items()]
    path.write_text("\n".join(lines) + "\n")


def read_manifest(path: Path) -> tuple:
    """(versions line, seed, {path: digest}) of a manifest."""
    head, seed, *rows = path.read_text().splitlines()
    return head, int(seed.removeprefix("# seed ")), dict(reversed(row.split("  ", 1)) for row in rows)


def digest_differences(want: dict, got: dict) -> list:
    """One line per file missing, unexpected or differing, as ``--check``
    prints them."""
    diffs = [f"missing: {p}" for p in sorted(want.keys() - got.keys())]
    diffs += [f"unexpected: {p}" for p in sorted(got.keys() - want.keys())]
    return diffs + [f"differs: {p}" for p in sorted(want.keys() & got.keys()) if want[p] != got[p]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="DIR", help="record the outputs in DIR (must not exist)")
    mode.add_argument("--check", metavar="DIR", help="compare fresh outputs with DIR")
    mode.add_argument("--manifest", metavar="FILE", help="record the digests of the outputs in FILE")
    ap.add_argument("--seed", type=int, default=7, help="seed of the recorded runs (--write, --manifest)")
    args = ap.parse_args()
    if args.write:
        run_all(Path(args.write), args.seed)
        print(f"wrote {RUNS} runs to {args.write}")
        return 0
    if args.manifest:
        write_manifest(Path(args.manifest), args.seed)
        print(f"wrote the digests of {RUNS} runs to {args.manifest}")
        return 0
    expected = Path(args.check)
    with tempfile.TemporaryDirectory() as tmp:
        actual = Path(tmp) / "runs"
        run_all(actual, int((expected / "seed").read_text()))
        diffs = differences(expected, actual)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences in {RUNS} runs")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
