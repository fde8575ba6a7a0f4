import json
import subprocess
import sys

import pytest

from busemann.cli import main


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "schema": 1,
        "seed": 7,
        "problem": {"generator": "consensus", "params": {"cells": 4}},
        "solver": {"method": "bcd", "tol": 1e-10},
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_solve_consensus_success(tmp_path):
    path = write_config(tmp_path)
    assert main(["solve", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_energy"] < 1e-12
    assert summary["converged"] is True
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == "sweep,energy_total,energy_class_1,norm,max_move"
    solution = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert solution[0] == "cell,coord0"
    assert len(solution) == 5


def test_solve_missing_space_field_exit_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        problem={
            "cells": [{"id": "a", "weight": 1.0}],
            "edges": [],
            "base_point": [0.0],
        },
    )
    assert main(["solve", str(path)]) == 2
    assert "space" in capsys.readouterr().err


def test_solve_unknown_field_exit_2(tmp_path, capsys):
    cfg = json.loads(write_config(tmp_path).read_text())
    cfg["mystery"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", str(path)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_solve_missing_seed_exit_2(tmp_path):
    cfg = json.loads(write_config(tmp_path).read_text())
    del cfg["seed"]
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", str(path)]) == 2


def test_solve_corrupted_tree_exit_2(tmp_path):
    path = write_config(
        tmp_path,
        space={"kind": "tree", "vertices": ["a", "b"], "edges": [["a", "b", -1.0]]},
        problem={
            "cells": [{"id": "x", "weight": 1.0}],
            "edges": [],
            "base_point": {"vertex": "a"},
        },
    )
    assert main(["solve", str(path)]) == 2


def test_solve_nonconvergence_exit_3(tmp_path):
    path = write_config(
        tmp_path,
        problem={"generator": "dihedral-line"},
        solver={"method": "bcd", "tol": 1e-12, "max_sweeps": 1},
    )
    assert main(["solve", str(path)]) == 3


def test_solve_non_numeric_cell_weight_exit_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        space={"kind": "euclidean", "dim": 1},
        problem={"cells": [{"id": "a", "weight": "x"}], "edges": [], "base_point": [0.0]},
    )
    assert main(["solve", str(path)]) == 2
    assert "problem.cells[].weight" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["tol", "max_sweeps"])
def test_solve_non_numeric_solver_setting_exit_2(tmp_path, capsys, field):
    path = write_config(tmp_path, solver={"method": "bcd", field: "x"})
    assert main(["solve", str(path)]) == 2
    assert f"solver.{field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("tol", -1.0), ("tol", 0.0), ("max_sweeps", 0), ("mode", "red-black")]
)
def test_solve_invalid_solver_setting_exit_2(tmp_path, capsys, field, value):
    # rejected at parse time, before any sweep runs (and before exit 3)
    path = write_config(tmp_path, solver={"method": "bcd", field: value})
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"solver.{field}" in err
    assert not (tmp_path / "out").exists()


def test_solve_determinism_byte_identical(tmp_path):
    path = write_config(
        tmp_path,
        problem={"generator": "dihedral-line"},
        solver={"method": "bcd", "tol": 1e-11},
        output={"dir": str(tmp_path / "a")},
    )
    assert main(["solve", str(path)]) == 0
    assert main(["solve", str(path), "--out", str(tmp_path / "b")]) == 0
    for name in ("trace.csv", "solution.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_seed_override_changes_nothing_deterministic(tmp_path):
    # deterministic solvers: a different seed may not change the outcome,
    # but the flag must be accepted and recorded
    path = write_config(tmp_path, output={"dir": str(tmp_path / "s")})
    assert main(["solve", str(path), "--seed", "99"]) == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["seed"] == 99


def test_explicit_problem_config(tmp_path):
    path = write_config(
        tmp_path,
        space={"kind": "euclidean", "dim": 1},
        problem={
            "cells": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 0.5}],
            "edges": [
                {"src": "a", "dst": "b", "weight": 1.0, "twist": {"kind": "identity"}},
                {"src": "b", "dst": "a", "weight": 1.0, "twist": {"kind": "identity"}},
                {"src": "a", "dst": "a", "weight": 1.0, "twist": {"kind": "point-reflection", "center": [1.0]}},
            ],
            "base_point": [0.0],
            "init": [[0.0], [4.0]],
        },
        output={"dir": str(tmp_path / "x")},
    )
    assert main(["solve", str(path)]) == 0
    summary = json.loads((tmp_path / "x" / "summary.json").read_text())
    assert summary["converged"]


def test_all_named_generators_solve(tmp_path):
    methods = {
        "consensus": {"method": "bcd", "tol": 1e-10},
        "dihedral-line": {"method": "bcd", "tol": 1e-10},
        "translation-loop": {"method": "norm-minimal", "tol": 1e-9},
        "product-two-class": {"method": "lexicographic", "class_order": [1, 2]},
        "dihedral-cover": {"method": "commensurability", "tol": 1e-9},
    }
    for name, solver in methods.items():
        path = write_config(
            tmp_path,
            name=f"{name}.json",
            problem={"generator": name},
            solver=solver,
            output={"dir": str(tmp_path / name)},
        )
        assert main(["solve", str(path)]) == 0, name
        assert (tmp_path / name / "trace.csv").exists()


def test_explicit_lp_and_product_configs(tmp_path):
    # l_p space with a signed-permutation twist
    path = write_config(
        tmp_path,
        name="lp.json",
        space={"kind": "lp", "dim": 2, "p": 3.0},
        problem={
            "cells": [{"id": "a", "weight": 1.0}],
            "edges": [
                {
                    "src": "a",
                    "dst": "a",
                    "weight": 1.0,
                    "twist": {"kind": "signed-perm", "perm": [1, 0], "signs": [1, 1], "shift": [0.0, 0.0]},
                }
            ],
            "base_point": [0.5, -0.5],
        },
        solver={"method": "bcd", "tol": 1e-9},
        output={"dir": str(tmp_path / "lp")},
    )
    assert main(["solve", str(path)]) == 0
    # product space with a factorwise twist and tree factor
    path = write_config(
        tmp_path,
        name="prod.json",
        space={
            "kind": "product",
            "q": 2.0,
            "factors": [
                {"kind": "euclidean", "dim": 1},
                {"kind": "tree", "vertices": ["c", "l1", "l2", "l3"],
                 "edges": [["c", "l1", 1.0], ["c", "l2", 1.0], ["c", "l3", 1.0]]},
            ],
        },
        problem={
            "cells": [{"id": "a", "weight": 1.0}],
            "edges": [
                {
                    "src": "a",
                    "dst": "a",
                    "weight": 1.0,
                    "twist": {
                        "kind": "product",
                        "parts": [
                            {"kind": "point-reflection", "center": [1.0]},
                            {"kind": "tree", "vertex_map": {"c": "c", "l1": "l2", "l2": "l1", "l3": "l3"}},
                        ],
                    },
                }
            ],
            "base_point": [[0.0], {"vertex": "c"}],
        },
        solver={"method": "bcd", "tol": 1e-9},
        output={"dir": str(tmp_path / "prod")},
    )
    assert main(["solve", str(path)]) == 0
    sol = (tmp_path / "prod" / "solution.csv").read_text().splitlines()
    assert sol[1].startswith("a,1,")  # factor 1 settles at the mirror center


def test_verify_all_suites_smoke(tmp_path):
    path = write_config(
        tmp_path,
        verify={
            "samples": 200,
            "budget": 1500,
            "count": 4,
            "euclid_instances": 8,
            "tree_instances": 4,
        },
        output={"dir": str(tmp_path / "all")},
    )
    assert main(["verify", str(path), "--suite", "all"]) == 0


def test_verify_suite_pass_and_report(tmp_path):
    path = write_config(
        tmp_path,
        verify={"samples": 300, "budget": 2000, "count": 5},
        output={"dir": str(tmp_path / "v")},
    )
    assert main(["verify", str(path), "--suite", "parallelogram"]) == 0
    import csv

    with open(tmp_path / "v" / "report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "passed", "worst", "detail"]
    assert all(row[1] == "1" for row in rows[1:])


def test_verify_unknown_suite_exit_2(tmp_path):
    path = write_config(tmp_path)
    assert main(["verify", str(path), "--suite", "nonsense"]) == 2


def test_cli_subprocess_entry(tmp_path):
    path = write_config(tmp_path, output={"dir": str(tmp_path / "sub")})
    proc = subprocess.run(
        [sys.executable, "-m", "busemann.cli", "solve", str(path), "--threads", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub" / "summary.json").exists()


def explicit_problem(**changes):
    problem = {
        "cells": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 0.5}],
        "edges": [
            {"src": "a", "dst": "b", "weight": 1.0, "twist": {"kind": "identity"}},
            {"src": "b", "dst": "a", "weight": 1.0, "twist": {"kind": "translation", "by": [1.0]}},
        ],
        "base_point": [0.0],
    }
    problem.update(changes)
    return problem


def twist_edge(twist, **fields):
    return {"src": "a", "dst": "a", "weight": 1.0, "twist": twist, **fields}


MALFORMED = [
    # (case, space, problem changes, solver method)
    ("dim-not-a-number", {"kind": "euclidean", "dim": "x"}, {}, "bcd"),
    ("dim-infinite", {"kind": "euclidean", "dim": float("inf")}, {}, "bcd"),
    ("coordinate-not-a-number", None, {"base_point": ["y"]}, "bcd"),
    # a NaN base point used to run 500 sweeps of NaN energy, then exit 3
    ("coordinate-nan", None, {"base_point": [float("nan")]}, "bcd"),
    ("coordinate-nan", None, {"base_point": [float("nan")]}, "commensurability"),
    ("coordinate-inf", None, {"base_point": [float("-inf")]}, "bcd"),
    ("init-nan", None, {"init": [[0.0], [float("nan")]]}, "bcd"),
    ("translation-not-a-number", None, {"edges": [twist_edge({"kind": "translation", "by": ["z"]})]}, "bcd"),
    ("translation-nan", None, {"edges": [twist_edge({"kind": "translation", "by": [float("nan")]})]}, "bcd"),
    ("reflection-not-a-list", None, {"edges": [twist_edge({"kind": "point-reflection", "center": 1.0})]}, "bcd"),
    ("edge-weight", None, {"edges": [twist_edge({"kind": "identity"}, weight="w")]}, "bcd"),
    ("edge-class", None, {"edges": [twist_edge({"kind": "identity"}, **{"class": "c"})]}, "bcd"),
    (
        "cover-index",
        None,
        {"cover": {"index": "two", "generators": [], "permutations": [], "coset_reps": []}},
        "commensurability",
    ),
    (
        "cover-permutation",
        None,
        {"cover": {"index": 1, "generators": [{"kind": "identity"}], "permutations": [["p"]],
                   "coset_reps": [{"kind": "identity"}]}},
        "commensurability",
    ),
]


@pytest.mark.parametrize(
    "space, changes, method", [pytest.param(*case[1:], id=f"{case[0]}-{case[3]}") for case in MALFORMED]
)
def test_solve_malformed_number_exit_2_without_traceback(tmp_path, capsys, space, changes, method):
    path = write_config(
        tmp_path,
        space=space or {"kind": "euclidean", "dim": 1},
        problem=explicit_problem(**changes),
        solver={"method": method},
    )
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
