import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from busemann.cli import main
from busemann.models import GENERATORS


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


def test_solve_lp_distance_past_float_range_exit_3_without_traceback(tmp_path, capsys):
    # the distance 2e160 is in range, but its cube in the energy passes the
    # float range: it counts as inf, and the run stops at sweep 0 as
    # non-finite
    identity = {"kind": "identity"}
    path = write_config(
        tmp_path,
        space={"kind": "lp", "dim": 1, "p": 3.0},
        problem={
            "cells": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 0.5}],
            "edges": [
                {"src": "a", "dst": "b", "weight": 1.0, "twist": identity},
                {"src": "b", "dst": "a", "weight": 1.0, "twist": identity},
            ],
            "base_point": [0.0],
            "init": [[1e160], [-1e160]],
        },
    )
    assert main(["solve", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: non-finite objective inf at sweep 0")
    assert "Traceback" not in err


def test_solve_absorbed_shift_exit_3_without_traceback(tmp_path, capsys):
    # started at (1e16, -1e16), x + 1 rounds to x: this used to exit 0 with
    # energy 0.0, though the minimum energy is 0.25
    path = write_config(
        tmp_path,
        space={"kind": "euclidean", "dim": 1},
        problem={
            "cells": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 0.5}],
            "edges": [
                {"src": "a", "dst": "b", "weight": 1.0, "twist": {"kind": "identity"}},
                {"src": "b", "dst": "a", "weight": 1.0, "twist": SHIFT_1},
            ],
            "base_point": [0.0],
            "init": [[1e16], [-1e16]],
        },
    )
    assert main(["solve", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: absorbed shift")
    assert "Traceback" not in err


@pytest.mark.parametrize("v", [1e10, 1e40])
def test_solve_lp_far_from_origin_exit_0(tmp_path, v):
    # the pattern fallback of the local solve escapes only at 1e6 times its
    # start radius, which scales with the data: this used to exit 3 with
    # "f does not look coercive"
    identity = {"kind": "identity"}
    path = write_config(
        tmp_path,
        space={"kind": "lp", "dim": 2, "p": 1.5},
        problem={
            "cells": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 0.5}],
            "edges": [
                {"src": "a", "dst": "b", "weight": 1.0, "twist": identity},
                {"src": "b", "dst": "a", "weight": 1.0, "twist": identity},
            ],
            "base_point": [0.0, 0.0],
            "init": [[v, v], [-v, 0.3 * v]],
        },
    )
    assert main(["solve", str(path)]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["final_energy"] == 0.0


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


@pytest.mark.parametrize("field, value", [("tol", -1.0), ("tol", 0.0), ("tol", math.inf), ("max_sweeps", 0)])
def test_solve_invalid_solver_setting_exit_2(tmp_path, capsys, field, value):
    # rejected at parse time, before any sweep runs (and before exit 3)
    path = write_config(tmp_path, solver={"method": "bcd", field: value})
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"solver.{field}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [("mode", "jacobi"), ("schedule", [0.5, 0.25])], ids=["mode", "schedule"])
def test_solve_solver_mode_is_an_unknown_field(tmp_path, capsys, field, value):
    # a removed field is rejected as unknown, not silently ignored
    path = write_config(tmp_path, solver={"method": "bcd", field: value})
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"unknown fields ['{field}']" in err
    assert "Traceback" not in err
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


@pytest.mark.parametrize("generator", ["dihedral-line", "dihedral-cover", "translation-loop"])
def test_commensurability_summary_keys_deterministic(tmp_path, generator):
    # the kernel model and the restart verdict are reported, identically at
    # one seed; wall time is the only entry allowed to change
    path = write_config(
        tmp_path,
        seed=4,
        problem={"generator": generator},
        solver={"method": "commensurability"},
        output={"dir": str(tmp_path / "a")},
    )
    assert main(["solve", str(path)]) == 0
    assert main(["solve", str(path), "--out", str(tmp_path / "b")]) == 0
    a, b = (json.loads((tmp_path / d / "summary.json").read_text()) for d in "ab")
    keys = ("kernel_terms", "word_radius", "truncation_residual", "restart_gap", "unique", "parallel_orbits")
    assert all(key in a for key in keys)
    assert {k: v for k, v in a.items() if k != "wall_time_s"} == {
        k: v for k, v in b.items() if k != "wall_time_s"
    }
    assert a["kernel_terms"] == {"dihedral-line": 213, "dihedral-cover": 426, "translation-loop": 12}[generator]
    assert a["word_radius"] == 6
    assert 0.0 < a["truncation_residual"] < 1e-9
    assert a["parallel_orbits"] is (generator == "translation-loop")
    assert a["unique"] is (generator != "translation-loop")
    for name in ("trace.csv", "solution.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("norm_minimal", [False, True])
@pytest.mark.parametrize("generator", ["consensus", "translation-loop", "dihedral-line", "dihedral-cover"])
def test_commensurability_uniqueness_verdict_is_exact(tmp_path, generator, norm_minimal):
    # the flat direction count of the exact solve decides "unique"; the
    # flat models used to write true here whenever the restarts agreed
    path = write_config(
        tmp_path,
        problem={"generator": generator},
        solver={"method": "commensurability", "norm_minimal": norm_minimal},
    )
    assert main(["solve", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    flat = generator in ("consensus", "translation-loop")
    assert summary["unique"] is (not flat)
    assert summary["flat_directions"] == int(flat)
    assert summary["parallel_orbits"] is flat


def test_commensurability_norm_minimal_verdict_off_the_exact_path(tmp_path):
    # l_p(1, 3) does not compile, so restarts decide "unique": they are free
    # solves, and on this flat model they disagree; the result is still the
    # norm-minimal point, the base point (the restarts used to run the penalty
    # homotopy, which pulled them together and wrote "unique": true)
    path = write_config(
        tmp_path,
        space={"kind": "lp", "dim": 1, "p": 3.0},
        problem={
            "cells": [{"id": "c0", "weight": 1.0}],
            "edges": [{"src": "c0", "dst": "c0", "weight": 1.0, "twist": SHIFT_1}],
            "base_point": [0.0],
        },
        solver={"method": "commensurability", "norm_minimal": True},
    )
    assert main(["solve", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["parallel_orbits"] is True
    assert summary["unique"] is False
    assert summary["restart_gap"] > 10 * 1e-9  # the default tol
    assert "flat_directions" not in summary
    assert summary["norm"] <= 1e-6


def test_commensurability_signed_perm_flat_axis_is_parallel(tmp_path, capsys):
    # l_p(2, 3) with the mirror (x, y) -> (x, -y): the model is flat along the
    # first axis, a line that sampled pairs never lie on, so the sampled check
    # found no parallel pair and the disagreeing restarts exited 3
    mirror = {"kind": "signed-perm", "perm": [0, 1], "signs": [1, -1], "shift": [0.0, 0.0]}
    path = write_config(
        tmp_path,
        space=LP2,
        problem={
            "cells": [{"id": "c0", "weight": 1.0}],
            "edges": [{"src": "c0", "dst": "c0", "weight": 1.0, "twist": mirror}],
            "base_point": [0.0, 0.0],
        },
        solver={"method": "commensurability"},
    )
    assert main(["solve", str(path)]) == 0, capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["parallel_orbits"] is True
    assert summary["unique"] is False
    assert summary["restart_gap"] > 10 * 1e-9


def test_plane_norm_minimal_exits_0_at_tol_1e_9(tmp_path):
    # the plane problem has no flat direction; the penalty homotopy exited 3
    # here ("not Cauchy; energy has unresolved flat directions")
    turn = {"kind": "linear", "matrix": [[0.0, -1.0], [1.0, 0.0]], "shift": [1.0, -1.0]}
    mirror = {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, -1.0]], "shift": [0.0, 0.5]}
    path = write_config(
        tmp_path,
        space={"kind": "euclidean", "dim": 2},
        problem={
            "cells": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 0.25}, {"id": "c", "weight": 0.25}],
            "edges": [
                {"src": "a", "dst": "b", "weight": 1.0, "twist": IDENTITY},
                {"src": "b", "dst": "c", "weight": 1.0, "twist": turn},
                {"src": "c", "dst": "a", "weight": 2.0, "twist": mirror},
                {"src": "b", "dst": "b", "weight": 0.5, "class": 2, "twist": turn},
            ],
            "base_point": [0.0, 0.0],
        },
        solver={"method": "norm-minimal", "tol": 1e-9},
    )
    assert main(["solve", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_energy"] == pytest.approx(1.0 / 48.0, rel=1e-12)


def test_commensurability_solve_without_edges(tmp_path):
    # no twists: the kernel model has the identity term between the two cells
    path = write_config(
        tmp_path,
        space={"kind": "euclidean", "dim": 1},
        problem=explicit_problem(edges=[]),
        solver={"method": "commensurability"},
    )
    assert main(["solve", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["kernel_terms"] == 2
    assert summary["final_energy"] == 0.0


IDENTITY = {"kind": "identity"}
SHIFT_1 = {"kind": "translation", "by": [1.0]}
MIRROR_0 = {"kind": "point-reflection", "center": [0.0]}


def dihedral_cover_problem():
    """The ``dihedral-cover`` generator (k = 2, 3 cells) as an explicit
    problem with a ``cover`` section."""
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
        "cells": [{"id": c, "weight": 1.0 / 3.0} for c in cells],
        "edges": edges,
        "base_point": [0.0],
        "cover": {
            "index": 2,
            "generators": [IDENTITY, SHIFT_1, MIRROR_0],
            "permutations": [[0, 1], [1, 0], [0, 1]],
            "coset_reps": [IDENTITY, SHIFT_1],
        },
    }


@pytest.mark.parametrize("method", ["bcd", "commensurability"])
def test_explicit_cover_section_matches_generator(tmp_path, method):
    generated = write_config(
        tmp_path, name="generated.json", problem={"generator": "dihedral-cover"},
        solver={"method": method}, output={"dir": str(tmp_path / "generated")},
    )
    explicit = write_config(
        tmp_path, name="explicit.json", space={"kind": "euclidean", "dim": 1},
        problem=dihedral_cover_problem(), solver={"method": method},
        output={"dir": str(tmp_path / "explicit")},
    )
    assert main(["solve", str(generated)]) == 0
    assert main(["solve", str(explicit)]) == 0
    for name in ("trace.csv", "solution.csv"):
        assert (tmp_path / "explicit" / name).read_bytes() == (tmp_path / "generated" / name).read_bytes()


def two_loop_cover_problem(shift):
    """One cell with loops t and s (translations by 1 and ``shift``) and an
    index-2 cover in which t swaps the cosets and s fixes them."""
    s = {"kind": "translation", "by": [shift]}
    return {
        "cells": [{"id": "a", "weight": 1.0}],
        "edges": [twist_edge(SHIFT_1), twist_edge(s)],
        "base_point": [0.0],
        "cover": {"index": 2, "generators": [SHIFT_1, s], "permutations": [[1, 0], [0, 1]],
                  "coset_reps": [IDENTITY, SHIFT_1]},
    }


@pytest.mark.filterwarnings("ignore::busemann.harmonic.IdentityConventionWarning")
@pytest.mark.parametrize("shift, method", [(5.0, "bcd"), (5.0, "commensurability"), (9.0, "commensurability")])
def test_solve_inconsistent_cover_exit_2_without_traceback(tmp_path, capsys, shift, method):
    # s = t^5 is caught by the cover's check (s t^-3 = t^2), s = t^9 only by
    # the kernel model's ball (t^6 = s t^-3, at radius 6)
    path = write_config(
        tmp_path, space={"kind": "euclidean", "dim": 1}, problem=two_loop_cover_problem(shift),
        solver={"method": method},
    )
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: coset permutations are inconsistent with the twists\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("method", ["bcd", "norm-minimal", "lexicographic", "commensurability"])
def test_trace_rows_match_header_for_every_generator(tmp_path, method):
    # a commensurability solve reports one energy class, whatever the edge
    # classes of the problem, and the trace columns must follow the report
    for name in sorted(GENERATORS):
        out = tmp_path / name
        path = write_config(
            tmp_path,
            name=f"{name}.json",
            problem={"generator": name},
            solver={"method": method},
            output={"dir": str(out)},
        )
        assert main(["solve", str(path)]) == 0, name
        header, *rows = (out / "trace.csv").read_text().splitlines()
        assert rows, name
        for row in rows:
            assert len(row.split(",")) == len(header.split(",")), (name, header, row)


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


def test_parallelogram_report_rows(tmp_path):
    # the rows the per-sample suite wrote at this budget, byte for byte
    path = write_config(tmp_path, verify={"samples": 500}, output={"dir": str(tmp_path / "v")})
    assert main(["verify", str(path), "--suite", "parallelogram"]) == 0
    names = ("euclidean2", "euclidean3", "lp(2,3)", "lp(3,1.5)", "star-tree", "product(e2,tree)", "product(e1,e1;q=3)")
    want = ["check,passed,worst,detail"] + [f'"parallelogram[{n}]",1,0,"500 quadruples"' for n in names]
    assert (tmp_path / "v" / "report.csv").read_text().splitlines() == want


def test_verify_unknown_suite_exit_2(tmp_path):
    path = write_config(tmp_path)
    assert main(["verify", str(path), "--suite", "nonsense"]) == 2


def test_cli_subprocess_entry(tmp_path):
    path = write_config(tmp_path, output={"dir": str(tmp_path / "sub")})
    proc = subprocess.run(
        [sys.executable, "-m", "busemann.cli", "solve", str(path)],
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


STAR3 = {"kind": "tree", "vertices": ["c", "l1", "l2", "l3"], "edges": [["c", "l1", 1.0], ["c", "l2", 1.0], ["c", "l3", 1.0]]}
LP2 = {"kind": "lp", "dim": 2, "p": 3.0}


def signed_perm_problem(perm, signs):
    twist = {"kind": "signed-perm", "perm": perm, "signs": signs, "shift": [0.0, 0.0]}
    return explicit_problem(
        edges=[twist_edge({"kind": "identity"}), twist_edge(twist)], base_point=[0.0, 0.0]
    )


NON_INTEGRAL = [
    # (case, space, problem, solver, top-level changes); these used to be truncated silently
    ("dim-fractional", {"kind": "euclidean", "dim": 1.9}, explicit_problem(), {}, {}),
    ("dim-bool", {"kind": "euclidean", "dim": True}, explicit_problem(), {}, {}),
    ("lp-dim-fractional", {**LP2, "dim": 2.5}, signed_perm_problem([1, 0], [1, 1]), {}, {}),
    ("max-sweeps-fractional", None, explicit_problem(), {"max_sweeps": 20.7}, {}),
    ("max-sweeps-nan", None, explicit_problem(), {"max_sweeps": float("nan")}, {}),
    ("max-sweeps-inf", None, explicit_problem(), {"max_sweeps": float("inf")}, {}),
    ("seed-fractional", None, explicit_problem(), {}, {"seed": 7.5}),
    ("seed-bool", None, explicit_problem(), {}, {"seed": False}),
    ("schema-fractional", None, explicit_problem(), {}, {"schema": 1.5}),
    ("edge-class-fractional", None, explicit_problem(edges=[twist_edge({"kind": "identity"}, **{"class": 1.5})]), {}, {}),
    (
        "tree-edge-fractional",
        STAR3,
        {"cells": [{"id": "a", "weight": 1.0}], "edges": [twist_edge({"kind": "identity"})],
         "base_point": {"edge": 0.5, "offset": 0.2}},
        {},
        {},
    ),
    ("perm-fractional", LP2, signed_perm_problem([1.5, 0], [1, 1]), {}, {}),
    ("signs-bool", LP2, signed_perm_problem([1, 0], [True, 1]), {}, {}),
    (
        "cover-index-fractional",
        None,
        explicit_problem(cover={"index": 1.5, "generators": [{"kind": "identity"}], "permutations": [[0]],
                                "coset_reps": [{"kind": "identity"}]}),
        {"method": "commensurability"},
        {},
    ),
    (
        "cover-permutation-fractional",
        None,
        explicit_problem(cover={"index": 1, "generators": [{"kind": "identity"}], "permutations": [[0.5]],
                                "coset_reps": [{"kind": "identity"}]}),
        {"method": "commensurability"},
        {},
    ),
]


@pytest.mark.parametrize(
    "space, problem, solver, top", [pytest.param(*case[1:], id=case[0]) for case in NON_INTEGRAL]
)
def test_solve_non_integral_integer_field_exit_2_without_traceback(tmp_path, capsys, space, problem, solver, top):
    path = write_config(
        tmp_path,
        space=space or {"kind": "euclidean", "dim": 1},
        problem=problem,
        solver={"method": "bcd", **solver},
        **top,
    )
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "integer" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


HALF = math.sqrt(0.5)
ROTATION = {"kind": "linear", "matrix": [[HALF, -HALF], [HALF, HALF]], "shift": [0.0, 0.0]}
SWAP = {"kind": "linear", "matrix": [[0.0, 1.0], [1.0, 0.0]], "shift": [0.0, 0.0]}
TWIST_VERDICTS = [
    # (case, space, twist on a self-loop next to an identity loop, exit code)
    # these two used to end in an AttributeError and an IndexError
    ("signed-perm-on-euclidean", {"kind": "euclidean", "dim": 2},
     {"kind": "signed-perm", "perm": [1, 0], "signs": [1, -1], "shift": [0.0, 0.0]}, 2),
    ("signed-perm-3-on-lp-2", LP2, {"kind": "signed-perm", "perm": [2, 0, 1], "signs": [1, 1, 1],
                                    "shift": [0.0, 0.0, 0.0]}, 2),
    ("rotation-on-lp-3", LP2, ROTATION, 2),
    ("linear-2d-on-euclidean-1", {"kind": "euclidean", "dim": 1}, ROTATION, 2),
    ("near-identity-1d", {"kind": "euclidean", "dim": 1},
     {"kind": "linear", "matrix": [[1.00000004]], "shift": [0.0]}, 2),
    ("rotation-on-lp-2", {**LP2, "p": 2.0}, ROTATION, 0),
    ("swap-on-lp-3", LP2, SWAP, 0),
]


@pytest.mark.parametrize(
    "space, twist, code", [pytest.param(*case[1:], id=case[0]) for case in TWIST_VERDICTS]
)
def test_solve_twist_isometry_verdict_without_traceback(tmp_path, capsys, space, twist, code):
    problem = explicit_problem(
        edges=[twist_edge({"kind": "identity"}), twist_edge(twist)], base_point=[0.0] * space["dim"]
    )
    path = write_config(tmp_path, space=space, problem=problem, solver={"method": "bcd"})
    assert main(["solve", str(path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error:")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_parts, code", [(1, 2), (2, 0), (3, 2)])
def test_solve_product_twist_needs_one_part_per_factor(tmp_path, capsys, n_parts, code):
    # three parts on two factors used to parse silently, the third dropped
    parts = [IDENTITY, SHIFT_1, {"kind": "translation", "by": [5.0]}][:n_parts]
    space = {"kind": "product", "q": 2.0, "factors": [{"kind": "euclidean", "dim": 1}] * 2}
    problem = {
        "cells": [{"id": "a", "weight": 1.0}],
        "edges": [{"src": "a", "dst": "a", "weight": 1.0, "twist": {"kind": "product", "parts": parts}}],
        "base_point": [[0.0], [0.0]],
    }
    path = write_config(tmp_path, space=space, problem=problem, solver={"method": "bcd"})
    assert main(["solve", str(path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error:")
        assert f"{n_parts} parts for 2 factors" in err
        assert not (tmp_path / "out").exists()


def test_solve_accepts_integral_floats_for_integer_fields(tmp_path):
    path = write_config(
        tmp_path,
        space={"kind": "euclidean", "dim": 1.0},
        problem=explicit_problem(edges=[twist_edge({"kind": "identity"}, **{"class": 1.0})]),
        solver={"method": "bcd", "max_sweeps": 20.0},
        seed=7.0,
    )
    assert main(["solve", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 7 and isinstance(summary["seed"], int)


# ---------------------------------------------------------------------------
# verify budgets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "expected a number"),
        (float("nan"), "expected an integer"),
        (2.7, "expected an integer"),  # used to be truncated to 2
        (True, "expected an integer"),  # used to run 1 sample
        (0, "must be >= 1"),  # used to pass uc-witness vacuously
        (-5, "must be >= 1"),
    ],
    ids=["string", "nan", "fractional", "bool", "zero", "negative"],
)
def test_verify_invalid_budget_exit_2_without_traceback(tmp_path, capsys, value, message):
    path = write_config(tmp_path, verify={"samples": value})
    assert main(["verify", str(path), "--suite", "mazur"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: verify.samples:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["solve"], ["verify", "--suite", "mazur"]], ids=["solve", "verify"])
def test_negative_seed_exit_2(tmp_path, capsys, argv):
    # a negative seed used to raise a ValueError traceback from numpy in verify
    path = write_config(tmp_path, seed=-1, verify={"samples": 2})
    assert main([argv[0], str(path), *argv[1:]]) == 2
    path = write_config(tmp_path, verify={"samples": 2})
    assert main([argv[0], str(path), *argv[1:], "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 2 and "seed" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_main_calls_in_one_process_share_no_arguments(tmp_path, capsys):
    # the parser is built once per process: no value of one call leaks into the next
    path = write_config(tmp_path, verify={"samples": 200, "budget": 1500, "count": 4,
                                          "euclid_instances": 8, "tree_instances": 4})
    seeds = []
    for extra in (["--seed", "5"], []):
        assert main(["solve", str(path), *extra]) == 0
        seeds.append(json.loads((tmp_path / "out" / "summary.json").read_text())["seed"])
    assert seeds == [5, 7]
    assert main(["verify", str(path), "--suite", "parallelogram", "--out", str(tmp_path / "one")]) == 0
    assert main(["verify", str(path), "--out", str(tmp_path / "all")]) == 0
    one = (tmp_path / "one" / "report.csv").read_text().splitlines()[1:]
    every = (tmp_path / "all" / "report.csv").read_text().splitlines()[1:]
    assert all(row.startswith('"parallelogram[') for row in one)
    assert set(one) < set(every) and not all(row.startswith('"parallelogram[') for row in every)
    with pytest.raises(SystemExit) as bad:
        main(["solve", str(path), "--seed", "five"])
    assert bad.value.code == 2
    assert main(["solve", str(path)]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["seed"] == 7
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config fuzzing: a mutated config gets an exit code, never a traceback
# ---------------------------------------------------------------------------

FUZZ_SOLVE = {
    "schema": 1,
    "seed": 7,
    "space": {"kind": "euclidean", "dim": 1},
    "problem": explicit_problem(),
    "solver": {"method": "bcd", "tol": 1e-9, "max_sweeps": 50},
}
FUZZ_SOLVE_GENERATED = {
    "schema": 1,
    "seed": 7,
    "problem": {"generator": "consensus", "params": {"cells": 3}},
    "solver": {"method": "norm-minimal", "max_sweeps": 50},
}
FUZZ_SOLVE_TREE = {
    "schema": 1,
    "seed": 7,
    "space": STAR3,
    "problem": {
        "cells": [{"id": "a", "weight": 1.0}],
        "edges": [twist_edge({"kind": "tree", "vertex_map": {"c": "c", "l1": "l2", "l2": "l3", "l3": "l1"}})],
        "base_point": {"edge": 0, "offset": 0.5},
    },
    "solver": {"max_sweeps": 50},
}
FUZZ_SOLVE_LP = {
    "schema": 1,
    "seed": 7,
    "space": LP2,
    "problem": signed_perm_problem([1, 0], [1, 1]),
    "solver": {"max_sweeps": 50},
}
FUZZ_VERIFY = {
    "schema": 1,
    "seed": 7,
    "problem": {"generator": "consensus", "params": {"cells": 3}},
    "verify": {"samples": 3, "budget": 40, "count": 1, "euclid_instances": 1, "tree_instances": 1},
}
FUZZ_SUITES = ["uc-witness", "mazur", "parallelogram", "modulus", "clifford", "circumcenter"]
# small values only: a mutated budget must stay cheap to run
FUZZ_VALUES = [None, "x", math.nan, math.inf, -math.inf, True, [], {}, 0, -5, 2.7, 1.0, 2, "bcd", "lp"]


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw, bases):
    cfg = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        if not path:
            cfg = draw(st.sampled_from(FUZZ_VALUES))
            break
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "extra"]))
        if action == "replace":
            parent[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["extra_field"] = draw(st.sampled_from(FUZZ_VALUES))
        else:
            parent.append(draw(st.sampled_from(FUZZ_VALUES)))
    return cfg


def _run_quietly(cfg, argv_tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv_tail[0], str(path), "--out", str(Path(tmp) / "out"), *argv_tail[1:]])
    return code, err.getvalue()


@settings(max_examples=80)
@given(mutated_configs([FUZZ_SOLVE, FUZZ_SOLVE_GENERATED, FUZZ_SOLVE_TREE, FUZZ_SOLVE_LP]))
def test_fuzzed_solve_config_exits_cleanly(cfg):
    code, err = _run_quietly(cfg, ["solve"])
    assert code in (0, 2, 3) and "Traceback" not in err


@settings(max_examples=80)
@given(mutated_configs([FUZZ_VERIFY]), st.sampled_from(FUZZ_SUITES))
def test_fuzzed_verify_config_exits_cleanly(cfg, suite):
    # 1 is a legitimately failing check (a tiny budget can fail the modulus suite)
    code, err = _run_quietly(cfg, ["verify", "--suite", suite])
    assert code in (0, 1, 2) and "Traceback" not in err
