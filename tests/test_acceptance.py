"""Acceptance suite: every criterion at its stated budget and tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
"""

import json
import math

import pytest

from busemann.cli import main as cli_main
from busemann.convexity import modulus_estimate
from busemann.harmonic import norm_minimal_minimizer
from busemann.models import product_two_class_model, translation_loop_model
from busemann.oracles import euclidean_modulus_1d
from busemann.spaces import Euclidean, star_tree
from busemann.verify import (
    suite_circumcenter,
    suite_clifford,
    suite_commensurability,
    suite_mazur,
    suite_parallelogram,
    suite_solver_oracle,
    suite_uc_witness,
)

EPS_GRID = (0.25, 0.5, 1.0, 1.5)
BUDGET = 10_000


def _line(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def hilbert(eps: float) -> float:
    return 1.0 - math.sqrt(1.0 - eps * eps / 4.0)


# -- criterion 1: modulus oracle --------------------------------------------


def test_criterion_01_modulus_euclidean_d2_d5():
    worst = 0.0
    for d in (2, 5):
        space = Euclidean(d)
        for eps in EPS_GRID:
            est = modulus_estimate(space, space.origin(), eps, 1.0, budget=BUDGET, seed=d)
            worst = max(worst, abs(est.value - hilbert(eps)) / hilbert(eps))
    assert _line(
        "criterion-1 (modulus, Euclidean d in {2,5} vs Hilbert form)",
        worst <= 0.02,
        f"worst rel gap {worst:.2e} (tol 2%)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the Hilbert closed form does not hold on the real line: the true "
    "modulus of R is eps*r/2 (see the companion test against the brute-force "
    "oracle); the criterion's d=1 row is unattainable as stated",
)
def test_criterion_01_modulus_euclidean_d1_hilbert_form():
    space = Euclidean(1)
    worst = 0.0
    for eps in EPS_GRID:
        est = modulus_estimate(space, space.origin(), eps, 1.0, budget=BUDGET, seed=1)
        worst = max(worst, abs(est.value - hilbert(eps)) / hilbert(eps))
    _line("criterion-1 (modulus, Euclidean d=1 vs Hilbert form)", worst <= 0.02, f"worst {worst:.2e}")
    assert worst <= 0.02


def test_criterion_01_modulus_euclidean_d1_true_oracle():
    space = Euclidean(1)
    worst = 0.0
    for eps in EPS_GRID:
        est = modulus_estimate(space, space.origin(), eps, 1.0, budget=BUDGET, seed=1)
        true = euclidean_modulus_1d(eps)
        worst = max(worst, abs(est.value - true) / true)
    assert _line(
        "criterion-1 (modulus, Euclidean d=1 vs brute-force oracle eps*r/2)",
        worst <= 0.02,
        f"worst rel gap {worst:.2e} (tol 2%)",
    )


def test_criterion_01_modulus_star_tree():
    tree = star_tree(3)
    c = tree.vertex_point("c")
    worst = 0.0
    for eps in EPS_GRID:
        est = modulus_estimate(tree, c, eps, 1.0, budget=BUDGET, seed=2)
        worst = max(worst, abs(est.value - eps / 2.0) / (eps / 2.0))
    assert _line(
        "criterion-1 (modulus, unit star tree vs eps*r/2)",
        worst <= 0.02,
        f"worst rel gap {worst:.2e} (tol 2%)",
    )


# -- criterion 2: uniform-convexity certification ----------------------------


def test_criterion_02_uc_witness_certification():
    results = suite_uc_witness(samples=100_000)
    ok = all(r.passed for r in results)
    total_viol = sum(int(r.worst) for r in results)
    assert _line(
        "criterion-2 (uc witness, 1e5 triples x {R, l3^3, star tree} x p in {1.5,2,3})",
        ok,
        f"violations {total_viol} across {len(results)} configurations",
    )


# -- criterion 3: parallelogram lemma ----------------------------------------


def test_criterion_03_parallelogram():
    results = suite_parallelogram(samples=10_000)
    ok = all(r.passed for r in results)
    assert _line(
        "criterion-3 (parallelogram equivalence, 1e4 quadruples per space)",
        ok,
        f"violations {sum(int(r.worst) for r in results)} over {len(results)} spaces",
    )


# -- criterion 4: solver vs exhaustive grid ----------------------------------


def test_criterion_04_solver_oracle_equivalence():
    results = suite_solver_oracle()
    ok = all(r.passed for r in results)
    assert _line(
        "criterion-4 (minimize_energy vs exhaustive grid, <=3 cells, 1-D/tree)",
        ok,
        "; ".join(f"{r.name.split('[')[1][:-1]}:{'ok' if r.passed else 'BAD'}" for r in results),
    )


# -- criterion 5: norm-minimal selection -------------------------------------


def test_criterion_05_norm_minimal_selection():
    # the exact selection on the flat Euclidean loop: the base point, with
    # its one flat direction counted
    gm = translation_loop_model(0.0)
    rep = norm_minimal_minimizer(gm.problem, tol=1e-9)
    at_base = abs(rep.solution.values[0][0]) <= 1e-6
    flat = rep.extras["flat_directions"] == 1
    # the penalty homotopy on an energy that does not compile (a product target)
    homotopy = norm_minimal_minimizer(product_two_class_model().problem, tol=1e-9)
    gaps = homotopy.extras["stage_gaps"][1:]
    monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    cauchy = gaps[-1] < 1e-6
    ok = at_base and flat and monotone and cauchy
    assert _line(
        "criterion-5 (norm-minimal on flat translation loop, homotopy on product-two-class)",
        ok,
        f"|phi - x0| = {abs(rep.solution.values[0][0]):.2e}, "
        f"flat directions {rep.extras['flat_directions']}, final gap {gaps[-1]:.2e}",
    )


# -- criterion 6: commensurability lemmas -------------------------------------


def test_criterion_06_commensurability_lemmas():
    results = {r.name: r for r in suite_commensurability()}
    conj = results["conjugation-identity"]
    cover = results["normal-cover-coincidence"]
    cover_flat = results["normal-cover-coincidence-flat"]
    unique = results["restart-unique[dihedral]"]
    nonunique = results["non-uniqueness-reported[translation]"]
    ok = all(
        r.passed for r in (conj, cover, cover_flat, unique, nonunique)
    ) and conj.worst <= 1e-12 and cover.worst <= 1e-5
    assert _line(
        "criterion-6 (conjugation exact, normal-cover coincidence, uniqueness)",
        ok,
        f"conj gap {conj.worst:.1e}, cover gap {cover.worst:.1e}, "
        f"flat-cover gap {cover_flat.worst:.1e}",
    )


# -- criterion 7: Mazur map ----------------------------------------------------


def test_criterion_07_mazur_map():
    results = suite_mazur(samples=100_000)
    ok = all(r.passed for r in results)
    rts = [r for r in results if r.name.startswith("mazur-roundtrip")]
    fits = [r for r in results if r.name.startswith("mazur-continuity")]
    assert _line(
        "criterion-7 (Mazur round-trip/intertwining/continuity, 1e5 pairs)",
        ok,
        f"worst roundtrip {max(r.worst for r in rts):.1e}, "
        f"fitted C {[round(r.worst, 3) for r in fits]}",
    )


# -- criterion 8: circumcenter oracle -----------------------------------------


def test_criterion_08_circumcenter_oracle():
    results = suite_circumcenter(euclid_instances=200, tree_instances=100)
    ok = all(r.passed for r in results)
    assert _line(
        "criterion-8 (circumcenter vs brute-force, 200 planar + 100 tree)",
        ok,
        "; ".join(f"{r.name}: worst {r.worst:.1e}" for r in results),
    )


# -- criterion 9: Clifford detection -------------------------------------------


def test_criterion_09_clifford_detection():
    # 50 translations + 50 rotations/reflections in each of dims 2 and 3
    results = suite_clifford(count=50)
    ok = all(r.passed for r in results)
    assert _line(
        "criterion-9 (100 translations Clifford, 100 rotations/reflections not)",
        ok,
        "; ".join(f"{r.name}: worst {r.worst:.1e}" for r in results),
    )


# -- criterion 10: CLI determinism and exit codes -------------------------------


def test_criterion_10_cli_contract(tmp_path):
    solvers = {
        "consensus": {"method": "bcd", "tol": 1e-10},
        "dihedral-line": {"method": "bcd", "tol": 1e-10},
        "translation-loop": {"method": "norm-minimal", "tol": 1e-9},
        "product-two-class": {"method": "lexicographic", "class_order": [1, 2]},
        "dihedral-cover": {"method": "commensurability", "tol": 1e-9},
    }
    identical = True
    for name, solver in solvers.items():
        cfg = {
            "schema": 1,
            "seed": 7,
            "problem": {"generator": name},
            "solver": solver,
            "output": {"dir": str(tmp_path / name / "a")},
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["solve", str(path)]) == 0
        assert cli_main(["solve", str(path), "--out", str(tmp_path / name / "b")]) == 0
        for artifact in ("trace.csv", "solution.csv"):
            identical &= (
                (tmp_path / name / "a" / artifact).read_bytes()
                == (tmp_path / name / "b" / artifact).read_bytes()
            )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "seed": 1, "problem": {"cells": [], "edges": [], "base_point": [0]}}))
    exit2 = cli_main(["solve", str(bad)]) == 2
    slow = tmp_path / "slow.json"
    slow.write_text(
        json.dumps(
            {
                "schema": 1,
                "seed": 7,
                "problem": {"generator": "dihedral-line"},
                "solver": {"method": "bcd", "tol": 1e-12, "max_sweeps": 1},
                "output": {"dir": str(tmp_path / "slow")},
            }
        )
    )
    exit3 = cli_main(["solve", str(slow)]) == 3
    vcfg = tmp_path / "verify.json"
    vcfg.write_text(
        json.dumps(
            {
                "schema": 1,
                "seed": 3,
                "problem": {"generator": "consensus"},
                "verify": {"samples": 500, "budget": 2000, "count": 10},
                "output": {"dir": str(tmp_path / "v")},
            }
        )
    )
    exit0 = cli_main(["verify", str(vcfg), "--suite", "clifford"]) == 0
    ok = identical and exit2 and exit3 and exit0
    assert _line(
        "criterion-10 (CLI determinism and exit codes on all generators)",
        ok,
        f"byte-identical {identical}, exit2 {exit2}, exit3 {exit3}, verify-exit0 {exit0}",
    )
