import warnings

import numpy as np
import pytest

from busemann.harmonic import (
    Edge,
    EquivariantProblem,
    IdentityConventionWarning,
    conjugate_problem,
    energy,
    energy_by_class,
    frechet_mean,
    harmonic_properties_check,
    lexicographic_minimize,
    minimize_energy,
    norm_minimal_minimizer,
    orbit_diameter_heuristic,
)
from busemann.mapspace import EquivariantMap, MeasureModel, map_distance, map_midpoint
from busemann.models import (
    dihedral_line_model,
    product_two_class_model,
    translation_loop_model,
    tree_leafswap_model,
)
from busemann.oracles import grid_minimum_energy
from busemann.spaces import (
    DomainError,
    Euclidean,
    SolverError,
    identity_isometry,
    point_reflection,
    star_tree,
    translation,
)

warnings.simplefilter("ignore", IdentityConventionWarning)

E1 = Euclidean(1)
STAR = star_tree(3)
IDENT = identity_isometry(E1)
T1 = translation(E1, (1.0,))
R0 = point_reflection(E1, (0.0,))
M1 = MeasureModel(("a",), (1.0,))
M2 = MeasureModel(("a", "b"), (0.5, 0.5))


def emap(model, values):
    return EquivariantMap(model, E1, tuple((float(v),) for v in values))


def loop_problem(twist, base=0.0):
    return EquivariantProblem(M1, E1, (float(base),), (Edge("a", "a", 1.0, twist),))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_translation_loop_is_flat():
    prob = loop_problem(T1)
    for x in (-3.0, 0.0, 7.5):
        assert energy(prob, emap(M1, (x,))) == 1.0


def test_energy_identity_edge():
    prob = EquivariantProblem(M2, E1, (0.0,), (Edge("a", "b", 1.0, IDENT),))
    assert energy(prob, emap(M2, (0, 3))) == pytest.approx(0.5 * 9.0, abs=1e-15)


def test_energy_reflection_loop():
    prob = loop_problem(R0)
    for c in (0.0, 1.0, -2.5):
        assert energy(prob, emap(M1, (c,))) == pytest.approx((2 * c) ** 2, abs=1e-12)


def test_energy_class_filter():
    gm = product_two_class_model()
    e_all = energy(gm.problem, gm.init)
    by_class = energy_by_class(gm.problem, gm.init)
    assert e_all == pytest.approx(by_class[1] + by_class[2], abs=1e-12)


def test_energy_validates_classes():
    with pytest.raises(Exception):
        EquivariantProblem(M1, E1, (0.0,), (Edge("a", "a", 1.0, T1, 3),))


def test_identity_convention_warning():
    with pytest.warns(IdentityConventionWarning):
        EquivariantProblem(M1, E1, (0.0,), (Edge("a", "a", 1.0, T1),))


# ---------------------------------------------------------------------------
# Frechet means
# ---------------------------------------------------------------------------


def test_frechet_mean_euclidean_exact():
    assert frechet_mean(E1, [(0.0,), (4.0,)], [1.0, 1.0]) == (2.0,)
    assert frechet_mean(E1, [(0.0,), (0.0,), (3.0,)], [1.0, 1.0, 1.0]) == (1.0,)


def test_frechet_mean_star_tree_center_vs_grid():
    pts = [STAR.vertex_point(f"l{i}") for i in (1, 2, 3)]
    fm = frechet_mean(STAR, pts, [1.0, 1.0, 1.0], tol=1e-10)
    obj = lambda z: sum(STAR.distance(z, q) ** 2 for q in pts)
    grid_best = min(
        obj(STAR.point(e, float(t)))
        for e in range(3)
        for t in np.linspace(1e-9, 1.0, 400)
    )
    assert obj(fm) <= grid_best + 1e-9
    assert STAR.distance(fm, STAR.vertex_point("c")) <= 1e-6


def test_frechet_mean_rejects_bad_weights():
    with pytest.raises(DomainError):
        frechet_mean(E1, [(0.0,)], [0.0])


# ---------------------------------------------------------------------------
# minimize_energy
# ---------------------------------------------------------------------------


def test_consensus_jacobi_reaches_symmetric_limit():
    prob = EquivariantProblem(
        M2, E1, (0.0,), (Edge("a", "b", 1.0, IDENT), Edge("b", "a", 1.0, IDENT))
    )
    rep = minimize_energy(prob, emap(M2, (0, 10)), tol=1e-10, mode="jacobi")
    assert rep.converged
    assert rep.energy_total <= 1e-12
    assert rep.solution.values[0] == pytest.approx((5.0,), abs=1e-6)
    assert rep.solution.values[1] == pytest.approx((5.0,), abs=1e-6)


def test_consensus_gauss_seidel_reaches_zero_energy():
    prob = EquivariantProblem(
        M2, E1, (0.0,), (Edge("a", "b", 1.0, IDENT), Edge("b", "a", 1.0, IDENT))
    )
    rep = minimize_energy(prob, emap(M2, (0, 10)), tol=1e-10)
    assert rep.converged and rep.energy_total <= 1e-12
    assert abs(rep.solution.values[0][0] - rep.solution.values[1][0]) <= 1e-9


def test_reflection_loop_fixed_point():
    rep = minimize_energy(loop_problem(R0), emap(M1, (7,)), tol=1e-12)
    assert rep.solution.values[0] == pytest.approx((0.0,), abs=1e-9)
    assert rep.energy_total <= 1e-15


def test_dihedral_matches_grid_oracle():
    gm = dihedral_line_model(3)
    rep = minimize_energy(gm.problem, gm.init, tol=1e-12, max_sweeps=2000)
    _, e_grid, bound = grid_minimum_energy(gm.problem, span=1.0, coarse=17, refine_rounds=5)
    assert rep.energy_total <= e_grid + 1e-6
    assert e_grid <= rep.energy_total + bound + 1e-6
    # closed-form optimum of the quadratic: cells at (1/7, 0, -1/7)
    vals = [v[0] for v in rep.solution.values]
    assert vals == pytest.approx([1.0 / 7.0, 0.0, -1.0 / 7.0], abs=1e-9)


def test_trace_monotone_and_exact_euclidean():
    gm = dihedral_line_model(3)
    rep = minimize_energy(gm.problem, gm.init, tol=1e-12, max_sweeps=2000)
    objs = [row.objective for row in rep.trace]
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_trace_monotone_tree():
    gm = tree_leafswap_model()
    rep = minimize_energy(gm.problem, gm.init, tol=1e-10, max_sweeps=500)
    objs = [row.objective for row in rep.trace]
    assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(objs, objs[1:]))
    assert rep.energy_total <= 1e-12


def test_jacobi_matches_gauss_seidel_energy():
    gm = dihedral_line_model(3)
    r1 = minimize_energy(gm.problem, gm.init, tol=1e-11, max_sweeps=3000)
    r2 = minimize_energy(gm.problem, gm.init, tol=1e-11, max_sweeps=3000, mode="jacobi")
    assert r2.energy_total == pytest.approx(r1.energy_total, abs=1e-8)


def test_max_sweeps_reports_unconverged():
    gm = dihedral_line_model(3)
    rep = minimize_energy(gm.problem, gm.init, tol=1e-12, max_sweeps=1)
    assert not rep.converged


@pytest.mark.parametrize("mode", ["gauss-seidel", "jacobi"])
def test_non_finite_start_fails_at_once(mode):
    # used to run all 500 sweeps on NaN energy before reporting non-convergence
    gm = dihedral_line_model(3)
    phi = emap(gm.problem.model, [0.0, float("nan"), 0.0])
    with pytest.raises(SolverError, match="non-finite objective nan at sweep 0"):
        minimize_energy(gm.problem, phi, max_sweeps=500, mode=mode)


def test_energy_convex_along_map_geodesics(rng):
    gm = dihedral_line_model(3)
    prob = gm.problem
    from busemann.mapspace import sample_map

    for _ in range(300):
        phi = sample_map(prob.model, prob.target, rng)
        psi = sample_map(prob.model, prob.target, rng)
        mid = map_midpoint(phi, psi)
        assert energy(prob, mid) <= 0.5 * energy(prob, phi) + 0.5 * energy(prob, psi) + 1e-12


# ---------------------------------------------------------------------------
# norm-minimal selection
# ---------------------------------------------------------------------------


def test_norm_minimal_translation_loop_returns_base():
    gm = translation_loop_model(0.0)
    rep = norm_minimal_minimizer(gm.problem, tol=1e-9)
    assert rep.solution.values[0] == pytest.approx((0.0,), abs=1e-6)
    gaps = rep.extras["stage_gaps"][1:]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6
    assert rep.extras["norm_check"]["violations"] == 0


def test_norm_minimal_respects_base_point():
    gm = translation_loop_model(5.0)
    rep = norm_minimal_minimizer(gm.problem, tol=1e-9)
    assert rep.solution.values[0] == pytest.approx((5.0,), abs=1e-6)


def test_norm_minimal_agrees_with_bcd_on_unique_problem():
    gm = dihedral_line_model(3)
    r1 = minimize_energy(gm.problem, gm.init, tol=1e-11, max_sweeps=3000)
    r2 = norm_minimal_minimizer(gm.problem, tol=1e-9)
    assert map_distance(2.0, r1.solution, r2.solution) <= 1e-6


def test_norm_minimal_non_cauchy_schedule_errors():
    from busemann.spaces import SolverError

    gm = dihedral_line_model(3)
    # a schedule truncated far above the tolerance leaves a visible gap
    with pytest.raises(SolverError):
        norm_minimal_minimizer(gm.problem, tol=1e-12, schedule=[0.5, 0.25])


def test_norm_minimal_idempotent():
    gm = translation_loop_model(0.0)
    rep = norm_minimal_minimizer(gm.problem, tol=1e-9)
    again = minimize_energy(gm.problem, rep.solution, tol=1e-9)
    assert map_distance(2.0, rep.solution, again.solution) <= 1e-9
    rep2 = norm_minimal_minimizer(gm.problem, tol=1e-9)
    assert map_distance(2.0, rep.solution, rep2.solution) <= 1e-9


# ---------------------------------------------------------------------------
# lexicographic minimization
# ---------------------------------------------------------------------------


def test_lexicographic_single_class_equals_bcd():
    gm = dihedral_line_model(3)
    r1 = minimize_energy(gm.problem, tol=1e-11, max_sweeps=3000)
    r2 = lexicographic_minimize(gm.problem, [1], tol=1e-11)
    assert r2.energy_total == pytest.approx(r1.energy_total, abs=1e-9)


def test_lexicographic_separable_classes():
    # two cells, each touched by one class only
    m = MeasureModel(("a", "b"), (0.5, 0.5))
    prob = EquivariantProblem(
        m,
        E1,
        (0.0,),
        (
            Edge("a", "a", 1.0, point_reflection(E1, (1.0,)), 1),
            Edge("b", "b", 1.0, point_reflection(E1, (-2.0,)), 2),
        ),
    )
    rep = lexicographic_minimize(prob, [1, 2], tol=1e-10)
    assert rep.solution.values[0] == pytest.approx((1.0,), abs=1e-8)
    assert rep.solution.values[1] == pytest.approx((-2.0,), abs=1e-8)


def test_lexicographic_product_two_class_vs_factor_solves():
    gm = product_two_class_model()
    rep = lexicographic_minimize(gm.problem, [1, 2], tol=1e-10)
    # independent factor problems, solved by brute force
    f1 = EquivariantProblem(M1, E1, (0.0,), (Edge("a", "a", 1.0, R0, 1),))
    f2 = EquivariantProblem(M1, E1, (0.0,), (Edge("a", "a", 1.0, point_reflection(E1, (1.0,)), 1),))
    _, e1_grid, _ = grid_minimum_energy(f1, span=2.0, coarse=21, refine_rounds=4)
    _, e2_grid, _ = grid_minimum_energy(f2, span=2.0, coarse=21, refine_rounds=4)
    assert rep.energy_per_class[1] <= e1_grid + 1e-6
    assert rep.energy_per_class[2] <= e2_grid + 1e-6
    (x, y), = rep.solution.values
    assert x == pytest.approx((0.0,), abs=1e-7)
    assert y == pytest.approx((1.0,), abs=1e-7)


def test_lexicographic_unknown_class_rejected():
    gm = dihedral_line_model(3)
    with pytest.raises(DomainError):
        lexicographic_minimize(gm.problem, [1, 2])


# ---------------------------------------------------------------------------
# structure of minimizer pairs
# ---------------------------------------------------------------------------


def test_properties_check_trivial_on_equal_maps():
    gm = dihedral_line_model(3)
    rep = minimize_energy(gm.problem, gm.init, tol=1e-11, max_sweeps=2000)
    facts = harmonic_properties_check(gm.problem, rep.solution, rep.solution)
    assert facts.midpoint_ok and not facts.parallel_failures
    assert facts.symmetry_ok


def test_properties_check_translation_flat_family():
    prob = loop_problem(T1)
    phi = emap(M1, (0.0,))
    psi = emap(M1, (3.0,))
    assert energy(prob, phi) == energy(prob, psi) == 1.0
    facts = harmonic_properties_check(prob, phi, psi, tol=1e-9)
    assert facts.midpoint_ok
    assert energy(prob, map_midpoint(phi, psi)) == pytest.approx(1.0, abs=1e-12)
    assert not facts.parallel_failures


def test_properties_check_consensus_constants():
    prob = EquivariantProblem(
        M2, E1, (0.0,), (Edge("a", "b", 1.0, IDENT), Edge("b", "a", 1.0, IDENT))
    )
    phi = emap(M2, (2.0, 2.0))
    psi = emap(M2, (-1.0, -1.0))
    facts = harmonic_properties_check(prob, phi, psi)
    assert facts.midpoint_ok and not facts.parallel_failures


def test_properties_check_rejects_unequal_energies():
    gm = dihedral_line_model(3)
    good = minimize_energy(gm.problem, gm.init, tol=1e-11, max_sweeps=2000).solution
    bad = gm.init
    with pytest.raises(DomainError):
        harmonic_properties_check(gm.problem, good, bad)


# ---------------------------------------------------------------------------
# equivariance consistency and the orbit heuristic
# ---------------------------------------------------------------------------


def test_relabel_conjugate_energy_exact_dyadic():
    # integer/dyadic data so floating arithmetic is exact
    m = MeasureModel(("a", "b"), (0.5, 0.5))
    prob = EquivariantProblem(
        m,
        E1,
        (0.0,),
        (Edge("a", "b", 1.0, T1), Edge("b", "b", 1.0, R0)),
    )
    lam = translation(E1, (2.0,))
    sig = {"a": "b", "b": "a"}
    prob2 = conjugate_problem(prob, sig, lam)
    phi = emap(m, (0.5, -1.25))
    idx = {c: i for i, c in enumerate(m.cells)}
    vals = [None, None]
    for c in m.cells:
        vals[idx[sig[c]]] = lam.apply(phi.values[idx[c]])
    phi2 = EquivariantMap(m, E1, tuple(vals))
    assert energy(prob2, phi2) == energy(prob, phi)


def test_relabel_conjugate_optimal_energy_invariant():
    gm = dihedral_line_model(3)
    lam = translation(E1, (2.0,))
    sig = {"c0": "c1", "c1": "c2", "c2": "c0"}
    prob2 = conjugate_problem(gm.problem, sig, lam)
    e1 = minimize_energy(gm.problem, tol=1e-12, max_sweeps=3000).energy_total
    e2 = minimize_energy(prob2, tol=1e-12, max_sweeps=3000).energy_total
    assert e2 == pytest.approx(e1, rel=1e-12)


def test_orbit_diameter_heuristic_reported():
    prob_flat = loop_problem(T1)
    d_flat = orbit_diameter_heuristic(prob_flat, (0.0,), word_length=3)
    assert d_flat == pytest.approx(6.0)
    prob_refl = loop_problem(R0)
    d_refl = orbit_diameter_heuristic(prob_refl, (1.0,), word_length=5)
    assert d_refl == pytest.approx(2.0)
