import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from busemann import harmonic
from busemann.commensurability import comm_energy_model, subgroup_harmonic
from busemann.harmonic import (
    Edge,
    EquivariantProblem,
    IdentityConventionWarning,
    conjugate_problem,
    energy,
    energy_by_class,
    lexicographic_minimize,
    minimize_energy,
    norm_minimal_minimizer,
    quadratic_minimizer,
    LOCAL_PATHS,
    _local_objective,
    _newton_local,
    _norm_blocks,
    _solve_1d,
    _solve_local,
    _solve_local_tree_exact,
    _term_plans,
)
from busemann.convexity import minimize_convex, parallel_check
from busemann.mapspace import EquivariantMap, MeasureModel, map_distance, map_midpoint
from busemann.models import (
    GeneratedModel,
    consensus_model,
    dihedral_cover_model,
    dihedral_line_model,
    generate,
    product_two_class_model,
    translation_loop_model,
    tree_leafswap_model,
)
from busemann.oracles import grid_minimum_energy
from busemann.spaces import (
    DomainError,
    Euclidean,
    EuclideanIsometry,
    LpVector,
    MetricTree,
    Product,
    ProductIsometry,
    SolverError,
    SpaceMismatchError,
    TreeIsometry,
    identity_isometry,
    random_tree,
    point_reflection,
    rotation_2d,
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
    # a two-leaf swap on a 40-leaf star is not the identity, though six
    # sampled points miss the two edges it moves
    star40 = star_tree(40)
    swap = TreeIsometry(star40, {**{v: v for v in star40.vertices}, "l7": "l8", "l8": "l7"})
    with pytest.warns(IdentityConventionWarning):
        EquivariantProblem(M1, star40, star40.vertex_point("c"), (Edge("a", "a", 1.0, swap),))


# ---------------------------------------------------------------------------
# Frechet means: the local solve of a cell with point terms only
# ---------------------------------------------------------------------------


def frechet_mean(space, pts, tol=1e-9):
    """The minimizer of sum_i d(z, pt_i)^2, solved from the first point."""
    return _solve_local(space, 2.0, [(1.0, q) for q in pts], [], pts[0], tol)


def test_frechet_mean_euclidean_exact():
    assert frechet_mean(E1, [(0.0,), (4.0,)]) == (2.0,)
    assert frechet_mean(E1, [(0.0,), (0.0,), (3.0,)]) == (1.0,)


def test_frechet_mean_star_tree_center_vs_grid():
    pts = [STAR.vertex_point(f"l{i}") for i in (1, 2, 3)]
    fm = frechet_mean(STAR, pts, tol=1e-10)
    obj = lambda z: sum(STAR.distance(z, q) ** 2 for q in pts)
    grid_best = min(
        obj(STAR.point(e, float(t)))
        for e in range(3)
        for t in np.linspace(1e-9, 1.0, 400)
    )
    assert obj(fm) <= grid_best + 1e-9
    assert STAR.distance(fm, STAR.vertex_point("c")) <= 1e-6


# ---------------------------------------------------------------------------
# minimize_energy
# ---------------------------------------------------------------------------


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
    # exact block minimization never raises the true energy, but a row is the
    # fsum of rounded weighted squares, which lies within ~4u of it (u the
    # float epsilon), so near the minimizer a row may read a few ulps above
    # the row before
    assert all(b <= a * (1 + 4 * sys.float_info.epsilon) for a, b in zip(objs, objs[1:]))


def test_trace_monotone_tree():
    gm = tree_leafswap_model()
    rep = minimize_energy(gm.problem, gm.init, tol=1e-10, max_sweeps=500)
    objs = [row.objective for row in rep.trace]
    assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(objs, objs[1:]))
    assert rep.energy_total <= 1e-12


def test_max_sweeps_reports_unconverged():
    gm = dihedral_line_model(3)
    rep = minimize_energy(gm.problem, gm.init, tol=1e-12, max_sweeps=1)
    assert not rep.converged


def test_non_finite_start_fails_at_once():
    # used to run all 500 sweeps on NaN energy before reporting non-convergence
    gm = dihedral_line_model(3)
    phi = emap(gm.problem.model, [0.0, float("nan"), 0.0])
    with pytest.raises(SolverError, match="non-finite objective nan at sweep 0") as info:
        minimize_energy(gm.problem, phi, max_sweeps=500)
    assert info.value.stop_reason == "non-finite"


@pytest.mark.parametrize("s", [1e16, 1e17, 1e150])
def test_absorbed_shift_is_a_solver_error(s):
    # x + 1 rounds to x at these magnitudes: both cells used to settle at -s
    # with energy 0.0 and "converged", though the minimum energy is 0.25
    prob = EquivariantProblem(M2, E1, (0.0,), (Edge("a", "b", 1.0, IDENT), Edge("b", "a", 1.0, T1)))
    assert prob.arrays is not None
    with pytest.raises(SolverError, match="absorbed shift"):
        minimize_energy(prob, emap(M2, [s, -s]))
    # at unit scale the same problem solves to its minimum
    assert minimize_energy(prob, emap(M2, [1.0, -1.0]), tol=1e-12).energy_total == pytest.approx(0.25)


def test_shift_residues_are_not_absorbed_shifts():
    # rotation_2d(pi/2) after the unit translation has the shift (6.1e-17, 1.0),
    # whose first component is a rounding residue that any coordinate of size
    # 1 takes out; the fixed point (-0.5, 0.5) is still the solution
    E2 = Euclidean(2)
    twist = rotation_2d(math.pi / 2).compose(translation(E2, (1.0, 0.0)))
    assert 0.0 < twist.shift[0] < 1e-16
    prob = EquivariantProblem(M1, E2, (0.0, 0.0), (Edge("a", "a", 1.0, twist),))
    for start in [(0.0, 0.0), (3.0, 5.0), (-2.0e3, 7.0)]:
        rep = minimize_energy(prob, EquivariantMap(M1, E2, (start,)), tol=1e-12)
        assert rep.converged and rep.extras["engine"] == "compiled"
        assert rep.solution.values[0] == pytest.approx((-0.5, 0.5), abs=1e-12)
        assert rep.energy_total <= 1e-24


def test_absorbed_shift_check_skips_dropped_classes():
    # class weights drop the translation: the kept identity edge is at its
    # minimum at (1e16, 1e16), where the dropped shift would be absorbed
    prob = EquivariantProblem(
        M2, E1, (0.0,), (Edge("a", "b", 1.0, IDENT, 1), Edge("b", "a", 1.0, T1, 2))
    )
    rep = minimize_energy(prob, emap(M2, [1e16, 1e16]), class_weights={1: 1.0})
    assert rep.converged and rep.solution.values == ((1e16,), (1e16,))
    with pytest.raises(SolverError, match="absorbed shift"):
        minimize_energy(prob, emap(M2, [1e16, 1e16]))


def test_problem_rejects_non_finite_base_point():
    with pytest.raises(SpaceMismatchError):
        EquivariantProblem(M1, E1, (float("inf"),), (Edge("a", "a", 1.0, IDENT),))


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
    # the exact selection on the Euclidean loop
    gm = translation_loop_model(0.0)
    rep = norm_minimal_minimizer(gm.problem, tol=1e-9)
    assert rep.solution.values[0] == pytest.approx((0.0,), abs=1e-6)
    assert rep.extras["flat_directions"] == 1
    # the penalty homotopy on the same loop in l_p(1, 3), which does not compile
    lp = LpVector(1, 3.0)
    prob = EquivariantProblem(
        MeasureModel(("c0",), (1.0,)), lp, (0.0,), (Edge("c0", "c0", 1.0, translation(lp, (1.0,))),)
    )
    rep = norm_minimal_minimizer(prob, tol=1e-9)
    assert rep.solution.values[0] == pytest.approx((0.0,), abs=1e-6)
    gaps = rep.extras["stage_gaps"][1:]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_norm_minimal_respects_base_point():
    gm = translation_loop_model(5.0)
    rep = norm_minimal_minimizer(gm.problem, tol=1e-9)
    assert rep.solution.values[0] == pytest.approx((5.0,), abs=1e-6)


def test_norm_minimal_agrees_with_bcd_on_unique_problem():
    gm = dihedral_line_model(3)
    r1 = minimize_energy(gm.problem, gm.init, tol=1e-11, max_sweeps=3000)
    r2 = norm_minimal_minimizer(gm.problem, tol=1e-9)
    assert map_distance(2.0, r1.solution, r2.solution) <= 1e-6


def test_norm_minimal_non_cauchy_schedule_errors(monkeypatch):
    # a schedule truncated far above the tolerance leaves a visible gap
    monkeypatch.setattr(harmonic, "PENALTY_SCHEDULE", (0.5, 0.25))
    with pytest.raises(SolverError, match="not Cauchy"):
        norm_minimal_minimizer(product_two_class_model().problem, tol=1e-12)


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


def test_lexicographic_escalates_drifting_class_weight(monkeypatch):
    # class 1 wants a = b, class 2 wants b = a + 1: at weight 1e4 the class-1
    # energy drifts to about 5e-9 > tol, so the stage escalates to 1e6
    prob = EquivariantProblem(M2, E1, (0.0,), (Edge("a", "b", 1.0, IDENT, 1), Edge("a", "b", 1.0, T1, 2)))
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["class_weights"])
        return minimize_energy(*args, **kwargs)

    monkeypatch.setattr(harmonic, "minimize_energy", spy)
    tol = 1e-9
    rep = lexicographic_minimize(prob, [1, 2], tol=tol)
    assert seen == [{1: 1.0}, {1: 1e4, 2: 1.0}, {1: 1e6, 2: 1.0}]
    assert rep.energy_per_class[1] <= tol
    assert rep.extras["stage_minima"][1] <= tol


def test_lexicographic_unknown_class_rejected():
    gm = dihedral_line_model(3)
    with pytest.raises(DomainError):
        lexicographic_minimize(gm.problem, [1, 2])


# ---------------------------------------------------------------------------
# structure of minimizer pairs: the midpoint of two minimizers is a
# minimizer, and every edge transports their segments to parallel ones
# ---------------------------------------------------------------------------


def edge_segments_parallel(prob, phi, psi, tol):
    idx = {c: i for i, c in enumerate(prob.model.cells)}
    ends = lambda e, f: (e.twist.apply(f.values[idx[e.src]]), f.values[idx[e.dst]])
    return all(parallel_check(prob.target, *ends(e, phi), *ends(e, psi), tol=tol) for e in prob.edges)


def test_properties_check_translation_flat_family():
    prob = loop_problem(T1)
    phi = emap(M1, (0.0,))
    psi = emap(M1, (3.0,))
    assert energy(prob, phi) == energy(prob, psi) == 1.0
    assert energy(prob, map_midpoint(phi, psi)) == pytest.approx(1.0, abs=1e-12)
    assert edge_segments_parallel(prob, phi, psi, tol=1e-9)


def test_properties_check_consensus_constants():
    prob = EquivariantProblem(
        M2, E1, (0.0,), (Edge("a", "b", 1.0, IDENT), Edge("b", "a", 1.0, IDENT))
    )
    phi = emap(M2, (2.0, 2.0))
    psi = emap(M2, (-1.0, -1.0))
    assert energy(prob, phi) == energy(prob, psi) == energy(prob, map_midpoint(phi, psi)) == 0.0
    assert edge_segments_parallel(prob, phi, psi, tol=1e-7)


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


# ---------------------------------------------------------------------------
# compiled engine against the scalar engine
# ---------------------------------------------------------------------------


def scalar_copy(prob):
    """The same problem with the compiled engine switched off (``arrays`` is a
    cached property, so presetting it to None keeps minimize_energy scalar)."""
    copy = dataclasses.replace(prob)
    copy.__dict__["arrays"] = None
    return copy


def both_engines(prob, **kwargs):
    compiled = minimize_energy(prob, **kwargs)
    scalar = minimize_energy(scalar_copy(prob), **kwargs)
    assert compiled.extras["engine"] == "compiled"
    assert scalar.extras["engine"] == "scalar"
    return compiled, scalar


def outcome(rep):
    return repr((rep.trace, rep.solution.values, rep.iterations, rep.converged,
                 rep.energy_total, rep.energy_per_class, rep.norm, rep.extras))


def assert_same_run(prob, **kwargs):
    compiled, scalar = both_engines(prob, **kwargs)
    scalar.extras["engine"] = "compiled"
    assert outcome(compiled) == outcome(scalar)  # repr tells -0.0 from 0.0
    return compiled


def random_map(prob, seed):
    rng = np.random.default_rng(seed)
    return EquivariantMap(prob.model, prob.target, tuple(prob.target.sample(rng, 2.0) for _ in prob.model.cells))


@pytest.mark.parametrize(
    "name, params",
    [("consensus", {"cells": 6}), ("dihedral-line", {"cells": 7}), ("dihedral-cover", {"k": 2}), ("translation-loop", {})],
)
def test_compiled_engine_bit_identical_to_scalar(name, params):
    gm = generate(name, params)
    for start in (gm.init, None, random_map(gm.problem, 3)):
        rep = assert_same_run(gm.problem, phi_init=start, tol=1e-10, max_sweeps=2000)
        assert rep.converged


def two_class_problem():
    """dihedral-line(4) with its self-loops moved to edge class 2."""
    base = dihedral_line_model(4).problem
    edges = tuple(Edge(e.src, e.dst, e.weight, e.twist, 2 if e.src == e.dst else 1) for e in base.edges)
    return EquivariantProblem(base.model, base.target, base.base_point, edges)


@pytest.mark.parametrize("class_weights", [{1: 1.0, 2: 1.0e4}, {1: 0.3, 2: 2.5}, {2: 1.0}, {1: 1.0}])
def test_compiled_engine_bit_identical_with_class_weights(class_weights):
    prob = two_class_problem()
    rep = assert_same_run(prob, phi_init=random_map(prob, 5), tol=1e-11, class_weights=class_weights)
    assert len(rep.trace[-1].energy_per_class) == 2


def test_compiled_engine_bit_identical_when_cut_off():
    gm = consensus_model(8)
    rep = assert_same_run(gm.problem, phi_init=gm.init, max_sweeps=7)
    assert rep.iterations == 7
    assert not rep.converged
    assert rep.extras["stop_reason"] == "max_sweeps"


def anchored_normal_solution(prob, lam, x0):
    """The minimizer of E + lam * sum_c mu_c (x_c - x0)^2 on the line, by a
    dense solve of its normal equations: term t has the residual
    x_c1 - (m_t x_c2 + b_t)."""
    mu = np.array(prob.model.weights)
    h, g = lam * np.diag(mu), lam * mu * x0
    for t in prob.terms:
        a = np.zeros(len(mu))
        a[t.c1] += 1.0
        a[t.c2] -= t.transport.matrix[0][0]
        h += t.weight * np.outer(a, a)
        g += t.weight * t.transport.shift[0] * a
    return np.linalg.solve(h, g)


@pytest.mark.parametrize(
    "gm", [dihedral_line_model(3), dihedral_cover_model(2)], ids=["dihedral-line-3", "dihedral-cover-2"]
)
def test_anchored_solve_runs_scalar_and_matches_normal_equations(gm):
    # an anchored solve runs on the scalar engine even where the terms
    # compile; the 1e-8 is the limit of the stop test, not of the engine
    prob = gm.problem
    assert prob.arrays is not None
    rep = minimize_energy(prob, tol=1e-12, max_sweeps=5000, anchor=(0.25, (0.5,)))
    assert rep.extras["engine"] == "scalar"
    assert rep.converged
    want = anchored_normal_solution(prob, 0.25, 0.5)
    np.testing.assert_allclose([v[0] for v in rep.solution.values], want, rtol=0.0, atol=1e-8)


def hub_problem(leaves=64):
    """A hub on the line joined both ways to ``leaves`` leaves, out by the
    identity or a point reflection and back by the identity, with a
    reflection loop: one cell past FLOAT_STEP_MAX entries, the rest small."""
    ident = identity_isometry(E1)
    cells = MeasureModel(("hub", *(f"l{i}" for i in range(leaves))), (0.5, *([0.5 / leaves] * leaves)))
    edges = [Edge("hub", "hub", 0.5, point_reflection(E1, (0.3,)))]
    for i in range(leaves):
        out = ident if i % 2 == 0 else point_reflection(E1, (0.1 * i - 0.5,))
        edges += [Edge("hub", f"l{i}", 1.0, out), Edge(f"l{i}", "hub", 0.5, ident)]
    return EquivariantProblem(cells, E1, (0.0,), tuple(edges))


def kernel_cases():
    """(name, problem, minimize_energy arguments) of compiled solves with
    loops, class weights, a cut-off and large kernel cells, and of
    starts that random maps never give: every cell at -0.0, a constant map
    (both local objectives 0.0 at every step) and a cell with a loop and no
    point entries."""
    consensus, line = consensus_model(6).problem, dihedral_line_model(7).problem
    yield "consensus", consensus, {"phi_init": random_map(consensus, 3), "tol": 1e-10, "max_sweeps": 2000}
    for value in (-0.0, 0.5):
        start = EquivariantMap(consensus.model, consensus.target, ((value,),) * 6)
        yield f"consensus-at-{value}", consensus, {"phi_init": start, "tol": 1e-10}
    loop = translation_loop_model()
    yield "translation-loop", loop.problem, {"phi_init": loop.init, "tol": 1e-10}
    yield "dihedral-line-7", line, {"phi_init": random_map(line, 3), "tol": 1e-10, "max_sweeps": 2000}
    two = two_class_problem()
    for weights in ({1: 1.0, 2: 1.0e4}, {1: 0.3, 2: 2.5}, {2: 1.0}, {1: 1.0}):
        yield f"class-weights-{weights}", two, {"phi_init": random_map(two, 5), "tol": 1e-11, "class_weights": weights}
    gm = consensus_model(8)
    yield "cut-off", gm.problem, {"phi_init": gm.init, "max_sweeps": 7}
    comm = comm_energy_model(dihedral_line_model(3).problem)
    yield "comm-dihedral-3", comm, {"phi_init": random_map(comm, 6), "tol": 1e-10}
    hub = hub_problem()
    yield "hub", hub, {"phi_init": random_map(hub, 7), "tol": 1e-11}


def test_float_kernel_bit_identical_to_array_kernel(monkeypatch):
    # every one-dimensional cell on the array kernel, at the threshold, and
    # every one on the float kernel: the comm-kernel cells have 119 entries,
    # the hub 129 and its leaves 2, so the default mixes both in the hub solve
    hub = hub_problem()
    bounds = harmonic._cell_steps(hub.arrays, len(hub.model.cells))[0]
    assert bounds[2] > harmonic.FLOAT_STEP_MAX >= max(b - a for a, b in zip(bounds[2:-1:2], bounds[4::2]))
    for name, prob, kwargs in kernel_cases():
        runs = []
        for threshold in (0, harmonic.FLOAT_STEP_MAX, 10 ** 9):
            monkeypatch.setattr(harmonic, "FLOAT_STEP_MAX", threshold)
            runs.append(outcome(minimize_energy(prob, **kwargs)))
        assert runs[0] == runs[1] == runs[2], name


def test_step_crossover_script_runs():
    # the script behind FLOAT_STEP_MAX calls the private _compiled_sweeps, so
    # a change of its signature shows here rather than at the next measurement
    script = Path(__file__).resolve().parents[1] / "scripts" / "step_crossover.py"
    env = {**os.environ, "PYTHONPATH": str(Path(harmonic.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, str(script), "--sweeps", "3", "--repeats", "1"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    header = "| Entries | Points: numpy | Points: floats | With a loop: numpy | With a loop: floats |"
    lines = proc.stdout.splitlines()
    assert header in lines
    assert re.fullmatch(r"largest entry count at which floats win in both columns: (\d+|none)", lines[-1])


def overflow_problem():
    """Cell b's new value lies 2.6e154 from c, whose square is past the
    float range."""
    ident = identity_isometry(E1)
    cells = MeasureModel(("b", "a", "c"), (1 / 3, 1 / 3, 1 / 3))
    edges = (Edge("a", "b", 1.0, ident), Edge("b", "a", 1.0, ident), Edge("c", "b", 0.01, ident), Edge("b", "c", 0.01, ident))
    prob = EquivariantProblem(cells, E1, (0.0,), edges)
    return prob, EquivariantMap(cells, E1, ((0.0,), (1.3e154,), (-1.3e154,)))


def converged_to_zero(rep):
    return rep.converged and rep.iterations == 3 and rep.energy_total == 0.0


def test_float_kernel_overflow_start_converges_as_on_arrays(monkeypatch):
    # a step squares no distance, so both kernels keep the move and reach
    # the finite minimizer, without an overflow
    prob, start = overflow_problem()
    runs = []
    for threshold in (0, 10 ** 9):
        monkeypatch.setattr(harmonic, "FLOAT_STEP_MAX", threshold)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs.append(minimize_energy(prob, start, max_sweeps=3))
    assert outcome(runs[0]) == outcome(runs[1])
    assert converged_to_zero(runs[0])


def test_scalar_engine_overflow_start_converges():
    # the scalar engine keeps the same move and ends bit for bit with the
    # compiled engine
    prob, start = overflow_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = assert_same_run(prob, phi_init=start, max_sweeps=3)
    assert converged_to_zero(run)


def plane_problem(loop_class=1):
    e2 = Euclidean(2)
    # quarter turn about (1, 0) and the mirror in the line y = 0.25
    turn = EuclideanIsometry(((0.0, -1.0), (1.0, 0.0)), (1.0, -1.0))
    mirror = EuclideanIsometry(((1.0, 0.0), (0.0, -1.0)), (0.0, 0.5))
    cells = MeasureModel(("a", "b", "c"), (0.5, 0.25, 0.25))
    edges = (
        Edge("a", "b", 1.0, identity_isometry(e2)),
        Edge("b", "c", 1.0, turn),
        Edge("c", "a", 2.0, mirror),
        Edge("b", "b", 0.5, turn, loop_class),
    )
    return EquivariantProblem(cells, e2, (0.0, 0.0), edges)


@pytest.mark.parametrize(
    "build",
    [lambda: dihedral_line_model(200), lambda: dihedral_cover_model(2), lambda: GeneratedModel(plane_problem())],
    ids=["dihedral-line-200", "dihedral-cover-2", "plane"],
)
def test_sweeps_resolve_the_exact_minimizer_below_sqrt_eps(build):
    # every exact local step is kept, also where its decrease lies below the
    # rounding of the energy; a step refused on that rounding would stop the
    # sweeps ~3e-9 from the unique minimizer at every tol
    prob = (gm := build()).problem
    values, flat = quadratic_minimizer(prob.arrays, prob.model.weights, prob.base_point)
    assert flat == 0
    rep = minimize_energy(prob, gm.init, tol=1e-12, max_sweeps=2000)
    assert rep.converged
    assert max(math.dist(a, b) for a, b in zip(rep.solution.values, values)) < 1e-11


@pytest.mark.parametrize(
    "kwargs", [{}, {"class_weights": {1: 1.0}}, {"class_weights": {1: 1.0e4, 2: 1.0}}],
)
def test_compiled_plan_equals_scalar_plan_in_two_dimensions(monkeypatch, kwargs):
    # every cell's run of the grouped plan holds the point terms and loops of
    # the scalar plan, in its order; a class missing from the class weights
    # (here the loop's) is dropped
    prob = plane_problem(loop_class=2)
    n = len(prob.model.cells)
    built = []
    cell_steps = harmonic._cell_steps
    monkeypatch.setattr(harmonic, "_cell_steps", lambda *args: built.append(cell_steps(*args)) or built[-1])
    minimize_energy(prob, max_sweeps=1, **kwargs)
    ((bounds, src, matrix, shift, weight, rhs, normal),) = built
    terms = prob.terms
    if "class_weights" in kwargs:
        scale = kwargs["class_weights"]
        terms = [t._replace(weight=scale[t.cls] * t.weight) for t in terms if t.cls in scale]
    points, loops = _term_plans(terms, n)
    assert len(bounds) == 2 * n + 1
    assert [ci for ci in range(n) if bounds[2 * ci] < bounds[2 * ci + 2]] == list(range(n))
    assert len(src) == len(matrix) == len(shift) == len(weight) == len(rhs) == len(normal) == bounds[-1]
    transports = lambda ms, bs: [(tuple(map(tuple, m)), tuple(b)) for m, b in zip(ms.tolist(), bs.tolist())]
    for ci, (pts, lps) in enumerate(zip(points, loops, strict=True)):
        e0, l0, e1 = bounds[2 * ci : 2 * ci + 3]
        assert l0 - e0 == len(pts)
        assert src[e0:l0].tolist() == [s for _, s, _ in pts]
        assert weight[e0:e1].tolist() == [w for w, _, _ in pts] + [w for w, _ in lps]
        assert transports(matrix[e0:l0], shift[e0:l0]) == [(t.matrix, t.shift) for _, _, t in pts]
        assert (l0 == e1) == (not lps)
        if lps:
            assert transports(matrix[l0:e1], shift[l0:e1]) == [(t.matrix, t.shift) for _, t in lps]


def test_compiled_engine_matches_scalar_in_two_dimensions():
    # math.dist and a numpy norm may round differently in the last bit, so
    # the traces agree to rounding
    prob = plane_problem()
    for seed in (6, 7, 8):
        compiled, scalar = both_engines(prob, phi_init=random_map(prob, seed), tol=1e-8)
        assert compiled.iterations == scalar.iterations > 5
        assert compiled.converged and scalar.converged
        np.testing.assert_allclose(compiled.solution.values, scalar.solution.values, rtol=0.0, atol=1e-12)
        for rc, rs in zip(compiled.trace, scalar.trace, strict=True):
            assert rc.sweep == rs.sweep
            for name in ("energy_total", "norm", "max_move", "objective"):
                assert getattr(rc, name) == pytest.approx(getattr(rs, name), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("tol", [1e-9, 1e-10, 1e-11])
def test_engines_agree_in_two_dimensions_below_sqrt_eps(tol):
    # every step is kept on both engines, so no decision on a rounded local
    # objective (a change of ~1e-18 for a move of 1e-9) sets them apart: they
    # run as many sweeps to the same values
    prob = plane_problem()
    for seed in (6, 7, 8):
        compiled, scalar = both_engines(prob, phi_init=random_map(prob, seed), tol=tol)
        assert compiled.iterations == scalar.iterations
        assert compiled.converged and scalar.converged
        np.testing.assert_allclose(compiled.solution.values, scalar.solution.values, rtol=0.0, atol=1e-12)


def test_compiled_engine_only_where_it_applies():
    assert consensus_model(3).problem.arrays is not None
    prob = dihedral_line_model(3).problem
    assert prob.arrays is prob.arrays  # compiled once per problem
    assert tree_leafswap_model().problem.arrays is None
    assert product_two_class_model().problem.arrays is None
    gm = dihedral_line_model(3)
    p3 = EquivariantProblem(gm.problem.model, E1, (0.0,), gm.problem.edges, p=3.0)
    assert p3.arrays is None


@settings(max_examples=2000)
@given(
    st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False)),
    st.floats(allow_nan=False, allow_infinity=False),
)
@example(0.0, -1.5)
@example(0.0, 0.0)
@example(3.0, -0.0)
@example(2.0 ** -969, 2.0 ** 969)
@example(2.0 ** -971, 1.0)
@example(1.0, 2.0 ** 971)
@example(1.0, 5e-324)
def test_solve_1d_equals_lstsq(n, r):
    with np.errstate(all="ignore"):
        z, *_ = np.linalg.lstsq(np.array([[n]]), np.array([r]), rcond=None)
        assert repr(float(_solve_1d(n, r))) == repr(float(z[0]))


def test_telemetry_in_every_report():
    def keys(rep):
        return rep.extras["engine"], rep.extras["stop_reason"]

    gm = dihedral_line_model(3)
    tree = tree_leafswap_model()
    runs = {
        "compiled": lambda: minimize_energy(gm.problem, gm.init),
        "scalar": lambda: minimize_energy(tree.problem, tree.init),
        "cut off": lambda: minimize_energy(gm.problem, gm.init, tol=1e-14, max_sweeps=2),
        "norm-minimal": lambda: norm_minimal_minimizer(gm.problem),
        "lexicographic": lambda: lexicographic_minimize(product_two_class_model().problem, [1, 2]),
        "commensurability": lambda: subgroup_harmonic(comm_energy_model(gm.problem)),
    }
    expected = {
        "compiled": ("compiled", "converged"),
        "scalar": ("scalar", "converged"),
        "cut off": ("compiled", "max_sweeps"),
        "norm-minimal": ("compiled", "converged"),
        "lexicographic": ("scalar", "converged"),
        "commensurability": ("compiled", "converged"),
    }
    for name, run in runs.items():
        first, second = run(), run()
        assert keys(first) == keys(second) == expected[name], name


# ---------------------------------------------------------------------------
# local solves: exact paths against their search references
# ---------------------------------------------------------------------------


def star_consensus_problem(cells=6):
    """Identity chain of ``cells`` cells into the unit tripod, cell i
    starting 3/4 along leaf edge i mod 3."""
    model = MeasureModel(tuple(f"c{i}" for i in range(cells)), (1.0 / cells,) * cells)
    ident = identity_isometry(STAR)
    edges = []
    for i in range(cells - 1):
        edges += [Edge(f"c{i}", f"c{i + 1}", 1.0, ident), Edge(f"c{i + 1}", f"c{i}", 1.0, ident)]
    prob = EquivariantProblem(model, STAR, STAR.vertex_point("c"), tuple(edges))
    init = EquivariantMap(model, STAR, tuple(STAR.point(i % 3, 0.75) for i in range(cells)))
    return prob, init


def lp_translation_chain(cells=4):
    """l_p(2, 3) chain of ``cells`` cells closed by a translation."""
    lp = LpVector(2, 3.0)
    model = MeasureModel(tuple(f"c{i}" for i in range(cells)), (1.0 / cells,) * cells)
    ident = identity_isometry(lp)
    edges = [Edge(f"c{i}", f"c{i + 1}", 1.0, ident) for i in range(cells - 1)]
    edges.append(Edge(f"c{cells - 1}", "c0", 1.0, translation(lp, (0.6, -0.4))))
    prob = EquivariantProblem(model, lp, (0.0, 0.0), tuple(edges))
    rng = np.random.default_rng(11)
    init = EquivariantMap(model, lp, tuple(tuple(rng.uniform(-0.5, 0.5, 2).tolist()) for _ in range(cells)))
    return prob, init


def test_local_solve_counters_deterministic_and_by_path():
    for build, path in ((star_consensus_problem, "tree-exact"), (lp_translation_chain, "newton")):
        prob, init = build()
        r1 = minimize_energy(prob, init, tol=1e-9)
        r2 = minimize_energy(prob, init, tol=1e-9)
        assert r1.converged
        counts = r1.extras["local_solves"]
        assert counts == r2.extras["local_solves"]
        assert set(counts) == set(LOCAL_PATHS)
        assert counts[path] == len(prob.model.cells) * r1.iterations
        assert counts["pattern"] == 0
    # the compiled engine makes one linear solve per cell and sweep, and
    # every report counts every sweep it ran: all stages of the staged
    # solvers, the sweeps from the exact minimizer of commensurability
    gm = dihedral_line_model(3)
    m = comm_energy_model(gm.problem)
    reports = {
        "bcd": minimize_energy(gm.problem, gm.init),
        "norm-minimal": norm_minimal_minimizer(gm.problem),
        "lexicographic": lexicographic_minimize(gm.problem, gm.problem.classes),
        "commensurability": subgroup_harmonic(m),
        "commensurability-norm-minimal": subgroup_harmonic(m, norm_minimal=True),
    }
    for name, rep in reports.items():
        assert rep.extras["engine"] == "compiled", name
        assert rep.extras["local_solves"]["linear"] == 3 * rep.iterations, name
    # the homotopy runs on an energy that does not compile
    homotopy = norm_minimal_minimizer(product_two_class_model().problem)
    assert homotopy.extras["engine"] == "scalar"
    # at least one sweep in each of 40 stages and the free solve
    assert homotopy.iterations >= 41
    # a commensurability solve of a Euclidean model counts the sweeps from
    # the exact minimizer alone, the solve whose trace it reports
    for name in ("commensurability", "commensurability-norm-minimal"):
        assert reports[name].iterations == len(reports[name].trace) - 1 >= 1, name


@pytest.mark.parametrize("v", [1e10, 1e40])
def test_pattern_fallback_escape_radius_scales_with_the_data(v):
    # the pattern search starts at radius 1 + the largest point distance and
    # may escape 1e6 times that: a coercive solve far from the origin
    # converges (with an absolute escape radius of 1e6 it raised "f does not
    # look coercive")
    lp = LpVector(2, 1.5)
    ident = identity_isometry(lp)
    model = MeasureModel(("a", "b"), (0.5, 0.5))
    prob = EquivariantProblem(model, lp, (0.0, 0.0), (Edge("a", "b", 1.0, ident), Edge("b", "a", 1.0, ident)))
    rep = minimize_energy(prob, EquivariantMap(model, lp, ((v, v), (-v, 0.3 * v))))
    assert rep.converged
    assert rep.energy_total == 0.0
    assert rep.extras["local_solves"]["pattern"] >= 1


@pytest.mark.parametrize("shift, dim", [((1.0,), 1), ((1.0, 0.5), 2)])
def test_quadratic_minimizer_projects_out_flat_directions(shift, dim):
    # two cells of weight 1/2, joined by the identity one way and a
    # translation by s the other: x_a - x_b = s / 2 at every minimizer, and
    # the minimum-norm one is (s / 4, -s / 4), at every weight scale
    space = Euclidean(dim)
    model = MeasureModel(("a", "b"), (0.5, 0.5))
    for power in sorted({*range(-300, 301, 25), -12, -5, 5}):
        w = 10.0**power
        edges = (Edge("a", "b", w, identity_isometry(space)), Edge("b", "a", w, translation(space, shift)))
        prob = EquivariantProblem(model, space, (0.0,) * dim, edges)
        values, flat = quadratic_minimizer(prob.arrays, model.weights, prob.base_point)
        assert flat == dim, power
        want = [tuple(c / 4.0 for c in shift), tuple(-c / 4.0 for c in shift)]
        np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-12, err_msg=str(power))
        if dim == 1 and power in (-300, -12, -5, 0, 5, 300):
            # the norm-minimal selection is this solve (the penalty homotopy
            # raised "not Cauchy" at 1e-12 and 1e-5 and missed it elsewhere)
            rep = norm_minimal_minimizer(prob, tol=1e-9)
            assert rep.converged and rep.extras["flat_directions"] == 1, power
            np.testing.assert_allclose(rep.solution.values, want, rtol=0.0, atol=1e-12, err_msg=str(power))


def random_tree_terms(rng):
    tree = random_tree(int(rng.integers(6, 10)), rng)
    k = int(rng.integers(1, 6))
    pts = [(float(rng.uniform(0.1, 2.0)), tree.sample(rng)) for _ in range(k)]
    if rng.random() < 0.3:  # a vertex term
        pts.append((float(rng.uniform(0.1, 2.0)), tree.vertex_point(tree.vertices[int(rng.integers(len(tree.vertices)))])))
    return tree, pts


def symmetric_tree(rng):
    """A random tree with two copies of a random branch, and the isometry
    that swaps them: hung from one vertex of a random base tree (the swap
    fixes the base), or joined root to root (the swap reverses that edge)."""
    m = int(rng.integers(1, 4))
    branch = [(int(rng.integers(0, k)), k, float(rng.uniform(0.2, 2.0))) for k in range(1, m)]
    join = float(rng.uniform(0.2, 2.0))
    copies = {f"{c}{k}": f"{'ba'[c == 'b']}{k}" for c in "ab" for k in range(m)}
    edges = [(f"{c}{u}", f"{c}{v}", L) for c in "ab" for u, v, L in branch]
    if rng.random() < 0.5:
        edges.append(("a0", "b0", join))
        verts = list(copies)
    else:
        base = random_tree(int(rng.integers(2, 6)), rng)
        hub = base.vertices[int(rng.integers(len(base.vertices)))]
        edges += list(base.edges) + [(hub, "a0", join), (hub, "b0", join)]
        verts = list(base.vertices) + list(copies)
    tree = MetricTree(tuple(verts), tuple(edges))
    return tree, TreeIsometry(tree, {v: copies.get(v, v) for v in verts})


def tree_cells(rng, count):
    """Random tree cells (tree, point terms, loop terms): a star with leaf
    permutations, or a symmetric tree with its swap; the first half keep the
    loops, the second half only the point terms."""
    for k in range(count):
        if k % 2 == 0:
            n = int(rng.integers(3, 7))
            tree = star_tree(n, float(rng.uniform(0.5, 2.0)))
            loops = []
            for _ in range(int(rng.integers(1, 3))):
                perm = rng.permutation(n) + 1
                vmap = {"c": "c", **{f"l{i + 1}": f"l{perm[i]}" for i in range(n)}}
                loops.append((float(rng.uniform(0.1, 2.0)), TreeIsometry(tree, vmap)))
        else:
            tree, swap = symmetric_tree(rng)
            loops = [(float(rng.uniform(0.1, 2.0)), swap)]
        pts = [(float(rng.uniform(0.1, 2.0)), tree.sample(rng)) for _ in range(int(rng.integers(1, 4)))]
        if rng.random() < 0.3:  # a vertex term
            pts.append((float(rng.uniform(0.1, 2.0)), tree.vertex_point(tree.vertices[int(rng.integers(len(tree.vertices)))])))
        yield tree, pts, (loops if k < count // 2 else [])


def test_tree_exact_step_matches_three_point_fit():
    # on each edge every term is |alpha s + beta| in the offset s, so at
    # p = 2 the objective is a quadratic: the minimizer of its fit through
    # the values at both ends and the middle, on the best edge, is the step
    rng = np.random.default_rng(2024)
    cells = [random_tree_terms(rng) + ([],) for _ in range(30)] + list(tree_cells(rng, 120))
    for tree, pts, loops in cells:
        exact = _solve_local_tree_exact(tree, 2.0, pts, loops, tree.sample(rng))
        f = lambda z: _local_objective(tree, 2.0, pts, loops, z)
        fits = []
        for i, (_, _, L) in enumerate(tree.edges):
            f0, fm, f1 = f(tree.point(i, 0.0)), f(tree.point(i, L / 2)), f(tree.point(i, L))
            a, b = 2.0 * (f0 - 2.0 * fm + f1) / L**2, (4.0 * fm - 3.0 * f0 - f1) / L
            z = tree.point(i, min(max(-b / (2.0 * a), 0.0), L))
            fits.append((f(z), tree.distance(z, exact)))
        assert min(fits)[1] <= 1e-12
        assert f(exact) <= min(fits)[0] + 1e-12 * (1.0 + f(exact))


def grid_objective(tree, p, pts, loops, i, offsets):
    """The local objective at the given offsets of edge i, over arrays: a
    loop maps the edge onto the edge between the images of its ends."""
    z = tree.point_batch(np.full(len(offsets), i), offsets)
    total = sum(w * tree.distance_batch(z, tree.pack([u])) ** p for w, u in pts)
    a, b, _ = tree.edges[i]
    for w, T in loops:
        ta, tb = (T.apply(tree.vertex_point(v)).vertex for v in (a, b))
        j = tree.edge_between(ta, tb)
        ja, _, jl = tree.edges[j]
        image = offsets if ja == ta else jl - offsets
        total = total + w * tree.distance_batch(tree.point_batch(np.full(len(offsets), j), image), z) ** p
    return total


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_tree_step_beats_a_grid_off_p2(p):
    rng = np.random.default_rng(99)
    cells = [random_tree_terms(rng) + ([],) for _ in range(20)] + list(tree_cells(rng, 100))
    grid = np.linspace(0.0, 1.0, 2001)
    for tree, pts, loops in cells:
        z = _solve_local_tree_exact(tree, p, pts, loops, tree.sample(rng))
        f = lambda z: _local_objective(tree, p, pts, loops, z)
        best = min(float(grid_objective(tree, p, pts, loops, i, grid * L).min()) for i, (_, _, L) in enumerate(tree.edges))
        assert f(z) <= best + 1e-12 * (1.0 + best)
        # the array objective is the scalar one
        i, s = 0, 0.37 * tree.edges[0][2]
        assert grid_objective(tree, p, pts, loops, i, np.array([s]))[0] == pytest.approx(f(tree.point(i, s)), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_tree_step_past_the_float_range_returns_a_point(p):
    # powers of 1e200 overflow: the edge scores inf, as _local_objective
    # does, and the step still returns a point of the tree
    tree = star_tree(3, 1e200)
    pts = [(1.0, tree.point(0, 0.5e200)), (1.0, tree.point(1, 0.7e200))]
    tree.validate_point(_solve_local_tree_exact(tree, p, pts, [], tree.point(2, 1e199)))


def test_tree_leafswap_cell_on_the_fixed_edge_stays():
    # the swap fixes the center and the third edge pointwise: a cell there
    # is a minimizer and its flat edge holds it
    prob = tree_leafswap_model().problem
    swap = prob.edges[0].twist
    for start in (STAR.point(2, 0.3), STAR.vertex_point("l3"), STAR.vertex_point("c")):
        assert _solve_local_tree_exact(STAR, 2.0, [], [(1.0, swap)], start) is start
        rep = minimize_energy(prob, EquivariantMap(prob.model, STAR, (start,)))
        assert rep.solution.values == (start,) and rep.energy_total == 0.0
    assert _solve_local_tree_exact(STAR, 2.0, [], [(1.0, swap)], STAR.point(0, 0.6)) == STAR.vertex_point("c")


def lp_cases():
    for p in (1.5, 3.0):
        yield f"lp-{p}", LpVector(2, p), lambda c, p=p: point_reflection(LpVector(2, p), c[:2])
    for q in (1.5, 3.0):
        space = Product((Euclidean(1), LpVector(2, 3.0)), q)
        mirror = lambda c: ProductIsometry(
            (point_reflection(Euclidean(1), c[:1]), point_reflection(LpVector(2, 3.0), c[1:]))
        )
        yield f"product-q{q}", space, mirror


def flat_point(space, values):
    if isinstance(space, Product):
        return ((values[0],), (values[1], values[2]))
    return tuple(values[:2])


@pytest.mark.parametrize("case", list(lp_cases()), ids=lambda c: c[0])
@pytest.mark.parametrize("loop", [False, True], ids=["points", "mirror"])
def test_newton_step_matches_pattern_search(case, loop):
    _, space, mirror = case
    rng = np.random.default_rng(7)
    tol = 1e-9
    for _ in range(8):
        pts = [(float(rng.uniform(0.2, 1.5)), flat_point(space, rng.normal(0.0, 1.0, 3).tolist())) for _ in range(3)]
        loops = [(float(rng.uniform(0.2, 1.5)), mirror(tuple(rng.normal(0.0, 1.0, 3).tolist())))] if loop else []
        current = flat_point(space, rng.normal(0.0, 1.0, 3).tolist())
        f = lambda z: _local_objective(space, 2.0, pts, loops, z)
        z, f0, fz = _newton_local(space, _norm_blocks(space), pts, loops, current, f, tol)
        assert (f0, fz) == (f(current), f(z))
        radius = 1.0 + max(space.distance(current, u) for _, u in pts)
        ref = minimize_convex(space, f, current, tol=max(tol * 1e-2, 1e-12), radius0=radius)
        assert f(z) <= f(ref) + 1e-12


def test_newton_falls_back_on_zero_block_below_p2():
    # at p = 1.5 the squared norm is not twice differentiable where a
    # coordinate of a displacement is 0
    space = LpVector(2, 1.5)
    pts = [(1.0, (0.0, 1.0)), (1.0, (0.0, -1.0))]
    current = (0.0, 0.5)
    f = lambda z: _local_objective(space, 2.0, pts, [], z)
    assert _newton_local(space, _norm_blocks(space), pts, [], current, f, 1e-9) is None
    counts = dict.fromkeys(LOCAL_PATHS, 0)
    z = _solve_local(space, 2.0, pts, [], current, 1e-9, counts=counts)
    assert counts == {**dict.fromkeys(LOCAL_PATHS, 0), "pattern": 1}
    assert f(z) < f(current)
