import dataclasses
import itertools
import math
import warnings

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
    frechet_mean,
    harmonic_properties_check,
    lexicographic_minimize,
    minimize_energy,
    norm_minimal_minimizer,
    orbit_diameter_heuristic,
    LOCAL_PATHS,
    _local_objective,
    _newton_local,
    _norm_blocks,
    _solve_1d,
    _solve_local,
    _solve_local_tree,
    _solve_local_tree_exact,
    _term_plans,
)
from busemann.convexity import minimize_convex
from busemann.mapspace import EquivariantMap, MeasureModel, map_distance, map_midpoint
from busemann.models import (
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
    Product,
    ProductIsometry,
    SolverError,
    SpaceMismatchError,
    identity_isometry,
    random_tree,
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


@pytest.mark.parametrize("lam", [2.0 ** -1, 2.0 ** -20, 2.0 ** -40])
def test_compiled_engine_bit_identical_on_anchored_stages(lam):
    prob = dihedral_cover_model(2).problem
    start = random_map(prob, 4)
    for point in (prob.base_point, (0.5,)):
        rep = assert_same_run(prob, phi_init=start, tol=1e-11, anchor=(lam, point))
        assert rep.iterations > 5


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


def hub_problem(leaves=32):
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
    loops, anchors, class weights, a cut-off and large kernel cells."""
    consensus, line, cover = consensus_model(6).problem, dihedral_line_model(7).problem, dihedral_cover_model(2).problem
    yield "consensus", consensus, {"phi_init": random_map(consensus, 3), "tol": 1e-10, "max_sweeps": 2000}
    yield "dihedral-line-7", line, {"phi_init": random_map(line, 3), "tol": 1e-10, "max_sweeps": 2000}
    for lam, point in itertools.product((2.0 ** -1, 2.0 ** -20, 2.0 ** -40), (cover.base_point, (0.5,))):
        yield f"anchored-{lam}-{point}", cover, {"phi_init": random_map(cover, 4), "tol": 1e-11, "anchor": (lam, point)}
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
    # the hub 65 and its leaves 2, so the default mixes both in the hub solve
    hub = hub_problem()
    bounds = harmonic._cell_steps(hub.arrays, len(hub.model.cells))[0]
    assert bounds[2] > harmonic.FLOAT_STEP_MAX >= max(b - a for a, b in zip(bounds[2:-1:2], bounds[4::2]))
    for name, prob, kwargs in kernel_cases():
        runs = []
        for threshold in (0, harmonic.FLOAT_STEP_MAX, 10 ** 9):
            monkeypatch.setattr(harmonic, "FLOAT_STEP_MAX", threshold)
            runs.append(outcome(minimize_energy(prob, **kwargs)))
        assert runs[0] == runs[1] == runs[2], name


def overflow_problem():
    """Cell b's new value lies 2.6e154 from c, whose square is past the
    float range."""
    ident = identity_isometry(E1)
    cells = MeasureModel(("b", "a", "c"), (1 / 3, 1 / 3, 1 / 3))
    edges = (Edge("a", "b", 1.0, ident), Edge("b", "a", 1.0, ident), Edge("c", "b", 0.01, ident), Edge("b", "c", 0.01, ident))
    prob = EquivariantProblem(cells, E1, (0.0,), edges)
    return prob, EquivariantMap(cells, E1, ((0.0,), (1.3e154,), (-1.3e154,)))


def test_float_kernel_overflow_steps_on_arrays(monkeypatch):
    # numpy rounds the square to inf and refuses the move, and the float
    # kernel, whose ** raises, hands the step to the array kernel
    prob, start = overflow_problem()
    runs = []
    for threshold in (0, 10 ** 9):
        monkeypatch.setattr(harmonic, "FLOAT_STEP_MAX", threshold)
        with np.errstate(over="ignore"):
            runs.append(minimize_energy(prob, start, max_sweeps=3))
    assert outcome(runs[0]) == outcome(runs[1])
    assert runs[0].extras["rejected_moves"] >= 1


def test_scalar_engine_counts_overflow_as_inf():
    # the scalar engine's local objective takes the square past the float
    # range as inf, as numpy does, so it refuses the same move
    prob, start = overflow_problem()
    with np.errstate(over="ignore"):
        run = assert_same_run(prob, phi_init=start, max_sweeps=3)
    assert run.extras["rejected_moves"] >= 1


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
    "kwargs", [{}, {"anchor": (0.25, (0.5, -1.0))}, {"class_weights": {1: 1.0e4, 2: 1.0}}],
)
def test_compiled_plan_equals_scalar_plan_in_two_dimensions(monkeypatch, kwargs):
    # every cell's run of the grouped plan holds the point terms and loops of
    # the scalar plan, in its order; the anchor is the last point term, read
    # from the fixed row n
    prob = plane_problem(loop_class=2)
    n = len(prob.model.cells)
    built = []
    cell_steps = harmonic._cell_steps
    monkeypatch.setattr(harmonic, "_cell_steps", lambda *args: built.append(cell_steps(*args)) or built[-1])
    minimize_energy(prob, max_sweeps=1, **kwargs)
    ((bounds, src, matrix, shift, weight, rhs, normal),) = built
    terms = prob.terms
    if "class_weights" in kwargs:
        terms = [t._replace(weight=kwargs["class_weights"][t.cls] * t.weight) for t in terms]
    points, loops = _term_plans(terms, n)
    if "anchor" in kwargs:
        lam, _ = kwargs["anchor"]
        for ci, mu in enumerate(prob.model.weights):
            points[ci].append((lam * mu, n, identity_isometry(prob.target)))
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
    # math.dist and a numpy norm may round differently in the last bit.  Near
    # the minimum a move of 1e-9 changes a local objective by about 1e-18,
    # below its rounding, so at tolerances much tighter than 1e-8 the two
    # engines may accept different last moves and agree only to ~1e-9.
    prob = plane_problem()
    for anchor, seed in itertools.product((None, (0.25, prob.base_point)), (6, 7, 8)):
        compiled, scalar = both_engines(prob, phi_init=random_map(prob, seed), tol=1e-8, anchor=anchor)
        assert compiled.iterations == scalar.iterations > 5
        assert compiled.converged and scalar.converged
        np.testing.assert_allclose(compiled.solution.values, scalar.solution.values, rtol=0.0, atol=1e-12)
        for rc, rs in zip(compiled.trace, scalar.trace, strict=True):
            assert rc.sweep == rs.sweep
            for name in ("energy_total", "norm", "max_move", "objective"):
                assert getattr(rc, name) == pytest.approx(getattr(rs, name), rel=1e-12, abs=1e-12)


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
        assert r1.extras["rejected_moves"] == r2.extras["rejected_moves"] >= 0
        assert set(counts) == set(LOCAL_PATHS)
        assert counts[path] == len(prob.model.cells) * r1.iterations
        assert counts["pattern"] == counts["golden"] == 0
    # the compiled engine makes one linear solve per cell and sweep, and
    # every report counts every sweep it ran: all stages of the staged
    # solvers, the winning restart's stages and free solve of commensurability;
    # each report also counts its refused moves, the same in a rerun
    gm = dihedral_line_model(3)
    m = comm_energy_model(gm.problem)
    runs = {
        "bcd": lambda: minimize_energy(gm.problem, gm.init),
        "norm-minimal": lambda: norm_minimal_minimizer(gm.problem),
        "lexicographic": lambda: lexicographic_minimize(gm.problem, gm.problem.classes),
        "commensurability": lambda: subgroup_harmonic(m),
        "commensurability-norm-minimal": lambda: subgroup_harmonic(m, norm_minimal=True),
    }
    reports = {name: run() for name, run in runs.items()}
    for name, rep in reports.items():
        assert rep.extras["engine"] == "compiled", name
        assert rep.extras["local_solves"]["linear"] == 3 * rep.iterations, name
        rejected = rep.extras["rejected_moves"]
        assert isinstance(rejected, int) and 0 <= rejected <= rep.extras["local_solves"]["linear"], name
        assert runs[name]().extras["rejected_moves"] == rejected, name
    # the staged solves sum them over their stages; the homotopy refuses some
    assert reports["norm-minimal"].extras["rejected_moves"] > 0
    # at least one sweep in each of 40 stages and the free solve; in each of
    # 20 stages and the free solve
    assert reports["norm-minimal"].iterations >= 41
    assert reports["commensurability-norm-minimal"].iterations >= 21


def random_tree_terms(rng):
    tree = random_tree(int(rng.integers(6, 10)), rng)
    k = int(rng.integers(1, 6))
    pts = [(float(rng.uniform(0.1, 2.0)), tree.sample(rng)) for _ in range(k)]
    if rng.random() < 0.3:  # a vertex term
        pts.append((float(rng.uniform(0.1, 2.0)), tree.vertex_point(tree.vertices[int(rng.integers(len(tree.vertices)))])))
    return tree, pts


def test_tree_exact_step_matches_golden_section():
    rng = np.random.default_rng(2024)
    tol = 1e-9
    for _ in range(60):
        tree, pts = random_tree_terms(rng)
        current = tree.sample(rng)
        exact = _solve_local_tree_exact(tree, pts)
        golden = _solve_local_tree(tree, 2.0, pts, [], current, tol)
        f = lambda z: _local_objective(tree, 2.0, pts, [], z)
        assert f(exact) <= f(golden) + 1e-12
        # on each edge f is a quadratic in the offset: the minimizer of its
        # fit through the values at both ends and the middle, on the best edge
        fits = []
        for i, (_, _, L) in enumerate(tree.edges):
            f0, fm, f1 = f(tree.point(i, 0.0)), f(tree.point(i, L / 2)), f(tree.point(i, L))
            a, b = 2.0 * (f0 - 2.0 * fm + f1) / L**2, (4.0 * fm - 3.0 * f0 - f1) / L
            z = tree.point(i, min(max(-b / (2.0 * a), 0.0), L))
            fits.append((f(z), tree.distance(z, exact)))
        assert min(fits)[1] <= 1e-12
        # golden section stops at xtol or where f stops resolving offsets:
        # f - f_min = W (s - s_min)^2 falls below the rounding of f within
        # about sqrt(eps f / W) of the minimizer
        xtol = max(max(1e-13, min(tol, 1e-9) * L) for _, _, L in tree.edges)
        resolution = 2.0 * math.sqrt(np.finfo(float).eps * f(exact) / sum(w for w, _ in pts))
        assert tree.distance(exact, golden) <= xtol + resolution


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
        z = _newton_local(space, _norm_blocks(space), pts, loops, current, f, tol)
        assert z is not None
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
