import math

import numpy as np
import pytest

from busemann.commensurability import (
    CoverSpec,
    _comm_sweeps_arrays,
    _comm_sweeps_scalar,
    build_cover,
    coercivity_fit,
    comm_energy_model,
    commensurability_energy,
    conjugate_comm_model,
    conjugate_map,
    cover_comm_energy_model,
    lift_map,
    parallel_orbits_check,
    subgroup_harmonic,
    word_ball,
)
from busemann.harmonic import Edge, EquivariantProblem, energy
from busemann.mapspace import EquivariantMap, MeasureModel
from busemann.models import (
    dihedral_cover_model,
    dihedral_line_problem,
    translation_cover_spec,
    translation_loop_model,
    tree_leafswap_model,
)
from busemann.spaces import (
    DomainError,
    Euclidean,
    EuclideanIsometry,
    SolverError,
    ValidationError,
    identity_isometry,
    point_reflection,
    translation,
)

E1 = Euclidean(1)
IDENT = identity_isometry(E1)
T1 = translation(E1, (1.0,))
R0 = point_reflection(E1, (0.0,))


def base_problem():
    return dihedral_line_problem(3)


def base_harmonic(tol=1e-10):
    m = comm_energy_model(base_problem())
    return m, subgroup_harmonic(m, tol=tol, seed=3)


# ---------------------------------------------------------------------------
# word balls and kernel models
# ---------------------------------------------------------------------------


def test_word_ball_infinite_dihedral_counts():
    ball = word_ball(E1, [T1, R0], 6)
    # translations t^n, |n| <= 6 (13 incl. identity) and 11 reflections
    norms = {}
    for iso, n in ball:
        norms.setdefault(n, 0)
        norms[n] += 1
    assert norms[0] == 1
    assert len(ball) == 24


def test_comm_model_truncation_residual_small():
    m = comm_energy_model(base_problem())
    assert m.truncation_residual < 1e-9
    assert m.word_radius >= 6


def test_i_energy_hand_sum_two_cells():
    # two cells with weights 1/2 each, single twist generator t (and identity);
    # word radius 1 keeps the sum small enough to write out by hand
    m2 = MeasureModel(("u", "v"), (0.5, 0.5))
    prob = EquivariantProblem(m2, E1, (0.0,), (Edge("u", "v", 1.0, T1),))
    m = comm_energy_model(prob, cutoff=0.9, max_radius=1)  # ball = {id, t, t^-1}
    phi = EquivariantMap(m2, E1, ((0.0,), (3.0,)))
    h0 = math.exp(1.0)
    h1 = math.exp(0.0)
    w = 0.25  # mu_i * mu_j
    expected = 0.0
    vals = {0: 0.0, 1: 3.0}
    for i in (0, 1):
        for j in (0, 1):
            for shift, h in ((0.0, h0), (1.0, h1), (-1.0, h1)):
                if i == j and shift == 0.0:
                    continue
                expected += w * h * (vals[i] - (vals[j] + shift)) ** 2
    assert commensurability_energy(m, phi) == pytest.approx(expected, abs=1e-12)


def test_i_energy_constant_map_fixed_point():
    # constant map at the mirror's fixed point: identity-transport terms vanish
    m1 = MeasureModel(("a",), (1.0,))
    prob = EquivariantProblem(m1, E1, (0.0,), (Edge("a", "a", 1.0, R0),))
    m = comm_energy_model(prob)
    phi = EquivariantMap(m1, E1, ((0.0,),))
    assert commensurability_energy(m, phi) == 0.0


def test_i_energy_linear_in_kernel():
    m, rep = base_harmonic()
    phi = rep.solution
    base_val = commensurability_energy(m, phi)
    from busemann.commensurability import CommEnergyModel, KernelTerm

    scaled = CommEnergyModel(
        model=m.model,
        target=m.target,
        base_point=m.base_point,
        terms=tuple(KernelTerm(t.c1, t.c2, 3.0 * t.weight, t.transport) for t in m.terms),
        normalization=m.normalization,
        generators=m.generators,
        word_radius=m.word_radius,
        truncation_residual=m.truncation_residual,
    )
    assert commensurability_energy(scaled, phi) == pytest.approx(3.0 * base_val, rel=1e-12)


# ---------------------------------------------------------------------------
# minimizers: uniqueness, non-uniqueness, oracle agreement
# ---------------------------------------------------------------------------


def test_dihedral_harmonic_unique_and_matches_grid():
    m, rep = base_harmonic()
    assert rep.extras["unique"]
    assert rep.extras["parallel_orbits"] is False
    # dense zoomed grid over the three cell values (the energy is convex)
    lo, hi, n = -1.0, 1.0, 13
    best = None
    centers = [0.0, 0.0, 0.0]
    width = 1.0
    for _ in range(5):
        axes = [np.linspace(c - width, c + width, n) for c in centers]
        for a in axes[0]:
            for b in axes[1]:
                for c in axes[2]:
                    phi = EquivariantMap(m.model, E1, ((float(a),), (float(b),), (float(c),)))
                    e = commensurability_energy(m, phi)
                    if best is None or e < best[0]:
                        best = (e, (float(a), float(b), float(c)))
        centers = list(best[1])
        width = 2.0 * width / (n - 1)
    assert rep.energy_total <= best[0] + 1e-6
    # the mirror-fixed middle cell sits at 0
    assert abs(rep.solution.values[1][0]) <= 1e-6


def test_translation_model_reports_non_uniqueness():
    m = comm_energy_model(translation_loop_model().problem)
    rep = subgroup_harmonic(m, tol=1e-9, seed=5)
    assert not rep.extras["unique"]
    assert rep.extras["parallel_orbits"] is True


def test_fixed_point_model_norm_minimal_returns_base():
    m1 = MeasureModel(("a", "b"), (0.5, 0.5))
    prob = EquivariantProblem(
        m1, E1, (2.0,), (Edge("a", "b", 1.0, IDENT), Edge("b", "a", 1.0, IDENT))
    )
    m = comm_energy_model(prob)
    rep = subgroup_harmonic(m, tol=1e-9, seed=1, norm_minimal=True)
    assert rep.energy_total <= 1e-12
    for v in rep.solution.values:
        assert v == pytest.approx((2.0,), abs=1e-6)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def test_conjugate_identity_lambda_is_noop():
    m, rep = base_harmonic()
    relabel = {c: c for c in m.model.cells}
    phi2 = conjugate_map(rep.solution, IDENT, relabel)
    assert phi2.values == rep.solution.values


def test_conjugation_energy_identity():
    m, rep = base_harmonic()
    relabel = {c: c for c in m.model.cells}
    phi = EquivariantMap(m.model, E1, ((0.25,), (-0.5,), (1.5,)))
    for lam in (T1, R0, translation(E1, (2.0,))):
        m2 = conjugate_comm_model(m, lam, relabel)
        phi2 = conjugate_map(phi, lam, relabel)
        assert commensurability_energy(m2, phi2) == pytest.approx(
            commensurability_energy(m, phi), abs=1e-12
        )


def test_conjugation_roundtrip_exact_dyadic():
    m, _ = base_harmonic()
    relabel = {c: c for c in m.model.cells}
    phi = EquivariantMap(m.model, E1, ((0.25,), (-0.5,), (1.5,)))
    there = conjugate_map(phi, T1, relabel)
    back = conjugate_map(there, T1.invert(), relabel)
    assert back.values == phi.values


def test_conjugate_rejects_non_bijection():
    m, rep = base_harmonic()
    with pytest.raises(DomainError):
        conjugate_map(rep.solution, T1, {c: "c0" for c in m.model.cells})


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def test_build_cover_index_one_unchanged():
    base = base_problem()
    spec = CoverSpec(base, 1, (IDENT, T1, R0), ((0,), (0,), (0,)), (IDENT,))
    assert build_cover(spec) is base


def test_build_cover_dihedral_index_two_structure():
    base = base_problem()
    gm = dihedral_cover_model(2)
    cov = gm.problem
    assert len(cov.model.cells) == 2 * len(base.model.cells)
    assert len(cov.edges) == 2 * len(base.edges)
    # lifted maps have the base energy (edge model: weights halve, edges double)
    rng = np.random.default_rng(0)
    for _ in range(20):
        vals = tuple((float(v),) for v in rng.normal(0, 1, 3))
        phi = EquivariantMap(base.model, E1, vals)
        lifted = lift_map(gm.cover_spec, phi, cov)
        assert energy(cov, lifted) == pytest.approx(energy(base, phi), rel=1e-12)


def test_build_cover_cyclic_three():
    m1 = MeasureModel(("a",), (1.0,))
    prob = EquivariantProblem(m1, E1, (0.0,), (Edge("a", "a", 1.0, T1),))
    t3 = translation(E1, (3.0,))
    spec = CoverSpec(prob, 3, (T1,), ((1, 2, 0),), (IDENT, T1, translation(E1, (2.0,))))
    cov = build_cover(spec)
    assert len(cov.model.cells) == 3
    pairs = {(e.src, e.dst) for e in cov.edges}
    assert pairs == {("a@0", "a@1"), ("a@1", "a@2"), ("a@2", "a@0")}


def test_cover_spec_inconsistent_permutations_rejected():
    base = base_problem()
    with pytest.raises(ValidationError):
        CoverSpec(
            base,
            3,
            (IDENT, T1, R0),
            ((0, 1, 2), (1, 2, 0), (0, 1, 2)),  # mirror fixing cosets breaks (t r)^2 = 1
            (IDENT, T1, translation(E1, (2.0,))),
        )


# ---------------------------------------------------------------------------
# parallel orbits
# ---------------------------------------------------------------------------


def test_parallel_orbits_translations():
    assert parallel_orbits_check(E1, (T1,)) is True


def test_parallel_orbits_dihedral_false():
    assert parallel_orbits_check(E1, (T1, R0)) is False


def test_parallel_orbits_identity_only():
    assert parallel_orbits_check(E1, (IDENT,)) is True


def test_reflection_breaks_parallelism_pointwise():
    from busemann.convexity import parallel_check

    x, y = (1.0,), (2.0,)
    assert not parallel_check(E1, R0.apply(x), R0.apply(y), x, y)
    assert parallel_check(E1, T1.apply(x), T1.apply(y), x, y)


# ---------------------------------------------------------------------------
# subgroup coincidence (normal covers, nested towers)
# ---------------------------------------------------------------------------


def test_normal_cover_coincidence_mirror_subgroup():
    m, rep = base_harmonic()
    gm = dihedral_cover_model(2)
    cov = gm.problem
    mc = cover_comm_energy_model(gm.cover_spec, cov)
    rep_c = subgroup_harmonic(mc, tol=1e-9, seed=7)
    lifted = lift_map(gm.cover_spec, rep.solution, cov)
    # the energies fold exactly: I_cover(lift) = I_base / 2
    assert commensurability_energy(mc, lifted) == pytest.approx(
        rep.energy_total / 2.0, rel=1e-12
    )
    gap = max(E1.distance(a, b) for a, b in zip(lifted.values, rep_c.solution.values))
    assert gap <= 1e-5


def test_normal_cover_coincidence_translation_subgroup_norm_minimal():
    m, rep = base_harmonic()
    spec = translation_cover_spec(3)
    cov = build_cover(spec)
    mt = cover_comm_energy_model(spec, cov)
    rep_t = subgroup_harmonic(mt, tol=1e-9, seed=9, norm_minimal=True)
    lifted = lift_map(spec, rep.solution, cov)
    gap = max(E1.distance(a, b) for a, b in zip(lifted.values, rep_t.solution.values))
    assert gap <= 1e-5


def test_two_subgroup_coincidence_on_common_cover():
    # Two routes to the same index-4 subgroup (doubled-doubled translations
    # with the mirror).  Route A: the base's index-2 mirror cover, refined by
    # its own index-2 mirror subgroup.  Route B: the index-4 cover built
    # directly from the base.  The harmonic maps must agree on the common
    # cover once cells are matched (tower cell (c@i)@j <-> direct cell
    # c@(i + 2j), both representing the group piece t^(i+2j) Omega_c).
    base = base_problem()
    spec1 = dihedral_cover_model(2).cover_spec  # reps (id, t)
    cov1 = build_cover(spec1)
    t2 = translation(E1, (2.0,))
    gens1 = []
    for e in cov1.edges:
        if not any(g.key() == e.twist.key() for g in gens1):
            gens1.append(e.twist)
    perms1 = []
    for g in gens1:
        shift = round(g.shift[0])
        if g.matrix[0][0] < 0:  # reflections through integer points fix cosets
            perms1.append((0, 1) if (shift // 2) % 2 == 0 else (1, 0))
        else:
            perms1.append((0, 1) if shift % 4 == 0 else (1, 0))
    spec2 = CoverSpec(cov1, 2, tuple(gens1), tuple(perms1), (IDENT, t2))
    cov2 = build_cover(spec2)
    # tower positions are the accumulated representatives, and the kernel is
    # measured in the base generators so both routes share one kernel
    positions = {}
    for cell in cov2.model.cells:
        rest, j2 = cell.rsplit("@", 1)
        _, j1 = rest.rsplit("@", 1)
        positions[cell] = spec2.coset_reps[int(j2)].compose(spec1.coset_reps[int(j1)])
    m_tower = comm_energy_model(
        cov2, positions=positions, norm_generators=(IDENT, T1, R0)
    )
    rep_tower = subgroup_harmonic(m_tower, tol=1e-9, seed=11)
    t3 = translation(E1, (3.0,))
    spec_direct = CoverSpec(
        base,
        4,
        (IDENT, T1, R0),
        ((0, 1, 2, 3), (1, 2, 3, 0), (0, 3, 2, 1)),
        (IDENT, T1, t2, t3),
    )
    cov_direct = build_cover(spec_direct)
    m_direct = cover_comm_energy_model(spec_direct, cov_direct)
    rep_direct = subgroup_harmonic(m_direct, tol=1e-9, seed=12)
    gap = 0.0
    didx = {c: i for i, c in enumerate(cov_direct.model.cells)}
    for k, cell in enumerate(cov2.model.cells):
        rest, j2 = cell.rsplit("@", 1)
        name, j1 = rest.rsplit("@", 1)
        direct_cell = f"{name}@{int(j1) + 2 * int(j2)}"
        gap = max(
            gap,
            E1.distance(
                rep_tower.solution.values[k],
                rep_direct.solution.values[didx[direct_cell]],
            ),
        )
    assert gap <= 1e-5


def test_coercivity_fit_positive_on_dihedral():
    m, _ = base_harmonic()
    c = coercivity_fit(m, n_samples=1000, seed=0)
    assert c > 0.0


# ---------------------------------------------------------------------------
# covers over cells that are not strings
# ---------------------------------------------------------------------------


def test_cover_with_integer_cell_ids_lifts_and_folds():
    # cells keep their (cell, coset) structure by position, not by parsing
    # the "cell@coset" names (which failed with KeyError '0' for int ids)
    named = base_problem()
    ids = {c: i for i, c in enumerate(named.model.cells)}
    base = EquivariantProblem(
        MeasureModel(tuple(ids.values()), named.model.weights),
        E1,
        named.base_point,
        tuple(Edge(ids[e.src], ids[e.dst], e.weight, e.twist, e.cls) for e in named.edges),
    )
    spec = CoverSpec(base, 2, (IDENT, T1, R0), ((0, 1), (1, 0), (0, 1)), (IDENT, T1))
    cov = build_cover(spec)
    assert cov.model.cells == ("0@0", "1@0", "2@0", "0@1", "1@1", "2@1")
    phi = EquivariantMap(base.model, E1, ((0.25,), (-0.5,), (1.5,)))
    lifted = lift_map(spec, phi, cov)
    assert lifted.values == ((0.25,), (-0.5,), (1.5,), (1.25,), (0.5,), (2.5,))
    assert energy(cov, lifted) == pytest.approx(energy(base, phi), rel=1e-12)
    m_base = comm_energy_model(base)
    m_cov = cover_comm_energy_model(spec, cov)
    assert commensurability_energy(m_cov, lifted) == pytest.approx(
        commensurability_energy(m_base, phi) / 2.0, rel=1e-12
    )


# ---------------------------------------------------------------------------
# array sweeps against the scalar sweeps
# ---------------------------------------------------------------------------


def both_sweeps(m, start, **anchor):
    return [
        sweeps(m, list(start), 1e-9, 500, **anchor)
        for sweeps in (_comm_sweeps_arrays, _comm_sweeps_scalar)
    ]


def random_start(m, seed):
    rng = np.random.default_rng(seed)
    return [tuple(float(c) for c in rng.normal(0.0, 1.0, m.target.dim)) for _ in m.model.cells]


@pytest.mark.parametrize(
    "model",
    [
        lambda: comm_energy_model(dihedral_line_problem(3)),
        lambda: comm_energy_model(dihedral_line_problem(6)),
        lambda: cover_comm_energy_model(dihedral_cover_model(2).cover_spec),
    ],
    ids=["dihedral-3", "dihedral-6", "dihedral-cover-2"],
)
def test_array_sweeps_bit_identical_to_scalar_in_one_dimension(model):
    m = model()
    assert m.arrays is not None
    from_random = both_sweeps(m, random_start(m, 4))
    assert from_random[0][2] > 10
    for arrays, scalar in (from_random, both_sweeps(m, [m.base_point] * len(m.model.cells))):
        assert repr(arrays) == repr(scalar)  # repr tells -0.0 from 0.0


def test_array_sweeps_bit_identical_on_anchored_stage():
    # one stage of the norm-minimal homotopy: the anchor term enters the
    # local sums last among the point terms
    m = comm_energy_model(dihedral_line_problem(3))
    anchor = dict(anchor_weights=[2.0 ** -3 * w for w in m.model.weights], anchor_point=(0.5,))
    arrays, scalar = both_sweeps(m, random_start(m, 5), **anchor)
    assert arrays[2] > 10
    assert repr(arrays) == repr(scalar)


def test_weighted_squares_round_like_scalar_terms():
    # d ** 2 is libm pow, which differs from d * d in about 0.1% of cases
    from busemann.commensurability import _weighted_sq_dist

    rng = np.random.default_rng(8)
    x, y = rng.normal(0.0, 3.0, (2, 20000, 1))
    w = rng.uniform(0.0, 1.0, 20000)
    for wt, a, b in zip(w, x, y):
        assert _weighted_sq_dist(wt, a[None, :], b[None, :]) == wt * E1.distance(tuple(a), tuple(b)) ** 2


def plane_model():
    e2 = Euclidean(2)
    ident = identity_isometry(e2)
    # quarter turn about (1, 0) and the mirror in the line y = 0.25
    turn = EuclideanIsometry(((0.0, -1.0), (1.0, 0.0)), (1.0, -1.0))
    mirror = EuclideanIsometry(((1.0, 0.0), (0.0, -1.0)), (0.0, 0.5))
    cells = MeasureModel(("a", "b", "c"), (0.5, 0.25, 0.25))
    prob = EquivariantProblem(
        cells,
        e2,
        (0.0, 0.0),
        (Edge("a", "b", 1.0, ident), Edge("b", "c", 1.0, turn), Edge("c", "a", 1.0, mirror)),
    )
    return comm_energy_model(prob, cutoff=1e-6)


def test_array_sweeps_match_scalar_in_two_dimensions():
    # math.dist and a numpy norm may round differently in the last bit
    m = plane_model()
    assert m.arrays is not None
    for anchor in ({}, dict(anchor_weights=[0.25 * w for w in m.model.weights], anchor_point=(1.0, 2.0))):
        arrays, scalar = both_sweeps(m, random_start(m, 6), **anchor)
        assert arrays[2] > 10
        assert arrays[2:4] == scalar[2:4]
        np.testing.assert_allclose(arrays[0], scalar[0], rtol=0.0, atol=1e-12)
        assert arrays[1] == pytest.approx(scalar[1], rel=1e-12)
        for ra, rs in zip(arrays[4], scalar[4]):
            assert ra.sweep == rs.sweep
            for field in ("energy_total", "norm", "max_move", "objective"):
                assert getattr(ra, field) == pytest.approx(getattr(rs, field), rel=1e-12, abs=1e-12)


def test_array_path_only_for_euclidean_targets():
    assert comm_energy_model(tree_leafswap_model().problem).arrays is None
    m = comm_energy_model(base_problem())
    assert m.arrays is m.arrays  # compiled once per model


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("sweeps", [_comm_sweeps_arrays, _comm_sweeps_scalar])
def test_sweeps_fail_fast_on_non_finite_start(sweeps):
    m = comm_energy_model(base_problem())
    start = [(0.0,), (math.nan,), (0.0,)]
    with pytest.raises(SolverError, match="non-finite objective nan at sweep 0"):
        sweeps(m, start, 1e-9, 500)
    with pytest.raises(SolverError, match="non-finite"):
        sweeps(m, [(math.inf,)] * 3, 1e-9, 500)
