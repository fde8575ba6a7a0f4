import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from busemann.commensurability import (
    CommEnergyModel,
    CoverSpec,
    _ball,
    _Stack,
    _orbit_pairs,
    _signed_perm_fixed_direction,
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
from busemann.harmonic import (
    Edge,
    EquivariantProblem,
    KernelArrays,
    Term,
    _apply_rows,
    _sq_terms,
    _weighted_sq_dist,
    compile_terms,
    energy,
    minimize_energy,
    norm_minimal_minimizer,
    quadratic_minimizer,
)
from busemann.mapspace import EquivariantMap, MeasureModel
from busemann.convexity import parallel_check
from busemann.models import (
    GENERATORS,
    dihedral_cover_model,
    dihedral_line_model,
    dihedral_line_problem,
    generate,
    product_two_class_model,
    translation_cover_spec,
    translation_loop_model,
    tree_leafswap_model,
)
from busemann.spaces import (
    DomainError,
    Euclidean,
    EuclideanIsometry,
    KEY_DECIMALS,
    LpVector,
    Product,
    ProductIsometry,
    SignedPermIsometry,
    SolverError,
    TreeIsometry,
    ValidationError,
    identity_isometry,
    point_reflection,
    star_tree,
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
    scaled = CommEnergyModel(
        model=m.model,
        target=m.target,
        base_point=m.base_point,
        terms=tuple(Term(t.c1, t.c2, 3.0 * t.weight, t.transport) for t in m.terms),
        generators=m.generators,
        word_radius=m.word_radius,
        truncation_residual=m.truncation_residual,
    )
    assert commensurability_energy(scaled, phi) == pytest.approx(3.0 * base_val, rel=1e-12)


# ---------------------------------------------------------------------------
# minimizers: uniqueness, non-uniqueness, oracle agreement
# ---------------------------------------------------------------------------


def batch_energies(m, x):
    """The kernel energy of each map x[g] (maps x cells x dim) from the
    model's arrays, summed per map as :func:`energy` sums it."""
    k = m.arrays
    sq = _sq_terms(k.weight, x[:, k.c1] - _apply_rows(k.matrix, k.shift, x[:, k.c2]))
    return [math.fsum(row) for row in sq.tolist()]


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
        # the grid points in the order a, b, c (c fastest), one batch per level
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3, 1)
        for e, point in zip(batch_energies(m, grid), grid[:, :, 0].tolist()):
            if best is None or e < best[0]:
                best = (e, tuple(point))
        centers = list(best[1])
        width = 2.0 * width / (n - 1)
    # the batch is the scalar energy: at the best point and a few others
    for point in (best[1], (0.0, 0.0, 0.0), (0.3, -1.0, 0.7), (2.0, 0.1, -0.4)):
        phi = EquivariantMap(m.model, E1, tuple((v,) for v in point))
        assert batch_energies(m, np.array(point)[None, :, None])[0] == pytest.approx(
            commensurability_energy(m, phi), rel=1e-12, abs=1e-12
        )
    assert rep.energy_total <= best[0] + 1e-6
    # the mirror-fixed middle cell sits at 0
    assert abs(rep.solution.values[1][0]) <= 1e-6


def one_loop_model(space, twist):
    """The kernel model of one cell with a self-loop by ``twist``."""
    loop = Edge("c0", "c0", 1.0, twist)
    base = (0.0,) * space.dim
    return comm_energy_model(EquivariantProblem(MeasureModel(("c0",), (1.0,)), space, base, (loop,)))


def test_exact_path_reads_parallel_orbits_off_the_null_space():
    # the mirror diag(1, -1) of R^2 fixes the first axis: one flat direction,
    # so orbits are parallel along it; sampled pairs never lie on that line,
    # so the sampled check misses it (it is one-sided)
    m = one_loop_model(Euclidean(2), EuclideanIsometry(((1.0, 0.0), (0.0, -1.0)), (0.0, 0.0)))
    assert m.arrays is not None
    rep = subgroup_harmonic(m, tol=1e-9, seed=3)
    assert rep.extras["flat_directions"] == 1
    assert rep.extras["unique"] is False
    assert rep.extras["parallel_orbits"] is True
    assert parallel_orbits_check(m.target, m.generators) is False


@pytest.mark.parametrize(
    "signs, parallel", [((1, -1), True), ((-1, -1), False), ((1, 1), True)]
)
def test_scalar_path_decides_parallel_orbits_of_signed_perms_exactly(signs, parallel):
    # l_p(2, 3) with a diagonal signed permutation: a coordinate of sign +1 is
    # a flat axis; the restarts disagree exactly on the flat models
    m = one_loop_model(LpVector(2, 3.0), SignedPermIsometry((0, 1), signs, (0.0, 0.0)))
    assert m.arrays is None
    rep = subgroup_harmonic(m, tol=1e-9, seed=3)
    assert rep.extras["parallel_orbits"] is parallel
    assert rep.extras["unique"] is not parallel
    assert "flat_directions" not in rep.extras
    if signs == (1, -1):
        assert parallel_orbits_check(m.target, m.generators) is False


def test_signed_perm_fixed_direction_matches_the_null_space():
    # against the rank of the stacked L - I over random signed permutations
    rng = np.random.default_rng(11)
    verdicts = set()
    for _ in range(300):
        dim = int(rng.integers(1, 6))
        gens = [
            SignedPermIsometry(tuple(rng.permutation(dim).tolist()), tuple(rng.choice((-1, 1), dim).tolist()),
                               (0.0,) * dim)
            for _ in range(int(rng.integers(0, 4)))
        ]
        stacked = np.zeros((0, dim))
        for g in gens:
            lin = np.zeros((dim, dim))
            lin[np.arange(dim), g.perm] = g.signs
            stacked = np.vstack((stacked, lin - np.eye(dim)))
        want = np.linalg.matrix_rank(stacked) < dim
        assert _signed_perm_fixed_direction(dim, gens) is bool(want), gens
        verdicts.add(bool(want))
    assert verdicts == {True, False}


def test_translation_model_reports_non_uniqueness():
    m = comm_energy_model(translation_loop_model().problem)
    rep = subgroup_harmonic(m, tol=1e-9, seed=5)
    assert not rep.extras["unique"]
    assert rep.extras["parallel_orbits"] is True


def test_two_starts_decide_uniqueness_on_flat_translation_loop():
    # on a Euclidean target the verdict is exact: the flat translation model
    # has one flat direction, and the check from the base point agrees
    m = comm_energy_model(translation_loop_model().problem)
    rep = subgroup_harmonic(m, tol=1e-9, seed=5)
    assert rep.extras["unique"] is False
    assert rep.extras["flat_directions"] == 1
    assert rep.extras["parallel_orbits"] is True
    assert rep.extras["restart_gap"] == 0.0
    # on other targets the base-point and the random start disagree: the
    # same loop in l_p(1, 3)
    lp = LpVector(1, 3.0)
    loop = Edge("c0", "c0", 1.0, translation(lp, (1.0,)))
    m = comm_energy_model(EquivariantProblem(MeasureModel(("c0",), (1.0,)), lp, (0.0,), (loop,)))
    assert m.arrays is None
    rep = subgroup_harmonic(m, tol=1e-9, seed=5)
    assert rep.extras["unique"] is False
    assert rep.extras["restart_gap"] > 0.1
    assert rep.extras["parallel_orbits"] is True
    assert "flat_directions" not in rep.extras


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


def scalar_parallel_orbits(space, generators, sample_pairs=64, seed=0, tol=1e-9):
    """The per-pair loop ``parallel_orbits_check`` ran before it was
    batched, kept as the oracle."""
    rng = np.random.default_rng(seed)
    for _ in range(sample_pairs):
        x = space.sample(rng, 2.0)
        y = space.sample(rng, 2.0)
        if space.distance(x, y) <= tol:
            continue
        if all(
            parallel_check(space, g.apply(x), g.apply(y), x, y, tol=max(tol, 1e-9))
            for g in generators
        ):
            return True
    return False


def comm_kernel_models():
    """The four kernel models the comm-kernel benchmark solves, a flat one
    and one on a tree."""
    cover = dihedral_cover_model(2)
    return {
        "dihedral-6": comm_energy_model(dihedral_line_model(6).problem),
        "dihedral-12": comm_energy_model(dihedral_line_model(12).problem),
        "dihedral-cover-2": cover_comm_energy_model(cover.cover_spec, cover.problem),
        "dihedral-3": comm_energy_model(dihedral_line_model(3).problem),
        "translation-loop": comm_energy_model(translation_loop_model().problem),
        "tree-leafswap": comm_energy_model(tree_leafswap_model().problem),
    }


def test_parallel_orbits_batch_equals_scalar_loop():
    cases = [(name, m.target, m.generators) for name, m in comm_kernel_models().items()]
    cases += [("translation", E1, (T1,)), ("dihedral", E1, (T1, R0)), ("identity", E1, (IDENT,))]
    for name, space, generators in cases:
        for seed in range(4):
            want = scalar_parallel_orbits(space, generators, seed=seed)
            assert parallel_orbits_check(space, generators, seed=seed) is want, (name, seed)


def test_parallel_orbits_witness_depends_on_the_drawn_pairs():
    # a leaf swap fixes the edge c-l3 pointwise: a pair is a witness exactly
    # when both points lie on that edge, so with a few pairs per seed the
    # verdict follows the stream pair by pair
    star = star_tree(3)
    swap = TreeIsometry(star, {"c": "c", "l1": "l2", "l2": "l1", "l3": "l3"})
    product = Product((E1, star), 2.0)
    shift_swap = ProductIsometry((T1, swap))
    verdicts = []
    for space, generators in ((star, (swap,)), (product, (shift_swap,)), (star, ())):
        for seed in range(30):
            got = parallel_orbits_check(space, generators, sample_pairs=3, seed=seed)
            assert got is scalar_parallel_orbits(space, generators, sample_pairs=3, seed=seed)
            verdicts.append(got)
    assert True in verdicts and False in verdicts
    assert parallel_orbits_check(star, (swap,), sample_pairs=0) is False
    # the pairs are drawn one after the other, x then y, as the loop drew them
    xs, ys = _orbit_pairs(product, 20, 5)
    rng = np.random.default_rng(5)
    for x, y in zip(xs, ys):
        assert (x, y) == (product.sample(rng, 2.0), product.sample(rng, 2.0))


def test_reflection_breaks_parallelism_pointwise():
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


def tower_cover():
    """The index-2 mirror cover of the base, refined by its own index-2
    mirror subgroup: the problem and its tower positions."""
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
    # tower positions are the accumulated representatives
    positions = {}
    for cell in cov2.model.cells:
        rest, j2 = cell.rsplit("@", 1)
        _, j1 = rest.rsplit("@", 1)
        positions[cell] = spec2.coset_reps[int(j2)].compose(spec1.coset_reps[int(j1)])
    return cov2, positions


def test_two_subgroup_coincidence_on_common_cover():
    # Two routes to the same index-4 subgroup (doubled-doubled translations
    # with the mirror).  Route A: the base's index-2 mirror cover, refined by
    # its own index-2 mirror subgroup.  Route B: the index-4 cover built
    # directly from the base.  The harmonic maps must agree on the common
    # cover once cells are matched (tower cell (c@i)@j <-> direct cell
    # c@(i + 2j), both representing the group piece t^(i+2j) Omega_c).
    base = base_problem()
    t2 = translation(E1, (2.0,))
    cov2, positions = tower_cover()
    # the kernel is measured in the base generators so both routes share one kernel
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
# the compiled engine against the scalar engine on kernel models
# ---------------------------------------------------------------------------


def scalar_copy(m):
    """The same model, built from its terms, with the compiled engine
    switched off (``arrays`` is a cached property, so presetting it to None
    keeps minimize_energy scalar)."""
    copy = CommEnergyModel(
        m.model, m.target, m.base_point, m.terms, m.generators, m.word_radius, m.truncation_residual
    )
    copy.__dict__["arrays"] = None
    return copy


def kernel_sweeps(m, values, tol, max_sweeps):
    """The sweeps of minimize_energy on a kernel model from ``values``, as
    (values, objective, sweeps, converged, trace, local_solves)."""
    rep = minimize_energy(m, EquivariantMap(m.model, m.target, tuple(values)), tol, max_sweeps)
    return (
        list(rep.solution.values), rep.extras["objective"], rep.iterations, rep.converged,
        rep.trace, rep.extras["local_solves"],
    )


def both_sweeps(m, start):
    """The kernel sweeps from ``start`` on the compiled and on the scalar engine."""
    return [kernel_sweeps(model, start, 1e-9, 500) for model in (m, scalar_copy(m))]


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


def test_weighted_squares_round_like_scalar_terms():
    # d ** 2 is libm pow, which differs from d * d in about 0.1% of cases
    rng = np.random.default_rng(8)
    x, y = rng.normal(0.0, 3.0, (2, 20000, 1))
    w = rng.uniform(0.0, 1.0, 20000)
    for wt, a, b in zip(w, x, y):
        assert _weighted_sq_dist(wt, a[None, :], b[None, :]) == wt * E1.distance(tuple(a), tuple(b)) ** 2


E2 = Euclidean(2)
# quarter turn about (1, 0) and the mirror in the line y = 0.25
TURN = EuclideanIsometry(((0.0, -1.0), (1.0, 0.0)), (1.0, -1.0))
MIRROR = EuclideanIsometry(((1.0, 0.0), (0.0, -1.0)), (0.0, 0.5))


def plane_problem():
    cells = MeasureModel(("a", "b", "c"), (0.5, 0.25, 0.25))
    return EquivariantProblem(
        cells,
        E2,
        (0.0, 0.0),
        (
            Edge("a", "b", 1.0, identity_isometry(E2)),
            Edge("b", "c", 1.0, TURN),
            Edge("c", "a", 1.0, MIRROR),
        ),
    )


def plane_model():
    return comm_energy_model(plane_problem(), cutoff=1e-6)


def test_array_sweeps_match_scalar_in_two_dimensions():
    # math.dist and a numpy norm may round differently in the last bit
    m = plane_model()
    assert m.arrays is not None
    arrays, scalar = both_sweeps(m, random_start(m, 6))
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
@pytest.mark.parametrize("engine", [lambda m: m, scalar_copy], ids=["compiled", "scalar"])
def test_sweeps_fail_fast_on_non_finite_start(engine):
    m = engine(comm_energy_model(base_problem()))
    start = [(0.0,), (math.nan,), (0.0,)]
    with pytest.raises(SolverError, match="non-finite objective nan at sweep 0"):
        kernel_sweeps(m, start, 1e-9, 500)
    with pytest.raises(SolverError, match="non-finite"):
        kernel_sweeps(m, [(math.inf,)] * 3, 1e-9, 500)


# ---------------------------------------------------------------------------
# the array-built kernel model against the isometry objects
# ---------------------------------------------------------------------------


def reference_ball(space, generators, radius):
    """The word ball built one isometry object at a time: (isometry, norm)."""
    gens, seen = [], set()
    for g in generators:
        for h in (g, g.invert()):
            if h.key() not in seen:
                seen.add(h.key())
                gens.append(h)
    ident = identity_isometry(space)
    ball = {ident.key(): (ident, 0)}
    frontier = [ident]
    for n in range(1, radius + 1):
        nxt = []
        for t in frontier:
            for g in gens:
                t2 = g.compose(t)
                if t2.key() not in ball:
                    ball[t2.key()] = (t2, n)
                    nxt.append(t2)
        frontier = nxt
    return list(ball.values())


def reference_terms(prob, radius, positions=None, norm_generators=None):
    """The kernel terms as objects, in the model's (c1, c2, ball) order."""
    gens = []
    for e in prob.edges:
        if not any(t.key() == e.twist.key() for t in gens):
            gens.append(e.twist)
    ident = identity_isometry(prob.target)
    norm_ball = reference_ball(prob.target, norm_generators or gens, radius)
    own = {t.key() for t, _ in reference_ball(prob.target, gens, radius + 4)}
    mu = prob.model.weights
    cells = prob.model.cells
    terms = []
    for i, ci in enumerate(cells):
        for j, cj in enumerate(cells):
            for delta, n in norm_ball:
                if positions is None:
                    gamma, skip = delta, i == j and n == 0
                else:
                    gamma = positions[ci].compose(delta).compose(positions[cj].invert())
                    skip = gamma.key() not in own or (i == j and gamma.key() == ident.key())
                if not skip:
                    terms.append(Term(i, j, mu[i] * mu[j] * math.exp(-float(n) ** 2 + 1.0), gamma))
    return terms


def plain_case(prob):
    return comm_energy_model(prob), prob, None, None


def cover_case(spec):
    cov = build_cover(spec)
    n = len(spec.base.model.cells)
    positions = {c: spec.coset_reps[k // n] for k, c in enumerate(cov.model.cells)}
    return cover_comm_energy_model(spec, cov), cov, positions, spec.generators


def tower_case():
    cov2, positions = tower_cover()
    norm = (IDENT, T1, R0)
    return comm_energy_model(cov2, positions=positions, norm_generators=norm), cov2, positions, norm


def plane_case():
    return plane_model(), plane_problem(), None, None


def no_edge_case():
    # no twists: the word ball is the identity alone
    prob = EquivariantProblem(MeasureModel(("a", "b"), (0.5, 0.5)), E1, (0.0,), ())
    return plain_case(prob)


MODEL_CASES = {
    "dihedral-3": (lambda: plain_case(dihedral_line_problem(3)), 213),
    "dihedral-6": (lambda: plain_case(dihedral_line_problem(6)), 858),
    "dihedral-12": (lambda: plain_case(dihedral_line_problem(12)), 3444),
    "dihedral-cover-2": (lambda: cover_case(dihedral_cover_model(2).cover_spec), 426),
    "translation-cover-3": (lambda: cover_case(translation_cover_spec(3)), 426),
    "tower": (tower_case, 852),
    "plane": (plane_case, 249),
    "no-edges": (no_edge_case, 2),
}


@pytest.mark.parametrize("name", list(MODEL_CASES))
def test_array_model_equals_object_model(name):
    build, count = MODEL_CASES[name]
    m, prob, positions, norm_generators = build()
    assert "terms" not in m.__dict__  # built as arrays
    ref = reference_terms(prob, m.word_radius, positions, norm_generators)
    assert m.n_terms == len(ref) == count
    k = m.arrays
    r = compile_terms(
        prob.target.dim,
        [t.c1 for t in ref],
        [t.c2 for t in ref],
        [t.weight for t in ref],
        [t.transport.matrix for t in ref],
        [t.transport.shift for t in ref],
    )
    for field in ("c1", "c2", "weight"):
        a, b = getattr(k, field), getattr(r, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for field in ("matrix", "shift"):
        a, b = getattr(k, field), getattr(r, field)
        assert a.shape == b.shape
        if prob.target.dim == 1:
            assert a.tobytes() == b.tobytes()
        else:
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15)
    # the lazy Term tuple
    assert [(t.c1, t.c2, t.weight, t.transport.key()) for t in m.terms] == [
        (t.c1, t.c2, t.weight, t.transport.key()) for t in ref
    ]


@pytest.mark.parametrize(
    "space, generators, radius",
    [
        (E1, (T1, R0), 6),
        (E2, (TURN, MIRROR), 4),
        (
            # a rotation by 1 radian about (0.3, 0.1) and a translation by
            # 0.1: entries that the key's rounding to 9 decimals must merge
            E2,
            (
                EuclideanIsometry(
                    ((math.cos(1.0), -math.sin(1.0)), (math.sin(1.0), math.cos(1.0))),
                    (
                        0.3 - (math.cos(1.0) * 0.3 - math.sin(1.0) * 0.1),
                        0.1 - (math.sin(1.0) * 0.3 + math.cos(1.0) * 0.1),
                    ),
                ),
                translation(E2, (0.1, 0.0)),
            ),
            4,
        ),
    ],
    ids=["dihedral", "plane", "rotation"],
)
def test_array_word_ball_matches_word_ball(space, generators, radius):
    ref = reference_ball(space, generators, radius)
    ball = word_ball(space, generators, radius)
    stack, norms = _ball(_Stack, space, generators, radius)
    if space.dim == 1:
        assert len(ball) == 24
    assert [(g.key(), n) for g, n in ball] == [(g.key(), n) for g, n in ref]
    assert norms == [n for _, n in ref]
    assert stack.keys() == [g.key()[1] + g.key()[2] for g, _ in ref]
    np.testing.assert_allclose(stack.matrix, [g.matrix for g, _ in ref], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(stack.shift, [g.shift for g, _ in ref], rtol=0.0, atol=1e-15)


def python_keys(rows):
    """The keys of ``EuclideanIsometry.key()``: Python's ``round`` on each value."""
    return [tuple(round(x, KEY_DECIMALS) + 0.0 for x in row) for row in rows]


def stack_of_rows(rows):
    """A 1-dimensional stack whose key rows are the (matrix, shift) pairs ``rows``."""
    a = np.array(rows, dtype=float).reshape(-1, 2)
    return _Stack(a[:, :1].reshape(-1, 1, 1), a[:, 1:].copy())


def beside(x):
    """x and its two neighbouring floats."""
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


def test_stack_keys_round_as_python():
    # one ulp either side of 9-decimal halfway points, where rounding the
    # product x * 1e9 (as np.round does) can land on the other side
    halfway = [v for h in (1.0000000005, 2.5e-9, -0.1234567895, -7.0000000015) for v in beside(h)]
    large = [1e7, -1e7 - 0.5e-9, 1e300, -1e300, 1099.5116277755]  # x * 1e9 near or past 2^40
    values = halfway + large + [-0.0, -1e-17, 1e-17, 0.5, -2.5]
    rows = list(zip(values, values[::-1]))
    assert stack_of_rows(rows).keys() == python_keys(rows)
    assert np.round(1.0000000005, 9) != round(1.0000000005, 9)  # a case np.round misses
    # residues of -1e-17 and -0.0 give +0.0, as key() does
    zeros = stack_of_rows([(-0.0, -1e-17)]).keys()
    assert zeros == [(0.0, 0.0)] and all(math.copysign(1.0, k) == 1.0 for k in zeros[0])
    assert stack_of_rows([]).keys() == []


HALF_INTEGERS = st.integers(-10**12, 10**12).map(lambda n: (n + 0.5) / 1e9)


@given(
    st.lists(
        st.one_of(
            st.floats(-1e12, 1e12),
            HALF_INTEGERS,
            st.tuples(HALF_INTEGERS, st.sampled_from((-math.inf, math.inf))).map(lambda t: np.nextafter(*t)),
        ),
        min_size=2,
        max_size=24,
    )
)
def test_stack_keys_round_as_python_property(values):
    rows = list(zip(values[::2], values[1::2]))
    assert stack_of_rows(rows).keys() == python_keys(rows)


def first_appearance(edges):
    """Twists de-duplicated by ``key()``, by a linear search, in first-appearance order."""
    gens = []
    for e in edges:
        if not any(t.key() == e.twist.key() for t in gens):
            gens.append(e.twist)
    return gens


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_in_first_appearance_order(name):
    prob = generate(name).problem
    m = comm_energy_model(prob)
    assert [g.key() for g in m.generators] == [g.key() for g in first_appearance(prob.edges)]


def test_repeated_twists_keep_their_first_appearance():
    a, b, c = T1, R0, point_reflection(E1, (0.5,))
    a_again = translation(E1, (1.0 + 1e-12,))  # another object with the key of a
    cells = ("c0", "c1", "c2")
    twists = (a, b, a_again, c, b)
    edges = tuple(Edge(cells[i % 3], cells[(i + 1) % 3], 1.0, t) for i, t in enumerate(twists))
    prob = EquivariantProblem(MeasureModel(cells, (1 / 3,) * 3), E1, (0.0,), edges)
    gens = comm_energy_model(prob).generators
    assert [g.key() for g in gens] == [g.key() for g in first_appearance(edges)]
    assert [g.key() for g in gens] == [a.key(), b.key(), c.key()]
    assert gens[0] is a


@pytest.mark.parametrize(
    "model", [tree_leafswap_model, product_two_class_model], ids=["tree", "product"]
)
def test_object_model_for_other_targets(model):
    prob = model().problem
    m = comm_energy_model(prob)
    assert m.arrays is None
    ref = reference_terms(prob, m.word_radius)
    assert m.n_terms == len(ref) > 0
    assert [(t.c1, t.c2, t.weight, t.transport.key()) for t in m.terms] == [
        (t.c1, t.c2, t.weight, t.transport.key()) for t in ref
    ]


def test_conjugate_model_same_from_arrays_and_objects():
    m = comm_energy_model(base_problem())
    relabel = {"c0": "c2", "c1": "c0", "c2": "c1"}
    lam = translation(E1, (2.5,))
    from_arrays = conjugate_comm_model(m, lam, relabel)
    from_objects = conjugate_comm_model(scalar_copy(m), lam, relabel)
    assert "terms" not in from_arrays.__dict__ and "arrays" not in from_objects.__dict__
    for field in ("c1", "c2", "weight", "matrix", "shift"):
        a, b = getattr(from_arrays.arrays, field), getattr(from_objects.arrays, field)
        assert a.tobytes() == b.tobytes()
    assert [(t.c1, t.c2, t.weight, t.transport.key()) for t in from_arrays.terms] == [
        (t.c1, t.c2, t.weight, t.transport.key()) for t in from_objects.terms
    ]


def test_compiled_solve_never_builds_terms():
    m = cover_comm_energy_model(dihedral_cover_model(2).cover_spec)
    rep = subgroup_harmonic(m, tol=1e-9, seed=2)
    assert rep.extras["engine"] == "compiled"
    assert rep.extras["kernel_terms"] == 426
    start = EquivariantMap(m.model, E1, tuple(random_start(m, 3)))
    compiled = minimize_energy(m, start, tol=1e-9, class_weights={1: 0.5})
    assert "terms" not in m.__dict__
    scalar = minimize_energy(scalar_copy(m), start, tol=1e-9, class_weights={1: 0.5})
    assert compiled.iterations > 10
    assert repr((compiled.solution, compiled.trace)) == repr((scalar.solution, scalar.trace))


def test_kernel_model_takes_terms_or_arrays():
    m = comm_energy_model(base_problem())
    fields = (m.model, m.target, m.base_point)
    with pytest.raises(ValidationError):
        CommEnergyModel(*fields, None, m.generators, m.word_radius, m.truncation_residual)
    with pytest.raises(ValidationError):
        CommEnergyModel(*fields, m.terms, m.generators, m.word_radius, m.truncation_residual, m.arrays)


# ---------------------------------------------------------------------------
# the exact solve of compiled kernel models
# ---------------------------------------------------------------------------


def generator_comm_model(name):
    """The kernel model that ``busemann solve`` builds for a generator."""
    gm = generate(name)
    if gm.cover_spec is not None and gm.cover_spec.index > 1:
        return cover_comm_energy_model(gm.cover_spec, gm.problem)
    return comm_energy_model(gm.problem)


EUCLIDEAN_GENERATORS = [name for name in GENERATORS if isinstance(generate(name).problem.target, Euclidean)]


def quadratic_energy(k, values):
    """The energy of compiled terms at a map given as one tuple per cell."""
    x = np.array(values, dtype=float)
    return math.fsum(_sq_terms(k.weight, x[k.c1] - _apply_rows(k.matrix, k.shift, x[k.c2])).tolist())


def test_flat_directions_agree_with_parallel_orbits():
    # exact null space against the sampled parallel-orbits witness, on the
    # kernel model of every Euclidean generator and every model case
    models = {name: generator_comm_model(name) for name in EUCLIDEAN_GENERATORS}
    models.update({name: build()[0] for name, (build, _) in MODEL_CASES.items()})
    flat = {}
    for name, m in models.items():
        _, flat[name] = quadratic_minimizer(m.arrays, m.model.weights, m.base_point)
        assert (flat[name] > 0) is parallel_orbits_check(m.target, m.generators), name
    assert {name for name, count in flat.items() if count} == {
        "consensus", "translation-loop", "translation-cover-3", "no-edges",
    }
    assert max(flat.values()) == 1


@pytest.mark.parametrize("name", EUCLIDEAN_GENERATORS)
def test_exact_solve_of_generator_models(name):
    m = generator_comm_model(name)
    flat = 1 if name in ("consensus", "translation-loop") else 0
    reports = [subgroup_harmonic(m, tol=1e-9, seed=7, norm_minimal=nm) for nm in (False, True)]
    for rep in reports:
        assert rep.extras["flat_directions"] == flat
        assert rep.extras["unique"] is (flat == 0)
        assert rep.extras["restart_gap"] <= 1e-8
        assert rep.converged
    # the exact point is the norm-minimal selection either way
    assert reports[0].solution == reports[1].solution
    ref = {"dihedral-line": 2.506608010215817, "dihedral-cover": 1.2533040051079085}.get(name)
    if ref is not None:
        assert reports[0].energy_total == pytest.approx(ref, rel=1e-12)
    bcd = minimize_energy(m, EquivariantMap(m.model, m.target, tuple(random_start(m, 1))), tol=1e-12, max_sweeps=5000)
    assert bcd.converged
    assert reports[0].energy_total == pytest.approx(bcd.energy_total, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", [name for name in MODEL_CASES if name not in ("translation-cover-3", "no-edges")])
def test_exact_point_is_the_unique_minimizer(name):
    # without flat directions the descent from a random start ends at the
    # exact point, also in two dimensions
    m = MODEL_CASES[name][0]()[0]
    values, flat = quadratic_minimizer(m.arrays, m.model.weights, m.base_point)
    assert flat == 0
    start = EquivariantMap(m.model, m.target, tuple(random_start(m, 2)))
    bcd = minimize_energy(m, start, tol=1e-12, max_sweeps=5000)
    assert bcd.converged
    np.testing.assert_allclose(bcd.solution.values, values, rtol=0.0, atol=1e-8)
    assert quadratic_energy(m.arrays, values) == pytest.approx(bcd.energy_total, rel=1e-12)


@pytest.mark.parametrize("name", EUCLIDEAN_GENERATORS)
def test_exact_solve_invariant_under_weight_scaling(name):
    # every kernel weight times 10^k: the same flat directions, the same
    # point to tol, the energy times 10^k
    m = generator_comm_model(name)
    k = m.arrays
    values, flat = quadratic_minimizer(k, m.model.weights, m.base_point)
    e0 = quadratic_energy(k, values)
    for power in range(-12, 13):
        scaled = KernelArrays(k.c1, k.c2, 10.0**power * k.weight, k.matrix, k.shift)
        got, got_flat = quadratic_minimizer(scaled, m.model.weights, m.base_point)
        assert got_flat == flat, power
        assert np.abs(np.subtract(got, values)).max() <= 1e-9, power
        assert quadratic_energy(scaled, got) == pytest.approx(10.0**power * e0, rel=1e-12, abs=0.0), power


def test_one_dimensional_commensurability_solve_calls_no_linalg(monkeypatch):
    # no LAPACK routine at these sizes: its first call maps memory and may
    # start the BLAS thread pool
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg was called")

    for routine in ("eigh", "lstsq", "svd", "solve", "cholesky"):
        monkeypatch.setattr(np.linalg, routine, refuse)
    for name in EUCLIDEAN_GENERATORS:
        m = generator_comm_model(name)
        assert m.target.dim == 1
        for norm_minimal in (False, True):
            rep = subgroup_harmonic(m, norm_minimal=norm_minimal)
            assert rep.converged and rep.extras["local_solves"]["linear"] > 0
        for prob in (m, generate(name).problem):  # the kernel and the edge energy
            rep = norm_minimal_minimizer(prob)
            assert rep.converged and rep.extras["local_solves"]["linear"] > 0
