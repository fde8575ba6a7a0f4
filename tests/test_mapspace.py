import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from busemann.mapspace import (
    EquivariantMap,
    MeasureModel,
    ScalarField,
    banach_lp_modulus,
    const_map,
    hilbert_modulus,
    linear_modulus_bound,
    map_distance,
    map_midpoint,
    mazur_map,
    mazur_map_batch,
    p_mean,
    permute_cells,
    sample_map,
    scalar_distance,
    scalar_norm,
    uc_distances,
    uc_witness_check,
    uc_witness_of_distances,
)
from busemann.oracles import two_atom_modulus_search
from busemann.spaces import (
    DomainError,
    Euclidean,
    LpVector,
    MetricTree,
    SpaceMismatchError,
    ValidationError,
    random_tree,
    star_tree,
)

E1 = Euclidean(1)
STAR = star_tree(3)
M2 = MeasureModel(("a", "b"), (0.5, 0.5))


def emap(model, values):
    return EquivariantMap(model, E1, tuple((float(v),) for v in values))


# ---------------------------------------------------------------------------
# measure models and the map distance
# ---------------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValidationError):
        MeasureModel(("a", "b"), (0.5, 0.6))
    with pytest.raises(ValidationError):
        MeasureModel(("a", "a"), (0.5, 0.5))
    with pytest.raises(ValidationError):
        MeasureModel(("a", "b"), (1.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_weights(bad):
    # NaN fails no sign test and makes the sum test compare a NaN
    for weights in ((bad, 1.0), (1.0, bad), (bad, bad)):
        with pytest.raises(ValidationError, match="finite"):
            MeasureModel(("a", "b"), weights)


def test_rho_equal_weights():
    assert map_distance(2.0, emap(M2, (0, 0)), emap(M2, (2, 2))) == 2.0


def test_rho_zero_on_equal_maps():
    phi = emap(M2, (1.3, -0.2))
    assert map_distance(2.0, phi, phi) == 0.0


def test_rho_weighted():
    m = MeasureModel(("a", "b"), (0.25, 0.75))
    phi = emap(m, (0, 0))
    psi = emap(m, (4, 0))
    assert map_distance(2.0, phi, psi) == pytest.approx(2.0, abs=1e-15)


def test_rho_model_mismatch():
    other = MeasureModel(("x", "y"), (0.5, 0.5))
    with pytest.raises(SpaceMismatchError):
        map_distance(2.0, emap(M2, (0, 0)), emap(other, (0, 0)))


def test_rho_metric_axioms(rng):
    for _ in range(1000):
        phi = sample_map(M2, E1, rng)
        psi = sample_map(M2, E1, rng)
        chi = sample_map(M2, E1, rng)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        dxy = map_distance(p, phi, psi)
        assert dxy == map_distance(p, psi, phi)
        assert dxy >= 0.0
        assert map_distance(p, phi, phi) == 0.0
        assert dxy <= map_distance(p, phi, chi) + map_distance(p, chi, psi) + 1e-12


# ---------------------------------------------------------------------------
# midpoints and geodesics of maps
# ---------------------------------------------------------------------------


def test_map_midpoint_cellwise():
    mid = map_midpoint(emap(M2, (0, 0)), emap(M2, (2, 4)))
    assert mid.values == ((1.0,), (2.0,))


def test_map_midpoint_idempotent_on_equal():
    phi = emap(M2, (1, 2))
    assert map_midpoint(phi, phi).values == phi.values


def test_map_midpoint_tree_pointwise():
    phi = EquivariantMap(M2, STAR, (STAR.vertex_point("l1"), STAR.vertex_point("l2")))
    psi = const_map(M2, STAR, STAR.vertex_point("c"))
    mid = map_midpoint(phi, psi)
    assert mid.values == (STAR.point(0, 0.5), STAR.point(1, 0.5))


def test_map_midpoint_bisects_rho(rng):
    # equality for p = 2 with a CAT(0) target, inequality in general
    for p, target in ((2.0, E1), (2.0, STAR), (1.5, LpVector(2, 3.0)), (3.0, E1)):
        for _ in range(100):
            phi = sample_map(M2, target, rng)
            psi = sample_map(M2, target, rng)
            mid = map_midpoint(phi, psi)
            d = map_distance(p, phi, psi)
            dm = map_distance(p, mid, phi)
            assert dm <= 0.5 * d + 1e-12
            if p == 2.0:
                assert dm == pytest.approx(0.5 * d, abs=1e-12)
                assert map_distance(p, mid, psi) == pytest.approx(0.5 * d, abs=1e-12)


def test_map_space_bnpc_sampled(rng):
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]

    def geodesic(phi, psi, t):  # the cellwise geodesic of two maps
        return phi.with_values(phi.target.geodesic(a, b, t) for a, b in zip(phi.values, psi.values))

    for p, target in ((2.0, STAR), (1.5, E1), (3.0, LpVector(2, 3.0))):
        for _ in range(100):
            phi1, phi2 = sample_map(M2, target, rng), sample_map(M2, target, rng)
            psi1, psi2 = sample_map(M2, target, rng), sample_map(M2, target, rng)
            vals = [
                map_distance(p, geodesic(phi1, phi2, t), geodesic(psi1, psi2, t))
                for t in grid
            ]
            for i in range(1, len(grid) - 1):
                assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9 * (1 + max(vals))


# ---------------------------------------------------------------------------
# the L_p modulus search vs closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.05, 0.3, 1.0, 1.7])
def test_two_atom_search_matches_hilbert(eps):
    assert two_atom_modulus_search(2.0, eps) == pytest.approx(
        hilbert_modulus(eps), rel=1e-6
    )


@pytest.mark.parametrize("eps", [0.05, 0.3, 1.0, 1.7])
def test_two_atom_search_matches_hanner_p3(eps):
    assert two_atom_modulus_search(3.0, eps) == pytest.approx(
        banach_lp_modulus(3.0, eps), rel=1e-3
    )


@pytest.mark.parametrize("eps", [0.05, 0.3, 1.0, 1.7])
def test_two_atom_search_matches_hanner_p15(eps):
    assert two_atom_modulus_search(1.5, eps) == pytest.approx(
        banach_lp_modulus(1.5, eps), rel=1e-6
    )


def test_banach_modulus_monotone_lower_lookup():
    vals = [banach_lp_modulus(2.0, e) for e in np.linspace(1e-4, 2.0, 50)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # a lower estimate of the true modulus everywhere
    for e in (0.01, 0.2, 0.9, 1.8):
        assert banach_lp_modulus(2.0, e) <= hilbert_modulus(e) + 1e-9
    assert banach_lp_modulus(2.0, 0.0) == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_modulus_finite_at_and_beyond_eps_2(p):
    # no grid pair reaches separation exactly 2; the search must fall back to
    # the trivial lower estimate 0, never inf
    assert two_atom_modulus_search(p, 2.0, grid=16, mu_values=(0.5,)) == 0.0
    for e in (2.0, 5.0):
        assert 0.0 <= banach_lp_modulus(p, e) <= 1.0


CURVE_ARGS = dict(grid=64, mu_values=(0.5, 0.3, 0.12))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_batched_search_equals_single_node_calls(p):
    # bit-for-bit: the batched search only regroups the same elementwise ops,
    # so any segment/offset bookkeeping error shows as a mismatch
    nodes = np.geomspace(1e-3, 2.0, 32)
    batched = two_atom_modulus_search(p, nodes, **CURVE_ARGS)
    assert batched.shape == nodes.shape
    for i in (0, 3, 7, 12, 18, 24, 29, 31):
        single = two_atom_modulus_search(p, float(nodes[i]), **CURVE_ARGS)
        assert isinstance(single, float)
        assert batched[i] == single, (i, batched[i], single)


def test_modulus_curve_never_exceeds_hanner():
    # the library modulus is Hanner's value; a grid minimum over unit-sphere
    # pairs can only over-estimate that infimum, so the two-atom search (at
    # the settings the former cached curve used) never falls below it.  The
    # search evaluates 1 - |(f+g)/2| with |(f+g)/2| near 1, which costs it a
    # few ulp of 1 in absolute terms.  At eps = 2 (the last node) no grid pair
    # reaches the separation and the search reports its trivial 0.
    nodes = np.geomspace(1e-3, 2.0, 32)[:-1]
    over = []
    for p in (1.5, 2.0, 3.0):
        search = two_atom_modulus_search(p, nodes, **CURVE_ARGS)
        over += [
            (p, e, v, s)
            for e, s in zip(nodes, search)
            if (v := banach_lp_modulus(p, float(e))) > s + 1e-15
        ]
    assert not over


def _hanner_reference(p, eps):
    # Hanner's modulus in 60-digit decimal arithmetic: the closed form for
    # p >= 2, a 200-step bisection of the implicit equation for p < 2
    with localcontext() as ctx:
        ctx.prec = 60
        p, a = Decimal(p), Decimal(eps) / 2
        if p >= 2:
            return 1 - (1 - a**p) ** (1 / p)
        lo, hi = Decimal(0), Decimal(1)
        for _ in range(200):
            d = (lo + hi) / 2
            if (1 - d + a) ** p + abs(1 - d - a) ** p > 2:
                lo = d
            else:
                hi = d
        return lo


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
def test_banach_modulus_exact_at_small_eps(p, eps):
    # 1 - (1 - (eps/2)^p)^(1/p) cancels: at p = 2, eps = 1e-6 it returned
    # 1.25011e-13 against the true 1.25e-13, an over-estimate
    value = banach_lp_modulus(p, eps)
    exact = float(_hanner_reference(p, eps))
    assert exact * (1.0 - 1e-12) <= value <= exact * (1.0 + 1e-12)
    # the leading terms; at eps = 1e-3 the next-order term (relative
    # eps^2/16 for p <= 2, eps^3/24 for p = 3) lies above 1e-12 and is allowed
    lead = (eps / 2.0) ** p / p if p >= 2.0 else (p - 1.0) * eps**2 / 8.0
    next_order = eps**2 / 16.0 if p <= 2.0 else eps**3 / 24.0
    assert value <= lead * (1.0 + next_order + 1e-12)


def test_linear_modulus_bounds_by_space():
    assert linear_modulus_bound(E1) is hilbert_modulus
    assert linear_modulus_bound(STAR) is hilbert_modulus
    lp3 = linear_modulus_bound(LpVector(3, 3.0))
    assert lp3(1.0) == pytest.approx(banach_lp_modulus(3.0, 1.0), abs=1e-12)
    lp15 = linear_modulus_bound(LpVector(2, 1.5))
    assert lp15(1.0) == pytest.approx(0.5 / 8.0, abs=1e-12)
    assert lp15(1.0) <= banach_lp_modulus(1.5, 1.0)


# ---------------------------------------------------------------------------
# uniform convexity witness
# ---------------------------------------------------------------------------


def test_uc_witness_maximal_eps():
    psi = emap(M2, (0, 0))
    phi1 = emap(M2, (1, 1))
    phi2 = emap(M2, (-1, -1))
    rep = uc_witness_check(2.0, linear_modulus_bound(E1), psi, phi1, phi2, 1.0)
    assert rep.eps == pytest.approx(2.0)
    assert rep.ok and rep.slack > 0.9  # midpoint collapses to psi


def test_uc_witness_degenerate_pair():
    psi = emap(M2, (0, 0))
    phi = emap(M2, (0.5, -0.5))
    rep = uc_witness_check(2.0, linear_modulus_bound(E1), psi, phi, phi, 1.0)
    assert rep.eps == 0.0 and rep.tau == 0.0 and rep.ok


def test_uc_witness_precondition():
    psi = emap(M2, (0, 0))
    phi = emap(M2, (5, 5))
    with pytest.raises(DomainError):
        uc_witness_check(2.0, linear_modulus_bound(E1), psi, phi, phi, 1.0)


def test_uc_witness_large_radius_regime(rng):
    # uniform convexity for large distances: sampled non-violation when the
    # radius dwarfs the sample diameter (r >= 10 * diam)
    target = E1
    delta = linear_modulus_bound(target)
    for _ in range(500):
        psi = sample_map(M2, target, rng)
        phi1 = sample_map(M2, target, rng)
        phi2 = sample_map(M2, target, rng)
        diam = max(
            map_distance(2.0, a, b)
            for a in (psi, phi1, phi2)
            for b in (psi, phi1, phi2)
        )
        r = max(10.0 * diam, 1e-6)
        rep = uc_witness_check(2.0, delta, psi, phi1, phi2, r)
        assert rep.ok


@given(
    st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
    st.sampled_from([(2.0, 4.0), (3.0, 1.5), (1.5, 2.5)]),
)
def test_mazur_roundtrip_property(vals, pq):
    p, q = pq
    f = ScalarField(M2, tuple(vals), p)
    back = mazur_map(mazur_map(f, p, q), q, p)
    assert max(abs(a - b) for a, b in zip(back.values, f.values)) <= 1e-10 * (
        1.0 + max(abs(v) for v in vals)
    )


def test_uc_witness_random_l3_batch(rng):
    target = LpVector(3, 3.0)
    delta = linear_modulus_bound(target)
    model = MeasureModel(("a", "b", "c"), (0.5, 0.3, 0.2))
    for _ in range(2000):
        psi = sample_map(model, target, rng)
        phi1 = sample_map(model, target, rng)
        phi2 = sample_map(model, target, rng)
        r = max(map_distance(3.0, phi1, psi), map_distance(3.0, phi2, psi), 1e-9)
        rep = uc_witness_check(3.0, delta, psi, phi1, phi2, r)
        assert rep.ok


# ---------------------------------------------------------------------------
# the array kernel of the witness against the scalar check
# ---------------------------------------------------------------------------

UC_MODEL = MeasureModel(("a", "b", "c"), (0.5, 0.3, 0.2))
UC_TARGETS = {
    "line": E1,
    "lp(3,3)": LpVector(3, 3.0),
    "star-tree": STAR,
    **{f"random-tree{n}": random_tree(n, np.random.default_rng(n)) for n in (2, 5, 9)},
}


def uc_triples(target, rng, n):
    """(psi, phi1, phi2) map batches of n samples.  Tree batches include
    vertices (offsets at, or within SNAP_TOL of, an endpoint) and cells whose
    points share an edge."""
    cells = len(UC_MODEL.cells)
    if not isinstance(target, MetricTree):
        arr = rng.normal(0.0, 1.0, (n, 3, cells, target.dim))
        return arr[:, 0], arr[:, 1], arr[:, 2]
    lengths = np.array([e[2] for e in target.edges])
    edge = rng.integers(0, len(target.edges), (n, 3, cells))
    frac = rng.uniform(0.0, 1.0, (n, 3, cells))
    frac[::7] = rng.choice([0.0, 1.0, 1e-14, 1.0 - 1e-14], frac[::7].shape)
    edge[::5, 1] = edge[::5, 0]
    edge[::3, 2] = edge[::3, 1]
    edge, offset = target.point_batch(edge, frac * lengths[edge])
    return tuple((edge[:, m], offset[:, m]) for m in range(3))


def scalar_map(target, batch, k):
    """Sample k of a map batch as an EquivariantMap."""
    if isinstance(target, MetricTree):
        edge, offset = batch
        values = tuple(target.point(int(e), float(o)) for e, o in zip(edge[k], offset[k]))
    else:
        values = tuple(tuple(float(c) for c in row) for row in batch[k])
    return EquivariantMap(UC_MODEL, target, values)


def uc_radii(p, target, psi, phi1, phi2):
    w = UC_MODEL.weights
    return np.maximum(
        np.maximum(p_mean(p, w, target.distance_batch(phi1, psi)), p_mean(p, w, target.distance_batch(phi2, psi))),
        1e-9,
    )


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("target", UC_TARGETS.values(), ids=UC_TARGETS.keys())
def test_uc_witness_batch_matches_scalar_check(target, p):
    rng = np.random.default_rng(17)
    triples = uc_triples(target, rng, 300)
    delta = linear_modulus_bound(target)
    r = uc_radii(p, target, *triples)
    rep = uc_witness_of_distances(p, delta, UC_MODEL.weights, uc_distances(target, *triples), r)
    for k in range(300):
        psi, phi1, phi2 = (scalar_map(target, b, k) for b in triples)
        assert r[k] == pytest.approx(
            max(map_distance(p, phi1, psi), map_distance(p, phi2, psi), 1e-9), rel=1e-12
        )
        ref = uc_witness_check(p, delta, psi, phi1, phi2, float(r[k]))
        for name in ("eps", "bound", "rho_mid", "slack"):
            # relative to the radius, the scale of each of them
            assert getattr(rep, name)[k] == pytest.approx(getattr(ref, name), rel=1e-12, abs=1e-12 * r[k]), name
        assert rep.tau[k] == pytest.approx(ref.tau, rel=1e-12, abs=0.0)
        assert rep.ok[k] == ref.ok
        assert rep.small_modulus_regime[k] == ref.small_modulus_regime


@pytest.mark.parametrize("target", UC_TARGETS.values(), ids=UC_TARGETS.keys())
def test_uc_witness_halves_compose_to_the_batch_kernel(target):
    # the two halves, uc_distances and uc_witness_of_distances, with the
    # distances computed once for every p: without r, the radius is the
    # least the precondition admits, bit for bit
    triples = uc_triples(target, np.random.default_rng(23), 300)
    d = uc_distances(target, *triples)
    delta = linear_modulus_bound(target)
    for p in (1.5, 2.0, 3.0):
        r = uc_radii(p, target, *triples)
        whole = uc_witness_of_distances(p, delta, UC_MODEL.weights, d, r)
        least = uc_witness_of_distances(p, delta, UC_MODEL.weights, d)
        for name, value in vars(whole).items():
            assert np.array_equal(getattr(least, name), value), name


@pytest.mark.parametrize("name", ["star-tree", "random-tree5", "random-tree9"])
def test_tree_midpoint_identity_matches_map_midpoint(name):
    # d(z, mid(x, y)) = max(d(x, z), d(y, z)) - d(x, y)/2 in an R-tree, against
    # the midpoint map built point by point
    target = UC_TARGETS[name]
    rng = np.random.default_rng(5)
    triples = uc_triples(target, rng, 200)
    r = uc_radii(2.0, target, *triples)
    rep = uc_witness_of_distances(2.0, hilbert_modulus, UC_MODEL.weights, uc_distances(target, *triples), r)
    for k in range(200):
        psi, phi1, phi2 = (scalar_map(target, b, k) for b in triples)
        assert rep.rho_mid[k] == pytest.approx(map_distance(2.0, map_midpoint(phi1, phi2), psi), rel=1e-12, abs=1e-14)


def test_uc_witness_batch_precondition():
    psi = np.zeros((2, 2, 1))
    phi = np.full((2, 2, 1), 5.0)
    with pytest.raises(DomainError):
        uc_witness_of_distances(2.0, hilbert_modulus, (0.5, 0.5), uc_distances(E1, psi, phi, phi), np.ones(2))
    with pytest.raises(DomainError):
        uc_witness_of_distances(2.0, hilbert_modulus, (0.5, 0.5), uc_distances(E1, psi, phi, phi), np.zeros(2))


@pytest.mark.parametrize("target", [E1, LpVector(3, 3.0), STAR], ids=["line", "lp(3,3)", "star-tree"])
def test_uc_witness_batch_counts_violations_of_an_inflated_modulus(target):
    # The certified rate is conservative: even 100 x hilbert_modulus leaves
    # these triples unviolated, 1000 x (capped at 1) violates some of them.
    def inflated(eps):
        return min(1.0, 1e3 * hilbert_modulus(eps))

    rng = np.random.default_rng(3)
    triples = uc_triples(target, rng, 400)
    for p in (1.5, 2.0, 3.0):
        r = uc_radii(p, target, *triples)
        rep = uc_witness_of_distances(p, inflated, UC_MODEL.weights, uc_distances(target, *triples), r)
        scalar = [
            uc_witness_check(p, inflated, *(scalar_map(target, b, k) for b in triples), float(r[k]))
            for k in range(400)
        ]
        assert np.count_nonzero(~rep.ok) == sum(not s.ok for s in scalar) > 0
        # the large modulus also leaves the small-modulus regime
        off = [not s.small_modulus_regime for s in scalar]
        assert (~rep.small_modulus_regime).tolist() == off and any(off)


# ---------------------------------------------------------------------------
# Mazur map
# ---------------------------------------------------------------------------


def test_mazur_fixed_point():
    f = ScalarField(M2, (1.0, 1.0), 2.0)
    assert mazur_map(f, 2.0, 4.0).values == (1.0, 1.0)


def test_mazur_negative_value():
    m1 = MeasureModel(("a",), (1.0,))
    f = ScalarField(m1, (-4.0,), 2.0)
    out = mazur_map(f, 2.0, 1.5)
    assert out.values[0] == pytest.approx(-(4.0 ** (2.0 / 1.5)), abs=1e-12)
    assert out.p == 1.5


def test_mazur_roundtrip(rng):
    for _ in range(200):
        vals = tuple(float(v) for v in rng.normal(0, 1, 2))
        f = ScalarField(M2, vals, 2.0)
        back = mazur_map(mazur_map(f, 2.0, 4.0), 4.0, 2.0)
        assert max(abs(a - b) for a, b in zip(back.values, f.values)) <= 1e-12


def test_mazur_sphere_preservation(rng):
    for p, q in ((2.0, 4.0), (3.0, 1.5)):
        for _ in range(200):
            f = ScalarField(M2, tuple(float(v) for v in rng.normal(0, 1, 2)), p)
            assert scalar_norm(mazur_map(f, p, q)) == pytest.approx(
                scalar_norm(f) ** (p / q), abs=1e-12
            )


def test_mazur_intertwines_permutations(rng):
    m = MeasureModel(tuple("abcd"), (0.25,) * 4)
    for _ in range(100):
        f = ScalarField(m, tuple(float(v) for v in rng.normal(0, 1, 4)), 2.0)
        perm = tuple(int(i) for i in rng.permutation(4))
        left = mazur_map(permute_cells(f, perm), 2.0, 4.0)
        right = permute_cells(mazur_map(f, 2.0, 4.0), perm)
        assert left.values == right.values


def test_mazur_uniform_continuity_fit(rng):
    # |Mf - Mg|_q <= C |f - g|_p^min(1, p/q) on the unit sphere
    for p, q in ((2.0, 4.0), (3.0, 1.5)):
        expo = min(1.0, p / q)
        cfit = 0.0
        for _ in range(2000):
            f = ScalarField(M2, tuple(float(v) for v in rng.normal(0, 1, 2)), p)
            g = ScalarField(M2, tuple(float(v) for v in rng.normal(0, 1, 2)), p)
            nf, ng = scalar_norm(f), scalar_norm(g)
            if nf < 1e-9 or ng < 1e-9:
                continue
            f = ScalarField(M2, tuple(v / nf for v in f.values), p)
            g = ScalarField(M2, tuple(v / ng for v in g.values), p)
            df = scalar_distance(f, g)
            if df < 1e-12:
                continue
            dq = scalar_distance(mazur_map(f, p, q), mazur_map(g, p, q))
            cfit = max(cfit, dq / df ** expo)
        assert math.isfinite(cfit) and 0.0 < cfit < 100.0


def test_mazur_rejects_wrong_exponents():
    f = ScalarField(M2, (1.0, 2.0), 2.0)
    with pytest.raises(DomainError):
        mazur_map(f, 3.0, 2.0)
    with pytest.raises(DomainError):
        mazur_map(f, 2.0, 1.0)


@pytest.mark.parametrize("p, q", [(2.0, 4.0), (3.0, 1.5), (1.5, 2.5)])
def test_mazur_map_batch_matches_mazur_map(p, q, rng):
    values = rng.normal(0.0, 1.0, (300, 4))
    values[::9, 1] = 0.0
    values[::11, 2] = -0.0
    out = mazur_map_batch(values, p, q)
    m = MeasureModel(tuple("abcd"), (0.25,) * 4)
    for row, got in zip(values, out):
        # np.float_power calls the C library's pow, as Python's ** does
        assert got.tolist() == list(mazur_map(ScalarField(m, tuple(map(float, row)), p), p, q).values)


def test_mazur_batch_roundtrip_fails_with_a_perturbed_inverse(rng):
    p, q = 3.0, 1.5
    f = rng.normal(0.0, 1.0, (200, 8))
    f /= np.mean(np.abs(f) ** p, axis=-1, keepdims=True) ** (1.0 / p)
    mf = mazur_map_batch(f, p, q)
    assert np.max(np.abs(mazur_map_batch(mf, q, p) - f)) <= 1e-12
    worst = np.max(np.abs(mazur_map_batch(mf, q, p * (1.0 + 1e-6)) - f))
    assert worst > 1e-12
    m = MeasureModel(tuple(f"w{i}" for i in range(8)), (0.125,) * 8)
    scalar = 0.0
    for row in f:
        mf_row = mazur_map(ScalarField(m, tuple(map(float, row)), p), p, q)
        back = mazur_map(mf_row, q, p * (1.0 + 1e-6)).values
        scalar = max(scalar, max(abs(a - b) for a, b in zip(back, row)))
    assert worst == pytest.approx(scalar, rel=1e-9)


def test_mazur_map_batch_rejects_bad_exponents():
    with pytest.raises(DomainError):
        mazur_map_batch(np.ones(3), 2.0, 1.0)
    with pytest.raises(DomainError):
        mazur_map_batch(np.ones(3), math.inf, 2.0)
