import itertools
import math

import numpy as np
import pytest

from busemann.convexity import (
    AffineSubspace,
    Ball,
    ConvexFunction,
    FiniteGroupAction,
    MidpointHull,
    SublevelSet,
    Subtree,
    circumcenter,
    clifford_check,
    displacement,
    farthest_point_subsample,
    hull_iterate,
    linear_growth_bound,
    member,
    minimize_convex,
    modulus_estimate,
    parallel_check,
    parallel_check_batch,
    project,
)
from busemann.oracles import (
    smallest_enclosing_ball_bruteforce,
    tree_one_center,
    triangle_contains,
)
from busemann.spaces import (
    Euclidean,
    LpVector,
    MetricTree,
    Product,
    geodesic_point,
    identity_isometry,
    midpoint,
    point_reflection,
    rotation_2d,
    star_tree,
    translation,
)

E1 = Euclidean(1)
E2 = Euclidean(2)
STAR = star_tree(3)


# ---------------------------------------------------------------------------
# modulus of convexity
# ---------------------------------------------------------------------------


def hilbert(eps):
    return 1.0 - math.sqrt(1.0 - eps * eps / 4.0)


def test_modulus_euclidean2_matches_circle_oracle():
    # oracle: scan pairs on the unit circle at the active chord constraint
    eps = 1.0
    best_mid = 0.0
    for a in np.linspace(0, 2 * math.pi, 720):
        # chord of length eps on the unit circle starting at angle a
        half = 2.0 * math.asin(eps / 2.0) / 2.0
        m = math.cos(half)
        best_mid = max(best_mid, m)
        break
    oracle = 1.0 - best_mid
    assert oracle == pytest.approx(hilbert(eps), abs=1e-12)
    est = modulus_estimate(E2, (0.0, 0.0), eps, 1.0, budget=10_000, seed=0)
    assert est.value == pytest.approx(hilbert(eps), rel=0.02)
    assert est.pair is not None


def test_modulus_tiny_eps_near_zero():
    est = modulus_estimate(E2, (0.0, 0.0), 1e-6, 1.0, budget=2000, seed=1)
    assert est.value <= 1e-6


def test_modulus_star_tree_matches_exhaustive_oracle():
    # oracle: enumerate pairs (edge_i, t_i), (edge_j, t_j) on a fine grid
    eps, r = 1.0, 1.0
    c = STAR.vertex_point("c")
    grid = []
    for e in range(3):
        for t in np.linspace(1e-6, 1.0, 60):
            grid.append(STAR.point(e, float(t)))
    best = 0.0
    for i, y1 in enumerate(grid):
        for y2 in grid[i:]:
            if STAR.distance(y1, y2) >= eps * r:
                best = max(best, STAR.distance(c, midpoint(STAR, y1, y2)))
    oracle = r - best
    assert oracle == pytest.approx(0.5, abs=0.02)
    est = modulus_estimate(STAR, c, eps, r, budget=10_000, seed=2)
    assert est.value == pytest.approx(0.5, rel=0.02)


def test_modulus_infeasible_marker():
    est = modulus_estimate(E2, (0.0, 0.0), 2.5, 1.0)
    assert not est.feasible and est.value == math.inf


def test_modulus_scale_invariance():
    for space, x in ((E2, (0.0, 0.0)), (star_tree(3, 15.0), star_tree(3, 15.0).vertex_point("c"))):
        vals = [
            modulus_estimate(space, x, 1.0, r, budget=4000, seed=3).value / r
            for r in (0.1, 1.0, 10.0)
        ]
        assert max(vals) - min(vals) <= 0.05 * max(vals)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_project_ball_radial():
    assert project(E2, (2.0, 0.0), Ball((0.0, 0.0), 1.0)) == (1.0, 0.0)
    inside = (0.3, 0.1)
    assert project(E2, inside, Ball((0.0, 0.0), 1.0)) == inside


def test_project_subtree():
    p = project(STAR, STAR.vertex_point("l1"), Subtree({"c", "l2"}))
    assert p == STAR.vertex_point("c")


def test_project_affine():
    p = project(E2, (1.0, 1.0), AffineSubspace((0.0, 0.0), ((1.0, 0.0),)))
    assert p == (1.0, 0.0)


def test_project_sublevel_and_uniqueness():
    f = ConvexFunction(lambda z: math.dist(z, (0.0, 0.0)), "exact")
    cset = SublevelSet(f, 1.0)
    p = project(E2, (3.0, 0.0), cset, tol=1e-7, check_uniqueness=True)
    assert math.dist(p, (1.0, 0.0)) <= 1e-4
    assert member(E2, p, cset, tol=1e-6)


def test_project_empty_sublevel_errors():
    f = ConvexFunction(lambda z: math.dist(z, (0.0, 0.0)) + 5.0, "exact")
    from busemann.spaces import DomainError

    with pytest.raises(DomainError):
        project(E2, (3.0, 0.0), SublevelSet(f, 1.0))


def test_project_optimality_sampled(rng):
    # d(x, p) <= d(x, y) + tol for random members y
    ball = Ball((0.0, 0.0), 2.0)
    x = (5.0, 1.0)
    p = project(E2, x, ball)
    for _ in range(1000):
        y = E2.sample(rng, 3.0)
        d = E2.distance(y, (0.0, 0.0))
        if d > 2.0:
            y = geodesic_point(E2, (0.0, 0.0), y, 2.0 / d)
        assert E2.distance(x, p) <= E2.distance(x, y) + 1e-9
    sub = Subtree({"c", "l2"})
    xq = STAR.point(0, 0.8)
    pq = project(STAR, xq, sub)
    for _ in range(1000):
        t = rng.uniform(0.0, 1.0)
        y = STAR.point(1, float(t)) if rng.uniform() < 0.5 else STAR.vertex_point("c")
        assert STAR.distance(xq, pq) <= STAR.distance(xq, y) + 1e-9


def test_project_hull_membership():
    gens = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
    cset = MidpointHull(tuple(gens), depth=6)
    p = project(E2, (3.0, 3.0), cset, tol=1e-5)
    assert triangle_contains(gens, p, tol=1e-6)
    assert math.dist(p, (1.0, 1.0)) <= 1e-2  # true projection onto the hypotenuse


# ---------------------------------------------------------------------------
# circumcenters
# ---------------------------------------------------------------------------


def test_circumcenter_pair_midpoint():
    c, r = circumcenter(E1, [(-1.0,), (1.0,)])
    assert c == (0.0,) and r == pytest.approx(1.0, abs=1e-9)


def test_circumcenter_single_point():
    c, r = circumcenter(E2, [(1.0, 2.0)])
    assert c == (1.0, 2.0) and r == 0.0


def test_circumcenter_triangle_vs_oracle():
    pts = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)]
    c_o, r_o = smallest_enclosing_ball_bruteforce(pts)
    assert c_o == pytest.approx((1.0, 0.0)) and r_o == pytest.approx(1.0)
    c, r = circumcenter(E2, pts, tol=1e-9)
    assert math.dist(c, (1.0, 0.0)) <= 1e-6 and r == pytest.approx(1.0, abs=1e-8)


def test_circumcenter_star_tree_vs_oracle():
    pts = [STAR.vertex_point(f"l{i}") for i in (1, 2, 3)]
    c_o, r_o = tree_one_center(STAR, pts)
    assert r_o == pytest.approx(1.0, abs=1e-12)
    c, r = circumcenter(STAR, pts, tol=1e-9)
    assert STAR.distance(c, STAR.vertex_point("c")) <= 1e-6
    assert r == pytest.approx(1.0, abs=1e-8)


def test_relative_circumcenter_stays_in_hull():
    pts = [(0.0, 0.0), (1.0, 0.0)]
    c, r = circumcenter(E2, pts, relative=True, tol=1e-8, depth=5)
    assert abs(c[1]) <= 1e-9 and 0.0 <= c[0] <= 1.0
    assert r == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# iterated midpoint hulls
# ---------------------------------------------------------------------------


def test_hull_dyadic_line():
    cloud = hull_iterate(E1, [(0.0,), (1.0,)], 2)
    assert sorted(x[0] for x in cloud) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_hull_n0_identity():
    pts = [STAR.vertex_point("l1"), STAR.vertex_point("l2")]
    assert hull_iterate(STAR, pts, 0) == pts


def test_hull_monotone_before_thinning():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    prev = hull_iterate(E2, pts, 3, cap=10_000)
    nxt = hull_iterate(E2, pts, 4, cap=10_000)
    assert nxt[: len(prev)] == prev


def test_hull_triangle_hausdorff():
    tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    diam = math.sqrt(2.0)
    bound = diam / 64.0
    cloud = hull_iterate(E2, tri, 6, cap=2500)
    # direction 1: the cloud lies inside the filled triangle
    for q in cloud:
        assert triangle_contains(tri, q, tol=1e-9)
    # direction 2: a dense sample of the triangle is covered within the bound
    arr = np.asarray(cloud)
    for a in np.linspace(0, 1, 40):
        for b in np.linspace(0, 1 - a, max(2, int(40 * (1 - a)) + 1)):
            q = np.array([a, b])
            assert np.min(np.linalg.norm(arr - q, axis=1)) <= bound


def test_farthest_point_subsample_deterministic():
    pts = [(float(i), 0.0) for i in range(10)]
    s1 = farthest_point_subsample(E2, pts, 4)
    s2 = farthest_point_subsample(E2, pts, 4)
    assert s1 == s2 and s1[0] == (0.0, 0.0)


# ---------------------------------------------------------------------------
# convex minimization and growth bounds
# ---------------------------------------------------------------------------


def test_sampled_convexity_certificate(rng):
    from busemann.convexity import sampled_convexity_defect

    f = ConvexFunction(lambda z: math.dist(z, (1.0, 2.0)) ** 2, "sampled")
    assert sampled_convexity_defect(E2, f, rng) <= 1e-9
    g = ConvexFunction(lambda z: STAR.distance(z, STAR.vertex_point("l1")), "sampled")
    assert sampled_convexity_defect(STAR, g, rng) <= 1e-9
    bad = ConvexFunction(lambda z: -math.dist(z, (0.0, 0.0)) ** 2, "sampled")
    assert sampled_convexity_defect(E2, bad, rng) > 1e-3


def test_membership_closed_under_midpoints(rng):
    ball = Ball((0.0, 0.0), 1.5)
    sub = Subtree({"c", "l1", "l3"})
    for _ in range(200):
        x, y = E2.sample(rng), E2.sample(rng)
        x = project(E2, x, ball)
        y = project(E2, y, ball)
        assert member(E2, midpoint(E2, x, y), ball)
    for _ in range(200):
        x = project(STAR, STAR.sample(rng), sub)
        y = project(STAR, STAR.sample(rng), sub)
        assert member(STAR, midpoint(STAR, x, y), sub)


def test_zero_radius_ball_valid():
    b = Ball((1.0, 1.0), 0.0)
    assert project(E2, (5.0, 5.0), b) == (1.0, 1.0)
    assert member(E2, (1.0, 1.0), b)


def test_minimize_convex_absolute_value():
    f = ConvexFunction(lambda z: abs(z[0] - 3.0), "exact")
    x = minimize_convex(E1, f, (0.0,), tol=1e-8, radius0=8.0)
    assert abs(x[0] - 3.0) <= 1e-6


def test_minimize_convex_tree_vs_grid_oracle():
    l1, l2 = STAR.vertex_point("l1"), STAR.vertex_point("l2")
    f = ConvexFunction(
        lambda z: STAR.distance(z, l1) ** 2 + STAR.distance(z, l2) ** 2
    )
    x = minimize_convex(STAR, f, STAR.vertex_point("l3"), tol=1e-8)
    # dense grid over all edges
    best = min(
        f(STAR.point(e, float(t)))
        for e in range(3)
        for t in np.linspace(1e-9, 1.0, 500)
    )
    assert f(x) <= best + 1e-6
    assert STAR.distance(x, STAR.vertex_point("c")) <= 1e-4


def test_minimize_convex_minimax_vs_grid_oracle():
    f = ConvexFunction(lambda z: max(z[0] + z[1], -z[0]), "exact")
    x = minimize_convex(E2, f, (2.0, 2.0), tol=1e-8, radius0=4.0)
    xs = np.linspace(-3, 3, 301)
    grid_best = min(max(a + b, -a) for a in xs for b in xs)
    assert f(x) <= grid_best + 1e-4


def test_minimize_convex_divergence_error():
    from busemann.spaces import SolverError

    f = ConvexFunction(lambda z: -z[0], "sampled")  # not coercive
    with pytest.raises(SolverError):
        minimize_convex(E1, f, (0.0,), tol=1e-8, radius0=10.0, escape_radius=100.0)


def test_linear_growth_bound_absolute_value():
    f = ConvexFunction(lambda z: abs(z[0]), "exact")
    gb = linear_growth_bound(E1, f, (0.0,), sample_radius=10.0, budget=512)
    assert gb.b >= 0.9
    assert gb.margin >= -1e-12


def test_linear_growth_adding_constant_helps():
    f = ConvexFunction(lambda z: abs(z[0]), "exact")
    g = ConvexFunction(lambda z: abs(z[0]) + 5.0, "exact")
    bf = linear_growth_bound(E1, f, (0.0,), 10.0, budget=512).b
    bg = linear_growth_bound(E1, g, (0.0,), 10.0, budget=512).b
    assert bg >= bf


def test_linear_growth_quadratic():
    # x^2 >= b x - 1/b for all x iff b^3 <= 4; sampling can only loosen this
    f = ConvexFunction(lambda z: z[0] ** 2, "exact")
    gb = linear_growth_bound(E1, f, (0.0,), 10.0, budget=2048, seed=5)
    assert gb.b == pytest.approx(4.0 ** (1.0 / 3.0), rel=0.1)


def test_linear_growth_negative_errors():
    from busemann.spaces import SolverError

    # so negative that even the smallest grid b fails the -1/b rescue
    f = ConvexFunction(lambda z: -1.0e12, "sampled")
    with pytest.raises(SolverError):
        linear_growth_bound(E1, f, (0.0,), 10.0, budget=64)


# ---------------------------------------------------------------------------
# exact results of the derivative-free searches
# ---------------------------------------------------------------------------


def search_results():
    l1, l2 = STAR.vertex_point("l1"), STAR.vertex_point("l2")
    disk = SublevelSet(ConvexFunction(lambda z: math.dist(z, (0.0, 0.0))), 1.0)
    triangle = MidpointHull(((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)), depth=6)
    out = {
        "minimize E1": minimize_convex(E1, ConvexFunction(lambda z: abs(z[0] - 3.0)), (0.0,), tol=1e-8, radius0=8.0),
        "minimize E2": minimize_convex(
            E2, ConvexFunction(lambda z: max(z[0] + z[1], -z[0])), (2.0, 2.0), tol=1e-8, radius0=4.0
        ),
        "minimize star": minimize_convex(
            STAR,
            ConvexFunction(lambda z: STAR.distance(z, l1) ** 2 + STAR.distance(z, l2) ** 2),
            STAR.vertex_point("l3"),
            tol=1e-8,
        ),
        "project hull": project(E2, (2.9, 1.7), triangle, tol=1e-5, check_uniqueness=True),
        "project sublevel": project(E2, (3.0, 0.0), disk, tol=1e-7, check_uniqueness=True),
        "circumcenter": circumcenter(E2, [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)], tol=1e-9),
        "relative circumcenter": circumcenter(
            E2, [(0.0, 0.0), (2.0, 0.5), (0.5, 1.5)], relative=True, tol=1e-8, depth=4
        ),
        "tree circumcenter": circumcenter(STAR, [STAR.point(0, 0.3), l2, STAR.point(2, 0.8)], tol=1e-9),
        "growth": linear_growth_bound(E1, ConvexFunction(lambda z: z[0] ** 2), (0.0,), 10.0, budget=2048, seed=5),
        "growth at the cap": linear_growth_bound(
            E1, ConvexFunction(lambda z: abs(z[0]) + 1e12), (0.0,), 10.0, budget=64
        ),
    }
    from busemann.spaces import SolverError

    with pytest.raises(SolverError) as fail:
        linear_growth_bound(E1, ConvexFunction(lambda z: -1.0e12), (0.0,), 10.0, budget=64)
    out["growth failure best"] = fail.value.best
    with pytest.raises(SolverError) as escape:
        minimize_convex(E1, ConvexFunction(lambda z: -z[0]), (0.0,), tol=1e-8, radius0=10.0, escape_radius=100.0)
    out["escape best"] = escape.value.best
    return {name: repr(value) for name, value in out.items()}


def test_search_results_are_pinned():
    # the exact values (candidate order, rng draws, strict acceptance): the
    # tests above check the same searches only to a tolerance
    assert search_results() == {
        "minimize E1": "(2.9999999999484253,)",
        "minimize E2": "(21.09802334105078, -42.19604668098702)",
        "minimize star": "TreePoint(edge=1, offset=4.742398991806242e-09, vertex=None)",
        "project hull": "(1.6000002422845485, 0.3999997577154514)",
        "project sublevel": "(1.0, -1.808863510769246e-09)",
        "circumcenter": "((1.0, 0.0), 1.0)",
        "relative circumcenter": "((0.9318181818266654, 0.522727272716348), 1.0684235703355267)",
        "tree circumcenter": "(TreePoint(edge=1, offset=0.09999999999999998, vertex=None), 0.9)",
        "growth": "GrowthBound(b=1.5874104795356634, witness=(0.797055463175671,), margin=-9.999778782798785e-13)",
        "growth at the cap": "GrowthBound(b=1000000.0, witness=(-23.250307746388344,), margin=999976749715.504)",
        "growth failure best": "-999000000000.0",
        "escape best": "(106.09951885345859,)",
    }


# ---------------------------------------------------------------------------
# displacement, parallelism, Clifford isometries
# ---------------------------------------------------------------------------


def test_displacement_examples():
    ident = identity_isometry(E1)
    t1 = translation(E1, (1.0,))
    r0 = point_reflection(E1, (0.0,))
    assert displacement(FiniteGroupAction(E1, (ident, t1)), (0.0,)) == 1.0
    assert displacement(FiniteGroupAction(E1, (ident, r0)), (3.0,)) == 6.0
    assert displacement(FiniteGroupAction(E1, (ident, r0, t1)), (-5.0,)) == 10.0


def test_action_adds_identity_with_warning():
    t1 = translation(E1, (1.0,))
    with pytest.warns(UserWarning):
        act = FiniteGroupAction(E1, (t1,))
    assert len(act.generators) == 2


def test_displacement_convex_along_geodesics(rng):
    ident = identity_isometry(E1)
    act = FiniteGroupAction(
        E1, (ident, translation(E1, (1.0,)), point_reflection(E1, (0.5,)))
    )
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for _ in range(200):
        x, y = E1.sample(rng, 4.0), E1.sample(rng, 4.0)
        vals = [displacement(act, geodesic_point(E1, x, y, t)) for t in grid]
        for i in range(1, len(grid) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9 * (1 + max(vals))


def test_parallel_examples():
    assert parallel_check(E2, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    assert not parallel_check(E2, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 2.0))
    assert parallel_check(E2, (0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0))


def test_parallelogram_lemma_sampled(rng):
    spaces = [E2, LpVector(2, 3.0), STAR, Product((E1, STAR), 2.0)]
    from busemann.verify import _quadruple

    for space in spaces:
        for _ in range(800):
            a, b, x, y = _quadruple(space, rng)
            assert parallel_check(space, a, b, x, y) == parallel_check(
                space, a, x, b, y
            )


def _unpack(space, batch, k):
    """Row k of a point batch as a scalar point."""
    if isinstance(space, Product):
        return tuple(_unpack(f, part, k) for f, part in zip(space.factors, batch))
    if isinstance(space, MetricTree):
        return space.point(int(batch[0][k]), float(batch[1][k]))
    return tuple(map(float, batch[k]))


def test_parallel_check_batch_matches_parallel_check(rng):
    from busemann.verify import _quadruple, _space_roster

    for _, space in _space_roster():
        quads = [_quadruple(space, rng) for _ in range(300)]
        a, b, x, y = (space.pack(points) for points in zip(*quads))
        got = parallel_check_batch(space, a, b, x, y)
        swapped = parallel_check_batch(space, a, x, b, y)
        assert got.any() and not got.all()
        for k, (p, q, r, s) in enumerate(quads):
            assert bool(got[k]) == parallel_check(space, p, q, r, s)
            assert bool(swapped[k]) == parallel_check(space, p, r, q, s)
    # the scale-zero rule: four equal points are parallel
    z = np.zeros((2, 2))
    assert parallel_check_batch(E2, z, z, z, z).all()


def test_quadruple_block_replays_quadruple():
    from busemann.verify import _quadruple, _quadruple_block, _space_roster

    for name, space in _space_roster():
        batched, scalar = np.random.default_rng(8), np.random.default_rng(8)
        quads = [_quadruple(space, scalar) for _ in range(300)]
        rows = []
        for size in (130, 170):  # a block boundary inside the stream
            block = _quadruple_block(space, size, batched)
            rows += [tuple(_unpack(space, part, k) for part in block) for k in range(size)]
        for quad, row in zip(quads, rows):
            for want, got in zip(quad, row):
                assert space.distance(want, got) <= 1e-12, name
        if isinstance(space, (Euclidean, LpVector)):
            assert rows == quads  # vector geodesics are the scalar arithmetic
        assert batched.random() == scalar.random(), name


class ScriptedRng:
    """Stands in for a Generator: every draw is the next fraction of a
    script, scaled to the requested range, and every call is logged."""

    def __init__(self, fractions, normals):
        self.fractions = itertools.cycle(fractions)
        self.normals = itertools.cycle(normals)
        self.log = []

    def uniform(self, low=0.0, high=1.0):
        self.log.append(("uniform", low, high))
        return low + next(self.fractions) * (high - low)

    def random(self):
        self.log.append(("random",))
        return next(self.fractions)

    def normal(self, loc, scale, size):
        self.log.append(("normal", loc, scale, size))
        return np.full(size, loc + scale * next(self.normals))


@pytest.mark.parametrize(
    "fractions, normals",
    [
        ((0.7,), (0.4,)),  # every sample equal: the z1 = z2 resample, always
        ((0.9, 0.3, 0.6, 0.2, 0.8, 0.35, 0.65), (0.5, 0.5, -1.0, 0.25, 0.25, 1.5)),
    ],
)
def test_quadruple_block_resample_branch(fractions, normals):
    from busemann.verify import _quadruple, _quadruple_block, _space_roster

    for name, space in _space_roster():
        scalar, batched = ScriptedRng(fractions, normals), ScriptedRng(fractions, normals)
        quads = [_quadruple(space, scalar) for _ in range(40)]
        block = _quadruple_block(space, 40, batched)
        assert batched.log == scalar.log, name
        for k, quad in enumerate(quads):
            for want, part in zip(quad, block):
                assert space.distance(want, _unpack(space, part, k)) <= 1e-12, name
        if len(fractions) == 1:
            assert ("uniform", 0.05, 0.4) not in scalar.log  # no segment drawn


def test_clifford_translation():
    rep = clifford_check(E1, translation(E1, (2.0,)))
    assert rep.is_clifford and rep.displacement == pytest.approx(2.0, abs=1e-12)
    assert rep.halfway_is_clifford
    assert rep.halfway_displacement == pytest.approx(1.0, abs=1e-9)


def test_clifford_rejects_reflection_and_rotation():
    assert not clifford_check(E1, point_reflection(E1, (0.0,))).is_clifford
    assert not clifford_check(E2, rotation_2d(math.pi / 2)).is_clifford


def test_clifford_composition_commutes(rng):
    s = translation(E2, (1.0, 2.0))
    t = translation(E2, (-0.5, 0.25))
    both = s.compose(t)
    rep = clifford_check(E2, both)
    assert rep.is_clifford
    assert rep.displacement <= clifford_check(E2, s).displacement + clifford_check(E2, t).displacement + 1e-9
    other = t.compose(s)
    for _ in range(50):
        x = E2.sample(rng, 5.0)
        assert E2.distance(both.apply(x), other.apply(x)) <= 1e-9
