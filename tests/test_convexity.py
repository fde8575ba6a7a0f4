import itertools
import math

import numpy as np
import pytest

from busemann.convexity import (
    circumcenter,
    clifford_check,
    minimize_convex,
    modulus_estimate,
    parallel_check,
    parallel_check_batch,
)
from busemann.oracles import (
    smallest_enclosing_ball_bruteforce,
    tree_one_center,
)
from busemann.spaces import (
    Euclidean,
    LpVector,
    MetricTree,
    Product,
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


# ---------------------------------------------------------------------------
# convex minimization
# ---------------------------------------------------------------------------


def test_minimize_convex_absolute_value():
    f = lambda z: abs(z[0] - 3.0)
    x = minimize_convex(E1, f, (0.0,), tol=1e-8, radius0=8.0)
    assert abs(x[0] - 3.0) <= 1e-6


def test_minimize_convex_tree_vs_grid_oracle():
    l1, l2 = STAR.vertex_point("l1"), STAR.vertex_point("l2")
    f = lambda z: STAR.distance(z, l1) ** 2 + STAR.distance(z, l2) ** 2
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
    f = lambda z: max(z[0] + z[1], -z[0])
    x = minimize_convex(E2, f, (2.0, 2.0), tol=1e-8, radius0=4.0)
    xs = np.linspace(-3, 3, 301)
    grid_best = min(max(a + b, -a) for a in xs for b in xs)
    assert f(x) <= grid_best + 1e-4


def test_minimize_convex_divergence_error():
    from busemann.spaces import SolverError

    f = lambda z: -z[0]  # not coercive
    with pytest.raises(SolverError):
        minimize_convex(E1, f, (0.0,), tol=1e-8, radius0=10.0, escape_radius=100.0)


# ---------------------------------------------------------------------------
# exact results of the derivative-free searches
# ---------------------------------------------------------------------------


def search_results():
    l1, l2 = STAR.vertex_point("l1"), STAR.vertex_point("l2")
    out = {
        "minimize E1": minimize_convex(E1, lambda z: abs(z[0] - 3.0), (0.0,), tol=1e-8, radius0=8.0),
        "minimize E2": minimize_convex(
            E2, lambda z: max(z[0] + z[1], -z[0]), (2.0, 2.0), tol=1e-8, radius0=4.0
        ),
        "minimize star": minimize_convex(
            STAR,
            lambda z: STAR.distance(z, l1) ** 2 + STAR.distance(z, l2) ** 2,
            STAR.vertex_point("l3"),
            tol=1e-8,
        ),
        "circumcenter": circumcenter(E2, [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)], tol=1e-9),
        "tree circumcenter": circumcenter(STAR, [STAR.point(0, 0.3), l2, STAR.point(2, 0.8)], tol=1e-9),
    }
    from busemann.spaces import SolverError

    with pytest.raises(SolverError) as escape:
        minimize_convex(E1, lambda z: -z[0], (0.0,), tol=1e-8, radius0=10.0, escape_radius=100.0)
    out["escape best"] = escape.value.best
    return {name: repr(value) for name, value in out.items()}


def test_search_results_are_pinned():
    # the exact values (candidate order, rng draws, strict acceptance): the
    # tests above check the same searches only to a tolerance
    assert search_results() == {
        "minimize E1": "(2.9999999999484253,)",
        "minimize E2": "(21.09802334105078, -42.19604668098702)",
        "minimize star": "TreePoint(edge=1, offset=4.742398991806242e-09, vertex=None)",
        "circumcenter": "((1.0, 0.0), 1.0)",
        "tree circumcenter": "(TreePoint(edge=1, offset=0.09999999999999998, vertex=None), 0.9)",
        "escape best": "(106.09951885345859,)",
    }


# ---------------------------------------------------------------------------
# displacement, parallelism, Clifford isometries
# ---------------------------------------------------------------------------


def displacement(space, isometries, x) -> float:
    """The displacement function max_g d(g x, x) of a finite set of isometries."""
    return max(space.distance(g.apply(x), x) for g in isometries)


def test_displacement_examples():
    ident = identity_isometry(E1)
    t1 = translation(E1, (1.0,))
    r0 = point_reflection(E1, (0.0,))
    assert displacement(E1, (ident, t1), (0.0,)) == 1.0
    assert displacement(E1, (ident, r0), (3.0,)) == 6.0
    assert displacement(E1, (ident, r0, t1), (-5.0,)) == 10.0


def test_displacement_convex_along_geodesics(rng):
    ident = identity_isometry(E1)
    gens = (ident, translation(E1, (1.0,)), point_reflection(E1, (0.5,)))
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for _ in range(200):
        x, y = E1.sample(rng, 4.0), E1.sample(rng, 4.0)
        vals = [displacement(E1, gens, E1.geodesic(x, y, t)) for t in grid]
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
    from busemann.verify import _quadruple, _quadruple_blocks, _space_roster

    for name, space in _space_roster():
        batched, scalar = np.random.default_rng(8), np.random.default_rng(8)
        quads = [_quadruple(space, scalar) for _ in range(300)]
        rows = []
        for size in (130, 170):  # a block boundary inside the stream
            (block,) = _quadruple_blocks([space], size, batched)
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
    from busemann.verify import _quadruple, _quadruple_blocks, _space_roster

    for name, space in _space_roster():
        scalar, batched = ScriptedRng(fractions, normals), ScriptedRng(fractions, normals)
        quads = [_quadruple(space, scalar) for _ in range(40)]
        (block,) = _quadruple_blocks([space], 40, batched)
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
