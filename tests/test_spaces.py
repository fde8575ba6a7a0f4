import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from busemann.harmonic import Edge, EquivariantProblem, IdentityConventionWarning
from busemann.mapspace import MeasureModel
from busemann.oracles import tree_distance_graph_oracle
from busemann.spaces import (
    DomainError,
    Euclidean,
    EuclideanIsometry,
    GeometryError,
    LpVector,
    MetricTree,
    Product,
    ProductIsometry,
    SignedPermIsometry,
    SpaceMismatchError,
    TreeIsometry,
    TreePoint,
    ValidationError,
    identity_isometry,
    isometry_of,
    midpoint,
    point_reflection,
    random_orthogonal,
    random_tree,
    rotation_2d,
    star_tree,
    translation,
)

E1 = Euclidean(1)
E2 = Euclidean(2)
STAR = star_tree(3)


def isometry_defect(space, T, rng, samples=32):
    """Largest |d(Tx, Ty) - d(x, y)| over sampled pairs (0 for exact
    isometries): the sampled reference for :func:`isometry_of`."""
    worst = 0.0
    for _ in range(samples):
        x = space.sample(rng)
        y = space.sample(rng)
        worst = max(worst, abs(space.distance(T.apply(x), T.apply(y)) - space.distance(x, y)))
    return worst


def coords(dim, bound=8.0):
    return st.tuples(
        *([st.floats(-bound, bound, allow_nan=False, allow_infinity=False)] * dim)
    )


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_euclidean_pythagoras():
    assert E2.distance((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_distance_lp_norm():
    lp = LpVector(2, 3.0)
    assert lp.distance((0.0, 0.0), (1.0, 1.0)) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-15)


def test_distance_star_tree_leaf_to_leaf():
    l1, l2 = STAR.vertex_point("l1"), STAR.vertex_point("l2")
    d = STAR.distance(l1, l2)
    assert d == 2.0
    assert d == tree_distance_graph_oracle(STAR, l1, l2)


def test_distance_mismatch_raises():
    with pytest.raises(SpaceMismatchError):
        E2.distance((0.0, 0.0), (1.0, 2.0, 3.0))
    with pytest.raises(SpaceMismatchError):
        E2.distance((0.0, 0.0), STAR.vertex_point("c"))


VECTOR_SPACES = [E2, LpVector(2, 3.0)]


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=["euclidean", "lp"])
def test_validate_point_rejects_non_real_coordinate(space):
    # only the first coordinate used to be type-checked
    with pytest.raises(SpaceMismatchError):
        space.validate_point((1.0, "x"))
    with pytest.raises(SpaceMismatchError):
        space.validate_point((float("inf"), "x"))


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=["euclidean", "lp"])
def test_validate_point_rejects_infinite_coordinate(space):
    with pytest.raises(SpaceMismatchError):
        space.validate_point((float("inf"), 0.0))
    with pytest.raises(SpaceMismatchError):
        Product((E1, space)).validate_point(((0.0,), (float("-inf"), 0.0)))


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=["euclidean", "lp"])
def test_validate_point_rejects_nan_coordinate(space):
    with pytest.raises(SpaceMismatchError):
        space.validate_point((float("nan"), 1.0))


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=["euclidean", "lp"])
def test_operations_carry_non_finite_points(space):
    # a diverged solver iterate can still be measured and reported
    space.validate_point((1, 2.5))
    space.check_point((float("nan"), 1.0))
    with pytest.raises(SpaceMismatchError):
        space.check_point((0.0,))
    assert math.isnan(space.distance((float("nan"), 1.0), (0.0, 0.0)))


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def test_geodesic_euclidean_midpoint():
    assert E1.geodesic((0.0,), (4.0,), 0.5) == (2.0,)


def test_geodesic_star_tree_midpoint_is_center():
    l1, l2 = STAR.vertex_point("l1"), STAR.vertex_point("l2")
    assert STAR.geodesic(l1, l2, 0.5) == STAR.vertex_point("c")


def test_geodesic_product_factorwise():
    pr = Product((E1, E1), 2.0)
    z = pr.geodesic(((0.0,), (0.0,)), ((2.0,), (4.0,)), 0.25)
    assert z == ((0.5,), (1.0,))


def test_geodesic_param_out_of_range():
    with pytest.raises(DomainError):
        E1.geodesic((0.0,), (1.0,), 1.5)


@given(coords(2), coords(2), st.floats(0, 1), st.floats(0, 1))
def test_geodesic_consistency_euclidean(x, y, t1, t2):
    t1, t2 = min(t1, t2), max(t1, t2)
    d = E2.distance(x, y)
    z1 = E2.geodesic(x, y, t1)
    z2 = E2.geodesic(x, y, t2)
    assert E2.distance(z1, z2) == pytest.approx((t2 - t1) * d, abs=1e-9 * (1 + d))


def test_geodesic_consistency_sampled_all_spaces(rng):
    spaces = [
        E2,
        LpVector(3, 1.5),
        STAR,
        Product((E1, STAR), 2.0),
        Product((E1, E1), 3.0),
    ]
    for space in spaces:
        for _ in range(200):
            x, y = space.sample(rng), space.sample(rng)
            d = space.distance(x, y)
            t1, t2 = sorted(rng.uniform(0, 1, 2))
            z1 = space.geodesic(x, y, float(t1))
            z2 = space.geodesic(x, y, float(t2))
            assert space.distance(z1, z2) == pytest.approx(
                (t2 - t1) * d, abs=1e-9 * (1 + d)
            )


def test_random_tree_metric_and_geodesics_vs_graph_oracle(rng):
    for _ in range(30):
        tree = random_tree(int(rng.integers(4, 12)), rng)
        for _ in range(30):
            x, y = tree.sample(rng), tree.sample(rng)
            d = tree.distance(x, y)
            assert d == pytest.approx(tree_distance_graph_oracle(tree, x, y), abs=1e-12)
            t = float(rng.uniform(0, 1))
            z = tree.geodesic(x, y, t)
            assert tree.distance(x, z) == pytest.approx(t * d, abs=1e-12 * (1 + d))
            assert tree.distance(z, y) == pytest.approx((1 - t) * d, abs=1e-12 * (1 + d))


def test_busemann_convexity_sampled(rng):
    # distance between two geodesics is convex on the sample grid
    spaces = [E2, LpVector(2, 3.0), STAR, Product((E1, STAR), 2.0)]
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for space in spaces:
        for _ in range(150):
            x, y, u, v = (space.sample(rng) for _ in range(4))
            vals = [
                space.distance(space.geodesic(x, y, t), space.geodesic(u, v, t))
                for t in grid
            ]
            scale = 1.0 + max(vals)
            for i in range(1, len(grid) - 1):
                assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9 * scale


def test_strict_convexity_sampled(rng):
    spaces = [E2, LpVector(2, 3.0), LpVector(3, 1.5), STAR, Product((E1, E1), 3.0)]
    for space in spaces:
        for _ in range(150):
            x = space.sample(rng)
            y1 = space.sample(rng)
            y2 = space.sample(rng)
            if space.distance(y1, y2) < 0.5:
                continue
            m = midpoint(space, y1, y2)
            dmax = max(space.distance(x, y1), space.distance(x, y2))
            if dmax == 0.0:
                continue
            assert space.distance(x, m) < dmax
            if space.distance(x, y1) <= 3.0 and space.distance(x, y2) <= 3.0:
                assert space.distance(x, m) <= dmax - 1e-6 * dmax


def test_product_metric_exact_cases():
    pr = Product((E1, E1), 2.0)
    assert pr.distance(((0.0,), (0.0,)), ((3.0,), (4.0,))) == 5.0
    pr3 = Product((E1, E1), 3.0)
    assert pr3.distance(((0.0,), (0.0,)), ((1.0,), (1.0,))) == pytest.approx(
        2.0 ** (1.0 / 3.0), abs=1e-15
    )
    prt = Product((E1, STAR), 2.0)
    a = ((0.0,), STAR.vertex_point("l1"))
    b = ((3.0,), STAR.vertex_point("l2"))
    assert prt.distance(a, b) ** 2 == pytest.approx(9.0 + 4.0, abs=1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        ((0.0,),),  # too few parts
        ((0.0,), STAR.vertex_point("c"), (1.0,)),  # too many
        [(0.0,), STAR.vertex_point("c")],  # not a tuple
        ((0.0, 1.0), STAR.vertex_point("c")),  # a Euclidean part of the wrong length
        (("x",), STAR.vertex_point("c")),  # a coordinate that is not a number
        ((0.0,), (0.0,)),  # a tree part that is not a tree point
        ((0.0,), TreePoint(None, 0.0, "nowhere")),  # an unknown vertex
    ],
)
def test_product_distance_rejects_bad_points(bad):
    # the product checks its arity; each factor's distance checks its part
    prt = Product((E1, STAR), 2.0)
    good = ((0.0,), STAR.vertex_point("l1"))
    for x, y in ((bad, good), (good, bad)):
        with pytest.raises(SpaceMismatchError):
            prt.distance(x, y)


# ---------------------------------------------------------------------------
# tree point representation
# ---------------------------------------------------------------------------
# distance over arrays of points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", [E1, Euclidean(3), LpVector(3, 1.5), LpVector(2, 3.0)], ids=repr)
def test_distance_batch_matches_distance_vector(space, rng):
    x = rng.normal(0.0, 2.0, (200, 3, space.dim))
    y = rng.normal(0.0, 2.0, (200, 3, space.dim))
    y[::10] = x[::10]  # some equal pairs
    d = space.distance_batch(x, y)
    assert d.shape == (200, 3)
    for k in range(200):
        for i in range(3):
            ref = space.distance(tuple(map(float, x[k, i])), tuple(map(float, y[k, i])))
            assert d[k, i] == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "space, x, y",
    [
        (LpVector(2, 3.0), (1.5e308, 1.5e308), (0.0, 0.0)),
        (Product((E1, E1), 3.0), ((1.5e308,), (1.5e308,)), ((0.0,), (0.0,))),
    ],
    ids=["lp", "product"],
)
def test_distance_past_float_range_is_inf_as_in_batches(space, x, y):
    # the distance 2^(1/3) * 1.5e308 passes the float range: distance_batch
    # rounds it to inf, and the scalar distance agrees instead of raising
    with np.errstate(over="ignore"):
        batch = space.distance_batch(space.pack([x]), space.pack([y]))
    assert batch.tolist() == [math.inf]
    assert space.distance(x, y) == math.inf


def test_lp_distance_scales_a_power_sum_outside_the_float_range():
    # |x - y|^3 passes the float range at 1e150 and leaves the normal range
    # at 1e-104 (subnormal) and 1e-110 (0.0); the distance itself is in range
    lp = LpVector(2, 3.0)
    origin = (0.0, 0.0)
    assert lp.distance((1e150, 1e150), origin) == pytest.approx(2.0 ** (1.0 / 3.0) * 1e150, rel=1e-15, abs=0.0)
    assert lp.distance((1e-104, 0.0), origin) == 1e-104
    assert lp.distance((0.0, -1e-110), origin) == 1e-110
    cases = [(1e150, 1e150), (1e-104, 0.0), (0.0, -1e-110), (3.0, -4.0), origin]
    with np.errstate(over="ignore"):
        batch = lp.distance_batch(np.array(cases), np.zeros((len(cases), 2)))
    assert batch.tolist() == [lp.distance(x, origin) for x in cases]


def test_product_distance_scales_a_power_sum_outside_the_float_range():
    # the cubes of the factor distances pass the float range at 1e150 (the
    # pair 2e160 apart read inf) and leave the normal range at 1e-104
    # (subnormal) and 1e-110 (0.0); the distance itself is in range
    pr = Product((E1, E1), 3.0)
    origin = ((0.0,), (0.0,))
    assert pr.distance(((1e160,), (0.0,)), ((-1e160,), (0.0,))) == 2e160
    assert pr.distance(((1e150,), (1e150,)), origin) == pytest.approx(2.0 ** (1.0 / 3.0) * 1e150, rel=1e-15, abs=0.0)
    assert pr.distance(((1e-104,), (0.0,)), origin) == 1e-104
    assert pr.distance(((0.0,), (-1e-110,)), origin) == 1e-110
    cases = [((1e150,), (1e150,)), ((1e-104,), (0.0,)), ((0.0,), (-1e-110,)), ((3.0,), (-4.0,)), origin]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the scaled rows raise no overflow warning
        batch = pr.distance_batch(pr.pack(cases), pr.pack([origin] * len(cases)))
    assert batch.tolist() == [pr.distance(x, origin) for x in cases]


def test_lp_distance_batch_scales_without_an_overflow_warning():
    # the unscaled power sum of the row overflows, but the scaled row
    # replaces it, so no warning is due
    lp = LpVector(2, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = lp.distance_batch(np.array([(1e150, 1e150)]), np.zeros((1, 2)))
    assert batch.tolist() == [lp.distance((1e150, 1e150), (0.0, 0.0))]


def test_distance_batch_shape_mismatch_raises():
    with pytest.raises(SpaceMismatchError):
        E2.distance_batch(np.zeros((4, 2)), np.zeros((4, 3)))


def _tree_pairs(tree, rng, n):
    """(edge, offset) arrays of n point pairs: vertices given as offsets at,
    or within SNAP_TOL of, an endpoint, and pairs sharing an edge."""
    lengths = np.array([e[2] for e in tree.edges])
    edge = rng.integers(0, len(tree.edges), (2, n))
    frac = rng.uniform(0.0, 1.0, (2, n))
    frac[:, ::4] = rng.choice([0.0, 1.0, 1e-14, 1.0 - 1e-14], (2, len(frac[0, ::4])))
    edge[1, ::3] = edge[0, ::3]
    return edge, frac * lengths[edge]


TREES = {"star": STAR, **{f"random{n}": random_tree(n, np.random.default_rng(n)) for n in (2, 7, 12)}}


@pytest.mark.parametrize("tree", TREES.values(), ids=TREES.keys())
def test_distance_batch_matches_distance_tree(tree, rng):
    edge, offset = _tree_pairs(tree, rng, 300)
    x = tree.point_batch(edge[0], offset[0])
    y = tree.point_batch(edge[1], offset[1])
    d = tree.distance_batch(x, y)
    for k in range(300):
        px = tree.point(int(edge[0, k]), float(offset[0, k]))
        py = tree.point(int(edge[1, k]), float(offset[1, k]))
        assert d[k] == pytest.approx(tree.distance(px, py), rel=1e-12, abs=1e-15)


def test_point_batch_snaps_like_point(rng):
    tree = random_tree(6, rng)
    edge, offset = _tree_pairs(tree, rng, 200)
    e, o = tree.point_batch(edge[0], offset[0])
    for k in range(200):
        ref = tree.point(int(edge[0, k]), float(offset[0, k]))
        u, v, length = tree.edges[e[k]]
        if ref.vertex is None:
            assert (e[k], o[k]) == (ref.edge, ref.offset)
        else:
            assert ref.vertex == (u if o[k] == 0.0 else v) and o[k] in (0.0, length)
    with pytest.raises(DomainError):
        STAR.point_batch(np.array([0, 1]), np.array([0.5, 1.5]))


# ---------------------------------------------------------------------------
# geodesics over arrays of points
# ---------------------------------------------------------------------------


def _params(rng, n):
    """n geodesic parameters: 0, 1/2, 1 and uniform draws."""
    t = rng.uniform(0.0, 1.0, n)
    t[::4], t[1::4], t[2::4] = 0.0, 0.5, 1.0
    return t


@pytest.mark.parametrize("space", [E1, Euclidean(3), LpVector(3, 1.5), LpVector(2, 3.0)], ids=repr)
def test_geodesic_batch_matches_geodesic_vector(space, rng):
    x = rng.normal(0.0, 2.0, (200, space.dim))
    y = rng.normal(0.0, 2.0, (200, space.dim))
    y[::10] = x[::10]
    t = _params(rng, 200)
    g = space.geodesic_batch(x, y, t)
    half = space.geodesic_batch(x, y, 0.5)
    for k in range(200):
        px, py = tuple(map(float, x[k])), tuple(map(float, y[k]))
        # the scalar arithmetic, so equal bit for bit
        assert tuple(map(float, g[k])) == space.geodesic(px, py, float(t[k]))
        assert tuple(map(float, half[k])) == space.geodesic(px, py, 0.5)


@pytest.mark.parametrize("tree", TREES.values(), ids=TREES.keys())
def test_geodesic_batch_matches_geodesic_tree(tree, rng):
    # vertices (as endpoint offsets, exact or within SNAP_TOL), same-edge
    # pairs and pairs through the tree, at t in {0, 1/2, 1, uniform}
    edge, offset = _tree_pairs(tree, rng, 400)
    x = tree.point_batch(edge[0], offset[0])
    y = tree.point_batch(edge[1], offset[1])
    t = _params(rng, 400)
    e, o = tree.geodesic_batch(x, y, t)
    for k in range(400):
        px = tree.point(int(edge[0, k]), float(offset[0, k]))
        py = tree.point(int(edge[1, k]), float(offset[1, k]))
        ref = tree.geodesic(px, py, float(t[k]))
        assert tree.distance(tree.point(int(e[k]), float(o[k])), ref) <= 1e-12


def test_tree_geodesic_at_vertex_endpoints():
    # t = 0 from a vertex, and t = 1 onto a vertex after the path lengths
    # were subtracted with rounding: both used to index edges[None]
    tree = random_tree(25, np.random.default_rng(25))
    for a in tree.vertices:
        x = tree.vertex_point(a)
        for b in tree.vertices:
            y = tree.vertex_point(b)
            assert tree.geodesic(x, y, 0.0) == x
            assert tree.distance(tree.geodesic(x, y, 1.0), y) <= 1e-12


PRODUCTS = {
    "e2-star": Product((E2, STAR), 2.0),
    "e1-e1-q3": Product((E1, E1), 3.0),
    "lp-tree-nested": Product((LpVector(2, 3.0), Product((STAR, E1), 1.5)), 2.5),
}


@pytest.mark.parametrize("space", PRODUCTS.values(), ids=PRODUCTS.keys())
def test_product_batches_match_scalar(space, rng):
    xs = [space.sample(rng, 2.0) for _ in range(200)]
    ys = [space.sample(rng, 2.0) for _ in range(200)]
    ys[::10] = xs[::10]
    x, y = space.pack(xs), space.pack(ys)
    t = _params(rng, 200)
    d = space.distance_batch(x, y)
    g = space.geodesic_batch(x, y, t)
    for k in range(200):
        assert d[k] == pytest.approx(space.distance(xs[k], ys[k]), rel=1e-12, abs=1e-15)
        ref = space.geodesic(xs[k], ys[k], float(t[k]))
        assert space.distance(_unpack(space, g, k), ref) <= 1e-12
    with pytest.raises(SpaceMismatchError):
        space.distance_batch(x[:1], y)


def _unpack(space, batch, k):
    """Row k of a point batch as a scalar point."""
    if isinstance(space, Product):
        return tuple(_unpack(f, part, k) for f, part in zip(space.factors, batch))
    if isinstance(space, MetricTree):
        return space.point(int(batch[0][k]), float(batch[1][k]))
    return tuple(map(float, batch[k]))


def test_pack_keeps_every_point(rng):
    for space in (E2, STAR, *PRODUCTS.values()):
        points = [space.sample(rng, 2.0) for _ in range(50)] + [space.origin()]
        batch = space.pack(points)
        for k, point in enumerate(points):
            assert space.distance(_unpack(space, batch, k), point) == 0.0
    vertices = [STAR.vertex_point(v) for v in STAR.vertices]
    e, o = STAR.pack(vertices)
    assert [STAR.point(int(i), float(f)) for i, f in zip(e, o)] == vertices


@pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9, float("nan")])
def test_geodesic_batch_parameter_outside_unit_interval(bad):
    x = np.zeros((3, 2))
    t = np.array([0.0, bad, 1.0])
    for space, a in (
        (E2, x),
        (LpVector(2, 3.0), x),
        (STAR, STAR.point_batch([0, 1, 2], [0.5, 0.5, 0.5])),
        (Product((E2, E2), 2.0), (x, x)),
    ):
        with pytest.raises(DomainError):
            space.geodesic_batch(a, a, t)


@pytest.mark.parametrize("tree", TREES.values(), ids=TREES.keys())
def test_tree_sample_stream_matches_choice(tree):
    # the cached CDF and one rng.random() draw the edges rng.choice(p=...) drew
    lengths = np.array([e[2] for e in tree.edges])
    new, old = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(2000):
        i, offset = tree.sample_raw(new)
        assert i == int(old.choice(len(lengths), p=lengths / lengths.sum()))
        assert offset == float(old.uniform(0.0, tree.edges[i][2]))
    assert new.random() == old.random()


# ---------------------------------------------------------------------------


def test_tree_point_canonicalization():
    p0 = STAR.point(0, 0.0)
    assert p0.vertex == "c" and p0.edge is None
    p1 = STAR.point(0, 1.0)
    assert p1.vertex == "l1"
    interior = STAR.point(0, 0.5)
    assert interior.vertex is None and interior.offset == 0.5
    with pytest.raises(DomainError):
        STAR.point(0, 1.5)


def test_tree_point_rejects_nan_offset():
    # NaN fails both range comparisons, so the range test is written as one that NaN fails
    with pytest.raises(DomainError):
        STAR.point(0, float("nan"))
    with pytest.raises(DomainError):
        STAR.point_batch(np.array([0, 1]), np.array([0.5, float("nan")]))


def test_tree_validation():
    with pytest.raises(ValidationError):
        MetricTree(("a", "b"), (("a", "b", -1.0),))
    with pytest.raises(ValidationError):
        MetricTree(("a", "b", "c"), (("a", "b", 1.0),))  # disconnected / wrong count
    with pytest.raises(ValidationError):
        MetricTree(("a", "b", "c", "d"), (("a", "b", 1.0), ("c", "d", 1.0), ("a", "b", 2.0)))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: translation(E1, (NAN,)),
        lambda: translation(E1, (INF,)),
        lambda: EuclideanIsometry(((NAN,),), (0.0,)),
        lambda: translation(LpVector(2, 3.0), (NAN, 0.0)),
        lambda: MetricTree(["a", "b"], [("a", "b", NAN)]),
        lambda: MetricTree(["a", "b"], [("a", "b", INF)]),
    ],
    ids=[
        "euclidean-translation-nan",
        "euclidean-translation-inf",
        "euclidean-matrix-nan",
        "lp-translation-nan",
        "tree-edge-nan",
        "tree-edge-inf",
    ],
)
def test_constructors_reject_non_finite(build):
    # NaN fails every comparison and inf passes "> 0", so finiteness needs its own check
    with pytest.raises(ValidationError, match="finite"):
        build()


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------


def test_apply_translation_and_reflection():
    t = translation(E1, (1.0,))
    r = point_reflection(E1, (0.0,))
    assert t.apply((0.0,)) == (1.0,)
    assert r.apply((3.0,)) == (-3.0,)


def test_tree_automorphism_moves_midpoint():
    a = TreeIsometry(STAR, {"c": "c", "l1": "l2", "l2": "l1", "l3": "l3"})
    m1 = midpoint(STAR, STAR.vertex_point("c"), STAR.vertex_point("l1"))
    m2 = midpoint(STAR, STAR.vertex_point("c"), STAR.vertex_point("l2"))
    assert a.apply(m1) == m2
    # distance preservation against the independent path-metric oracle
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y = STAR.sample(rng), STAR.sample(rng)
        assert STAR.distance(a.apply(x), a.apply(y)) == pytest.approx(
            tree_distance_graph_oracle(STAR, x, y), abs=1e-12
        )


def test_tree_automorphism_validation():
    with pytest.raises(ValidationError):
        TreeIsometry(STAR, {"c": "l1", "l1": "c", "l2": "l2", "l3": "l3"})
    asym = MetricTree(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 2.0)))
    with pytest.raises(ValidationError):
        TreeIsometry(asym, {"a": "c", "b": "b", "c": "a"})  # edge lengths differ


def test_compose_translations():
    t1 = translation(E1, (1.0,))
    t2 = translation(E1, (2.0,))
    assert t1.compose(t2).apply((0.0,)) == (3.0,)


def test_reflection_involution_and_order():
    r = point_reflection(E1, (0.0,))
    t = translation(E1, (1.0,))
    assert r.compose(r).apply((5.0,)) == (5.0,)
    # reflect after translate: x -> -(x + 1)
    assert r.compose(t).apply((0.0,)) == (-1.0,)


def test_invert_roundtrip_all_kinds(rng):
    cases = [
        (E2, rotation_2d(0.7).compose(translation(E2, (0.5, -2.0)))),
        (LpVector(3, 3.0), translation(LpVector(3, 3.0), (1.0, 2.0, 3.0))),
        (STAR, TreeIsometry(STAR, {"c": "c", "l1": "l3", "l3": "l1", "l2": "l2"})),
    ]
    pr = Product((E1, E1), 2.0)
    cases.append((pr, ProductIsometry((translation(E1, (1.0,)), point_reflection(E1, (0.5,))))))
    for space, iso in cases:
        inv = iso.invert()
        both = iso.compose(inv)
        for _ in range(50):
            x = space.sample(rng)
            assert space.distance(both.apply(x), x) <= 1e-12
        assert isometry_defect(space, iso, rng, samples=40) <= 1e-9


def test_signed_perm_composition(rng):
    lp = LpVector(3, 1.5)
    a = SignedPermIsometry((1, 2, 0), (1, -1, 1), (0.5, 0.0, -1.0))
    b = SignedPermIsometry((2, 0, 1), (-1, 1, -1), (1.0, 2.0, 3.0))
    comp = a.compose(b)
    for _ in range(50):
        x = lp.sample(rng)
        assert max(
            abs(u - v) for u, v in zip(comp.apply(x), a.apply(b.apply(x)))
        ) <= 1e-12
    assert isometry_defect(lp, comp, rng, samples=30) <= 1e-9


def test_compose_mismatch_raises():
    with pytest.raises(SpaceMismatchError):
        translation(E1, (1.0,)).compose(translation(E2, (1.0, 0.0)))


def seeded_twists(rng):
    """(space, twist) pairs of every twist kind, each an isometry of its space."""
    out = []
    for dim in (1, 2, 3):
        shift = tuple(rng.normal(0.0, 2.0, dim).tolist())
        rot = EuclideanIsometry(tuple(map(tuple, random_orthogonal(dim, rng))), shift)
        perm = tuple(rng.permutation(dim).tolist())
        signs = tuple(rng.choice((-1, 1), dim).tolist())
        signed = SignedPermIsometry(perm, signs, shift)
        matrix = tuple(tuple(float(signs[i]) * (j == perm[i]) for j in range(dim)) for i in range(dim))
        out += [
            (Euclidean(dim), rot),
            (LpVector(dim, 2.0), rot),
            (LpVector(dim, 1.5), signed),
            (LpVector(dim, 3.0), signed),
            (LpVector(dim, 3.0), EuclideanIsometry(matrix, shift)),
        ]
    leaves = ["l1", "l2", "l3"]
    out.append((STAR, TreeIsometry(STAR, {"c": "c", **dict(zip(leaves, rng.permutation(leaves).tolist()))})))
    (e2, rot), (lp, signed), (tree, auto) = out[5], out[13], out[-1]
    parts = ProductIsometry((rot, signed, auto))
    return out + [(Product((e2, lp, tree), q), parts) for q in (2.0, 3.0)]


def old_sampled_check_rejects(space, T):
    """The check that problems ran before :func:`isometry_of`: 12 pairs
    sampled at seed 20231, rejected above 1e-7 or on an error."""
    try:
        return isometry_defect(space, T, np.random.default_rng(20231), samples=12) > 1e-7
    except (GeometryError, IndexError):
        return True


@pytest.mark.parametrize("seed", range(5))
def test_isometry_of_agrees_with_the_sampled_defect(seed):
    rng = np.random.default_rng(seed)
    for space, twist in seeded_twists(rng):
        assert isometry_of(space, twist), (space, twist)
        assert isometry_defect(space, twist, rng, samples=40) <= 1e-9


def test_isometry_of_rejects_what_the_sampled_check_rejected():
    lp3 = LpVector(2, 3.0)
    rotation = rotation_2d(0.7)
    mutants = [
        (lp3, rotation),
        (E2, EuclideanIsometry(tuple(map(tuple, np.eye(3))), (0.0, 0.0, 0.0))),
        (lp3, SignedPermIsometry((2, 0, 1), (1, 1, 1), (0.0, 0.0, 0.0))),
        (Product((E2, lp3), 2.0), ProductIsometry((rotation, translation(lp3, (1.0, 0.0)), rotation))),
    ]
    for space, twist in mutants:
        assert not isometry_of(space, twist), (space, twist)
        assert old_sampled_check_rejects(space, twist), (space, twist)
    # a 1-D scaling by 1 + 4e-8 is no longer built; the instance the old
    # constructor accepted fails the old sampled check
    with pytest.raises(ValidationError, match="not orthogonal"):
        EuclideanIsometry(((1.0 + 4e-8,),), (0.0,))
    scaling = object.__new__(EuclideanIsometry)
    object.__setattr__(scaling, "matrix", ((1.0 + 4e-8,),))
    object.__setattr__(scaling, "shift", (0.0,))
    assert old_sampled_check_rejects(E1, scaling)


def test_orthogonality_validated():
    from busemann.spaces import EuclideanIsometry

    with pytest.raises(ValidationError):
        EuclideanIsometry(((1.0, 0.5), (0.0, 1.0)), (0.0, 0.0))


def test_is_identity_is_decided_exactly():
    # EquivariantProblem's identity convention compares a twist with
    # identity_isometry by ==, which decides it exactly from the data
    star40 = star_tree(40)
    swap = TreeIsometry(star40, {**{v: v for v in star40.vertices}, "l7": "l8", "l8": "l7"})
    assert swap != identity_isometry(star40)
    # six sampled points miss the swap's two edges (it moves 1/20 of the tree)
    rng = np.random.default_rng(5)
    assert all(star40.distance(swap.apply(x), x) == 0.0 for x in (star40.sample(rng) for _ in range(6)))
    # a twist set holding identity_isometry meets the convention on every kind
    one = MeasureModel(("a",), (1.0,))
    for space in (E2, LpVector(2, 3.0), STAR, Product((E1, STAR), 3.0)):
        edges = (Edge("a", "a", 1.0, identity_isometry(space)),)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IdentityConventionWarning)
            EquivariantProblem(one, space, space.sample(rng), edges)
    assert EuclideanIsometry(((1.0, -0.0), (0.0, 1.0)), (0.0, -0.0)) == identity_isometry(E2)
    assert rotation_2d(1e-12) != identity_isometry(E2)
    assert translation(E2, (0.0, 1e-300)) != identity_isometry(E2)
    l3 = LpVector(2, 3.0)
    assert SignedPermIsometry((0, 1), (1, -1), (0.0, 0.0)) != identity_isometry(l3)
    assert SignedPermIsometry((1, 0), (1, 1), (0.0, 0.0)) != identity_isometry(l3)
    leaf_swap = TreeIsometry(STAR, {"c": "c", "l1": "l2", "l2": "l1", "l3": "l3"})
    assert ProductIsometry((identity_isometry(E1), leaf_swap)) != identity_isometry(Product((E1, STAR), 3.0))
