"""Convexity toolkit for geodesic metric spaces.

Everything here only uses the metric/midpoint structure of a space:
modulus-of-convexity estimation, nearest-point projections onto convex
sets, minimax circumcenters, iterated midpoint hulls, derivative-free
convex minimization, linear-growth certificates for coercive convex
functions, displacement functions of finite isometry sets, parallelism
of segments, and detection of Clifford isometries (constant displacement).

The derivative-free searches share two private primitives.
:func:`_shrinking_search` is the one best-of-candidates loop: it scores the
candidates around the incumbent, moves to the best one that is strictly
lower, and otherwise halves the radius.  :func:`minimize_convex`, the
midpoint-hull and sublevel-set projections and the polish of
:func:`circumcenter` supply only their candidates, start radius and floor.
:func:`_bisect` is the one 60-step bisection, behind the boundary snap of
the sublevel-set projection and :func:`linear_growth_bound`.  The pair
search of :func:`modulus_estimate` is separate: it accepts each improving
candidate in turn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from busemann.spaces import (
    DomainError,
    Euclidean,
    GEO_TOL,
    LpVector,
    MetricTree,
    SolverError,
    ValidationError,
    identity_isometry,
    is_identity,
    isometry_defect,
    midpoint,
    perturb,
    step_toward,
)

__all__ = [
    "Ball",
    "MidpointHull",
    "AffineSubspace",
    "Subtree",
    "SublevelSet",
    "ConvexFunction",
    "FiniteGroupAction",
    "ModulusEstimate",
    "GrowthBound",
    "CliffordReport",
    "sampled_convexity_defect",
    "member",
    "modulus_estimate",
    "project",
    "circumcenter",
    "hull_iterate",
    "farthest_point_subsample",
    "minimize_convex",
    "linear_growth_bound",
    "displacement",
    "parallel_check",
    "parallel_check_batch",
    "clifford_check",
]


# ---------------------------------------------------------------------------
# Convex sets and convex functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    center: object
    radius: float

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValidationError("ball radius must be nonnegative")


@dataclass(frozen=True)
class MidpointHull:
    """Closed convex hull of finitely many generators, approximated by the
    midpoint-closure recursion at the given depth."""

    generators: tuple
    depth: int = 6


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace of a Euclidean space: base point + orthonormal rows."""

    base: tuple
    directions: tuple  # tuple of orthonormal direction tuples

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        if d.size and np.max(np.abs(d @ d.T - np.eye(d.shape[0]))) > 1e-9:
            raise ValidationError("spanning directions must be orthonormal")


@dataclass(frozen=True)
class Subtree:
    """Convex subtree of a metric tree, given by a path-closed vertex set."""

    vertices: frozenset

    def __init__(self, vertices):
        object.__setattr__(self, "vertices", frozenset(vertices))


@dataclass(frozen=True)
class SublevelSet:
    f: "ConvexFunction"
    level: float


@dataclass(frozen=True)
class ConvexFunction:
    """Evaluation oracle declared convex, with its certificate mode."""

    fn: Callable
    certificate: str = "sampled"  # "exact-by-construction" | "sampled"
    name: str = ""

    def __call__(self, x) -> float:
        return float(self.fn(x))


@dataclass(frozen=True)
class FiniteGroupAction:
    """A finite set of generating isometries acting on a space.

    The generating set is required to contain the identity; if it does not,
    the identity is appended (with a warning) so displacement computations
    follow the usual convention.
    """

    space: object
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        rng = np.random.default_rng(12345)
        for g in gens:
            if isometry_defect(self.space, g, rng, samples=16) > 1e-7:
                raise ValidationError("generator fails the isometry check")
        if not any(is_identity(self.space, g, np.random.default_rng(7)) for g in gens):
            warnings.warn("generating set does not contain the identity; adding it")
            gens = gens + (identity_isometry(self.space),)
        object.__setattr__(self, "generators", gens)


def sampled_convexity_defect(
    space, f, rng: np.random.Generator, samples: int = 200, tol: float = GEO_TOL
) -> float:
    """Worst midpoint-convexity violation of f along sampled geodesics.

    Nonpositive (up to tol * scale) when the declared convexity certificate
    of a :class:`ConvexFunction` holds on the sample.
    """
    worst = -math.inf
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    for _ in range(samples):
        x = space.sample(rng)
        y = space.sample(rng)
        vals = [float(f(space.geodesic(x, y, t))) for t in grid]
        scale = 1.0 + max(abs(v) for v in vals)
        for i in range(1, len(grid) - 1):
            worst = max(worst, (vals[i] - 0.5 * (vals[i - 1] + vals[i + 1])) / scale)
    return worst


# ---------------------------------------------------------------------------
# Derivative-free convex minimization (shrinking-radius pattern search)
# ---------------------------------------------------------------------------


def _shrinking_search(f, x, fx, rho, floor, candidates):
    """The one shrinking-radius search: score ``candidates(x, rho)``, move
    to the first of the lowest scores if it is strictly below ``fx = f(x)``,
    else halve ``rho``; stop once ``rho <= floor``.  Returns ``(x, f(x))``."""
    while rho > floor:
        best, fbest = None, fx
        for y in candidates(x, rho):
            fy = f(y)
            if fy < fbest:
                best, fbest = y, fy
        if best is None:
            rho *= 0.5
        else:
            x, fx = best, fbest
    return x, fx


def _bisect(pred, good: float, bad: float) -> float:
    """60 halvings of the interval between ``good`` (where ``pred`` holds)
    and ``bad`` (where it fails); returns the good end."""
    for _ in range(60):
        mid = 0.5 * (good + bad)
        if pred(mid):
            good = mid
        else:
            bad = mid
    return good


def minimize_convex(
    space,
    f,
    x_init,
    tol: float = 1e-6,
    seed: int = 0,
    radius0: Optional[float] = None,
    escape_radius: float = 1e6,
):
    """Minimize a coercive convex function using only geodesic moves.

    At each scale, 8 random candidate points around the incumbent are
    evaluated and the best improvement accepted; the scale halves when no
    candidate improves, and the search stops below the tolerance or after
    200 000 evaluations.  Deterministic for a fixed seed.  Raises
    :class:`SolverError` if iterates escape ``escape_radius`` (the declared
    coercivity is then suspect).
    """
    rng = np.random.default_rng(seed)
    evals = 0

    def candidates(x, rho):
        nonlocal evals
        if space.distance(x, x_init) > escape_radius:
            raise SolverError(
                "iterates escaped the configured radius; f does not look coercive",
                best=x,
            )
        if evals >= 200_000:  # no more moves: the radius halves down to the floor
            return ()
        evals += 8
        return [perturb(space, x, rng, rho) for _ in range(8)]

    score = lambda y: float(f(y))
    rho = radius0 if radius0 is not None else 1.0
    return _shrinking_search(score, x_init, score(x_init), rho, max(tol * 0.1, 1e-14), candidates)[0]


# ---------------------------------------------------------------------------
# Modulus of convexity estimation
# ---------------------------------------------------------------------------


@dataclass
class ModulusEstimate:
    value: float
    pair: Optional[tuple]
    feasible: bool
    eps: float
    r: float


def _radial_boundary(space, x, y, r: float):
    """Farthest point of the ball B(x, r) along the geodesic direction of y.

    Vector spaces extend the ray analytically; trees walk through y to the
    farthest vertex behind it.  Spaces without a cheap extension (products)
    return y unchanged.
    """
    d = space.distance(x, y)
    if d == 0.0:
        return y
    if isinstance(space, (Euclidean, LpVector)):
        s = r / d
        return tuple(a + s * (b - a) for a, b in zip(x, y))
    if isinstance(space, MetricTree):
        far, best = None, d
        for v in space.vertices:
            vp = space.vertex_point(v)
            dxv = space.distance(x, vp)
            if dxv > best and abs(
                d + space.distance(y, vp) - dxv
            ) <= 1e-12 * (1.0 + dxv):
                far, best = vp, dxv
        if far is None:
            return y
        return space.geodesic(x, far, min(r, best) / best)
    return y


def modulus_estimate(space, x, eps: float, r: float, budget: int = 10_000, seed: int = 0) -> ModulusEstimate:
    """Estimate the modulus of convexity at x: the infimum of
    r - d(x, midpoint(y1, y2)) over pairs with d(x, y_i) <= r and
    d(y1, y2) >= eps * r.

    The estimate is a minimum over optimizer-driven candidate pairs, hence an
    upper bound on the true modulus that converges from above as the budget
    grows.  Pairs at chord distance above the constraint are always pulled
    symmetrically along their geodesic onto the active constraint (this keeps
    the midpoint fixed).  Returns an infeasible marker when eps > 2.
    """
    if eps <= 0.0 or r <= 0.0:
        raise DomainError("modulus_estimate needs eps > 0 and r > 0")
    if eps > 2.0:
        return ModulusEstimate(math.inf, None, False, eps, r)
    rng = np.random.default_rng(seed)
    chord_min = eps * r

    def clip(y):
        d = space.distance(x, y)
        if d <= r:
            return y
        return space.geodesic(x, y, r / d)

    def snap(y1, y2):
        # shrink the chord onto the active constraint; midpoint is unchanged
        c = space.distance(y1, y2)
        if c > chord_min > 0.0 and c > 0.0:
            s = (c - chord_min) / (2.0 * c)
            return space.geodesic(y1, y2, s), space.geodesic(y2, y1, s)
        return y1, y2

    def score(y1, y2):
        return space.distance(x, midpoint(space, y1, y2))

    evals = 0
    starts = []
    n_starts = max(8, budget // 50)
    while evals < n_starts:
        evals += 1
        if evals % 2 == 0:
            # chord pair: a boundary-ish point and its partner at the exact
            # chord distance along the geodesic toward a second boundary
            # point (in trees this walks through branch points)
            z = space.sample(rng, 4.0 * r)
            w = space.sample(rng, 4.0 * r)
            if space.distance(x, z) == 0.0 or space.distance(x, w) == 0.0:
                continue
            y1 = clip(_radial_boundary(space, x, z, r))
            w1 = clip(_radial_boundary(space, x, w, r))
            if space.distance(y1, w1) < chord_min:
                continue
            y2 = step_toward(space, y1, w1, chord_min)
        else:
            y1 = clip(perturb(space, x, rng, r))
            y2 = clip(perturb(space, x, rng, r))
            if space.distance(y1, y2) < chord_min:
                continue
        y1, y2 = snap(y1, y2)
        starts.append((score(y1, y2), len(starts), y1, y2))
    if not starts:
        # fall back to clones pushed apart is impossible; report best effort
        return ModulusEstimate(r, None, True, eps, r)

    starts.sort(key=lambda t: (-t[0], t[1]))
    pool = starts[:4]
    best_m, _, by1, by2 = pool[0]
    per_pair = max(1, (budget - evals) // len(pool))
    for m, _, y1, y2 in pool:
        rho = 0.5 * r
        cur_m = m
        used = 0
        while rho > 1e-7 * r and used < per_pair:
            improved = False
            cands = []
            for _ in range(6):
                which = rng.integers(0, 2)
                z1, z2 = y1, y2
                if which == 0:
                    z1 = clip(perturb(space, x if rng.integers(0, 4) == 0 else y1, rng, rho))
                else:
                    z2 = clip(perturb(space, x if rng.integers(0, 4) == 0 else y2, rng, rho))
                cands.append((z1, z2))
            # radial pushes of either endpoint onto the ball boundary
            cands.append((clip(_radial_boundary(space, x, y1, r)), y2))
            cands.append((y1, clip(_radial_boundary(space, x, y2, r))))
            for z1, z2 in cands:
                used += 1
                if space.distance(z1, z2) < chord_min:
                    continue
                z1, z2 = snap(z1, z2)
                mz = score(z1, z2)
                if mz > cur_m + 1e-16 * r:
                    y1, y2, cur_m = z1, z2, mz
                    improved = True
            if not improved:
                rho *= 0.5
        if cur_m > best_m:
            best_m, by1, by2 = cur_m, y1, y2
    return ModulusEstimate(r - best_m, (by1, by2), True, eps, r)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def member(space, y, cset, tol: float = 1e-9) -> bool:
    """Approximate membership test for the convex-set variants."""
    if isinstance(cset, Ball):
        return space.distance(y, cset.center) <= cset.radius + tol
    if isinstance(cset, AffineSubspace):
        return space.distance(y, _affine_project(space, y, cset)) <= tol
    if isinstance(cset, Subtree):
        return _subtree_contains(space, y, cset)
    if isinstance(cset, SublevelSet):
        return cset.f(y) <= cset.level + tol
    if isinstance(cset, MidpointHull):
        cloud = hull_iterate(space, list(cset.generators), cset.depth)
        return min(space.distance(y, c) for c in cloud) <= max(
            tol, _cloud_spacing(space, cloud)
        )
    raise DomainError(f"unknown convex set {cset!r}")


def _cloud_spacing(space, cloud) -> float:
    if len(cloud) < 2:
        return 0.0
    diam = max(space.distance(cloud[0], c) for c in cloud)
    return 2.0 * diam / math.sqrt(max(len(cloud), 1))


def _affine_project(space, x, cset: AffineSubspace):
    base = np.asarray(cset.base)
    dirs = np.asarray(cset.directions, dtype=float)
    v = np.asarray(x, dtype=float) - base
    if dirs.size == 0:
        return tuple(float(c) for c in base)
    return tuple(float(c) for c in base + dirs.T @ (dirs @ v))


def _subtree_contains(tree: MetricTree, y, cset: Subtree) -> bool:
    if y.vertex is not None:
        return y.vertex in cset.vertices
    u, v, _ = tree.edges[y.edge]
    return u in cset.vertices and v in cset.vertices


def project(space, x, cset, tol: float = 1e-6, seed: int = 0, check_uniqueness: bool = False):
    """Nearest point of a convex set (exact for balls, affine subspaces and
    subtrees; iterative for midpoint hulls and sublevel sets).

    With ``check_uniqueness`` the iterative variants re-run from an
    independent start and require agreement within 10 * tol.
    """
    if isinstance(cset, Ball):
        d = space.distance(x, cset.center)
        if d <= cset.radius:
            return x
        if cset.radius == 0.0:
            return cset.center
        # radial projection is exact in any uniquely geodesic space
        return space.geodesic(cset.center, x, cset.radius / d)
    if isinstance(cset, AffineSubspace):
        if not isinstance(space, Euclidean):
            raise DomainError("affine subspaces are supported in Euclidean spaces only")
        return _affine_project(space, x, cset)
    if isinstance(cset, Subtree):
        return _project_subtree(space, x, cset)
    if isinstance(cset, (MidpointHull, SublevelSet)):
        search = _project_hull if isinstance(cset, MidpointHull) else _project_sublevel
        p = search(space, x, cset, tol, seed)
        if check_uniqueness and space.distance(p, search(space, x, cset, tol, seed + 1)) > 10.0 * tol:
            raise SolverError("projection restarts disagree", best=p)
        return p
    raise DomainError(f"unknown convex set {cset!r}")


def _project_subtree(tree: MetricTree, x, cset: Subtree):
    verts = cset.vertices
    if not verts:
        raise DomainError("empty subtree")
    for v in verts:
        if v not in tree._adj:
            raise DomainError(f"subtree vertex {v!r} not in tree")
    # path-closure <=> the induced subgraph is connected
    if len(verts) > 1:
        seen = {next(iter(verts))}
        stack = [next(iter(verts))]
        while stack:
            w = stack.pop()
            for n, _ in tree._adj[w]:
                if n in verts and n not in seen:
                    seen.add(n)
                    stack.append(n)
        if seen != verts:
            raise ValidationError("subtree vertex set is not path-closed")
    if _subtree_contains(tree, x, cset):
        return x
    best_v = min(verts, key=lambda v: (tree.distance(x, tree.vertex_point(v)), str(v)))
    return tree.vertex_point(best_v)


def _project_hull(space, x, cset: MidpointHull, tol: float, seed: int):
    cloud = hull_iterate(space, list(cset.generators), cset.depth)
    rng = np.random.default_rng(seed)
    p = min(cloud, key=lambda c: space.distance(x, c))

    def candidates(cur, rho):
        out = [step_toward(space, cur, g, rho) for g in cset.generators]
        return out + [step_toward(space, cur, cloud[int(rng.integers(0, len(cloud)))], rho) for _ in range(4)]

    fx = space.distance(x, p)
    return _shrinking_search(lambda y: space.distance(x, y), p, fx, max(fx, 1e-3), tol * 0.05, candidates)[0]


def _project_sublevel(space, x, cset: SublevelSet, tol: float, seed: int):
    f, level = cset.f, cset.level
    if f(x) <= level:
        return x
    # locate an interior anchor by minimizing f; detects empty sublevel sets
    anchor = minimize_convex(space, f, x, tol=min(tol, 1e-6), seed=seed, radius0=1.0)
    if f(anchor) > level:
        raise DomainError(f"sublevel set at level {level} appears to be empty")

    def snap(y):
        # geodesic bisection from y toward the anchor, onto the boundary
        if f(y) <= level:
            return y
        t = _bisect(lambda t: f(space.geodesic(y, anchor, t)) <= level, 1.0, 0.0)
        return space.geodesic(y, anchor, t)

    rng = np.random.default_rng(seed)

    def candidates(cur, rho):
        out = [snap(perturb(space, cur, rng, rho)) for _ in range(8)]
        return out + [snap(step_toward(space, cur, x, min(rho, space.distance(cur, x))))]

    p = snap(x)
    fx = space.distance(x, p)
    return _shrinking_search(lambda y: space.distance(x, y), p, fx, max(fx, 1e-3), tol * 0.05, candidates)[0]


# ---------------------------------------------------------------------------
# Circumcenters
# ---------------------------------------------------------------------------


def circumcenter(
    space,
    pts: Sequence,
    relative: bool = False,
    tol: float = 1e-8,
    depth: int = 6,
    cap: int = 256,
    seed: int = 0,
):
    """Minimax center: the point minimizing the largest distance to ``pts``.

    With ``relative=True`` the center is constrained to the midpoint hull of
    the points (approximated at ``depth``); all search moves then run along
    geodesics toward hull members, which keeps iterates inside the hull.

    Returns ``(center, radius)``.
    """
    pts = list(pts)
    if not pts:
        raise DomainError("circumcenter of an empty set")
    if len(pts) == 1:
        return pts[0], 0.0
    rng = np.random.default_rng(seed)

    def maxdist(c):
        return max(space.distance(c, p) for p in pts)

    cands0 = list(pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            cands0.append(midpoint(space, pts[i], pts[j]))
    if relative:
        cloud = hull_iterate(space, pts, depth, cap=cap)
        cands0.extend(cloud)
    else:
        cloud = None
    c = min(cands0, key=maxdist)
    fc = maxdist(c)

    # subgradient phase: geodesic steps toward the current farthest point
    step0 = fc
    for k in range(1, 40):
        far = max(pts, key=lambda p: space.distance(c, p))
        c2 = step_toward(space, c, far, step0 / (k + 1.0))
        f2 = maxdist(c2)
        if f2 < fc:
            c, fc = c2, f2

    # polish: shrinking-radius search along geodesics toward the points and
    # toward midpoints of the currently-farthest points (the latter supply
    # the improving direction when two or three points support the optimum)
    def candidates(c, rho):
        ranked = sorted(pts, key=lambda p: -space.distance(c, p))
        cands = [step_toward(space, c, p, min(rho, space.distance(c, p))) for p in pts]
        cands.append(step_toward(space, c, ranked[0], min(rho * 0.5, space.distance(c, ranked[0]))))
        if len(ranked) >= 2:
            m2 = midpoint(space, ranked[0], ranked[1])
            for s in (rho, rho * 0.25):
                cands.append(step_toward(space, c, m2, min(s, space.distance(c, m2))))
            if len(ranked) >= 3:
                m3 = midpoint(space, m2, ranked[2])
                cands.append(step_toward(space, c, m3, min(rho, space.distance(c, m3))))
        if relative:
            for _ in range(4):
                cands.append(step_toward(space, c, cloud[int(rng.integers(0, len(cloud)))], rho))
        else:
            for _ in range(6):
                cands.append(perturb(space, c, rng, rho))
        return cands

    return _shrinking_search(maxdist, c, fc, max(fc, tol), tol * 0.02, candidates)


# ---------------------------------------------------------------------------
# Iterated midpoint hulls
# ---------------------------------------------------------------------------


def hull_iterate(space, pts: Sequence, n: int, cap: int = 256):
    """n midpoint-closure steps starting from ``pts``.

    Each step appends the midpoints of all pairs (the previous cloud is kept,
    so the cloud only grows before thinning); clouds above ``cap`` points are
    thinned by farthest-point subsampling.
    """
    if n < 0:
        raise DomainError("hull_iterate needs n >= 0")
    cloud = list(pts)
    for _ in range(n):
        nxt = list(cloud)
        m = len(cloud)
        for i in range(m):
            for j in range(i + 1, m):
                nxt.append(midpoint(space, cloud[i], cloud[j]))
        seen = set()
        deduped = []
        for q in nxt:
            if q not in seen:
                seen.add(q)
                deduped.append(q)
        nxt = deduped
        if len(nxt) > cap:
            nxt = farthest_point_subsample(space, nxt, cap)
        cloud = nxt
    return cloud


def farthest_point_subsample(space, pts: Sequence, k: int):
    """Deterministic farthest-point thinning; ties go to the lowest index.

    Very large candidate lists are first decimated by a uniform index stride
    (keeping ~8k points) so the greedy stage stays tractable.
    """
    pts = list(pts)
    if len(pts) <= k:
        return pts
    limit = max(8 * k, 64)
    if len(pts) > limit:
        stride = int(math.ceil(len(pts) / limit))
        pts = pts[::stride]
        if len(pts) <= k:
            return pts
    if isinstance(space, (Euclidean, LpVector)):
        coords = np.asarray(pts, dtype=float)
        if isinstance(space, Euclidean):
            def dists(c):
                return np.sqrt(((coords - c) ** 2).sum(axis=1))
        else:
            p = space.p
            def dists(c):
                return (np.abs(coords - c) ** p).sum(axis=1) ** (1.0 / p)
        chosen = [0]
        nearest = dists(coords[0])
        for _ in range(k - 1):
            i = int(np.argmax(nearest))  # argmax returns the lowest tied index
            chosen.append(i)
            nearest = np.minimum(nearest, dists(coords[i]))
        chosen = sorted(set(chosen))
        return [pts[i] for i in chosen]
    chosen = [0]
    nearest = [space.distance(pts[0], q) for q in pts]
    for _ in range(k - 1):
        i = max(range(len(pts)), key=lambda j: (nearest[j], -j))
        chosen.append(i)
        for j, q in enumerate(pts):
            d = space.distance(pts[i], q)
            if d < nearest[j]:
                nearest[j] = d
    chosen = sorted(set(chosen))
    return [pts[i] for i in chosen]


# ---------------------------------------------------------------------------
# Linear growth of coercive convex functions
# ---------------------------------------------------------------------------


@dataclass
class GrowthBound:
    b: float
    witness: object
    margin: float


def linear_growth_bound(
    space,
    f,
    x0,
    sample_radius: float,
    budget: int = 512,
    seed: int = 0,
) -> GrowthBound:
    """Largest b (from a bisection grid) with f(x) >= b * d(x, x0) - 1/b on
    all sampled points within ``sample_radius`` of x0.

    The requirement strengthens monotonically with b, so bisection applies.
    Raises if no positive b passes (f is then not positive/coercive on the
    sample).  When even the cap b = 1e6 passes, the cap is returned.
    """
    b_cap = 1e6
    rng = np.random.default_rng(seed)
    samples = [x0] + [perturb(space, x0, rng, sample_radius) for _ in range(budget - 1)]
    data = [(space.distance(s, x0), float(f(s)), s) for s in samples]

    def ok(b):
        worst, wit = math.inf, None
        for d, fv, s in data:
            margin = fv - (b * d - 1.0 / b)
            if margin < worst:
                worst, wit = margin, s
        return worst >= -1e-12, worst, wit

    lo = 1e-9
    good, worst, _ = ok(lo)
    if not good:
        raise SolverError("no positive b satisfies the linear growth bound", best=worst)
    while lo < b_cap and ok(min(lo * 4.0, b_cap))[0]:
        lo = min(lo * 4.0, b_cap)
    b = lo if lo >= b_cap else _bisect(lambda b: ok(b)[0], lo, min(lo * 4.0, b_cap))
    _, worst, wit = ok(b)
    return GrowthBound(b, wit, worst)


# ---------------------------------------------------------------------------
# Displacement, parallel segments, Clifford isometries
# ---------------------------------------------------------------------------


def displacement(action: FiniteGroupAction, x) -> float:
    """max over the generating set of d(g x, x)."""
    return max(action.space.distance(g.apply(x), x) for g in action.generators)


def parallel_check(space, a, b, x, y, tol: float = GEO_TOL) -> bool:
    """Are the segments [a, b] and [x, y] parallel?

    True when d(a,x), d(b,y) and the distance between the two midpoints all
    agree within tol * scale.
    """
    d1 = space.distance(a, x)
    d2 = space.distance(b, y)
    d3 = space.distance(midpoint(space, a, b), midpoint(space, x, y))
    scale = max(d1, d2, d3, space.distance(a, b), space.distance(x, y))
    if scale == 0.0:
        return True
    return max(d1, d2, d3) - min(d1, d2, d3) <= tol * scale


def parallel_check_batch(space, a, b, x, y, tol: float = GEO_TOL) -> np.ndarray:
    """``parallel_check`` on arrays of segment pairs: a, b, x and y are point
    batches (see ``distance_batch``); one verdict per row, from the same five
    distances, two midpoints and scale-zero rule."""
    dist = space.distance_batch
    d1 = dist(a, x)
    d2 = dist(b, y)
    d3 = dist(space.geodesic_batch(a, b, 0.5), space.geodesic_batch(x, y, 0.5))
    hi = np.maximum(np.maximum(d1, d2), d3)
    lo = np.minimum(np.minimum(d1, d2), d3)
    scale = np.maximum(np.maximum(hi, dist(a, b)), dist(x, y))
    return (scale == 0.0) | (hi - lo <= tol * scale)


@dataclass
class CliffordReport:
    is_clifford: bool
    displacement: Optional[float]
    spread: float
    halfway_displacement: Optional[float] = None
    halfway_spread: Optional[float] = None
    halfway_is_clifford: Optional[bool] = None


def clifford_check(space, T, tol: float = 1e-9, seed: int = 0) -> CliffordReport:
    """Decide (by sampling) whether d(x, Tx) is constant over the space.

    Nine samples are drawn at each of the scales 0.5, 2, 16, 128 and 1024,
    so that displacement growth of rotations/reflections far from their
    fixed sets is visible.  When the sampled displacement spread is within
    tol * (1 + c), the halfway map x -> midpoint(x, Tx) is also sampled and
    checked to be a Clifford isometry with displacement c / 2.
    """
    rng = np.random.default_rng(seed)
    pts = [space.sample(rng, s) for s in (0.5, 2.0, 16.0, 128.0, 1024.0) for _ in range(9)]
    disps = [space.distance(x, T.apply(x)) for x in pts]
    c = math.fsum(disps) / len(disps)
    spread = max(disps) - min(disps)
    if spread > tol * (1.0 + c):
        return CliffordReport(False, None, spread)

    def halfway(x):
        return midpoint(space, x, T.apply(x))

    hdisps = [space.distance(x, halfway(x)) for x in pts]
    hc = math.fsum(hdisps) / len(hdisps)
    hspread = max(hdisps) - min(hdisps)
    h_ok = hspread <= tol * (1.0 + hc) and abs(hc - 0.5 * c) <= tol * (1.0 + c)
    return CliffordReport(True, c, spread, hc, hspread, h_ok)
