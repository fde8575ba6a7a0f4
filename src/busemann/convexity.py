"""Convexity toolkit for geodesic metric spaces.

Everything here only uses the metric/midpoint structure of a space:
modulus-of-convexity estimation, minimax circumcenters, derivative-free
convex minimization, parallelism of segments, and detection of Clifford
isometries (constant displacement).

:func:`minimize_convex` and the polish of :func:`circumcenter` share one
shrinking-radius search, :func:`_shrinking_search`: it scores the
candidates around the incumbent, moves to the best one that is strictly
lower, and otherwise halves the radius; each caller supplies only its
candidates, start radius and floor.  The pair search of
:func:`modulus_estimate` is separate: it accepts each improving candidate
in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from busemann.spaces import (
    DomainError,
    Euclidean,
    GEO_TOL,
    LpVector,
    MetricTree,
    SolverError,
    midpoint,
    perturb,
    step_toward,
)

__all__ = [
    "ModulusEstimate",
    "CliffordReport",
    "modulus_estimate",
    "circumcenter",
    "minimize_convex",
    "parallel_check",
    "parallel_check_batch",
    "clifford_check",
]


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
# Circumcenters
# ---------------------------------------------------------------------------


def circumcenter(space, pts: Sequence, tol: float = 1e-8, seed: int = 0):
    """Minimax center: the point minimizing the largest distance to ``pts``.

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
        for _ in range(6):
            cands.append(perturb(space, c, rng, rho))
        return cands

    return _shrinking_search(maxdist, c, fc, max(fc, tol), tol * 0.02, candidates)


# ---------------------------------------------------------------------------
# Parallel segments, Clifford isometries
# ---------------------------------------------------------------------------


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
