"""Brute-force and closed-form reference computations.

Everything here deliberately avoids the iterative algorithms it is used to
check: smallest enclosing balls by support-set enumeration, tree centers by
exact per-edge piecewise-linear minimization, path metrics by graph search
on a vertex-augmented graph, energy minima by exhaustive product grids with
zooming, the L_p modulus of convexity by a direct search over unit-sphere
pairs of a two-atom space, and the modulus of the real line.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Sequence

import numpy as np

from busemann.harmonic import EquivariantProblem, energy
from busemann.mapspace import EquivariantMap
from busemann.spaces import Euclidean, MetricTree, TreePoint


# ---------------------------------------------------------------------------
# Smallest enclosing ball (Euclidean), by enumerating support sets
# ---------------------------------------------------------------------------


def _circumcenter_of(points: np.ndarray):
    """Center equidistant from all rows (affinely independent), or None."""
    a = points[1:] - points[0]
    b = 0.5 * np.einsum("ij,ij->i", points[1:] + points[0], points[1:] - points[0])
    try:
        sol, res, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if rank < len(a):
        return None
    if np.max(np.abs(a @ sol - b)) > 1e-9 * (1.0 + np.max(np.abs(b))):
        return None
    return sol


def smallest_enclosing_ball_bruteforce(points: Sequence[Sequence[float]]):
    """Exact minimax ball of a small Euclidean point set.

    Enumerates candidate centers from all pairs (midpoints) and all affinely
    independent subsets of size 3..d+1 (their circumcenters), keeping the
    smallest candidate that covers every point.
    """
    pts = np.asarray([tuple(p) for p in points], dtype=float)
    n, d = pts.shape
    if n == 1:
        return tuple(pts[0]), 0.0
    best = None
    for i, j in itertools.combinations(range(n), 2):
        c = 0.5 * (pts[i] + pts[j])
        r = float(np.max(np.linalg.norm(pts - c, axis=1)))
        if best is None or r < best[1] - 1e-15:
            best = (tuple(float(x) for x in c), r)
    for k in range(3, min(n, d + 1) + 1):
        for sub in itertools.combinations(range(n), k):
            c = _circumcenter_of(pts[list(sub)])
            if c is None:
                continue
            r = float(np.max(np.linalg.norm(pts - c, axis=1)))
            if r < best[1] - 1e-15:
                best = (tuple(float(x) for x in c), r)
    return best


# ---------------------------------------------------------------------------
# Tree one-center, exact per-edge scan
# ---------------------------------------------------------------------------


def tree_one_center(tree: MetricTree, pts: Sequence[TreePoint]):
    """Exact minimax center of points in a metric tree.

    On each edge the distance to a fixed point is linear (or V-shaped when
    the point lives on that edge), so the pointwise maximum is piecewise
    linear and convex; its minimum over the edge is attained at an endpoint,
    a V-vertex, or a crossing of two pieces, all enumerated exactly.
    """

    def dist_fn_on_edge(e_idx, q):
        u, v, L = tree.edges[e_idx]
        if q.edge is not None and q.edge == e_idx:
            tq = q.offset
            return [(tq, "v")]  # V-shape |t - tq|
        du = tree.distance(tree.vertex_point(u), q)
        dv = tree.distance(tree.vertex_point(v), q)
        return [(du, dv)]  # linear from (0, du) to (L, dv)

    best = None
    for e_idx, (u, v, L) in enumerate(tree.edges):
        segs = [dist_fn_on_edge(e_idx, q) for q in pts]

        def value(t):
            worst = 0.0
            for s in segs:
                if s[0][1] == "v":
                    worst = max(worst, abs(t - s[0][0]))
                else:
                    du, dv = s[0]
                    worst = max(worst, min(du + t, dv + (L - t)))
            return worst

        cands = {0.0, L}
        for s in segs:
            if s[0][1] == "v":
                cands.add(s[0][0])
        # crossings of every pair of linear pieces (slopes in {-1, +1})
        pieces = []
        for s in segs:
            if s[0][1] == "v":
                tq = s[0][0]
                pieces.append((-1.0, tq))  # t < tq branch: tq - t
                pieces.append((1.0, -tq))  # t > tq branch: t - tq
            else:
                du, dv = s[0]
                pieces.append((1.0, du))
                pieces.append((-1.0, dv + L))
        for (s1, b1), (s2, b2) in itertools.combinations(pieces, 2):
            if s1 == s2:
                continue
            t = (b2 - b1) / (s1 - s2)
            if 0.0 <= t <= L:
                cands.add(t)
        for t in cands:
            val = value(t)
            if best is None or val < best[1] - 1e-15:
                best = (tree.point(e_idx, min(max(t, 0.0), L)), val)
    return best


# ---------------------------------------------------------------------------
# Path metric by graph search (independent of the ports formula)
# ---------------------------------------------------------------------------


def tree_distance_graph_oracle(tree: MetricTree, x: TreePoint, y: TreePoint) -> float:
    """Distance via Dijkstra on the vertex graph augmented with x and y."""
    nodes = {("v", v): {} for v in tree.vertices}
    for u, v, L in tree.edges:
        nodes[("v", u)][("v", v)] = min(L, nodes[("v", u)].get(("v", v), math.inf))
        nodes[("v", v)][("v", u)] = min(L, nodes[("v", v)].get(("v", u), math.inf))

    def attach(name, p):
        if p.vertex is not None:
            return ("v", p.vertex)
        u, v, L = tree.edges[p.edge]
        node = ("p", name)
        nodes[node] = {("v", u): p.offset, ("v", v): L - p.offset}
        nodes[("v", u)][node] = p.offset
        nodes[("v", v)][node] = L - p.offset
        return node

    # same-edge special case: the direct segment is also a path
    direct = None
    if x.edge is not None and x.edge == y.edge:
        direct = abs(x.offset - y.offset)
    sx = attach("x", x)
    sy = attach("y", y)
    dist = {sx: 0.0}
    heap = [(0.0, sx)]
    while heap:
        d, n = heapq.heappop(heap)
        if d > dist.get(n, math.inf):
            continue
        if n == sy:
            break
        for m, w in nodes[n].items():
            nd = d + w
            if nd < dist.get(m, math.inf):
                dist[m] = nd
                heapq.heappush(heap, (nd, m))
    d = dist.get(sy, math.inf)
    if direct is not None:
        d = min(d, direct)
    return d


# ---------------------------------------------------------------------------
# Exhaustive grid search over map values (1-D and tree targets)
# ---------------------------------------------------------------------------


def _grid_positions_1d(lo: float, hi: float, n: int):
    return [(float(t),) for t in np.linspace(lo, hi, n)]


def _grid_positions_tree(tree: MetricTree, per_edge: int):
    out = [tree.vertex_point(v) for v in tree.vertices]
    for i, (_, _, L) in enumerate(tree.edges):
        for t in np.linspace(0.0, L, per_edge + 2)[1:-1]:
            out.append(tree.point(i, float(t)))
    return out


def grid_minimum_energy(
    prob: EquivariantProblem,
    span: float = 2.5,
    coarse: int = 21,
    refine_rounds: int = 3,
):
    """Exhaustive product-grid minimization of the edge energy with zooming.

    Supports 1-D Euclidean and tree targets and a handful of cells.  The
    energy is convex in the map, so zooming the grid around the coarse
    argmin with a two-cell-wide window cannot lose the minimum.  Returns
    (map, energy, resolution_bound) where the bound is an upper estimate of
    how far the grid energy can sit above the true minimum.
    """
    target = prob.target
    n_cells = len(prob.model.cells)
    if isinstance(target, Euclidean) and target.dim == 1:
        lo = [-span] * n_cells
        hi = [span] * n_cells
        step = [2.0 * span / (coarse - 1)] * n_cells
        best = None
        for _ in range(refine_rounds):
            axes = [_grid_positions_1d(l, h, coarse) for l, h in zip(lo, hi)]
            for combo in itertools.product(*axes):
                e = energy(prob, EquivariantMap(prob.model, target, combo))
                if best is None or e < best[1]:
                    best = (combo, e)
            for c in range(n_cells):
                step[c] = (hi[c] - lo[c]) / (coarse - 1)
                center = best[0][c][0]
                lo[c] = center - 2.0 * step[c]
                hi[c] = center + 2.0 * step[c]
        res = max(step)
    elif isinstance(target, MetricTree):
        per_edge = coarse
        cands = _grid_positions_tree(target, per_edge)
        best = None
        for combo in itertools.product(cands, repeat=n_cells):
            e = energy(prob, EquivariantMap(prob.model, target, combo))
            if best is None or e < best[1]:
                best = (combo, e)
        res = max(L for _, _, L in target.edges) / (per_edge + 1)
    else:
        raise ValueError("grid oracle supports 1-D Euclidean and tree targets only")
    phi = EquivariantMap(prob.model, target, best[0])
    # moving every cell by at most res/2 changes each distance by at most res
    d_bound = 0.0
    idx = {c: i for i, c in enumerate(prob.model.cells)}
    for e in prob.edges:
        si, di = idx[e.src], idx[e.dst]
        dmax = target.distance(e.twist.apply(best[0][si]), best[0][di]) + res
        w = prob.model.weights[si] * e.weight
        d_bound += w * prob.p * dmax ** (prob.p - 1.0) * res
    return phi, best[1], d_bound


# ---------------------------------------------------------------------------
# Moduli of convexity: a direct two-atom search and the real line
# ---------------------------------------------------------------------------


def _sphere_points(theta: np.ndarray, mu: float, nu: float, p: float):
    c, s = np.cos(theta), np.sin(theta)
    u = np.sign(c) * np.abs(c) ** (2.0 / p) / mu ** (1.0 / p)
    v = np.sign(s) * np.abs(s) ** (2.0 / p) / nu ** (1.0 / p)
    return u, v


def two_atom_modulus_search(
    p: float,
    eps: float | np.ndarray,
    grid: int = 128,
    mu_values: Sequence[float] = (0.5, 0.35, 0.2, 0.08),
) -> float | np.ndarray:
    """Modulus of convexity of L_p computed directly: minimize 1 - |(f+g)/2|
    over unit-sphere pairs f, g of a two-atom weighted L_p space subject to
    |f - g| >= eps.

    ``eps`` is a number (the result is a float) or an array of separations
    (the result is an array of the same shape); a scalar is a one-node batch.
    For each atom weight mu the sphere points of the fixed g-direction grid
    are computed once, and the first f-direction grid, which does not depend
    on eps, is shared by every node.  The constraint is active at the optimum,
    so along each grid row the search brackets the roots of |f - g| = eps and
    bisects them, every node's roots in one vector bisection with a per-root
    eps; each node then zooms its f-direction window around its best root.
    Where no pair reaches separation eps (eps >= 2), 0 is returned, the
    trivial lower estimate.  Deterministic; uses no closed forms.
    """
    eps = np.minimum(np.asarray(eps, dtype=float), 2.0)
    flat = eps.reshape(-1)
    best = np.full(flat.shape, math.inf)
    live = np.flatnonzero(flat > 0.0)
    for mu in mu_values:
        best[live] = np.minimum(best[live], _two_atom_search_mu(p, float(mu), flat[live], grid))
    out = np.where(np.isfinite(best), np.maximum(0.0, best), 0.0).reshape(eps.shape)
    return float(out) if out.ndim == 0 else out


_ROW_BLOCK = 8  # grid rows per evaluation block, to keep temporaries small


def _two_atom_search_mu(p: float, mu: float, eps: np.ndarray, grid: int) -> np.ndarray:
    """Per-node minimum of the two-atom search at atom weight mu (inf where
    no pair reaches the node's separation)."""
    nu = 1.0 - mu

    def norm(u, v):
        return (mu * np.abs(u) ** p + nu * np.abs(v) ** p) ** (1.0 / p)

    t2 = np.linspace(0.0, 2.0 * math.pi, 4 * grid)
    u2, v2 = _sphere_points(t2, mu, nu, p)

    def rows_grid(t1):
        u1, v1 = _sphere_points(t1, mu, nu, p)
        sep = np.empty((len(t1), len(t2)))
        obj = np.empty_like(sep)
        for i in range(0, len(t1), _ROW_BLOCK):
            bu = u1[i : i + _ROW_BLOCK, None]
            bv = v1[i : i + _ROW_BLOCK, None]
            sep[i : i + _ROW_BLOCK] = norm(bu - u2, bv - v2)
            obj[i : i + _ROW_BLOCK] = 1.0 - norm(0.5 * (bu + u2), 0.5 * (bv + v2))
        return sep, obj

    n = len(eps)
    best = np.full(n, math.inf)
    lo = [0.0] * n
    hi = [2.0 * math.pi] * n
    n1 = grid
    t1 = np.linspace(0.0, 2.0 * math.pi, n1)
    shared = rows_grid(t1)  # the first window is the same for every node
    alive = list(range(n))
    for level in range(5):
        nodes, th1, a, b, sa = [], [], [], [], []
        for k in alive:
            if level:
                t1 = np.linspace(lo[k], hi[k], n1)
                sep, obj = rows_grid(t1)
            else:
                sep, obj = shared
            e = eps[k]
            # interior-feasible grid minimum (safety net)
            best[k] = min(best[k], np.where(sep >= e, obj, np.inf).min())
            # brackets of the roots of sep == eps along each row
            sign = np.sign(sep - e)
            rows, cols = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
            if rows.size:
                nodes.append(k)
                th1.append(t1[rows])
                a.append(t2[cols])
                b.append(t2[cols + 1])
                sa.append(sep[rows, cols] - e)
        if not nodes:
            break
        counts = [len(t) for t in th1]
        bounds = np.cumsum([0] + counts)
        ev = np.repeat(eps[nodes], counts)  # each root's own eps
        th1v, a, b, sa = (np.concatenate(x) for x in (th1, a, b, sa))
        u1, v1 = _sphere_points(th1v, mu, nu, p)
        for _ in range(60):
            m = 0.5 * (a + b)
            um, vm = _sphere_points(m, mu, nu, p)
            sm = norm(u1 - um, v1 - vm)
            left = (sm - ev) * sa > 0
            a = np.where(left, m, a)
            b = np.where(left, b, m)
            sa = np.where(left, sm - ev, sa)
        um, vm = _sphere_points(0.5 * (a + b), mu, nu, p)
        vals = 1.0 - norm(0.5 * (u1 + um), 0.5 * (v1 + vm))
        # each node zooms its f-direction window around its best root
        for k, s0, s1 in zip(nodes, bounds[:-1], bounds[1:]):
            j = s0 + int(np.argmin(vals[s0:s1]))
            best[k] = min(best[k], vals[j])
            wk = (hi[k] - lo[k]) / (n1 - 1)
            lo[k], hi[k] = float(th1v[j]) - 2.0 * wk, float(th1v[j]) + 2.0 * wk
        alive = nodes
        n1 = 33
    return best


def euclidean_modulus_1d(eps: float, r: float = 1.0) -> float:
    """True modulus of the real line: eps * r / 2 (the extremal pair sits on
    one side of the ball, at chord distance exactly eps * r)."""
    return 0.5 * min(eps, 2.0) * r


def triangle_contains(vertices, q, tol: float = 1e-12) -> bool:
    """Barycentric membership test for a planar triangle."""
    a, b, c = (np.asarray(v, dtype=float) for v in vertices)
    q = np.asarray(q, dtype=float)
    m = np.column_stack([b - a, c - a])
    try:
        lam = np.linalg.solve(m, q - a)
    except np.linalg.LinAlgError:
        return False
    return bool(lam[0] >= -tol and lam[1] >= -tol and lam.sum() <= 1.0 + tol)
