"""Concrete complete geodesic metric spaces and their isometries.

Supported spaces: Euclidean R^d, finite-dimensional l_p vector spaces
(1 < p < infinity), metric trees with weighted edges, and l_q products of
these.  Every space is complete, uniquely geodesic and Busemann
non-positively curved (the distance between two constant-speed geodesics
is convex in the parameter); Euclidean spaces and trees are CAT(0).

Points are plain tuples of floats for vector spaces, :class:`TreePoint`
for trees, and tuples of factor points for products.  All values are
immutable; every operation is a pure function.

Every space has two point checks, both raising :class:`SpaceMismatchError`.
``validate_point`` is the full check of data entering the library: for
vector spaces, a tuple of the right length whose coordinates are all real,
finite numbers.  ``check_point`` is the cheap check that every operation
(``distance``, ``geodesic``) and every map runs on every call: for vector
spaces only the length and the type of the first coordinate.  Inside, values
are trusted; NaN and infinities pass, so a diverged solver iterate can still
be carried, measured and reported.

Every space also measures arrays of point pairs at once with
``distance_batch`` and moves along them with ``geodesic_batch`` (one
parameter per pair, or one for all): vector points are coordinate arrays
(coordinates on the last axis), tree points are the (edge index, offset)
arrays of ``MetricTree.point_batch``, and product points are tuples of
factor batches; ``pack`` turns a sequence of points into this form.  Batch
inputs are trusted like those of ``distance`` after ``check_point``.  Array
powers use ``np.float_power``, which calls the C library's pow like
Python's ``**``, so each term equals the scalar one bit for bit;
``np.power`` rounds differently.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

# Relative tolerance for geodesic checks.  Double precision with ~1e3
# condition headroom.
GEO_TOL = 1e-9

# Offsets within SNAP_TOL * edge_length of an endpoint collapse to the
# vertex, so tree-point equality is well defined.
SNAP_TOL = 1e-12

# Isometry keys round each coordinate to KEY_DECIMALS decimals, so that
# isometries equal up to rounding share a key.
KEY_DECIMALS = 9

# The smallest positive normal float: an l_p power sum below it has lost bits.
_FLOAT_MIN = sys.float_info.min


class GeometryError(Exception):
    """Base class for all library errors."""


class DomainError(GeometryError, ValueError):
    """An argument lies outside an operation's domain."""


class SpaceMismatchError(DomainError):
    """Point/isometry does not belong to the space it was used with."""


class ValidationError(GeometryError, ValueError):
    """Invalid construction data (bad tree topology, non-orthogonal matrix...)."""


class SolverError(GeometryError, RuntimeError):
    """Iterative routine failed; carries the best iterate found so far and,
    when the routine names one, why it stopped (``stop_reason``)."""

    def __init__(self, message: str, best=None, stop_reason=None):
        super().__init__(message)
        self.best = best
        self.stop_reason = stop_reason


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------


class _VectorSpace:
    """R^dim under a strictly convex norm: the point checks (a point is a
    tuple of ``dim`` real, finite numbers), the affine geodesics, sampling
    and the origin."""

    def validate_point(self, x) -> None:
        self.check_point(x)
        try:
            if all(map(math.isfinite, x)):
                return
        except TypeError:  # a coordinate that is not a real number
            pass
        raise SpaceMismatchError(f"not a point of {self!r}, a coordinate is not a finite real: {x!r}")

    def check_point(self, x) -> None:
        if type(x) is not tuple or len(x) != self.dim or not isinstance(x[0], (float, int)):
            raise SpaceMismatchError(f"not a point of {self!r}: {x!r}")

    def geodesic(self, x, y, t: float):
        # Affine segments are the unique geodesics of a strictly convex norm.
        self.check_point(x)
        self.check_point(y)
        _check_param(t)
        return tuple((1.0 - t) * a + t * b for a, b in zip(x, y))

    def sample(self, rng: np.random.Generator, scale: float = 1.0):
        return tuple(float(c) for c in rng.normal(0.0, scale, self.dim))

    def origin(self):
        return (0.0,) * self.dim

    def _check_batch(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[-1:] != (self.dim,) or y.shape[-1:] != (self.dim,):
            raise SpaceMismatchError(f"point arrays of {self!r} need a last axis of length {self.dim}")
        return x, y

    def geodesic_batch(self, x, y, t) -> np.ndarray:
        """``geodesic`` over arrays of point pairs: (1 - t) x + t y, the
        scalar arithmetic, so each coordinate equals ``geodesic``'s."""
        x, y = self._check_batch(x, y)
        t = _check_param_batch(t)[..., None]
        return (1.0 - t) * x + t * y

    def pack(self, points) -> np.ndarray:
        """The coordinate array of a sequence of points."""
        return np.array(points, dtype=float).reshape(len(points), self.dim)


@dataclass(frozen=True)
class Euclidean(_VectorSpace):
    """R^dim with the Euclidean metric."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("Euclidean dimension must be >= 1")

    @property
    def kind(self) -> str:
        return "euclidean"

    def distance(self, x, y) -> float:
        self.check_point(x)
        self.check_point(y)
        return math.dist(x, y)

    def distance_batch(self, x, y) -> np.ndarray:
        """``distance`` over arrays of points (coordinates on the last axis)."""
        x, y = self._check_batch(x, y)
        return np.linalg.norm(x - y, axis=-1)

    # held by each kind, so that per-kind tracing (perfbench/layers.py)
    # wraps the Euclidean and l_p geodesics apart
    geodesic = _VectorSpace.geodesic


@dataclass(frozen=True)
class LpVector(_VectorSpace):
    """R^dim with the l_p norm, 1 < p < infinity (strictly convex, BNPC)."""

    dim: int
    p: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("LpVector dimension must be >= 1")
        if not (1.0 < self.p < math.inf):
            raise ValidationError("LpVector exponent must lie in (1, inf)")

    @property
    def kind(self) -> str:
        return "lp"

    def distance(self, x, y) -> float:
        """(sum |x_i - y_i|^p)^(1/p), scaled where the power sum leaves the
        normal range (:func:`_lq_norm`)."""
        self.check_point(x)
        self.check_point(y)
        p = self.p
        try:
            s = math.fsum(abs(a - b) ** p for a, b in zip(x, y))
        except OverflowError:
            s = math.inf
        if _FLOAT_MIN <= s < math.inf:
            return s ** (1.0 / p)
        return _lq_norm([abs(a - b) for a, b in zip(x, y)], p)

    def distance_batch(self, x, y) -> np.ndarray:
        """``distance`` over arrays of points (coordinates on the last axis);
        a power sum outside the normal range takes ``distance``'s scaling."""
        x, y = self._check_batch(x, y)
        with np.errstate(over="ignore"):  # the scaled rows replace those that overflow
            s = np.sum(np.float_power(np.abs(x - y), self.p), axis=-1)
        out = np.float_power(s, 1.0 / self.p)
        sums = s.ravel().tolist()  # checked in Python, which maps no further numpy loops
        if sums and not (_FLOAT_MIN <= min(sums) and max(sums) < math.inf):
            xs, ys = (a.reshape(-1, self.dim).tolist() for a in np.broadcast_arrays(x, y))
            out = np.array([
                d if _FLOAT_MIN <= v < math.inf else self.distance(tuple(a), tuple(b))
                for d, v, a, b in zip(np.ravel(out).tolist(), sums, xs, ys)
            ]).reshape(s.shape)[()]
        return out

    geodesic = _VectorSpace.geodesic


@dataclass(frozen=True)
class TreePoint:
    """Point of a metric tree: either a vertex or an interior edge point.

    Interior points store the index of the host edge and the offset from the
    edge's first endpoint, with 0 < offset < length.  Offsets at 0 or at the
    full length are canonicalized to the vertex form by ``MetricTree.point``.
    """

    edge: int | None
    offset: float
    vertex: Hashable | None


@dataclass(frozen=True)
class MetricTree:
    """A finite metric tree: weighted connected acyclic graph with path metric."""

    vertices: tuple
    edges: tuple  # tuples (u, v, length), length > 0

    _adj: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _vdist: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _parent: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        verts = tuple(self.vertices)
        edges = tuple((u, v, float(L)) for (u, v, L) in self.edges)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)
        if len(set(verts)) != len(verts):
            raise ValidationError("duplicate tree vertices")
        if len(edges) != len(verts) - 1:
            raise ValidationError("a tree on n vertices needs exactly n-1 edges")
        adj: dict = {v: [] for v in verts}
        for i, (u, v, L) in enumerate(edges):
            if not (L > 0.0 and math.isfinite(L)):
                raise ValidationError(f"edge ({u},{v}) needs a finite positive length, got {L}")
            if u not in adj or v not in adj:
                raise ValidationError(f"edge ({u},{v}) uses unknown vertex")
            adj[u].append((v, i))
            adj[v].append((u, i))
        # connectivity (acyclicity then follows from the edge count)
        seen = set()
        stack = [verts[0]] if verts else []
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            stack.extend(n for n, _ in adj[w] if n not in seen)
        if len(seen) != len(verts):
            raise ValidationError("tree topology is not connected")
        # all-pairs vertex distances and parent maps, by traversal from each root
        vdist: dict = {}
        parent: dict = {}
        for root in verts:
            dist = {root: 0.0}
            par = {root: None}
            stack = [root]
            while stack:
                w = stack.pop()
                for n, i in adj[w]:
                    if n not in dist:
                        dist[n] = dist[w] + edges[i][2]
                        par[n] = w
                        stack.append(n)
            parent[root] = par
            for v, d in dist.items():
                vdist[(root, v)] = d
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_vdist", vdist)
        object.__setattr__(self, "_parent", parent)

    @property
    def kind(self) -> str:
        return "tree"

    def edge_between(self, u, v):
        """Index of the edge joining two adjacent vertices, or None."""
        for n, i in self._adj[u]:
            if n == v:
                return i
        return None

    def vertex_point(self, v) -> TreePoint:
        if v not in self._adj:
            raise SpaceMismatchError(f"unknown tree vertex {v!r}")
        return TreePoint(None, 0.0, v)

    def point(self, edge: int, offset: float) -> TreePoint:
        """Interior point on ``edges[edge]`` at ``offset`` from its first endpoint.

        Offsets within SNAP_TOL of an endpoint are canonicalized to vertices.
        """
        return TreePoint(*self.snap(edge, offset))

    def snap(self, edge: int, offset: float) -> tuple:
        """The fields (edge, offset, vertex) of ``point(edge, offset)``, so
        two snapped offsets compare as their points do, without the points."""
        u, v, L = self.edges[edge]
        if not -SNAP_TOL * L <= offset <= L * (1.0 + SNAP_TOL):  # NaN included
            raise DomainError(f"offset {offset} outside edge of length {L}")
        if offset <= SNAP_TOL * L:
            return None, 0.0, u
        if offset >= L * (1.0 - SNAP_TOL):
            return None, 0.0, v
        return edge, float(offset), None

    def point_batch(self, edge, offset):
        """``point`` over arrays: the pair (edge indices, offsets), with each
        offset within SNAP_TOL of an endpoint snapped to 0 or to the edge
        length.  ``distance_batch`` takes points in this form."""
        edge = np.asarray(edge, dtype=np.intp)
        offset = np.asarray(offset, dtype=float)
        length = self._batch_tables[2][edge]
        if not np.all((-SNAP_TOL * length <= offset) & (offset <= length * (1.0 + SNAP_TOL))):
            raise DomainError("offset outside its edge")
        offset = np.where(offset <= SNAP_TOL * length, 0.0, offset)
        offset = np.where(offset >= length * (1.0 - SNAP_TOL), length, offset)
        return edge, offset

    @functools.cached_property
    def _batch_tables(self):
        """Edge endpoint indices, edge lengths and the vertex-distance matrix."""
        index = {w: k for k, w in enumerate(self.vertices)}
        u = np.array([index[e[0]] for e in self.edges], dtype=np.intp)
        v = np.array([index[e[1]] for e in self.edges], dtype=np.intp)
        length = np.array([e[2] for e in self.edges])
        vd = np.array([[self._vdist[(a, b)] for b in self.vertices] for a in self.vertices])
        return u, v, length, vd

    @functools.cached_property
    def _hops(self):
        """hops[a, b]: the index of the edge by which the path from vertex
        index a to vertex index b leaves a (-1 when a == b)."""
        index = {w: k for k, w in enumerate(self.vertices)}
        hops = np.full((len(index), len(index)), -1, dtype=np.intp)
        for j, b in enumerate(self.vertices):
            for w, toward_b in self._parent[b].items():
                if toward_b is not None:
                    hops[index[w], j] = self.edge_between(w, toward_b)
        return hops

    def pack(self, points):
        """The ``point_batch`` pair of a sequence of tree points; a vertex
        becomes an endpoint offset of its first incident edge."""
        edge, offset = [], []
        for x in points:
            if x.vertex is None:
                edge.append(x.edge)
                offset.append(x.offset)
            else:
                _, i = self._adj[x.vertex][0]
                u, _, L = self.edges[i]
                edge.append(i)
                offset.append(0.0 if x.vertex == u else L)
        return np.array(edge, dtype=np.intp), np.array(offset, dtype=float)

    def validate_point(self, x) -> None:
        if not isinstance(x, TreePoint):
            raise SpaceMismatchError(f"not a tree point: {x!r}")
        if x.vertex is not None:
            if x.vertex not in self._adj:
                raise SpaceMismatchError(f"unknown tree vertex {x.vertex!r}")
        else:
            if not (0 <= x.edge < len(self.edges)):
                raise SpaceMismatchError(f"unknown tree edge index {x.edge!r}")
            if not (0.0 < x.offset < self.edges[x.edge][2]):
                raise SpaceMismatchError(
                    f"offset {x.offset} outside open edge (canonical form required)"
                )

    check_point = validate_point

    def _ports(self, x: TreePoint):
        """(vertex, cost-to-exit) pairs through which paths from x may leave."""
        if x.vertex is not None:
            return ((x.vertex, 0.0),)
        u, v, L = self.edges[x.edge]
        return ((u, x.offset), (v, L - x.offset))

    def distance(self, x: TreePoint, y: TreePoint) -> float:
        self.validate_point(x)
        self.validate_point(y)
        if x.edge is not None and x.edge == y.edge:
            return abs(x.offset - y.offset)
        return min(
            cx + self._vdist[(a, b)] + cy
            for a, cx in self._ports(x)
            for b, cy in self._ports(y)
        )

    def distance_batch(self, x, y) -> np.ndarray:
        """``distance`` over arrays of points given as ``point_batch`` pairs:
        |offset difference| on a common edge, else the least of the four
        port sums cx + d(a, b) + cy."""
        (ex, ox), (ey, oy) = x, y
        u, v, length, vd = self._batch_tables
        ports_x = ((u[ex], ox), (v[ex], length[ex] - ox))
        ports_y = ((u[ey], oy), (v[ey], length[ey] - oy))
        d = np.minimum.reduce([cx + vd[a, b] + cy for a, cx in ports_x for b, cy in ports_y])
        return np.where(ex == ey, np.abs(ox - oy), d)

    def _route(self, x: TreePoint, y: TreePoint):
        """Best exit/entry ports and the vertex path between them."""
        best = None
        for a, cx in self._ports(x):
            for b, cy in self._ports(y):
                d = cx + self._vdist[(a, b)] + cy
                if best is None or d < best[0]:
                    best = (d, a, cx, b, cy)
        _, a, cx, b, cy = best
        par = self._parent[a]
        path = [b]
        while path[-1] != a:
            path.append(par[path[-1]])
        path.reverse()
        return a, cx, b, cy, path

    def geodesic(self, x: TreePoint, y: TreePoint, t: float) -> TreePoint:
        self.validate_point(x)
        self.validate_point(y)
        _check_param(t)
        target = t * self.distance(x, y)
        if target == 0.0:
            return x
        if x.edge is not None and x.edge == y.edge:
            return self.point(x.edge, x.offset + math.copysign(target, y.offset - x.offset))
        a, cx, b, cy, path = self._route(x, y)
        if target <= cx:
            # still on x's edge, moving toward port a
            u, v, L = self.edges[x.edge]
            off = x.offset - target if a == u else x.offset + target
            return self.point(x.edge, off)
        target -= cx
        for w, nxt in zip(path, path[1:]):
            i = self.edge_between(w, nxt)
            u, v, L = self.edges[i]
            if target <= L:
                off = target if w == u else L - target
                return self.point(i, off)
            target -= L
        if y.vertex is not None:  # the path ends at y; what is left is rounding
            return y
        # remaining distance lies on y's edge, entering through port b
        u, v, L = self.edges[y.edge]
        off = target if b == u else L - target
        return self.point(y.edge, off)

    def geodesic_batch(self, x, y, t):
        """``geodesic`` over arrays of point pairs given as ``point_batch``
        pairs.  Along a common edge the offset moves by t * d; otherwise the
        ports are those ``_route`` picks (the first least of the four port
        sums) and the remaining length is walked edge by edge from port a
        toward port b through the next-hop table, subtracted as ``geodesic``
        subtracts it.  The result is snapped by ``point_batch``."""
        t = _check_param_batch(t)
        (ex, ox), (ey, oy) = x, y
        u, v, length, vd = self._batch_tables
        hops = self._hops
        lx, ly = length[ex], length[ey]
        ports_x = ((u[ex], ox), (v[ex], lx - ox))
        ports_y = ((u[ey], oy), (v[ey], ly - oy))
        sums = [cx + vd[a, b] + cy for a, cx in ports_x for b, cy in ports_y]
        k = np.argmin(sums, axis=0)
        from_u, into_u = k < 2, (k == 0) | (k == 2)
        a = np.where(from_u, ports_x[0][0], ports_x[1][0])
        b = np.where(into_u, ports_y[0][0], ports_y[1][0])
        cx = np.where(from_u, ox, lx - ox)
        same = ex == ey
        target = t * np.where(same, np.abs(ox - oy), np.minimum.reduce(sums))
        # on x's edge, toward port a
        edge, offset = ex, np.where(from_u, ox - target, ox + target)
        left = target - cx
        pending = target > cx
        w = a
        while True:  # one edge of each pending path per pass
            e = hops[w, b]
            valid = pending & (e >= 0)
            if not valid.any():
                break
            L = length[e]
            forward = u[e] == w
            hit = valid & (left <= L)
            edge = np.where(hit, e, edge)
            offset = np.where(hit, np.where(forward, left, L - left), offset)
            pending = pending & ~hit
            left = np.where(valid & ~hit, left - L, left)
            w = np.where(valid, np.where(forward, v[e], u[e]), w)
        # the rest lies on y's edge, entered through port b
        edge = np.where(pending, ey, edge)
        offset = np.where(pending, np.where(into_u, left, ly - left), offset)
        edge = np.where(same, ex, edge)
        offset = np.where(same, ox + np.where(oy < ox, -target, target), offset)
        return self.point_batch(edge, offset)

    @functools.cached_property
    def _edge_cdf(self):
        """Cumulative length fractions of the edges, normalised as
        ``Generator.choice`` normalises its ``p``."""
        lengths = np.array([e[2] for e in self.edges])
        cdf = np.cumsum(lengths / lengths.sum())
        cdf /= cdf[-1]
        return cdf.tolist()

    def sample_raw(self, rng: np.random.Generator) -> tuple:
        """The (edge, offset) draw behind ``sample``, before snapping: an
        edge with probability proportional to its length, then a uniform
        offset on it.  ``rng.random()`` bisected into the cached CDF is the
        draw ``rng.choice(n, p=lengths / total)`` makes, value for value."""
        i = bisect.bisect_right(self._edge_cdf, rng.random())
        return i, float(rng.uniform(0.0, self.edges[i][2]))

    def sample(self, rng: np.random.Generator, scale: float = 1.0) -> TreePoint:
        return self.point(*self.sample_raw(rng))

    def origin(self) -> TreePoint:
        return self.vertex_point(self.vertices[0])


@dataclass(frozen=True)
class Product:
    """l_q product of factor spaces: d(x,y)^q = sum_i d_i(x_i,y_i)^q.

    q = 2 preserves CAT(0); other q in (1, inf) give BNPC-only products.
    """

    factors: tuple
    q: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 2:
            raise ValidationError("Product needs at least 2 factors")
        if not (1.0 < self.q < math.inf):
            raise ValidationError("Product mixing exponent must lie in (1, inf)")

    @property
    def kind(self) -> str:
        return "product"

    def validate_point(self, x) -> None:
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise SpaceMismatchError(f"product point arity mismatch: {x!r}")
        for f, part in zip(self.factors, x):
            f.validate_point(part)

    def check_point(self, x) -> None:
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise SpaceMismatchError(f"product point arity mismatch: {x!r}")
        for f, part in zip(self.factors, x):
            f.check_point(part)

    def distance(self, x, y) -> float:
        """(sum_i d_i(x_i, y_i)^q)^(1/q), scaled where the power sum leaves
        the normal range (:func:`_lq_norm`); each factor's distance checks its part."""
        if not (isinstance(x, tuple) and isinstance(y, tuple) and len(x) == len(y) == len(self.factors)):
            raise SpaceMismatchError(f"product point arity mismatch: {x!r}, {y!r}")
        return _lq_norm([f.distance(a, b) for f, a, b in zip(self.factors, x, y)], self.q)

    def _check_batch(self, x, y) -> None:
        if len(x) != len(self.factors) or len(y) != len(self.factors):
            raise SpaceMismatchError(f"product batches of {self!r} need one batch per factor")

    def distance_batch(self, x, y) -> np.ndarray:
        """``distance`` over tuples of factor batches, one batch per factor;
        a power sum outside the normal range takes ``distance``'s scaling."""
        self._check_batch(x, y)
        dists = [f.distance_batch(a, b) for f, a, b in zip(self.factors, x, y)]
        with np.errstate(over="ignore"):  # the scaled rows replace those that overflow
            s = sum(np.float_power(d, self.q) for d in dists)
        out = np.float_power(s, 1.0 / self.q)
        sums = np.ravel(s).tolist()  # checked in Python, as in LpVector.distance_batch
        if sums and not (_FLOAT_MIN <= min(sums) and max(sums) < math.inf):
            parts = zip(*(np.broadcast_to(d, np.shape(s)).ravel().tolist() for d in dists))
            out = np.array([
                d if _FLOAT_MIN <= v < math.inf else _lq_norm(row, self.q)
                for d, v, row in zip(np.ravel(out).tolist(), sums, parts)
            ]).reshape(np.shape(s))[()]
        return out

    def geodesic_batch(self, x, y, t):
        """``geodesic`` factor by factor, as a tuple of factor batches."""
        self._check_batch(x, y)
        return tuple(f.geodesic_batch(a, b, t) for f, a, b in zip(self.factors, x, y))

    def pack(self, points):
        """One ``pack``ed batch per factor."""
        return tuple(f.pack([x[k] for x in points]) for k, f in enumerate(self.factors))

    def geodesic(self, x, y, t: float):
        # Factorwise geodesics at a common parameter are the geodesics of
        # the product (each factor moves at constant speed).
        self.check_point(x)
        self.check_point(y)
        _check_param(t)
        return tuple(f.geodesic(a, b, t) for f, a, b in zip(self.factors, x, y))

    def sample(self, rng: np.random.Generator, scale: float = 1.0):
        return tuple(f.sample(rng, scale) for f in self.factors)

    def origin(self):
        return tuple(f.origin() for f in self.factors)


def _lq_norm(parts, q: float) -> float:
    """(sum_i a_i^q)^(1/q) of the nonnegative ``parts``.  Where that power
    sum passes the float range, or falls below the normal range while a
    part is not 0, the parts are first scaled by the largest of them (Blue,
    ACM TOMS 4, 1978), so the result is inf only when it is past the range."""
    try:
        s = math.fsum(a ** q for a in parts)
    except OverflowError:
        s = math.inf
    if not _FLOAT_MIN <= s < math.inf:
        m = max(parts)
        if 0.0 < m < math.inf:
            return m * math.fsum((a / m) ** q for a in parts) ** (1.0 / q)
    return s ** (1.0 / q)


def _check_param(t: float) -> None:
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"geodesic parameter {t} outside [0, 1]")


def _check_param_batch(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise DomainError("a geodesic parameter lies outside [0, 1]")
    return t


# ---------------------------------------------------------------------------
# Isometries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EuclideanIsometry:
    """x -> M x + b with M orthogonal: max |M^T M - I| <= 1e-8, so M moves
    a length |v| by at most dim * 1e-8 * |v| / 2."""

    matrix: tuple
    shift: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.shift, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != b.shape[0]:
            raise ValidationError("isometry matrix/shift shapes do not match")
        if not (np.isfinite(m).all() and np.isfinite(b).all()):
            raise ValidationError("isometry matrix/shift entries must be finite")
        if np.max(np.abs(m.T @ m - np.eye(m.shape[0]))) > 1e-8:
            raise ValidationError("matrix is not orthogonal")
        object.__setattr__(self, "matrix", tuple(tuple(float(x) for x in row) for row in m))
        object.__setattr__(self, "shift", tuple(float(x) for x in b))

    @property
    def dim(self) -> int:
        return len(self.shift)

    def apply(self, x):
        m, b = self.matrix, self.shift
        return tuple(
            sum(m[i][j] * x[j] for j in range(len(x))) + b[i] for i in range(len(b))
        )

    def compose(self, other: "EuclideanIsometry") -> "EuclideanIsometry":
        _check_same_kind(self, other)
        m1 = np.asarray(self.matrix)
        m2 = np.asarray(other.matrix)
        b1 = np.asarray(self.shift)
        b2 = np.asarray(other.shift)
        return EuclideanIsometry(tuple(map(tuple, m1 @ m2)), tuple(m1 @ b2 + b1))

    def invert(self) -> "EuclideanIsometry":
        m = np.asarray(self.matrix)
        b = np.asarray(self.shift)
        return EuclideanIsometry(tuple(map(tuple, m.T)), tuple(-(m.T @ b)))

    def key(self):
        return (
            "euclidean",
            tuple(round(x, KEY_DECIMALS) + 0.0 for row in self.matrix for x in row),
            tuple(round(x, KEY_DECIMALS) + 0.0 for x in self.shift),
        )


@dataclass(frozen=True)
class SignedPermIsometry:
    """x -> (s_i * x_{perm[i]} + b_i)_i, the linear isometries of l_p (p != 2)."""

    perm: tuple
    signs: tuple
    shift: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValidationError("perm is not a permutation")
        if len(self.signs) != n or any(s not in (-1, 1) for s in self.signs):
            raise ValidationError("signs must be +-1")
        if len(self.shift) != n:
            raise ValidationError("shift length mismatch")
        object.__setattr__(self, "perm", tuple(int(p) for p in self.perm))
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))
        object.__setattr__(self, "shift", tuple(float(x) for x in self.shift))
        if not all(math.isfinite(x) for x in self.shift):
            raise ValidationError("isometry shift entries must be finite")

    @property
    def dim(self) -> int:
        return len(self.perm)

    def apply(self, x):
        return tuple(
            s * x[p] + b for s, p, b in zip(self.signs, self.perm, self.shift)
        )

    def compose(self, other: "SignedPermIsometry") -> "SignedPermIsometry":
        _check_same_kind(self, other)
        # (T o S)(x)_i = s_i * S(x)_{perm_i} + b_i
        perm = tuple(other.perm[p] for p in self.perm)
        signs = tuple(s * other.signs[p] for s, p in zip(self.signs, self.perm))
        shift = tuple(
            s * other.shift[p] + b for s, p, b in zip(self.signs, self.perm, self.shift)
        )
        return SignedPermIsometry(perm, signs, shift)

    def invert(self) -> "SignedPermIsometry":
        n = len(self.perm)
        inv = [0] * n
        for i, p in enumerate(self.perm):
            inv[p] = i
        signs = tuple(self.signs[inv[j]] for j in range(n))
        shift = tuple(-self.signs[inv[j]] * self.shift[inv[j]] for j in range(n))
        return SignedPermIsometry(tuple(inv), signs, shift)

    def key(self):
        return (
            "signedperm",
            self.perm,
            self.signs,
            tuple(round(x, KEY_DECIMALS) + 0.0 for x in self.shift),
        )


@dataclass(frozen=True)
class TreeIsometry:
    """Tree automorphism given extensionally as a vertex bijection.

    Validated at construction: the map must send every edge to an edge of
    the same length, so it preserves the path metric exactly.
    """

    tree: MetricTree
    vertex_map: tuple  # sorted tuple of (vertex, image) pairs

    def __post_init__(self):
        vm = dict(self.vertex_map)
        tree = self.tree
        if set(vm) != set(tree.vertices) or set(vm.values()) != set(tree.vertices):
            raise ValidationError("vertex map is not a bijection of the tree's vertices")
        for u, v, L in tree.edges:
            j = tree.edge_between(vm[u], vm[v])
            if j is None:
                raise ValidationError(f"image of edge ({u},{v}) is not an edge")
            if abs(tree.edges[j][2] - L) > 1e-12 * max(1.0, L):
                raise ValidationError(f"image of edge ({u},{v}) has different length")
        object.__setattr__(
            self, "vertex_map", tuple(sorted(vm.items(), key=lambda kv: str(kv[0])))
        )
        object.__setattr__(self, "_vmap", vm)

    def apply(self, x: TreePoint) -> TreePoint:
        vm = self._vmap
        if x.vertex is not None:
            return self.tree.vertex_point(vm[x.vertex])
        u, v, L = self.tree.edges[x.edge]
        j = self.tree.edge_between(vm[u], vm[v])
        ju, jv, jL = self.tree.edges[j]
        off = x.offset if ju == vm[u] else jL - x.offset
        return self.tree.point(j, off)

    def compose(self, other: "TreeIsometry") -> "TreeIsometry":
        _check_same_kind(self, other)
        if self.tree != other.tree:
            raise SpaceMismatchError("tree isometries live on different trees")
        vm = {v: self._vmap[other._vmap[v]] for v in self.tree.vertices}
        return TreeIsometry(self.tree, tuple(sorted(vm.items(), key=lambda kv: str(kv[0]))))

    def invert(self) -> "TreeIsometry":
        vm = {img: v for v, img in self._vmap.items()}
        return TreeIsometry(self.tree, tuple(sorted(vm.items(), key=lambda kv: str(kv[0]))))

    def key(self):
        return ("tree", self.vertex_map)


@dataclass(frozen=True)
class ProductIsometry:
    """Factorwise isometry of a product space (factors are not permuted)."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    def apply(self, x):
        if len(x) != len(self.parts):
            raise SpaceMismatchError("product point arity mismatch")
        return tuple(T.apply(part) for T, part in zip(self.parts, x))

    def compose(self, other: "ProductIsometry") -> "ProductIsometry":
        _check_same_kind(self, other)
        return ProductIsometry(tuple(T.compose(S) for T, S in zip(self.parts, other.parts)))

    def invert(self) -> "ProductIsometry":
        return ProductIsometry(tuple(T.invert() for T in self.parts))

    def key(self):
        return ("product",) + tuple(T.key() for T in self.parts)


def _check_same_kind(a, b) -> None:
    if type(a) is not type(b):
        raise SpaceMismatchError(f"cannot combine {type(a).__name__} with {type(b).__name__}")
    if hasattr(a, "dim") and a.dim != b.dim:
        raise SpaceMismatchError("isometry dimensions do not match")


# ---------------------------------------------------------------------------
# Isometry constructors
# ---------------------------------------------------------------------------


def identity_isometry(space):
    if isinstance(space, Euclidean):
        return EuclideanIsometry(tuple(map(tuple, np.eye(space.dim))), (0.0,) * space.dim)
    if isinstance(space, LpVector):
        return SignedPermIsometry(tuple(range(space.dim)), (1,) * space.dim, (0.0,) * space.dim)
    if isinstance(space, MetricTree):
        return TreeIsometry(space, tuple((v, v) for v in space.vertices))
    if isinstance(space, Product):
        return ProductIsometry(tuple(identity_isometry(f) for f in space.factors))
    raise SpaceMismatchError(f"unknown space {space!r}")


def translation(space, vec: Sequence[float]):
    """Translation isometry of a vector space (or factorwise for products)."""
    if isinstance(space, Euclidean):
        return EuclideanIsometry(tuple(map(tuple, np.eye(space.dim))), tuple(float(v) for v in vec))
    if isinstance(space, LpVector):
        return SignedPermIsometry(
            tuple(range(space.dim)), (1,) * space.dim, tuple(float(v) for v in vec)
        )
    if isinstance(space, Product):
        raise DomainError("build product translations from factor isometries explicitly")
    raise SpaceMismatchError(f"translations are not defined for {space!r}")


def point_reflection(space, center: Sequence[float]):
    """x -> 2c - x; in one dimension this is the mirror through c."""
    if isinstance(space, Euclidean):
        m = tuple(map(tuple, -np.eye(space.dim)))
        return EuclideanIsometry(m, tuple(2.0 * float(c) for c in center))
    if isinstance(space, LpVector):
        return SignedPermIsometry(
            tuple(range(space.dim)), (-1,) * space.dim, tuple(2.0 * float(c) for c in center)
        )
    raise SpaceMismatchError(f"point reflections are not defined for {space!r}")


def rotation_2d(theta: float) -> EuclideanIsometry:
    c, s = math.cos(theta), math.sin(theta)
    return EuclideanIsometry(((c, -s), (s, c)), (0.0, 0.0))


def householder_reflection(normal: Sequence[float]) -> EuclideanIsometry:
    """Reflection through the hyperplane with the given normal (through 0)."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    m = np.eye(len(n)) - 2.0 * np.outer(n, n)
    return EuclideanIsometry(tuple(map(tuple, m)), (0.0,) * len(n))


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def midpoint(space, x, y):
    return space.geodesic(x, y, 0.5)


def step_toward(space, x, y, dist: float):
    """Move from x toward y by ``dist`` along the geodesic (clamped at y)."""
    d = space.distance(x, y)
    if d <= dist:
        return y
    return space.geodesic(x, y, dist / d)


def perturb(space, x, rng: np.random.Generator, radius: float):
    """A point at distance <= radius from x, for randomized searches."""
    if isinstance(space, (Euclidean, LpVector)):
        return tuple(c + float(d) for c, d in zip(x, rng.normal(0.0, radius, len(x))))
    if isinstance(space, Product):
        return tuple(
            perturb(f, part, rng, radius) for f, part in zip(space.factors, x)
        )
    z = space.sample(rng)
    if space.distance(x, z) == 0.0:
        return x
    return step_toward(space, x, z, float(rng.uniform(0.0, radius)))


def isometry_of(space, T) -> bool:
    """Whether T is an isometry of ``space``, decided exactly from T's kind
    and data, as each isometry class validates itself when built.  By
    Mazur-Ulam and Lamperti the isometries of l_p, p != 2, are the signed
    permutations plus a shift; an orthogonal matrix with entries exactly 0
    or +-1 is one."""
    if isinstance(space, Euclidean):
        return isinstance(T, EuclideanIsometry) and T.dim == space.dim
    if isinstance(space, LpVector):
        if isinstance(T, SignedPermIsometry):
            return T.dim == space.dim
        return isinstance(T, EuclideanIsometry) and T.dim == space.dim and (
            space.p == 2.0 or all(x in (0.0, 1.0, -1.0) for row in T.matrix for x in row)
        )
    if isinstance(space, MetricTree):
        return isinstance(T, TreeIsometry) and T.tree == space
    if isinstance(space, Product):
        return (
            isinstance(T, ProductIsometry)
            and len(T.parts) == len(space.factors)
            and all(isometry_of(f, part) for f, part in zip(space.factors, T.parts))
        )
    return False


def star_tree(leaves: int = 3, edge_length: float = 1.0) -> MetricTree:
    """Star with a central vertex 'c' and unit (or given length) leaf edges."""
    verts = ("c",) + tuple(f"l{i}" for i in range(1, leaves + 1))
    edges = tuple(("c", f"l{i}", edge_length) for i in range(1, leaves + 1))
    return MetricTree(verts, edges)


def random_tree(
    n_vertices: int,
    rng: np.random.Generator,
    min_length: float = 0.2,
    max_length: float = 2.0,
) -> MetricTree:
    """Random tree topology: each new vertex attaches to a uniformly chosen
    existing one, with a uniformly random edge length."""
    if n_vertices < 2:
        raise ValidationError("a tree needs at least 2 vertices")
    verts = tuple(f"v{i}" for i in range(n_vertices))
    edges = []
    for i in range(1, n_vertices):
        parent = int(rng.integers(0, i))
        edges.append((verts[parent], verts[i], float(rng.uniform(min_length, max_length))))
    return MetricTree(verts, tuple(edges))
