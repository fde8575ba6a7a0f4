"""Discrete equivariant energy minimization.

Every energy here is one list of terms (:class:`Term`) over the cells of a
probability model mapped into a target space:

    E(phi) = sum_t  w_t * d(T_t phi(c2_t), phi(c1_t))^p.

An :class:`EquivariantProblem` is a finite weighted quotient graph with
isometry-labeled edges; its edge src -> dst with weight w and twist T is the
term c1 = dst, c2 = src, weight mu(src) * w, so its energy is

    E(phi) = sum_e  mu(src_e) * w_e * d(T_e phi(src_e), phi(dst_e))^p,

which is convex along geodesics of the map space when the target is BNPC.
The all-pairs kernel energy of :mod:`busemann.commensurability` is another
term list.  :func:`minimize_energy` is the one minimizer of both: it computes
minimizers ("harmonic maps") by cyclic block-coordinate descent, where each
cell moves to the weighted Frechet mean of its transported neighbors
(self-loops contribute displacement terms d(T z, z)^p, handled exactly inside
the local subproblem).  At p = 2 most local subproblems are solved exactly
or by a convergent method: a linear solve on Euclidean targets, a closed
form on each tree edge for cells without self-loops, and damped Newton steps
on l_p targets and l_q products of Euclidean and l_p factors.
:func:`_solve_local` lists every path and its fallbacks, and each report
counts the local solves by path (``extras["local_solves"]``) and the moves
that a sweep refused because they would raise a local objective
(``extras["rejected_moves"]``).

There are two sweep engines.  The scalar engine works on any target and is
the reference.  The compiled engine applies when the target is
:class:`Euclidean`, p = 2 and every transport is a
:class:`EuclideanIsometry`: the terms are compiled once
(:attr:`TermEnergy.arrays`) into flat term arrays (:func:`compile_terms`),
the only compiled form of an energy.  A solve's class weights and anchor
become more rows of those arrays, and each solve groups their entries by
cell into one plan (:func:`_cell_steps`).  Two kernels step the cells of
that plan: one-dimensional cells with at most :data:`FLOAT_STEP_MAX` entries
on Python floats, all others on numpy arrays (:func:`_compiled_sweeps`).
Both sum in the scalar engine's order, so both engines give the same
numbers, bit for bit in one dimension and to rounding in more.  Trees, l_p
and product targets and p != 2 use the scalar engine.

Besides the plain minimizer this module provides the norm-minimal selection,
lexicographic minimization across edge classes, and report-style checks of
the structure shared by all minimizers (midpoints of minimizers minimize;
transported edge segments of two minimizers are parallel).  The
vanishing-penalty homotopy toward the base point is one function,
:func:`_penalty_homotopy`, which runs the norm-minimal selection here and
in :func:`busemann.commensurability.subgroup_harmonic`.  The staged solvers
report through :func:`_staged_report`: every report's ``iterations`` counts
all the sweeps that its solve ran.

Exponents p != 2 are accepted throughout and handled by the generic local
search; treat those paths as experimental (the convexity of the energy
still holds, but the closed-form local solvers and most oracle tests are
p = 2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from busemann.convexity import minimize_convex, parallel_check
from busemann.mapspace import (
    EquivariantMap,
    MeasureModel,
    const_map,
    map_distance,
    map_midpoint,
    map_norm,
)
from busemann.spaces import (
    DomainError,
    Euclidean,
    EuclideanIsometry,
    LpVector,
    MetricTree,
    Product,
    ProductIsometry,
    SolverError,
    SpaceMismatchError,
    ValidationError,
    is_identity,
    isometry_defect,
    perturb,
)

__all__ = [
    "Edge",
    "Term",
    "TermEnergy",
    "EquivariantProblem",
    "TraceRow",
    "SolveReport",
    "IdentityConventionWarning",
    "energy",
    "energy_by_class",
    "frechet_mean",
    "minimize_energy",
    "norm_minimal_minimizer",
    "lexicographic_minimize",
    "harmonic_properties_check",
    "HarmonicFactsReport",
    "conjugate_problem",
    "orbit_diameter_heuristic",
]


class IdentityConventionWarning(UserWarning):
    """The edge twist set does not contain the identity isometry."""


@dataclass(frozen=True)
class Edge:
    src: object
    dst: object
    weight: float
    twist: object
    cls: int = 1


class Term(NamedTuple):
    """The energy term weight * d(T phi(c2), phi(c1))^p, where c1 and c2 are
    cell indices into the model and T is the transport.  A named tuple, as
    kernel models build thousands of terms and a tuple is cheap to build."""

    c1: int
    c2: int
    weight: float
    transport: object
    cls: int = 1


class TermEnergy:
    """An energy given as a term list.  Subclasses provide ``model``,
    ``target``, ``base_point``, ``p``, ``classes`` and ``terms``; the forms
    below are built on first use and shared by every solve of the energy (a
    subclass may preset ``arrays`` and build its terms from them)."""

    @cached_property
    def arrays(self) -> Optional["KernelArrays"]:
        """The terms compiled for the compiled engine, or None when it does
        not apply (it needs a Euclidean target, p = 2 and only
        :class:`EuclideanIsometry` transports)."""
        terms = self.terms
        if not (
            isinstance(self.target, Euclidean)
            and self.p == 2.0
            and all(isinstance(t.transport, EuclideanIsometry) for t in terms)
        ):
            return None
        return compile_terms(
            self.target.dim,
            [t.c1 for t in terms],
            [t.c2 for t in terms],
            [t.weight for t in terms],
            [t.transport.matrix for t in terms],
            [t.transport.shift for t in terms],
        )

    @cached_property
    def class_masks(self) -> Optional[list]:
        """Per class, the mask of its terms (None when there is one class)."""
        if len(self.classes) == 1:
            return None
        term_class = np.array([t.cls for t in self.terms])
        return [term_class == c for c in self.classes]

    @cached_property
    def plans(self) -> tuple:
        """The local subproblems of the scalar engine (:func:`_term_plans`)."""
        return _term_plans(self.terms, len(self.model.cells))


@dataclass(frozen=True)
class EquivariantProblem(TermEnergy):
    """Finite weighted quotient graph with isometry-labeled edges.

    ``symmetry`` optionally declares a cell bijection (dict) under which the
    model is invariant; report-style checks use it to test constancy of edge
    distances across symmetric cells.
    """

    model: MeasureModel
    target: object
    base_point: object
    edges: tuple
    p: float = 2.0
    symmetry: Optional[tuple] = None

    def __post_init__(self):
        edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.symmetry is not None and not isinstance(self.symmetry, tuple):
            object.__setattr__(self, "symmetry", tuple(sorted(dict(self.symmetry).items(), key=str)))
        self.target.validate_point(self.base_point)
        if not (1.0 < self.p < math.inf):
            raise ValidationError("energy exponent p must lie in (1, inf)")
        cells = set(self.model.cells)
        classes = set()
        rng = np.random.default_rng(20231)
        seen_twists = []
        for e in edges:
            if e.src not in cells or e.dst not in cells:
                raise ValidationError(f"edge {e.src}->{e.dst} uses unknown cell")
            if not (e.weight > 0.0 and math.isfinite(e.weight)):
                raise ValidationError("edge weights must be positive and finite")
            if e.cls < 1:
                raise ValidationError("edge class indices start at 1")
            classes.add(e.cls)
            if not any(t is e.twist for t in seen_twists):
                seen_twists.append(e.twist)
                if isometry_defect(self.target, e.twist, rng, samples=12) > 1e-7:
                    raise ValidationError("edge twist fails the isometry check")
        if classes and classes != set(range(1, max(classes) + 1)):
            raise ValidationError("edge class indices must be contiguous 1..k")
        if edges and not any(
            is_identity(self.target, e.twist, np.random.default_rng(5), samples=6) for e in edges
        ):
            warnings.warn(
                "edge twist set does not contain the identity isometry",
                IdentityConventionWarning,
            )

    @property
    def classes(self) -> tuple:
        return tuple(sorted({e.cls for e in self.edges}))

    def initial_map(self) -> EquivariantMap:
        return const_map(self.model, self.target, self.base_point)

    @cached_property
    def terms(self) -> tuple:
        """The edges as terms: edge src -> dst with weight w and twist T is
        the term c1 = dst, c2 = src, weight mu(src) * w, transport T."""
        idx = {c: i for i, c in enumerate(self.model.cells)}
        mu = self.model.weights
        return tuple(
            Term(idx[e.dst], idx[e.src], mu[idx[e.src]] * e.weight, e.twist, e.cls)
            for e in self.edges
        )


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


def energy(prob: TermEnergy, phi: EquivariantMap, classes: Optional[set] = None) -> float:
    """The term energy of a map (optionally restricted to term classes)."""
    if phi.model != prob.model or phi.target != prob.target:
        raise SpaceMismatchError("map does not live over the problem's model/target")
    t, p, vals = prob.target, prob.p, phi.values
    terms = prob.terms if classes is None else [term for term in prob.terms if term.cls in classes]
    return math.fsum(
        term.weight * t.distance(term.transport.apply(vals[term.c2]), vals[term.c1]) ** p
        for term in terms
    )


def energy_by_class(prob: EquivariantProblem, phi: EquivariantMap) -> dict:
    return {c: energy(prob, phi, classes={c}) for c in prob.classes}


# ---------------------------------------------------------------------------
# Local subproblems (weighted Frechet means with displacement terms)
# ---------------------------------------------------------------------------


def _local_objective(space, p, point_terms, loop_terms, z) -> float:
    try:
        return math.fsum(w * space.distance(z, u) ** p for w, u in point_terms) + math.fsum(
            w * space.distance(T.apply(z), z) ** p for w, T in loop_terms
        )
    except OverflowError:  # a power or sum past the float range: inf, as numpy rounds it
        return math.inf


# The local-solve paths, the keys of the ``local_solves`` counter
LOCAL_PATHS = ("linear", "tree-exact", "golden", "newton", "pattern")


def _solve_local(space, p, point_terms, loop_terms, current, tol: float, seed: int = 0, counts=None):
    """Minimize sum w_i d(z, u_i)^p + sum w_j d(T_j z, z)^p over z.

    The path depends only on the space kind, p and the loop transports:

    - ``linear``: Euclidean targets at p = 2, exact linear algebra (among
      minimizers, the one nearest the current value is returned, which
      freezes flat directions);
    - ``tree-exact``: trees at p = 2 without loop terms, where the
      objective on each edge is a quadratic in the offset
      (:func:`_solve_local_tree_exact`);
    - ``golden``: the other tree cells (loop terms, p != 2), golden-section
      search on each edge plus a vertex scan;
    - l_2 products at p = 2 with factorwise loop transports split into one
      solve per factor, each counted under its own path;
    - ``newton``: :class:`LpVector` targets, and l_q products whose factors
      are all :class:`Euclidean` or :class:`LpVector`, at p = 2: damped
      Newton steps (:func:`_newton_local`);
    - ``pattern``: everything else, and the fallback of the Newton path when
      it gives up (a term not twice differentiable at an iterate, a step
      that is not a descent direction, a non-finite value): the
      derivative-free search :func:`minimize_convex`.

    ``counts``, when given, is a dict keyed by :data:`LOCAL_PATHS`; the path
    that produced the result is incremented.
    """
    path = z = None
    if isinstance(space, Euclidean) and p == 2.0:
        path, z = "linear", _solve_local_euclidean(space, point_terms, loop_terms, current)
    elif isinstance(space, MetricTree):
        if p == 2.0 and not loop_terms:
            path, z = "tree-exact", _solve_local_tree_exact(space, point_terms)
        else:
            path, z = "golden", _solve_local_tree(space, p, point_terms, loop_terms, current, tol)
    elif (
        isinstance(space, Product)
        and space.q == 2.0
        and p == 2.0
        and all(isinstance(T, ProductIsometry) for _, T in loop_terms)
    ):
        parts = []
        for i, f in enumerate(space.factors):
            pts = [(w, u[i]) for w, u in point_terms]
            loops = [(w, T.parts[i]) for w, T in loop_terms]
            parts.append(_solve_local(f, p, pts, loops, current[i], tol, seed, counts))
        return tuple(parts)
    else:
        f = lambda z: _local_objective(space, p, point_terms, loop_terms, z)
        blocks = _norm_blocks(space) if p == 2.0 else None
        if blocks is not None:
            path, z = "newton", _newton_local(space, blocks, point_terms, loop_terms, current, f, tol)
        if z is None:
            radius = 1.0 + max((space.distance(current, u) for _, u in point_terms), default=1.0)
            path, z = "pattern", minimize_convex(
                space, f, current, tol=max(tol * 1e-2, 1e-12), seed=seed, radius0=radius
            )
        if not f(z) < f(current):
            z = current
    if counts is not None:
        counts[path] += 1
    return z


def _solve_local_euclidean(space, point_terms, loop_terms, current):
    d = space.dim
    m = np.zeros((d, d))
    rhs = np.zeros(d)
    for w, u in point_terms:
        m += w * np.eye(d)
        rhs += w * np.asarray(u)
    for w, T in loop_terms:
        a = np.asarray(T.matrix) - np.eye(d)
        b = np.asarray(T.shift)
        m += w * a.T @ a
        rhs -= w * a.T @ b
    z0 = np.asarray(current)
    delta, *_ = np.linalg.lstsq(m, rhs - m @ z0, rcond=None)
    return tuple(float(c) for c in z0 + delta)


def _golden_min(f, lo: float, hi: float, xtol: float):
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = f(c), f(e)
    while b - a > xtol:
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = f(e)
    x = 0.5 * (a + b)
    return x, f(x)


def _solve_local_tree(tree: MetricTree, p, point_terms, loop_terms, current, tol):
    def g(z):
        return _local_objective(tree, p, point_terms, loop_terms, z)

    best, fbest = current, g(current)
    for v in tree.vertices:
        z = tree.vertex_point(v)
        fz = g(z)
        if fz < fbest:
            best, fbest = z, fz
    for i, (_, _, L) in enumerate(tree.edges):
        xtol = max(1e-13, min(tol, 1e-9) * L)
        off, val = _golden_min(lambda s: g(tree.point(i, s)), 0.0, L, xtol)
        if val < fbest:
            best, fbest = tree.point(i, off), val
    return best


def _solve_local_tree_exact(tree: MetricTree, point_terms):
    """Minimize sum w d(z, u)^2 over a tree, edge by edge, in closed form.

    With z at offset s on edge (a, b, L), each point u sits at a signed
    position x: its offset when it lies on the same edge, -d(a, u) when the
    path to it leaves through a, and L + d(b, u) when it leaves through b.
    Then d(z, u) = |s - x|, so the edge's minimizer is the weighted mean of
    the positions clipped to [0, L] (the clip covers the vertices).  The
    edge whose minimizer has the smallest objective wins.
    """
    vdist = tree._vdist
    ports = [(w, u.edge, u.offset, tree._ports(u)) for w, u in point_terms]
    total = math.fsum(w for w, *_ in ports)
    best = fbest = None
    for i, (a, b, L) in enumerate(tree.edges):
        moments = []
        for w, edge, offset, exits in ports:
            if edge == i:
                x = offset
            else:
                da = min(c + vdist[(a, v)] for v, c in exits)
                db = min(c + vdist[(b, v)] for v, c in exits)
                x = -da if da < db else L + db
            moments.append(w * x)
        z = tree.point(i, min(max(math.fsum(moments) / total, 0.0), L))
        fz = _local_objective(tree, 2.0, point_terms, (), z)
        if best is None or fz < fbest:
            best, fbest = z, fz
    return best


def _norm_blocks(space):
    """The norm of a target on the Newton path as (q, blocks): over the
    flattened coordinates, ||y|| = (sum_i ||y[start_i:stop_i]||_{p_i}^q)^(1/q)
    for blocks (start_i, stop_i, p_i); None off the path."""
    if isinstance(space, LpVector):
        return space.p, ((0, space.dim, space.p),)
    if isinstance(space, Product) and all(isinstance(f, (Euclidean, LpVector)) for f in space.factors):
        blocks, start = [], 0
        for f in space.factors:
            blocks.append((start, start + f.dim, getattr(f, "p", 2.0)))
            start += f.dim
        return space.q, tuple(blocks)
    return None


def _sq_norm_derivatives(q, blocks, y):
    """Gradient and Hessian of N(y) = ||y||^2 for the norm of
    :func:`_norm_blocks`, or None where N is not twice differentiable at y
    (a zero coordinate of a block with p_i < 2, a zero block with q < 2, a
    zero block with q = 2 and p_i != 2).  At y = 0 with q > 2 the Hessian
    does not exist either; there both are returned as 0.

    With S_i = sum_j |y_j|^p_i and R = sum_i S_i^(q/p_i), N = R^(2/q).
    """
    n = len(y)
    grad_r = [0.0] * n
    hess_r = [[0.0] * n for _ in range(n)]
    r = 0.0
    for start, stop, pb in blocks:
        part = y[start:stop]
        s = math.fsum(abs(c) ** pb for c in part)
        if s == 0.0:
            if q < 2.0 or pb < 2.0 or (q == 2.0 and pb != 2.0):
                return None
            if q == 2.0:
                for j in range(start, stop):
                    hess_r[j][j] = 2.0
            continue
        if pb < 2.0 and not all(part):
            return None
        a = q / pb
        r += s ** a
        g = [math.copysign(abs(c) ** (pb - 1.0), c) for c in part]
        outer = q * (a - 1.0) * pb * s ** (a - 2.0)
        diag = q * (pb - 1.0) * s ** (a - 1.0)
        for j, (gj, cj) in enumerate(zip(g, part)):
            grad_r[start + j] = q * s ** (a - 1.0) * gj
            row = hess_r[start + j]
            for k, gk in enumerate(g):
                row[start + k] = outer * gj * gk
            row[start + j] += diag * abs(cj) ** (pb - 2.0)
    if r == 0.0:
        return [0.0] * n, hess_r
    c1 = 2.0 / q * r ** (2.0 / q - 1.0)
    c2 = 2.0 / q * (2.0 / q - 1.0) * r ** (2.0 / q - 2.0)
    grad = [c1 * g for g in grad_r]
    hess = [
        [c2 * gj * gk + c1 * h for gk, h in zip(grad_r, row)]
        for gj, row in zip(grad_r, hess_r)
    ]
    return grad, hess


def _solve_linear(m, rhs):
    """Solution of the small system m x = rhs by Gaussian elimination with
    partial pivoting, in plain Python; None when a pivot is 0."""
    n = len(rhs)
    rows = [list(row) + [v] for row, v in zip(m, rhs)]
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(rows[i][col]))
        if rows[piv][col] == 0.0:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot = rows[col]
        for row in rows[col + 1 :]:
            factor = row[col] / pivot[col]
            for k in range(col, n + 1):
                row[k] -= factor * pivot[k]
    x = [0.0] * n
    for i in reversed(range(n)):
        row = rows[i]
        x[i] = (row[n] - sum(row[k] * x[k] for k in range(i + 1, n))) / row[i]
    return x


def _newton_local(space, norm_blocks, point_terms, loop_terms, current, f, tol):
    """Damped Newton steps on sum_t w_t N(A_t z + c_t), N = ||.||^2, over
    the flattened coordinates of z; None when the path gives up.

    Point terms have A = I and c = -u.  Every isometry of a normed space is
    affine (Mazur-Ulam), so a loop's map z -> M z + b is read off its
    ``apply`` at 0 and at the unit vectors, and A = M - I, c = b.  Each
    step solves the Newton system in plain Python and backtracks on ``f``
    (the local objective) until it decreases.  Stops when every displacement
    is 0 (the gradient is then exactly 0), when the step falls below
    max(tol * 1e-2, 1e-12) (the floor :func:`minimize_convex` is given), or
    when no backtracked step decreases ``f``.  Gives up (None) when a term
    is not twice differentiable at an iterate, the step is not a descent
    direction, or a value is non-finite.  Takes at most 100 steps.
    """
    q, blocks = norm_blocks
    n = blocks[-1][1]
    if isinstance(space, Product):
        flat = lambda x: [c for part in x for c in part]
        unflat = lambda v: tuple(tuple(v[a:b]) for a, b, _ in blocks)
    else:
        flat = list
        unflat = tuple
    terms = [(w, None, [-c for c in flat(u)]) for w, u in point_terms]
    for w, T in loop_terms:
        b = flat(T.apply(unflat([0.0] * n)))
        cols = [flat(T.apply(unflat([float(i == j) for i in range(n)]))) for j in range(n)]
        a = [[cols[j][i] - b[i] - (i == j) for j in range(n)] for i in range(n)]
        terms.append((w, a, b))
    floor = max(tol * 1e-2, 1e-12)
    z = flat(current)
    fz = f(current)
    if not math.isfinite(fz):
        return None
    for _ in range(100):
        ys = [
            [zi + ci for zi, ci in zip(z, c)] if a is None
            else [math.fsum([ci] + [aij * zj for aij, zj in zip(row, z)]) for row, ci in zip(a, c)]
            for _, a, c in terms
        ]
        if not any(map(any, ys)):
            break
        grad = [0.0] * n
        hess = [[0.0] * n for _ in range(n)]
        for (w, a, _), y in zip(terms, ys):
            d = _sq_norm_derivatives(q, blocks, y)
            if d is None:
                return None
            g, h = d
            if a is not None:
                # A^T g and A^T h A
                g = [sum(a[k][i] * g[k] for k in range(n)) for i in range(n)]
                ha = [[sum(h[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
                h = [[sum(a[k][i] * ha[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            for i in range(n):
                grad[i] += w * g[i]
                row, hrow = hess[i], h[i]
                for j in range(n):
                    row[j] += w * hrow[j]
        if not any(grad):
            break
        step = _solve_linear(hess, [-g for g in grad])
        if step is None or not all(map(math.isfinite, step)):
            return None
        if not math.fsum(g * s for g, s in zip(grad, step)) < 0.0:
            return None
        size = max(map(abs, step))
        t = 1.0
        while t * size >= floor:
            cand = [zi + t * si for zi, si in zip(z, step)]
            fc = f(unflat(cand))
            if not math.isfinite(fc):
                return None
            if fc < fz:
                break
            t *= 0.5
        else:
            break  # no step above the floor decreases f
        z, fz = cand, fc
    return unflat(z)


def frechet_mean(space, pts: Sequence, weights: Sequence[float], p: float = 2.0, tol: float = 1e-9, seed: int = 0):
    """Minimizer of sum_i w_i d(z, pt_i)^p.

    For Euclidean targets with p = 2 this is the weighted arithmetic mean,
    computed exactly; other targets use the same local machinery as the
    energy minimizer.
    """
    pts = list(pts)
    weights = [float(w) for w in weights]
    if not pts or len(pts) != len(weights):
        raise DomainError("points/weights mismatch or empty input")
    if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
        raise DomainError("weights must be nonnegative and not all zero")
    terms = [(w, u) for w, u in zip(weights, pts) if w > 0.0]
    return _solve_local(space, p, terms, [], terms[0][1], tol, seed)


# ---------------------------------------------------------------------------
# Block-coordinate descent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    sweep: int
    energy_total: float
    energy_per_class: tuple
    norm: float
    max_move: float
    objective: float  # equals energy_total unless an anchor/reweighting is active


@dataclass
class SolveReport:
    """The result of a solve.  ``iterations`` counts every sweep that the
    solve ran, over all its stage solves (:func:`_staged_report`)."""

    solution: EquivariantMap
    energy_total: float
    energy_per_class: dict
    norm: float
    iterations: int
    trace: tuple
    converged: bool
    extras: dict = field(default_factory=dict)


def _summed_counters(reports) -> dict:
    """The ``local_solves`` counters of several reports, summed by path, and
    their ``rejected_moves``, summed: the counter entries of a report's
    ``extras``."""
    return {
        "local_solves": {k: sum(r.extras["local_solves"][k] for r in reports) for k in LOCAL_PATHS},
        "rejected_moves": sum(r.extras["rejected_moves"] for r in reports),
    }


def _descend(sweep_once, evaluate, best, tol: float, max_sweeps: int):
    """The outer loop shared by every sweep engine.

    ``evaluate(sweep, max_move)`` returns the trace row of the current map,
    ``sweep_once()`` runs one sweep in place and returns the largest cell
    move and the number of moves refused, and ``best()`` gives the current
    map for the :class:`SolverError` raised at the first non-finite
    objective (its ``stop_reason`` is "non-finite"; a power or sum past the
    float range, which ``evaluate`` raises as OverflowError, counts as
    inf).  Stops when the decrease of the objective over a sweep falls
    below tol * (1 + |obj|) and no cell moved more than tol.  Returns
    (objective, sweeps, converged, trace, rejected), the last summed over
    the sweeps.
    """

    def checked(sweep, max_move):
        try:
            row = evaluate(sweep, max_move)
        except OverflowError:  # a power or sum past the float range: inf, as numpy rounds it
            objective = math.inf
        else:
            objective = row.objective
        if not math.isfinite(objective):
            raise SolverError(
                f"non-finite objective {objective} at sweep {sweep}", best=best(), stop_reason="non-finite"
            )
        return row

    row = checked(0, 0.0)
    trace = [row]
    converged = False
    sweeps = rejected = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        max_move, refused = sweep_once()
        rejected += refused
        obj = row.objective
        row = checked(sweep, max_move)
        trace.append(row)
        if obj - row.objective < tol * (1.0 + abs(row.objective)) and max_move < tol:
            converged = True
            break
    return row.objective, sweeps, converged, tuple(trace), rejected


def _term_plans(terms, n_cells: int):
    """Per-cell point terms (weight, source cell, transport) and loops
    (weight, transport) of the local subproblems.  A :class:`Term` moves
    phi(c2) into cell c1 by its transport T and phi(c1) into cell c2 by
    T^-1, or is a loop when c1 = c2."""
    points = [[] for _ in range(n_cells)]
    loops = [[] for _ in range(n_cells)]
    for c1, c2, w, t, _ in terms:
        if c1 == c2:
            loops[c1].append((w, t))
        else:
            points[c2].append((w, c1, t.invert()))
            points[c1].append((w, c2, t))
    return points, loops


def _scalar_sweep(space, p, points, loops, values, anchors, tol, seed, counts) -> tuple:
    """One Gauss-Seidel sweep of the scalar engine, in place: each cell moves
    to the minimizer of its local subproblem unless that raises the local
    objective.  Local solves are counted by path in ``counts``.  Returns the
    largest move and the number of moves refused."""
    max_move, rejected = 0.0, 0
    for ci in range(len(values)):
        pts = [(w, t.apply(values[src])) for w, src, t in points[ci]]
        if anchors:
            pts.append(anchors[ci])
        if not pts and not loops[ci]:
            continue
        znew = _solve_local(space, p, pts, loops[ci], values[ci], tol, seed, counts)
        if _local_objective(space, p, pts, loops[ci], znew) <= _local_objective(
            space, p, pts, loops[ci], values[ci]
        ):
            max_move = max(max_move, space.distance(values[ci], znew))
            values[ci] = znew
        else:
            rejected += 1
    return max_move, rejected


# ---------------------------------------------------------------------------
# The compiled engine: Euclidean targets, p = 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelArrays:
    """Terms as flat arrays, the one compiled form of an energy: term t
    contributes weight[t] * d(phi(c1[t]), matrix[t] phi(c2[t]) + shift[t])^2.
    A cell index may point past the cells of the model, at a fixed row of
    the sweep's state (the anchor of :func:`minimize_energy`)."""

    c1: np.ndarray
    c2: np.ndarray
    weight: np.ndarray
    matrix: np.ndarray
    shift: np.ndarray


def compile_terms(dim: int, c1, c2, weight, matrix, shift) -> KernelArrays:
    """The flat term arrays of the given term columns.

    Shifts are stored plus 0.0 (so -0.0 becomes 0.0): then a transport
    summed as (M_i0 x_0 + M_i1 x_1 ...) + b_i rounds exactly as
    :meth:`EuclideanIsometry.apply`, whose sum starts from 0.0.
    """
    c1 = np.asarray(c1, dtype=np.intp)
    c2 = np.asarray(c2, dtype=np.intp)
    weight = np.asarray(weight, dtype=float)
    n_terms = len(c1)
    matrix = np.asarray(matrix, dtype=float).reshape(n_terms, dim, dim)
    shift = np.asarray(shift, dtype=float).reshape(n_terms, dim) + 0.0
    return KernelArrays(c1, c2, weight, matrix, shift)


def _apply_rows(matrix, shift, x):
    """x moved by the transports x -> matrix[t] x + shift[t], broadcasting
    x[..., :] against the term axis and summing in the order of
    :meth:`EuclideanIsometry.apply` (shifts as stored by :func:`compile_terms`)."""
    out = matrix[..., 0] * x[..., None, 0]
    for j in range(1, x.shape[-1]):
        out = out + matrix[..., j] * x[..., None, j]
    return out + shift


def _sq_terms(weight, diff):
    """weight * |diff|^2 over the last axis of the differences diff = x - y,
    each square rounded as ``math.dist(x, y) ** 2`` rounds it (libm pow); in
    one dimension every term is bit-identical to the scalar one."""
    if diff.shape[-1] == 1:
        dist = np.abs(diff[..., 0])
    else:
        dist = np.sqrt(np.einsum("...i,...i->...", diff, diff))
    return weight * np.float_power(dist, 2.0)


def _weighted_sq_dist(weight, x, y) -> float:
    """fsum of weight_t * d(x_t, y_t)^2 over rows (broadcast), see :func:`_sq_terms`."""
    return math.fsum(_sq_terms(weight, x - y).tolist())


# gelsd rescales a matrix or right-hand side whose largest entry lies
# outside [2^-970, 2^970] before solving
_RECIPROCAL_RANGE = (2.0 ** -969, 2.0 ** 969)


def _solve_1d(n: float, r: float) -> float:
    """The z that ``np.linalg.lstsq([[n]], [r])`` returns, mostly without
    LAPACK: gelsd scales r by the reciprocal of n (dlascl multiplies by
    1 / n), so z = r * (1 / n), and z = 0 when n == 0; r / n differs from it
    in about a quarter of all cases."""
    lo, hi = _RECIPROCAL_RANGE
    if n == 0.0:
        return 0.0
    if lo <= abs(n) <= hi and (r == 0.0 or lo <= abs(r) <= hi):
        return r * (1.0 / n)
    return float(np.linalg.lstsq(np.array([[n]]), np.array([r]), rcond=None)[0][0])


# The most term entries of a one-dimensional cell that steps on Python floats
# (others step on numpy arrays): scripts/step_crossover.py (2-vCPU VM, one BLAS
# thread) times a step at 2 / 16 / 48 / 64 / 128 entries at 20.0 / 20.9 / 24.5 /
# 28.9 / 36.4 us on arrays and 5.6 / 11.6 / 23.9 / 32.1 / 57.2 on floats.
FLOAT_STEP_MAX = 48  # the last entry count where floats win, with and without a loop


def _cell_steps(plan: KernelArrays, n_cells: int) -> tuple:
    """The term entries of the cells below ``n_cells`` grouped by cell, in
    the order of the scalar plan (:func:`_term_plans`): (bounds, source,
    matrix, shift, weight, rhs, normal), one array per field, cell c's
    entries from bounds[2c] to bounds[2c + 2] and its loops from
    bounds[2c + 1].

    Entry 2t puts term t into cell c1, by its transport or as a loop when
    c1 = c2; entry 2t + 1 puts it into cell c2 by its inverse, computed as
    :meth:`EuclideanIsometry.invert` computes it (M^T and -(M^T b), the
    shift stored plus 0.0 as :func:`compile_terms` stores shifts).  A loop's
    second entry is keyed past the cells, as are the entries into the fixed
    rows from ``n_cells`` on, which get no step.  One stable sort by (cell,
    loop) puts each cell's entries in one run: its point terms, then its
    loops, each in term order.  An entry's part of the normal equations
    (normal, rhs) is (w I, 0) for a point term and ((w a^T) a, -(w a^T) b)
    for a loop, a = M - I.
    """
    c1, c2, weight, matrix, shift = plan.c1, plan.c2, plan.weight, plan.matrix, plan.shift
    d = shift.shape[1]
    eye = np.eye(d)
    is_loop = c1 == c2
    key = np.stack((2 * c1 + is_loop, 2 * (c2 + n_cells * is_loop)), axis=1).ravel()
    bounds = [0, *np.cumsum(np.bincount(key, minlength=2 * n_cells)[: 2 * n_cells]).tolist()]
    term, back = np.divmod(np.argsort(key, kind="stable")[: bounds[-1]], 2)
    back = np.flatnonzero(back)
    inv_matrix = matrix.transpose(0, 2, 1)
    e_src, e_weight, e_matrix, e_shift = c2[term], weight[term], matrix[term], shift[term]
    inv = term[back]
    e_src[back] = c1[inv]
    e_matrix[back] = inv_matrix[inv]
    e_shift[back] = (-(inv_matrix @ shift[:, :, None])[:, :, 0] + 0.0)[inv]
    e_normal = e_weight[:, None, None] * eye
    e_rhs = np.zeros((len(term), d))
    loops = np.flatnonzero(is_loop[term])
    a = e_matrix[loops] - eye
    wa_t = e_weight[loops, None, None] * a.transpose(0, 2, 1)
    e_normal[loops] = wa_t @ a
    e_rhs[loops] = -(wa_t @ e_shift[loops, :, None])[:, :, 0]
    return bounds, e_src, e_matrix, e_shift, e_weight, e_rhs, e_normal


def _compiled_sweeps(plan: KernelArrays, values, fixed, tol, max_sweeps, evaluate, counts):
    """Gauss-Seidel sweeps of the scalar engine on compiled terms.

    ``plan`` supplies the local subproblems of the cells that hold
    ``values``; its cell indices from len(values) on name the ``fixed``
    points, which are sources only and never move; and
    ``evaluate(x, sweep, max_move)`` returns the trace row of the map held
    in the n x d array x, whose objective decides convergence.  A sweep
    steps the cells in index order, each from its run of the one grouped
    plan (:func:`_cell_steps`), by one of two kernels on one state: a
    one-dimensional cell with at most :data:`FLOAT_STEP_MAX` entries steps
    on Python floats (kept in a list beside x; an accepted move writes
    both), every other cell on numpy arrays.  Both take every sum that
    decides a value in the order of the scalar engine (in sequence from
    zero; fsum is exactly rounded), solve 1 x 1 systems by
    :func:`_solve_1d` and larger ones by the same lstsq call, and compare
    the local objectives at the old and new value with the same ``<=``, so
    in one dimension the results are bit-identical to the scalar engine.
    Every cell step is a linear solve, counted in ``counts``.  Returns
    (values, objective, sweeps, converged, trace, rejected), ``rejected``
    the moves that the ``<=`` refused.
    """
    n = len(values)
    x = np.array([*values, *fixed], dtype=float)
    bounds, src, matrix, shift, weight, rhs, normal = _cell_steps(plan, n)
    d = x.shape[1]
    runs = [(ci, *bounds[2 * ci : 2 * ci + 3]) for ci in range(n) if bounds[2 * ci] < bounds[2 * ci + 2]]
    small = d == 1 and any(e1 - e0 <= FLOAT_STEP_MAX for _, e0, _, e1 in runs)
    if small:
        xf = x[:, 0].tolist()
        entries = list(zip(*(a.ravel().tolist() for a in (src, matrix, shift, weight, rhs, normal))))

    def float_step(ci, e0, l0, e1, n1):
        # the array step on floats: n1 * z0 + 0.0 rounds as the 1 x 1 matmul
        # does, and abs(.) ** 2.0 as np.float_power (libm pow)
        z0, r = xf[ci], 0.0
        pts = [(w, m * xf[c] + s) for c, m, s, w, _, _ in entries[e0:l0]]
        for w, u in pts:
            r += w * u
        for *_, b, _ in entries[l0:e1]:
            r += b
        z1 = z0 + _solve_1d(n1, r - (n1 * z0 + 0.0))
        f = lambda z: math.fsum([w * abs(z - u) ** 2.0 for w, u in pts]) + math.fsum(
            [w * abs((m * z + s) - z) ** 2.0 for _, m, s, w, _, _ in entries[l0:e1]]
        )
        try:
            if not f(z1) <= f(z0):
                return None
        except OverflowError:  # a square past the float range, which numpy rounds to inf
            return array_step(ci, e0, l0, e1, np.array([[n1]]))
        xf[ci] = x[ci, 0] = z1
        return abs(z0 - z1)

    # the array steps' buffers: the right-hand side rows, cell c's run led by
    # a zero row at e0 + c (loop rows keep their value, point rows take w u),
    # the differences z - u and T z - z of a run at a pair of values z
    r_rows = np.zeros((len(rhs) + n, d))
    r_rows[np.arange(len(rhs)) + np.repeat(np.arange(1, n + 1), np.diff(bounds[::2]))] = rhs
    diff, pair, wcol = np.empty((2, len(rhs), d)), np.empty((2, d)), weight[:, None]
    (z0, z1), zb = pair, pair[:, None, :]

    def array_step(ci, e0, l0, e1, normal_c):
        z0[...] = x[ci]
        u = _apply_rows(matrix[e0:l0], shift[e0:l0], x[src[e0:l0]])
        rows, run, k = r_rows[e0 + ci : e1 + ci + 1], diff[:, e0:e1], l0 - e0
        np.multiply(wcol[e0:l0], u, out=rows[1 : k + 1])
        r = rows.cumsum(axis=0)[-1] - normal_c @ z0
        np.add(z0, _solve_1d(normal_c[0, 0], r[0]) if d == 1 else np.linalg.lstsq(normal_c, r, rcond=None)[0], out=z1)
        np.subtract(zb, u, out=run[:, :k])
        if l0 < e1:
            np.subtract(_apply_rows(matrix[l0:e1], shift[l0:e1], zb), zb, out=run[:, k:])
        sq = _sq_terms(weight[e0:e1], run)
        (p0, p1), (q0, q1) = sq[:, :k].tolist(), sq[:, k:].tolist()
        if not math.fsum(p1) + math.fsum(q1) <= math.fsum(p0) + math.fsum(q0):
            return None
        x[ci] = z1
        if small:
            xf[ci] = float(z1[0])
        return math.dist(*pair.tolist())

    steps = []
    for ci, e0, l0, e1 in runs:
        if d == 1 and e1 - e0 <= FLOAT_STEP_MAX:
            n1 = 0.0
            for *_, v in entries[e0:e1]:
                n1 += v
            steps.append((float_step, ci, e0, l0, e1, n1))
        else:  # the normal matrix summed in sequence from zero
            total = np.cumsum(np.concatenate((np.zeros((1, d, d)), normal[e0:e1])), axis=0)[-1]
            steps.append((array_step, ci, e0, l0, e1, total))

    def sweep_once():
        moves = [step(ci, e0, l0, e1, nc) for step, ci, e0, l0, e1, nc in steps]
        counts["linear"] += len(steps)
        return max([0.0] + [move for move in moves if move is not None]), moves.count(None)

    state = x[:n]
    current = lambda: [tuple(v) for v in state.tolist()]
    obj, sweeps, converged, trace, rejected = _descend(
        sweep_once, lambda sweep, move: evaluate(state, sweep, move), current, tol, max_sweeps
    )
    return current(), obj, sweeps, converged, trace, rejected


# ---------------------------------------------------------------------------
# Minimizers
# ---------------------------------------------------------------------------


def minimize_energy(
    prob: TermEnergy,
    phi_init: Optional[EquivariantMap] = None,
    tol: float = 1e-9,
    max_sweeps: int = 500,
    seed: int = 0,
    anchor: Optional[tuple] = None,
    class_weights: Optional[dict] = None,
) -> SolveReport:
    """Cyclic block-coordinate descent on a term energy: the edge energy of
    an :class:`EquivariantProblem` or a commensurability kernel model.

    Each sweep revisits every cell and moves it to the minimizer of its local
    subproblem; the objective never increases.  Stops when the sweep decrease
    falls below tol * (1 + |E|) and no cell moved more than tol.  ``anchor``
    is an optional pair (lam, x0) adding sum_c lam * mu_c * d(phi(c), x0)^p
    to the objective; ``class_weights`` rescales term weights per class
    (classes missing from the dict are dropped).  On the compiled engine
    both become rows of the flat term arrays: the kept terms with their
    scaled weights, then one term per cell c toward x0 (c1 = c, c2 = n,
    weight lam * mu_c, the identity), x0 being a fixed row n of the sweep's
    state.  Sweeps are Gauss-Seidel:
    each cell's update sees the updates made before it in the same sweep.

    Sweeps run on the compiled engine when the terms compile
    (:attr:`TermEnergy.arrays`: Euclidean target, p = 2, Euclidean
    transports), with the scalar engine's numbers (bit for bit in one
    dimension), and on the scalar engine otherwise.  ``extras`` records the
    ``objective``, the ``engine`` ("compiled" or "scalar"), the
    ``stop_reason`` ("converged" or "max_sweeps"), ``local_solves``, the
    local solves by path (:data:`LOCAL_PATHS`, see :func:`_solve_local`),
    and ``rejected_moves``, those whose value raised the local objective.
    """
    phi = phi_init if phi_init is not None else const_map(prob.model, prob.target, prob.base_point)
    if phi.model != prob.model or phi.target != prob.target:
        raise SpaceMismatchError("initial map does not match the problem")
    space, p, mu, classes = prob.target, prob.p, prob.model.weights, prob.classes
    # class weights rescale the terms of the local subproblems, whose plans
    # keep the terms of classes with a nonzero weight at (class weight) * w
    scales = None if class_weights is None else [float(class_weights.get(c, 0.0)) for c in classes]
    anchor_weights = None if anchor is None else [anchor[0] * m for m in mu]
    counts = dict.fromkeys(LOCAL_PATHS, 0)

    def row(sweep, max_move, e_total, per_class, norm, anchor_energy) -> TraceRow:
        obj = e_total if scales is None else math.fsum(s * e for s, e in zip(scales, per_class))
        if anchor is not None:
            obj += anchor_energy
        return TraceRow(sweep, e_total, per_class, norm, max_move, obj)

    k = prob.arrays
    if k is not None:
        engine = "compiled"
        masks = prob.class_masks
        n, d = len(mu), space.dim
        plan = k
        if scales is not None:
            term_scale = np.full(len(k.c1), scales[0]) if masks is None else np.select(masks, scales)
            kept = np.flatnonzero(term_scale != 0.0)
            plan = KernelArrays(
                k.c1[kept], k.c2[kept], term_scale[kept] * k.weight[kept], k.matrix[kept], k.shift[kept]
            )
        fixed = ()
        if anchor is not None:
            # one identity term per cell c toward x0, held in the fixed row n
            aw = np.array(anchor_weights)
            x0 = np.array(anchor[1], dtype=float)
            plan = KernelArrays(
                np.concatenate((plan.c1, np.arange(n))),
                np.concatenate((plan.c2, np.full(n, n))),
                np.concatenate((plan.weight, aw)),
                np.concatenate((plan.matrix, np.eye(d)[None].repeat(n, axis=0))),
                np.concatenate((plan.shift, np.zeros((n, d)))),
            )
            fixed = (anchor[1],)
        mu_arr = np.array(mu)
        base = np.array(prob.base_point, dtype=float)

        def compiled_row(x, sweep, max_move) -> TraceRow:
            sq = _sq_terms(k.weight, x[k.c1] - _apply_rows(k.matrix, k.shift, x[k.c2]))
            e_total = math.fsum(sq.tolist())
            per_class = (e_total,) if masks is None else tuple(math.fsum(sq[m].tolist()) for m in masks)
            norm = _weighted_sq_dist(mu_arr, x, base) ** (1.0 / p)
            anchor_energy = None if anchor is None else _weighted_sq_dist(aw, x, x0)
            return row(sweep, max_move, e_total, per_class, norm, anchor_energy)

        values, obj, sweeps, converged, trace, rejected = _compiled_sweeps(
            plan, phi.values, fixed, tol, max_sweeps, compiled_row, counts
        )
    else:
        engine = "scalar"
        if scales is None:
            points, loops = prob.plans
        else:
            scale_of = dict(zip(classes, scales))
            points, loops = _term_plans(
                [t._replace(weight=scale_of[t.cls] * t.weight) for t in prob.terms if scale_of[t.cls] != 0.0],
                len(mu),
            )
        anchors = None if anchor is None else [(w, anchor[1]) for w in anchor_weights]
        values = list(phi.values)

        def scalar_row(sweep, max_move) -> TraceRow:
            cur = EquivariantMap(prob.model, space, tuple(values))
            e_total = energy(prob, cur)
            per_class = (e_total,) if len(classes) == 1 else tuple(energy(prob, cur, classes={c}) for c in classes)
            anchor_energy = None if anchor is None else math.fsum(
                w * space.distance(v, anchor[1]) ** p for w, v in zip(anchor_weights, values)
            )
            return row(sweep, max_move, e_total, per_class, map_norm(p, cur, prob.base_point), anchor_energy)

        obj, sweeps, converged, trace, rejected = _descend(
            lambda: _scalar_sweep(space, p, points, loops, values, anchors, tol, seed, counts),
            scalar_row, lambda: EquivariantMap(prob.model, space, tuple(values)), tol, max_sweeps,
        )
    last = trace[-1]
    return SolveReport(
        solution=EquivariantMap(prob.model, space, tuple(values)),
        energy_total=last.energy_total,
        energy_per_class=dict(zip(classes, last.energy_per_class)),
        norm=last.norm,
        iterations=sweeps,
        trace=trace,
        converged=converged,
        extras={
            "objective": obj,
            "engine": engine,
            "stop_reason": "converged" if converged else "max_sweeps",
            "local_solves": counts,
            "rejected_moves": rejected,
        },
    )


# The penalty weights of the vanishing-penalty homotopy: 2^-1, ..., 2^-40
PENALTY_SCHEDULE = tuple(2.0 ** (-n) for n in range(1, 41))


def _penalty_homotopy(prob: TermEnergy, phi, lams, tol: float, max_sweeps: int, seed: int = 0) -> list:
    """The stage reports of the vanishing-penalty homotopy: for each lam of
    ``lams``, minimize E + lam * rho(., x0)^p (x0 the base point) from the
    previous stage's solution, the first stage from ``phi``."""
    reports = []
    for lam in lams:
        reports.append(minimize_energy(
            prob, phi_init=phi, tol=tol, max_sweeps=max_sweeps, seed=seed, anchor=(lam, prob.base_point)
        ))
        phi = reports[-1].solution
    return reports


def _staged_report(prob: EquivariantProblem, sol, e_total: float, reports, **extras) -> SolveReport:
    """The report of the stage solves ``reports`` returning ``sol`` (energy
    ``e_total``): energies and norm of ``sol``; trace, convergence, engine
    and stop reason of the last stage; sweeps and local solves summed over
    all stages; and ``extras``."""
    last = reports[-1]
    return SolveReport(
        solution=sol,
        energy_total=e_total,
        energy_per_class=energy_by_class(prob, sol),
        norm=map_norm(prob.p, sol, prob.base_point),
        iterations=sum(r.iterations for r in reports),
        trace=last.trace,
        converged=last.converged,
        extras={
            **extras,
            "engine": last.extras["engine"],
            "stop_reason": last.extras["stop_reason"],
            **_summed_counters(reports),
        },
    )


def norm_minimal_minimizer(
    prob: EquivariantProblem,
    tol: float = 1e-9,
    schedule: Optional[Sequence[float]] = None,
    max_sweeps: int = 500,
    seed: int = 0,
) -> SolveReport:
    """Near-minimizer of the energy with (approximately) minimal norm.

    Runs the vanishing-penalty homotopy (:func:`_penalty_homotopy`) over a
    decreasing schedule of lam (default :data:`PENALTY_SCHEDULE`, 2^-n for
    n = 1..40), then one free solve, all at tol * 1e-2; ``iterations``
    counts the sweeps of all of them.  The extras carry the stage gaps
    rho(phi_k, phi_{k-1}); the homotopy must be Cauchy (final gap below
    tol), otherwise a :class:`SolverError` signals flat directions that the
    penalty could not resolve.
    """
    lams = PENALTY_SCHEDULE if schedule is None else tuple(schedule)
    if not lams:
        raise DomainError("empty schedule")
    inner_tol = tol * 1e-2  # keep stage noise below the Cauchy resolution
    path = [prob.initial_map()]
    stages = _penalty_homotopy(prob, path[0], lams, inner_tol, max_sweeps, seed)
    path += [r.solution for r in stages]
    gaps = [map_distance(prob.p, new, old) for old, new in zip(path, path[1:])]
    phi = path[-1]
    # Cauchy: the last stage moved less than tol
    if gaps[-1] >= tol:
        raise SolverError("penalty homotopy is not Cauchy; energy has unresolved flat directions", best=phi)
    final = minimize_energy(prob, phi_init=phi, tol=inner_tol, max_sweeps=max_sweeps, seed=seed)
    # keep the anchored solution if the final free polish wandered along a flat
    # direction (it cannot improve the energy by more than tol)
    sol = final.solution if map_distance(prob.p, final.solution, phi) < 10.0 * tol else phi
    e_total = energy(prob, sol)
    return _staged_report(
        prob, sol, e_total, [*stages, final],
        stage_gaps=tuple(gaps),
        stages=tuple((lam, rep.energy_total, rep.norm) for lam, rep in zip(lams, stages)),
        norm_check=_norm_minimality_probe(prob, sol, e_total, tol, seed),
    )


def _norm_minimality_probe(prob, sol, e_total, tol, seed):
    """Sampled near-minimizers with equal energy must not have smaller norm
    (24 samples)."""
    rng = np.random.default_rng(seed + 99)
    space = prob.target
    norm0 = map_norm(prob.p, sol, prob.base_point)
    violations = checked = 0
    for _ in range(24):
        radius = float(rng.choice([tol, 100 * tol, 0.05]))
        vals = tuple(perturb(space, v, rng, radius) for v in sol.values)
        psi = EquivariantMap(prob.model, space, vals)
        if energy(prob, psi) <= e_total + tol:
            checked += 1
            if map_norm(prob.p, psi, prob.base_point) < norm0 - 10.0 * tol:
                violations += 1
    return {"checked": checked, "violations": violations}


def lexicographic_minimize(
    prob: EquivariantProblem,
    class_order: Sequence[int],
    tol: float = 1e-9,
    max_sweeps: int = 500,
    seed: int = 0,
) -> SolveReport:
    """Stagewise minimization across edge classes.

    Stage j minimizes the class-j energy while anchoring every earlier class
    at its stage minimum: earlier energies enter the stage objective with a
    large weight (1e4, then times 100 up to four times), escalated until
    their drift from the recorded minima is within tol.  The report
    (:func:`_staged_report`) counts the sweeps of every stage solve,
    escalations included.
    """
    order = list(class_order)
    if not order or any(c not in prob.classes for c in order):
        raise DomainError(f"class order {order} does not match classes {prob.classes}")
    phi = prob.initial_map()
    minima: dict = {}
    reports = []
    for j, cls in enumerate(order):
        big = 1.0e4
        for _ in range(5):
            weights = {c: big for c in order[:j]}
            weights[cls] = 1.0
            rep = minimize_energy(
                prob, phi_init=phi, tol=tol, max_sweeps=max_sweeps, seed=seed, class_weights=weights
            )
            reports.append(rep)
            if all(energy(prob, rep.solution, classes={c}) - minima[c] <= tol for c in order[:j]):
                break
            big *= 100.0
        else:
            raise SolverError("anchored energies keep drifting", best=rep.solution)
        phi = rep.solution
        minima[cls] = energy(prob, phi, classes={cls})
    return _staged_report(prob, phi, energy(prob, phi), reports, stage_minima=dict(minima))


# ---------------------------------------------------------------------------
# Structure checks for pairs of minimizers
# ---------------------------------------------------------------------------


@dataclass
class HarmonicFactsReport:
    energies: tuple
    midpoint_energy: float
    midpoint_ok: bool
    parallel_failures: tuple
    parallel_checked: int
    symmetry_spread: Optional[float]
    symmetry_ok: Optional[bool]


def harmonic_properties_check(
    prob: EquivariantProblem,
    phi: EquivariantMap,
    psi: EquivariantMap,
    tol: float = 1e-7,
) -> HarmonicFactsReport:
    """Report-style check of the facts shared by energy minimizers.

    (a) the cellwise midpoint of two minimizers is again a minimizer (its
    energy does not exceed the larger of the two); (b) for every edge, the
    twist-transported segments of the two maps are parallel; (c) when the
    problem declares a cell symmetry, transported edge distances agree across
    symmetric edges.
    """
    e1, e2 = energy(prob, phi), energy(prob, psi)
    if abs(e1 - e2) > max(tol, 1e-9 * (1.0 + max(e1, e2))):
        raise DomainError("maps are not energy-comparable minimizer candidates")
    mid = map_midpoint(phi, psi)
    em = energy(prob, mid)
    space = prob.target
    idx = {c: i for i, c in enumerate(prob.model.cells)}
    # the transported edge segment (T f(src), f(dst)) of a map f
    ends = lambda e, f: (e.twist.apply(f.values[idx[e.src]]), f.values[idx[e.dst]])
    failures = [
        k for k, e in enumerate(prob.edges)
        if not parallel_check(space, *ends(e, phi), *ends(e, psi), tol=max(tol, 1e-9))
    ]
    spread = sym_ok = None
    if prob.symmetry is not None:
        sym = dict(prob.symmetry)
        by_key = {}
        for e in prob.edges:
            by_key.setdefault((e.src, e.dst, e.cls, e.twist.key()), []).append(e)
        images = [(e, by_key.get((sym.get(e.src), sym.get(e.dst), e.cls, e.twist.key()))) for e in prob.edges]
        length = lambda e: space.distance(*ends(e, phi))
        spread = max([0.0] + [abs(length(e) - length(img[0])) for e, img in images if img])
        sym_ok = spread <= tol
    return HarmonicFactsReport(
        energies=(e1, e2),
        midpoint_energy=em,
        midpoint_ok=em <= max(e1, e2) + tol,
        parallel_failures=tuple(failures),
        parallel_checked=len(prob.edges),
        symmetry_spread=spread,
        symmetry_ok=sym_ok,
    )


def conjugate_problem(prob: EquivariantProblem, cell_map: dict, lam) -> EquivariantProblem:
    """Relabel cells by a model automorphism and conjugate all twists by lam.

    Transporting a map phi to phi'(sigma(c)) = lam(phi(c)) preserves the
    energy exactly, which tests use as an equivariance-consistency check.
    """
    cells = prob.model.cells
    if sorted(cell_map) != sorted(cells) or sorted(cell_map.values()) != sorted(cells):
        raise DomainError("cell_map is not an automorphism of the cell set")
    idx = {c: i for i, c in enumerate(cells)}
    new_weights = [0.0] * len(cells)
    for c in cells:
        new_weights[idx[cell_map[c]]] = prob.model.weights[idx[c]]
    lam_inv = lam.invert()
    edges = tuple(
        Edge(cell_map[e.src], cell_map[e.dst], e.weight, lam.compose(e.twist).compose(lam_inv), e.cls)
        for e in prob.edges
    )
    return EquivariantProblem(MeasureModel(cells, tuple(new_weights)), prob.target, lam.apply(prob.base_point), edges, prob.p)


def orbit_diameter_heuristic(prob: EquivariantProblem, x=None, word_length: int = 4) -> float:
    """Diameter of the orbit of a point under words in the edge twists.

    A boundedness heuristic only: reported, never asserted.
    """
    x = x if x is not None else prob.base_point
    gens = list({id(e.twist): e.twist for e in prob.edges}.values())  # distinct objects, in order
    gens += [g.invert() for g in gens]
    orbit, frontier = [x], [x]
    for _ in range(word_length):
        nxt = []
        for y in frontier:
            for g in gens:
                z = g.apply(y)
                if all(prob.target.distance(z, o) > 1e-12 for o in orbit):
                    orbit.append(z)
                    nxt.append(z)
        frontier = nxt
    return max(prob.target.distance(a, b) for a in orbit for b in orbit) if len(orbit) > 1 else 0.0
