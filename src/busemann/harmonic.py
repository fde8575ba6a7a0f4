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
form on each tree edge, and damped Newton steps on l_p targets and l_q
products of Euclidean and l_p factors.
:func:`_solve_local` lists every path and its fallbacks, and each report
counts the local solves by path (``extras["local_solves"]``).

There are two sweep engines.  The scalar engine works on any target and is
the reference.  The compiled engine applies when the target is
:class:`Euclidean`, p = 2 and every transport is a
:class:`EuclideanIsometry`: the terms are compiled once
(:attr:`TermEnergy.arrays`) into flat term arrays (:func:`compile_terms`),
the only compiled form of an energy.  A solve's class weights rescale
rows of those arrays, and each solve groups their entries by cell into one
plan (:func:`_cell_steps`), whose cells step on Python floats or numpy
arrays (:func:`_compiled_sweeps`) in the scalar engine's order, so both
engines give the same numbers, bit for bit in one dimension and to
rounding in more.  Trees, l_p and product targets, p != 2 and anchored
solves use the scalar engine.  On compiled terms the energy is a quadratic
form, and :func:`quadratic_minimizer` gives its minimum-norm minimizer and
its number of flat directions without sweeps.

Besides the plain minimizer this module provides the norm-minimal selection
and lexicographic minimization across edge classes.  The norm-minimal
selection is one function, :func:`norm_minimal_minimizer`, also called by
:func:`busemann.commensurability.subgroup_harmonic`: exact on compiled
terms, the vanishing-penalty homotopy toward the base point elsewhere.
The staged solvers report through :func:`_staged_report`: every report's
``iterations`` counts all the sweeps that its solve ran.

Exponents p != 2 are accepted throughout; off trees they are handled by
the generic local search.  Treat those paths as experimental (the convexity
of the energy still holds, but most closed-form local solvers and oracle
tests are p = 2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from busemann.convexity import minimize_convex
from busemann.mapspace import (
    EquivariantMap,
    MeasureModel,
    const_map,
    map_distance,
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
    TreePoint,
    ValidationError,
    identity_isometry,
    isometry_of,
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
    "minimize_energy",
    "norm_minimal_minimizer",
    "quadratic_minimizer",
    "lexicographic_minimize",
    "conjugate_problem",
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
    """Finite weighted quotient graph with isometry-labeled edges.  Every
    edge twist must be an isometry of the target by
    :func:`busemann.spaces.isometry_of`."""

    model: MeasureModel
    target: object
    base_point: object
    edges: tuple
    p: float = 2.0

    def __post_init__(self):
        edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        self.target.validate_point(self.base_point)
        if not (1.0 < self.p < math.inf):
            raise ValidationError("energy exponent p must lie in (1, inf)")
        cells = set(self.model.cells)
        classes = set()
        for e in edges:
            if e.src not in cells or e.dst not in cells:
                raise ValidationError(f"edge {e.src}->{e.dst} uses unknown cell")
            if not (e.weight > 0.0 and math.isfinite(e.weight)):
                raise ValidationError("edge weights must be positive and finite")
            if e.cls < 1:
                raise ValidationError("edge class indices start at 1")
            classes.add(e.cls)
            if not isometry_of(self.target, e.twist):
                raise ValidationError("edge twist is not an isometry of the target")
        if classes and classes != set(range(1, max(classes) + 1)):
            raise ValidationError("edge class indices must be contiguous 1..k")
        identity = identity_isometry(self.target)
        if edges and not any(e.twist == identity for e in edges):
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
LOCAL_PATHS = ("linear", "tree-exact", "newton", "pattern")


def _solve_local(space, p, point_terms, loop_terms, current, tol: float, seed: int = 0, counts=None):
    """Minimize sum w_i d(z, u_i)^p + sum w_j d(T_j z, z)^p over z.

    The path depends only on the space kind, p and the loop transports:

    - ``linear``: Euclidean targets at p = 2, exact linear algebra (among
      minimizers, the one nearest the current value is returned, which
      freezes flat directions);
    - ``tree-exact``: trees, where each term on an edge is |alpha s + beta|
      in the offset s: a closed form at p = 2, else safeguarded Newton
      steps (:func:`_solve_local_tree_exact`);
    - l_2 products at p = 2 with factorwise loop transports split into one
      solve per factor, each counted under its own path;
    - ``newton``: :class:`LpVector` targets, and l_q products whose factors
      are all :class:`Euclidean` or :class:`LpVector`, at p = 2: damped
      Newton steps (:func:`_newton_local`);
    - ``pattern``: everything else, and the fallback of the Newton path when
      it gives up (a term not twice differentiable at an iterate, a step
      that is not a descent direction, a non-finite value): the
      derivative-free search :func:`minimize_convex`, from a radius of 1 +
      the largest distance to a point term and with an escape radius 1e6
      times that, so that it scales with the data.

    The searching paths keep the current value unless they lower the
    objective, whose two values the Newton path hands over.  ``counts``, a
    dict keyed by :data:`LOCAL_PATHS`, counts the path of the result.
    """
    if isinstance(space, Euclidean) and p == 2.0:
        path, z = "linear", _solve_local_euclidean(space, point_terms, loop_terms, current)
    elif isinstance(space, MetricTree):
        path, z = "tree-exact", _solve_local_tree_exact(space, p, point_terms, loop_terms, current)
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
        newton = blocks and _newton_local(space, blocks, point_terms, loop_terms, current, f, tol)
        if newton:
            path, (z, f0, fz) = "newton", newton
        else:
            radius = 1.0 + max((space.distance(current, u) for _, u in point_terms), default=1.0)
            path, z = "pattern", minimize_convex(
                space, f, current, tol=max(tol * 1e-2, 1e-12), seed=seed, radius0=radius,
                escape_radius=1e6 * radius,
            )
            f0, fz = f(current), f(z)
        if not fz < f0:
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


def _form_argmin(p, forms, L, s):
    """Minimizer over [0, L] of the convex sum w |alpha s + beta|^p from s:
    Newton steps on its derivative in a shrinking bracket, bisecting where a
    step leaves it or is not half the step before last (Brent 1973)."""

    def slope(s):  # the first and second derivative over p
        r = [(w, al, al * s + be) for w, al, be in forms if al]
        g = math.fsum(w * al * math.copysign(abs(x) ** (p - 1.0), x) for w, al, x in r)
        if p < 2.0 and not all(x for _, _, x in r):
            return g, math.inf
        return g, (p - 1.0) * math.fsum(w * al * al * abs(x) ** (p - 2.0) for w, al, x in r)

    if slope(0.0)[0] >= 0.0:
        return 0.0
    if slope(L)[0] <= 0.0:
        return L
    lo, hi = 0.0, L
    xtol = 4.0 * math.ulp(L)
    dx = dx_old = L
    while hi - lo > xtol and abs(dx) > xtol:
        g, h = slope(s)
        if g == 0.0:
            break
        lo, hi = (s, hi) if g < 0.0 else (lo, s)
        step = -g / h if 0.0 < h < math.inf else math.inf
        if not (lo < s + step < hi and abs(step) <= 0.5 * abs(dx_old)):
            step = 0.5 * (lo + hi) - s
        dx_old, dx = dx, step
        s += step
    return s


def _solve_local_tree_exact(tree: MetricTree, p, point_terms, loop_terms, current):
    """Minimize the local objective over a tree edge by edge, with no
    distance call.  On edge (a, b, L) each distance is |alpha s + beta| in
    the offset s: (1, -x) for a point at signed position x (-d(a, u) or L +
    d(b, u) off the edge); a loop T onto edge j fixes (0) or reverses (2) the
    edge when j = i, else alpha sums the signs of its exit and entry costs (s
    or L - s, s or jL - s).  The p = 2 minimizer -sum w alpha beta / sum w
    alpha^2, or :func:`_form_argmin`'s from there, is clipped and snapped;
    a flat edge holding the current value keeps it, also on ties."""
    vdist = tree._vdist
    weights = [w for w, _ in point_terms]
    total = math.fsum(weights)
    held = (current.edge, current.offset, current.vertex)  # candidates are snap triples
    # each point's edge, offset, and first and last exit (a vertex has one)
    points = [(u.edge, u.offset, *e[0], *e[-1]) for u, e in ((u, tree._ports(u)) for _, u in point_terms)]
    best = fbest = None
    for i, (a, b, L) in enumerate(tree.edges):
        betas, forms = [], []  # the points' betas (alpha 1), the loops' forms
        for edge, offset, v1, c1, v2, c2 in points:
            if edge == i:
                betas.append(-offset)
                continue
            da, x = c1 + vdist[(a, v1)], c2 + vdist[(a, v2)]
            db, y = c1 + vdist[(b, v1)], c2 + vdist[(b, v2)]
            da, db = x if x < da else da, y if y < db else db
            betas.append(da if da < db else -(L + db))
        for w, T in loop_terms:
            ta = T._vmap[a]
            j = tree.edge_between(ta, T._vmap[b])
            ja, jb, jl = tree.edges[j]
            if j == i:
                forms.append((w, 0.0, 0.0) if ta == a else (w, 2.0, -L))
                continue
            near, out, c_out = (a, 1, 0.0) if vdist[(a, ja)] < vdist[(b, ja)] else (b, -1, L)
            q = ja if vdist[(ja, a)] < vdist[(jb, a)] else jb
            into, c_into = (1, 0.0) if q == ta else (-1, jl)
            forms.append((w, float(out + into), c_out + vdist[(near, q)] + c_into))
        den = math.fsum(weights + [w * al * al for w, al, _ in forms]) if forms else total
        if den == 0.0:
            z = held if current.edge == i or current.vertex in (a, b) else (None, 0.0, a)
        else:
            num = math.fsum([w * be for w, be in zip(weights, betas)] + [w * al * be for w, al, be in forms])
            s = min(max(-num / den, 0.0), L)
            try:
                if p != 2.0:
                    s = _form_argmin(p, [(w, 1.0, be) for w, be in zip(weights, betas)] + forms, L, s)
            except OverflowError:  # a power past the float range: the p = 2 point
                pass
            z = tree.snap(i, s)
        s = z[1] if z[2] is None else (0.0 if z[2] == a else L)
        try:
            fz = math.fsum(
                [w * abs(s + be) ** p for w, be in zip(weights, betas)]
                + [w * abs(al * s + be) ** p for w, al, be in forms]
            )
        except OverflowError:  # inf, as in _local_objective
            fz = math.inf
        if best is None or fz < fbest or (fz == fbest and z is held):
            best, fbest = z, fz
    return current if best is held else TreePoint(*best)


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
    the flattened coordinates of z.  Returns (z, f(current), f(z)), or None
    when the path gives up.

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
    fz = f0 = f(current)
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
    return unflat(z), f0, fz


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


def _descend(sweep_once, evaluate, best, tol: float, max_sweeps: int):
    """The outer loop shared by every sweep engine.

    ``evaluate(sweep, max_move)`` returns the trace row of the current map,
    ``sweep_once()`` runs one sweep in place and returns the largest cell
    move, and ``best()`` gives the current map for the :class:`SolverError`
    raised at the first non-finite objective (its ``stop_reason`` is
    "non-finite"; a power or sum past the float range, which ``evaluate``
    raises as OverflowError, counts as inf).  Every sweep keeps every local
    step, and no step raises its local objective, so a row's objective can
    exceed the row before only by the rounding of its sum.  Stops when the
    decrease of the objective over a sweep (negative after such a rise)
    falls below tol * (1 + |obj|) and no cell moved more than tol.  Returns
    (objective, sweeps, converged, trace).
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
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        max_move = sweep_once()
        obj = row.objective
        row = checked(sweep, max_move)
        trace.append(row)
        if obj - row.objective < tol * (1.0 + abs(row.objective)) and max_move < tol:
            converged = True
            break
    return row.objective, sweeps, converged, tuple(trace)


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


def _scalar_sweep(space, p, points, loops, values, anchors, tol, seed, counts) -> float:
    """One Gauss-Seidel sweep of the scalar engine, in place: each cell moves
    to the value of its local solve (:func:`_solve_local`), which never
    raises the local objective: the exact paths minimize it, and the
    searching paths return the current value unless they lower it.  Local
    solves are counted by path in ``counts``.  Returns the largest move."""
    max_move = 0.0
    for ci in range(len(values)):
        pts = [(w, t.apply(values[src])) for w, src, t in points[ci]]
        if anchors:
            pts.append(anchors[ci])
        if not pts and not loops[ci]:
            continue
        znew = _solve_local(space, p, pts, loops[ci], values[ci], tol, seed, counts)
        max_move = max(max_move, space.distance(values[ci], znew))
        values[ci] = znew
    return max_move


# ---------------------------------------------------------------------------
# The compiled engine: Euclidean targets, p = 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelArrays:
    """Terms as flat arrays, the one compiled form of an energy: term t
    contributes weight[t] * d(phi(c1[t]), matrix[t] phi(c2[t]) + shift[t])^2."""

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
# (others on numpy arrays).  A step in us by scripts/step_crossover.py
# --sweeps 1000 --repeats 15 (2-vCPU VM, one BLAS thread):
#   entries            2    8   16   32   48   64   96  128  256  512
#   points: numpy   15.0 13.4 13.2 12.7 13.7 13.0 13.9 14.0 16.3 19.5
#   points: floats   1.5  2.1  2.7  3.7  5.1  6.0  9.0 11.0 20.2 41.8
#   a loop: numpy   13.0 14.2 13.1 12.5 13.0 12.9 14.9 13.7 15.6 18.2
#   a loop: floats   1.5  2.0  2.6  3.8  5.0  6.1  9.1 11.0 21.0 44.3
FLOAT_STEP_MAX = 128  # floats still win at 128 entries, not at 256


def _cell_steps(plan: KernelArrays, n_cells: int) -> tuple:
    """The term entries of the ``n_cells`` cells grouped by cell, in
    the order of the scalar plan (:func:`_term_plans`): (bounds, source,
    matrix, shift, weight, rhs, normal), one array per field, cell c's
    entries from bounds[2c] to bounds[2c + 2] and its loops from
    bounds[2c + 1].

    Entry 2t puts term t into cell c1, by its transport or as a loop when
    c1 = c2; entry 2t + 1 puts it into cell c2 by its inverse, computed as
    :meth:`EuclideanIsometry.invert` computes it (M^T and -(M^T b), the
    shift stored plus 0.0 as :func:`compile_terms` stores shifts).  A loop's
    second entry is keyed past the cells and dropped.  One stable sort by
    (cell, loop) puts each cell's entries in one run: its point terms, then
    its loops, each in term order.  An entry's part of the normal equations
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


def _compiled_sweeps(plan: KernelArrays, values, tol, max_sweeps, evaluate, counts):
    """Gauss-Seidel sweeps of the scalar engine on compiled terms.

    ``plan`` supplies the local subproblems of the cells that hold
    ``values``; ``evaluate(x, sweep, max_move)`` returns the trace row of
    the map in the n x d array x, whose objective decides convergence.  A
    sweep steps the cells in index order, each from its run of the grouped
    plan (:func:`_cell_steps`), on one state: a one-dimensional cell with
    at most :data:`FLOAT_STEP_MAX` entries on Python floats (values in a
    list beside x) from a per-solve table of its points (source, m, s, w),
    loop right-hand sides and summed normal; every other cell on numpy
    arrays.  Both kernels sum in the scalar engine's order (in sequence
    from zero) and solve 1 x 1 systems by :func:`_solve_1d` and larger ones
    by the same lstsq call, so in one dimension they are bit-identical to
    the scalar engine.  Each cell step is a linear solve, counted in
    ``counts``, and moves the cell to the exact minimizer of its local
    objective, so a sweep never raises the objective beyond rounding.
    Returns (values, objective, sweeps, converged, trace).
    """
    n = len(values)
    x = np.array(values, dtype=float)
    bounds, src, matrix, shift, weight, rhs, normal = _cell_steps(plan, n)
    d = x.shape[1]
    runs = [(ci, *bounds[2 * ci : 2 * ci + 3]) for ci in range(n) if bounds[2 * ci] < bounds[2 * ci + 2]]
    xf = x[:, 0].tolist()
    if d == 1 and any(e1 - e0 <= FLOAT_STEP_MAX for _, e0, _, e1 in runs):
        cols = [a.ravel().tolist() for a in (src, matrix, shift, weight, rhs, normal)]
        pts, loops = list(zip(*cols[:4])), cols[4]

    def float_step(ci, pt, lp, n1):
        # the array step on floats: n1 * z0 + 0.0 rounds as the 1 x 1 matmul does
        z0, r = xf[ci], 0.0
        for c, m, s, w in pt:
            r += w * (m * xf[c] + s)
        for b in lp:
            r += b
        z1 = z0 + _solve_1d(n1, r - (n1 * z0 + 0.0))
        xf[ci] = x[ci, 0] = z1
        return abs(z0 - z1)

    # the array steps' right-hand side rows: cell c's run led by a zero row
    # at e0 + c (loop rows keep their value, point rows take w u)
    r_rows = np.zeros((len(rhs) + n, d))
    r_rows[np.arange(len(rhs)) + np.repeat(np.arange(1, n + 1), np.diff(bounds[::2]))] = rhs

    def array_step(ci, e0, l0, e1, normal_c):
        z0 = x[ci].copy()
        u = _apply_rows(matrix[e0:l0], shift[e0:l0], x[src[e0:l0]])
        rows = r_rows[e0 + ci : e1 + ci + 1]
        np.multiply(weight[e0:l0, None], u, out=rows[1 : l0 - e0 + 1])
        r = rows.cumsum(axis=0)[-1] - normal_c @ z0
        x[ci] = z1 = z0 + (_solve_1d(normal_c[0, 0], r[0]) if d == 1 else np.linalg.lstsq(normal_c, r, rcond=None)[0])
        xf[ci] = float(z1[0])
        return math.dist(z0.tolist(), z1.tolist())

    steps = []
    for ci, e0, l0, e1 in runs:  # the normal matrix summed in sequence from zero
        if d == 1 and e1 - e0 <= FLOAT_STEP_MAX:
            n1 = 0.0
            for v in cols[5][e0:e1]:
                n1 += v
            steps.append((float_step, (ci, pts[e0:l0], loops[l0:e1], n1)))
        else:
            normal_c = np.cumsum(np.concatenate((np.zeros((1, d, d)), normal[e0:e1])), axis=0)[-1]
            steps.append((array_step, (ci, e0, l0, e1, normal_c)))

    def sweep_once():
        counts["linear"] += len(steps)
        return max([0.0] + [step(*args) for step, args in steps])

    current = lambda: [tuple(v) for v in x.tolist()]
    obj, sweeps, converged, trace = _descend(
        sweep_once, lambda sweep, move: evaluate(x, sweep, move), current, tol, max_sweeps
    )
    return current(), obj, sweeps, converged, trace


# A pivot of the pivoted Cholesky factorization at most this times the largest
# pivot ends the factorization: the rest of the normal matrix is null space.
# On the kernel models of the named generators and covers, the nonzero
# eigenvalues of H lie above 0.36 times the largest and the null ones below
# 2e-15 times it, so the cut sits far from both.
PIVOT_RTOL = 1e-10


def quadratic_minimizer(plan: KernelArrays, weights, base_point) -> tuple:
    """The minimum-norm minimizer of a compiled energy and its number of
    flat directions, by linear algebra in place of sweeps.

    On compiled terms the energy is a quadratic form.  In sqrt(mu)
    coordinates around the base point, x_c = x0 + z_c / sqrt(mu_c), the
    residual of term t is (z_c1 / s_c1 - M_t z_c2 / s_c2) + e_t, e_t =
    x0 - (M_t x0 + b_t), so E = |A z + e|^2 row by row with weights; the
    normal matrix H = A^T W A and the vector g = -A^T W e are summed term
    by term (a loop's row has one block, at its one cell).  The norm
    sum_c mu_c |x_c - x0|^2 is |z|^2, so the minimum-norm solution of
    H z = g (Bjorck, Numerical Methods for Least Squares Problems, ch. 5)
    is the norm-minimal minimizer.  A pivoted Cholesky factorization
    P H P^T = L L^T stops at the first pivot at most :data:`PIVOT_RTOL`
    times the largest; the rank r it reaches leaves n * d - r flat
    directions, spanned by N = P^T [-L11^-T L21^T; I].  The basic solution
    (the system of the first r pivots solved, the rest 0) minus its
    projection on span N is the minimum-norm solution.  Only plain numpy
    and :func:`_solve_linear` run, no LAPACK routine.  Returns (values,
    flat_directions), the values one tuple per cell.
    """
    s = np.sqrt(np.asarray(weights, dtype=float))
    x0 = np.asarray(base_point, dtype=float)
    n, d = len(s), len(x0)
    size, axis = n * d, np.arange(d)
    c1, c2, w = plan.c1, plan.c2, plan.weight[:, None, None]
    e = (x0 - _apply_rows(plan.matrix, plan.shift, x0))[:, :, None]
    # the blocks of A at c1 and c2; a loop's one block is (I - M_t) / s_c, so
    # that a translation loop adds exactly 0
    loop = (c1 == c2)[:, None, None]
    q = -plan.matrix / s[c2, None, None]
    parts = ((c1, np.eye(d) / s[c1, None, None] + loop * q), (c2, ~loop * q))
    h, g = np.zeros(size * size), np.zeros(size)
    for ca, a in parts:
        wa_t, rows = w * a.transpose(0, 2, 1), ca[:, None] * d + axis  # w A^T, the rows of H
        g -= np.bincount(rows.ravel(), (wa_t @ e).ravel(), size)
        for cb, b in parts:
            at = rows[:, :, None] * size + (cb[:, None] * d + axis)[:, None, :]
            h += np.bincount(at.ravel(), (wa_t @ b).ravel(), size * size)
    h = h.reshape(size, size)
    # pivoted Cholesky, outer-product form: column r of h becomes column r of
    # L, whose upper triangle is never read
    perm = np.arange(size)
    floor = PIVOT_RTOL * max(h.diagonal().max(), 0.0)
    r = 0
    while r < size:
        rest = h.diagonal()[r:].tolist()
        j = r + rest.index(max(rest))
        if not h[j, j] > floor:
            break
        perm[[r, j]] = perm[[j, r]]
        h[[r, j]] = h[[j, r]]
        h[:, [r, j]] = h[:, [j, r]]
        col = h[r:, r]
        col /= math.sqrt(col[0])
        h[r + 1 :, r + 1 :] -= col[1:, None] * col[1:]
        r += 1
    low = h[:r, :r]
    # the basic solution: L11 L11^T y1 = g1, y2 = 0; then N^T N c = N^T y
    y = np.zeros(size)
    y[:r] = _triangular_solve(low, _triangular_solve(low, g[perm[:r]]), upper=True)
    if size > r:
        null = np.concatenate((-_triangular_solve(low, h[r:, :r].T, upper=True), np.eye(size - r)))
        y -= null @ np.array(_solve_linear((null.T @ null).tolist(), (null.T @ y).tolist()))
    z = np.empty(size)
    z[perm] = y
    x = x0 + z.reshape(n, d) / s[:, None]
    return [tuple(v) for v in x.tolist()], size - r


def _triangular_solve(low, b, upper: bool = False):
    """The solution of low x = b (of low^T x = b when ``upper``) for a lower
    triangular ``low``, by substitution; b is a vector or a matrix."""
    x = np.array(b, dtype=float)
    rows = range(len(x) - 1, -1, -1) if upper else range(len(x))
    for i in rows:
        done = slice(i + 1, None) if upper else slice(0, i)
        coef = low[done, i] if upper else low[i, done]
        x[i] = (x[i] - coef @ x[done]) / low[i, i]
    return x


# ---------------------------------------------------------------------------
# Minimizers
# ---------------------------------------------------------------------------

# A shift component at most this times the largest shift of a compiled solve's
# terms is a rounding residue, not data.  Composed and inverted isometries
# leave residues below 2^-52 times the largest shift (word balls of radius 5
# of a rotation about a point and a translation on R^2); the cut sits 4096
# times above that.
ABSORB_SCALE = 2.0 ** -40


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

    Each sweep revisits every cell and moves it to the value of its local
    solve, which never raises the cell's local objective, so the objective
    never increases beyond the rounding of its sum (a row may exceed the row
    before by a few ulps near a minimizer).  Stops when the sweep decrease
    falls below tol * (1 + |E|) and no cell moved more than tol.  ``anchor``
    is an optional pair (lam, x0) adding sum_c lam * mu_c * d(phi(c), x0)^p
    to the objective; ``class_weights`` rescales term weights per class
    (classes missing from the dict are dropped; on the compiled engine the
    kept terms become rows of the flat term arrays with their scaled
    weights).  Sweeps are Gauss-Seidel: each cell's update sees the updates
    made before it in the same sweep.

    Sweeps run on the compiled engine when the terms compile
    (:attr:`TermEnergy.arrays`: Euclidean target, p = 2, Euclidean
    transports) and no ``anchor`` is given, with the scalar engine's
    numbers (bit for bit in one dimension), and on the scalar engine
    otherwise.  A compiled solve raises :class:`SolverError` when, at the
    map it would return, a shift component b of some kept term loses more
    than half its value to rounding, |((M x + b) - M x) - b| > |b|/2, and
    |b| exceeds :data:`ABSORB_SCALE` times the largest |b| of the kept terms.
    ``extras`` records the ``objective``, the ``engine``
    ("compiled" or "scalar"), the ``stop_reason`` ("converged" or
    "max_sweeps") and ``local_solves``, the local solves by path
    (:data:`LOCAL_PATHS`, see :func:`_solve_local`).
    """
    phi = phi_init if phi_init is not None else const_map(prob.model, prob.target, prob.base_point)
    if phi.model != prob.model or phi.target != prob.target:
        raise SpaceMismatchError("initial map does not match the problem")
    space, p, mu, classes = prob.target, prob.p, prob.model.weights, prob.classes
    # class weights rescale the terms of the local subproblems, whose plans
    # keep the terms of classes with a nonzero weight at (class weight) * w
    scales = None if class_weights is None else [float(class_weights.get(c, 0.0)) for c in classes]
    counts = dict.fromkeys(LOCAL_PATHS, 0)

    def row(sweep, max_move, e_total, per_class, norm, anchor_energy=None) -> TraceRow:
        obj = e_total if scales is None else math.fsum(s * e for s, e in zip(scales, per_class))
        if anchor_energy is not None:
            obj += anchor_energy
        return TraceRow(sweep, e_total, per_class, norm, max_move, obj)

    k = prob.arrays if anchor is None else None
    if k is not None:
        engine = "compiled"
        masks = prob.class_masks
        plan = k
        if scales is not None:
            term_scale = np.full(len(k.c1), scales[0]) if masks is None else np.select(masks, scales)
            kept = np.flatnonzero(term_scale != 0.0)
            plan = KernelArrays(
                k.c1[kept], k.c2[kept], term_scale[kept] * k.weight[kept], k.matrix[kept], k.shift[kept]
            )
        mu_arr = np.array(mu)
        base = np.array(prob.base_point, dtype=float)

        def compiled_row(x, sweep, max_move) -> TraceRow:
            sq = _sq_terms(k.weight, x[k.c1] - _apply_rows(k.matrix, k.shift, x[k.c2]))
            e_total = math.fsum(sq.tolist())
            per_class = (e_total,) if masks is None else tuple(math.fsum(sq[m].tolist()) for m in masks)
            norm = _weighted_sq_dist(mu_arr, x, base) ** (1.0 / p)
            return row(sweep, max_move, e_total, per_class, norm)

        values, obj, sweeps, converged, trace = _compiled_sweeps(
            plan, phi.values, tol, max_sweeps, compiled_row, counts
        )
        # a shift that rounding takes out of M x + b drops out of its term, and
        # the energy then misses it.  Components at most ABSORB_SCALE times the
        # largest kept shift are rounding residues of composed isometries
        # (6.1e-17 in rotation_2d(pi/2) after a unit translation) and do not count
        moved = _apply_rows(plan.matrix, 0.0, np.array(values)[plan.c2])
        size = np.abs(plan.shift)
        lost = np.abs((moved + plan.shift) - moved - plan.shift) > 0.5 * size
        lost &= size > ABSORB_SCALE * size.max(initial=0.0)
        if lost.any():
            t, i = np.argwhere(lost)[0]
            raise SolverError(
                f"absorbed shift: the shift {float(plan.shift[t, i])!r} is lost to"
                f" rounding at the coordinate {float(moved[t, i])!r}",
                best=EquivariantMap(prob.model, space, tuple(values)),
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
        anchors = None if anchor is None else [(anchor[0] * m, anchor[1]) for m in mu]
        values = list(phi.values)

        def scalar_row(sweep, max_move) -> TraceRow:
            cur = EquivariantMap(prob.model, space, tuple(values))
            e_total = energy(prob, cur)
            per_class = (e_total,) if len(classes) == 1 else tuple(energy(prob, cur, classes={c}) for c in classes)
            anchor_energy = None if anchor is None else math.fsum(
                w * space.distance(v, x0) ** p for (w, x0), v in zip(anchors, values)
            )
            return row(sweep, max_move, e_total, per_class, map_norm(p, cur, prob.base_point), anchor_energy)

        obj, sweeps, converged, trace = _descend(
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
        },
    )


# The penalty weights of the vanishing-penalty homotopy: 2^-1, ..., 2^-40
PENALTY_SCHEDULE = tuple(2.0 ** (-n) for n in range(1, 41))


def _staged_report(prob: TermEnergy, sol, e_total: float, reports, **extras) -> SolveReport:
    """The report of the stage solves ``reports`` returning ``sol`` (energy
    ``e_total``): energies and norm of ``sol``; trace, convergence, engine
    and stop reason of the last stage; sweeps and local solves by path
    summed over all stages; and ``extras``.  Each stage's objective never
    increases beyond rounding (:func:`minimize_energy`), but a later stage
    solves another objective, so the energy need not fall from stage to
    stage."""
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
            "local_solves": {k: sum(r.extras["local_solves"][k] for r in reports) for k in LOCAL_PATHS},
        },
    )


def norm_minimal_minimizer(
    prob: TermEnergy,
    tol: float = 1e-9,
    max_sweeps: int = 500,
    seed: int = 0,
) -> SolveReport:
    """The norm-minimal selection: the minimizer of least norm rho(., x0),
    x0 the base point.  The one procedure that selects it, here and in
    :func:`busemann.commensurability.subgroup_harmonic`.

    On compiled terms (:attr:`TermEnergy.arrays`) it is exact: the sweep
    engine started at the minimum-norm minimizer of
    :func:`quadratic_minimizer`, whose report it returns with
    ``extras["flat_directions"]`` added; ``iterations`` counts the sweeps of
    that one solve.

    Other energies run the vanishing-penalty homotopy: for each lam of
    :data:`PENALTY_SCHEDULE` (2^-n for n = 1..40), minimize
    E + lam * rho(., x0)^p from the previous stage's solution (the first
    from the constant map at x0), then one free solve, all at tol * 1e-2;
    ``iterations`` counts the sweeps of all of them.  The extras carry the
    stage gaps rho(phi_k, phi_{k-1}); the homotopy must be Cauchy (final gap
    below tol), otherwise a :class:`SolverError` signals flat directions
    that the penalty could not resolve.
    """
    if prob.arrays is not None:
        values, flat = quadratic_minimizer(prob.arrays, prob.model.weights, prob.base_point)
        start = EquivariantMap(prob.model, prob.target, tuple(values))
        rep = minimize_energy(prob, start, tol, max_sweeps, seed)
        return replace(rep, extras={**rep.extras, "flat_directions": flat})
    inner_tol = tol * 1e-2  # keep stage noise below the Cauchy resolution
    path = [const_map(prob.model, prob.target, prob.base_point)]
    stages = []
    for lam in PENALTY_SCHEDULE:
        stages.append(minimize_energy(prob, path[-1], inner_tol, max_sweeps, seed, anchor=(lam, prob.base_point)))
        path.append(stages[-1].solution)
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
        stages=tuple((lam, rep.energy_total, rep.norm) for lam, rep in zip(PENALTY_SCHEDULE, stages)),
    )


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
