"""Discrete equivariant energy minimization.

An :class:`EquivariantProblem` is a finite weighted quotient graph: cells of
a probability model mapped into a target space, with isometry-labeled edges.
The energy of a map phi is

    E(phi) = sum_e  mu(src_e) * w_e * d(T_e phi(src_e), phi(dst_e))^p,

which is convex along geodesics of the map space when the target is BNPC.
Minimizers ("harmonic maps") are computed by cyclic block-coordinate descent:
each cell moves to the weighted Frechet mean of its twist-transported
neighbors (self-loops contribute displacement terms d(T z, z)^p, handled
exactly inside the local subproblem).  On Euclidean targets with p = 2 the
local subproblem is a linear solve, so energy decrease is exact.

Besides the plain minimizer this module provides the norm-minimal selection
(vanishing-penalty homotopy toward the base point), lexicographic
minimization across edge classes, and report-style checks of the structure
shared by all minimizers (midpoints of minimizers minimize; transported
edge segments of two minimizers are parallel).

Exponents p != 2 are accepted throughout and handled by the generic local
search; treat those paths as experimental (the convexity of the energy
still holds, but the closed-form local solvers and most oracle tests are
p = 2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from busemann.convexity import minimize_convex, parallel_check
from busemann.mapspace import (
    EquivariantMap,
    MeasureModel,
    const_map,
    map_distance,
    map_geodesic,
    map_midpoint,
    map_norm,
)
from busemann.spaces import (
    DomainError,
    Euclidean,
    MetricTree,
    Product,
    ProductIsometry,
    SolverError,
    SpaceMismatchError,
    ValidationError,
    isometry_defect,
    perturb,
)

__all__ = [
    "Edge",
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


@dataclass(frozen=True)
class EquivariantProblem:
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
        edges = tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in self.edges
        )
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
            _sampled_identity(self.target, e.twist) for e in edges
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


def _sampled_identity(space, T, samples: int = 6) -> bool:
    rng = np.random.default_rng(5)
    return all(
        space.distance(T.apply(x), x) <= 1e-12
        for x in (space.sample(rng) for _ in range(samples))
    )


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


def energy(prob: EquivariantProblem, phi: EquivariantMap, classes: Optional[set] = None) -> float:
    """Weighted edge energy of a map (optionally restricted to edge classes)."""
    if phi.model != prob.model or phi.target != prob.target:
        raise SpaceMismatchError("map does not live over the problem's model/target")
    t = prob.target
    idx = {c: i for i, c in enumerate(prob.model.cells)}
    mu = prob.model.weights
    vals = phi.values
    terms = []
    for e in prob.edges:
        if classes is not None and e.cls not in classes:
            continue
        si, di = idx[e.src], idx[e.dst]
        terms.append(mu[si] * e.weight * t.distance(e.twist.apply(vals[si]), vals[di]) ** prob.p)
    return math.fsum(terms)


def energy_by_class(prob: EquivariantProblem, phi: EquivariantMap) -> dict:
    return {c: energy(prob, phi, classes={c}) for c in prob.classes}


# ---------------------------------------------------------------------------
# Local subproblems (weighted Frechet means with displacement terms)
# ---------------------------------------------------------------------------


def _local_objective(space, p, point_terms, loop_terms, z) -> float:
    return math.fsum(w * space.distance(z, u) ** p for w, u in point_terms) + math.fsum(
        w * space.distance(T.apply(z), z) ** p for w, T in loop_terms
    )


def _solve_local(space, p, point_terms, loop_terms, current, tol: float, seed: int = 0):
    """Minimize sum w_i d(z, u_i)^p + sum w_j d(T_j z, z)^p over z.

    Exact linear algebra for Euclidean targets with p = 2 (among minimizers,
    the one nearest the current value is returned, which freezes flat
    directions); per-edge search for trees; factorwise recursion for l_2
    products of such targets with p = 2; derivative-free search otherwise.
    """
    if not point_terms and not loop_terms:
        return current
    if isinstance(space, Euclidean) and p == 2.0:
        return _solve_local_euclidean(space, point_terms, loop_terms, current)
    if isinstance(space, MetricTree):
        return _solve_local_tree(space, p, point_terms, loop_terms, current, tol)
    if (
        isinstance(space, Product)
        and space.q == 2.0
        and p == 2.0
        and all(isinstance(T, ProductIsometry) for _, T in loop_terms)
    ):
        parts = []
        for i, f in enumerate(space.factors):
            pts = [(w, u[i]) for w, u in point_terms]
            loops = [(w, T.parts[i]) for w, T in loop_terms]
            parts.append(_solve_local(f, p, pts, loops, current[i], tol, seed))
        return tuple(parts)
    f = lambda z: _local_objective(space, p, point_terms, loop_terms, z)
    radius = 1.0 + max((space.distance(current, u) for _, u in point_terms), default=1.0)
    z = minimize_convex(
        space, f, current, tol=max(tol * 1e-2, 1e-12), seed=seed, radius0=radius
    )
    return z if f(z) < f(current) else current


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
    solution: EquivariantMap
    energy_total: float
    energy_per_class: dict
    norm: float
    iterations: int
    trace: tuple
    converged: bool
    extras: dict = field(default_factory=dict)


def _require_finite(objective: float, sweep: int, best) -> None:
    """Stop a descent at once when its objective is NaN or infinite."""
    if not math.isfinite(objective):
        raise SolverError(f"non-finite objective {objective} at sweep {sweep}", best=best)


def _cell_plans(prob: EquivariantProblem, class_weights: Optional[dict]):
    """Per-cell lists describing how each edge enters the local subproblem."""
    idx = {c: i for i, c in enumerate(prob.model.cells)}
    mu = prob.model.weights
    plans = [[] for _ in prob.model.cells]
    for e in prob.edges:
        scale = 1.0 if class_weights is None else float(class_weights.get(e.cls, 0.0))
        if scale == 0.0:
            continue
        si, di = idx[e.src], idx[e.dst]
        w = scale * mu[si] * e.weight
        if si == di:
            plans[si].append(("loop", w, e.twist))
        else:
            plans[si].append(("out", w, di, e.twist.invert()))
            plans[di].append(("in", w, si, e.twist))
    return plans


def _local_terms(plan, values, anchor):
    point_terms = []
    loop_terms = []
    for item in plan:
        kind = item[0]
        if kind == "loop":
            loop_terms.append((item[1], item[2]))
        elif kind == "out":
            point_terms.append((item[1], item[3].apply(values[item[2]])))
        else:
            point_terms.append((item[1], item[3].apply(values[item[2]])))
    if anchor is not None:
        point_terms.append(anchor)
    return point_terms, loop_terms


def minimize_energy(
    prob: EquivariantProblem,
    phi_init: Optional[EquivariantMap] = None,
    tol: float = 1e-9,
    max_sweeps: int = 500,
    mode: str = "gauss-seidel",
    seed: int = 0,
    anchor: Optional[tuple] = None,
    class_weights: Optional[dict] = None,
) -> SolveReport:
    """Cyclic block-coordinate descent on the edge energy.

    Each sweep revisits every cell and moves it to the minimizer of its local
    subproblem; the objective never increases.  Stops when the sweep decrease
    falls below tol * (1 + |E|) and no cell moved more than tol.  ``anchor``
    is an optional pair (lam, x0) adding lam * rho(phi, x0)^p to the
    objective; ``class_weights`` rescales edge weights per class (classes
    missing from the dict are dropped).  ``mode`` is "gauss-seidel" (in-place
    updates) or "jacobi" (all updates computed from a frozen snapshot, then
    applied along the map-space geodesic with a backtracked step, which keeps
    the descent monotone and is safe to parallelize).
    """
    if mode not in ("gauss-seidel", "jacobi"):
        raise DomainError(f"unknown sweep mode {mode!r}")
    phi = phi_init if phi_init is not None else prob.initial_map()
    if phi.model != prob.model or phi.target != prob.target:
        raise SpaceMismatchError("initial map does not match the problem")
    space = prob.target
    p = prob.p
    plans = _cell_plans(prob, class_weights)
    mu = prob.model.weights
    anchors = None
    if anchor is not None:
        lam, x0 = anchor
        anchors = [(lam * m, x0) for m in mu]

    def objective(m: EquivariantMap) -> float:
        if class_weights is None:
            base = energy(prob, m)
        else:
            base = math.fsum(
                float(class_weights.get(c, 0.0)) * energy(prob, m, classes={c})
                for c in prob.classes
            )
        if anchor is not None:
            base += anchor[0] * map_norm(p, m, anchor[1]) ** p
        return base

    values = list(phi.values)
    cur = EquivariantMap(prob.model, space, tuple(values))
    obj = objective(cur)
    _require_finite(obj, 0, cur)
    trace = [
        TraceRow(
            0,
            energy(prob, cur),
            tuple(energy(prob, cur, classes={c}) for c in prob.classes),
            map_norm(p, cur, prob.base_point),
            0.0,
            obj,
        )
    ]
    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        max_move = 0.0
        if mode == "gauss-seidel":
            for ci in range(len(values)):
                pts, loops = _local_terms(plans[ci], values, anchors[ci] if anchors else None)
                if not pts and not loops:
                    continue
                znew = _solve_local(space, p, pts, loops, values[ci], tol, seed)
                if _local_objective(space, p, pts, loops, znew) <= _local_objective(
                    space, p, pts, loops, values[ci]
                ):
                    max_move = max(max_move, space.distance(values[ci], znew))
                    values[ci] = znew
            nxt = EquivariantMap(prob.model, space, tuple(values))
            obj_new = objective(nxt)
        else:
            proposals = []
            for ci in range(len(values)):
                pts, loops = _local_terms(plans[ci], values, anchors[ci] if anchors else None)
                if not pts and not loops:
                    proposals.append(values[ci])
                    continue
                proposals.append(_solve_local(space, p, pts, loops, values[ci], tol, seed))
            prop = EquivariantMap(prob.model, space, tuple(proposals))
            lam_step = 1.0
            nxt, obj_new = cur, obj
            for _ in range(40):
                candidate = map_geodesic(cur, prop, lam_step)
                oc = objective(candidate)
                if oc < obj:
                    nxt, obj_new = candidate, oc
                    break
                lam_step *= 0.5
            max_move = max(
                space.distance(a, b) for a, b in zip(cur.values, nxt.values)
            )
            values = list(nxt.values)
        _require_finite(obj_new, sweep, nxt)
        decrease = obj - obj_new
        cur, obj = nxt, obj_new
        trace.append(
            TraceRow(
                sweep,
                energy(prob, cur),
                tuple(energy(prob, cur, classes={c}) for c in prob.classes),
                map_norm(p, cur, prob.base_point),
                max_move,
                obj,
            )
        )
        if decrease < tol * (1.0 + abs(obj)) and max_move < tol:
            converged = True
            break
    e_total = energy(prob, cur)
    report = SolveReport(
        solution=cur,
        energy_total=e_total,
        energy_per_class=energy_by_class(prob, cur),
        norm=map_norm(p, cur, prob.base_point),
        iterations=sweeps,
        trace=tuple(trace),
        converged=converged,
        extras={"objective": obj},
    )
    return report


def norm_minimal_minimizer(
    prob: EquivariantProblem,
    tol: float = 1e-9,
    schedule: Optional[Sequence[float]] = None,
    max_sweeps: int = 500,
    seed: int = 0,
) -> SolveReport:
    """Near-minimizer of the energy with (approximately) minimal norm.

    Runs the vanishing-penalty homotopy: minimize E(phi) + lam * rho(phi,
    x0)^p for a decreasing schedule of lam (default 2^-n, n = 1..40), warm
    starting each stage at the previous solution.  The returned report's
    extras carry the stage gaps rho(phi_k, phi_{k-1}); the homotopy must be
    Cauchy (final gap below tol), otherwise a :class:`SolverError` signals
    flat directions that the penalty could not resolve.
    """
    lams = tuple(schedule) if schedule is not None else tuple(2.0 ** (-n) for n in range(1, 41))
    if not lams:
        raise DomainError("empty schedule")
    inner_tol = tol * 1e-2  # keep stage noise below the Cauchy resolution
    phi = prob.initial_map()
    gaps = []
    stage_reports = []
    for lam in lams:
        rep = minimize_energy(
            prob,
            phi_init=phi,
            tol=inner_tol,
            max_sweeps=max_sweeps,
            seed=seed,
            anchor=(lam, prob.base_point),
        )
        gaps.append(map_distance(prob.p, rep.solution, phi))
        phi = rep.solution
        stage_reports.append((lam, rep.energy_total, rep.norm))
    # ignore the first gap: it measures the distance from the initial guess
    tail = gaps[1:] if len(gaps) > 1 else gaps
    if tail and tail[-1] >= tol:
        raise SolverError(
            "penalty homotopy is not Cauchy; energy has unresolved flat directions",
            best=phi,
        )
    final = minimize_energy(prob, phi_init=phi, tol=inner_tol, max_sweeps=max_sweeps, seed=seed)
    # keep the anchored solution if the final free polish wandered along a flat
    # direction (it cannot improve the energy by more than tol)
    sol = final.solution if map_distance(prob.p, final.solution, phi) < 10.0 * tol else phi
    e_total = energy(prob, sol)
    rep = SolveReport(
        solution=sol,
        energy_total=e_total,
        energy_per_class=energy_by_class(prob, sol),
        norm=map_norm(prob.p, sol, prob.base_point),
        iterations=sum(1 for _ in lams),
        trace=final.trace,
        converged=final.converged,
        extras={
            "stage_gaps": tuple(gaps),
            "stages": tuple(stage_reports),
            "norm_check": _norm_minimality_probe(prob, sol, e_total, tol, seed),
        },
    )
    return rep


def _norm_minimality_probe(prob, sol, e_total, tol, seed, samples: int = 24):
    """Sampled near-minimizers with equal energy must not have smaller norm."""
    rng = np.random.default_rng(seed + 99)
    space = prob.target
    norm0 = map_norm(prob.p, sol, prob.base_point)
    violations = 0
    checked = 0
    for _ in range(samples):
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
    large weight, escalated until their drift from the recorded minima is
    within tol.
    """
    order = list(class_order)
    if not order or any(c not in prob.classes for c in order):
        raise DomainError(f"class order {order} does not match classes {prob.classes}")
    phi = prob.initial_map()
    minima: dict = {}
    for j, cls in enumerate(order):
        if j == 0:
            weights = {cls: 1.0}
            rep = minimize_energy(
                prob, phi_init=phi, tol=tol, max_sweeps=max_sweeps, seed=seed,
                class_weights=weights,
            )
            phi = rep.solution
        else:
            big = 1.0e4
            for _ in range(5):
                weights = {c: big for c in order[:j]}
                weights[cls] = 1.0
                rep = minimize_energy(
                    prob, phi_init=phi, tol=tol, max_sweeps=max_sweeps, seed=seed,
                    class_weights=weights,
                )
                drift = max(
                    energy(prob, rep.solution, classes={c}) - minima[c] for c in order[:j]
                )
                if drift <= tol:
                    phi = rep.solution
                    break
                big *= 100.0
            else:
                raise SolverError("anchored energies keep drifting", best=rep.solution)
            phi = rep.solution
        minima[cls] = energy(prob, phi, classes={cls})
    e_total = energy(prob, phi)
    return SolveReport(
        solution=phi,
        energy_total=e_total,
        energy_per_class=energy_by_class(prob, phi),
        norm=map_norm(prob.p, phi, prob.base_point),
        iterations=len(order),
        trace=rep.trace,
        converged=rep.converged,
        extras={"stage_minima": dict(minima)},
    )


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
    failures = []
    for k, e in enumerate(prob.edges):
        si, di = idx[e.src], idx[e.dst]
        a = e.twist.apply(phi.values[si])
        b = phi.values[di]
        x = e.twist.apply(psi.values[si])
        y = psi.values[di]
        if not parallel_check(space, a, b, x, y, tol=max(tol, 1e-9)):
            failures.append(k)
    spread = None
    sym_ok = None
    if prob.symmetry is not None:
        sym = dict(prob.symmetry)
        by_key = {}
        for e in prob.edges:
            by_key.setdefault((e.src, e.dst, e.cls, e.twist.key()), []).append(e)
        spread = 0.0
        for e in prob.edges:
            img = by_key.get((sym.get(e.src), sym.get(e.dst), e.cls, e.twist.key()))
            if not img:
                continue
            e2_ = img[0]
            d1 = space.distance(e.twist.apply(phi.values[idx[e.src]]), phi.values[idx[e.dst]])
            d2 = space.distance(
                e2_.twist.apply(phi.values[idx[e2_.src]]), phi.values[idx[e2_.dst]]
            )
            spread = max(spread, abs(d1 - d2))
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
        Edge(
            cell_map[e.src],
            cell_map[e.dst],
            e.weight,
            lam.compose(e.twist).compose(lam_inv),
            e.cls,
        )
        for e in prob.edges
    )
    return EquivariantProblem(
        MeasureModel(cells, tuple(new_weights)),
        prob.target,
        lam.apply(prob.base_point),
        edges,
        prob.p,
    )


def orbit_diameter_heuristic(prob: EquivariantProblem, x=None, word_length: int = 4) -> float:
    """Diameter of the orbit of a point under words in the edge twists.

    A boundedness heuristic only: reported, never asserted.
    """
    x = x if x is not None else prob.base_point
    gens = []
    for e in prob.edges:
        if not any(t is e.twist for t in gens):
            gens.append(e.twist)
    gens = gens + [g.invert() for g in gens]
    orbit = [x]
    frontier = [x]
    for _ in range(word_length):
        nxt = []
        for y in frontier:
            for g in gens:
                z = g.apply(y)
                if all(prob.target.distance(z, o) > 1e-12 for o in orbit):
                    orbit.append(z)
                    nxt.append(z)
        frontier = nxt
        if not frontier:
            break
    return max(
        prob.target.distance(a, b) for a in orbit for b in orbit
    ) if len(orbit) > 1 else 0.0
