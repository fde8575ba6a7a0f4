"""Finite-index covers and the all-pairs commensurability energy.

A :class:`CoverSpec` describes how a finite-index subgroup sits inside the
group generated by a problem's twists: each twist generator permutes the
cosets, and explicit coset-representative isometries are carried so that
maps can be lifted.  ``build_cover`` unfolds a problem to its cover (edges
routed by the coset permutations, twists conjugated into the subgroup).

The commensurability energy is the kernel-weighted all-pairs sum

    I(phi) = (1/norm) * sum_{c1, c2} sum_gamma  mu_1 mu_2 h(|gamma|)
             * d(phi(c1), gamma phi(c2))^2,

where gamma runs over the word ball of the twist group, |gamma| is the word
norm and h(n) = exp(-n^2 + 1); the ball radius is chosen so the truncated
tail of h is negligible.  Minimizers are computed by the same block
coordinate descent as the edge energy; uniqueness is probed by restart
agreement and is expected exactly when no sampled point pair is parallel
under every generator.

On Euclidean targets the descent runs on arrays: each model is compiled once
(:attr:`CommEnergyModel.arrays`) into flat term arrays and per-cell plans,
and every sweep evaluates transports, local objectives and energies with
numpy in the same floating-point order as the scalar loop, so both paths
return the same numbers.  Other targets use the scalar loop, which stays the
general path and the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from busemann.convexity import parallel_check
from busemann.harmonic import (
    EquivariantProblem,
    Edge,
    SolveReport,
    TraceRow,
    _local_objective,
    _require_finite,
    _solve_local,
)
from busemann.mapspace import (
    EquivariantMap,
    MeasureModel,
    map_norm,
    sample_map,
)
from busemann.spaces import (
    DomainError,
    Euclidean,
    EuclideanIsometry,
    SolverError,
    SpaceMismatchError,
    ValidationError,
    identity_isometry,
    sample_point,
)

__all__ = [
    "CoverSpec",
    "CommEnergyModel",
    "KernelTerm",
    "build_cover",
    "cover_cell",
    "lift_map",
    "comm_energy_model",
    "cover_comm_energy_model",
    "commensurability_energy",
    "subgroup_harmonic",
    "conjugate_map",
    "conjugate_comm_model",
    "parallel_orbits_check",
    "coercivity_fit",
    "word_ball",
]


def cover_cell(cell, coset: int):
    return f"{cell}@{coset}"


@dataclass(frozen=True)
class CoverSpec:
    """Finite-index subgroup data over a base problem.

    ``generators`` lists the distinct twist isometries of the base problem;
    ``permutations[i]`` tells how generator i permutes the cosets 1..k
    (0-indexed); ``coset_reps`` are isometries representing each coset, used
    to conjugate twists into the subgroup and to lift maps.
    """

    base: EquivariantProblem
    index: int
    generators: tuple
    permutations: tuple
    coset_reps: tuple
    word_check_length: int = 4

    def __post_init__(self):
        k = self.index
        if k < 1:
            raise ValidationError("cover index must be >= 1")
        if len(self.permutations) != len(self.generators):
            raise ValidationError("one coset permutation per generator required")
        if len(self.coset_reps) != k:
            raise ValidationError("one coset representative per coset required")
        for perm in self.permutations:
            if sorted(perm) != list(range(k)):
                raise ValidationError(f"{perm} is not a permutation of 0..{k - 1}")
        keyed = {g.key(): i for i, g in enumerate(self.generators)}
        for e in self.base.edges:
            if e.twist.key() not in keyed:
                raise ValidationError("an edge twist is missing from the generator list")
        # consistency: words that agree as isometries must agree on cosets
        seen = {identity_isometry(self.base.target).key(): tuple(range(k))}
        frontier = [(identity_isometry(self.base.target), tuple(range(k)))]
        for _ in range(self.word_check_length):
            nxt = []
            for t, perm in frontier:
                for g, gperm in zip(self.generators, self.permutations):
                    t2 = g.compose(t)
                    perm2 = tuple(gperm[perm[j]] for j in range(k))
                    key = t2.key()
                    if key in seen:
                        if seen[key] != perm2:
                            raise ValidationError(
                                "coset permutations are inconsistent with the twists"
                            )
                    else:
                        seen[key] = perm2
                        nxt.append((t2, perm2))
            frontier = nxt

    def generator_permutation(self, twist) -> tuple:
        for g, perm in zip(self.generators, self.permutations):
            if g.key() == twist.key():
                return perm
        raise DomainError("twist not among the cover generators")


def build_cover(spec: CoverSpec) -> EquivariantProblem:
    """Unfold a problem along a cover: k copies of every cell, edges routed
    by the coset permutations, twists conjugated by the coset representatives
    (so they land in the subgroup)."""
    if spec.index == 1:
        return spec.base
    base = spec.base
    k = spec.index
    cells = tuple(cover_cell(c, j) for j in range(k) for c in base.model.cells)
    weights = tuple(
        base.model.weights[i] / k
        for j in range(k)
        for i in range(len(base.model.cells))
    )
    total = math.fsum(weights)
    weights = tuple(w / total for w in weights)
    reps = spec.coset_reps
    edges = []
    for e in base.edges:
        perm = spec.generator_permutation(e.twist)
        for j in range(k):
            twist = reps[perm[j]].compose(e.twist).compose(reps[j].invert())
            edges.append(
                Edge(cover_cell(e.src, j), cover_cell(e.dst, perm[j]), e.weight, twist, e.cls)
            )
    return EquivariantProblem(
        MeasureModel(cells, weights),
        base.target,
        base.base_point,
        tuple(edges),
        base.p,
    )


def _cover_cosets(spec: CoverSpec, cover_prob: EquivariantProblem) -> list:
    """(base cell index, coset) of every cover cell: :func:`build_cover` lists
    base cell i of coset j at position j * n_base + i."""
    n = len(spec.base.model.cells)
    if spec.index > 1 and len(cover_prob.model.cells) != spec.index * n:
        raise SpaceMismatchError("problem is not the cover built from this spec")
    return [(pos % n, pos // n) for pos in range(len(cover_prob.model.cells))]


def lift_map(spec: CoverSpec, phi: EquivariantMap, cover_prob: Optional[EquivariantProblem] = None) -> EquivariantMap:
    """Lift a base map to the cover: the copy of cell c in coset j takes the
    value rep_j(phi(c))."""
    if phi.model != spec.base.model:
        raise SpaceMismatchError("map does not live over the cover's base model")
    cover_prob = cover_prob if cover_prob is not None else build_cover(spec)
    if spec.index == 1:
        return EquivariantMap(cover_prob.model, spec.base.target, phi.values)
    values = tuple(
        spec.coset_reps[j].apply(phi.values[i]) for i, j in _cover_cosets(spec, cover_prob)
    )
    return EquivariantMap(cover_prob.model, spec.base.target, values)


# ---------------------------------------------------------------------------
# Word balls and the kernel model
# ---------------------------------------------------------------------------


def word_ball(space, generators: Sequence, radius: int):
    """Distinct isometries reachable as words of length <= radius in the
    generators and their inverses, with their word norms."""
    gens = []
    seen_keys = set()
    for g in generators:
        for h in (g, g.invert()):
            k = h.key()
            if k not in seen_keys:
                seen_keys.add(k)
                gens.append(h)
    ident = identity_isometry(space)
    ball = {ident.key(): (ident, 0)}
    frontier = [ident]
    for n in range(1, radius + 1):
        nxt = []
        for t in frontier:
            for g in gens:
                t2 = g.compose(t)
                key = t2.key()
                if key not in ball:
                    ball[key] = (t2, n)
                    nxt.append(t2)
        frontier = nxt
    return list(ball.values())


def _kernel(n: int) -> float:
    return math.exp(-float(n) ** 2 + 1.0)


@dataclass(frozen=True)
class KernelTerm:
    c1: int  # cell indices into the model
    c2: int
    weight: float
    transport: object


@dataclass(frozen=True)
class CommEnergyModel:
    """All-pairs kernel model: cells, kernel terms, and normalization."""

    model: MeasureModel
    target: object
    base_point: object
    terms: tuple
    normalization: float
    generators: tuple
    word_radius: int
    truncation_residual: float

    @cached_property
    def arrays(self) -> Optional["KernelArrays"]:
        """The terms compiled for the array sweeps (None unless the target is
        Euclidean and every transport a :class:`EuclideanIsometry`); built on
        first use and dropped with the model."""
        return _compile_kernel(self)


@dataclass(frozen=True)
class CellPlan:
    """How the kernel terms enter one cell's local subproblem, in the order
    of the scalar plan: point terms transport another cell's value into this
    cell (by the term's transport or its inverse); loops are the terms from
    the cell to itself, with their normal-equation pieces (w a^T) a and
    -(w a^T) b for a = M - I precomputed."""

    src: np.ndarray
    weight: np.ndarray
    matrix: np.ndarray
    shift: np.ndarray
    loop_weight: np.ndarray
    loop_matrix: np.ndarray
    loop_shift: np.ndarray
    loop_normal: np.ndarray
    loop_rhs: np.ndarray


@dataclass(frozen=True)
class KernelArrays:
    """Kernel terms as flat arrays: term t contributes
    weight[t] * d(phi(c1[t]), matrix[t] phi(c2[t]) + shift[t])^2."""

    c1: np.ndarray
    c2: np.ndarray
    weight: np.ndarray
    matrix: np.ndarray
    shift: np.ndarray
    cells: tuple


def _compile_kernel(m: CommEnergyModel) -> Optional[KernelArrays]:
    if not isinstance(m.target, Euclidean) or not all(
        isinstance(kt.transport, EuclideanIsometry) for kt in m.terms
    ):
        return None
    d = m.target.dim
    n_terms = len(m.terms)
    c1 = np.array([kt.c1 for kt in m.terms], dtype=np.intp)
    c2 = np.array([kt.c2 for kt in m.terms], dtype=np.intp)
    weight = np.array([kt.weight for kt in m.terms], dtype=float)
    matrix = np.array([kt.transport.matrix for kt in m.terms], dtype=float).reshape(n_terms, d, d)
    shift = np.array([kt.transport.shift for kt in m.terms], dtype=float).reshape(n_terms, d)
    # inverse transports, computed as EuclideanIsometry.invert computes them
    inv_matrix = matrix.transpose(0, 2, 1)
    inv_shift = -(inv_matrix @ shift[:, :, None])[:, :, 0]
    is_loop = c1 == c2
    cells = []
    for ci in range(len(m.model.cells)):
        pts = np.flatnonzero(~is_loop & ((c1 == ci) | (c2 == ci)))
        forward = c1[pts] == ci
        loops = np.flatnonzero(is_loop & (c1 == ci))
        a = matrix[loops] - np.eye(d)
        wa_t = weight[loops, None, None] * a.transpose(0, 2, 1)
        cells.append(
            CellPlan(
                src=np.where(forward, c2[pts], c1[pts]),
                weight=weight[pts],
                matrix=np.where(forward[:, None, None], matrix[pts], inv_matrix[pts]),
                shift=np.where(forward[:, None], shift[pts], inv_shift[pts]),
                loop_weight=weight[loops],
                loop_matrix=matrix[loops],
                loop_shift=shift[loops],
                loop_normal=wa_t @ a,
                loop_rhs=-(wa_t @ shift[loops, :, None])[:, :, 0],
            )
        )
    return KernelArrays(c1, c2, weight, matrix, shift, tuple(cells))


def comm_energy_model(
    prob: EquivariantProblem,
    cutoff: float = 1e-12,
    max_radius: int = 8,
    positions: Optional[dict] = None,
    norm_generators: Optional[Sequence] = None,
) -> CommEnergyModel:
    """Build the all-pairs kernel model of a problem's twist group.

    The word ball is truncated at the radius R where h(R) = e^(1 - R^2)
    falls below ``cutoff``; the stored residual bounds the truncated tail
    relative to the total kernel mass.

    ``positions`` (cell -> isometry) places each cell inside the group; the
    kernel between cells c1, c2 under a group element gamma is weighted by
    the word norm of pos(c1)^-1 gamma pos(c2), measured in
    ``norm_generators`` (default: the problem's own twists).  Cover models
    built by :func:`cover_comm_energy_model` use the coset representatives
    as positions and the base generators as the norm, which makes the
    unfolded model agree with the base model term by term.
    """
    gens = []
    for e in prob.edges:
        if not any(t.key() == e.twist.key() for t in gens):
            gens.append(e.twist)
    norm_gens = list(norm_generators) if norm_generators is not None else gens
    radius = 1
    while _kernel(radius) >= cutoff and radius < max_radius:
        radius += 1
    norm_ball = word_ball(prob.target, norm_gens, radius)
    ident_key = identity_isometry(prob.target).key()
    mu = prob.model.weights
    cells = prob.model.cells
    n_cells = len(cells)
    terms = []
    if positions is None:
        for i in range(n_cells):
            for j in range(n_cells):
                for t, n in norm_ball:
                    if i == j and n == 0:
                        continue  # zero distance term
                    terms.append(KernelTerm(i, j, mu[i] * mu[j] * _kernel(n), t))
    else:
        # group elements available in the model: words in the problem's own
        # twists (generous radius, so membership below is not truncated)
        own_keys = {t.key() for t, _ in word_ball(prob.target, gens, radius + 4)}
        pos = [positions.get(c, identity_isometry(prob.target)) for c in cells]
        for i in range(n_cells):
            for j in range(n_cells):
                for delta, n in norm_ball:
                    gamma = pos[i].compose(delta).compose(pos[j].invert())
                    if gamma.key() not in own_keys:
                        continue
                    if i == j and gamma.key() == ident_key:
                        continue
                    terms.append(KernelTerm(i, j, mu[i] * mu[j] * _kernel(n), gamma))
    # superexponential decay of h against at-most-exponential word growth
    b = max(2 * len(norm_gens), 2)
    tail = math.fsum(_kernel(n) * b ** n for n in range(radius + 1, radius + 30))
    mass = math.fsum(w.weight for w in terms) or 1.0
    return CommEnergyModel(
        model=prob.model,
        target=prob.target,
        base_point=prob.base_point,
        terms=tuple(terms),
        normalization=1.0,
        generators=tuple(gens),
        word_radius=radius,
        truncation_residual=tail / mass,
    )


def cover_comm_energy_model(
    spec: CoverSpec,
    cover_prob: Optional[EquivariantProblem] = None,
    cutoff: float = 1e-12,
    max_radius: int = 8,
) -> CommEnergyModel:
    """Kernel model of a cover problem, with coset representatives as cell
    positions and word norms measured in the base generators (so folding a
    lifted map reproduces the base model's energy up to the 1/k weight)."""
    cover_prob = cover_prob if cover_prob is not None else build_cover(spec)
    if spec.index == 1:
        return comm_energy_model(cover_prob, cutoff, max_radius)
    positions = {
        cell: spec.coset_reps[j]
        for cell, (_, j) in zip(cover_prob.model.cells, _cover_cosets(spec, cover_prob))
    }
    return comm_energy_model(
        cover_prob,
        cutoff,
        max_radius,
        positions=positions,
        norm_generators=spec.generators,
    )


def commensurability_energy(m: CommEnergyModel, phi: EquivariantMap) -> float:
    """Normalized all-pairs kernel energy of a map."""
    if phi.model != m.model or phi.target != m.target:
        raise SpaceMismatchError("map does not live over the kernel model")
    t = m.target
    vals = phi.values
    return (
        math.fsum(
            kt.weight * t.distance(vals[kt.c1], kt.transport.apply(vals[kt.c2])) ** 2
            for kt in m.terms
        )
        / m.normalization
    )


# ---------------------------------------------------------------------------
# Minimization of the commensurability energy
# ---------------------------------------------------------------------------


def _comm_plans(m: CommEnergyModel):
    plans = [[] for _ in m.model.cells]
    for kt in m.terms:
        if kt.c1 == kt.c2:
            plans[kt.c1].append(("loop", kt.weight, kt.transport))
        else:
            plans[kt.c1].append(("pt", kt.weight, kt.c2, kt.transport))
            plans[kt.c2].append(("pt", kt.weight, kt.c1, kt.transport.invert()))
    return plans


def _comm_sweeps(m, values, tol, max_sweeps, anchor_weights=None, anchor_point=None):
    """Gauss-Seidel sweeps on the kernel energy plus the optional anchor term
    sum_c aw_c d(phi(c), anchor_point)^2.  Returns (values, objective, sweeps,
    converged, trace).  Compiled Euclidean models run on arrays, all others
    on the scalar loop; the results agree bit for bit in one dimension and to
rounding in more."""
    run = _comm_sweeps_arrays if m.arrays is not None else _comm_sweeps_scalar
    return run(m, values, tol, max_sweeps, anchor_weights, anchor_point)


def _comm_sweeps_scalar(m, values, tol, max_sweeps, anchor_weights=None, anchor_point=None):
    space = m.target
    plans = _comm_plans(m)

    def energies(vs):
        """(kernel energy, objective)"""
        e = commensurability_energy(m, EquivariantMap(m.model, space, tuple(vs)))
        if anchor_weights is None:
            return e, e
        return e, e + math.fsum(
            aw * space.distance(v, anchor_point) ** 2
            for aw, v in zip(anchor_weights, vs)
        )

    def norm_of(vs):
        return math.fsum(
            w * space.distance(v, m.base_point) ** 2
            for w, v in zip(m.model.weights, vs)
        ) ** 0.5

    e_base, obj = energies(values)
    _require_finite(obj, 0, values)
    trace = [TraceRow(0, e_base, (e_base,), norm_of(values), 0.0, obj)]
    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        max_move = 0.0
        for ci in range(len(values)):
            pts = []
            loops = []
            for item in plans[ci]:
                if item[0] == "loop":
                    loops.append((item[1], item[2]))
                else:
                    pts.append((item[1], item[3].apply(values[item[2]])))
            if anchor_weights is not None:
                pts.append((anchor_weights[ci], anchor_point))
            if not pts and not loops:
                continue
            znew = _solve_local(space, 2.0, pts, loops, values[ci], tol)
            if _local_objective(space, 2.0, pts, loops, znew) <= _local_objective(
                space, 2.0, pts, loops, values[ci]
            ):
                max_move = max(max_move, space.distance(values[ci], znew))
                values[ci] = znew
        e_base, new_obj = energies(values)
        _require_finite(new_obj, sweep, values)
        decrease = obj - new_obj
        obj = new_obj
        trace.append(TraceRow(sweep, e_base, (e_base,), norm_of(values), max_move, obj))
        if decrease < tol * (1.0 + abs(obj)) and max_move < tol:
            converged = True
            break
    return values, obj, sweeps, converged, tuple(trace)


def _apply_rows(matrix, shift, x):
    """Row t of x moved by x -> matrix[t] x + shift[t], summed in the order of
    :meth:`EuclideanIsometry.apply` ((0.0 + M_i0 x_0) + M_i1 x_1 ...) + b_i."""
    out = 0.0 + matrix[:, :, 0] * x[:, None, 0]
    for j in range(1, x.shape[1]):
        out = out + matrix[:, :, j] * x[:, None, j]
    return out + shift


def _weighted_sq_dist(weight, x, y) -> float:
    """fsum of weight_t * d(x_t, y_t)^2 over rows (broadcast), each square
    rounded as ``math.dist(x_t, y_t) ** 2`` rounds it (libm pow); in one
    dimension every term is bit-identical to the scalar one."""
    diff = x - y
    if diff.shape[1] == 1:
        dist = np.abs(diff[:, 0])
    else:
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return math.fsum((weight * np.float_power(dist, 2.0)).tolist())


def _comm_sweeps_arrays(m, values, tol, max_sweeps, anchor_weights=None, anchor_point=None):
    """The scalar sweeps on the compiled arrays.  Every sum that decides a
    value is taken in the scalar order (np.cumsum adds in sequence, fsum is
    exactly rounded), and the local solve is the same lstsq call, so in one
    dimension the results are bit-identical to :func:`_comm_sweeps_scalar`."""
    k = m.arrays
    d = m.target.dim
    x = np.array(values, dtype=float)
    mu = np.asarray(m.model.weights, dtype=float)
    base = np.asarray(m.base_point, dtype=float)
    anchored = anchor_weights is not None
    if anchored:
        aw = np.asarray(anchor_weights, dtype=float)
        anchor = np.asarray(anchor_point, dtype=float)[None, :]
    eye = np.eye(d)
    zero_row = np.zeros((1, d))
    # per cell: point-term weights (anchor last) and the normal matrix, summed
    # as _solve_local_euclidean sums them: zero, point terms, anchor, loops
    weights, normals = [], []
    for ci, cell in enumerate(k.cells):
        w = np.append(cell.weight, aw[ci]) if anchored else cell.weight
        weights.append(w)
        parts = (np.zeros((1, d, d)), w[:, None, None] * eye, cell.loop_normal)
        normals.append(np.cumsum(np.concatenate(parts), axis=0)[-1])

    def energies(x):
        """(kernel energy, objective)"""
        u = _apply_rows(k.matrix, k.shift, x[k.c2])
        e = _weighted_sq_dist(k.weight, x[k.c1], u) / m.normalization
        return e, (e + _weighted_sq_dist(aw, x, anchor)) if anchored else e

    def local_objective(cell, w, u, z):
        zt = z[None, :]
        moved = _apply_rows(cell.loop_matrix, cell.loop_shift, zt)
        return _weighted_sq_dist(w, zt, u) + _weighted_sq_dist(cell.loop_weight, moved, zt)

    e_base, obj = energies(x)
    _require_finite(obj, 0, values)
    trace = [TraceRow(0, e_base, (e_base,), _weighted_sq_dist(mu, x, base) ** 0.5, 0.0, obj)]
    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        max_move = 0.0
        for ci, cell in enumerate(k.cells):
            w = weights[ci]
            if not len(w) and not len(cell.loop_weight):
                continue
            u = _apply_rows(cell.matrix, cell.shift, x[cell.src])
            if anchored:
                u = np.concatenate((u, anchor))
            rhs = np.cumsum(np.concatenate((zero_row, w[:, None] * u, cell.loop_rhs)), axis=0)[-1]
            z0 = x[ci].copy()
            delta, *_ = np.linalg.lstsq(normals[ci], rhs - normals[ci] @ z0, rcond=None)
            znew = z0 + delta
            if local_objective(cell, w, u, znew) <= local_objective(cell, w, u, z0):
                max_move = max(max_move, math.dist(z0.tolist(), znew.tolist()))
                x[ci] = znew
        e_base, new_obj = energies(x)
        _require_finite(new_obj, sweep, [tuple(v) for v in x.tolist()])
        decrease = obj - new_obj
        obj = new_obj
        norm = _weighted_sq_dist(mu, x, base) ** 0.5
        trace.append(TraceRow(sweep, e_base, (e_base,), norm, max_move, obj))
        if decrease < tol * (1.0 + abs(obj)) and max_move < tol:
            converged = True
            break
    return [tuple(v) for v in x.tolist()], obj, sweeps, converged, tuple(trace)


def subgroup_harmonic(
    m: CommEnergyModel,
    tol: float = 1e-9,
    max_sweeps: int = 500,
    seed: int = 0,
    norm_minimal: bool = False,
    restarts: int = 2,
    check_parallel_orbits: bool = True,
) -> SolveReport:
    """Minimize the commensurability energy by block coordinate descent.

    Runs ``restarts`` independent starts (constant at the base point, then
    randomized) and compares the results: when the sampled parallel-orbits
    check says no pair of points is parallel under every generator, the
    minimizer is unique and the restarts must agree within 10 * tol
    (disagreement raises :class:`SolverError`); with parallel orbits present,
    disagreeing restarts are reported as non-uniqueness, not an error.

    ``norm_minimal`` selects among flat families by the vanishing-penalty
    homotopy toward the base point.
    """
    space = m.target
    rng = np.random.default_rng(seed)
    mu = m.model.weights

    def solve_from(values):
        if norm_minimal:
            vals = list(values)
            for lam in tuple(2.0 ** (-n) for n in range(1, 21)):
                aw = [lam * w for w in mu]
                vals, obj, sweeps, conv, trace = _comm_sweeps(
                    m, vals, tol, max_sweeps, anchor_weights=aw, anchor_point=m.base_point
                )
            return _comm_sweeps(m, vals, tol, max_sweeps)
        return _comm_sweeps(m, list(values), tol, max_sweeps)

    results = []
    for k in range(max(1, restarts)):
        if k == 0:
            init = [m.base_point] * len(m.model.cells)
        else:
            init = [sample_point(space, rng, 1.0) for _ in m.model.cells]
        results.append(solve_from(init))
    vals, obj, sweeps, conv, trace = min(results, key=lambda r: r[1])
    gap = 0.0
    for other in results[1:]:
        gap = max(
            gap,
            max(space.distance(a, b) for a, b in zip(results[0][0], other[0])),
        )
    parallel = (
        parallel_orbits_check(space, m.generators, seed=seed)
        if check_parallel_orbits
        else None
    )
    unique = gap <= 10.0 * tol
    if not unique and parallel is False:
        raise SolverError(
            "restarts disagree although no parallel orbits were found", best=vals
        )
    phi = EquivariantMap(m.model, space, tuple(vals))
    energy_total = commensurability_energy(m, phi)
    return SolveReport(
        solution=phi,
        energy_total=energy_total,
        energy_per_class={1: energy_total},
        norm=map_norm(2.0, phi, m.base_point),
        iterations=sweeps,
        trace=trace,
        converged=conv,
        extras={
            "restart_gap": gap,
            "unique": unique,
            "parallel_orbits": parallel,
            "norm_minimal": norm_minimal,
        },
    )


# ---------------------------------------------------------------------------
# Conjugation and parallel orbits
# ---------------------------------------------------------------------------


def conjugate_map(phi: EquivariantMap, lam, relabel: dict) -> EquivariantMap:
    """The map cell -> lam^-1(phi(relabel(cell)))."""
    cells = phi.model.cells
    if sorted(relabel) != sorted(cells) or sorted(relabel.values()) != sorted(cells):
        raise DomainError("relabel is not a bijection of the cells")
    lam_inv = lam.invert()
    idx = {c: i for i, c in enumerate(cells)}
    return EquivariantMap(
        phi.model,
        phi.target,
        tuple(lam_inv.apply(phi.values[idx[relabel[c]]]) for c in cells),
    )


def conjugate_comm_model(m: CommEnergyModel, lam, relabel: dict) -> CommEnergyModel:
    """Kernel model with cells relabeled and every transport conjugated by
    lam^-1; the energy of the conjugated map in this model equals the energy
    of the original map in the original model."""
    cells = m.model.cells
    if sorted(relabel) != sorted(cells) or sorted(relabel.values()) != sorted(cells):
        raise DomainError("relabel is not a bijection of the cells")
    idx = {c: i for i, c in enumerate(cells)}
    inv_of = {idx[relabel[c]]: idx[c] for c in cells}  # original index -> new index
    weights = [0.0] * len(cells)
    for c in cells:
        weights[idx[c]] = m.model.weights[idx[relabel[c]]]
    lam_inv = lam.invert()
    terms = tuple(
        KernelTerm(
            inv_of[kt.c1],
            inv_of[kt.c2],
            kt.weight,
            lam_inv.compose(kt.transport).compose(lam),
        )
        for kt in m.terms
    )
    return CommEnergyModel(
        model=MeasureModel(cells, tuple(weights)),
        target=m.target,
        base_point=lam_inv.apply(m.base_point),
        terms=terms,
        normalization=m.normalization,
        generators=tuple(lam_inv.compose(g).compose(lam) for g in m.generators),
        word_radius=m.word_radius,
        truncation_residual=m.truncation_residual,
    )


def parallel_orbits_check(
    space,
    generators: Sequence,
    sample_pairs: int = 64,
    seed: int = 0,
    tol: float = 1e-9,
) -> bool:
    """True when some sampled pair of distinct points stays parallel under
    every generator ([g x, g y] parallel to [x, y] for all g).

    One-sided: False only means no witness was found at this sample budget.
    """
    rng = np.random.default_rng(seed)
    for _ in range(sample_pairs):
        x = sample_point(space, rng, 2.0)
        y = sample_point(space, rng, 2.0)
        if space.distance(x, y) <= tol:
            continue
        if all(
            parallel_check(space, g.apply(x), g.apply(y), x, y, tol=max(tol, 1e-9))
            for g in generators
        ):
            return True
    return False


def coercivity_fit(m: CommEnergyModel, n_samples: int = 100, seed: int = 0, scale: float = 2.0) -> float:
    """Fitted constant c with I(phi) >= c * |phi|^2 over random maps
    (positive exactly when the kernel energy controls the norm)."""
    rng = np.random.default_rng(seed)
    c = math.inf
    for _ in range(n_samples):
        phi = sample_map(m.model, m.target, rng, scale)
        nrm = map_norm(2.0, phi, m.base_point)
        if nrm <= 1e-9:
            continue
        c = min(c, commensurability_energy(m, phi) / nrm**2)
    return 0.0 if c is math.inf else c
