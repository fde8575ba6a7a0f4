"""Finite-index covers and the all-pairs commensurability energy.

A :class:`CoverSpec` describes how a finite-index subgroup sits inside the
group generated by a problem's twists: each twist generator permutes the
cosets, and explicit coset-representative isometries are carried so that
maps can be lifted.  ``build_cover`` unfolds a problem to its cover (edges
routed by the coset permutations, twists conjugated into the subgroup).

The commensurability energy is the kernel-weighted all-pairs sum

    I(phi) = sum_{c1, c2} sum_gamma  mu_1 mu_2 h(|gamma|)
             * d(gamma phi(c2), phi(c1))^2,

where gamma runs over the word ball of the twist group, |gamma| is the word
norm and h(n) = exp(-n^2 + 1); the ball radius is chosen so the truncated
tail of h is negligible.  A :class:`CommEnergyModel` holds this sum as the
same term list as the edge energy (one :class:`~busemann.harmonic.Term` per
cell pair and gamma, p = 2, one class), so :func:`energy` and
:func:`minimize_energy` of :mod:`busemann.harmonic` evaluate and minimize
it, on the compiled engine for Euclidean targets and on the scalar engine
otherwise.  Uniqueness is probed by restart agreement and is expected
exactly when no sampled point pair is parallel under every generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from busemann.convexity import parallel_check
from busemann.harmonic import (
    EquivariantProblem,
    Edge,
    SolveReport,
    Term,
    TermEnergy,
    LOCAL_PATHS,
    _stop_reason,
    energy,
    minimize_energy,
)
from busemann.mapspace import (
    EquivariantMap,
    MeasureModel,
    map_norm,
    sample_map,
)
from busemann.spaces import (
    DomainError,
    SolverError,
    SpaceMismatchError,
    ValidationError,
    identity_isometry,
)

__all__ = [
    "CoverSpec",
    "CommEnergyModel",
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
class CommEnergyModel(TermEnergy):
    """All-pairs kernel model: cells and kernel terms (p = 2, one class)."""

    model: MeasureModel
    target: object
    base_point: object
    terms: tuple
    generators: tuple
    word_radius: int
    truncation_residual: float

    p = 2.0
    classes = (1,)


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
                    terms.append(Term(i, j, mu[i] * mu[j] * _kernel(n), t))
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
                    terms.append(Term(i, j, mu[i] * mu[j] * _kernel(n), gamma))
    # superexponential decay of h against at-most-exponential word growth
    b = max(2 * len(norm_gens), 2)
    tail = math.fsum(_kernel(n) * b ** n for n in range(radius + 1, radius + 30))
    mass = math.fsum(w.weight for w in terms) or 1.0
    return CommEnergyModel(
        model=prob.model,
        target=prob.target,
        base_point=prob.base_point,
        terms=tuple(terms),
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
    """All-pairs kernel energy of a map."""
    return energy(m, phi)


# ---------------------------------------------------------------------------
# Minimization of the commensurability energy
# ---------------------------------------------------------------------------


def _comm_sweeps(m, values, tol, max_sweeps, anchor=None):
    """Gauss-Seidel sweeps of :func:`minimize_energy` on the kernel energy
    from ``values``, with its optional ``anchor`` (lam, x0).  Returns
    (values, objective, sweeps, converged, trace, local_solves)."""
    rep = minimize_energy(
        m, EquivariantMap(m.model, m.target, tuple(values)), tol, max_sweeps, anchor=anchor
    )
    return (
        list(rep.solution.values), rep.extras["objective"], rep.iterations, rep.converged,
        rep.trace, rep.extras["local_solves"],
    )


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

    def solve_from(values):
        # the anchored homotopy stages, then the free solve; the local
        # solves of all of them are counted
        anchors = [(2.0 ** (-n), m.base_point) for n in range(1, 21)] if norm_minimal else []
        solves = dict.fromkeys(LOCAL_PATHS, 0)
        for anchor in anchors + [None]:
            values, obj, sweeps, conv, trace, counts = _comm_sweeps(m, values, tol, max_sweeps, anchor)
            for path, n in counts.items():
                solves[path] += n
        return values, obj, sweeps, conv, trace, solves

    results = []
    for k in range(max(1, restarts)):
        if k == 0:
            init = [m.base_point] * len(m.model.cells)
        else:
            init = [space.sample(rng, 1.0) for _ in m.model.cells]
        results.append(solve_from(init))
    vals, obj, sweeps, conv, trace, solves = min(results, key=lambda r: r[1])
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
    energy_total = trace[-1].energy_total  # the winning restart's final energy
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
            "engine": "compiled" if m.arrays is not None else "scalar",
            "stop_reason": _stop_reason(conv),
            "local_solves": solves,
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
        Term(
            inv_of[t.c1],
            inv_of[t.c2],
            t.weight,
            lam_inv.compose(t.transport).compose(lam),
        )
        for t in m.terms
    )
    return CommEnergyModel(
        model=MeasureModel(cells, tuple(weights)),
        target=m.target,
        base_point=lam_inv.apply(m.base_point),
        terms=terms,
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
        x = space.sample(rng, 2.0)
        y = space.sample(rng, 2.0)
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
