"""Finite-index covers and the all-pairs commensurability energy.

A :class:`CoverSpec` describes how a finite-index subgroup sits inside the
group generated by a problem's twists: each twist generator permutes the
cosets, and explicit coset-representative isometries are carried so that
maps can be lifted.  ``build_cover`` unfolds a problem to its cover (edges
routed by the coset permutations, twists conjugated into the subgroup).
Membership in the subgroup is read off the permutations alone: the one word
search, :func:`_ball`, carries the permutation of every word and rejects
permutations that two words of one isometry disagree on.

The commensurability energy is the kernel-weighted all-pairs sum

    I(phi) = sum_{c1, c2} sum_gamma  mu_1 mu_2 h(|gamma|)
             * d(gamma phi(c2), phi(c1))^2,

where gamma runs over the word ball of the twist group, |gamma| is the word
norm and h(n) = exp(-n^2 + 1); the ball radius is chosen so the truncated
tail of h is negligible.  On a cover the ball runs over words delta in the
base generators, the term from c2 (coset j2) to c1 (coset j1) transports by
rep_j1 delta rep_j2^-1 with the kernel of |delta|, and it is kept exactly
when delta maps coset j2 to coset j1.  A :class:`CommEnergyModel` holds this
sum in the form of the edge energy (one term per cell pair and gamma, p = 2, one
class), so :func:`energy` and :func:`minimize_energy` of
:mod:`busemann.harmonic` evaluate and minimize it.  On a Euclidean target
the word ball and the transports are built as stacked (matrix, shift)
arrays, multiplied and de-duplicated as the
:class:`~busemann.spaces.EuclideanIsometry` objects would be, and the model
carries the compiled :class:`~busemann.harmonic.KernelArrays` from the start;
its :class:`~busemann.harmonic.Term` tuple is built only when :func:`energy`
or the scalar engine reads it.  Other targets build the terms from isometry
objects and run on the scalar engine.  :func:`subgroup_harmonic` solves
a compiled model exactly: the kernel energy is then a quadratic form (the
discrete connection Laplacian of Kotani and Sunada), whose minimum-norm
minimizer :func:`~busemann.harmonic.norm_minimal_minimizer` computes, and
the null space of its normal matrix counts the flat directions.  The
minimizer is unique exactly when there are none, and some pair of orbits is
parallel exactly when there are some: an isometry of a strictly convex
space is affine, x -> Lx + b, segments [x, y] and [gx, gy] are parallel
exactly when L(y - x) = y - x, and a null vector is a vector fixed by the
linear part of every transport.  Other targets are solved from two starts,
the base point and a random map, each a free
:func:`~busemann.harmonic.minimize_energy` solve, and uniqueness is probed
by their agreement, expected exactly when no pair of points is parallel
under every generator (decided exactly for signed permutations of l_p, by
sampled pairs elsewhere); the norm-minimal selection runs once after them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from busemann.convexity import parallel_check_batch
from busemann.harmonic import (
    EquivariantProblem,
    Edge,
    SolveReport,
    Term,
    TermEnergy,
    compile_terms,
    energy,
    minimize_energy,
    norm_minimal_minimizer,
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
    KEY_DECIMALS,
    LpVector,
    SignedPermIsometry,
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

    ``generators`` lists the distinct twist isometries of the base problem,
    every one of them and no other isometry;
    ``permutations[i]`` tells how generator i permutes the cosets 0..k-1;
    ``coset_reps`` are isometries representing each coset, used to
    conjugate twists into the subgroup and to lift maps: the twist of g out
    of coset j, rep_pi(j) g rep_j^-1, lies in the subgroup when rep_j maps
    coset j to coset 0.  Words of length <= 4 in the generators and their
    inverses that are one isometry must permute the cosets alike
    (:func:`_ball`), or :class:`ValidationError` is raised.
    """

    base: EquivariantProblem
    index: int
    generators: tuple
    permutations: tuple
    coset_reps: tuple

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
        keyed = {g.key(): perm for g, perm in zip(self.generators, self.permutations)}
        object.__setattr__(self, "_perm_by_key", keyed)
        twists = {e.twist.key() for e in self.base.edges}
        if not twists <= keyed.keys():
            raise ValidationError("an edge twist is missing from the generator list")
        if not keyed.keys() <= twists:
            raise ValidationError("a cover generator is not an edge twist")
        # words of length <= 4 that agree as isometries must agree on cosets
        space = self.base.target
        _ball(_kind(space, (*self.generators, *self.coset_reps)), space, self.generators, _perm_array(self), 4)

    def generator_permutation(self, twist) -> tuple:
        perm = self._perm_by_key.get(twist.key())
        if perm is None:
            raise DomainError("twist not among the cover generators")
        return perm


def _perm_array(spec: CoverSpec) -> np.ndarray:
    """The coset permutations of ``spec`` as a (generators, index) array."""
    return np.array(spec.permutations, dtype=np.intp).reshape(len(spec.generators), spec.index)


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


class _Stack:
    """Euclidean isometries x -> matrix[t] x + shift[t], stacked, with the
    arithmetic of :class:`EuclideanIsometry` row by row: ``compose`` and
    ``invert`` multiply in its order and ``keys`` round as its ``key()``:
    rint(x 10^9) / 10^9 equals Python's ``round(x, 9)`` where |x 10^9| < 2^40
    and lies over 1e-3 from a half-integer; ``round`` itself takes the rest."""

    def __init__(self, matrix, shift):
        self.matrix, self.shift = matrix, shift

    @classmethod
    def of(cls, isos) -> "_Stack":
        d = len(isos[0].shift)
        return cls(
            np.array([g.matrix for g in isos], dtype=float).reshape(-1, d, d),
            np.array([g.shift for g in isos], dtype=float).reshape(-1, d),
        )

    @staticmethod
    def cat(parts) -> "_Stack":
        return _Stack(
            np.concatenate([s.matrix for s in parts]), np.concatenate([s.shift for s in parts])
        )

    def __len__(self) -> int:
        return len(self.shift)

    def take(self, idx) -> "_Stack":
        return _Stack(self.matrix[idx], self.shift[idx])

    def compose(self, other: "_Stack") -> "_Stack":
        m = self.matrix
        return _Stack(m @ other.matrix, (m @ other.shift[..., None])[..., 0] + self.shift)

    def invert(self) -> "_Stack":
        m_t = self.matrix.transpose(0, 2, 1)
        return _Stack(m_t, -(m_t @ self.shift[..., None])[..., 0])

    def keys(self) -> list:
        d = self.shift.shape[1]
        rows = np.concatenate([self.matrix.reshape(len(self), d * d), self.shift], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):  # |x| past 1e299: ``round`` takes it
            scaled = rows * 10.0 ** KEY_DECIMALS
            slow = (np.abs(scaled) >= 2.0 ** 40) | (np.abs(scaled % 1.0 - 0.5) <= 1e-3)
        keys = np.rint(scaled) / 10.0 ** KEY_DECIMALS + 0.0
        keys[slow] = [round(x, KEY_DECIMALS) + 0.0 for x in rows[slow].tolist()]
        return list(map(tuple, keys.tolist()))


class _Objects(tuple):
    """Isometry objects with the interface of :class:`_Stack`."""

    of = classmethod(tuple.__new__)

    @staticmethod
    def cat(parts) -> "_Objects":
        return _Objects(g for part in parts for g in part)

    def take(self, idx) -> "_Objects":
        return _Objects(self[i] for i in idx)

    def compose(self, other) -> "_Objects":
        return _Objects(a.compose(b) for a, b in zip(self, other))

    def invert(self) -> "_Objects":
        return _Objects(g.invert() for g in self)

    def keys(self) -> list:
        return [g.key() for g in self]


def _kind(space, isometries) -> type:
    """:class:`_Stack` on a Euclidean target whose isometries are all
    :class:`EuclideanIsometry` objects, :class:`_Objects` otherwise."""
    euclidean = isinstance(space, Euclidean) and all(isinstance(g, EuclideanIsometry) for g in isometries)
    return _Stack if euclidean else _Objects


def _ball(kind, space, generators: Sequence, permutations, radius: int):
    """The word ball of :func:`word_ball` as a ``kind`` (:class:`_Stack` or
    :class:`_Objects`), the list of word norms and the coset permutation of
    every element.  ``permutations`` is a (generators, k) integer array: row
    i permutes the cosets 0..k-1 under generator i, an inverse permutes them
    back and the word g t permutes them as g after t.  Each radius composes
    every generator with every frontier element (frontier-major,
    generator-minor) and keeps each candidate whose key is new; a candidate
    with the key of an element already found but another permutation raises
    :class:`ValidationError`, so every word of length <= radius is checked."""
    perms = np.asarray(permutations, dtype=np.intp)
    k = perms.shape[1]
    gens, gperms, seen = [], [], {}
    for g, perm in zip(generators, perms):
        for h, hperm in ((g, perm), (g.invert(), np.argsort(perm))):
            key, hperm = h.key(), tuple(hperm.tolist())
            if key not in seen:
                seen[key] = hperm
                gens.append(h)
                gperms.append(hperm)
            elif seen[key] != hperm:
                raise ValidationError("coset permutations are inconsistent with the twists")
    frontier, fperms = kind.of([identity_isometry(space)]), np.arange(k)[None, :]
    if not gens:  # the trivial group: the ball is the identity alone
        return frontier, [0], fperms
    gens, gperms = kind.of(gens), np.array(gperms, dtype=np.intp)
    seen = {frontier.keys()[0]: tuple(range(k))}
    parts, norms, cosets = [frontier], [0], [fperms]
    for n in range(1, radius + 1):
        rows = np.repeat(np.arange(len(frontier)), len(gens))
        cols = np.tile(np.arange(len(gens)), len(frontier))
        cand = gens.take(cols).compose(frontier.take(rows))
        cand_perms = gperms[cols[:, None], fperms[rows]]
        new = []
        for i, (key, perm) in enumerate(zip(cand.keys(), map(tuple, cand_perms.tolist()))):
            found = seen.get(key)
            if found is None:
                seen[key] = perm
                new.append(i)
            elif found != perm:
                raise ValidationError("coset permutations are inconsistent with the twists")
        new = np.array(new, dtype=np.intp)
        frontier, fperms = cand.take(new), cand_perms[new]
        parts.append(frontier)
        cosets.append(fperms)
        norms += [n] * len(new)
    return kind.cat(parts), norms, np.concatenate(cosets)


def word_ball(space, generators: Sequence, radius: int):
    """Distinct isometries reachable as words of length <= radius in the
    generators and their inverses, with their word norms."""
    ball, norms, _ = _ball(_Objects, space, generators, np.zeros((len(generators), 1), dtype=np.intp), radius)
    return list(zip(ball, norms))


def _kernel(n: int) -> float:
    return math.exp(-float(n) ** 2 + 1.0)


class CommEnergyModel(TermEnergy):
    """All-pairs kernel model: cells and kernel terms (p = 2, one class).

    It is built from its ``terms`` or, on a Euclidean target, from their
    compiled ``arrays`` (:class:`~busemann.harmonic.KernelArrays`), and
    derives the other form on first use: the compiled engine never builds
    the :class:`~busemann.harmonic.Term` tuple, which only :func:`energy`
    and the scalar engine read."""

    p = 2.0
    classes = (1,)

    def __init__(
        self, model, target, base_point, terms, generators, word_radius,
        truncation_residual, arrays=None,
    ):
        if (terms is None) == (arrays is None):
            raise ValidationError("a kernel model takes either its terms or their arrays")
        self.model = model
        self.target = target
        self.base_point = base_point
        self.generators = tuple(generators)
        self.word_radius = word_radius
        self.truncation_residual = truncation_residual
        # preset the cached property of the form given
        self.__dict__.update({"arrays": arrays} if terms is None else {"terms": tuple(terms)})

    @cached_property
    def terms(self) -> tuple:
        k = self.arrays
        isos = {}
        terms = []
        for c1, c2, w, m, b in zip(
            k.c1.tolist(), k.c2.tolist(), k.weight.tolist(), k.matrix.tolist(), k.shift.tolist()
        ):
            key = (tuple(map(tuple, m)), tuple(b))
            if key not in isos:
                isos[key] = EuclideanIsometry(*key)
            terms.append(Term(c1, c2, w, isos[key]))
        return tuple(terms)

    @property
    def n_terms(self) -> int:
        """The number of kernel terms (from the arrays when they are built)."""
        k = self.__dict__.get("arrays")
        return len(self.terms) if k is None else len(k.c1)


def _kernel_model(model, target, base_point, generators, radius, residual, c1, c2, weight, transports):
    """A :class:`CommEnergyModel` from its term columns: compiled arrays
    for a :class:`_Stack` of transports, a Term tuple otherwise."""
    if isinstance(transports, _Stack):
        arrays = compile_terms(target.dim, c1, c2, weight, transports.matrix, transports.shift)
        return CommEnergyModel(model, target, base_point, None, generators, radius, residual, arrays)
    terms = tuple(map(Term, c1.tolist(), c2.tolist(), weight.tolist(), transports))
    return CommEnergyModel(model, target, base_point, terms, generators, radius, residual)


def comm_energy_model(prob: EquivariantProblem, cutoff: float = 1e-12, max_radius: int = 8) -> CommEnergyModel:
    """Build the all-pairs kernel model of a problem's twist group.

    The word ball is truncated at the radius R where h(R) = e^(1 - R^2)
    falls below ``cutoff``; the stored residual bounds the truncated tail
    relative to the total kernel mass.  Terms run over (c1, c2, word ball
    element) in that nesting, without the identity from a cell to itself.
    On a Euclidean target the ball and the transports are built as stacked
    arrays (:class:`_Stack`), with the numbers of the isometry objects.
    """
    return _comm_model(prob, cutoff, max_radius)


def cover_comm_energy_model(
    spec: CoverSpec,
    cover_prob: Optional[EquivariantProblem] = None,
    cutoff: float = 1e-12,
    max_radius: int = 8,
) -> CommEnergyModel:
    """Kernel model of a cover problem: the ball runs over words delta in the
    base generators, and the term from c2 (coset j2) to c1 (coset j1)
    transports by rep_j1 delta rep_j2^-1 with the kernel of |delta|, kept
    exactly when delta maps coset j2 to coset j1 (so the transport lies in
    the subgroup).  Folding a lifted map reproduces the base model's energy
    up to the 1/k weight."""
    cover_prob = cover_prob if cover_prob is not None else build_cover(spec)
    if spec.index == 1:
        return comm_energy_model(cover_prob, cutoff, max_radius)
    return _comm_model(cover_prob, cutoff, max_radius, spec)


def _comm_model(prob, cutoff, max_radius, spec=None) -> CommEnergyModel:
    """The kernel model of ``prob``, or of the cover ``prob`` of ``spec``: a
    plain model is the index-1 case, its ball in the problem's own twists
    and its transports the ball elements themselves."""
    first = {}
    for e in prob.edges:
        first.setdefault(e.twist.key(), e.twist)
    gens = list(first.values())
    radius = 1
    while _kernel(radius) >= cutoff and radius < max_radius:
        radius += 1
    cells = prob.model.cells
    if spec is None:
        ball_gens, perms, reps = gens, np.zeros((len(gens), 1), dtype=np.intp), ()
        coset = np.zeros(len(cells), dtype=np.intp)
    else:
        ball_gens, perms, reps = list(spec.generators), _perm_array(spec), spec.coset_reps
        coset = np.array([j for _, j in _cover_cosets(spec, prob)], dtype=np.intp)
    kind = _kind(prob.target, gens + ball_gens + list(reps))
    ball, norms, cosets = _ball(kind, prob.target, ball_gens, perms, radius)
    kernel = np.array([_kernel(n) for n in norms])
    c1, c2, b = (a.ravel() for a in np.indices((len(cells), len(cells), len(norms))))
    # delta maps coset(c2) to coset(c1); no zero-distance terms
    keep = (cosets[b, coset[c2]] == coset[c1]) & ((c1 != c2) | (np.array(norms)[b] != 0))
    c1, c2, b = c1[keep], c2[keep], b[keep]
    transports = ball.take(b)
    if spec is not None:
        at = kind.of(reps)
        transports = at.take(coset[c1]).compose(transports).compose(at.invert().take(coset[c2]))
    mu = np.array(prob.model.weights)
    weight = mu[c1] * mu[c2] * kernel[b]
    # superexponential decay of h against at-most-exponential word growth
    growth = max(2 * len(ball_gens), 2)
    tail = math.fsum(_kernel(n) * growth ** n for n in range(radius + 1, radius + 30))
    mass = math.fsum(weight.tolist()) or 1.0
    return _kernel_model(prob.model, prob.target, prob.base_point, gens, radius, tail / mass, c1, c2, weight, transports)


def commensurability_energy(m: CommEnergyModel, phi: EquivariantMap) -> float:
    """All-pairs kernel energy of a map."""
    return energy(m, phi)


# ---------------------------------------------------------------------------
# Minimization of the commensurability energy
# ---------------------------------------------------------------------------


def subgroup_harmonic(
    m: CommEnergyModel,
    tol: float = 1e-9,
    max_sweeps: int = 500,
    seed: int = 0,
    norm_minimal: bool = False,
) -> SolveReport:
    """Minimize the commensurability energy and decide whether its minimizer
    is unique.

    On a model with compiled terms (``m.arrays``: a Euclidean target) the
    energy is a quadratic form, solved exactly: the result is
    :func:`~busemann.harmonic.norm_minimal_minimizer`, the norm-minimal
    selection whether or not ``norm_minimal`` is set, and its report gives
    the trace, ``converged``, the counters, ``iterations`` (the sweeps of
    that solve alone) and ``flat_directions``.  ``unique`` is
    ``flat_directions == 0``, the exact count of the null space, and
    ``parallel_orbits`` is ``flat_directions > 0``: a null vector is a
    direction fixed by the linear part of every transport, so it spans a
    flat strip between orbits (see the module docstring).  One
    check runs: the sweep engine from the base point, and ``restart_gap``
    is the largest cell distance between the result and the check; on a
    unique model a gap above 10 * tol raises :class:`SolverError`.

    Other targets run two free solves, one constant at the base point and
    one from a random start.  The result is the report of the first of
    least objective or, with ``norm_minimal``, that of one
    :func:`~busemann.harmonic.norm_minimal_minimizer` call after them (the
    penalty homotopy, seed 0), with ``iterations`` and the counters of all
    its stages.  ``restart_gap`` is the largest cell distance between the
    two solves, and ``unique`` means that it is at most 10 * tol.
    ``parallel_orbits`` is decided exactly when every generator is a signed
    permutation of an l_p target (:func:`_signed_perm_fixed_direction`) and
    by :func:`parallel_orbits_check`'s sampled pairs on other targets;
    solves that disagree although no pair of points was found parallel under
    every generator raise :class:`SolverError`.

    ``extras`` also records the model's ``kernel_terms``, ``word_radius``
    and ``truncation_residual``, and ``flat_directions`` on the exact path.
    """
    space = m.target
    exact = m.arrays is not None
    if exact:
        win = norm_minimal_minimizer(m, tol, max_sweeps)
        flat = win.extras["flat_directions"]
        results = [win, minimize_energy(m, None, tol, max_sweeps)]  # the check from the base point
    else:
        rng = np.random.default_rng(seed)
        starts = [[m.base_point] * len(m.model.cells), [space.sample(rng, 1.0) for _ in m.model.cells]]
        results = [minimize_energy(m, EquivariantMap(m.model, space, tuple(v)), tol, max_sweeps) for v in starts]
        if norm_minimal:
            win = norm_minimal_minimizer(m, tol, max_sweeps)
        else:
            win = min(results, key=lambda r: r.extras["objective"])
    first, second = (r.solution.values for r in results)
    gap = max(space.distance(a, b) for a, b in zip(first, second))
    if exact:
        parallel = flat > 0
    elif isinstance(space, LpVector) and all(isinstance(g, SignedPermIsometry) for g in m.generators):
        parallel = _signed_perm_fixed_direction(space.dim, m.generators)
    else:
        parallel = parallel_orbits_check(space, m.generators, seed=seed)
    if gap > 10.0 * tol and not parallel:
        raise SolverError(
            f"restart gap {gap:.3e} on a model with a unique minimizer", best=list(win.solution.values)
        )
    unique = flat == 0 if exact else gap <= 10.0 * tol
    return replace(
        win,
        norm=map_norm(2.0, win.solution, m.base_point),
        extras={
            "restart_gap": gap,
            "unique": unique,
            **({"flat_directions": flat} if exact else {}),
            "parallel_orbits": parallel,
            "norm_minimal": norm_minimal,
            "engine": win.extras["engine"],
            "stop_reason": win.extras["stop_reason"],
            "local_solves": win.extras["local_solves"],
            "kernel_terms": m.n_terms,
            "word_radius": m.word_radius,
            "truncation_residual": m.truncation_residual,
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
    k = m.arrays
    if k is not None:
        kind, c1, c2, weight, transports = _Stack, k.c1, k.c2, k.weight, _Stack(k.matrix, k.shift)
    else:
        kind, terms = _Objects, m.terms
        c1 = np.array([t.c1 for t in terms], dtype=np.intp)
        c2 = np.array([t.c2 for t in terms], dtype=np.intp)
        weight = np.array([t.weight for t in terms], dtype=float)
        transports = _Objects(t.transport for t in terms)
    every = np.zeros(len(c1), dtype=np.intp)
    conjugated = kind.of([lam_inv]).take(every).compose(transports).compose(kind.of([lam]).take(every))
    new_index = np.array([inv_of[i] for i in range(len(cells))], dtype=np.intp)
    return _kernel_model(
        MeasureModel(cells, tuple(weights)),
        m.target,
        lam_inv.apply(m.base_point),
        tuple(lam_inv.compose(g).compose(lam) for g in m.generators),
        m.word_radius,
        m.truncation_residual,
        new_index[c1],
        new_index[c2],
        weight,
        conjugated,
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
    The pairs are drawn one after the other (x, then y) and checked as one
    batch per generator: the verdict is any over the pairs farther apart
    than tol of all over the generators.
    """
    xs, ys = _orbit_pairs(space, sample_pairs, seed)
    if not xs:
        return False
    x, y = space.pack(xs), space.pack(ys)
    witness = space.distance_batch(x, y) > tol
    for g in generators:
        gx = space.pack([g.apply(p) for p in xs])
        gy = space.pack([g.apply(p) for p in ys])
        witness &= parallel_check_batch(space, gx, gy, x, y, tol=max(tol, 1e-9))
    return bool(witness.any())


def _signed_perm_fixed_direction(dim: int, generators: Sequence) -> bool:
    """True when the linear parts v -> (s_i v_perm[i])_i of the signed
    permutations ``generators`` fix a common nonzero vector of R^dim.

    An isometry of a strictly convex space is affine, x -> Lx + b, so
    [g x, g y] is parallel to [x, y] exactly when L(y - x) = y - x.  The
    equations v_i = s_i v_perm[i] couple only the coordinates of one orbit
    of the permutations, and on an orbit the value at one coordinate fixes
    the rest: the orbit carries a fixed vector exactly when spreading the
    value 1 along it meets no sign conflict.
    """
    sign = [0] * dim  # the spread value at each coordinate, 0 before it is reached
    for root in range(dim):
        if sign[root]:
            continue
        sign[root], stack, consistent = 1, [root], True
        while stack:
            i = stack.pop()
            for g in generators:
                j, want = g.perm[i], g.signs[i] * sign[i]  # v_perm[i] = s_i v_i
                if not sign[j]:
                    sign[j] = want
                    stack.append(j)
                elif sign[j] != want:
                    consistent = False
        if consistent:
            return True
    return False


def _orbit_pairs(space, sample_pairs: int, seed: int):
    """The sampled points x_k and y_k of ``parallel_orbits_check``."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(sample_pairs):
        xs.append(space.sample(rng, 2.0))
        ys.append(space.sample(rng, 2.0))
    return xs, ys


def coercivity_fit(m: CommEnergyModel, n_samples: int = 100, seed: int = 0) -> float:
    """Fitted constant c with I(phi) >= c * |phi|^2 over random maps, each
    value sampled at scale 2 (positive exactly when the kernel energy
    controls the norm)."""
    rng = np.random.default_rng(seed)
    c = math.inf
    for _ in range(n_samples):
        phi = sample_map(m.model, m.target, rng, 2.0)
        nrm = map_norm(2.0, phi, m.base_point)
        if nrm <= 1e-9:
            continue
        c = min(c, commensurability_energy(m, phi) / nrm**2)
    return 0.0 if c is math.inf else c
