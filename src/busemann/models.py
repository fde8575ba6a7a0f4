"""Named desk-scale model generators shared by the CLI, tests and docs.

Every generator returns a :class:`GeneratedModel` holding the problem, an
optional non-trivial initial map, and (for cover models) the cover spec.
Edge weights follow the kernel decay h(g) = e^(1 - |g|^2) in the word norm
of the generating isometries, so generator edges carry weight h(1) = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from busemann.commensurability import CoverSpec, build_cover
from busemann.harmonic import Edge, EquivariantProblem, IdentityConventionWarning
from busemann.mapspace import EquivariantMap, MeasureModel
from busemann.spaces import (
    DomainError,
    Euclidean,
    Product,
    ProductIsometry,
    TreeIsometry,
    identity_isometry,
    point_reflection,
    star_tree,
    translation,
)

__all__ = [
    "GeneratedModel",
    "GENERATORS",
    "generate",
    "consensus_model",
    "dihedral_line_problem",
    "dihedral_line_model",
    "translation_loop_model",
    "product_two_class_model",
    "dihedral_cover_model",
    "translation_cover_spec",
    "tree_consensus_model",
    "tree_leafswap_model",
]


@dataclass
class GeneratedModel:
    problem: EquivariantProblem
    init: Optional[EquivariantMap] = None
    cover_spec: Optional[CoverSpec] = None


def _identity_chain(space, cells: int, base_point) -> EquivariantProblem:
    """Cells c0, c1, ... of equal weight, each joined to the next in both
    directions by the identity."""
    ident = identity_isometry(space)
    m = MeasureModel(tuple(f"c{i}" for i in range(cells)), (1.0 / cells,) * cells)
    edges = []
    for i in range(cells - 1):
        edges.append(Edge(f"c{i}", f"c{i+1}", 1.0, ident))
        edges.append(Edge(f"c{i+1}", f"c{i}", 1.0, ident))
    return EquivariantProblem(m, space, base_point, tuple(edges))


def _one_cell(space, base_point, edges) -> EquivariantProblem:
    """The single cell c0 of weight 1 with self-loop edges; a loop set
    without the identity is intended here, so its warning is silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IdentityConventionWarning)
        return EquivariantProblem(MeasureModel(("c0",), (1.0,)), space, base_point, tuple(edges))


def consensus_model(cells: int = 4, spread: float = 1.0) -> GeneratedModel:
    """Chain of cells with identity twists in both directions; every constant
    map has zero energy, so the solver must reach consensus."""
    if cells < 2:
        raise DomainError("consensus needs at least 2 cells")
    prob = _identity_chain(Euclidean(1), cells, (0.0,))
    init = EquivariantMap(prob.model, prob.target, tuple((spread * i,) for i in range(cells)))
    return GeneratedModel(prob, init)


def dihedral_line_problem(cells: int = 3) -> EquivariantProblem:
    """Cells discretizing [0, 1) for the line with a mirror at 0: chain edges
    with a translation wrap, plus translation and reflection loops with
    h-weights on every cell.  The symmetry c_i -> c_{cells-1-i} is declared."""
    if cells < 2:
        raise DomainError("dihedral-line needs at least 2 cells")
    e1 = Euclidean(1)
    ident = identity_isometry(e1)
    t1 = translation(e1, (1.0,))
    r0 = point_reflection(e1, (0.0,))
    names = tuple(f"c{i}" for i in range(cells))
    m = MeasureModel(names, (1.0 / cells,) * cells)
    edges = []
    for i in range(cells - 1):
        edges.append(Edge(names[i], names[i + 1], 1.0, ident))
    edges.append(Edge(names[-1], names[0], 1.0, t1))
    for n in names:
        edges.append(Edge(n, n, 1.0, t1))
        edges.append(Edge(n, n, 1.0, r0))
    symmetry = {names[i]: names[cells - 1 - i] for i in range(cells)}
    return EquivariantProblem(
        m, e1, (0.0,), tuple(edges), symmetry=tuple(sorted(symmetry.items()))
    )


def dihedral_line_model(cells: int = 3) -> GeneratedModel:
    prob = dihedral_line_problem(cells)
    init = EquivariantMap(
        prob.model, prob.target, tuple((0.25 * (i + 1),) for i in range(cells))
    )
    return GeneratedModel(prob, init)


def translation_loop_model(base: float = 0.0) -> GeneratedModel:
    """Single cell with a translation self-loop: the energy is flat (constant
    1), so only the norm-minimal selection pins the solution down."""
    e1 = Euclidean(1)
    prob = _one_cell(e1, (float(base),), (Edge("c0", "c0", 1.0, translation(e1, (1.0,))),))
    init = EquivariantMap(prob.model, e1, ((float(base) + 3.0,),))
    return GeneratedModel(prob, init)


def product_two_class_model() -> GeneratedModel:
    """Single cell mapped into R x R; class-1 edges act on the first factor
    (mirror at 0), class-2 on the second (mirror at 1).  Lexicographic
    minimization must solve the factors independently: ((0), (1))."""
    e1 = Euclidean(1)
    pr = Product((e1, e1), 2.0)
    ident = identity_isometry(e1)
    a = ProductIsometry((point_reflection(e1, (0.0,)), ident))
    b = ProductIsometry((ident, point_reflection(e1, (1.0,))))
    prob = _one_cell(pr, ((0.0,), (0.0,)), (Edge("c0", "c0", 1.0, a, 1), Edge("c0", "c0", 1.0, b, 2)))
    init = EquivariantMap(prob.model, pr, (((0.7,), (-0.4,)),))
    return GeneratedModel(prob, init)


def _dihedral_base(cells: int):
    """The dihedral line problem and the generators of its covers: the
    identity, the unit translation and the mirror at 0."""
    base = dihedral_line_problem(cells)
    e1 = base.target
    return base, (identity_isometry(e1), translation(e1, (1.0,)), point_reflection(e1, (0.0,)))


def dihedral_cover_model(k: int = 2, cells: int = 3) -> GeneratedModel:
    """Finite-index cover of the dihedral line model.

    k = 2 unfolds along the index-2 subgroup generated by the doubled
    translation and the mirror (the reflection-preserving cover, which has a
    unique minimizer); k = 1 returns the base model.
    """
    base, gens = _dihedral_base(cells)
    ident, t1, _ = gens
    if k == 1:
        spec = CoverSpec(base, 1, gens, ((0,), (0,), (0,)), (ident,))
    elif k == 2:
        spec = CoverSpec(base, 2, gens, ((0, 1), (1, 0), (0, 1)), (ident, t1))
    else:
        raise DomainError("dihedral-cover supports k in {1, 2}")
    prob = build_cover(spec)
    return GeneratedModel(prob, None, spec)


def translation_cover_spec(cells: int = 3) -> CoverSpec:
    """Index-2 translation subgroup of the dihedral line model (the mirror
    swaps the cosets); its energy has a flat direction, exercising the
    norm-minimal selection."""
    base, gens = _dihedral_base(cells)
    ident, _, r0 = gens
    return CoverSpec(base, 2, gens, ((0, 1), (0, 1), (1, 0)), (ident, r0))


def tree_consensus_model(cells: int = 2) -> GeneratedModel:
    """Cells mapped into the unit 3-star with identity chain edges."""
    t = star_tree(3)
    prob = _identity_chain(t, cells, t.vertex_point("c"))
    init = EquivariantMap(prob.model, t, tuple(t.point(i % 3, 0.75) for i in range(cells)))
    return GeneratedModel(prob, init)


def tree_leafswap_model() -> GeneratedModel:
    """Single cell in the unit 3-star with a leaf-swapping automorphism loop;
    the minimizer is the fixed set of the swap (center and the third edge)."""
    t = star_tree(3)
    swap = TreeIsometry(t, {"c": "c", "l1": "l2", "l2": "l1", "l3": "l3"})
    prob = _one_cell(t, t.vertex_point("c"), (Edge("c0", "c0", 1.0, swap),))
    init = EquivariantMap(prob.model, t, (t.point(0, 0.6),))
    return GeneratedModel(prob, init)


GENERATORS = {
    "consensus": consensus_model,
    "dihedral-line": dihedral_line_model,
    "translation-loop": translation_loop_model,
    "product-two-class": product_two_class_model,
    "dihedral-cover": dihedral_cover_model,
}


def generate(name: str, params: Optional[dict] = None) -> GeneratedModel:
    if name not in GENERATORS:
        raise DomainError(f"unknown generator {name!r}; known: {sorted(GENERATORS)}")
    return GENERATORS[name](**(params or {}))
