"""Geometry and optimization in uniformly convex Busemann non-positively
curved metric spaces: convexity primitives, L_p spaces of equivariant maps,
and discrete equivariant harmonic-map solvers."""

from busemann.harmonic import Edge, EquivariantProblem, energy, minimize_energy
from busemann.mapspace import EquivariantMap, MeasureModel, map_distance
from busemann.spaces import (
    Euclidean,
    LpVector,
    MetricTree,
    Product,
    TreePoint,
    midpoint,
    star_tree,
)

__all__ = [
    "Edge",
    "EquivariantProblem",
    "EquivariantMap",
    "MeasureModel",
    "Euclidean",
    "LpVector",
    "MetricTree",
    "Product",
    "TreePoint",
    "energy",
    "map_distance",
    "midpoint",
    "minimize_energy",
    "star_tree",
]

__version__ = "0.1.0"
