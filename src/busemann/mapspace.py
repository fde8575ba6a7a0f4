"""The space of maps from a finite weighted cell model into a target space.

A :class:`MeasureModel` is a finite probability space of cells; an
:class:`EquivariantMap` assigns a target point to each cell (the discrete
stand-in for an equivariant map restricted to a fundamental domain).  The
space of such maps carries the L_p distance

    rho(phi, psi) = (sum_w mu_w d(phi_w, psi_w)^p)^(1/p),

is complete and Busemann non-positively curved whenever the target is, and
is uniformly convex with an explicit rate: the midpoint of two maps within
distance r of a third, separated by eps * r, is at distance at most
r * (1 - tau(eps)) from it, where tau(eps) = beta_p(delta(eps/4)^4),
beta_p Hanner's modulus of convexity of the scalar L_p space
(``banach_lp_modulus``) and delta a linear modulus lower bound of the
target.  ``uc_witness_check`` certifies this numerically; ``mazur_map``
implements the sphere-preserving map between scalar L_p and L_q fields.

The sampled verify suites run the array kernels beside them:
``uc_distances`` and ``uc_witness_of_distances`` check a block of triples
and ``mazur_map_batch`` maps a block of fields in one pass over numpy
arrays (map batches are point arrays with one row per sample, in the form
the target's ``distance_batch`` takes), with no object per sample.  On a
tree the kernel never builds the midpoint map: in an R-tree
d(z, mid(x, y)) = max(d(x, z), d(y, z)) - d(x, y)/2, so three distance
batches give rho(mid, psi).  The scalar functions stay the reference the
kernels are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from busemann.spaces import (
    DomainError,
    Euclidean,
    LpVector,
    MetricTree,
    Product,
    SpaceMismatchError,
    ValidationError,
    midpoint,
)

__all__ = [
    "MeasureModel",
    "EquivariantMap",
    "ScalarField",
    "const_map",
    "sample_map",
    "map_distance",
    "map_norm",
    "map_midpoint",
    "p_mean",
    "banach_lp_modulus",
    "hilbert_modulus",
    "linear_modulus_bound",
    "UCWitnessReport",
    "uc_witness_check",
    "uc_distances",
    "uc_witness_of_distances",
    "mazur_map",
    "mazur_map_batch",
    "scalar_norm",
    "scalar_distance",
    "permute_cells",
]


@dataclass(frozen=True)
class MeasureModel:
    """Finite probability space: cell ids with positive weights summing to 1."""

    cells: tuple
    weights: tuple

    def __post_init__(self):
        cells = tuple(self.cells)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "weights", weights)
        if len(cells) != len(weights) or not cells:
            raise ValidationError("cells/weights length mismatch or empty model")
        if len(set(cells)) != len(cells):
            raise ValidationError("duplicate cell ids")
        if not all(math.isfinite(w) for w in weights):
            raise ValidationError("cell weights must be finite")
        if any(w <= 0.0 for w in weights):
            raise ValidationError("cell weights must be positive")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ValidationError("cell weights must sum to 1")

    def index(self, cell) -> int:
        return self.cells.index(cell)


@dataclass(frozen=True)
class EquivariantMap:
    """One target point per cell of a measure model."""

    model: MeasureModel
    target: object
    values: tuple

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.model.cells):
            raise ValidationError("one value per cell required")
        for v in values:
            self.target.check_point(v)

    def value(self, cell):
        return self.values[self.model.index(cell)]

    def with_values(self, values) -> "EquivariantMap":
        return EquivariantMap(self.model, self.target, tuple(values))


def const_map(model: MeasureModel, target, x0) -> EquivariantMap:
    return EquivariantMap(model, target, (x0,) * len(model.cells))


def sample_map(model: MeasureModel, target, rng: np.random.Generator, scale: float = 1.0) -> EquivariantMap:
    return EquivariantMap(
        model, target, tuple(target.sample(rng, scale) for _ in model.cells)
    )


def _check_compatible(phi: EquivariantMap, psi: EquivariantMap) -> None:
    if phi.model != psi.model or phi.target != psi.target:
        raise SpaceMismatchError("maps live over different models or targets")


def map_distance(p: float, phi: EquivariantMap, psi: EquivariantMap) -> float:
    """The L_p distance: weighted p-mean of the pointwise distances."""
    if not (1.0 < p < math.inf):
        raise DomainError("exponent p must lie in (1, inf)")
    _check_compatible(phi, psi)
    t = phi.target
    return math.fsum(
        w * t.distance(a, b) ** p
        for w, a, b in zip(phi.model.weights, phi.values, psi.values)
    ) ** (1.0 / p)


def p_mean(p: float, weights, d: np.ndarray) -> np.ndarray:
    """(sum_w mu_w d_w^p)^(1/p) over the last axis of d: ``map_distance`` of
    map pairs from their cellwise ``distance_batch`` (see ``uc_distances``)."""
    if not (1.0 < p < math.inf):
        raise DomainError("exponent p must lie in (1, inf)")
    terms = np.asarray(weights, dtype=float) * np.float_power(d, p)
    return np.float_power(np.sum(terms, axis=-1), 1.0 / p)


def map_norm(p: float, phi: EquivariantMap, x0) -> float:
    """Distance to the constant map at the base point x0."""
    return map_distance(p, phi, const_map(phi.model, phi.target, x0))


def map_midpoint(phi: EquivariantMap, psi: EquivariantMap) -> EquivariantMap:
    _check_compatible(phi, psi)
    t = phi.target
    return phi.with_values(midpoint(t, a, b) for a, b in zip(phi.values, psi.values))


# ---------------------------------------------------------------------------
# Modulus of convexity of the scalar L_p space
# ---------------------------------------------------------------------------


def hilbert_modulus(eps: float) -> float:
    """Modulus of convexity of a Hilbert space, 1 - sqrt(1 - eps^2/4): the
    p = 2 case of :func:`banach_lp_modulus`."""
    return banach_lp_modulus(2.0, eps)


def banach_lp_modulus(p: float, eps: float) -> float:
    """Modulus of convexity of the scalar L_p space (Hanner, 1956).

    For p >= 2 the closed form 1 - (1 - (eps/2)^p)^(1/p), evaluated as
    -expm1(log1p(-(eps/2)^p) / p) so that it does not cancel at small eps.
    For 1 < p < 2 the root delta of

        F(delta) = (1 - delta + eps/2)^p + |1 - delta - eps/2|^p - 2 = 0

    inside the bracket [0, hilbert_modulus(eps)].  F is convex and
    decreasing, so Newton steps from delta = 0 rise monotonically to the
    root and never pass it: each iterate is the lower end of a bracket, and
    the last one is returned.  F is evaluated as 2 expm1(p log(1 - delta) +
    log Phi(t)) with t = (eps/2) / (1 - delta) and Phi(t) = ((1 + t)^p +
    |1 - t|^p) / 2, whose excess over 1 is summed as a series at small t.
    """
    if not (1.0 < p < math.inf):
        raise DomainError("exponent p must lie in (1, inf)")
    if eps <= 0.0:
        return 0.0
    if eps >= 2.0:
        return 1.0
    if p >= 2.0:
        return -math.expm1(math.log1p(-((eps / 2.0) ** p)) / p)
    a = eps / 2.0
    hi = hilbert_modulus(eps)
    d = 0.0
    for _ in range(64):
        s = 1.0 - d
        half_f = math.expm1(p * math.log1p(-d) + math.log1p(_half_sum_excess(p, a / s)))
        half_slope = 0.5 * p * ((s + a) ** (p - 1.0) + math.copysign(abs(s - a) ** (p - 1.0), s - a))
        nxt = d + half_f / half_slope
        if not d < nxt < hi:
            break
        d = nxt
    return d


def _half_sum_excess(p: float, t: float) -> float:
    """((1 + t)^p + |1 - t|^p) / 2 - 1 for 1 < p < 2 and t > 0.  Below
    t = 1/4 it is summed as its binomial series sum_k C(p, 2k) t^(2k), whose
    terms are all positive, so nothing cancels."""
    if t >= 0.25:
        return 0.5 * ((1.0 + t) ** p + abs(1.0 - t) ** p) - 1.0
    t2 = t * t
    total, term, k = 0.0, 1.0, 0
    while True:
        term *= (p - k) * (p - k - 1.0) / ((k + 1.0) * (k + 2.0)) * t2
        k += 2
        if total + term == total:
            return total
        total += term


def linear_modulus_bound(space) -> Callable[[float], float]:
    """A certified linear-in-r lower bound eps -> delta(eps) for the modulus
    of convexity of a supported target space."""
    if isinstance(space, (Euclidean, MetricTree)):
        return hilbert_modulus  # CAT(0) targets satisfy the Hilbert modulus
    if isinstance(space, LpVector):
        p = space.p
        if p >= 2.0:
            return functools.partial(banach_lp_modulus, p)
        def two_uniform(eps: float) -> float:
            if eps <= 0.0:
                return 0.0
            e = min(eps, 2.0)
            return (p - 1.0) * e * e / 8.0
        return two_uniform
    if isinstance(space, Product) and _is_cat0(space):
        return hilbert_modulus
    raise DomainError(f"no built-in modulus bound for {space!r}; supply delta explicitly")


def _is_cat0(space) -> bool:
    if isinstance(space, (Euclidean, MetricTree)):
        return True
    if isinstance(space, Product) and space.q == 2.0:
        return all(_is_cat0(f) for f in space.factors)
    return False


# ---------------------------------------------------------------------------
# Uniform convexity witness
# ---------------------------------------------------------------------------


@dataclass
class UCWitnessReport:
    eps: float
    tau: float
    bound: float
    rho_mid: float
    slack: float
    ok: bool
    small_modulus_regime: bool


def uc_witness_check(
    p: float,
    delta: Callable[[float], float],
    psi: EquivariantMap,
    phi1: EquivariantMap,
    phi2: EquivariantMap,
    r: float,
) -> UCWitnessReport:
    """Certify the uniform-convexity inequality of the map space on a triple.

    Preconditions: rho(phi_i, psi) <= r and delta is a linear modulus lower
    bound for the target.  Computes eps = rho(phi1, phi2) / r and checks

        rho(midpoint(phi1, phi2), psi) <= r * (1 - tau(eps)),
        tau(eps) = beta_p(delta(eps/4)^4).

    The certified rate is only meaningful when delta(eps/4) is small next to
    eps; ``small_modulus_regime`` records that side condition (reported, never
    failed on).
    """
    if r <= 0.0:
        raise DomainError("radius r must be positive")
    d1 = map_distance(p, phi1, psi)
    d2 = map_distance(p, phi2, psi)
    if d1 > r * (1.0 + 1e-12) or d2 > r * (1.0 + 1e-12):
        raise DomainError("precondition rho(phi_i, psi) <= r violated")
    eps = map_distance(p, phi1, phi2) / r
    d4 = float(delta(eps / 4.0))
    tau = banach_lp_modulus(p, d4 ** 4) if eps > 0.0 else 0.0
    bound = r * (1.0 - tau)
    rho_mid = map_distance(p, map_midpoint(phi1, phi2), psi)
    slack = bound - rho_mid
    regime = (
        2.0 * d4 ** 2 + d4 ** 4 <= eps * (1.0 - 2.0 ** (-p)) ** (1.0 / p) + 1e-15
        and (1.0 - d4 ** 2) ** (1.0 / p) <= 1.0 - d4 ** 4 + 1e-15
    )
    return UCWitnessReport(eps, tau, bound, rho_mid, slack, slack >= -1e-12 * r, regime)


def uc_distances(target, psi, phi1, phi2) -> tuple:
    """The cellwise distances d(phi1, psi), d(phi2, psi), d(phi1, phi2) and
    d(mid(phi1, phi2), psi) of a batch of triples.  psi, phi1 and phi2 hold
    one map per sample, as point arrays of a Euclidean, l_p or tree target
    with one column per cell.  None of the distances depends on p, so a
    caller checking one batch at several p computes them once."""
    dist = target.distance_batch
    d1, d2, d12 = dist(phi1, psi), dist(phi2, psi), dist(phi1, phi2)
    if isinstance(target, MetricTree):
        # the R-tree midpoint identity; clipped, as rounding can leave it an
        # ulp below 0, where its p-th power is NaN
        d_mid = np.maximum(np.maximum(d1, d2) - 0.5 * d12, 0.0)
    else:
        # the affine geodesic at t = 0.5, written as in ``geodesic``
        d_mid = dist((1.0 - 0.5) * np.asarray(phi1) + 0.5 * np.asarray(phi2), psi)
    return d1, d2, d12, d_mid


def uc_witness_of_distances(
    p: float, delta: Callable[[float], float], weights, distances, r=None
) -> UCWitnessReport:
    """``uc_witness_check`` on a batch of triples from their
    ``uc_distances``: a report whose fields are arrays with one entry per
    sample.  ``r`` holds one radius per sample; without it, each radius is
    the least the precondition admits, max(rho(phi_1, psi), rho(phi_2, psi),
    1e-9).  Raises when any triple violates the precondition
    rho(phi_i, psi) <= r."""
    d1, d2, d12, d_mid = distances
    rho = np.maximum(p_mean(p, weights, d1), p_mean(p, weights, d2))
    r = np.maximum(rho, 1e-9) if r is None else np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("radius r must be positive")
    if np.any(rho > r * (1.0 + 1e-12)):
        raise DomainError("precondition rho(phi_i, psi) <= r violated")
    eps = p_mean(p, weights, d12) / r
    rho_mid = p_mean(p, weights, d_mid)
    d4 = _each(delta, eps / 4.0)
    d4_2, d4_4 = np.float_power(d4, 2.0), np.float_power(d4, 4.0)
    tau = np.where(eps > 0.0, _each(functools.partial(banach_lp_modulus, p), d4_4), 0.0)
    bound = r * (1.0 - tau)
    slack = bound - rho_mid
    regime = (
        2.0 * d4_2 + d4_4 <= eps * (1.0 - 2.0 ** (-p)) ** (1.0 / p) + 1e-15
    ) & (np.float_power(1.0 - d4_2, 1.0 / p) <= 1.0 - d4_4 + 1e-15)
    return UCWitnessReport(eps, tau, bound, rho_mid, slack, slack >= -1e-12 * r, regime)


def _each(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn at every entry of the 1-d array x.  The moduli are evaluated by
    their scalar functions, so each has one implementation."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


# ---------------------------------------------------------------------------
# Scalar fields and the Mazur map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A real value per cell, tagged with its integrability exponent."""

    model: MeasureModel
    values: tuple
    p: float

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.model.cells):
            raise ValidationError("one value per cell required")
        if any(not math.isfinite(v) for v in values):
            raise ValidationError("field values must be finite")
        if not (1.0 < self.p < math.inf):
            raise ValidationError("exponent p must lie in (1, inf)")


def scalar_norm(f: ScalarField) -> float:
    return math.fsum(
        w * abs(v) ** f.p for w, v in zip(f.model.weights, f.values)
    ) ** (1.0 / f.p)


def scalar_distance(f: ScalarField, g: ScalarField) -> float:
    if f.model != g.model or f.p != g.p:
        raise SpaceMismatchError("fields live in different spaces")
    return math.fsum(
        w * abs(a - b) ** f.p for w, a, b in zip(f.model.weights, f.values, g.values)
    ) ** (1.0 / f.p)


def mazur_map(f: ScalarField, p: float, q: float) -> ScalarField:
    """Cellwise |f|^(p/q) * sign(f), re-tagged from exponent p to q.

    Preserves the unit sphere: the q-norm of the image is |f|_p^(p/q).
    """
    if f.p != p:
        raise DomainError(f"field has exponent {f.p}, not {p}")
    if not (1.0 < q < math.inf):
        raise DomainError("exponent q must lie in (1, inf)")
    a = p / q
    return ScalarField(
        f.model, tuple(math.copysign(abs(v) ** a, v) if v != 0.0 else 0.0 for v in f.values), q
    )


def mazur_map_batch(values: np.ndarray, p: float, q: float) -> np.ndarray:
    """``mazur_map`` over an array of field values (any shape): entrywise
    |v|^(p/q) * sign(v), and 0 at 0."""
    if not (1.0 < p < math.inf and 1.0 < q < math.inf):
        raise DomainError("exponents p and q must lie in (1, inf)")
    values = np.asarray(values, dtype=float)
    return np.where(values == 0.0, 0.0, np.copysign(np.float_power(np.abs(values), p / q), values))


def permute_cells(f: ScalarField, perm: Sequence[int]) -> ScalarField:
    """The field f o pi for a cell permutation pi (values[i] = f[perm[i]])."""
    if sorted(perm) != list(range(len(f.values))):
        raise DomainError("perm is not a permutation of the cells")
    return ScalarField(f.model, tuple(f.values[j] for j in perm), f.p)
