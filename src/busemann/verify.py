"""Property suites: sampled verification of the library's structural claims.

Each suite returns a list of :class:`CheckResult`; the CLI ``verify``
subcommand runs them at configured budgets and reports per-check pass/fail
with the worst observed slack.  The acceptance tests run the same suites at
the pinned budgets.
"""

from __future__ import annotations

import copy
import inspect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from busemann.commensurability import (
    build_cover,
    comm_energy_model,
    commensurability_energy,
    conjugate_comm_model,
    conjugate_map,
    coercivity_fit,
    cover_comm_energy_model,
    lift_map,
    subgroup_harmonic,
)
from busemann.convexity import clifford_check, modulus_estimate, parallel_check_batch
from busemann.harmonic import minimize_energy
from busemann.mapspace import (
    EquivariantMap,
    linear_modulus_bound,
    mazur_map_batch,
    uc_distances,
    uc_witness_of_distances,
)
from busemann.models import (
    consensus_model,
    dihedral_line_model,
    dihedral_cover_model,
    translation_cover_spec,
    translation_loop_model,
    tree_consensus_model,
    tree_leafswap_model,
)
from busemann.oracles import (
    euclidean_modulus_1d,
    grid_minimum_energy,
    smallest_enclosing_ball_bruteforce,
    tree_one_center,
)
from busemann.spaces import (
    Euclidean,
    LpVector,
    MetricTree,
    Product,
    SolverError,
    EuclideanIsometry,
    householder_reflection,
    random_orthogonal,
    random_tree,
    rotation_2d,
    star_tree,
    translation,
)
from busemann.convexity import circumcenter

__all__ = ["CheckResult", "SUITES", "run_suite"]

# The sampled suites run their array kernels on blocks of this many samples,
# so that memory stays flat whatever the budget.
BLOCK = 250


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""


def _space_roster():
    return [
        ("euclidean2", Euclidean(2)),
        ("euclidean3", Euclidean(3)),
        ("lp(2,3)", LpVector(2, 3.0)),
        ("lp(3,1.5)", LpVector(3, 1.5)),
        ("star-tree", star_tree(3)),
        ("product(e2,tree)", Product((Euclidean(2), star_tree(3)), 2.0)),
        ("product(e1,e1;q=3)", Product((Euclidean(1), Euclidean(1)), 3.0)),
    ]


# ---------------------------------------------------------------------------
# Parallelogram suite
# ---------------------------------------------------------------------------


def _quadruple(space, rng):
    mode = rng.uniform()
    if mode < 0.55:
        return tuple(space.sample(rng, 2.0) for _ in range(4))
    z1 = space.sample(rng, 2.0)
    z2 = space.sample(rng, 2.0)
    if space.distance(z1, z2) == 0.0:
        return tuple(space.sample(rng, 2.0) for _ in range(4))
    # two sub-segments of a common geodesic, shifted copies of each other
    h = float(rng.uniform(0.05, 0.4))
    u1 = float(rng.uniform(0.0, 1.0 - h))
    u2 = float(rng.uniform(0.0, 1.0 - h))
    a = space.geodesic(z1, z2, u1)
    b = space.geodesic(z1, z2, u1 + h)
    x = space.geodesic(z1, z2, u2)
    y = space.geodesic(z1, z2, u2 + h)
    return a, b, x, y


def _leaves(space):
    """The vector and tree factors of space, in the order ``sample`` draws them."""
    if isinstance(space, Product):
        return [leaf for f in space.factors for leaf in _leaves(f)]
    return [space]


def _raw_point(leaves, rng):
    """One ``sample(rng, 2.0)`` draw as a flat list: the coordinates of each
    vector factor, the unsnapped (edge, offset) of each tree factor."""
    row = []
    for leaf in leaves:
        if isinstance(leaf, MetricTree):
            row.extend(leaf.sample_raw(rng))
        else:
            row.extend(rng.normal(0.0, 2.0, leaf.dim).tolist())
    return row


def _same_point(leaves, p, q) -> bool:
    """Do two raw draws snap to the same point?  That is d(p, q) == 0,
    unless some coordinate difference is so small that its p-th power
    underflows in the l_p distance."""
    c = 0
    for leaf in leaves:
        if isinstance(leaf, MetricTree):
            if leaf.snap(p[c], p[c + 1]) != leaf.snap(q[c], q[c + 1]):
                return False
            c += 2
        else:
            if p[c : c + leaf.dim] != q[c : c + leaf.dim]:
                return False
            c += leaf.dim
    return True


def _assemble(space, cols, c: int = 0):
    """The point batch of space read from column c on of a raw block, and
    the column after it."""
    if isinstance(space, Product):
        parts = []
        for f in space.factors:
            part, c = _assemble(f, cols, c)
            parts.append(part)
        return tuple(parts), c
    if isinstance(space, MetricTree):
        return space.point_batch(cols[:, c].astype(np.intp), cols[:, c + 1]), c + 2
    return cols[:, c : c + space.dim], c + space.dim


def _where(mask, p, q):
    """Rows of the point batch p where mask holds, of q elsewhere."""
    if isinstance(p, tuple):
        return tuple(_where(mask, a, b) for a, b in zip(p, q))
    return np.where(mask.reshape(mask.shape + (1,) * (p.ndim - mask.ndim)), p, q)


def _draw_key(space) -> tuple:
    """What a ``sample`` draw of space depends on: its tree factors and the
    run lengths of the vector coordinates between them, as ``normal(0, 2, m)``
    then ``normal(0, 2, n)`` draws the values and state of ``normal(0, 2, m + n)``."""
    key = []
    for leaf in _leaves(space):
        if isinstance(leaf, MetricTree):
            key.append(leaf)
        elif key and not isinstance(key[-1], MetricTree):
            key[-1] += leaf.dim
        else:
            key.append(leaf.dim)
    return tuple(key)


def _quadruple_blocks(spaces, size: int, rng):
    """For spaces of one ``_draw_key``: the (a, b, x, y) point batches of each
    space's ``size`` quadruples, drawn as ``_quadruple`` draws them, from one
    stream.  The per-sample loop records only raw numbers (including the
    z1 = z2 resample, decided on the snapped draws); the geodesic points of
    each space are then computed on arrays."""
    leaves = _leaves(spaces[0])
    draws, params = [], []
    for _ in range(size):
        pair = None
        if rng.uniform() >= 0.55:
            z1, z2 = _raw_point(leaves, rng), _raw_point(leaves, rng)
            if not _same_point(leaves, z1, z2):
                pair = [z1, z2]
        if pair is None:
            draws.append([_raw_point(leaves, rng) for _ in range(4)])
            params.append((0.0, 0.0, 0.0))
            continue
        h = float(rng.uniform(0.05, 0.4))
        params.append((h, float(rng.uniform(0.0, 1.0 - h)), float(rng.uniform(0.0, 1.0 - h))))
        draws.append(pair + pair)
    block = np.array(draws, dtype=float).reshape(size, 4, -1)
    h, u1, u2 = np.array(params, dtype=float).reshape(size, 3).T
    out = []
    for space in spaces:
        points = [_assemble(space, block[:, s])[0] for s in range(4)]
        # rows outside the segment mode (h = 0) take t = 0 and keep their draws
        out.append(tuple(
            _where(h > 0.0, space.geodesic_batch(points[0], points[1], t), p)
            for t, p in zip((u1, u1 + h, u2, u2 + h), points)
        ))
    return out


def suite_parallelogram(samples: int = 2000, seed: int = 0):
    """[a, b] parallel to [x, y] exactly when [a, x] is parallel to [b, y],
    on ``samples`` quadruples per space at tol 1e-9, those of the space's own
    ``default_rng(seed)``: spaces of one ``_draw_key`` share the one stream."""
    roster = dict(_space_roster())
    groups = {}
    for name, space in roster.items():
        groups.setdefault(_draw_key(space), []).append(name)
    bad = dict.fromkeys(roster, 0)
    for names in groups.values():
        rng = np.random.default_rng(seed)
        for start in range(0, samples, BLOCK):
            blocks = _quadruple_blocks([roster[n] for n in names], min(BLOCK, samples - start), rng)
            for name, (a, b, x, y) in zip(names, blocks):
                one = parallel_check_batch(roster[name], a, b, x, y, 1e-9)
                bad[name] += int(np.count_nonzero(one != parallel_check_batch(roster[name], a, x, b, y, 1e-9)))
    return [
        CheckResult(f"parallelogram[{name}]", n == 0, float(n), f"{samples} quadruples")
        for name, n in bad.items()
    ]


# ---------------------------------------------------------------------------
# Modulus suite
# ---------------------------------------------------------------------------


def suite_modulus(budget: int = 4000, seed: int = 0):
    out = []
    eps_grid = (0.25, 0.5, 1.0, 1.5)
    for d in (2, 5):
        space = Euclidean(d)
        x = space.origin()
        worst = 0.0
        for eps in eps_grid:
            est = modulus_estimate(space, x, eps, 1.0, budget=budget, seed=seed)
            true = 1.0 - math.sqrt(1.0 - eps * eps / 4.0)
            worst = max(worst, abs(est.value - true) / true)
        out.append(
            CheckResult(f"modulus-hilbert[euclidean{d}]", worst <= 0.02, worst, "rel gap vs closed form")
        )
    # the real line: the Hilbert form does not apply, the true modulus is eps*r/2
    space = Euclidean(1)
    worst = 0.0
    for eps in eps_grid:
        est = modulus_estimate(space, space.origin(), eps, 1.0, budget=budget, seed=seed)
        true = euclidean_modulus_1d(eps)
        worst = max(worst, abs(est.value - true) / true)
    out.append(CheckResult("modulus-line[euclidean1]", worst <= 0.02, worst, "rel gap vs eps/2"))
    tree = star_tree(3)
    c = tree.vertex_point("c")
    worst = 0.0
    for eps in eps_grid:
        est = modulus_estimate(tree, c, eps, 1.0, budget=budget, seed=seed)
        true = eps / 2.0
        worst = max(worst, abs(est.value - true) / true)
    out.append(CheckResult("modulus-tripod[star-tree]", worst <= 0.02, worst, "rel gap vs eps*r/2"))
    # linear-in-r: delta(eps, r)/r independent of the scale
    for name, space, x in (
        ("euclidean2", Euclidean(2), (0.0, 0.0)),
        ("big-tree", star_tree(3, 15.0), star_tree(3, 15.0).vertex_point("c")),
    ):
        ratios = [
            modulus_estimate(space, x, 1.0, r, budget=budget // 2, seed=seed).value / r
            for r in (0.1, 1.0, 10.0)
        ]
        spread = (max(ratios) - min(ratios)) / max(ratios)
        out.append(CheckResult(f"modulus-linear-r[{name}]", spread <= 0.05, spread, f"ratios {ratios}"))
    return out


# ---------------------------------------------------------------------------
# Uniform convexity witness suite
# ---------------------------------------------------------------------------


def _uc_targets():
    return [
        ("line", Euclidean(1)),
        ("lp(3,3)", LpVector(3, 3.0)),
        ("star-tree", star_tree(3)),
    ]


def _triple_blocks(target, n, samples, rng):
    """(psi, phi1, phi2) map batches of at most BLOCK samples each.  The draws
    are those of one (samples, 3, n) array: normal coordinates on vector
    targets; on trees all edge indices, then all uniform offsets (a copy of
    rng draws the indices while rng, moved past them, draws the offsets)."""
    sizes = [min(BLOCK, samples - start) for start in range(0, samples, BLOCK)]
    if isinstance(target, (Euclidean, LpVector)):
        for size in sizes:
            arr = rng.normal(0.0, 1.0, (size, 3, n, target.dim))
            yield arr[:, 0], arr[:, 1], arr[:, 2]
        return
    n_edges = len(target.edges)
    lengths = np.array([e[2] for e in target.edges])
    edge_rng = copy.deepcopy(rng)
    for size in sizes:
        rng.integers(0, n_edges, (size, 3, n))
    for size in sizes:
        edge = edge_rng.integers(0, n_edges, (size, 3, n))
        edge, offset = target.point_batch(edge, rng.uniform(0.0, 1.0, (size, 3, n)) * lengths[edge])
        yield tuple((edge[:, m], offset[:, m]) for m in range(3))


def suite_uc_witness(samples: int = 2000, seed: int = 0):
    """The L^p uniform-convexity witness on ``samples`` triples per target, at
    p = 1.5, 2 and 3.  Every p checks the triples of ``default_rng(seed)``:
    each block is drawn once, with the distances that do not depend on p."""
    out = []
    weights = (0.5, 0.3, 0.2)
    for tname, target in _uc_targets():
        delta = linear_modulus_bound(target)
        stats = {p: [0, math.inf, 0] for p in (1.5, 2.0, 3.0)}  # violations, min slack, off-regime reports
        rng = np.random.default_rng(seed)
        for psi, phi1, phi2 in _triple_blocks(target, len(weights), samples, rng):
            d = uc_distances(target, psi, phi1, phi2)
            for p, st in stats.items():
                rep = uc_witness_of_distances(p, delta, weights, d)
                st[0] += int(np.count_nonzero(~rep.ok))
                st[1] = min(st[1], float(rep.slack.min()))
                st[2] += int(np.count_nonzero(~rep.small_modulus_regime))
        for p, (bad, slack, off) in stats.items():
            detail = f"min slack {slack:.3e}; off-regime reports {off}"
            out.append(CheckResult(f"uc-witness[{tname},p={p}]", bad == 0, float(bad), detail))
    return out


# ---------------------------------------------------------------------------
# Solver-oracle suite
# ---------------------------------------------------------------------------


def _oracle_roster():
    return [
        ("consensus-2", consensus_model(2), 2.5, 21),
        ("consensus-3", consensus_model(3), 2.5, 15),
        ("dihedral-2", dihedral_line_model(2), 1.5, 21),
        ("dihedral-3", dihedral_line_model(3), 1.5, 15),
        ("translation-loop", translation_loop_model(), 2.5, 21),
        ("tree-consensus-2", tree_consensus_model(2), None, 24),
        ("tree-leafswap", tree_leafswap_model(), None, 48),
    ]


def suite_solver_oracle(seed: int = 0):
    """Solver energies against the grid oracle, each solve at tol 1e-10 within 3000 sweeps."""
    out = []
    for name, gm, span, coarse in _oracle_roster():
        prob = gm.problem
        rep = minimize_energy(prob, gm.init, tol=1e-10, max_sweeps=3000, seed=seed)
        if span is not None:
            _, e_grid, bound = grid_minimum_energy(prob, span=span, coarse=coarse, refine_rounds=4)
        else:
            _, e_grid, bound = grid_minimum_energy(prob, coarse=coarse)
        gap_up = rep.energy_total - (e_grid + 1e-5)
        gap_down = e_grid - (rep.energy_total + bound + 1e-5)
        exact = isinstance(prob.target, Euclidean)
        slack = 1e-15 if exact else 1e-12
        mono_bad = sum(
            1
            for i in range(len(rep.trace) - 1)
            if rep.trace[i + 1].objective
            > rep.trace[i].objective + slack * (1.0 + abs(rep.trace[i].objective))
        )
        ok = gap_up <= 0.0 and gap_down <= 0.0 and mono_bad == 0
        out.append(
            CheckResult(
                f"solver-oracle[{name}]",
                ok,
                max(gap_up, gap_down, float(mono_bad)),
                f"solver {rep.energy_total:.9f} grid {e_grid:.9f} bound {bound:.2e} mono_bad {mono_bad}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Commensurability suite
# ---------------------------------------------------------------------------


def suite_commensurability(seed: int = 0):
    """Kernel-energy uniqueness, conjugation and covers, each solve at tol 1e-8."""
    tol = 1e-8
    out = []
    base = dihedral_line_model(3).problem
    m = comm_energy_model(base)
    rep = subgroup_harmonic(m, tol=tol, seed=seed)
    out.append(
        CheckResult(
            "restart-unique[dihedral]",
            rep.extras["unique"] and rep.extras["parallel_orbits"] is False,
            rep.extras["restart_gap"],
            f"gap {rep.extras['restart_gap']:.2e}",
        )
    )
    # conjugation energy identity on a dyadic map
    e1 = base.target
    lam = translation(e1, (1.0,))
    relabel = {c: c for c in base.model.cells}
    phi = EquivariantMap(base.model, e1, ((0.25,), (-0.5,), (1.5,)))
    m_conj = conjugate_comm_model(m, lam, relabel)
    phi_conj = conjugate_map(phi, lam, relabel)
    gap = abs(commensurability_energy(m, phi) - commensurability_energy(m_conj, phi_conj))
    out.append(CheckResult("conjugation-identity", gap <= 1e-12, gap, "dyadic map, lam=t"))
    back = conjugate_map(phi_conj, lam.invert(), relabel)
    out.append(
        CheckResult(
            "conjugation-roundtrip",
            back.values == phi.values,
            0.0 if back.values == phi.values else 1.0,
            "exact restore",
        )
    )
    # normal-cover coincidence (index-2 subgroup containing the mirror)
    spec = dihedral_cover_model(2).cover_spec
    cov = build_cover(spec)
    mc = cover_comm_energy_model(spec, cov)
    rep_c = subgroup_harmonic(mc, tol=tol, seed=seed + 1)
    lifted = lift_map(spec, rep.solution, cov)
    gap = max(
        cov.target.distance(a, b)
        for a, b in zip(lifted.values, rep_c.solution.values)
    )
    out.append(CheckResult("normal-cover-coincidence", gap <= 1e-5, gap, "index-2 mirror cover"))
    # flat translation cover: non-trivial only with the norm-minimal selection
    spec_t = translation_cover_spec(3)
    cov_t = build_cover(spec_t)
    mt = cover_comm_energy_model(spec_t, cov_t)
    rep_t = subgroup_harmonic(mt, tol=tol, seed=seed + 2, norm_minimal=True)
    lifted_t = lift_map(spec_t, rep.solution, cov_t)
    gap_t = max(
        cov_t.target.distance(a, b)
        for a, b in zip(lifted_t.values, rep_t.solution.values)
    )
    out.append(
        CheckResult("normal-cover-coincidence-flat", gap_t <= 1e-5, gap_t, "translation cover, norm-minimal")
    )
    # pure translation model must report non-uniqueness, not an error
    mt2 = comm_energy_model(translation_loop_model().problem)
    try:
        rep2 = subgroup_harmonic(mt2, tol=tol, seed=seed + 3)
        ok = (not rep2.extras["unique"]) and rep2.extras["parallel_orbits"] is True
        out.append(
            CheckResult("non-uniqueness-reported[translation]", ok, rep2.extras["restart_gap"])
        )
    except SolverError:
        out.append(CheckResult("non-uniqueness-reported[translation]", False, math.inf, "raised"))
    c_fit = coercivity_fit(m, n_samples=200, seed=seed)
    out.append(CheckResult("coercivity-fit[dihedral]", c_fit > 0.0, c_fit, "I >= c*|phi|^2"))
    return out


# ---------------------------------------------------------------------------
# Mazur suite
# ---------------------------------------------------------------------------


def suite_mazur(samples: int = 5000, seed: int = 0):
    """The Mazur map on ``samples`` 8-cell fields for (p, q) = (2, 4) and
    (3, 1.5), both on the fields of ``default_rng(seed)``, drawn once."""
    cells = 8
    # worst round trip, worst sphere gap, intertwining, fitted continuity C
    stats = {pair: [0.0, 0.0, True, 0.0] for pair in ((2.0, 4.0), (3.0, 1.5))}
    rng = np.random.default_rng(seed)
    for start in range(0, samples, BLOCK):
        size = min(BLOCK, samples - start)
        raw_f, raw_g = np.empty((size, cells)), np.empty((size, cells))
        perm = np.empty((size, cells), dtype=np.intp)
        for k in range(size):  # the draws interleave per sample
            raw_f[k] = rng.normal(0.0, 1.0, cells)
            raw_g[k] = rng.normal(0.0, 1.0, cells)
            perm[k] = rng.permutation(cells)
        for (p, q), st in stats.items():
            f = raw_f / _field_norm(raw_f, p)[:, None]  # normal draws are never all zero
            g = raw_g / _field_norm(raw_g, p)[:, None]
            mf, mg = mazur_map_batch(f, p, q), mazur_map_batch(g, p, q)
            st[0] = max(st[0], float(np.max(np.abs(mazur_map_batch(mf, q, p) - f))))
            st[1] = max(st[1], float(np.max(np.abs(_field_norm(mf, q) - np.float_power(_field_norm(f, p), p / q)))))
            permuted = mazur_map_batch(np.take_along_axis(f, perm, axis=1), p, q)
            st[2] &= np.array_equal(permuted, np.take_along_axis(mf, perm, axis=1))
            df = _field_norm(f - g, p)
            far = df > 1e-12
            if np.any(far):
                ratio = _field_norm(mf - mg, q)[far] / np.float_power(df[far], min(1.0, p / q))
                st[3] = max(st[3], float(np.max(ratio)))
    out = []
    for (p, q), (rt, sphere, inter, fit) in stats.items():
        out += [
            CheckResult(f"mazur-roundtrip[p={p},q={q}]", rt <= 1e-12, rt, f"{samples} fields"),
            CheckResult(f"mazur-sphere[p={p},q={q}]", sphere <= 1e-12, sphere),
            CheckResult(f"mazur-intertwine[p={p},q={q}]", inter, 0.0 if inter else 1.0),
            CheckResult(
                f"mazur-continuity[p={p},q={q}]", math.isfinite(fit) and fit > 0.0, fit,
                f"fitted C with exponent {min(1.0, p / q)}",
            ),
        ]
    return out


def _field_norm(values: np.ndarray, p: float) -> np.ndarray:
    """``scalar_norm`` of each row of values under uniform cell weights."""
    return np.float_power(np.mean(np.float_power(np.abs(values), p), axis=-1), 1.0 / p)


# ---------------------------------------------------------------------------
# Clifford suite
# ---------------------------------------------------------------------------


def suite_clifford(count: int = 25, seed: int = 0):
    """``count`` translations and ``count`` rotations or reflections per
    dimension, each checked at tol 1e-9."""
    out = []
    rng = np.random.default_rng(seed)
    for dim in (2, 3):
        space = Euclidean(dim)
        errors = 0
        worst_half = 0.0
        for _ in range(count):
            v = rng.normal(0.0, 1.0, dim)
            v = v / np.linalg.norm(v) * rng.uniform(0.1, 10.0)
            t = translation(space, tuple(float(c) for c in v))
            rep = clifford_check(space, t, tol=1e-9, seed=int(rng.integers(1 << 30)))
            if not (rep.is_clifford and rep.halfway_is_clifford):
                errors += 1
                continue
            worst_half = max(worst_half, abs(rep.halfway_displacement - 0.5 * rep.displacement))
        for _ in range(count):
            if dim == 2:
                lin = rotation_2d(float(rng.uniform(0.1, math.pi)))
                mat = np.asarray(lin.matrix)
            else:
                if rng.uniform() < 0.5:
                    mat = random_orthogonal(dim, rng)
                    while np.max(np.abs(mat - np.eye(dim))) < 0.1:
                        mat = random_orthogonal(dim, rng)
                else:
                    mat = np.asarray(
                        householder_reflection(tuple(float(c) for c in rng.normal(0, 1, dim))).matrix
                    )
            shift = tuple(float(c) for c in rng.normal(0.0, 2.0, dim))
            iso = EuclideanIsometry(tuple(map(tuple, mat)), shift)
            rep = clifford_check(space, iso, tol=1e-9, seed=int(rng.integers(1 << 30)))
            if rep.is_clifford:
                errors += 1
        out.append(
            CheckResult(
                f"clifford[euclidean{dim}]",
                errors == 0 and worst_half <= 1e-9,
                max(float(errors), worst_half),
                f"{count} translations + {count} rotations/reflections",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Circumcenter-vs-oracle suite (drives the minimax certification)
# ---------------------------------------------------------------------------


def suite_circumcenter(euclid_instances: int = 50, tree_instances: int = 25, seed: int = 0):
    rng = np.random.default_rng(seed)
    space = Euclidean(2)
    worst = 0.0
    for k in range(euclid_instances):
        n = int(rng.integers(2, 6))
        pts = [tuple(float(c) for c in rng.uniform(-1.0, 1.0, 2)) for _ in range(n)]
        _, r_oracle = smallest_enclosing_ball_bruteforce(pts)
        _, r_iter = circumcenter(space, pts, tol=1e-8, seed=int(rng.integers(1 << 30)))
        worst = max(worst, abs(r_oracle - r_iter))
    res = [CheckResult("circumcenter[euclidean2]", worst <= 1e-6, worst, f"{euclid_instances} instances")]
    worst = 0.0
    for k in range(tree_instances):
        tree = random_tree(int(rng.integers(3, 8)), rng)
        pts = [tree.sample(rng) for _ in range(int(rng.integers(2, 6)))]
        _, r_oracle = tree_one_center(tree, pts)
        _, r_iter = circumcenter(tree, pts, tol=1e-8, seed=int(rng.integers(1 << 30)))
        worst = max(worst, abs(r_oracle - r_iter))
    res.append(
        CheckResult("circumcenter[tree]", worst <= 1e-6, worst, f"{tree_instances} random trees")
    )
    return res


SUITES = {
    "parallelogram": suite_parallelogram,
    "modulus": suite_modulus,
    "uc-witness": suite_uc_witness,
    "solver-oracle": suite_solver_oracle,
    "commensurability": suite_commensurability,
    "mazur": suite_mazur,
    "clifford": suite_clifford,
    "circumcenter": suite_circumcenter,
}


def run_suite(name: str, budgets: Optional[dict] = None):
    """Run one suite (or 'all').  Each entry of ``budgets`` (a budget or the
    seed) is passed to the suites whose signature names it; the others run
    at their signature defaults, the CLI defaults."""
    budgets = dict(budgets or {})
    if name == "all":
        out = []
        for n in SUITES:
            out.extend(run_suite(n, budgets))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES) + ['all']}")
    fn = SUITES[name]
    params = inspect.signature(fn).parameters
    return fn(**{k: v for k, v in budgets.items() if k in params})
