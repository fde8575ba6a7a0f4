"""The sampled verify suites draw each seeded stream once and share it: every
configuration must still see exactly the samples of its own
``default_rng(seed)``.  The references below re-seed per configuration."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from busemann import verify
from busemann.mapspace import (
    linear_modulus_bound,
    mazur_map_batch,
    p_mean,
    uc_distances,
    uc_witness_of_distances,
)
from busemann.spaces import Euclidean, Product, star_tree
from busemann.verify import (
    BLOCK,
    CheckResult,
    _draw_key,
    _field_norm,
    _quadruple_blocks,
    _space_roster,
    _triple_blocks,
    _uc_targets,
    suite_mazur,
    suite_parallelogram,
    suite_uc_witness,
)


def test_normal_draws_concatenate():
    # _draw_key merges runs of vector coordinates on this property of numpy's
    # Generator: two draws of one normal equal one draw of two, state included
    one, two = np.random.default_rng(5), np.random.default_rng(5)
    first = np.concatenate([one.normal(0.0, 2.0, 1), one.normal(0.0, 2.0, 1)])
    assert np.array_equal(first, two.normal(0.0, 2.0, 2))
    assert one.random() == two.random()


def test_draw_key_groups():
    roster = dict(_space_roster())
    keys = {name: _draw_key(space) for name, space in roster.items()}
    assert keys["product(e1,e1;q=3)"] == keys["euclidean2"] == keys["lp(2,3)"] == (2,)
    assert keys["euclidean3"] == keys["lp(3,1.5)"] == (3,)
    assert keys["star-tree"] != keys["product(e2,tree)"]
    assert len(set(keys.values())) == 4
    assert _draw_key(Product((star_tree(3), Euclidean(1), Euclidean(2)), 2.0)) == (star_tree(3), 3)


def same_batches(a, b) -> bool:
    """Are two (nested tuples of) point arrays equal, entry for entry?"""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_batches(x, y) for x, y in zip(a, b))
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 7])
def test_shared_quadruples_equal_each_space_own(seed):
    groups = {}
    for _, space in _space_roster():
        groups.setdefault(_draw_key(space), []).append(space)
    for spaces in groups.values():
        shared = np.random.default_rng(seed)
        own = [np.random.default_rng(seed) for _ in spaces]
        for size in (130, 170):  # a block boundary inside the stream
            blocks = _quadruple_blocks(spaces, size, shared)
            for space, rng, block in zip(spaces, own, blocks):
                (want,) = _quadruple_blocks([space], size, rng)
                assert same_batches(block, want), space
        after = shared.random()
        assert all(rng.random() == after for rng in own)


def mazur_reference(samples, seed):
    """suite_mazur as it re-seeds and redraws per (p, q) pair."""
    out = []
    cells = 8
    for p, q in ((2.0, 4.0), (3.0, 1.5)):
        rng = np.random.default_rng(seed)
        worst_rt = worst_sphere = cfit = 0.0
        inter_ok = True
        exponent = min(1.0, p / q)
        for start in range(0, samples, BLOCK):
            size = min(BLOCK, samples - start)
            f, g = np.empty((size, cells)), np.empty((size, cells))
            perm = np.empty((size, cells), dtype=np.intp)
            for k in range(size):
                f[k] = rng.normal(0.0, 1.0, cells)
                g[k] = rng.normal(0.0, 1.0, cells)
                perm[k] = rng.permutation(cells)
            f /= _field_norm(f, p)[:, None]
            g /= _field_norm(g, p)[:, None]
            mf, mg = mazur_map_batch(f, p, q), mazur_map_batch(g, p, q)
            worst_rt = max(worst_rt, float(np.max(np.abs(mazur_map_batch(mf, q, p) - f))))
            worst_sphere = max(
                worst_sphere,
                float(np.max(np.abs(_field_norm(mf, q) - np.float_power(_field_norm(f, p), p / q)))),
            )
            df = _field_norm(f - g, p)
            far = df > 1e-12
            if np.any(far):
                cfit = max(cfit, float(np.max(_field_norm(mf - mg, q)[far] / np.float_power(df[far], exponent))))
            inter_ok &= np.array_equal(
                mazur_map_batch(np.take_along_axis(f, perm, axis=1), p, q), np.take_along_axis(mf, perm, axis=1)
            )
        out += [
            CheckResult(f"mazur-roundtrip[p={p},q={q}]", worst_rt <= 1e-12, worst_rt, f"{samples} fields"),
            CheckResult(f"mazur-sphere[p={p},q={q}]", worst_sphere <= 1e-12, worst_sphere),
            CheckResult(f"mazur-intertwine[p={p},q={q}]", bool(inter_ok), 0.0 if inter_ok else 1.0),
            CheckResult(
                f"mazur-continuity[p={p},q={q}]",
                math.isfinite(cfit) and cfit > 0.0,
                cfit,
                f"fitted C with exponent {exponent}",
            ),
        ]
    return out


def uc_reference(samples, seed):
    """suite_uc_witness as it re-seeds, redraws and recomputes every
    distance per exponent."""
    out = []
    weights = (0.5, 0.3, 0.2)
    for tname, target in _uc_targets():
        delta = linear_modulus_bound(target)
        for p in (1.5, 2.0, 3.0):
            rng = np.random.default_rng(seed)
            violations = regime_fail = 0
            min_slack = math.inf
            for psi, phi1, phi2 in _triple_blocks(target, len(weights), samples, rng):
                d1 = p_mean(p, weights, target.distance_batch(phi1, psi))
                d2 = p_mean(p, weights, target.distance_batch(phi2, psi))
                r = np.maximum(np.maximum(d1, d2), 1e-9)
                rep = uc_witness_of_distances(p, delta, weights, uc_distances(target, psi, phi1, phi2), r)
                violations += int(np.count_nonzero(~rep.ok))
                regime_fail += int(np.count_nonzero(~rep.small_modulus_regime))
                min_slack = min(min_slack, float(rep.slack.min()))
            out.append(
                CheckResult(
                    f"uc-witness[{tname},p={p}]",
                    violations == 0,
                    float(violations),
                    f"min slack {min_slack:.3e}; off-regime reports {regime_fail}",
                )
            )
    return out


@pytest.mark.parametrize("seed", [0, 11])
def test_shared_draws_equal_reseeded_reference(seed):
    samples = BLOCK + 10  # across a block boundary
    assert repr(suite_mazur(samples=samples, seed=seed)) == repr(mazur_reference(samples, seed))
    assert repr(suite_uc_witness(samples=samples, seed=seed)) == repr(uc_reference(samples, seed))


def traced_peak(fn, samples):
    tracemalloc.start()
    try:
        fn(samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("suite", [suite_parallelogram, suite_mazur], ids=["parallelogram", "mazur"])
def test_memory_stays_flat_in_the_budget(suite, monkeypatch):
    # verify.BLOCK's promise: the peak does not grow with the budget.  The
    # parallelogram suite runs on the roster's one group of two spaces that
    # share a stream, which keeps the traced run short.
    roster = [(n, s) for n, s in _space_roster() if n in ("euclidean2", "product(e1,e1;q=3)")]
    monkeypatch.setattr(verify, "_space_roster", lambda: roster)
    suite(samples=10)  # warm-up: imports and lazily built tables
    small, large = traced_peak(suite, 4 * BLOCK), traced_peak(suite, 40 * BLOCK)
    assert large <= 1.5 * small, (small, large)


def test_uc_margin_sweep_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "uc_margin_sweep.py"
    env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, str(script), "--samples", "300"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 9 and all(line.startswith("PASS uc-witness[") for line in lines), proc.stdout
