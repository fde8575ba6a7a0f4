"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the ``busemann`` modules by
timing wrappers, wherever the name is looked up: every module attribute (and
every module-level dict value, such as ``verify.SUITES``) that is the original
function gets the wrapper, and the space and isometry methods are patched on
their classes.  ``uninstall`` restores the originals, so untraced passes run
the unmodified program.

Every wrapper keeps aggregate counts: calls, inclusive seconds and self
seconds (inclusive time minus the time of wrapped callees).  A name missing
from the program is skipped and listed in ``missing``, so its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

SPACE_KINDS = {
    "euclidean": ("Euclidean", "EuclideanIsometry"),
    "lp": ("LpVector", "SignedPermIsometry"),
    "tree": ("MetricTree", "TreeIsometry"),
    "product": ("Product", "ProductIsometry"),
}

# (layer, function); the layer is the module name in busemann
FUNCTIONS = [
    ("cli", "main"),
    ("cli", "parse_config"),
    ("models", "generate"),
    ("harmonic", "minimize_energy"),
    ("harmonic", "norm_minimal_minimizer"),
    ("harmonic", "lexicographic_minimize"),
    ("harmonic", "energy"),
    ("convexity", "minimize_convex"),
    ("mapspace", "map_distance"),
    ("mapspace", "map_midpoint"),
    ("mapspace", "uc_witness_check"),
    ("mapspace", "mazur_map"),
    ("mapspace", "banach_lp_modulus"),
    ("commensurability", "comm_energy_model"),
    ("commensurability", "word_ball"),
    ("commensurability", "commensurability_energy"),
    ("commensurability", "subgroup_harmonic"),
    ("commensurability", "parallel_orbits_check"),
    ("commensurability", "_comm_sweeps"),
]
SUITES = ("uc-witness", "mazur", "parallelogram")

# Counters that must repeat exactly for a fixed config and seed.
EXACT = ("harmonic.sweeps", "commensurability.sweeps", "commensurability.kernel_terms",
         "convexity.minimize_convex.calls")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "cli.main.self_s": "s",
        "cli.parse_config.self_s": "s",
        "models.generate.self_s": "s",
        "harmonic.minimize_energy.calls": "count",
        "harmonic.minimize_energy.self_s": "s",
        "harmonic.sweeps": "count",
        "harmonic.sweep_ms": "ms",
        "harmonic.energy.calls": "count",
        "harmonic.energy.self_s": "s",
        "harmonic.norm_minimal_minimizer.self_s": "s",
        "harmonic.lexicographic_minimize.self_s": "s",
        "convexity.minimize_convex.calls": "count",
        "convexity.minimize_convex.self_s": "s",
    }
    for op in ("distance", "geodesic", "apply"):
        for kind in SPACE_KINDS:
            units[f"spaces.{op}.{kind}.calls"] = "count"
            units[f"spaces.{op}.{kind}.us_per_call"] = "us"
    for fn in ("map_distance", "map_midpoint", "uc_witness_check", "mazur_map"):
        units[f"mapspace.{fn}.calls"] = "count"
        units[f"mapspace.{fn}.self_s"] = "s"
    units["mapspace.modulus_curve_s"] = "s"
    units.update({
        "commensurability.comm_energy_model.self_s": "s",
        "commensurability.kernel_terms": "count",
        "commensurability.word_ball.self_s": "s",
        "commensurability.commensurability_energy.calls": "count",
        "commensurability.commensurability_energy.self_s": "s",
        "commensurability.subgroup_harmonic.self_s": "s",
        "commensurability.parallel_orbits_check.self_s": "s",
        "commensurability.sweeps": "count",
    })
    for suite in SUITES:
        units[f"verify.{suite}.self_s"] = "s"
        units[f"verify.{suite}.samples_per_s"] = "1/s"
    units["trace.overhead"] = "ratio"
    return units


def is_exact(name: str) -> bool:
    return name in EXACT or (name.startswith("spaces.") and name.endswith(".calls"))


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # key -> [calls, inclusive_s, self_s]
        self.counts: dict = {}  # result-derived counters
        self.samples: dict = {}  # suite -> samples processed
        self.curve_s = 0.0  # first banach_lp_modulus call per exponent
        self.missing: list = []
        self._curves_seen: set = set()
        self._stack = [[0.0]]  # per active wrapper: [callee seconds]
        self._patches: list = []

    def reset(self) -> None:
        """Forget the pass counts (the modulus-curve time is kept)."""
        self.stats.clear()
        self.counts.clear()
        self.samples.clear()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key, fn, on_result=None):
        stats, stack = self.stats, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
            if on_result is not None:
                on_result(result, args, kwargs, dt)
            return result

        return traced

    def _patch_everywhere(self, original, wrapper):
        """Point every busemann-level reference to ``original`` at ``wrapper``."""
        for name, mod in list(sys.modules.items()):
            if name != "busemann" and not name.startswith("busemann."):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, attr, original))
                    namespace[attr] = wrapper
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = wrapper

    def install(self) -> None:
        self.missing = []
        for layer, fn_name in FUNCTIONS:
            mod = importlib.import_module(f"busemann.{layer}")
            original = vars(mod).get(fn_name)
            if original is None:
                self.missing.append(f"{layer}.{fn_name}")
                continue
            hook = getattr(self, f"_on_{fn_name.lstrip('_')}", None)
            self._patch_everywhere(original, self._wrap(f"{layer}.{fn_name}", original, hook))
        verify = importlib.import_module("busemann.verify")
        for suite in SUITES:
            original = verify.SUITES.get(suite)
            if original is None:
                self.missing.append(f"verify.{suite}")
                continue
            hook = functools.partial(self._on_suite, suite)
            self._patch_everywhere(original, self._wrap(f"verify.{suite}", original, hook))
        spaces = importlib.import_module("busemann.spaces")
        for kind, (space_cls, iso_cls) in SPACE_KINDS.items():
            for cls_name, op in ((space_cls, "distance"), (space_cls, "geodesic"), (iso_cls, "apply")):
                cls = getattr(spaces, cls_name, None)
                original = None if cls is None else cls.__dict__.get(op)
                if original is None:
                    self.missing.append(f"spaces.{cls_name}.{op}")
                    continue
                self._patches.append((cls, op, original))
                setattr(cls, op, self._wrap(f"spaces.{op}.{kind}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                owner[attr] = original
        self._patches.clear()

    # -- result hooks --------------------------------------------------------

    def _count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def _on_minimize_energy(self, report, args, kwargs, dt):
        self._count("harmonic.sweeps", report.iterations)

    def _on_comm_energy_model(self, model, args, kwargs, dt):
        self._count("commensurability.kernel_terms", len(model.terms))

    def _on_comm_sweeps(self, result, args, kwargs, dt):
        self._count("commensurability.sweeps", result[2])

    def _on_banach_lp_modulus(self, value, args, kwargs, dt):
        p = round(float(args[0] if args else kwargs["p"]), 12)
        if p not in self._curves_seen:
            self._curves_seen.add(p)
            self.curve_s += dt

    def _on_suite(self, suite, rows, args, kwargs, dt):
        # one configuration per distinct bracketed check suffix, e.g. [line,p=2.0]
        configs = len({r.name[r.name.find("["):] for r in rows})
        self.samples[suite] = self.samples.get(suite, 0) + kwargs.get("samples", 0) * configs

    # -- metrics -------------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the pass traced since the last ``reset``."""
        zero = (0, 0.0, 0.0)
        out = {}
        for name in metric_units():
            head, _, tail = name.rpartition(".")
            calls, incl, self_s = self.stats.get(head, zero)
            if tail == "calls":
                out[name] = calls
            elif tail == "self_s":
                out[name] = self_s
            elif tail == "us_per_call":
                out[name] = 1e6 * incl / calls if calls else 0.0
            elif tail == "samples_per_s":
                out[name] = self.samples.get(head.split(".", 1)[1], 0) / incl if incl else 0.0
        out.update({k: self.counts.get(k, 0) for k in EXACT if k not in out})
        sweeps = out["harmonic.sweeps"]
        incl = self.stats.get("harmonic.minimize_energy", zero)[1]
        out["harmonic.sweep_ms"] = 1e3 * incl / sweeps if sweeps else 0.0
        out["mapspace.modulus_curve_s"] = self.curve_s
        return out


def combine(passes: list) -> dict:
    """Median of each metric over traced passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def exact_mismatches(passes: list) -> list:
    """Names of exact-repeat counters that differ between passes."""
    return sorted(
        k for k in passes[0] if is_exact(k) and len({p[k] for p in passes}) > 1
    )
