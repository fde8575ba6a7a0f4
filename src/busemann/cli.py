"""Config-driven command line: build spaces and problems from declarative
JSON files, run solvers, and run the verification suites.

Usage:
    busemann solve <config.json> [--out DIR] [--seed N]
    busemann verify <config.json> --suite NAME [--out DIR] [--seed N]

Exit codes: 0 success; 1 verification found a failing check; 2 config
parse/validation error; 3 solver error (including non-convergence).

Outputs of ``solve``: ``trace.csv`` (sweep, energy_total, energy_class_j...,
norm, max_move), ``summary.json`` (final energy, norm, converged, wall
time; for commensurability solves also the kernel model's term count, word
radius and truncation residual, the restart gap, uniqueness verdict and
parallel-orbits flag, and on a Euclidean target the number of flat
directions), ``solution.csv`` (cell id, coordinates).  All CSV
content is deterministic for a fixed config and seed; wall time lives only
in the summary.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time
from pathlib import Path

from busemann.commensurability import (
    CoverSpec,
    build_cover,
    comm_energy_model,
    cover_comm_energy_model,
    subgroup_harmonic,
)
from busemann.harmonic import (
    Edge,
    EquivariantProblem,
    lexicographic_minimize,
    minimize_energy,
    norm_minimal_minimizer,
)
from busemann.mapspace import EquivariantMap, MeasureModel
from busemann.models import GENERATORS, generate
from busemann.spaces import (
    Euclidean,
    EuclideanIsometry,
    GeometryError,
    LpVector,
    MetricTree,
    Product,
    ProductIsometry,
    SignedPermIsometry,
    SolverError,
    TreeIsometry,
    identity_isometry,
    point_reflection,
    translation,
)
from busemann.verify import SUITES, run_suite

__all__ = ["main", "parse_config", "ConfigError"]


class ConfigError(ValueError):
    pass


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    return obj


def _take(obj: dict, allowed: set, where: str) -> None:
    unknown = set(_object(obj, where)) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")


def _require(obj: dict, key: str, where: str):
    if key not in _object(obj, where):
        raise ConfigError(f"{where}: missing required field '{key}'")
    return obj[key]


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}")


def _integer(value, where: str) -> int:
    """An integral config number: 3 or 3.0, not 2.5, NaN, infinity or a bool."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    x = math.nan if isinstance(value, bool) else _number(value, where)
    if not (math.isfinite(x) and x.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(x)


def _seed(value, where: str) -> int:
    seed = _integer(value, where)
    if seed < 0:
        raise ConfigError(f"{where}: must be >= 0, got {seed}")
    return seed


def _label(value, where: str):
    """A cell id or tree vertex name: a string or an integer."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise ConfigError(f"{where}: expected a string or an integer, got {value!r}")


def _real(value, where: str) -> float:
    x = _number(value, where)
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return x


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list")
    return value


def _reals(values, where: str) -> tuple:
    return tuple(_real(v, f"{where}[{i}]") for i, v in enumerate(_list(values, where)))


def _ints(values, where: str) -> tuple:
    return tuple(_integer(v, f"{where}[{i}]") for i, v in enumerate(_list(values, where)))


def parse_space(spec: dict, where: str = "space"):
    kind = _require(spec, "kind", where)
    if kind == "euclidean":
        _take(spec, {"kind", "dim"}, where)
        return Euclidean(_integer(_require(spec, "dim", where), f"{where}.dim"))
    if kind == "lp":
        _take(spec, {"kind", "dim", "p"}, where)
        return LpVector(
            _integer(_require(spec, "dim", where), f"{where}.dim"),
            _real(_require(spec, "p", where), f"{where}.p"),
        )
    if kind == "tree":
        _take(spec, {"kind", "vertices", "edges"}, where)
        edges = []
        for i, e in enumerate(_list(_require(spec, "edges", where), f"{where}.edges")):
            if not isinstance(e, list) or len(e) != 3:
                raise ConfigError(f"{where}.edges[{i}]: expected [u, v, length]")
            edges.append(
                (
                    _label(e[0], f"{where}.edges[{i}][0]"),
                    _label(e[1], f"{where}.edges[{i}][1]"),
                    _real(e[2], f"{where}.edges[{i}][2]"),
                )
            )
        vertices = _list(_require(spec, "vertices", where), f"{where}.vertices")
        return MetricTree(
            tuple(_label(v, f"{where}.vertices[{i}]") for i, v in enumerate(vertices)), tuple(edges)
        )
    if kind == "product":
        _take(spec, {"kind", "q", "factors"}, where)
        factors = tuple(
            parse_space(f, f"{where}.factors[{i}]")
            for i, f in enumerate(_list(_require(spec, "factors", where), f"{where}.factors"))
        )
        return Product(factors, _real(spec.get("q", 2.0), f"{where}.q"))
    raise ConfigError(f"{where}: unknown space kind {kind!r}")


def parse_point(space, data, where: str = "point"):
    if isinstance(space, (Euclidean, LpVector)):
        if not isinstance(data, list) or len(data) != space.dim:
            raise ConfigError(f"{where}: expected a list of {space.dim} numbers")
        return _reals(data, where)
    if isinstance(space, MetricTree):
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected a tree point object")
        _take(data, {"vertex", "edge", "offset"}, where)
        if "vertex" in data:
            return space.vertex_point(_label(data["vertex"], f"{where}.vertex"))
        return space.point(
            _integer(_require(data, "edge", where), f"{where}.edge"),
            _real(_require(data, "offset", where), f"{where}.offset"),
        )
    if isinstance(space, Product):
        if not isinstance(data, list) or len(data) != len(space.factors):
            raise ConfigError(f"{where}: expected one entry per product factor")
        return tuple(
            parse_point(f, d, f"{where}[{i}]")
            for i, (f, d) in enumerate(zip(space.factors, data))
        )
    raise ConfigError(f"{where}: unsupported space")


def parse_twist(space, data: dict, where: str = "twist"):
    kind = _require(data, "kind", where)
    if kind == "identity":
        _take(data, {"kind"}, where)
        return identity_isometry(space)
    if kind == "translation":
        _take(data, {"kind", "by"}, where)
        return translation(space, _reals(_require(data, "by", where), f"{where}.by"))
    if kind == "point-reflection":
        _take(data, {"kind", "center"}, where)
        return point_reflection(space, _reals(_require(data, "center", where), f"{where}.center"))
    if kind == "linear":
        _take(data, {"kind", "matrix", "shift"}, where)
        rows = _list(_require(data, "matrix", where), f"{where}.matrix")
        return EuclideanIsometry(
            tuple(_reals(row, f"{where}.matrix[{i}]") for i, row in enumerate(rows)),
            _reals(_require(data, "shift", where), f"{where}.shift"),
        )
    if kind == "signed-perm":
        _take(data, {"kind", "perm", "signs", "shift"}, where)
        return SignedPermIsometry(
            _ints(_require(data, "perm", where), f"{where}.perm"),
            _ints(_require(data, "signs", where), f"{where}.signs"),
            _reals(_require(data, "shift", where), f"{where}.shift"),
        )
    if kind == "tree":
        _take(data, {"kind", "vertex_map"}, where)
        if not isinstance(space, MetricTree):
            raise ConfigError(f"{where}: tree twist on a non-tree space")
        vertex_map = _object(_require(data, "vertex_map", where), f"{where}.vertex_map")
        return TreeIsometry(
            space, {k: _label(v, f"{where}.vertex_map.{k}") for k, v in vertex_map.items()}
        )
    if kind == "product":
        _take(data, {"kind", "parts"}, where)
        if not isinstance(space, Product):
            raise ConfigError(f"{where}: product twist on a non-product space")
        parts = _list(_require(data, "parts", where), f"{where}.parts")
        if len(parts) != len(space.factors):
            raise ConfigError(f"{where}.parts: {len(parts)} parts for {len(space.factors)} factors")
        return ProductIsometry(
            tuple(parse_twist(f, d, f"{where}.parts[{i}]") for i, (f, d) in enumerate(zip(space.factors, parts)))
        )
    raise ConfigError(f"{where}: unknown twist kind {kind!r}")


def _parse_problem(space, pdata: dict):
    _take(pdata, {"cells", "edges", "base_point", "init", "cover"}, "problem")
    cells = _list(_require(pdata, "cells", "problem"), "problem.cells")
    for c in cells:
        _take(c, {"id", "weight"}, "problem.cells[]")
    ids = tuple(_label(_require(c, "id", "problem.cells[]"), "problem.cells[].id") for c in cells)
    weights = tuple(
        _number(_require(c, "weight", "problem.cells[]"), "problem.cells[].weight")
        for c in cells
    )
    model = MeasureModel(ids, weights)
    edges = []
    for i, e in enumerate(_list(_require(pdata, "edges", "problem"), "problem.edges")):
        _take(e, {"src", "dst", "weight", "class", "twist"}, f"problem.edges[{i}]")
        edges.append(
            Edge(
                _label(_require(e, "src", f"problem.edges[{i}]"), f"problem.edges[{i}].src"),
                _label(_require(e, "dst", f"problem.edges[{i}]"), f"problem.edges[{i}].dst"),
                _real(_require(e, "weight", f"problem.edges[{i}]"), f"problem.edges[{i}].weight"),
                parse_twist(space, _require(e, "twist", f"problem.edges[{i}]"), f"problem.edges[{i}].twist"),
                _integer(e.get("class", 1), f"problem.edges[{i}].class"),
            )
        )
    base = parse_point(space, _require(pdata, "base_point", "problem"), "problem.base_point")
    prob = EquivariantProblem(model, space, base, tuple(edges))
    init = None
    if "init" in pdata:
        vals = tuple(
            parse_point(space, v, f"problem.init[{i}]")
            for i, v in enumerate(_list(pdata["init"], "problem.init"))
        )
        init = EquivariantMap(model, space, vals)
    return prob, init


def _parse_cover(prob, cdata: dict) -> CoverSpec:
    where = "problem.cover"
    _take(cdata, {"index", "generators", "permutations", "coset_reps"}, where)
    gens = tuple(
        parse_twist(prob.target, g, f"{where}.generators[{i}]")
        for i, g in enumerate(_list(_require(cdata, "generators", where), f"{where}.generators"))
    )
    perms = tuple(
        _ints(p, f"{where}.permutations[{i}]")
        for i, p in enumerate(_list(_require(cdata, "permutations", where), f"{where}.permutations"))
    )
    reps = tuple(
        parse_twist(prob.target, g, f"{where}.coset_reps[{i}]")
        for i, g in enumerate(_list(_require(cdata, "coset_reps", where), f"{where}.coset_reps"))
    )
    index = _integer(_require(cdata, "index", where), f"{where}.index")
    return CoverSpec(prob, index, gens, perms, reps)


def _generator_params(name: str, params) -> dict:
    """The generator's keyword arguments, each coerced like its default."""
    defaults = {k: p.default for k, p in inspect.signature(GENERATORS[name]).parameters.items()}
    _take(params, set(defaults), "problem.params")
    return {
        k: (_integer if isinstance(defaults[k], int) else _real)(v, f"problem.params.{k}")
        for k, v in params.items()
    }


class RunConfig:
    """Parsed run configuration (strict: unknown fields are rejected)."""

    def __init__(self, data: dict, path: str):
        _take(data, {"schema", "seed", "space", "problem", "solver", "output", "verify"}, path)
        if _integer(_require(data, "schema", path), f"{path}: schema") != 1:
            raise ConfigError(f"{path}: unsupported schema version")
        self.seed = _seed(_require(data, "seed", path), f"{path}: seed")
        pdata = _object(_require(data, "problem", path), "problem")
        self.cover_spec = None
        self.init = None
        if "generator" in pdata:
            _take(pdata, {"generator", "params"}, "problem")
            name = pdata["generator"]
            if not isinstance(name, str) or name not in GENERATORS:
                raise ConfigError(
                    f"problem.generator: unknown generator {name!r}; known: {sorted(GENERATORS)}"
                )
            gm = generate(name, _generator_params(name, pdata.get("params", {})))
            self.problem = gm.problem
            self.init = gm.init
            self.cover_spec = gm.cover_spec
        else:
            if "space" not in data:
                raise ConfigError(f"{path}: missing required field 'space'")
            space = parse_space(data["space"])
            self.problem, self.init = _parse_problem(space, pdata)
            if "cover" in pdata:
                self.cover_spec = _parse_cover(self.problem, pdata["cover"])
                self.problem = build_cover(self.cover_spec)
                self.init = None
        sdata = data.get("solver", {})
        _take(
            sdata,
            {"method", "tol", "max_sweeps", "class_order", "norm_minimal"},
            "solver",
        )
        self.method = sdata.get("method", "bcd")
        if self.method not in ("bcd", "norm-minimal", "lexicographic", "commensurability"):
            raise ConfigError(f"solver.method: unknown method {self.method!r}")
        self.tol = _real(sdata.get("tol", 1e-9), "solver.tol")
        if not self.tol > 0.0:
            raise ConfigError(f"solver.tol: must be > 0, got {self.tol!r}")
        self.max_sweeps = _integer(sdata.get("max_sweeps", 500), "solver.max_sweeps")
        if self.max_sweeps < 1:
            raise ConfigError(f"solver.max_sweeps: must be >= 1, got {self.max_sweeps}")
        self.class_order = None
        if "class_order" in sdata:
            self.class_order = _ints(sdata["class_order"], "solver.class_order")
        self.norm_minimal = sdata.get("norm_minimal", False)
        if not isinstance(self.norm_minimal, bool):
            raise ConfigError(f"solver.norm_minimal: expected true or false, got {self.norm_minimal!r}")
        odata = data.get("output", {})
        _take(odata, {"dir"}, "output")
        self.out_dir = odata.get("dir", "out")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"output.dir: expected a string, got {self.out_dir!r}")
        vdata = data.get("verify", {})
        _take(
            vdata,
            {"samples", "budget", "count", "euclid_instances", "tree_instances"},
            "verify",
        )
        self.verify_budgets = {}
        for key, value in vdata.items():
            n = _integer(value, f"verify.{key}")
            if n < 1:
                raise ConfigError(f"verify.{key}: must be >= 1, got {n}")
            self.verify_budgets[key] = n


def parse_config(path: str, seed_override=None) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as ex:
        raise ConfigError(f"{path}: invalid JSON ({ex})")
    cfg = RunConfig(data, path)
    if seed_override is not None:
        cfg.seed = _seed(seed_override, "--seed")
    return cfg


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _point_columns(space, value):
    """The solution.csv columns of a point of a target kind that the CLI
    builds (:func:`parse_space`)."""
    if isinstance(space, (Euclidean, LpVector)):
        return [_fmt(c) for c in value]
    if isinstance(space, MetricTree):
        if value.vertex is not None:
            return [f"vertex:{value.vertex}"]
        return [f"edge:{value.edge}:{_fmt(value.offset)}"]
    # a Product, the last of them
    return [c for f, part in zip(space.factors, value) for c in _point_columns(f, part)]


# the kernel model and the uniqueness verdict of a commensurability solve;
# flat_directions only where the exact solve counted them (a Euclidean target)
COMM_SUMMARY_KEYS = (
    "kernel_terms", "word_radius", "truncation_residual", "restart_gap", "unique", "parallel_orbits",
    "flat_directions",
)


def _write_artifacts(out_dir: Path, cfg: RunConfig, report, wall: float):
    out_dir.mkdir(parents=True, exist_ok=True)
    prob = cfg.problem
    # the classes of the solved energy: the kernel energy of a
    # commensurability solve has one, whatever the problem's edges have
    classes = report.energy_per_class
    header = ["sweep", "energy_total"] + [f"energy_class_{c}" for c in classes] + [
        "norm",
        "max_move",
    ]
    lines = [",".join(header)]
    for row in report.trace:
        lines.append(
            ",".join(
                [str(row.sweep), _fmt(row.energy_total)]
                + [_fmt(v) for v in row.energy_per_class]
                + [_fmt(row.norm), _fmt(row.max_move)]
            )
        )
    (out_dir / "trace.csv").write_text("\n".join(lines) + "\n")
    sol_lines = ["cell," + ",".join(f"coord{i}" for i in range(len(_point_columns(prob.target, report.solution.values[0]))))]
    for cell, value in zip(prob.model.cells, report.solution.values):
        sol_lines.append(",".join([str(cell)] + _point_columns(prob.target, value)))
    (out_dir / "solution.csv").write_text("\n".join(sol_lines) + "\n")
    summary = {
        "schema": 1,
        "method": cfg.method,
        "seed": cfg.seed,
        "final_energy": report.energy_total,
        "energy_per_class": {str(k): v for k, v in report.energy_per_class.items()},
        "norm": report.norm,
        "converged": report.converged,
        "sweeps": report.iterations,
        "wall_time_s": wall,
    }
    if cfg.method == "commensurability":
        summary.update({key: report.extras[key] for key in COMM_SUMMARY_KEYS if key in report.extras})
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def solve_command(config_path: str, out_override=None, seed_override=None) -> int:
    try:
        cfg = parse_config(config_path, seed_override)
    except (ConfigError, GeometryError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    if out_override is not None:
        cfg.out_dir = out_override
    t0 = time.perf_counter()
    try:
        if cfg.method == "bcd":
            report = minimize_energy(
                cfg.problem,
                cfg.init,
                tol=cfg.tol,
                max_sweeps=cfg.max_sweeps,
                seed=cfg.seed,
            )
        elif cfg.method == "norm-minimal":
            report = norm_minimal_minimizer(
                cfg.problem, tol=cfg.tol, max_sweeps=cfg.max_sweeps, seed=cfg.seed
            )
        elif cfg.method == "lexicographic":
            order = cfg.class_order or list(cfg.problem.classes)
            report = lexicographic_minimize(
                cfg.problem, order, tol=cfg.tol, max_sweeps=cfg.max_sweeps, seed=cfg.seed
            )
        else:  # commensurability
            if cfg.cover_spec is not None and cfg.cover_spec.index > 1:
                m = cover_comm_energy_model(cfg.cover_spec, cfg.problem)
            else:
                m = comm_energy_model(cfg.problem)
            report = subgroup_harmonic(
                m,
                tol=cfg.tol,
                max_sweeps=cfg.max_sweeps,
                seed=cfg.seed,
                norm_minimal=cfg.norm_minimal,
            )
    except SolverError as ex:
        print(f"solver error: {ex}", file=sys.stderr)
        return 3
    except GeometryError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0
    _write_artifacts(Path(cfg.out_dir), cfg, report, wall)
    if not report.converged:
        print(
            f"solver error: not converged after {report.iterations} sweeps "
            f"(energy {report.energy_total:.6e})",
            file=sys.stderr,
        )
        return 3
    print(
        f"solved: energy {report.energy_total:.9e} norm {report.norm:.9e} "
        f"sweeps {report.iterations} -> {cfg.out_dir}"
    )
    return 0


def verify_command(config_path: str, suite: str, out_override=None, seed_override=None) -> int:
    try:
        cfg = parse_config(config_path, seed_override)
        if suite != "all" and suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}; known: {sorted(SUITES) + ['all']}")
    except (ConfigError, GeometryError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    budgets = dict(cfg.verify_budgets)
    budgets["seed"] = cfg.seed
    results = run_suite(suite, budgets)
    out_dir = Path(out_override if out_override is not None else cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["check,passed,worst,detail"]
    for r in results:
        lines.append(f"\"{r.name}\",{int(r.passed)},{_fmt(r.worst)},\"{r.detail}\"")
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} (worst {r.worst:.3e}) {r.detail}")
    (out_dir / "report.csv").write_text("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="busemann",
        description="Geometry and equivariant energy minimization in convex metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run a solver on a config")
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all")
    for p in (p_solve, p_verify):
        p.add_argument("config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", default=None, type=int, help="seed (overrides config)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "solve":
        return solve_command(args.config, args.out, args.seed)
    return verify_command(args.config, args.suite, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
