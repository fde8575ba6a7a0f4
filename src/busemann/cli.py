"""Config-driven command line: build spaces and problems from declarative
JSON files, run solvers, and run the verification suites.

Usage:
    busemann solve <config.json> [--out DIR] [--seed N] [--threads N]
    busemann verify <config.json> --suite NAME [--out DIR] [--seed N]

Exit codes: 0 success; 1 verification found a failing check; 2 config
parse/validation error; 3 solver error (including non-convergence).

Outputs of ``solve``: ``trace.csv`` (sweep, energy_total, energy_class_j...,
norm, max_move), ``summary.json`` (final energy, norm, converged, wall
time), ``solution.csv`` (cell id, coordinates).  All CSV content is
deterministic for a fixed config and seed; wall time lives only in the
summary.
"""

from __future__ import annotations

import argparse
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


def _take(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return obj[key]


def _number(value, kind, where: str):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}")


def _real(value, where: str) -> float:
    x = _number(value, float, where)
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
    return tuple(_number(v, int, f"{where}[{i}]") for i, v in enumerate(_list(values, where)))


def parse_space(spec: dict, where: str = "space"):
    kind = _require(spec, "kind", where)
    if kind == "euclidean":
        _take(spec, {"kind", "dim"}, where)
        return Euclidean(_number(_require(spec, "dim", where), int, f"{where}.dim"))
    if kind == "lp":
        _take(spec, {"kind", "dim", "p"}, where)
        return LpVector(
            _number(_require(spec, "dim", where), int, f"{where}.dim"),
            _real(_require(spec, "p", where), f"{where}.p"),
        )
    if kind == "tree":
        _take(spec, {"kind", "vertices", "edges"}, where)
        edges = []
        for i, e in enumerate(_list(_require(spec, "edges", where), f"{where}.edges")):
            if not isinstance(e, list) or len(e) != 3:
                raise ConfigError(f"{where}.edges[{i}]: expected [u, v, length]")
            edges.append((e[0], e[1], _real(e[2], f"{where}.edges[{i}][2]")))
        vertices = _list(_require(spec, "vertices", where), f"{where}.vertices")
        return MetricTree(tuple(vertices), tuple(edges))
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
            return space.vertex_point(data["vertex"])
        return space.point(
            _number(_require(data, "edge", where), int, f"{where}.edge"),
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
        vertex_map = _require(data, "vertex_map", where)
        if not isinstance(vertex_map, dict):
            raise ConfigError(f"{where}.vertex_map: expected an object")
        return TreeIsometry(space, dict(vertex_map))
    if kind == "product":
        _take(data, {"kind", "parts"}, where)
        if not isinstance(space, Product):
            raise ConfigError(f"{where}: product twist on a non-product space")
        return ProductIsometry(
            tuple(
                parse_twist(f, d, f"{where}.parts[{i}]")
                for i, (f, d) in enumerate(zip(space.factors, _list(_require(data, "parts", where), f"{where}.parts")))
            )
        )
    raise ConfigError(f"{where}: unknown twist kind {kind!r}")


def _parse_problem(space, pdata: dict):
    _take(pdata, {"cells", "edges", "base_point", "init", "cover"}, "problem")
    cells = _list(_require(pdata, "cells", "problem"), "problem.cells")
    for c in cells:
        _take(c, {"id", "weight"}, "problem.cells[]")
    ids = tuple(_require(c, "id", "problem.cells[]") for c in cells)
    weights = tuple(
        _number(_require(c, "weight", "problem.cells[]"), float, "problem.cells[].weight")
        for c in cells
    )
    model = MeasureModel(ids, weights)
    edges = []
    for i, e in enumerate(_list(_require(pdata, "edges", "problem"), "problem.edges")):
        _take(e, {"src", "dst", "weight", "class", "twist"}, f"problem.edges[{i}]")
        edges.append(
            Edge(
                _require(e, "src", f"problem.edges[{i}]"),
                _require(e, "dst", f"problem.edges[{i}]"),
                _real(_require(e, "weight", f"problem.edges[{i}]"), f"problem.edges[{i}].weight"),
                parse_twist(space, _require(e, "twist", f"problem.edges[{i}]"), f"problem.edges[{i}].twist"),
                _number(e.get("class", 1), int, f"problem.edges[{i}].class"),
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
    index = _number(_require(cdata, "index", where), int, f"{where}.index")
    return CoverSpec(prob, index, gens, perms, reps)


class RunConfig:
    """Parsed run configuration (strict: unknown fields are rejected)."""

    def __init__(self, data: dict, path: str):
        _take(data, {"schema", "seed", "space", "problem", "solver", "output", "verify"}, path)
        if _number(_require(data, "schema", path), int, f"{path}: schema") != 1:
            raise ConfigError(f"{path}: unsupported schema version")
        self.seed = _number(_require(data, "seed", path), int, f"{path}: seed")
        pdata = _require(data, "problem", path)
        self.cover_spec = None
        self.init = None
        if "generator" in pdata:
            _take(pdata, {"generator", "params"}, "problem")
            name = pdata["generator"]
            if name not in GENERATORS:
                raise ConfigError(
                    f"problem.generator: unknown generator {name!r}; known: {sorted(GENERATORS)}"
                )
            gm = generate(name, pdata.get("params"))
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
            {"method", "tol", "max_sweeps", "mode", "schedule", "class_order", "norm_minimal"},
            "solver",
        )
        self.method = sdata.get("method", "bcd")
        if self.method not in ("bcd", "norm-minimal", "lexicographic", "commensurability"):
            raise ConfigError(f"solver.method: unknown method {self.method!r}")
        self.tol = _number(sdata.get("tol", 1e-9), float, "solver.tol")
        if not self.tol > 0.0:
            raise ConfigError(f"solver.tol: must be > 0, got {self.tol!r}")
        self.max_sweeps = _number(sdata.get("max_sweeps", 500), int, "solver.max_sweeps")
        if self.max_sweeps < 1:
            raise ConfigError(f"solver.max_sweeps: must be >= 1, got {self.max_sweeps}")
        self.mode = sdata.get("mode", "gauss-seidel")
        if self.mode not in ("gauss-seidel", "jacobi"):
            raise ConfigError(f"solver.mode: unknown mode {self.mode!r}")
        self.schedule = sdata.get("schedule")
        self.class_order = sdata.get("class_order")
        self.norm_minimal = bool(sdata.get("norm_minimal", False))
        odata = data.get("output", {})
        _take(odata, {"dir"}, "output")
        self.out_dir = odata.get("dir", "out")
        vdata = data.get("verify", {})
        _take(
            vdata,
            {"samples", "budget", "count", "euclid_instances", "tree_instances"},
            "verify",
        )
        self.verify_budgets = dict(vdata)


def parse_config(path: str) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as ex:
        raise ConfigError(f"{path}: invalid JSON ({ex})")
    return RunConfig(data, path)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _point_columns(space, value):
    if isinstance(space, (Euclidean, LpVector)):
        return [_fmt(c) for c in value]
    if isinstance(space, MetricTree):
        if value.vertex is not None:
            return [f"vertex:{value.vertex}"]
        return [f"edge:{value.edge}:{_fmt(value.offset)}"]
    if isinstance(space, Product):
        cols = []
        for f, part in zip(space.factors, value):
            cols.extend(_point_columns(f, part))
        return cols
    return [repr(value)]


def _write_artifacts(out_dir: Path, cfg: RunConfig, report, wall: float):
    out_dir.mkdir(parents=True, exist_ok=True)
    prob = cfg.problem
    classes = prob.classes
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
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def solve_command(config_path: str, out_override=None, seed_override=None) -> int:
    try:
        cfg = parse_config(config_path)
    except (ConfigError, GeometryError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    if seed_override is not None:
        cfg.seed = int(seed_override)
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
                mode=cfg.mode,
                seed=cfg.seed,
            )
        elif cfg.method == "norm-minimal":
            report = norm_minimal_minimizer(
                cfg.problem,
                tol=cfg.tol,
                schedule=cfg.schedule,
                max_sweeps=cfg.max_sweeps,
                seed=cfg.seed,
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
        cfg = parse_config(config_path)
        if suite != "all" and suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}; known: {sorted(SUITES) + ['all']}")
    except (ConfigError, GeometryError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2
    if seed_override is not None:
        cfg.seed = int(seed_override)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="busemann",
        description="Geometry and equivariant energy minimization in convex metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run a solver on a config")
    p_solve.add_argument("config")
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("config")
    p_verify.add_argument("--suite", default="all")
    for p in (p_solve, p_verify):
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", default=None, type=int, help="seed (overrides config)")
        p.add_argument("--threads", default=1, type=int, help="worker threads (results are identical for any value)")
    args = parser.parse_args(argv)
    if args.command == "solve":
        return solve_command(args.config, args.out, args.seed)
    return verify_command(args.config, args.suite, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
