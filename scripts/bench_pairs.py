"""Alternating parent/change pairs of the benchmark, summarized in one JSON file.

    python scripts/bench_pairs.py --parent REV --seeds 101-110 --out BENCH_9.json \
        [--change REV] [--claim comm-kernel/wall_s]

Run it from the repository root.  Both sides are git revs (the change side
defaults to ``HEAD``; commit uncommitted work first), resolved to commit SHAs
with ``git rev-parse`` and exported with ``git archive`` into a temporary
directory that is removed at the end (an export leaves nothing behind in the
repository, as a worktree would when a run is interrupted).  For each seed
both sides run the benchmark command of ``BENCHMARK.json`` with ``--workload
all`` for its ``run_seconds``, one after the other, alternating which side
runs first.  Each pair runs on its own exports, whose roots
(:func:`pair_roots`) have one path length on both sides; the length cycles
over four values, changing every two pairs, since the memory layout of a
child, and with it ``peak_rss_mb``, moves with the path length of the code
it compiles.

The output holds every run (side, seed, order, root path length, exit code,
elapsed time, the JSON result and the per-op medians, scaled as ``wall_s``
is in ``op_s`` and as printed in ``op_raw_s``), ``peak_rss_mb`` of
both sides at each root length, and, for each workload and end-to-end
metric of ``BENCHMARK.json``, the medians and quartiles of both sides
(``statistics.quantiles(n=4, method="inclusive")``), the number of pairs in
which the change is lower, the median relative change and whether it lies
within the metric's bound.  ``--claim WORKLOAD/METRIC`` adds the check of a
claimed gain on a lower-is-better metric: lower in at least nine of ten
pairs, and a median gap larger than the parent's interquartile range.

A pair in which either side gave no result is dropped from the medians and
quartiles but still counted in ``pairs``: the change is not lower there, and
any dropped pair makes ``within_bound`` and the claim false.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

OP_LINE = re.compile(r"^(?P<workload>[\w-]+): op (?P<op>\S+) median (?P<t>\S+) s$")
RAW_WALL_LINE = re.compile(r"^(?P<workload>[\w-]+): wall_raw_s = (?P<t>\S+) s \(unscaled\)$")


# Extra characters in the names of a pair's export roots, cycled over the pairs.
ROOT_PADS = (0, 4, 8, 12)


def pair_roots(tmp: Path, pair: int) -> dict:
    """The export roots of pair number ``pair`` under ``tmp``, one per side,
    both of one path length.  The length cycles over ``ROOT_PADS`` every two
    pairs, so that each length sees both orders of the sides."""
    pad = "_" * ROOT_PADS[pair // 2 % len(ROOT_PADS)]
    return {side: tmp / f"{pair:03d}-{side}{pad}" for side in ("parent", "change")}


def rev_parse(rev: str) -> str:
    """The commit SHA of ``rev``."""
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The files of ``rev`` under ``dest`` (``git archive``, local only)."""
    tar = subprocess.run(["git", "archive", rev], capture_output=True, check=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}  # Python >= 3.11.4
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)
    return dest


def side_command(bench: dict, seed) -> list:
    """The benchmark command of ``BENCHMARK.json`` on every workload."""
    return [*bench["command"], "--workload", "all", "--seed", str(seed),
            "--seconds", f"{bench['run_seconds']:g}"]


def parse_output(stdout: str) -> dict:
    """The JSON result, the run metadata and the op medians of one run's
    output.  ``op_raw_s`` holds the printed op medians; ``op_s`` scales each
    workload's medians by its ``wall_s / wall_raw_s``, the factor that takes
    ``wall_s`` to the nominal CPU speed, so that op medians of two runs
    compare as their ``wall_s`` do (empty for a workload without both)."""
    lines = stdout.strip().splitlines()
    op_raw_s: dict = {}
    wall_raw_s: dict = {}
    meta = None
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[5:])
        elif match := OP_LINE.match(line):
            op_raw_s.setdefault(match["workload"], {})[match["op"]] = float(match["t"])
        elif match := RAW_WALL_LINE.match(line):
            wall_raw_s[match["workload"]] = float(match["t"])
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    op_s: dict = {}
    for workload, ops in op_raw_s.items():
        try:
            scale = result[workload]["metrics"]["wall_s"]["value"] / wall_raw_s[workload]
        except (KeyError, TypeError):  # no result, or no wall_s for this workload
            continue
        op_s[workload] = {op: t * scale for op, t in ops.items()}
    return {"result": result, "op_s": op_s, "op_raw_s": op_raw_s, "meta": meta}


def run_side(root: Path, command: list) -> dict:
    """One run of ``command`` in ``root``."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, *command[1:]], cwd=root, capture_output=True, text=True)
    parsed = parse_output(proc.stdout)
    if parsed["result"] is None:
        print(proc.stderr[-2000:], file=sys.stderr)
    return {"exit": proc.returncode, "elapsed_s": round(time.monotonic() - t0, 1), **parsed}


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list, bench: dict) -> dict:
    """Per workload and metric: both sides' medians and quartiles, the pairs
    in which the change is lower, and the median change against the bound."""
    by_seed: dict = {}
    for run in runs:
        result = run["result"] if run["exit"] == 0 else None
        by_seed.setdefault(run["seed"], {})[run["side"]] = result
    summary: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = [sides for sides in by_seed.values()
                 if all(workload in (sides.get(side) or {}) for side in ("parent", "change"))]
        dropped = len(by_seed) - len(pairs)
        for spec in bench["end_to_end"]:
            name = spec["name"]
            parent = [p["parent"][workload]["metrics"][name]["value"] for p in pairs]
            change = [p["change"][workload]["metrics"][name]["value"] for p in pairs]
            p1, pm, p3 = quartiles(parent) if len(pairs) > 1 else (None,) * 3
            c1, cm, c3 = quartiles(change) if len(pairs) > 1 else (None,) * 3
            rel = (cm - pm) / pm if pm else None
            worse = None if rel is None else rel if spec["better"] == "lower" else -rel
            summary[f"{workload}/{name}"] = {
                "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
                "change_median": cm, "change_q1": c1, "change_q3": c3,
                "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
                "pairs": len(by_seed),
                "dropped_pairs": dropped,
                "median_rel_change": rel,
                "bound": spec["bound"],
                "within_bound": dropped == 0 and worse is not None and worse <= spec["bound"],
            }
        for count in ("failed", "attempted"):
            summary[f"{workload}/{count}"] = {
                side: sum(p[side][workload][count] for p in pairs) for side in ("parent", "change")
            }
    return summary


def by_root_len(runs: list, bench: dict, metric: str) -> dict:
    """Per root path length and workload, ``summarize``'s medians of
    ``metric`` over the pairs run at that length."""
    out: dict = {}
    for length in sorted({run["root_len"] for run in runs}):
        summary = summarize([run for run in runs if run["root_len"] == length], bench)
        out[str(length)] = {
            w["name"]: {key: summary[f"{w['name']}/{metric}"][key]
                        for key in ("pairs", "parent_median", "change_median", "median_rel_change")}
            for w in bench["workloads"]
        }
    return out


def claim(summary: dict, metric: str) -> dict:
    """Whether a claimed gain on a lower-is-better metric holds: lower in at
    least nine of ten pairs run and in the median by more than the parent's
    interquartile range, with no pair dropped."""
    entry = summary[metric]
    lower, pairs, dropped = entry["change_lower_in_pairs"], entry["pairs"], entry["dropped_pairs"]
    out = {"metric": metric, "change_lower_in_pairs": lower, "pairs": pairs, "dropped_pairs": dropped}
    if entry["parent_median"] is None:
        return {**out, "met": False}
    gap = entry["parent_median"] - entry["change_median"]
    iqr = entry["parent_q3"] - entry["parent_q1"]
    return {**out, "median_gap_s": gap, "parent_iqr_s": iqr,
            "met": dropped == 0 and lower * 10 >= 9 * pairs and gap > iqr}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git rev of the parent side")
    ap.add_argument("--change", default="HEAD", help="git rev of the change side (default: HEAD)")
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 101-110: one pair per seed")
    ap.add_argument("--claim", help="WORKLOAD/METRIC of a claimed gain")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    bench = json.loads(Path("BENCHMARK.json").read_text())
    if args.claim and not any(
        args.claim.endswith("/" + s["name"]) and s["better"] == "lower" for s in bench["end_to_end"]
    ):
        ap.error(f"--claim {args.claim}: not a lower-is-better end-to-end metric")
    shas = {side: rev_parse(getattr(args, side)) for side in ("parent", "change")}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for k, seed in enumerate(range(first, last + 1)):
            roots = {side: export(shas[side], root) for side, root in pair_roots(Path(tmp), k).items()}
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order, 1):
                run = {"side": side, "seed": seed, "order": position, "root_len": len(str(roots[side])),
                       **run_side(roots[side], side_command(bench, seed))}
                runs.append(run)
                print(f"seed {seed} {side}: exit {run['exit']} in {run['elapsed_s']} s", flush=True)
    meta = next((r["meta"] for r in runs if r["meta"]), {}) or {}
    out = {
        "command": " ".join(side_command(bench, "SEED")),
        "machine": f"{meta.get('nproc')}-CPU, Python {meta.get('python')}, numpy {meta.get('numpy')} "
                   "(from the run metadata)",
        "design": f"{last - first + 1} pairs, seeds {first}-{last}, parent and change alternating "
                  "which runs first; each pair exported with git archive to roots of one path "
                  f"length, cycling over {len(ROOT_PADS)} lengths; quartiles by "
                  "statistics.quantiles(n=4, method='inclusive')",
        "parent": shas["parent"],
        "change": shas["change"],
        # the sources measured on each side (the meta line's SHA-256 of src/busemann/*.py)
        "src_sha256": {side: next((r["meta"]["src_sha256"] for r in runs if r["side"] == side and r["meta"]), None)
                       for side in ("parent", "change")},
    }
    summary = summarize(runs, bench)
    if args.claim:
        out["claim"] = claim(summary, args.claim)
    out["summary"] = summary
    out["peak_rss_mb_by_root_len"] = by_root_len(runs, bench, "peak_rss_mb")
    out["runs"] = [{k: v for k, v in run.items() if k != "meta"} for run in runs]
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out.get("claim", {})))
    return 0 if all(run["exit"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
