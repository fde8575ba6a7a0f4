"""Byte-identity check of `busemann solve` output on every named generator.

    PYTHONPATH=src python scripts/golden_csv.py --write DIR   # record outputs
    PYTHONPATH=src python scripts/golden_csv.py --check DIR   # compare with them

Every generator in ``busemann.models.GENERATORS`` is solved with its default
parameters under every solver method (``bcd``, ``norm-minimal``,
``lexicographic``, ``commensurability``) at a fixed seed (``--seed``, default
7, stored in ``DIR/seed``).  Each run leaves ``DIR/<generator>/<method>/``
holding ``trace.csv``, ``solution.csv``, ``summary.json`` without its
``wall_time_s`` entry, and ``exit_code`` (a run that stops with a solver
error writes only the exit code).  ``--check`` reruns everything at the
stored seed in a temporary directory and compares the files byte for byte:
it prints one line per difference and exits 1 if there is any.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from busemann.cli import main as busemann_main
from busemann.models import GENERATORS

METHODS = ("bcd", "norm-minimal", "lexicographic", "commensurability")


def run_all(root: Path, seed: int) -> None:
    root.mkdir(parents=True)
    (root / "seed").write_text(f"{seed}\n")
    for generator in sorted(GENERATORS):
        for method in METHODS:
            out = root / generator / method
            out.mkdir(parents=True)
            config = out / "config.json"
            config.write_text(json.dumps({
                "schema": 1,
                "seed": seed,
                "problem": {"generator": generator},
                "solver": {"method": method},
            }))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = busemann_main(["solve", str(config), "--out", str(out)])
            config.unlink()
            (out / "exit_code").write_text(f"{code}\n")
            summary = out / "summary.json"
            if summary.exists():
                data = json.loads(summary.read_text())
                del data["wall_time_s"]
                summary.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def differences(expected: Path, actual: Path) -> list:
    names = lambda root: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
    want, got = names(expected), names(actual)
    diffs = [f"missing: {p}" for p in sorted(want - got)]
    diffs += [f"unexpected: {p}" for p in sorted(got - want)]
    diffs += [
        f"differs: {p}"
        for p in sorted(want & got)
        if (expected / p).read_bytes() != (actual / p).read_bytes()
    ]
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="DIR", help="record the outputs in DIR (must not exist)")
    mode.add_argument("--check", metavar="DIR", help="compare fresh outputs with DIR")
    ap.add_argument("--seed", type=int, default=7, help="seed of the recorded runs (--write)")
    args = ap.parse_args()
    if args.write:
        run_all(Path(args.write), args.seed)
        print(f"wrote {len(GENERATORS) * len(METHODS)} runs to {args.write}")
        return 0
    expected = Path(args.check)
    with tempfile.TemporaryDirectory() as tmp:
        actual = Path(tmp) / "runs"
        run_all(actual, int((expected / "seed").read_text()))
        diffs = differences(expected, actual)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences in {len(GENERATORS) * len(METHODS)} runs")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
