"""The byte-identity contract: every run of ``scripts/golden_csv.py`` writes
the files whose SHA-256 digests ``tests/golden.sha256`` records."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_csv.py"
spec = importlib.util.spec_from_file_location("golden_csv", SCRIPT)
golden_csv = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden_csv)


def test_outputs_match_the_golden_manifest(tmp_path):
    recorded, seed, want = golden_csv.read_manifest(golden_csv.MANIFEST)
    here = golden_csv.versions()
    # outputs are compared bit for bit, so they hold only on the versions
    # they were recorded with; elsewhere this fails rather than skips
    assert recorded == here, (
        f"tests/golden.sha256 was recorded with {recorded[2:]}, this is {here[2:]}; "
        "re-record it with scripts/golden_csv.py --manifest after checking the outputs"
    )
    golden_csv.run_all(tmp_path / "runs", seed)
    diffs = golden_csv.digest_differences(want, golden_csv.digests(tmp_path / "runs"))
    assert not diffs, f"{len(diffs)} output files differ from tests/golden.sha256:\n" + "\n".join(diffs)


def test_manifest_round_trip(tmp_path):
    root = tmp_path / "runs"
    (root / "a").mkdir(parents=True)
    (root / "a" / "trace.csv").write_text("sweep\n0\n")
    (root / "seed").write_text("7\n")
    want = golden_csv.digests(root)
    path = tmp_path / "m.sha256"
    path.write_text("\n".join([golden_csv.versions(), "# seed 7"] + [f"{d}  {p}" for p, d in want.items()]) + "\n")
    assert golden_csv.read_manifest(path) == (golden_csv.versions(), 7, want)
    (root / "a" / "trace.csv").write_text("sweep\n1\n")
    (root / "b").write_text("")
    del want["seed"]
    assert golden_csv.digest_differences(want, golden_csv.digests(root)) == ["unexpected: b", "unexpected: seed", "differs: a/trace.csv"]
