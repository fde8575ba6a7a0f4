import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_pair_roots_share_a_length_that_cycles_over_four_values():
    tmp = Path("/tmp/bench-pairs-abcdefgh")
    roots = [bench_pairs.pair_roots(tmp, k) for k in range(10)]
    lengths = []
    for pair in roots:
        assert set(pair) == {"parent", "change"}
        assert all(root.parent == tmp for root in pair.values())
        assert pair["parent"] != pair["change"]
        (length,) = {len(str(root)) for root in pair.values()}
        lengths.append(length)
    # two pairs (both orders of the sides) at each length, then the next one
    assert lengths[0::2] == lengths[1::2]
    assert len(set(lengths[0:8:2])) == 4
    assert lengths[8] == lengths[0]
    # every pair has roots of its own
    assert len({root for pair in roots for root in pair.values()}) == 20


def test_op_medians_are_scaled_as_wall_s_and_kept_raw():
    result = {
        "comm-kernel": {"metrics": {"wall_s": {"value": 0.08, "unit": "s"}}},
        "solve-euclid": {"metrics": {"wall_s": {"value": 0.2, "unit": "s"}}},
    }
    stdout = "\n".join([
        'meta {"nproc": 2}',
        "comm-kernel: wall_s = 0.08 s",
        "comm-kernel: wall_raw_s = 0.1 s (unscaled)",
        "comm-kernel: op comm-dihedral-6-0 median 0.005 s",
        "comm-kernel: op comm-dihedral-cover-2 median 0.015 s",
        "solve-euclid: wall_raw_s = 0.25 s (unscaled)",
        "solve-euclid: op consensus-20 median 0.1 s",
        "verify-sampled: op verify-mazur median 0.06 s",  # no result, no scale
        json.dumps(result),
    ])
    parsed = bench_pairs.parse_output(stdout)
    assert parsed["meta"] == {"nproc": 2}
    assert parsed["result"] == result
    assert parsed["op_raw_s"] == {
        "comm-kernel": {"comm-dihedral-6-0": 0.005, "comm-dihedral-cover-2": 0.015},
        "solve-euclid": {"consensus-20": 0.1},
        "verify-sampled": {"verify-mazur": 0.06},
    }
    assert set(parsed["op_s"]) == {"comm-kernel", "solve-euclid"}
    assert parsed["op_s"]["comm-kernel"] == pytest.approx({"comm-dihedral-6-0": 0.004, "comm-dihedral-cover-2": 0.012})
    assert parsed["op_s"]["solve-euclid"] == pytest.approx({"consensus-20": 0.08})
    # a run without a result keeps its raw medians only
    broken = bench_pairs.parse_output(stdout.rsplit("\n", 1)[0] + "\nTraceback")
    assert broken["result"] is None and broken["op_s"] == {}
    assert broken["op_raw_s"] == parsed["op_raw_s"]
