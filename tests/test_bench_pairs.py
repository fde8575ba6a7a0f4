import importlib.util
from pathlib import Path

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
