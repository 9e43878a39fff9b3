"""The verdict rule of tools/bench_pairs.py, one case per verdict, on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

# median 10.45, quartiles 10.225 and 10.675: an interquartile range of 0.45, 4.3 % of the median
PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
NINE_WINS = [v - 1.0 for v in PARENT[:9]] + [11.0]  # median 9.45


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    # 9 of 10 pairs won, and the median 1.0 better against a range of 0.45
    (PARENT, NINE_WINS, "lower", 0.25, "gain"),
    # 8 of 10 is no gain, by any median, and nor are 9 of 9 pairs
    (PARENT, NINE_WINS[:8] + [11.0, 11.0], "lower", 0.25, "flat"),
    (PARENT[:9], NINE_WINS[:9], "lower", 0.25, "flat"),
    # where higher is better, the same runs put the median 9.6 % below the parent's
    (PARENT, NINE_WINS, "higher", 0.05, "worse"),
    # a 4.3 % range is wider than a 1 % bound, and the runs overlap
    (PARENT, [v + 0.01 for v in PARENT], "lower", 0.01, "unresolved"),
    # inside a 25 % bound the same runs are flat
    (PARENT, [v + 0.01 for v in PARENT], "lower", 0.25, "flat"),
    # a range of 2.0 around 2.0, but every change run is better than every parent run; the
    # median gains 1.01, under the range, so this is no gain either
    ([1.0] * 5 + [3.0] * 5, [0.99] * 10, "lower", 0.01, "flat"),
])
def test_one_verdict_per_rule(parent, change, better, bound, expected):
    assert bench_pairs.verdict(parent, change, better, bound) == expected


def test_ties_count_for_neither_side():
    for better in ("lower", "higher"):
        assert bench_pairs.change_wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], better) == 1
