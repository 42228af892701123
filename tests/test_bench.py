"""The acceptance-rule verdicts of `scripts/bench.py`, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

STEADY = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
WIDE = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]


def pairs(first, second):
    return list(zip(first, second))


@pytest.mark.parametrize(
    "first, second, better, expected",
    [
        # every pair won, by more than the parent's quartile distance
        (STEADY, [x + 10 for x in STEADY], "higher", "gain"),
        (STEADY, [x - 10 for x in STEADY], "lower", "gain"),
        # every pair won, but by less than the quartile distance
        (STEADY, [x + 1 for x in STEADY], "higher", "even"),
        # 8 pairs in 10 won by a wide margin
        (STEADY, [x + 10 for x in STEADY[:8]] + STEADY[8:9] + [100.0], "higher", "even"),
        # 30% slower in a lower-is-better metric, past the 25% bound
        (STEADY, [1.3 * x for x in STEADY], "lower", "worse"),
        (STEADY, [0.7 * x for x in STEADY], "higher", "worse"),
        # 20% slower stays inside the bound
        (STEADY, [1.2 * x for x in STEADY], "lower", "even"),
        # the parent's runs spread past the bound, and the runs overlap
        (WIDE, [x + 5 for x in WIDE], "higher", "unresolved"),
        # a spread that wide is still resolved when every run beats every run
        (WIDE, [x + 100 for x in WIDE], "higher", "gain"),
        (STEADY, STEADY, "higher", "even"),
    ],
)
def test_verdict(first, second, better, expected):
    assert bench.verdict(pairs(first, second), better, 0.25) == expected


def test_summary_gives_each_metric_its_verdict():
    runs = []
    for r, (a, b) in enumerate(zip(STEADY, [x + 10 for x in STEADY])):
        for tree, value in (("parent", a), ("change", b)):
            metrics = {"items_per_s": value, "item_ms_p50": 1000 / value, "peak_rss_mb": 40.0}
            runs.append(
                {"run": r, "workload": "lattice@seed1", "tree": tree, "exit": 0, "metrics": metrics}
            )
    summary = bench.summarise(runs, ["parent", "change"])["lattice@seed1"]
    assert summary["change_wins"]["items_per_s"] == "10/10"
    assert summary["change_verdicts"] == {
        "items_per_s": "gain",
        "item_ms_p50": "gain",
        "peak_rss_mb": "even",
    }
