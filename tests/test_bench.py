"""The acceptance-rule verdicts of `scripts/bench.py`, on synthetic runs."""

import importlib.util
import json
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


def test_benchmark_runs_keep_their_item_counts(tmp_path):
    line = {"correct": False, "attempted": 40, "failed": 3, "metrics": {"items_per_s": {"value": 9.5}}}
    (tmp_path / "fake.py").write_text(
        f"print('warm-up')\nprint('digest sha256:ab12')\nprint({json.dumps(line)!r})\n"
    )
    record = bench.run_once(tmp_path, ["fake.py"], benchmark=True)
    assert record == {
        "exit": 0, "attempted": 40, "failed": 3, "digest": "ab12", "metrics": {"items_per_s": 9.5}
    }
    (tmp_path / "fake.py").write_text("raise SystemExit(3)\n")  # no result line at all
    record = bench.run_once(tmp_path, ["fake.py"], benchmark=True)
    assert record == {"exit": 3, "digest": None, "metrics": {}}


@pytest.mark.parametrize(
    "change_digests, same",
    [
        (["ab12", "ab12", "ab12"], True),
        (["ab12", "cd34", "ab12"], False),  # one run different
        (["ab12", None, "ab12"], False),  # one run printed no digest
    ],
    ids=["all-equal", "one-different", "one-missing"],
)
def test_summary_says_whether_every_run_gave_one_digest(change_digests, same):
    runs = [
        {"run": r, "workload": "socle@seed1", "tree": tree, "exit": 0, "attempted": 10,
         "failed": 0, "digest": digest, "metrics": {"items_per_s": 10.0}}
        for r, changed in enumerate(change_digests)
        for tree, digest in (("parent", "ab12"), ("change", changed))
    ]
    assert bench.summarise(runs, ["parent", "change"])["socle@seed1"]["same_digest"] is same


def test_summary_gives_each_tree_its_fail_ratio():
    runs = [
        {"run": r, "workload": "socle@seed1", "tree": tree, "exit": 0,
         "attempted": 100, "failed": failed, "metrics": {"items_per_s": 10.0 + r}}
        for r in range(4)
        for tree, failed in (("parent", 0), ("change", r))
    ]
    runs.append({"run": 4, "workload": "socle@seed1", "tree": "change", "exit": 1, "metrics": {}})
    summary = bench.summarise(runs, ["parent", "change"])["socle@seed1"]
    assert (summary["parent"]["attempted"], summary["parent"]["failed"]) == (400, 0)
    assert summary["parent"]["fail_ratio"] == 0
    assert (summary["change"]["attempted"], summary["change"]["failed"]) == (400, 6)
    assert summary["change"]["fail_ratio"] == 6 / 400


def test_a_run_with_no_result_keeps_the_summary_of_the_rest():
    runs = [
        {"run": r, "workload": "semibrick@seed1", "tree": tree, "exit": 0,
         "attempted": 100, "failed": 0, "metrics": {"items_per_s": value, "peak_rss_mb": 40.0}}
        for r, value in enumerate(STEADY[:4])
        for tree in ("parent", "change")
    ]
    runs.append(
        {"run": 4, "workload": "semibrick@seed1", "tree": "change", "exit": 1, "metrics": {}}
    )
    summary = bench.summarise(runs, ["parent", "change"])["semibrick@seed1"]
    assert (summary["parent"]["no_result"], summary["change"]["no_result"]) == (0, 1)
    for tree in ("parent", "change"):
        assert summary[tree]["metrics"] == {
            "items_per_s": {"median": 101.5, "q1": 100.25, "q3": 102.75},
            "peak_rss_mb": {"median": 40.0, "q1": 40.0, "q3": 40.0},
        }
    assert summary["change_wins"]["items_per_s"] == "0/4"


def test_a_metric_reported_by_one_run_is_its_own_median():
    runs = [
        {"run": 0, "workload": "lattice@seed2", "tree": "change", "exit": 0,
         "attempted": 10, "failed": 0, "metrics": {"items_per_s": 7.0}},
        {"run": 1, "workload": "lattice@seed2", "tree": "change", "exit": 1, "metrics": {}},
    ]
    entry = bench.summarise(runs, ["change"])["lattice@seed2"]["change"]
    assert entry["no_result"] == 1
    assert entry["metrics"] == {"items_per_s": {"median": 7.0, "q1": 7.0, "q3": 7.0}}


def test_src_lines_counts_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "coxbrick"
    (package / "data").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n\nw = 4")  # no final newline, as `wc -l` counts
    (package / "data" / "c.py").write_text("skipped = True\n")
    (package / "notes.txt").write_text("skipped\n")
    assert bench.src_lines(tmp_path) == 4
