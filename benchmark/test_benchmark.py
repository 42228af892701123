"""Self-tests of the benchmark on tiny ranks: run with `python3 -m pytest benchmark`."""

from __future__ import annotations

import dataclasses
import json

import pytest

import run
import tracing
import workloads
from coxbrick import bricks, canjoin, census, coxeter, grids, homs, quiver, semibricks
from coxbrick.coxeter import DynkinType, Family

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((run.HERE / "predictions.json").read_text())

TINY = {
    name: dataclasses.replace(spec, types=(("A", 3), ("D", 4)), batch_size=4, min_batches=2)
    for name, spec in workloads.WORKLOADS.items()
}


def bench(capsys, workload: str, trace: int, seed: int = 7) -> tuple[int, list[str], dict, str]:
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        specs=TINY,
    )
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    return code, lines, json.loads(lines[-1]), err


def digest_of(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("digest "))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_named_metric_is_printed_with_its_unit(capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, result, _ = bench(capsys, workload, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
        assert any(line.startswith("fail_ratio 0 ratio") for line in lines)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        tracing.per_layer_metrics()
    )
    assert set(PREDICTIONS["layers"]) == {layer.name for layer in tracing.LAYERS}
    assert set(PREDICTIONS["workloads"]) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_exactly_and_digests_agree(capsys, workload):
    _, traced_lines, first, _ = bench(capsys, workload, trace=1)
    _, _, second, _ = bench(capsys, workload, trace=1)
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    _, untraced_lines, _, _ = bench(capsys, workload, trace=0)
    assert digest_of(traced_lines) == digest_of(untraced_lines)


def test_same_seed_same_inputs_and_seed_changes_them():
    spec = TINY["semibrick"]
    assert spec.setup(1)[0] == spec.setup(1)[0]
    assert spec.setup(1)[0] != spec.setup(2)[0]


def test_batches_have_equal_make_up():
    items = workloads.population((("D", 4),), jirr_only=False)
    rank = {item: k for k, item in enumerate(items)}
    batches = workloads.stratified_batches(items, 16, seed=3)
    assert len(batches) == len(items) // 16 == 12
    for batch in batches:
        assert sorted(rank[item] // len(batches) for item in batch) == list(range(16))


@pytest.mark.parametrize("family,rank", [("A", 4), ("D", 4), ("D", 5)])
def test_own_combinatorics_match_the_program(family, rank):
    dynkin = DynkinType(Family(family), rank)
    own = list(workloads.windows(family, rank))
    assert len(own) == len(set(own)) == dynkin.group_order
    jirr = [w for w in own if len(workloads.descent_set(family, w)) == 1]
    assert len(jirr) == census.global_count(dynkin)
    for window in own[::7]:
        w = coxeter.CoxeterElement(dynkin, window)
        assert set(workloads.descent_set(family, window)) == coxeter.descents(w)
        assert workloads.coxeter_length(family, window) == coxeter.length(w)


def test_wrong_brick_rep_is_counted_not_raised(capsys, monkeypatch):
    def wrong_brick_rep(w):
        return quiver.simple_rep(quiver.double_quiver(w.dynkin), w.dynkin.vertices[-1])

    monkeypatch.setattr(bricks, "brick_rep", wrong_brick_rep)
    code, lines, result, err = bench(capsys, "socle", trace=0)
    assert code == 1 and not result["correct"]
    assert result["attempted"] == 2 * TINY["socle"].batch_size and result["failed"] > 0
    ratio = next(line for line in lines if line.startswith("fail_ratio "))
    assert float(ratio.split()[1]) > 0
    assert "failed: " in err


def test_tracer_restores_every_binding(capsys):
    originals = {
        "homs.hom_dim": homs.hom_dim,
        "semibricks.hom_dim": semibricks.hom_dim,
        "semibricks.decompose": semibricks.decompose,
        "grids.subrepresentation": grids.subrepresentation,
        "canjoin.decompose": canjoin.decompose,
        "check_relations": quiver.QuiverRepresentation.__dict__["check_relations"],
    }
    bench(capsys, "semibrick", trace=1)
    assert semibricks.hom_dim is originals["semibricks.hom_dim"] is originals["homs.hom_dim"]
    assert semibricks.decompose is originals["semibricks.decompose"] is originals["canjoin.decompose"]
    assert grids.subrepresentation is originals["grids.subrepresentation"]
    assert quiver.QuiverRepresentation.__dict__["check_relations"] is originals["check_relations"]


def test_traced_run_fails_when_an_expected_layer_is_silent(capsys, monkeypatch):
    expected = run.expected_layers("socle") + ["weak_order.join"]
    monkeypatch.setattr(run, "expected_layers", lambda workload: expected)
    code = run.main(["--workload", "socle", "--seed", "1", "--seconds", "0", "--trace", "1"], specs=TINY)
    assert code == 3
    out, err = capsys.readouterr()
    assert "weak_order.join" in err and '"correct"' not in out
