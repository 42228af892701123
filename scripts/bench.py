#!/usr/bin/env python3
"""Time the end-to-end workloads and write them to BENCH_<label>.json.

Two workloads are timed by wall clock, `RUNS` times each: the Tier-1 test
suite and `scripts/run_verification.py --max-a 6 --max-d 6`.  The three
benchmark workloads, `benchmark/run.py --workload W --seed S --seconds 35`
for each W in `BENCHMARKS` and S in `SEEDS`, run `PAIRS` times each and are
read from the JSON line each run ends with.  Every run is a subprocess in
each checkout named by --tree (default: this one, named `change`), with that
checkout's `src/` on PYTHONPATH.  Trees alternate run by run, the first
tree leading in even runs and the last in odd ones, so that drift on a
shared machine falls on each tree alike; run r of every tree makes pair r.
For example, to compare a parent commit unpacked next to this checkout:

    python3 scripts/bench.py --label my_change --tree parent=../parent --tree change=.

Each run records its exit code and either its wall time and last line of
output or its end-to-end metrics.  The summary holds, per workload and
tree, the median wall time, or the median and quartiles of each metric;
with two trees, each metric also has `wins`, the number of pairs in which
the second tree's value is better than the first's, in the direction
`BENCHMARK.json` gives.  The file is written at the root of this checkout
and never overwritten: an existing BENCH_<label>.json is an error, raised
before anything runs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "tier1": ["-m", "pytest", "-q", "--continue-on-collection-errors"],
    "verification": ["scripts/run_verification.py", "--max-a", "6", "--max-d", "6"],
}
RUNS = 3
BENCHMARKS = ("socle", "semibrick", "lattice")
SEEDS = (1, 2)
PAIRS = 10
SECONDS = 35


def benchmark_command(workload: str, seed: int) -> list[str]:
    return [
        "benchmark/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS),
    ]


def jobs() -> list[tuple[str, list[str], int, bool]]:
    """(name, command, runs, whether it is a benchmark run) of every workload."""
    out = [(name, command, RUNS, False) for name, command in WORKLOADS.items()]
    out += [
        (f"{workload}@seed{seed}", benchmark_command(workload, seed), PAIRS, True)
        for seed in SEEDS
        for workload in BENCHMARKS
    ]
    return out


def parse_tree(text: str) -> tuple[str, Path]:
    name, sep, path = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    tree = Path(path).resolve()
    if not (tree / "src" / "coxbrick").is_dir():
        raise argparse.ArgumentTypeError(f"no coxbrick sources under {tree}")
    return name, tree


def run_once(tree: Path, args: list[str], benchmark: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True
    )
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if not benchmark:
        return {"seconds": round(seconds, 3), "exit": proc.returncode, "last_line": last}
    try:
        metrics = {k: v["value"] for k, v in json.loads(last)["metrics"].items()}
    except (json.JSONDecodeError, KeyError, TypeError):
        metrics = {}
    return {"exit": proc.returncode, "metrics": metrics}


def summarise(runs: list[dict], trees: list[str]) -> dict:
    """Per workload and tree: wall-time median, or per-metric median and
    quartiles; with two trees, the second tree's wins per metric."""
    better = {
        m["name"]: m["better"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    by_job: dict = {}
    for x in runs:
        by_job.setdefault(x["workload"], {}).setdefault(x["tree"], []).append(x)
    summary: dict = {}
    for job, per_tree in by_job.items():
        out = summary[job] = {}
        for tree, xs in per_tree.items():
            entry = out[tree] = {"exits": [x["exit"] for x in xs]}
            if "seconds" in xs[0]:
                entry["runs_s"] = [x["seconds"] for x in xs]
                entry["median_s"] = round(statistics.median(entry["runs_s"]), 3)
                continue
            entry["metrics"] = {}
            for m in better:
                if all(m in x["metrics"] for x in xs):
                    q1, median, q3 = statistics.quantiles([x["metrics"][m] for x in xs], n=4)
                    entry["metrics"][m] = {"median": median, "q1": q1, "q3": q3}
        if len(trees) != 2 or "seconds" in per_tree[trees[0]][0]:
            continue
        first = {x["run"]: x["metrics"] for x in per_tree[trees[0]]}
        second = {x["run"]: x["metrics"] for x in per_tree[trees[1]]}
        wins = {}
        for m, direction in better.items():
            pairs = [(first[r][m], second[r][m]) for r in first if r in second
                     if m in first[r] and m in second[r]]
            sign = 1 if direction == "higher" else -1
            wins[m] = f"{sum(sign * (b - a) > 0 for a, b in pairs)}/{len(pairs)}"
        out[f"{trees[1]}_wins"] = wins
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--label", required=True)
    parser.add_argument("--tree", type=parse_tree, action="append", metavar="NAME=PATH")
    args = parser.parse_args()
    out = ROOT / f"BENCH_{args.label}.json"
    if out.exists():
        parser.error(f"{out.name} exists; choose another label")
    trees = args.tree or [("change", ROOT)]
    if len({name for name, _ in trees}) != len(trees):
        parser.error("tree names must differ")

    runs = []
    planned = jobs()
    for r in range(max(count for _, _, count, _ in planned)):
        for workload, command, count, benchmark in planned:
            if r >= count:
                continue
            for name, tree in trees if r % 2 == 0 else trees[::-1]:
                record = {"run": r, "workload": workload, "tree": name,
                          **run_once(tree, command, benchmark)}
                print(json.dumps(record), flush=True)
                runs.append(record)

    result = {
        "label": args.label,
        "what": "wall time and exit code of the Tier-1 suite and the verification run; "
        "end-to-end metrics of each benchmark workload and seed, in pairs across trees",
        "commands": {name: ["python3", *command] for name, command, _, _ in planned},
        "trees": [name for name, _ in trees],
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "system": f"{platform.system()} {platform.machine()}",
        },
        "runs": runs,
        "summary": summarise(runs, [name for name, _ in trees]),
    }
    with open(out, "x") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {out.name}")
    return 0 if all(x["exit"] == 0 for x in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
