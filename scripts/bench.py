#!/usr/bin/env python3
"""Time the two end-to-end workloads and write them to BENCH_<label>.json.

The workloads are the Tier-1 test suite and
`scripts/run_verification.py --max-a 6 --max-d 6`.  Each runs `RUNS` times
as a subprocess, in every checkout named by --tree (default: this one, named
`change`), with that checkout's `src/` on PYTHONPATH.  Trees alternate run
by run, the first tree leading in even runs and the last in odd ones, so
that drift on a shared machine falls on each tree alike.  For example, to
compare a parent commit unpacked next to this checkout:

    python3 scripts/bench.py --label my_change --tree parent=../parent --tree change=.

Each run records its wall time, exit code and last line of output; the file
also holds per-tree medians.  It is written at the root of this checkout
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


def parse_tree(text: str) -> tuple[str, Path]:
    name, sep, path = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    tree = Path(path).resolve()
    if not (tree / "src" / "coxbrick").is_dir():
        raise argparse.ArgumentTypeError(f"no coxbrick sources under {tree}")
    return name, tree


def run_once(tree: Path, args: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True
    )
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    return {"seconds": round(seconds, 3), "exit": proc.returncode, "last_line": last}


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
    for r in range(RUNS):
        for workload, command in WORKLOADS.items():
            for name, tree in trees if r % 2 == 0 else trees[::-1]:
                record = {"run": r, "workload": workload, "tree": name, **run_once(tree, command)}
                print(json.dumps(record), flush=True)
                runs.append(record)

    summary: dict = {}
    for x in runs:
        per_tree = summary.setdefault(x["workload"], {})
        entry = per_tree.setdefault(x["tree"], {"runs_s": [], "exits": []})
        entry["runs_s"].append(x["seconds"])
        entry["exits"].append(x["exit"])
    for per_tree in summary.values():
        for entry in per_tree.values():
            entry["median_s"] = round(statistics.median(entry["runs_s"]), 3)
    result = {
        "label": args.label,
        "what": "wall time and exit code of each end-to-end workload, run as a subprocess",
        "commands": {w: ["python3", *c] for w, c in WORKLOADS.items()},
        "trees": [name for name, _ in trees],
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "system": f"{platform.system()} {platform.machine()}",
        },
        "runs": runs,
        "summary": summary,
    }
    with open(out, "x") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {out.name}")
    return 0 if all(x["exit"] == 0 for x in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
