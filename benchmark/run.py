#!/usr/bin/env python3
"""coxbrick benchmark: seeded verification sweeps, timed end to end or traced per layer.

    python3 benchmark/run.py --workload socle --seed 1 --seconds 35 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 35

One process runs one workload (`all` runs each in a child process, one at a
time).  It imports coxbrick from the `src/` tree next to this directory and
exits with an error, printing no result, when that tree is missing.

Untraced (`--trace 0`): set-up is timed several times (`SETUP_REPEATS`) and
its median reported; then batches run until `--seconds` have passed (at least the
workload's `min_batches`, at most its whole population).  `items_per_s` is
the median over batches of items per second of batch wall time; latency
percentiles are over every item checked.  The last line of output is the
JSON result with the end-to-end metrics.

Traced (`--trace 1`): set-up runs once, then exactly `min_batches` batches
run with every layer wrapped (see `tracing.py`), then the same batches run
again untraced.  Both passes must give the same output digest; the ratio of
their throughputs is the tracing overhead.  Counts therefore repeat exactly
for a seed.  Spans are written to `benchmark/out/`.  The run fails if a
layer that `predictions.json` expects on the workload records no span.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs at least 3 times, and up to 9 while under 2 s in total; its median counts.
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 2.0
MAX_FAILURES_SHOWN = 5

# (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
)


def load_program() -> float:
    """Put the source tree on the path and import it; return the import time."""
    src = ROOT / "src"
    if not (src / "coxbrick" / "__init__.py").is_file():
        raise SystemExit(f"error: no coxbrick sources under {src}")
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    t0 = time.perf_counter()
    import tracing  # noqa: F401  (imports coxbrick)
    import workloads  # noqa: F401

    return time.perf_counter() - t0


def run_batch(spec, batch, context, tracer, first_item: int):
    """Check every item; return (seconds, per-item seconds, outputs, failures).

    A failed or raising check is counted and reported, never raised.
    """
    latencies, outputs, failures = [], [], []
    start = time.perf_counter()
    for k, item in enumerate(batch):
        if tracer is not None:
            tracer.item = first_item + k
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.item") if tracer else contextlib.nullcontext():
                ok, out = spec.check(context, item)
            reason = "outputs disagree"
        except Exception as exc:  # a crash in one item is that item's failure
            ok, out, reason = False, None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        outputs.append(out if ok else None)
        if not ok:
            failures.append((item, reason))
    return time.perf_counter() - start, latencies, outputs, failures


def update_digest(digest, spec, batch, outputs) -> None:
    """One canonical JSON line per item: type, window, output (or FAILED)."""
    for (dynkin, window), out in zip(batch, outputs):
        canonical = spec.canonical(out) if out is not None else "FAILED"
        line = json.dumps([str(dynkin), list(window), canonical], sort_keys=True, separators=(",", ":"))
        digest.update(line.encode() + b"\n")


def report_failures(failures) -> None:
    for (dynkin, window), reason in failures[:MAX_FAILURES_SHOWN]:
        print(f"failed: {dynkin} window {','.join(map(str, window))}: {reason}", file=sys.stderr)
    if len(failures) > MAX_FAILURES_SHOWN:
        print(f"... and {len(failures) - MAX_FAILURES_SHOWN} more failures", file=sys.stderr)


def run_untraced(spec, seed: int, seconds: float, import_s: float) -> dict:
    setup_times = []
    while len(setup_times) < SETUP_REPEATS[0] or (
        len(setup_times) < SETUP_REPEATS[1] and sum(setup_times) < SETUP_BUDGET_S
    ):
        batches = context = None  # free the last repeat's set-up so peak RSS holds one
        t0 = time.perf_counter()
        batches, context = spec.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    digest = hashlib.sha256()
    rates, latencies, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    for k, batch in enumerate(batches):
        if k >= spec.min_batches and time.perf_counter() - start >= seconds:
            break
        secs, lat, outputs, fails = run_batch(spec, batch, context, None, attempted)
        rates.append(len(batch) / secs)
        latencies += lat
        failures += fails
        attempted += len(batch)
        if k < spec.min_batches:
            update_digest(digest, spec, batch, outputs)
    report_failures(failures)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "items_per_s": statistics.median(rates),
        "item_ms_p50": 1000 * statistics.median(latencies),
        "item_ms_p90": 1000 * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "attempted": attempted,
        "failed": len(failures),
        "batches": len(rates),
        "digest": digest.hexdigest(),
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END},
        "problems": [],
    }


def expected_layers(workload: str) -> list[str]:
    """Layers that `predictions.json` says must record spans on this workload."""
    predictions = json.loads((HERE / "predictions.json").read_text())
    return [name for name, entry in predictions["layers"].items() if workload in entry["spans_on"]]


def run_traced(spec, seed: int) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            batches, context = spec.setup(seed)
        batches = batches[: spec.min_batches]
        traced, first = [], 0
        for batch in batches:
            traced.append(run_batch(spec, batch, context, tracer, first))
            first += len(batch)
    finally:
        tracer.uninstall()
    untraced = [run_batch(spec, batch, context, None, 0) for batch in batches]

    digests = []
    for passes in (traced, untraced):
        digest = hashlib.sha256()
        for batch, (_secs, _lat, outputs, _fails) in zip(batches, passes):
            update_digest(digest, spec, batch, outputs)
        digests.append(digest.hexdigest())
    failures = [f for _secs, _lat, _outs, fails in traced for f in fails]
    report_failures(failures)
    problems = []
    if digests[0] != digests[1]:
        problems.append(f"traced digest {digests[0]} != untraced digest {digests[1]}")

    overhead = sum(r[0] for r in untraced) / sum(r[0] for r in traced)
    values = tracer.metrics(overhead)
    units = {name: unit for name, unit, _better in tracing.per_layer_metrics()}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{spec.name}-{seed}.json")

    calls = tracer.calls()
    missing = [layer for layer in expected_layers(spec.name) if calls.get(layer, 0) == 0]
    return {
        "attempted": first,
        "failed": len(failures) + len(problems),
        "batches": len(batches),
        "digest": digests[0],
        "metrics": {name: (values[name], units[name]) for name in units},
        "problems": problems,
        "missing_layers": missing,
    }


def run_all(args) -> int:
    """Each workload in its own child process, one at a time; a summary at the end."""
    import workloads

    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {child.returncode})", file=sys.stderr)
            status = 1
            continue
        status = status or child.returncode
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update((f"{name}.{k}", v) for k, v in result["metrics"].items())
    print(json.dumps({"correct": failed == 0 and status == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv: list[str] | None = None, specs: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = load_program()
    import workloads

    specs = specs or workloads.WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in specs:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(specs)} or all")
    spec = specs[args.workload]

    if args.trace:
        result = run_traced(spec, args.seed)
    else:
        result = run_untraced(spec, args.seed, args.seconds, import_s)
    for problem in result["problems"]:
        print(f"error: {problem}", file=sys.stderr)
    if result.get("missing_layers"):
        print(
            f"error: no spans on {spec.name} for layers: {', '.join(result['missing_layers'])}",
            file=sys.stderr,
        )
        return 3

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {spec.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} items in {result['batches']} batches")
    print(f"digest sha256:{result['digest']}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
