#!/usr/bin/env python3
"""Run the verification sweeps of `coxbrick.verify` over a range of ranks.

The counts run up to A7/D6 (further with larger --max-a/--max-d), the
census on D5, canonical join representations from A4 and D4, and the
socle oracle and the semibrick sweep from A2 and D4, each up to
--max-a/--max-d, e.g.

    python scripts/run_verification.py --max-a 6 --max-d 5

Each (suite, type) prints one report line ending in its wall time; the last
line is ALL OK or FAILURES, with exit code 0 or 1.
"""

import argparse
import sys
import time

from coxbrick import verify
from coxbrick.coxeter import DynkinType, Family


def plan(max_a: int, max_d: int):
    """(suite, type) pairs in the order they run."""
    for family, lo, hi in [(Family.A, 2, max(max_a, 7)), (Family.D, 4, max(max_d, 6))]:
        for n in range(lo, hi + 1):
            yield "count", DynkinType(family, n)
    yield "census", DynkinType(Family.D, 5)
    for family, hi in [(Family.A, max_a), (Family.D, max_d)]:
        for n in range(4, hi + 1):
            yield "cjr", DynkinType(family, n)
    for suite in ("oracle", "semibrick"):
        for family, lo, hi in [(Family.A, 2, max_a), (Family.D, 4, max_d)]:
            for n in range(lo, hi + 1):
                yield suite, DynkinType(family, n)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-a", type=int, default=5)
    parser.add_argument("--max-d", type=int, default=5)
    args = parser.parse_args()
    start = time.perf_counter()
    ok = True
    for suite, dynkin in plan(args.max_a, args.max_d):
        began = time.perf_counter()
        if suite == "census":
            result = verify.census(dynkin, verify.default_fixture_lines())
        else:
            result = getattr(verify, suite)(dynkin)
        summary, *details = result.report()
        summary += f" in {time.perf_counter() - began:.2f}s"
        print(f"{suite} {dynkin}: " + "\n  ".join([summary, *details]))
        ok &= result.ok
    print(f"{'ALL OK' if ok else 'FAILURES'} in {time.perf_counter() - start:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
