"""Command-line surface: inspect elements, build bricks, decompose, verify.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 capacity.
A reader that closes the output pipe early (`| head`) ends the run quietly
with 141, the status a shell reports for a process killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from coxbrick import census as census_mod
from coxbrick import verify
from coxbrick.bricks import (
    brick_diagram,
    diagram_to_json,
    render_diagram,
)
from coxbrick.canjoin import decompose
from coxbrick.coxeter import (
    DEFAULT_ENUMERATION_CAP,
    CapacityError,
    CoxeterElement,
    DynkinType,
    Family,
    descents,
    enumerate_group,
    format_window,
    join_irreducible_type,
    length,
    lower_covers,
    parse_window,
)
from coxbrick.semibricks import (
    render_semibrick,
    semibrick,
    semibrick_direct,
    semibrick_to_json,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_PIPE = 141  # 128 + SIGPIPE


def _dynkin(args: argparse.Namespace) -> DynkinType:
    return DynkinType(Family(args.type), args.rank)


def _element(args: argparse.Namespace) -> CoxeterElement:
    return parse_window(_dynkin(args), args.window)


def element_to_json(w: CoxeterElement) -> dict:
    return {
        "family": w.dynkin.family.value,
        "rank": w.dynkin.rank,
        "window": list(w.window),
        "length": length(w),
        "descents": sorted(descents(w)),
        "jirr_type": join_irreducible_type(w),
    }


def cmd_element(args: argparse.Namespace) -> int:
    w = _element(args)
    if args.format == "json":
        print(json.dumps(element_to_json(w), sort_keys=True))
        return EXIT_OK
    des = sorted(descents(w))
    print(f"window: {w}")
    print(f"type: {w.dynkin}")
    print(f"length: {length(w)}")
    print("descents: " + (",".join(map(str, des)) if des else "none"))
    l = join_irreducible_type(w)
    if l is not None:
        print(f"jirr of type {l}")
        if w.dynkin.family is Family.D:
            print(f"sigma: {census_mod.sigma(w)}")
            print("chi: " + ",".join(map(str, census_mod.chi(w))))
    return EXIT_OK


def _dot(name: str, nodes, edges) -> str:
    """A DOT digraph named `name` with the given nodes and (tail, head) edges."""
    lines = [f'digraph "{name}" {{', *(f'  "{x}";' for x in nodes)]
    lines += [f'  "{x}" -> "{y}";' for x, y in edges]
    return "\n".join(lines + ["}"])


def cmd_brick(args: argparse.Namespace) -> int:
    w = _element(args)
    if join_irreducible_type(w) is None:
        raise ValueError(f"{w} is not join-irreducible; use the semibrick command")
    diag = brick_diagram(w)
    if args.format == "json":
        print(json.dumps(diagram_to_json(diag), sort_keys=True))
    elif args.format == "dot":
        print(_dot(f"S({w})", sorted(diag.symbols), sorted(diag.arrows)))
    else:
        print(render_diagram(diag))
    return EXIT_OK


def cmd_semibrick(args: argparse.Namespace) -> int:
    w = _element(args)
    s = semibrick_direct(w) if args.direct else semibrick(w)
    if args.format == "json":
        print(json.dumps(semibrick_to_json(s), sort_keys=True))
    else:
        out = render_semibrick(s)
        print(out if out else "(empty semibrick)")
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    w = _element(args)
    rows = decompose(w)
    if args.format == "json":
        payload = [
            {
                "d": row.d,
                "a": row.a,
                "b": row.b,
                "case": row.case,
                "R": sorted(row.r_values),
                "window": list(row.element.window),
            }
            for row in rows
        ]
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    if not rows:
        print("(identity: empty canonical join representation)")
        return EXIT_OK
    for row in rows:
        r_text = "{" + ",".join(str(x) for x in sorted(row.r_values)) + "}"
        case = f" case={row.case}" if row.case else ""
        print(
            f"d={row.d} a={row.a} b={row.b}{case} R={r_text} "
            f"w={format_window(row.element.window)}"
        )
    return EXIT_OK


def _report(result: verify.SweepResult, prefix: str = "") -> int:
    print(prefix + "\n".join(result.report()))
    return EXIT_OK if result.ok else EXIT_VERIFY


def _cap(args: argparse.Namespace) -> int:
    if args.cap is None:
        return DEFAULT_ENUMERATION_CAP
    if args.cap < 1:
        raise ValueError(f"--cap must be 1 or more, got {args.cap}")
    return args.cap


def _census_type(args: argparse.Namespace) -> DynkinType:
    dynkin = _dynkin(args)
    if dynkin.family is not Family.D:
        raise ValueError("the census is defined for type D only")
    return dynkin


def _read_fixture(path: str) -> list[str]:
    try:
        with open(path) as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read fixture {path}: {exc.strerror}") from None


def _check_census(args: argparse.Namespace) -> int:
    dynkin = _census_type(args)
    if args.fixture:
        fixture = _read_fixture(args.fixture)
    elif dynkin.rank == 5:
        fixture = verify.default_fixture_lines()
    else:
        raise ValueError("only rank 5 has a packaged fixture; pass --fixture")
    return _report(verify.census(dynkin, fixture), prefix=f"census {dynkin}: ")


def cmd_census(args: argparse.Namespace) -> int:
    for line in census_mod.census_lines(census_mod.census(_census_type(args))):
        print(line)
    return EXIT_OK


def cmd_hasse(args: argparse.Namespace) -> int:
    dynkin = _dynkin(args)
    elements = enumerate_group(dynkin, cap=_cap(args))
    # elements run by window, so the edges come sorted by (upper, lower) window
    edges = ((w, lower) for w in elements for lower in lower_covers(w))
    if args.format == "dot":
        print(_dot(str(dynkin), elements, edges))
    else:
        for upper, lower in edges:  # printed as they come: no edge list is kept
            print(f"{upper} -> {lower}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # the optional flags each suite reads; passing any other is an input error
    reads = {
        "oracle": ("sample", "seed"),
        "cjr": ("sample", "seed", "cap"),
        "semibrick": ("sample", "seed", "cap"),
        "count": ("cap",),
        "census": ("fixture",),
    }[args.suite]
    for flag in ("sample", "seed", "fixture", "cap"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"--{flag} does not apply to --suite {args.suite}")
    if args.suite == "count":
        return _report(verify.count(_dynkin(args), cap=_cap(args)))
    if args.suite == "census":
        return _check_census(args)
    if args.sample is not None and args.sample < 0:
        raise ValueError(f"--sample must be 0 or more, got {args.sample}")
    if args.seed is not None and not args.sample:
        raise ValueError("--seed does not apply without --sample")
    dynkin = _dynkin(args)
    options = {"sample_size": args.sample or 0, "seed": args.seed or 0}
    if "cap" in reads:
        options["cap"] = _cap(args)
    return _report(getattr(verify, args.suite)(dynkin, **options))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxbrick",
        description="Bricks and semibricks over preprojective algebras of types A and D.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, window: bool = False) -> None:
        p.add_argument("--type", required=True, choices=["A", "D"])
        p.add_argument("--rank", required=True, type=int)
        if window:
            p.add_argument("--window", required=True, help="comma-separated window")

    p = sub.add_parser("element", help="inspect one element")
    common(p, window=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_element)

    p = sub.add_parser("brick", help="brick of a join-irreducible element")
    common(p, window=True)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(func=cmd_brick)

    p = sub.add_parser("semibrick", help="semibrick of an arbitrary element")
    common(p, window=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--direct", action="store_true", help="use the direct formulas")
    p.set_defaults(func=cmd_semibrick)

    p = sub.add_parser("decompose", help="canonical join representation table")
    common(p, window=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("census", help="type-D shape census")
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("hasse", help="Hasse diagram of the weak order")
    common(p)
    p.add_argument("--format", choices=["text", "dot"], default="dot")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("verify", help="run a verification sweep")
    common(p)
    p.add_argument(
        "--suite",
        required=True,
        choices=["oracle", "cjr", "semibrick", "count", "census"],
    )
    p.add_argument("--sample", type=int, help="sample size (0 = all)")
    p.add_argument("--seed", type=int, help="seed of the --sample draw (default 0)")
    p.add_argument("--fixture", help="census fixture override")
    p.set_defaults(func=cmd_verify)
    for name in ("hasse", "verify"):  # the subcommands that enumerate
        sub.choices[name].add_argument("--cap", type=int, help="enumeration cap")
    return parser


def _merge_window_flag(argv: list[str]) -> list[str]:
    """Join `--window VALUE` into one token so windows starting with a
    negative entry (e.g. -1,2,...) are not mistaken for flags."""
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--window" and i + 1 < len(argv):
            out.append(f"--window={argv[i + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_window_flag(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the input-error code
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the final flush at exit would fail again: send it to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
