"""Shape and character invariants of type-D join-irreducibles, plus counting.

Each type-D join-irreducible w gets a shape sigma(w) = (a, b, r') and a
character chi(w) in {0,1,2}^n reading off, for every i, whether neither of
+-i, only -i, or +i lies in R(w).  chi is injective, the fibre of each
feasible shape has an explicit product structure, and summing the per-shape
counts recovers the closed-form count of join-irreducibles.  `census`
reproduces the full rank-5 list and is diffed against a fixture file.
"""

from __future__ import annotations

from dataclasses import dataclass

from coxbrick.bricks import BrickDiagram, arrow_sort_key, brick_diagram
from coxbrick.canjoin import join_irreducibles
from coxbrick.coxeter import (
    CoxeterElement,
    DynkinType,
    Family,
    format_window,
    per_join_irreducible,
)


@dataclass(frozen=True, order=True)
class ShapeSigma:
    a: int
    b: int
    rp: int

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.rp}"


@per_join_irreducible
def sigma(w: CoxeterElement) -> ShapeSigma:
    """Shape (a, b, r') with r' = 0 when b >= -1 and min(r, |b|-1) otherwise.

    Memoised per join-irreducible; raises ValueError on any other element.
    """
    d = brick_diagram(w)
    rp = 0 if d.b >= -1 else min(d.r, abs(d.b) - 1)
    return ShapeSigma(d.a, d.b, rp)


def chi_values(r_values: frozenset[int] | set[int], n: int) -> tuple[int, ...]:
    """Character of an R-set: per i, 0 if neither of +-i lies in it, 1 if -i
    does, 2 if +i does."""
    out = []
    for i in range(1, n + 1):
        if i in r_values:
            out.append(2)
        elif -i in r_values:
            out.append(1)
        else:
            out.append(0)
    return tuple(out)


@per_join_irreducible
def chi(w: CoxeterElement) -> tuple[int, ...]:
    """Character of R(w), memoised per join-irreducible; raises ValueError on
    any other element."""
    return chi_values(brick_diagram(w).r_values, w.dynkin.rank)


def feasible(shape: ShapeSigma, n: int) -> bool:
    a, b, rp = shape.a, shape.b, shape.rp
    if not (2 <= a <= n):
        return False
    if -1 <= b < a and b != 0:
        return rp == 0
    if -a < b <= -2:
        return 0 <= rp <= abs(b) - 1
    if -n <= b < -a:
        return 0 <= rp <= a - 2
    return False


def shape_count(shape: ShapeSigma, n: int) -> int:
    """Number of join-irreducibles of the given shape in D_n."""
    if not feasible(shape, n):
        raise ValueError(f"infeasible shape {shape} for rank {n}")
    a, b, rp = shape.a, shape.b, shape.rp
    x, y = max(a, abs(b)), min(a, abs(b))
    if b >= -1:
        return 2 ** (x - y - 1)
    return 2**rp * 3 ** max(y - rp - 2, 0) * 2 ** (x - y - 1)


def feasible_shapes(n: int) -> list[ShapeSigma]:
    out = []
    for a in range(2, n + 1):
        for b in range(-n, a):
            if b == 0:
                continue
            for rp in range(0, n):
                s = ShapeSigma(a, b, rp)
                if feasible(s, n):
                    out.append(s)
    return sorted(out)


def global_count(dynkin: DynkinType) -> int:
    """Closed-form count of join-irreducibles (= bricks)."""
    n = dynkin.rank
    if dynkin.family is Family.A:
        return 2 ** (n + 1) - n - 2
    return 3**n - n * 2 ** (n - 1) - n - 1


def census(dynkin: DynkinType) -> dict[ShapeSigma, list[tuple[CoxeterElement, BrickDiagram]]]:
    """All type-D join-irreducibles grouped by shape, at any rank: they come
    from their R-sets (`canjoin.join_irreducibles`), not from enumeration.

    Shapes are ordered (a, b, r') ascending and entries within a shape by
    chi in lexicographic order, matching the reference list.
    """
    if dynkin.family is not Family.D:
        raise ValueError("the shape census is defined for type D only")
    groups: dict[ShapeSigma, list] = {s: [] for s in feasible_shapes(dynkin.rank)}
    for w in join_irreducibles(dynkin):
        groups[sigma(w)].append(w)
    return {s: [(w, brick_diagram(w)) for w in sorted(groups[s], key=chi)] for s in groups}


# --- fixture format --------------------------------------------------------
#
# One record per line:
#   sigma=a,b,r' window=... symbols=... arrows=s>t;s>t;...
# with symbols ascending and arrows sorted; the D5 reference list ships as
# package data in data/d5_census.txt.


def census_record(shape: ShapeSigma, w: CoxeterElement, diag: BrickDiagram) -> str:
    symbols = ",".join(str(s) for s in sorted(diag.symbols))
    arrows = ";".join(
        f"{s}>{t}" for s, t in sorted(diag.arrows, key=arrow_sort_key)
    )
    return f"sigma={shape} window={format_window(w.window)} symbols={symbols} arrows={arrows}"


def census_lines(groups: dict[ShapeSigma, list]) -> list[str]:
    lines = []
    for shape, entries in groups.items():
        for w, diag in entries:
            lines.append(census_record(shape, w, diag))
    return lines


_FIELD_PARSERS = {
    "sigma": lambda v: ShapeSigma(*(int(x) for x in v.split(","))),
    "window": lambda v: tuple(int(x) for x in v.split(",")),
    "symbols": lambda v: frozenset(int(x) for x in v.split(",")),
    "arrows": lambda v: frozenset(
        (int(s), int(t)) for s, t in (edge.split(">") for edge in v.split(";") if edge)
    ),
}


def parse_census_line(line: str) -> dict:
    """The four fields of one record; ValueError naming the field and quoting
    the line when a field is missing or malformed."""
    fields = {}
    for part in line.split():
        key, _, value = part.partition("=")
        fields[key] = value
    missing = [f"{key}=" for key in _FIELD_PARSERS if key not in fields]
    if missing:
        raise ValueError(f"census line lacks {' '.join(missing)}: {line!r}")
    record = {}
    for key, parse in _FIELD_PARSERS.items():
        try:
            record[key] = parse(fields[key])
        except (TypeError, ValueError):
            raise ValueError(f"census line has a malformed {key}=: {line!r}") from None
    return record


def census_diff(groups: dict[ShapeSigma, list], fixture_lines: list[str]) -> list[str]:
    """Mismatch messages between a generated census and a fixture; empty = match."""
    problems = []
    expected = [parse_census_line(line) for line in fixture_lines if line.strip()]
    generated = [parse_census_line(line) for line in census_lines(groups)]
    if len(expected) != len(generated):
        problems.append(f"entry count {len(generated)} != fixture {len(expected)}")
    by_window = {rec["window"]: rec for rec in expected}
    for rec in generated:
        exp = by_window.get(rec["window"])
        if exp is None:
            problems.append(f"window {rec['window']} not in fixture")
            continue
        for key in ("sigma", "symbols", "arrows"):
            if rec[key] != exp[key]:
                problems.append(
                    f"window {rec['window']}: {key} mismatch: "
                    f"got {rec[key]}, fixture {exp[key]}"
                )
    order = [rec["window"] for rec in generated]
    fixture_order = [rec["window"] for rec in expected]
    if not problems and order != fixture_order:
        problems.append("entry order differs from fixture")
    return problems
