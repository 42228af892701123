"""Formula-based canonical join representations.

A join-irreducible element is determined by its R-set, the window values
sitting strictly after the unique descent.  `jirr_from_R` inverts that
correspondence, and `decompose` produces, for each descent d of an arbitrary
element, the R-set R_d of the join-irreducible w_d appearing in the
canonical join representation w = join of the w_d.

The type-D R_d splits into two cases:

  (A)  a_d + b_d < 0 and w([1,|d|]) lies in +/-[a_d, n];
  (B)  otherwise,

with different interval formulas for each; `decompose` also recomputes the
left-value sets L(w_d) from their own closed forms and checks them against
the reconstructed windows, so a formula transcription error cannot pass
silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from coxbrick.coxeter import (
    CoxeterElement,
    DynkinType,
    Family,
    descents,
    join_irreducible_type,
    per_join_irreducible,
)


def interval(lo: int, hi: int) -> set[int]:
    """[lo, hi] as a set; empty when lo > hi (the convention used throughout)."""
    return set(range(lo, hi + 1))


def pm(values: set[int]) -> set[int]:
    return values | {-v for v in values}


@per_join_irreducible
def r_set(w: CoxeterElement) -> frozenset[int]:
    """R(w) = w([l+1, n+1]) (type A) or w([|l|+1, n]) (type D) for join-irreducible w.

    Memoised per join-irreducible; raises ValueError on any other element.
    """
    l = join_irreducible_type(w)
    if l is None:
        raise ValueError(f"{w} is not join-irreducible")
    return frozenset(w.window[abs(l):])


def jirr_from_R(dynkin: DynkinType, r_values: frozenset[int] | set[int]) -> CoxeterElement:
    """The unique join-irreducible element w with R(w) equal to the given set.

    Both blocks of the window are increasing, so the values after the descent
    are the given set in ascending order and the values before it are the
    complement in ascending order; in type D the sign of the leading entry is
    forced by the even-negatives constraint.  Raises ValueError when the
    resulting window does not have exactly one descent.  The result is
    memoised in `dynkin.memo`; a raising call stores nothing.
    """
    key = ("jirr", frozenset(r_values))
    if key in dynkin.memo:
        return dynkin.memo[key]
    n = dynkin.rank
    right = sorted(r_values)
    if dynkin.family is Family.A:
        if not (1 <= len(right) <= n and all(1 <= v <= n + 1 for v in right)):
            raise ValueError(f"not a valid type-A R-set: {sorted(r_values)}")
        if len(set(right)) != len(right):
            raise ValueError(f"repeated values in R-set: {sorted(r_values)}")
        left = sorted(set(range(1, n + 2)) - set(right))
        window = tuple(left + right)
    else:
        absolutes = [abs(v) for v in right]
        if not (1 <= len(right) <= n - 1 and all(1 <= a <= n for a in absolutes)):
            raise ValueError(f"not a valid type-D R-set: {sorted(r_values)}")
        if len(set(absolutes)) != len(absolutes):
            raise ValueError(f"repeated absolute values in R-set: {sorted(r_values)}")
        unused = sorted(set(range(1, n + 1)) - set(absolutes))
        negatives = sum(1 for v in right if v < 0)
        left = list(unused)
        if negatives % 2 == 1:
            left[0] = -left[0]
        window = tuple(left + right)
    w = CoxeterElement(dynkin, window)
    if join_irreducible_type(w) is None:
        raise ValueError(f"{sorted(r_values)} is not an R-set of any join-irreducible")
    dynkin.memo[key] = w
    return w


@dataclass(frozen=True)
class DescentDatum:
    """Per-descent data of the canonical join representation of one element."""

    d: int
    a: int
    b: int
    case: str | None  # "A"/"B" for type D, None for type A
    x_values: frozenset[int]
    r_values: frozenset[int]
    element: CoxeterElement  # the join-irreducible w_d


@per_join_irreducible
def _left_values(w: CoxeterElement) -> frozenset[int]:
    """Absolute window values before the unique descent (positions [1, |l|]).

    Memoised per join-irreducible; raises ValueError on any other element.
    """
    l = join_irreducible_type(w)
    if l is None:
        raise ValueError(f"{w} is not join-irreducible")
    return frozenset(abs(v) for v in w.window[: abs(l)])


def _decompose_a(w: CoxeterElement) -> list[DescentDatum]:
    n = w.dynkin.rank
    out = []
    for d in sorted(descents(w)):
        a, b = w(d), w(d + 1)
        x = set(w.window[d:])
        r = (interval(b, a - 1) & x) | interval(a + 1, n + 1)
        wd = jirr_from_R(w.dynkin, r)
        expected_left = interval(1, b - 1) | (interval(b + 1, a) - x)
        if _left_values(wd) != expected_left:
            raise AssertionError(f"left-value cross-check failed for {w} at d={d}")
        out.append(DescentDatum(d, a, b, None, frozenset(x), frozenset(r), wd))
    return out


def _decompose_d(w: CoxeterElement) -> list[DescentDatum]:
    n = w.dynkin.rank
    out = []
    for d in sorted(descents(w)):
        a, b = w(d), w(abs(d) + 1)
        x = set(w.window[abs(d):])
        neg_x = {-v for v in x}
        prefix = {w(k) for k in range(1, abs(d) + 1)}
        case_a = a + b < 0 and prefix <= pm(interval(a, n))
        if case_a:
            if a > 0:
                r = (
                    {-a}
                    | (pm(interval(1, a - 1)) & x)
                    | (interval(a + 1, -b - 1) - neg_x)
                    | interval(-b + 1, n)
                )
            else:
                r = (interval(-a, -b - 1) - neg_x) | interval(-b + 1, n)
        else:
            if a + b > 0:
                r = (interval(b, a - 1) & x) | interval(a + 1, n)
            else:
                r = (
                    (interval(b, a - 1) & x)
                    | (interval(a + 1, -b - 1) - neg_x)
                    | interval(-b + 1, n)
                )
        wd = jirr_from_R(w.dynkin, r)
        if case_a:
            if a > 0:
                expected_left = interval(a + 1, -b) & neg_x
            else:
                expected_left = interval(1, -a - 1) | (interval(-a + 1, -b) & neg_x)
        else:
            if b > 0:
                expected_left = interval(1, b - 1) | (interval(b + 1, a) - x)
            elif a + b > 0:
                expected_left = (interval(1, -b - 1) - pm(x)) | (interval(-b + 1, a) - x)
            else:
                expected_left = interval(1, a) - pm(x)
        if _left_values(wd) != expected_left:
            raise AssertionError(f"left-value cross-check failed for {w} at d={d}")
        out.append(
            DescentDatum(d, a, b, "A" if case_a else "B", frozenset(x), frozenset(r), wd)
        )
    return out


def decompose(w: CoxeterElement) -> list[DescentDatum]:
    """Canonical join representation data, one row per descent (d ascending)."""
    if w.dynkin.family is Family.A:
        return _decompose_a(w)
    return _decompose_d(w)


def cjr_direct(w: CoxeterElement) -> frozenset[CoxeterElement]:
    """The canonical join representation of w as a set of join-irreducibles."""
    return frozenset(row.element for row in decompose(w))
