"""Formula-based canonical join representations.

A join-irreducible element is determined by its R-set, the window values
sitting strictly after the unique descent.  `jirr_from_R` inverts that
correspondence, `join_irreducibles` finds every join-irreducible through it
without enumerating the group, and `decompose` produces, for each descent d
of an arbitrary element, the R-set R_d of the join-irreducible w_d in the
canonical join representation w = join of the w_d.

The type-D R_d splits into two cases:

  (A)  a_d + b_d < 0 and w([1,|d|]) lies in +/-[a_d, n];
  (B)  otherwise,

with different interval formulas for each.  Each row builds w_d from R_d
by `jirr_from_R` and checks the left-value set L(w_d), computed from its own
closed form, against the absolute values of w_d's window before its R
block, so a formula transcription error cannot pass silently.  R(w_d) is
R_d by construction: `jirr_from_R` writes sorted R_d after the increasing
complement of |R_d|, so the one descent it requires ends that left block.

Type A is the all-positive slice of type D (an A_n window is a D_{n+1}
window with positive values), so each function has one body over the window
size n, in which only type D lets values carry signs.  The row of descent d
depends on w only through d, a_d = w(d), b_d = w(|d|+1) and the value set
X = w([|d|+1, n]): the absolute values of w([1,|d|]) are the complement of
|X|.  One row function, `_row`, takes exactly those arguments; a type-A row
is a case-(B) row.  `decompose` keeps each row in a table on the type, keyed
by (d, a, b, X), so a row is computed and checked once per key.  Both
sides of each check are functions of the key, so a check that passed once
would pass on every later element with that key: the table skips no check
that could fail.
"""

from __future__ import annotations

import itertools
from contextlib import suppress
from dataclasses import dataclass

from coxbrick.coxeter import (
    CoxeterElement,
    DynkinType,
    Family,
    join_irreducible_type,
    per_join_irreducible,
    unique_descent,
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
    return frozenset(w.window[abs(unique_descent(w)):])


def jirr_from_R(dynkin: DynkinType, r_values: frozenset[int] | set[int]) -> CoxeterElement:
    """The unique join-irreducible element w with R(w) equal to the given set.

    Both blocks of the window are increasing, so the values after the descent
    are the given set in ascending order and the values before it are the
    complement of their absolute values in ascending order, the leading
    entry negated when R holds an odd number of negative values (type D
    only).  Raises ValueError unless the set holds 1 to n-1 values with
    distinct absolute values in [1, n], n the window size (all positive in
    type A), and the resulting window has exactly one descent.  The result
    is memoised in `dynkin.memo`; a raising call stores nothing.
    """
    key = ("jirr", frozenset(r_values))
    if key in dynkin.memo:
        return dynkin.memo[key]
    n = dynkin.window_size
    right = sorted(r_values)
    absolutes = {abs(v) for v in right}
    signed = dynkin.family is Family.D
    in_range = absolutes <= set(range(1, n + 1)) and (signed or all(v > 0 for v in right))
    if not (1 <= len(right) < n and in_range):
        raise ValueError(f"not a valid type-{dynkin.family.value} R-set: {right}")
    if len(absolutes) != len(right):
        raise ValueError(f"repeated absolute values in R-set: {right}")
    left = sorted(set(range(1, n + 1)) - absolutes)
    if sum(1 for v in right if v < 0) % 2:
        left[0] = -left[0]
    w = CoxeterElement(dynkin, tuple(left + right))
    if join_irreducible_type(w) is None:
        raise ValueError(f"{right} is not an R-set of any join-irreducible")
    dynkin.memo[key] = w
    return w


def join_irreducibles(dynkin: DynkinType) -> tuple[CoxeterElement, ...]:
    """The join-irreducibles ordered by window: `jirr_from_R` keeps the R-sets
    among all sets of 1 to n-1 values of distinct absolute values in [1, n]."""
    n = dynkin.window_size
    signs = (1, -1) if dynkin.family is Family.D else (1,)
    out = []
    for k in range(1, n):
        for absolutes in itertools.combinations(range(1, n + 1), k):
            for chosen in itertools.product(signs, repeat=k):
                with suppress(ValueError):  # raised unless an R-set
                    out.append(jirr_from_R(dynkin, {s * v for s, v in zip(chosen, absolutes)}))
    return tuple(sorted(out))


@dataclass(frozen=True, slots=True)
class DescentDatum:
    """Per-descent data of the canonical join representation of one element."""

    d: int
    a: int
    b: int
    case: str | None  # "A"/"B" for type D, None for type A
    r_values: frozenset[int]  # r_set(element), shared by every row of that w_d
    element: CoxeterElement  # the join-irreducible w_d


def _row(dynkin: DynkinType, d: int, a: int, b: int, x: set[int]) -> DescentDatum:
    """The row of the descent d with a = w(d), b = w(|d|+1), x = w([|d|+1, n]),
    n the window size.

    The absolute values of the prefix w([1, |d|]) are the complement of |x|,
    and membership in +/-[a, n] depends on the absolute value alone, so the
    case-(A) test needs nothing of w beyond x.  A type-A row (all values
    positive) takes the case-(B) formulas and keeps case None.
    """
    n = dynkin.window_size
    neg_x = {-v for v in x}
    prefix_abs = interval(1, n) - {abs(v) for v in x}
    case_a = a + b < 0 and prefix_abs <= pm(interval(a, n))
    if case_a:
        if a > 0:
            r = (
                {-a}
                | (pm(interval(1, a - 1)) & x)
                | (interval(a + 1, -b - 1) - neg_x)
                | interval(-b + 1, n)
            )
            expected_left = interval(a + 1, -b) & neg_x
        else:
            r = (interval(-a, -b - 1) - neg_x) | interval(-b + 1, n)
            expected_left = interval(1, -a - 1) | (interval(-a + 1, -b) & neg_x)
    else:
        if a + b > 0:
            r = (interval(b, a - 1) & x) | interval(a + 1, n)
        else:
            r = (
                (interval(b, a - 1) & x)
                | (interval(a + 1, -b - 1) - neg_x)
                | interval(-b + 1, n)
            )
        if b > 0:
            expected_left = interval(1, b - 1) | (interval(b + 1, a) - x)
        elif a + b > 0:
            expected_left = (interval(1, -b - 1) - pm(x)) | (interval(-b + 1, a) - x)
        else:
            expected_left = interval(1, a) - pm(x)
    wd = jirr_from_R(dynkin, r)
    if {abs(v) for v in wd.window[: -len(r)]} != expected_left:
        raise AssertionError(f"left-value cross-check failed at d={d}, a={a}, b={b}")
    case = None if dynkin.family is Family.A else "A" if case_a else "B"
    return DescentDatum(d, a, b, case, r_set(wd), wd)


def decompose(w: CoxeterElement) -> list[DescentDatum]:
    """Canonical join representation data, one row per descent (-1 first, then
    d ascending).

    Each row is looked up in the type's row table under (d, a, b, mask of
    X), the mask having bit v + n (n the rank) for each value v of X, and
    computed by `_row` on a miss; a row that raises is not stored.  The
    descent -1 (-w(1) > w(2)) never occurs on a positive window.
    """
    dynkin, window = w.dynkin, w.window
    rows = dynkin.memo.get("cjr_rows")
    if rows is None:
        rows = dynkin.memo["cjr_rows"] = {}
    shift = dynkin.rank
    keys = []
    mask = 0
    for d in range(len(window) - 1, 0, -1):
        mask |= 1 << (window[d] + shift)  # the values window[d:]
        if window[d - 1] > window[d]:
            keys.append((d, window[d - 1], window[d], mask))
    if -window[0] > window[1]:
        keys.append((-1, -window[0], window[1], mask))
    keys.reverse()
    out = []
    for key in keys:
        row = rows.get(key)
        if row is None:
            d, a, b, _ = key
            try:
                row = rows[key] = _row(dynkin, d, a, b, set(window[abs(d) :]))
            except AssertionError as err:
                raise AssertionError(f"{err} (element {w})") from None
        out.append(row)
    return out


def cjr_direct(w: CoxeterElement) -> frozenset[CoxeterElement]:
    """The canonical join representation of w as a set of join-irreducibles."""
    return frozenset(row.element for row in decompose(w))
