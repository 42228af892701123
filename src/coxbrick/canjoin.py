"""Formula-based canonical join representations.

A join-irreducible element is determined by its R-set, the window values
sitting strictly after the unique descent.  `jirr_from_R` inverts that
correspondence, and `decompose` produces, for each descent d of an arbitrary
element, the R-set R_d of the join-irreducible w_d appearing in the
canonical join representation w = join of the w_d.

The type-D R_d splits into two cases:

  (A)  a_d + b_d < 0 and w([1,|d|]) lies in +/-[a_d, n];
  (B)  otherwise,

with different interval formulas for each.  Each row also recomputes the
left-value set L(w_d) from its own closed form and checks it against the
reconstructed window, and checks that R(w_d) gives back R_d, so a formula
transcription error cannot pass silently.

The row of descent d depends on w only through d, a_d = w(d),
b_d = w(|d|+1) and the value set X = w([|d|+1, n]) (n+1 in type A): in
type D the absolute values of w([1,|d|]) are the complement of |X|.  One
row function, `_row`, takes exactly those arguments in both families: a
type-A window is a type-D one with n+1 positive values, whose rows are the
case-(B) rows.  `decompose` keeps each row in a table on the type, keyed
by (d, a, b, X), so a row is computed and checked once per key.  Both
sides of each check are functions of the key, so a check that passed once
would pass on every later element with that key: the table skips no check
that could fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from coxbrick.coxeter import (
    CoxeterElement,
    DynkinType,
    Family,
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


@dataclass(frozen=True, slots=True)
class DescentDatum:
    """Per-descent data of the canonical join representation of one element."""

    d: int
    a: int
    b: int
    case: str | None  # "A"/"B" for type D, None for type A
    r_values: frozenset[int]  # r_set(element), shared by every row of that w_d
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


def _datum(
    dynkin: DynkinType,
    d: int,
    a: int,
    b: int,
    case: str | None,
    r: set[int],
    expected_left: set[int],
) -> DescentDatum:
    """The row for R-set r, after both cross-checks on w_d = jirr_from_R(r):
    its left values must be `expected_left` and its R-set must be r."""
    wd = jirr_from_R(dynkin, r)
    if _left_values(wd) != expected_left:
        raise AssertionError(f"left-value cross-check failed at d={d}, a={a}, b={b}")
    r_values = r_set(wd)
    if r_values != r:
        raise AssertionError(f"R-set round trip failed at d={d}, a={a}, b={b}")
    return DescentDatum(d, a, b, case, r_values, wd)


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
    case = None if dynkin.family is Family.A else "A" if case_a else "B"
    return _datum(dynkin, d, a, b, case, r, expected_left)


def decompose(w: CoxeterElement) -> list[DescentDatum]:
    """Canonical join representation data, one row per descent (-1 first, then
    d ascending).

    Each row is looked up in the type's row table under (d, a, b, mask of
    X), the mask having bit v (type A) or v + n (type D) for each value v of
    X, and computed by `_row` on a miss; a row that raises is
    not stored.
    """
    dynkin, window = w.dynkin, w.window
    rows = dynkin.memo.get("cjr_rows")
    if rows is None:
        rows = dynkin.memo["cjr_rows"] = {}
    type_d = dynkin.family is Family.D
    shift = dynkin.rank if type_d else 0
    keys = []
    mask = 0
    for d in range(len(window) - 1, 0, -1):
        mask |= 1 << (window[d] + shift)  # the values window[d:]
        if window[d - 1] > window[d]:
            keys.append((d, window[d - 1], window[d], mask))
    if type_d and -window[0] > window[1]:
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
