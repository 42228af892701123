"""Exact linear algebra over the rationals, on sparse rows.

A matrix is a tuple of sparse rows: dicts {column: value} that hold only the
nonzero entries, so a row's length is not stored and the column count comes
from the caller (for a representation, from its dimension vector).  Values
are Python `int`, or `fractions.Fraction` where a value is not integral.
The representations and Hom systems of this package are mostly zeros with
0/+-1 coefficients, so `rref` keeps values `int` while every pivot met is
+-1 and promotes to `Fraction` only when a pivot is not.  Arithmetic is exact
throughout; there are no tolerances.  Dense matrices appear only at the JSON
boundary (`sparse` reads one).

Most rows of a Hom system read x_a = 0 or x_a = +-x_b, so `nullspace`
presolves them before elimination: it zeroes the unknowns of one-term rows,
merges the two unknowns of each two-term row with equal or opposite
coefficients into one signed class, and hands `rref` only the remaining
rows, rewritten on one column per class.  The basis it returns is still the
RREF's entry for entry, because that basis is the only one whose vectors
each have their own largest column, 1 there and 0 at the others', and the
presolve keys each class by its largest column.
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, "int | Fraction"]  # sparse row: column -> nonzero value
Mat = tuple[Row, ...]  # sparse matrix: one row per row

ONE = Fraction(1)


def integral(x):
    """`x` as an `int` when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def sparse(a) -> list[Row]:
    """Sparse rows of a dense matrix; integral entries become `int`."""
    return [{c: integral(x) for c, x in enumerate(row) if x} for row in a]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product a * b of sparse matrices, row by row of `a`."""
    out = []
    nb = len(b)
    for row in a:
        acc: Row = {}
        for k, x in row.items():
            if k >= nb:
                raise ValueError(f"shape mismatch: column {k} times {nb} rows")
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: z for j, z in acc.items() if z})
    return tuple(out)


def subtract_multiple(target: Row, f, row: Row) -> None:
    """target -= f * row, in place, keeping only nonzero entries."""
    for k, x in row.items():
        y = target.get(k, 0) - f * x
        if y:
            target[k] = y
        else:
            del target[k]


def rref(rows: list[Row]) -> tuple[list[Row], tuple[int, ...]]:
    """Reduced row echelon form of sparse rows, and its pivot columns.

    Each row in turn is reduced by the pivot rows found so far; its smallest
    remaining column becomes a new pivot, which is then cleared from the
    earlier pivot rows.  Every pivot so chosen leads some vector of the row
    space, so the pivots are exactly the RREF's and the result is the unique
    RREF: its nonzero rows in pivot order, each with a 1 at its pivot.  The
    input rows are left unchanged.
    """
    tails: dict[int, Row] = {}  # pivot column -> its row without the pivot 1
    for row in rows:
        r = dict(row)
        for c in [c for c in r if c in tails]:
            subtract_multiple(r, r.pop(c), tails[c])
        if not r:
            continue
        p = min(r)
        pv = r.pop(p)
        if pv == -1:
            r = {k: -x for k, x in r.items()}
        elif pv != 1:
            inv = ONE / pv
            r = {k: x * inv for k, x in r.items()}
        for t in tails.values():
            if p in t:
                subtract_multiple(t, t.pop(p), r)
        tails[p] = r
    pivots = tuple(sorted(tails))
    return [{p: 1, **tails[p]} for p in pivots], pivots


def rank(rows: list[Row] | Mat) -> int:
    return len(rref(rows)[1])


def _signed_classes(
    rows: list[Row],
) -> tuple[dict[int, int], dict[int, list[int]], set[int], list[Row]]:
    """Read the rows x_a = 0 and x_a = +-x_b of a homogeneous system.

    A row of one term zeroes its unknown; a row of two terms whose
    coefficients are equal or opposite puts its two unknowns in one signed
    class, the smaller class relabelled into the larger.  A class whose
    signs clash around a cycle (x = -x) is zeroed, and so is any class
    merged with a zeroed one.  A column no row merged is a class of its
    own, keyed by itself.  Returns `sign` (column -> x_c / x_key, where key
    is its class's key; 1 where absent), `members` (key -> columns, for the
    classes of two or more), the keys of the zeroed classes, and the other
    nonempty rows, unchanged.
    """
    where: dict[int, int] = {}  # column -> key of its class, if not itself
    sign: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    zeroed: set[int] = set()
    rest: list[Row] = []
    for row in rows:
        if len(row) == 1:
            (a,) = row
            zeroed.add(where.get(a, a))
        elif len(row) == 2:
            (a, x), (b, y) = row.items()
            if x == y:
                t = -1
            elif x == -y:
                t = 1
            else:
                rest.append(row)
                continue
            ka, kb = where.get(a, a), where.get(b, b)
            t *= sign.get(a, 1) * sign.get(b, 1)  # x_kb = t * x_ka, and x_ka = t * x_kb
            if ka == kb:
                if t == -1:
                    zeroed.add(ka)
                continue
            big, small = members.get(ka, [ka]), members.pop(kb, [kb])
            if len(big) < len(small):
                members.pop(ka, None)
                ka, kb, big, small = kb, ka, small, big
            for c in small:
                where[c] = ka
                if t == -1:
                    sign[c] = -sign.get(c, 1)
            big += small
            members[ka] = big
            if kb in zeroed:
                zeroed.discard(kb)
                zeroed.add(ka)
        elif row:
            rest.append(row)
    return sign, members, zeroed, rest


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of {x : rows . x = 0} in `ncols` unknowns as sparse vectors, one
    per free column of the RREF (1 there, minus the RREF's column at the
    pivots).

    Rows x_a = 0 and x_a = +-x_b are presolved rather than eliminated
    (`_signed_classes`): each live signed class stands as one unknown, its
    largest column, and the remaining rows, rewritten on those columns, go
    to `rref`; rows that touch no class go to it unchanged.  A solution is
    then read back to every column of its class with the class sign.  Each
    basis vector keeps its own largest column, 1 there and 0 at the other
    vectors' largest columns, and a subspace has exactly one such basis, so
    the basis is the RREF's, entry for entry.
    """
    sign, members, zeroed, rest = _signed_classes(rows)
    to_rep: dict[int, tuple[int, int] | None] = {}  # column -> (its class's column, sign)
    spread: dict[int, list[tuple[int, int]]] = {}  # class's column -> (column, sign)
    for k in zeroed:
        to_rep.update(dict.fromkeys(members.get(k, (k,))))
    for k, cols in members.items():
        if k in zeroed:
            continue
        rep = max(cols)
        sr = sign.get(rep, 1)
        spread[rep] = [(c, sign.get(c, 1) * sr) for c in cols]
        for c, s in spread[rep]:
            to_rep[c] = (rep, s)

    system = []
    for row in rest:
        if to_rep.keys().isdisjoint(row):
            system.append(row)
            continue
        acc: Row = {}
        for c, x in row.items():
            if c in to_rep:
                target = to_rep[c]
                if target is None:
                    continue
                c, s = target
                if s == -1:
                    x = -x
            y = acc.get(c, 0) + x
            if y:
                acc[c] = y
            else:
                del acc[c]
        if acc:
            system.append(acc)

    reduced, pivots = rref(system)
    free_columns = set(range(ncols)).difference(pivots)
    free_columns.difference_update(
        c for c, target in to_rep.items() if target is None or target[0] != c
    )
    basis = []
    for free in sorted(free_columns):
        v: Row = {free: 1}
        for p, row in zip(pivots, reduced):
            if free in row:
                v[p] = integral(-row[free])
        if spread:
            v = {
                c: x if s == 1 else -x
                for r, x in v.items()
                for c, s in spread.get(r, ((r, 1),))
            }
        basis.append(v)
    return basis
