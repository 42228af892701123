"""Exact linear algebra over the rationals, on sparse rows.

A matrix is a tuple of sparse rows: dicts {column: value} that hold only the
nonzero entries, so a row's length is not stored and the column count comes
from the caller (for a representation, from its dimension vector).  Values
are Python `int`, or `fractions.Fraction` where a value is not integral.
The representations and Hom systems of this package are mostly zeros with
0/+-1 coefficients, so `rref` keeps values `int` while every pivot met is
+-1 and promotes to `Fraction` only when a pivot is not.  Arithmetic is exact
throughout; there are no tolerances.  Dense matrices appear only in the JSON
that `quiver.rep_to_json` writes.

Most rows of a Hom system read x_a = 0 or x_a = +-x_b, so `nullspace`
presolves them with one signed union-find before elimination: each class of
unknowns equal up to sign is rooted at its largest column, and `rref` sees
only the remaining rows, rewritten on the roots.
The basis is still the RREF's entry for entry, because that basis is the
only one whose vectors each have their own largest column, 1 there and 0 at
the others', and a class's root is its largest column.
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, "int | Fraction"]  # sparse row: column -> nonzero value
Mat = tuple[Row, ...]  # sparse matrix: one row per row

ONE = Fraction(1)


def integral(x):
    """`x` as an `int` when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


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


def transpose(a: Mat, ncols: int) -> list[Row]:
    """The columns of `a`, which has `ncols` columns, as sparse rows."""
    cols: list[Row] = [{} for _ in range(ncols)]
    for r, row in enumerate(a):
        for c, x in row.items():
            cols[c][r] = x
    return cols


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


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of {x : rows . x = 0} in `ncols` unknowns as sparse vectors, one
    per free column of the RREF (1 there, minus the RREF's column at the
    pivots).

    Rows x_a = 0 and x_a = +-x_b are presolved rather than eliminated, by a
    signed union-find: `link[c] = (d, s)` reads x_c = s * x_d for a larger
    column d of c's class, so a class's root is its largest column.  A
    one-term row, or a sign clash around a cycle, zeroes a root, and a root
    merged with a zeroed one is zeroed.  The other rows, rewritten on the
    roots, go to `rref`, and a solution is read back to every column of its
    class.  Each basis vector keeps its own largest column, 1 there and 0 at
    the other vectors' largest columns, and a subspace has exactly one such
    basis, so the basis is the RREF's, entry for entry.
    """
    link: dict[int, tuple[int, int]] = {}
    zeroed: set[int] = set()  # a class is 0 when its root is in here

    def find(c: int) -> tuple[int, int]:
        """(r, s): the root r of c's class, x_c = s * x_r; relinks c's path to r."""
        r, s = link.get(c, (c, 1))
        if r in link:
            path = [c]
            while r in link:
                path.append(r)
                r = link[r][0]
            s = 1
            for p in reversed(path):
                s *= link[p][1]
                link[p] = (r, s)
        return r, s

    rest = []
    for row in rows:
        if len(row) == 1:
            zeroed.add(find(*row)[0])
            continue
        if len(row) == 2:
            (a, x), (b, y) = row.items()
            if x == y or x == -y:
                (ra, sa), (rb, sb) = find(a), find(b)
                s = sa * sb * (-1 if x == y else 1)  # x_ra = s * x_rb
                if ra != rb:
                    if ra > rb:
                        ra, rb = rb, ra
                    link[ra] = (rb, s)
                    if ra in zeroed:
                        zeroed.add(rb)
                elif s == -1:
                    zeroed.add(ra)
                continue
        if row:
            rest.append(row)

    for c in list(link):  # relink every column straight to its root
        find(c)
    system = []
    for row in rest:
        if link.keys().isdisjoint(row) and zeroed.isdisjoint(row):
            system.append(row)
            continue
        acc: Row = {}
        for c, x in row.items():
            if c in link:
                c, s = link[c]
                x = s * x
            if c not in zeroed:
                acc[c] = acc.get(c, 0) + x
        if any(acc.values()):
            system.append({c: y for c, y in acc.items() if y})

    reduced, pivots = rref(system)
    free_columns = sorted(set(range(ncols)).difference(pivots, link, zeroed))
    members: dict[int, list[tuple[int, int]]] = {}  # root -> (column, sign)
    for c, (r, s) in link.items():
        members.setdefault(r, []).append((c, s))
    basis = []
    for free in free_columns:
        v: Row = {free: 1}
        for p, row in zip(pivots, reduced):
            if free in row:
                v[p] = integral(-row[free])
        for r, x in list(v.items()):
            for c, s in members.get(r, ()):
                v[c] = x if s == 1 else -x
        basis.append(v)
    return basis
