"""Coxeter groups of types A_n and D_n as (signed) permutation groups.

Elements are kept in window notation.  A type-A element of rank n is a
permutation (w(1),...,w(n+1)) of [1, n+1]; a type-D element of rank n is
(w(1),...,w(n)) where the absolute values run over [1, n], the number of
negative entries is even, and the action extends to +/-[1, n] by
w(-i) = -w(i).

A_n is the parabolic subgroup <s_1,...,s_n> of D_{n+1}, and its windows are
exactly the all-positive windows of D_{n+1}.  The reflections, inversions
and enumeration below are the type-D rules over the window size; the
family enters only as whether a window may carry signs.

Composition follows (sigma tau)(i) = sigma(tau(i)), so multiplying by a
simple reflection on the right permutes window positions.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum

DEFAULT_ENUMERATION_CAP = 50_000


class Family(str, Enum):
    A = "A"
    D = "D"


class CapacityError(Exception):
    """A requested rank exceeds a configured enumeration cap."""


@dataclass(frozen=True)
class DynkinType:
    """A Dynkin type A_n or D_n.

    `memo` holds values derived from the type alone, filled on first use:

    - ``("jirr", R)``: the join-irreducible with R-set R (`canjoin.jirr_from_R`);
    - ``(name, window)``: the value of the function `name` on the
      join-irreducible with that window, for the functions decorated with
      `per_join_irreducible` (`canjoin.r_set` and `_left_values`,
      `bricks.brick_diagram`, `census.sigma` and `chi`);
    - ``"cjr_rows"``: the rows of canonical join representations
      (`canjoin.decompose`), one per key (d, a, b, X), X the value set
      after the descent stored as a bitmask with bit v + n for each value
      v (n the rank);
    - ``"reflections"``: `all_reflections` and, for the k-th reflection
      (a b), the test (a, b, 1 << k) (`inversion_masks`);
    - ``"quiver"``: the double quiver (`quiver.double_quiver`);
    - ``"bricks"``: the brick table (`semibricks.brick_table`).

    Every value but the brick table, which fills itself, is immutable.  The
    memo takes no part in equality, hashing or `repr`, so two equal
    instances keep separate memos and each starts empty.
    """

    family: Family
    rank: int
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        lo = 1 if self.family is Family.A else 2
        if self.rank < lo:
            raise ValueError(f"type {self.family.value} needs rank >= {lo}, got {self.rank}")

    @property
    def vertices(self) -> tuple[int, ...]:
        """Diagram vertices: [1,n] for A_n, {-1} + [1,n-1] for D_n."""
        if self.family is Family.A:
            return tuple(range(1, self.rank + 1))
        return (-1,) + tuple(range(1, self.rank))

    @property
    def window_size(self) -> int:
        return self.rank + 1 if self.family is Family.A else self.rank

    @property
    def group_order(self) -> int:
        n = self.rank
        if self.family is Family.A:
            return math.factorial(n + 1)
        return (1 << (n - 1)) * math.factorial(n)

    def __str__(self) -> str:
        return f"{self.family.value}{self.rank}"


@dataclass(frozen=True, slots=True)
class CoxeterElement:
    """A group element as an immutable window; equality is window equality."""

    dynkin: DynkinType
    window: tuple[int, ...]

    def __post_init__(self) -> None:
        t, w = self.dynkin, self.window
        if len(w) != t.window_size:
            raise ValueError(f"window length {len(w)} != {t.window_size} for {t}")
        if t.family is Family.A:
            if sorted(w) != list(range(1, t.rank + 2)):
                raise ValueError(f"not a permutation of [1,{t.rank + 1}]: {w}")
        else:
            if sorted(abs(x) for x in w) != list(range(1, t.rank + 1)):
                raise ValueError(f"absolute values must form [1,{t.rank}]: {w}")
            if sum(1 for x in w if x < 0) % 2 != 0:
                raise ValueError(f"odd number of negative entries: {w}")

    @classmethod
    def _trusted(cls, dynkin: DynkinType, window: tuple[int, ...]) -> "CoxeterElement":
        """The element of a window its caller generated as valid, made
        without the checks of `__post_init__`; for `enumerate_group` only."""
        w = object.__new__(cls)
        object.__setattr__(w, "dynkin", dynkin)
        object.__setattr__(w, "window", window)
        return w

    def __call__(self, i: int) -> int:
        """Evaluate w(i); type D extends to negative arguments by w(-i)=-w(i)."""
        try:
            if i > 0:
                return self.window[i - 1]
            if self.dynkin.family is Family.D and i < 0:
                return -self.window[-i - 1]
        except IndexError:
            pass
        raise ValueError(f"bad argument {i}")

    def __str__(self) -> str:
        return format_window(self.window)

    def __lt__(self, other: "CoxeterElement") -> bool:
        return self.window < other.window


@dataclass(frozen=True, order=True)
class Reflection:
    """An unordered inversion datum: (a b) in type A, (-a -b)(a b) in type D."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not self.a > abs(self.b) >= 1:
            raise ValueError(f"need a > |b| >= 1, got ({self.a}, {self.b})")


def format_window(window: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in window)


def parse_window(dynkin: DynkinType, text: str) -> CoxeterElement:
    """Parse comma-separated signed integers, e.g. "5,3,-7,4,-6,-8,9,-1,2"."""
    entries = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            entries.append(int(tok))
        except ValueError:
            raise ValueError(f"bad window entry {tok!r}") from None
    return CoxeterElement(dynkin, tuple(entries))


def identity(dynkin: DynkinType) -> CoxeterElement:
    return CoxeterElement(dynkin, tuple(range(1, dynkin.window_size + 1)))


def simple_reflection(dynkin: DynkinType, i: int) -> CoxeterElement:
    """The generator s_i.  Type A: (i i+1).  Type D: (-i -(i+1))(i i+1) for
    i >= 1, and (-1 2)(-2 1) for i = -1."""
    if i not in dynkin.vertices:
        raise ValueError(f"{i} is not a vertex of {dynkin}")
    w = list(range(1, dynkin.window_size + 1))
    if i == -1:
        w[0], w[1] = -2, -1
    else:
        w[i - 1], w[i] = w[i], w[i - 1]
    return CoxeterElement(dynkin, tuple(w))


def multiply(u: CoxeterElement, v: CoxeterElement) -> CoxeterElement:
    """(uv)(i) = u(v(i))."""
    if u.dynkin != v.dynkin:
        raise ValueError(f"mismatched types {u.dynkin} and {v.dynkin}")
    return CoxeterElement(u.dynkin, tuple(u(v(i)) for i in range(1, u.dynkin.window_size + 1)))


def all_reflections(dynkin: DynkinType) -> tuple[Reflection, ...]:
    """All reflections, ordered (a ascending, then b); b < 0 only in type D."""
    signed = dynkin.family is Family.D
    return tuple(
        Reflection(a, b)
        for a in range(2, dynkin.window_size + 1)
        for b in range(1 - a if signed else 1, a)
        if b
    )


def normalised_pair(x: int, y: int) -> tuple[int, int]:
    """The (a, b) of the reflection exchanging values x and y (and -x, -y in
    type D): a > |b|, as `Reflection` requires."""
    if abs(x) < abs(y):
        x, y = y, x
    if x < 0:
        x, y = -x, -y
    return x, y


def _reflection_tests(
    dynkin: DynkinType,
) -> tuple[tuple[Reflection, ...], tuple[tuple[int, int, int], ...]]:
    """`all_reflections` and, for the k-th reflection (a b), the test
    (a, b, 1 << k); built once per type and kept in its memo."""
    entry = dynkin.memo.get("reflections")
    if entry is None:
        refl = all_reflections(dynkin)
        tests = tuple((t.a, t.b, 1 << k) for k, t in enumerate(refl))
        entry = dynkin.memo["reflections"] = (refl, tests)
    return entry


def inversion_masks(dynkin: DynkinType, windows: Iterable[tuple[int, ...]]) -> Iterator[int]:
    """The inversion set of each window as a bitmask, bit k standing for
    `all_reflections(dynkin)[k]`.

    Reflection (a b), or (-a -b)(a b) in type D, is an inversion of w iff
    w^{-1}(a) < w^{-1}(b).  w^{-1}(v) is the position pos(v) of v in the
    window and, in type D, pos(-v) = -pos(v).  `pos` is one list for all
    windows, indexed by the signed value: a negative value -v lands at
    index len(pos) - v, clear of the positive ones.
    """
    _, tests = _reflection_tests(dynkin)
    pos = [0] * (2 * dynkin.rank + 3)
    for window in windows:
        for i, v in enumerate(window, start=1):
            pos[v] = i
            pos[-v] = -i
        mask = 0
        for a, b, bit in tests:
            if pos[a] < pos[b]:
                mask |= bit
        yield mask


def inversions(w: CoxeterElement) -> frozenset[Reflection]:
    """Inversion set; its cardinality is the Coxeter length of w."""
    refl, _ = _reflection_tests(w.dynkin)
    mask = next(inversion_masks(w.dynkin, (w.window,)))
    return frozenset(t for k, t in enumerate(refl) if mask >> k & 1)


def length(w: CoxeterElement) -> int:
    return next(inversion_masks(w.dynkin, (w.window,))).bit_count()


def descents(w: CoxeterElement) -> frozenset[int]:
    """Vertices d with w s_d < w: window descents, plus -1 when -w(1) > w(2)
    (never in type A, whose values are positive)."""
    window = w.window
    out = {i for i in range(1, len(window)) if window[i - 1] > window[i]}
    if -window[0] > window[1]:
        out.add(-1)
    return frozenset(out)


def lower_covers(w: CoxeterElement) -> list[CoxeterElement]:
    """The elements w s_d, d in des(w), that w covers in weak order, ordered
    by window (Björner–Brenti, ch. 3)."""
    return sorted(multiply(w, simple_reflection(w.dynkin, d)) for d in descents(w))


def per_join_irreducible(fn):
    """Memoise a function of one join-irreducible in its type's `memo`.

    The key is (function name, window).  The function must raise on an
    element that is not join-irreducible and return an immutable value other
    than None.  A call that raises stores nothing, so only join-irreducibles
    get entries: a sweep over the whole group keeps no per-element value.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def memoised(w: CoxeterElement):
        key = (name, w.window)
        memo = w.dynkin.memo
        value = memo.get(key)
        if value is None:
            value = memo[key] = fn(w)
        return value

    return memoised


def join_irreducible_type(w: CoxeterElement) -> int | None:
    """The unique descent when w is join-irreducible, else None."""
    des = descents(w)
    if len(des) == 1:
        return next(iter(des))
    return None


def unique_descent(w: CoxeterElement) -> int:
    """The unique descent of w; ValueError unless w is join-irreducible."""
    l = join_irreducible_type(w)
    if l is None:
        raise ValueError(f"{w} is not join-irreducible")
    return l


def cover_pairs(w: CoxeterElement) -> list[tuple[int, int]]:
    """The normalised (a, b) of each cover reflection w s_d w^{-1}, one per
    descent d of w, without building a `Reflection`.

    For a descent d >= 1 this exchanges the window values w(d), w(d+1);
    for d = -1 (type D) it exchanges -w(1) and w(2).
    """
    window = w.window
    pairs = []
    for d in descents(w):
        x, y = (-window[0], window[1]) if d == -1 else (window[d - 1], window[d])
        pairs.append(normalised_pair(x, y))
    return pairs


def enumerate_group(
    dynkin: DynkinType, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[CoxeterElement, ...]:
    """All group elements, lexicographically ordered by window.

    Raises CapacityError when the group order exceeds `cap`; the cap is a
    parameter so callers (tests, CLI) choose their own budget.
    """
    order = dynkin.group_order
    if order > cap:
        raise CapacityError(
            f"|W({dynkin})| = {order} exceeds the enumeration cap {cap}"
        )
    n = dynkin.window_size
    flips = []  # the nonempty even sets of positions to negate, in type D only
    if dynkin.family is Family.D:
        flips = [
            negs for k in range(2, n + 1, 2) for negs in itertools.combinations(range(n), k)
        ]
    windows = []
    for perm in itertools.permutations(range(1, n + 1)):
        windows.append(perm)
        for negs in flips:
            w = list(perm)
            for i in negs:
                w[i] = -w[i]
            windows.append(tuple(w))
    windows.sort()
    trusted = CoxeterElement._trusted  # every window above is valid by construction
    return tuple(trusted(dynkin, w) for w in windows)

