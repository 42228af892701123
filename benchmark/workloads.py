"""The three benchmark workloads: inputs drawn from a seed, and one check per item.

Inputs are made here, independently of the program: every window of each
Dynkin type is listed with `itertools` and its descents and length are
computed by this module's own code, so a change to `coxbrick.coxeter`
enumeration cannot change which items a workload checks.  The program only
ever receives windows.

The population is cut into batches of equal size and equal make-up: sorted
by (type, length, descent count, descent set) from heaviest to lightest,
it is read in blocks of as many elements as there are batches, and the seed
deals each block out to the batches one element each.  Every batch is thus
a stratified sample of the whole population, which keeps the cost of a
batch, and so the figures of a run, nearly independent of the seed.  The
few lightest elements that do not fill a block are left out.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from coxbrick import bricks, canjoin, census, grids, homs, quiver, semibricks
from coxbrick.coxeter import CoxeterElement, DynkinType, Family
from coxbrick.weak_order import GroupPoset

Item = tuple[DynkinType, tuple[int, ...]]


def windows(family: str, rank: int):
    """Every window of the group: permutations of [1, n+1] (A_n), or signed
    permutations of [1, n] with an even number of negative entries (D_n)."""
    if family == "A":
        yield from itertools.permutations(range(1, rank + 2))
        return
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            if signs.count(-1) % 2 == 0:
                yield tuple(s * v for s, v in zip(signs, perm))


def descent_set(family: str, w: tuple[int, ...]) -> tuple[int, ...]:
    """Positions i with w(i) > w(i+1), plus -1 in type D when -w(1) > w(2)."""
    out = tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])
    if family == "D" and -w[0] > w[1]:
        out = (-1,) + out
    return out


def coxeter_length(family: str, w: tuple[int, ...]) -> int:
    """Inversions; type D adds the pairs i < j with w(i) + w(j) < 0."""
    pairs = itertools.combinations(w, 2)
    if family == "A":
        return sum(1 for x, y in pairs if x > y)
    return sum((x > y) + (x + y < 0) for x, y in pairs)


def population(types: tuple[tuple[str, int], ...], jirr_only: bool) -> list[Item]:
    """Every element (or join-irreducible) of the given types, heaviest first:
    sorted by (type, length, descent count, descent set, window), descending.

    Length leads because it drives the cost of every check: the socle's Hom
    systems grow with dim J(w), and the lattice oracle scans the interval
    below w, quadratically, once per descent."""
    keyed = []
    for family, rank in types:
        dynkin = DynkinType(Family(family), rank)
        for w in windows(family, rank):
            des = descent_set(family, w)
            if jirr_only and len(des) != 1:
                continue
            keyed.append(((family, coxeter_length(family, w), len(des), des, w), (dynkin, w)))
    keyed.sort(key=lambda entry: entry[0], reverse=True)
    return [item for _key, item in keyed]


def stratified_batches(items: list[Item], batch_size: int, seed: int) -> list[list[Item]]:
    """Equal-make-up batches of `batch_size` items from a sorted population.

    Block k holds items [k*B, (k+1)*B) for B batches; the seed deals each
    block out one item per batch, then shuffles each batch.
    """
    n_batches = len(items) // batch_size
    if n_batches == 0:
        raise ValueError(f"population of {len(items)} is smaller than one batch")
    rng = random.Random(seed)
    batches: list[list[Item]] = [[] for _ in range(n_batches)]
    for start in range(0, n_batches * batch_size, n_batches):
        slots = list(range(n_batches))
        rng.shuffle(slots)
        for slot, item in zip(slots, items[start : start + n_batches]):
            batches[slot].append(item)
    for batch in batches:
        rng.shuffle(batch)
    return batches


# --- item checks ------------------------------------------------------------
#
# Each check calls the program through module attributes, so that the
# tracer's wrappers are the functions called, and returns (ok, output);
# `canonical` turns the output into the JSON hashed into the run's digest.


def check_socle(context: dict, item: Item) -> tuple[bool, object]:
    """J(w) -> socle over End -> iso to the combinatorial brick; the kernel
    route, where it applies, must give the socle exactly."""
    w = CoxeterElement(*item)
    socle = homs.socle_over_end(grids.j_module(w))
    ok = homs.iso_bricks(socle, bricks.brick_rep(w))
    try:
        kernel = grids.kernel_socle(w)
    except grids.UnsupportedCaseError:
        pass
    else:
        ok = ok and kernel.dims == socle.dims and kernel.mats == socle.mats
    return ok, socle


def canonical_socle(socle) -> object:
    return quiver.rep_to_json(socle)


def check_semibrick(context: dict, item: Item) -> tuple[bool, object]:
    """Both semibrick routes agree summand by summand (d, diagram symbols,
    diagram arrows, rep), and the direct semibrick verifies."""
    w = CoxeterElement(*item)
    via_cjr = semibricks.semibrick(w)
    direct = semibricks.semibrick_direct(w)
    ok = len(via_cjr.summands) == len(direct.summands) and all(
        x.d == y.d
        and x.diagram.symbols == y.diagram.symbols
        and x.diagram.arrows == y.diagram.arrows
        and x.rep.dims == y.rep.dims
        and x.rep.mats == y.rep.mats
        for x, y in zip(via_cjr.summands, direct.summands)
    )
    ok = ok and semibricks.verify_semibrick(direct).ok
    return ok, via_cjr


def canonical_semibrick(s) -> object:
    return {
        "semibrick": semibricks.semibrick_to_json(s),
        "reps": [quiver.rep_to_json(sm.rep) for sm in s.summands],
    }


def setup_lattice(types: tuple[tuple[str, int], ...]) -> dict:
    """One enumerated poset per type, the lattice oracle's one-time set-up."""
    return {
        DynkinType(Family(family), rank): GroupPoset.build(DynkinType(Family(family), rank))
        for family, rank in types
    }


def check_lattice(context: dict, item: Item) -> tuple[bool, object]:
    """Closed-form CJR equals the brute-force oracle and joins back to w;
    then a brick diagram per summand, plus sigma and chi in type D."""
    w = CoxeterElement(*item)
    poset = context[w.dynkin]
    rows = canjoin.decompose(w)
    cjr = frozenset(row.element for row in rows)
    ok = cjr == poset.cjr_oracle(w) and poset.join_all(sorted(cjr)) == w
    diagrams = [bricks.brick_diagram(row.element) for row in rows]
    shapes = []
    if w.dynkin.family is Family.D:
        shapes = [(census.sigma(row.element), census.chi(row.element)) for row in rows]
    return ok, (rows, diagrams, shapes)


def canonical_lattice(output) -> object:
    rows, diagrams, shapes = output
    return {
        "cjr": [[row.d, list(row.element.window)] for row in rows],
        "diagrams": [bricks.diagram_to_json(d) for d in diagrams],
        "shapes": [[str(s), list(c)] for s, c in shapes],
    }


@dataclass(frozen=True)
class Workload:
    """One workload: its population, batch shape, set-up and item check.

    `min_batches` batches are always run; the digest covers exactly those,
    and a traced run traces exactly those, so both repeat for a seed.
    """

    name: str
    types: tuple[tuple[str, int], ...]
    jirr_only: bool
    batch_size: int
    min_batches: int
    check: Callable[[dict, Item], tuple[bool, object]]
    canonical: Callable[[object], object]
    prepare: Callable[[tuple[tuple[str, int], ...]], dict] | None = None

    def setup(self, seed: int) -> tuple[list[list[Item]], dict]:
        """Input generation from the seed plus the program's one-time set-up."""
        items = population(self.types, self.jirr_only)
        batches = stratified_batches(items, self.batch_size, seed)
        context = self.prepare(self.types) if self.prepare else {}
        return batches, context


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="socle",
            types=(("D", 6), ("A", 7)),
            jirr_only=True,
            batch_size=48,
            min_batches=3,
            check=check_socle,
            canonical=canonical_socle,
        ),
        Workload(
            name="semibrick",
            types=(("D", 6), ("A", 6)),
            jirr_only=False,
            batch_size=300,
            min_batches=3,
            check=check_semibrick,
            canonical=canonical_semibrick,
        ),
        Workload(
            name="lattice",
            types=(("D", 6), ("A", 6)),
            jirr_only=False,
            batch_size=60,
            min_batches=3,
            check=check_lattice,
            canonical=canonical_lattice,
            prepare=setup_lattice,
        ),
    )
}
