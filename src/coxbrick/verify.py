"""Verification sweeps: each check that the two routes agree, written once.

Every suite is the function of the same name; it takes a Dynkin type and
returns a `SweepResult`.  `count` compares the closed-form number of
join-irreducibles, and those generated from R-sets, with enumeration;
`census` the type-D shape census with fixture lines and each shape's size
with its formula; `oracle` the socle of J(w) over End(J(w)) with the
combinatorial brick (and the kernel route with that socle where it
applies), `cjr` the closed-form canonical join representations with the
lattice oracle (each must also join back to its element), and
`semibrick` runs the structural checks on the direct semibrick of every
element, against the type's brick table.  The CLI,
`scripts/run_verification.py` and the acceptance tests all call these
functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from importlib import resources

from coxbrick.bricks import brick_rep
from coxbrick.canjoin import cjr_direct, join_irreducibles
from coxbrick.census import census as build_census
from coxbrick.census import census_diff, global_count, shape_count
from coxbrick.coxeter import (
    DEFAULT_ENUMERATION_CAP,
    CoxeterElement,
    DynkinType,
    enumerate_group,
    join_irreducible_type,
)
from coxbrick.grids import UnsupportedCaseError, j_module, kernel_socle
from coxbrick.homs import iso_bricks, socle_over_end
from coxbrick.semibricks import brick_table, semibrick_direct, verify_semibrick
from coxbrick.weak_order import GroupPoset

_CLAIMS = {
    "oracle": "bricks match socle oracle",
    "cjr": "canonical join representations match oracle",
    "semibrick": "semibricks verified",
}


@dataclass(frozen=True)
class SweepResult:
    """How many objects a sweep checked and which of them failed.

    `failures` lists the failing elements, except for census (the fixture
    diff and shape-count messages) and count (the formula-vs-enumeration
    and generated-vs-enumerated messages).  An element whose check raised is
    a failure too, and `errors` holds the exception it raised.
    `counts` holds the suite's other tallies: the closed-form `formula`
    (count), the number of `shapes` (census), the number of bricks also
    checked on the `kernel` route (oracle), and the sizes of the type's
    brick table after the sweep, `bricks` and Hom `pairs`, with the number
    of those pairs `certified` zero from vertex sets alone, no Hom system
    solved (semibrick).
    """

    suite: str
    dynkin: DynkinType
    checked: int
    failures: list = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    errors: dict[CoxeterElement, Exception] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def report(self) -> list[str]:
        """A summary line, then one line per failing element or census problem."""
        if self.suite == "count":
            status = "OK" if self.ok else "MISMATCH"
            return [f"formula {self.counts['formula']}, enumerated {self.checked}, {status}"]
        if self.suite == "census":
            if self.ok:
                return [f"{self.checked} entries in {self.counts['shapes']} shapes match fixture"]
            return [f"{len(self.failures)} mismatches against fixture", *self.failures]
        passed = self.checked - len(self.failures)
        lines = [f"{passed}/{self.checked} {_CLAIMS[self.suite]}"]
        for w in self.failures:
            error = self.errors.get(w)
            cause = "" if error is None else f" ({type(error).__name__}: {error})"
            lines.append(f"counterexample: {w}{cause}")
        return lines


def _check_each(elements, check) -> tuple[list, dict]:
    """The elements on which `check` is false or raises, in order, and the
    exception of each one that raised; the sweep goes on past both."""
    failures, errors = [], {}
    for w in elements:
        try:
            ok = check(w)
        except Exception as exc:  # a check that raises is a counterexample
            ok, errors[w] = False, exc
        if not ok:
            failures.append(w)
    return failures, errors


def sample(items, size: int, seed: int) -> list:
    """`size` of the items drawn with `random.Random(seed)`, sorted; all of
    them when `size` is 0 or at least their number."""
    items = list(items)
    if size and size < len(items):
        return sorted(random.Random(seed).sample(items, size))
    return items


def default_fixture_lines() -> list[str]:
    """The packaged rank-5 type-D census."""
    text = resources.files("coxbrick").joinpath("data/d5_census.txt").read_text()
    return text.splitlines()


def count(dynkin: DynkinType, cap: int = DEFAULT_ENUMERATION_CAP) -> SweepResult:
    # the one place that filters an enumerated group for one descent
    formula = global_count(dynkin)
    group = enumerate_group(dynkin, cap=cap)
    enumerated = tuple(w for w in group if join_irreducible_type(w) is not None)
    failures = []
    if len(enumerated) != formula:
        failures.append(f"formula {formula} != enumerated {len(enumerated)}")
    if join_irreducibles(dynkin) != enumerated:
        failures.append("join-irreducibles generated from R-sets != enumerated")
    return SweepResult("count", dynkin, len(enumerated), failures, {"formula": formula})


def census(dynkin: DynkinType, fixture_lines: list[str]) -> SweepResult:
    groups = build_census(dynkin)
    total = sum(len(entries) for entries in groups.values())
    problems = census_diff(groups, fixture_lines)
    for shape, entries in groups.items():
        if len(entries) != (expected := shape_count(shape, dynkin.rank)):
            problems.append(f"shape {shape}: {len(entries)} entries, formula {expected}")
    return SweepResult("census", dynkin, total, problems, {"shapes": len(groups)})


def oracle(dynkin: DynkinType, sample_size: int = 0, seed: int = 0) -> SweepResult:
    elements = sample(join_irreducibles(dynkin), sample_size, seed)
    kernel_checked = 0

    def check(w: CoxeterElement) -> bool:
        nonlocal kernel_checked
        socle = socle_over_end(j_module(w))
        ok = iso_bricks(brick_rep(w), socle)
        try:
            kernel = kernel_socle(w)
        except UnsupportedCaseError:
            return ok
        kernel_checked += 1
        return ok and kernel.dims == socle.dims and kernel.mats == socle.mats

    failures, errors = _check_each(elements, check)
    counts = {"kernel": kernel_checked}
    return SweepResult("oracle", dynkin, len(elements), failures, counts, errors)


def cjr(
    dynkin: DynkinType, sample_size: int = 0, seed: int = 0, cap: int = DEFAULT_ENUMERATION_CAP
) -> SweepResult:
    poset = GroupPoset.build(dynkin, cap=cap)
    elements = sample(poset.elements, sample_size, seed)

    def check(w: CoxeterElement) -> bool:
        cjr = cjr_direct(w)
        return cjr == poset.cjr_oracle(w) and poset.join_all(cjr) == w

    failures, errors = _check_each(elements, check)
    return SweepResult("cjr", dynkin, len(elements), failures, errors=errors)


def semibrick(
    dynkin: DynkinType, sample_size: int = 0, seed: int = 0, cap: int = DEFAULT_ENUMERATION_CAP
) -> SweepResult:
    elements = sample(enumerate_group(dynkin, cap=cap), sample_size, seed)
    failures, errors = _check_each(elements, lambda w: verify_semibrick(semibrick_direct(w)).ok)
    table = brick_table(dynkin)
    counts = {
        "bricks": len(table.entries),
        "pairs": len(table.pairs),
        "certified": table.certified,
    }
    return SweepResult("semibrick", dynkin, len(elements), failures, counts, errors)
