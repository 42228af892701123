"""Per-summand semibrick verification: the reference for the brick table.

The test oracle for `coxbrick.semibricks.verify_semibrick`: brickness, the
positive-root flag and every off-diagonal Hom dimension are computed afresh
on each summand's own representation, with no table and no caching.  It
consults no table, so its report's `table_flags` is empty.  `is_semibrick`
is the same predicate on a bare list of representations.
"""

from __future__ import annotations

from coxbrick.coxeter import descents
from coxbrick.homs import hom_dim, is_brick, is_positive_root
from coxbrick.quiver import QuiverRepresentation
from coxbrick.semibricks import Semibrick, SemibrickReport


def is_semibrick(mods: list[QuiverRepresentation]) -> bool:
    """Every module a brick, and no nonzero Hom between two different ones."""
    if not all(is_brick(m) for m in mods):
        return False
    for i, m in enumerate(mods):
        for j, n in enumerate(mods):
            if i != j and hom_dim(m, n) != 0:
                return False
    return True


def verify_semibrick(s: Semibrick) -> SemibrickReport:
    brick_flags = {sm.d: is_brick(sm.rep) for sm in s.summands}
    root_flags = {
        sm.d: is_positive_root(s.element.dynkin, sm.rep.dim_vector())
        for sm in s.summands
    }
    hom_dims = {}
    for x in s.summands:
        for y in s.summands:
            if x.d != y.d:
                hom_dims[(x.d, y.d)] = hom_dim(x.rep, y.rep)
    return SemibrickReport(
        element=s.element,
        brick_flags=brick_flags,
        positive_root_flags=root_flags,
        hom_dims=hom_dims,
        table_flags={},
        summands_match_descents=len(s.summands) == len(descents(s.element)),
    )
