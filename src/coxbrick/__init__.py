"""Bricks and semibricks over preprojective algebras of Dynkin types A and D.

The package has two halves that check each other:

* a combinatorial half (``coxeter``, ``weak_order``, ``canjoin``, ``bricks``,
  ``semibricks``, ``census``) that builds everything from window notation, and
* an exact-linear-algebra half (``quiver``, ``grids``, ``homs``) that realises
  the same modules as rational quiver representations and recovers each brick
  as the socle of J(w) over its endomorphism ring.
"""

from coxbrick.coxeter import (
    CoxeterElement,
    DynkinType,
    Reflection,
    descents,
    enumerate_group,
    identity,
    inversions,
    join_irreducible_type,
    multiply,
    simple_reflection,
)

__all__ = [
    "CoxeterElement",
    "DynkinType",
    "Reflection",
    "descents",
    "enumerate_group",
    "identity",
    "inversions",
    "join_irreducible_type",
    "multiply",
    "simple_reflection",
]
