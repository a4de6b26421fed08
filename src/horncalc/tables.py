"""Embedded reference tables and the quadratic-field fixture.

``APPENDIX_A`` lists, per (d, r), the permutation-equivalence classes of
Horn(d, r, 3) with their expected dimensions; ``APPENDIX_B`` lists the
representative inequalities of the Kirwan cone for r in {2, 3, 4} (the
actual inequality set is the permutation closure of each representative).
These are frozen data used to cross-check the recursion, not derived at
runtime.

The two-point fixture builds three flags from a degree-5 polynomial curve
and its derivatives at t in {0, 1, -1}; the two subspaces below are cut out
by requiring position {2, 4, 6} with respect to all three flags at once,
and their coordinates live in Q(sqrt 5).  Only the fixture functions import
``fields`` and ``flags``, so the appendix tables load the Horn modules alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .subsets import CardSubset, PositionTuple

if TYPE_CHECKING:
    from .flags import Flag, SubspaceBasis

# (d, r) -> list of (J1, J2, J3, edim); classes sorted lexicographically.
APPENDIX_A: dict[tuple[int, int], list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]]] = {
    (1, 2): [
        ((1,), (2,), (2,), 0),
        ((2,), (2,), (2,), 1),
    ],
    (1, 3): [
        ((1,), (3,), (3,), 0),
        ((2,), (2,), (3,), 0),
        ((2,), (3,), (3,), 1),
        ((3,), (3,), (3,), 2),
    ],
    (1, 4): [
        ((1,), (4,), (4,), 0),
        ((2,), (3,), (4,), 0),
        ((2,), (4,), (4,), 1),
        ((3,), (3,), (3,), 0),
        ((3,), (3,), (4,), 1),
        ((3,), (4,), (4,), 2),
        ((4,), (4,), (4,), 3),
    ],
    (2, 3): [
        ((1, 2), (2, 3), (2, 3), 0),
        ((1, 3), (1, 3), (2, 3), 0),
        ((1, 3), (2, 3), (2, 3), 1),
        ((2, 3), (2, 3), (2, 3), 2),
    ],
    (2, 4): [
        ((1, 2), (3, 4), (3, 4), 0),
        ((1, 3), (2, 4), (3, 4), 0),
        ((1, 3), (3, 4), (3, 4), 1),
        ((1, 4), (1, 4), (3, 4), 0),
        ((1, 4), (2, 4), (2, 4), 0),
        ((1, 4), (2, 4), (3, 4), 1),
        ((1, 4), (3, 4), (3, 4), 2),
        ((2, 3), (2, 3), (3, 4), 0),
        ((2, 3), (2, 4), (2, 4), 0),
        ((2, 3), (2, 4), (3, 4), 1),
        ((2, 3), (3, 4), (3, 4), 2),
        ((2, 4), (2, 4), (2, 4), 1),
        ((2, 4), (2, 4), (3, 4), 2),
        ((2, 4), (3, 4), (3, 4), 3),
        ((3, 4), (3, 4), (3, 4), 4),
    ],
    (3, 4): [
        ((1, 2, 3), (2, 3, 4), (2, 3, 4), 0),
        ((1, 2, 4), (1, 3, 4), (2, 3, 4), 0),
        ((1, 2, 4), (2, 3, 4), (2, 3, 4), 1),
        ((1, 3, 4), (1, 3, 4), (1, 3, 4), 0),
        ((1, 3, 4), (1, 3, 4), (2, 3, 4), 1),
        ((1, 3, 4), (2, 3, 4), (2, 3, 4), 2),
        ((2, 3, 4), (2, 3, 4), (2, 3, 4), 3),
    ],
}

APPENDIX_A_KEYS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

# r -> list of (d, representative tuple); the cone system is the union of
# the permutation closures.
APPENDIX_B: dict[int, list[tuple[int, tuple[tuple[int, ...], ...]]]] = {
    2: [
        (1, ((1,), (2,), (2,))),
    ],
    3: [
        (1, ((1,), (3,), (3,))),
        (1, ((2,), (2,), (3,))),
        (2, ((1, 2), (2, 3), (2, 3))),
        (2, ((1, 3), (1, 3), (2, 3))),
    ],
    4: [
        (1, ((1,), (4,), (4,))),
        (1, ((2,), (3,), (4,))),
        (1, ((3,), (3,), (3,))),
        (2, ((1, 2), (3, 4), (3, 4))),
        (2, ((1, 3), (2, 4), (3, 4))),
        (2, ((1, 4), (1, 4), (3, 4))),
        (2, ((1, 4), (2, 4), (2, 4))),
        (2, ((2, 3), (2, 3), (3, 4))),
        (2, ((2, 3), (2, 4), (2, 4))),
        (3, ((1, 2, 3), (2, 3, 4), (2, 3, 4))),
        (3, ((1, 2, 4), (1, 3, 4), (2, 3, 4))),
        (3, ((1, 3, 4), (1, 3, 4), (1, 3, 4))),
    ],
}

# Closure sizes per r, frozen as an independent pre-computed count.
APPENDIX_B_CLOSURE_SIZES = {2: 3, 3: 12, 4: 41}


def appendix_a_tuple(d: int, r: int) -> list[tuple[PositionTuple, int]]:
    return [
        (PositionTuple.from_lists(r, parts[:3]), parts[3])
        for parts in APPENDIX_A[(d, r)]
    ]


def appendix_b_closure(r: int) -> set[tuple[int, PositionTuple]]:
    out: set[tuple[int, PositionTuple]] = set()
    for d, rep in APPENDIX_B[r]:
        base = PositionTuple.from_lists(r, rep)
        out.update((d, p) for p in base.permutations())
    return out


TWO_POINT_POSITION = (2, 4, 6)
TWO_POINT_TIMES = (0, 1, -1)

# columns as (coefficient of 1, coefficient of sqrt 5) per ambient coordinate
_TWO_POINT_V1 = (
    ((0, 1), (1, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
    ((0, -24), (0, 0), (0, -3), (1, 0), (0, 0), (0, 0)),
    ((0, 0), (0, 0), (0, -24), (0, 0), (0, 1), (1, 0)),
)


def derivative_flag(t: int) -> Flag:
    """Flag adapted by a degree-5 exponential-like curve and its derivatives at t."""
    from fractions import Fraction
    from math import factorial

    from .fields import SQRT5, Sqrt5
    from .flags import Flag

    n = 6
    cols = []
    for k in range(n):
        col = [SQRT5.zero] * n
        for j in range(k, n):
            col[j] = Sqrt5(Fraction(t) ** (j - k) / factorial(j - k))
        cols.append(col)
    return Flag.from_columns(SQRT5, cols)


def two_point_flags() -> list[Flag]:
    return [derivative_flag(t) for t in TWO_POINT_TIMES]


def two_point_subspaces() -> tuple[SubspaceBasis, SubspaceBasis]:
    """The two subspaces of the fixture; conjugate under sqrt5 -> -sqrt5."""
    from .fields import SQRT5, Sqrt5
    from .flags import SubspaceBasis

    def build(sign: int) -> SubspaceBasis:
        cols = [
            [Sqrt5(a, sign * b) for (a, b) in col]
            for col in _TWO_POINT_V1
        ]
        return SubspaceBasis.from_columns(SQRT5, cols)

    return build(1), build(-1)


def two_point_tuple() -> PositionTuple:
    sub = CardSubset(6, TWO_POINT_POSITION)
    return PositionTuple((sub, sub, sub))
