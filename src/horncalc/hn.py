"""Exhaustive slope minimization over small prime fields.

Every nonzero subspace of GF(q)^r is visited exactly once, in the order of
its canonical (reduced row echelon) basis: dimension ascending, then pivot
sets in ``itertools.combinations`` order, then the free entries in
``itertools.product`` order.  ``rref_subspaces`` yields the same bases, in
the same order, as ``SubspaceBasis`` objects.  The scan works on plain
integers mod q instead:

* Each flag's inverse is taken once, and each candidate echelon row v of a
  pivot set is mapped once into every flag's coordinates, F^{-1} v.
* The Schubert position of a subspace in a flag is the set of bottom pivots
  of its rows in those coordinates: clear each row against the rows before
  it, from the last entry up, and its last nonzero entry is its pivot.  The
  slope numerator is the sum of theta over the pivots.  The scan walks the
  rows depth first, so rows shared by many subspaces are cleared once.
* Slopes t/d are compared as t d' against t' d, never as fractions, and
  only the minimizer is built as a ``SubspaceBasis`` with a ``Fraction``.

The work per subspace is polynomial in r and the number of flags and does
not grow with q, so ``check_subspace_budget`` bounds the scan.  The least
slope (ties broken towards larger dimension, then to the first subspace in
the order above) is reported with the number of subspaces attaining it;
the Harder-Narasimhan lemma predicts a unique one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetError, DomainError, ShapeError
from .fields import PrimeField
from .flags import Flag, SubspaceBasis
from .matrices import Mat
from .subsets import Weight

DEFAULT_SUBSPACE_BUDGET = 10**6


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def count_nonzero_subspaces(r: int, q: int) -> int:
    return sum(gaussian_binomial(r, d, q) for d in range(1, r + 1))


def check_subspace_budget(r: int, q: int, budget: int = DEFAULT_SUBSPACE_BUDGET) -> None:
    """Raise ``BudgetError`` if GF(q)^r has more nonzero subspaces than ``budget``.

    The lines alone number at least 2^(r-1), so a large r is refused without
    counting; callers that draw the flags check first.
    """
    if r - 1 >= budget.bit_length():
        raise BudgetError(f"GF({q})^{r} has at least 2^{r - 1} subspaces, over the budget of {budget}")
    total = count_nonzero_subspaces(r, q)
    if total > budget:
        raise BudgetError(f"{total} subspaces of GF({q})^{r} exceed the budget of {budget}")


def _echelon_choices(q: int, r: int, d: int) -> Iterator[list[list[list[int]]]]:
    """Canonical echelon rows of the d-dimensional subspaces of GF(q)^r.

    Yields one entry per pivot set, in ``itertools.combinations`` order: for
    each echelon row i, the list of its possible rows (a one at the i-th
    pivot, any value at each later non-pivot column, zeros elsewhere).  The
    subspaces with these pivots are ``itertools.product`` of the lists, each
    exactly once.  The row lists are shared between the subspaces; callers
    must not change them.
    """
    for pivots in itertools.combinations(range(r), d):
        pivot_set = set(pivots)
        choices = []
        for p in pivots:
            free = [j for j in range(p + 1, r) if j not in pivot_set]
            rows = []
            for values in itertools.product(range(q), repeat=len(free)):
                row = [0] * r
                row[p] = 1
                for j, v in zip(free, values):
                    row[j] = v
                rows.append(row)
            choices.append(rows)
        yield choices


def _basis(field: PrimeField, r: int, rows: Sequence[Sequence[int]]) -> SubspaceBasis:
    return SubspaceBasis(field, Mat.from_columns(field, rows, r))


def rref_subspaces(field: PrimeField, r: int, d: int) -> Iterator[SubspaceBasis]:
    """All d-dimensional subspaces of GF(q)^r via canonical echelon rows."""
    for choices in _echelon_choices(field.p, r, d):
        for rows in itertools.product(*choices):
            yield _basis(field, r, rows)


class HNResult(NamedTuple):
    minimizer: SubspaceBasis
    slope: Fraction
    multiplicity: int
    scanned: int


def hn_minimizer_exhaustive(
    flags: Sequence[Flag],
    thetas: Sequence[Weight],
    budget: int = DEFAULT_SUBSPACE_BUDGET,
) -> HNResult:
    """Minimal-slope subspace of maximal dimension, by brute enumeration."""
    if not flags:
        raise ShapeError("need at least one flag")
    field = flags[0].field
    if not isinstance(field, PrimeField):
        raise DomainError("exhaustive search needs a prime field")
    r = flags[0].space_dim
    if r < 1:
        raise DomainError(f"need a nonzero space to search, got dimension {r}")
    if any(fl.space_dim != r or fl.field != field for fl in flags):
        raise ShapeError("all flags must share dimension and field")
    if len(thetas) != len(flags):
        raise ShapeError(f"need one weight per flag, got {len(thetas)} for {len(flags)}")
    for th in thetas:
        if len(th) != r:
            raise ShapeError(f"weight length {len(th)} != {r}")
        if not th.is_antidominant():
            raise DomainError(f"weight must be antidominant, got {th.entries}")
    check_subspace_budget(r, field.p, budget)

    q = field.p
    invs = [[[x % q for x in row] for row in fl.inv().rows] for fl in flags]
    ths = [list(th.entries) for th in thetas]
    empty = [[None] * r for _ in flags]
    best = None  # (numerator, d, echelon rows, multiplicity) of the least slope so far
    scanned = 0
    for d in range(1, r + 1):
        low = None
        for choices in _echelon_choices(q, r, d):
            # coords[i][c][k]: row choice c of echelon row i in the coordinates of flag k
            coords = [
                [[[sum(map(mul, inv_row, row)) % q for inv_row in inv] for inv in invs] for row in rows]
                for rows in choices
            ]
            total, path, count = _walk(coords, ths, q, empty, 0, 0)
            scanned += prod(len(rows) for rows in choices)
            if low is None or total < low:
                low, first, low_count = total, [rows[c] for rows, c in zip(choices, path)], count
            elif total == low:
                low_count += count
        # low / d <= best slope, cross-multiplied; an equal slope goes to the larger d
        if best is None or low * best[1] <= best[0] * d:
            best = (low, d, first, low_count)
    total, d, rows, multiplicity = best
    return HNResult(_basis(field, r, rows), Fraction(total, d), multiplicity, scanned)


def _reduce(basis: list, w: list[int], q: int) -> tuple[int, list[int]]:
    """Bottom pivot of ``w`` modulo the stored vectors, and ``w`` so reduced.

    ``basis[m]`` is None or a stored vector whose last nonzero entry is a one
    at m.  Clearing ``w`` from the bottom up leaves its last nonzero entry at
    a row where no stored vector ends: the pivot it adds to the position.
    """
    for m in range(len(w) - 1, -1, -1):
        c = w[m]
        if c:
            b = basis[m]
            if b is None:
                return m, w
            w = [(x - c * y) % q for x, y in zip(w, b)]
    raise AssertionError("echelon rows are linearly independent")


def _walk(coords, thetas, q: int, bases: list, total: int, i: int) -> tuple[int, tuple[int, ...], int]:
    """Least slope numerator over the subspaces that extend a partial basis.

    ``bases`` holds, per flag, the reduced flag coordinates of echelon rows
    0..i-1 and ``total`` their slope numerator.  Returns the least numerator
    over every choice of rows i.., the row choices of the first subspace in
    enumeration order that reaches it, and how many reach it.
    """
    low, leaf = None, i == len(coords) - 1
    for c, ws in enumerate(coords[i]):
        t = total
        extended = []
        for basis, w, th in zip(bases, ws, thetas):
            m, w = _reduce(basis, w, q)
            t += th[m]
            if not leaf:  # no row is reduced against the last one
                basis = basis[:]
                unit = pow(w[m], -1, q)
                basis[m] = [x * unit % q for x in w]
                extended.append(basis)
        sub_low, sub_first, sub_count = (t, (), 1) if leaf else _walk(coords, thetas, q, extended, t, i + 1)
        if low is None or sub_low < low:
            low, first, count = sub_low, (c,) + sub_first, sub_count
        elif sub_low == low:
            count += sub_count
    return low, first, count
