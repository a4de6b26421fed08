"""Exhaustive slope minimization over small prime fields.

Every nonzero subspace of GF(q)^r is visited exactly once by enumerating
reduced row echelon bases per dimension.  The minimizer of the slope (ties
broken towards larger dimension) is reported together with the number of
subspaces attaining that optimum; the Harder-Narasimhan lemma predicts a
unique one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetError, DomainError, ShapeError
from .fields import PrimeField
from .flags import Flag, SubspaceBasis, position
from .matrices import Mat
from .subsets import PositionTuple, Weight, slope

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


def rref_subspaces(field: PrimeField, r: int, d: int) -> Iterator[SubspaceBasis]:
    """All d-dimensional subspaces of GF(q)^r via canonical echelon rows."""
    q = field.p
    for pivots in itertools.combinations(range(r), d):
        pivot_set = set(pivots)
        free_slots = [
            (i, j)
            for i, p in enumerate(pivots)
            for j in range(p + 1, r)
            if j not in pivot_set
        ]
        for values in itertools.product(range(q), repeat=len(free_slots)):
            rows = [[0] * r for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_slots, values):
                rows[i][j] = v
            cols = [[rows[i][j] for j in range(r)] for i in range(d)]
            yield SubspaceBasis(field, Mat.from_columns(field, cols, r), check=False)


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

    best_key = None
    best: SubspaceBasis | None = None
    multiplicity = 0
    scanned = 0
    for d in range(1, r + 1):
        for sub in rref_subspaces(field, r, d):
            scanned += 1
            pos = PositionTuple(tuple(position(sub, fl) for fl in flags))
            mu = slope(pos, thetas)
            key = (mu, -d)
            if best_key is None or key < best_key:
                best_key = key
                best = sub
                multiplicity = 1
            elif key == best_key:
                multiplicity += 1
    assert best is not None and best_key is not None
    return HNResult(best, best_key[0], multiplicity, scanned)
