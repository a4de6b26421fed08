"""Subset and weight combinatorics on the Grassmannian.

A ``CardSubset`` is a cardinality-r subset I of [n] = {1, ..., n}; it indexes
a Schubert cell of the Grassmannian Gr(r, n) whose dimension is
``sum(I(a) - a)``.  All indices are 1-based throughout the public interface.

The three partial operations ``compose``, ``quotient`` and ``exponent`` mirror
how positions of subspaces behave under restriction, passing to a subquotient,
and composing with a map whose kernel has a known position:

    I.compose(J)  = { I(J(b)) }                            subset of [n]
    I.quotient(J) = { I(Jc(b)) - Jc(b) + b }               subset of [n-d]
    I.exponent(J) = { I(J(b)) - J(b) + b }                 subset of [n-(r-d)]

with J a d-subset of [r] and Jc its complement in [r].  ``I.exponent(J)``
always equals ``I.quotient(J.complement())``.

The cell at I has one chart, listed by ``I.cell_slots()``: the slots (a, b)
with b <= I(a) - a.  A point of the cell is spanned by the columns
e_{I(a)} + sum_b x_{a,b} e_{Ic(b)} over the free coordinates x at those
slots (Ic(b) < I(a) exactly when b <= I(a) - a), and the elementary maps
E_{b,a} at the same slots span the tangent space H_I at standard flags.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .errors import DomainError, ShapeError

_set = object.__setattr__  # the one way to fill a frozen slot


class _Frozen:
    """Immutable ``__slots__`` record: fields are the slots, set once in ``__init__``.

    Equality, hashing, repr, copy and pickle follow the fields: records are
    equal only to records of the same class, and hash as the field tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # == and hash over the slots, compiled once per class (as namedtuple and
        # dataclasses do) so that they read each slot directly
        equal = " and ".join(f"self.{name} == other.{name}" for name in cls.__slots__)
        fields = "".join(f"self.{name}, " for name in cls.__slots__)
        exec(f"def __eq__(self, other): return {equal} if other.__class__ is self.__class__ else NotImplemented\n"
             f"def __hash__(self): return hash(({fields}))", namespace := {})
        cls.__eq__, cls.__hash__ = namespace["__eq__"], namespace["__hash__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class CardSubset(_Frozen):
    """A strictly increasing subset of [ground], possibly empty or full."""

    __slots__ = ("ground", "elements")

    def __init__(self, ground: int, elements: Iterable[int]):
        if ground < 0:
            raise DomainError(f"ground must be nonnegative, got {ground}")
        elements = tuple(elements)
        prev = 0
        for x in elements:
            if not prev < x <= ground:
                raise DomainError(f"elements must be strictly increasing within [1, {ground}], got {elements}")
            prev = x
        _set(self, "ground", ground)
        _set(self, "elements", elements)

    @classmethod
    def unchecked(cls, ground: int, elements: tuple[int, ...]) -> "CardSubset":
        """The subset ``elements`` of [ground], known to be strictly increasing within it: no check."""
        _set(sub := object.__new__(cls), "ground", ground)
        _set(sub, "elements", elements)
        return sub

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    def dim(self) -> int:
        """Dimension of the Schubert cell at this position: sum(I(a) - a)."""
        return sum(x - a for a, x in enumerate(self.elements, start=1))

    def cell_slots(self) -> list[tuple[int, int]]:
        """Free coordinates (a, b) of the cell, b <= I(a) - a, in (a, b) order; there are ``dim()``."""
        return [(a, b) for a, x in enumerate(self.elements, start=1) for b in range(1, x - a + 1)]

    def codim(self) -> int:
        r = self.cardinality
        return r * (self.ground - r) - self.dim()

    def complement(self) -> "CardSubset":
        inside = set(self.elements)
        return CardSubset(self.ground, tuple(x for x in range(1, self.ground + 1) if x not in inside))

    def compose(self, other: "CardSubset") -> "CardSubset":
        """Select positions of ``other`` out of this subset: I(J)."""
        if other.ground != self.cardinality:
            raise ShapeError(
                f"compose needs inner ground == outer cardinality, got {other.ground} != {self.cardinality}"
            )
        return CardSubset(self.ground, tuple(self.elements[j - 1] for j in other.elements))

    def quotient(self, other: "CardSubset") -> "CardSubset":
        if other.ground != self.cardinality:
            raise ShapeError(
                f"quotient needs inner ground == outer cardinality, got {other.ground} != {self.cardinality}"
            )
        comp = other.complement()
        d = other.cardinality
        elems = tuple(self.elements[jc - 1] - jc + b for b, jc in enumerate(comp.elements, start=1))
        return CardSubset(self.ground - d, elems)

    def exponent(self, other: "CardSubset") -> "CardSubset":
        if other.ground != self.cardinality:
            raise ShapeError(
                f"exponent needs inner ground == outer cardinality, got {other.ground} != {self.cardinality}"
            )
        return self.quotient(other.complement())

    def shuffle_permutation(self) -> tuple[int, ...]:
        """Permutation of [n] listing the subset first, then its complement."""
        return self.elements + self.complement().elements

    def lambda_weight(self) -> "Weight":
        """Dominant weight with entries a - I(a), each in [r - n, 0]."""
        return Weight(tuple(a - x for a, x in enumerate(self.elements, start=1)))

    def to_json(self) -> dict:
        return {"ground": self.ground, "elements": list(self.elements)}

    @classmethod
    def from_json(cls, obj) -> "CardSubset":
        return cls(int(obj["ground"]), tuple(int(x) for x in obj["elements"]))


def enumerate_subsets(cardinality: int, ground: int) -> list[CardSubset]:
    """All cardinality-subsets of [ground] in lexicographic order."""
    if not 0 <= cardinality <= ground:
        raise DomainError(f"cardinality must lie in [0, {ground}], got {cardinality}")
    make = CardSubset.unchecked  # combinations are strictly increasing within [ground]
    return [make(ground, c) for c in itertools.combinations(range(1, ground + 1), cardinality)]


class Weight(_Frozen):
    """Integer weight vector; dominance is checked on demand, not enforced."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]):
        _set(self, "entries", tuple(int(x) for x in entries))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __call__(self, i: int) -> int:
        return self.entries[i - 1]

    def is_dominant(self) -> bool:
        return all(a >= b for a, b in zip(self.entries, self.entries[1:]))

    def is_antidominant(self) -> bool:
        return all(a <= b for a, b in zip(self.entries, self.entries[1:]))

    def total(self) -> int:
        return sum(self.entries)

    def shift(self, c: int) -> "Weight":
        return Weight(tuple(x + c for x in self.entries))

    def to_json(self) -> list:
        return list(self.entries)


def subset_of_lambda(weight: Weight, ground: int) -> CardSubset:
    """Invert ``lambda_weight``: the subset I with I(a) = a - lambda(a)."""
    r = len(weight)
    if not weight.is_dominant():
        raise DomainError(f"weight must be dominant (nonincreasing), got {weight.entries}")
    if r and weight(1) > 0:
        raise DomainError(f"weight entry 1 must be <= 0, got {weight(1)}")
    if r and weight(r) < r - ground:
        raise DomainError(f"weight entry {r} must be >= {r - ground}, got {weight(r)}")
    return CardSubset(ground, tuple(a - weight(a) for a in range(1, r + 1)))


class PositionTuple(_Frozen):
    """An s-tuple of same-shape subsets; one position per flag."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[CardSubset]):
        parts = tuple(parts)
        if not parts:
            raise DomainError("a position tuple needs at least one part")
        n, r = parts[0].ground, parts[0].cardinality
        for p in parts[1:]:
            if p.ground != n or p.cardinality != r:
                raise ShapeError(f"all parts must share ground {n} and cardinality {r}")
        _set(self, "parts", parts)

    @classmethod
    def unchecked(cls, parts: tuple[CardSubset, ...]) -> "PositionTuple":
        """The tuple of ``parts``, known to be nonempty and of one shape: no check."""
        _set(tup := object.__new__(cls), "parts", parts)
        return tup

    @property
    def ground(self) -> int:
        return self.parts[0].ground

    @property
    def cardinality(self) -> int:
        return self.parts[0].cardinality

    @property
    def s(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def edim(self) -> int:
        """Expected dimension of the intersection of the s Schubert cells."""
        r, n = self.cardinality, self.ground
        cell = r * (n - r)
        return cell - sum(cell - p.dim() for p in self.parts)

    def compose(self, other: "PositionTuple") -> "PositionTuple":
        self._check_inner(other)
        return PositionTuple(tuple(p.compose(q) for p, q in zip(self.parts, other.parts)))

    def quotient(self, other: "PositionTuple") -> "PositionTuple":
        self._check_inner(other)
        return PositionTuple(tuple(p.quotient(q) for p, q in zip(self.parts, other.parts)))

    def exponent(self, other: "PositionTuple") -> "PositionTuple":
        self._check_inner(other)
        return PositionTuple(tuple(p.exponent(q) for p, q in zip(self.parts, other.parts)))

    def _check_inner(self, other: "PositionTuple"):
        if other.s != self.s:
            raise ShapeError(f"tuple lengths differ: {self.s} != {other.s}")
        if other.ground != self.cardinality:
            raise ShapeError(
                f"inner ground must equal outer cardinality, got {other.ground} != {self.cardinality}"
            )

    def canonical(self) -> "PositionTuple":
        """Representative under permutation of the s parts: parts sorted lex."""
        return PositionTuple(tuple(sorted(self.parts, key=lambda p: p.elements)))

    def permutations(self) -> set["PositionTuple"]:
        return {PositionTuple(perm) for perm in itertools.permutations(self.parts)}

    def sort_key(self):
        return tuple(p.elements for p in self.parts)

    def to_lists(self) -> list[list[int]]:
        """The parts as lists of elements: the inverse of ``from_lists``."""
        return [list(p.elements) for p in self.parts]

    def to_json(self) -> dict:
        return {"n": self.ground, "parts": self.to_lists()}

    @classmethod
    def from_lists(cls, ground: int, lists: Iterable[Iterable[int]]) -> "PositionTuple":
        return cls(tuple(CardSubset(ground, tuple(int(x) for x in part)) for part in lists))

    @classmethod
    def from_json(cls, obj) -> "PositionTuple":
        return cls.from_lists(int(obj["n"]), obj["parts"])


def weights_of_tuple(tup: PositionTuple) -> list[Weight]:
    """Weight dictionary: shift the first s-1 subset weights by (n-r) * ones.

    The result satisfies edim == -sum of the entry totals, which is asserted.
    """
    n, r = tup.ground, tup.cardinality
    weights = [p.lambda_weight().shift(n - r) for p in tup.parts[:-1]]
    weights.append(tup.parts[-1].lambda_weight())
    assert tup.edim() == -sum(w.total() for w in weights)
    return weights


def slope(j_tuple: PositionTuple, thetas: Sequence[Weight]) -> Fraction:
    """Average of the theta entries picked out by the parts of ``j_tuple``."""
    from fractions import Fraction  # here, so the Horn commands never load it

    d = j_tuple.cardinality
    if d == 0:
        raise DomainError("slope is undefined for empty subsets")
    if len(thetas) != j_tuple.s:
        raise ShapeError(f"need one weight per part, got {len(thetas)} for s={j_tuple.s}")
    total = 0
    for part, theta in zip(j_tuple.parts, thetas):
        if len(theta) != part.ground:
            raise ShapeError(f"weight length {len(theta)} != ground {part.ground}")
        if not theta.is_antidominant():
            raise DomainError(f"weight must be antidominant, got {theta.entries}")
        total += sum(theta(a) for a in part)
    return Fraction(total, d)
