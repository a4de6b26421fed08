"""The inductive Horn recursion with memoization.

``Horn(r, n, s)`` is the set of s-tuples of r-subsets of [n] with
nonnegative expected dimension whose compositions with every lower-rank
expected-dimension-zero Horn tuple also have nonnegative expected dimension.
By Belkale's theorem this recursion computes exactly the tuples whose
Schubert varieties intersect for every choice of flags, so ``horn_member``
doubles as an exact intersection test (``is_intersecting_exact``).

Only the edim-0 slices recurse: Z(d, r, s) needs Z(m, d, s) for 0 < m < d.
Levels are closed under permuting the parts, so a scan visits canonical rows
only (nondecreasing indices into the lex-ordered d-subsets of [r]), with a
codimension budget that starts at d(r - d) and leaves each row's edim.  The
walk is depth first with children pushed in reverse, and picks the last
three parts together (two if s = 2), so rows come out in lexicographic order
with no sort.  The composition test separates by part, edim(I o J) =
sum_k D[I_k][J_k] - (s-1) m(r-m) with D[I][J] = dim(I o J) in [0, m(r-m)],
and D[I][J] = sum of I(a) over a in J, less m(m+1)/2, is linear in I.  So
each part packs into one integer with a w-bit lane per lower tuple J, built
from d products I(a) times the lanes that hold position a, part 0 adding a bias
of 2^(w-1) - (s-1) m(r-m) to every lane, and one addition per part sums a
row against every J at once: the row passes when each lane keeps its top
bit.  w is the least width with 2^(w-1) >= (s-1) m(r-m) and 2^(w-1) > m(r-m)
for every m < d, so no lane ever borrows or carries (SIMD within a
register, as in bit-sliced linear algebra: Albrecht, Bard and Hart,
ACM TOMS 37, 2010).  The level (r, r, s) holds only ([r], ..., [r]), of
edim 0, since [r] o J = J, and is built without the slices below.
Levels with 2d > r scan nothing: V -> V^perp sends the position J in
Gr(r - d, r) to J* = {r + 1 - x : x not in J} in Gr(d, r), of the same
dimension, so they are images of levels (r - d, r, s) (Belkale 2006).

A listing (``zero_slice``, ``members``) takes the distinct permutations of
each canonical row (``itertools.permutations`` when its parts are distinct,
a next-permutation walk when they repeat), sorts the index tuples once and
maps them to tuples of parts.  The parts are the d-subsets of [r], built
once per table and shape from ``itertools.combinations`` without checks, so
equal parts of one table are one object.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from math import comb
from operator import mul
from typing import Iterable, NamedTuple, Optional

from .errors import BudgetError, DomainError
from .subsets import CardSubset, PositionTuple, enumerate_subsets

# Canonical rows one level scan may test: the largest slice at r = 10, s = 3
# tests 43,019, the full level (5, 12, 3) would test 4.65 million.
MAX_CANDIDATES = 10**6
# Parts one level may hold once its rows are listed with every permutation
# (tuples x s): the largest slice at r = 11, s = 3 lists 319,450 tuples.
MAX_LISTED_PARTS = 3 * MAX_CANDIDATES

Rows = list[tuple[tuple[int, ...], int]]  # index rows with their edims


def _count(codims: list[int], cell: int, s: int, full: bool) -> int:
    """Nondecreasing s-tuples with codimension sum ``cell`` (at most ``cell`` if ``full``)."""
    ways = [[1] + [0] * cell] + [[0] * (cell + 1) for _ in range(s)]
    for c in codims:
        for fewer, more in zip(ways, ways[1:]):
            for b in range(c, cell + 1):
                more[b] += fewer[b - c]
    return sum(ways[s]) if full else ways[s][cell]


def _codims(d: int, r: int) -> list[int]:
    """Codimension d(r - d) - dim(I) of each d-subset I of [r], in lex order (dim(I) = sum(I) - d(d+1)/2)."""
    top = d * (r - d) + d * (d + 1) // 2
    return [top - sum(c) for c in itertools.combinations(range(1, r + 1), d)]


def _multiset_permutations(row: tuple[int, ...]):
    """Distinct permutations of a nondecreasing row, in lexicographic order.

    Each step is the next permutation (swap the last ascent's head with its
    least larger successor, reverse the tail), so s! repeats of equal parts
    never form and a row with many equal parts costs O(s) per permutation.
    """
    p = list(row)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = p[:i:-1]


def _check_listing(rows: Rows, key: tuple[int, int, int]):
    """Raise ``BudgetError`` if listing every permutation of ``rows`` would pass ``MAX_LISTED_PARTS`` parts."""
    s = key[2]
    # A row lists at most s! tuples, so count exactly only when len(rows) s! s is
    # over; accumulate stops forming s! there (factorial(10**6) takes seconds).
    if any(len(rows) * s * f > MAX_LISTED_PARTS for f in itertools.accumulate(range(1, s + 1), mul)):
        listed = 0
        for row, _ in rows:
            perms, placed = 1, 0  # the multinomial s! / prod c!, as a product of binomials
            for c in Counter(row).values():
                placed += c
                perms *= comb(placed, c)
            listed += perms
        if listed * s > MAX_LISTED_PARTS:
            raise BudgetError(f"Horn level {key} would list {listed} tuples of {s} parts, over {MAX_LISTED_PARTS} parts")


def _permutations(row: tuple[int, ...]):
    """Distinct permutations of a nondecreasing row, in lexicographic order."""
    return itertools.permutations(row) if len(set(row)) == len(row) else _multiset_permutations(row)


def _expand(rows: Rows, key: tuple[int, int, int]) -> Rows:
    """Every distinct permutation of each row with the row's edim, in lexicographic order.

    Raises ``BudgetError`` before listing over ``MAX_LISTED_PARTS`` parts.
    """
    _check_listing(rows, key)
    # distinct rows are distinct multisets: their permutations never meet, so
    # the sort never compares an edim
    out = [(p, e) for row, e in rows for p in _permutations(row)]
    out.sort()
    return out


class HornViolation(NamedTuple):
    """Re-checkable witness that a tuple fails the recursion.

    ``kind`` is "edim" when the base inequality edim >= 0 fails (then
    ``j_tuple`` is None), or "composition" when composing with ``j_tuple``
    (an edim-0 member at level ``d``) produces negative expected dimension.
    """

    kind: str
    d: Optional[int]
    j_tuple: Optional[PositionTuple]
    edim_value: int

    def to_json(self) -> dict:
        out = {"kind": self.kind, "edim": self.edim_value}
        if self.kind == "composition":
            out["d"] = self.d
            out["j_tuple"] = self.j_tuple.to_lists()
        return out


class HornVerdict(NamedTuple):
    member: bool
    edim: int
    violation: Optional[HornViolation]

    def to_json(self) -> dict:
        out = {"member": self.member, "edim": self.edim}
        if self.violation is not None:
            out["violation"] = self.violation.to_json()
        return out


class HornTable:
    """Memoized Horn levels (d, r, s): canonical index rows with their edims.

    A level is scanned for its edim-0 slice or, for enumeration, in full,
    with the per-part lanes packed per scan; a level
    with 2d > r is its mirror (r - d, r, s) mapped through J -> J*, and the
    level (r, r, s) is its one row.  A query that would scan over
    ``MAX_CANDIDATES`` rows at a level, or whose count alone would take over
    ``MAX_CANDIDATES`` steps, raises ``BudgetError`` first.  The exact counts
    run only where a cheap bound is over its budget: the candidates where
    C(C(r, d) + s - 1, s), every canonical row, is over ``MAX_CANDIDATES``,
    and the listed tuples where len(rows) s! s is over ``MAX_LISTED_PARTS``.
    Tuples list every permutation, in lexicographic order, and skip validation:
    their parts are the table's d-subsets of [r], built once per (d, r) and
    shared by every tuple of that shape.  Built levels and slices never change.
    """

    def __init__(self):
        self._rows: dict[tuple[int, int, int], Rows] = {}  # full levels
        self._zero_rows: dict[tuple[int, int, int], Rows] = {}
        self._zero: dict[tuple[int, int, int], tuple[PositionTuple, ...]] = {}
        self._checked: set[tuple[tuple[int, int, int], bool]] = set()  # (key, full) within budget
        self._subsets: dict[tuple[int, int], list[CardSubset]] = {}  # parts by (d, r)
        self.kirwan_systems: dict[tuple[int, int], list] = {}  # filled by horncalc.kirwan

    def members(self, d: int, r: int, s: int) -> list[tuple[PositionTuple, int]]:
        return self._tuples(d, r, _expand(self._level((d, r, s), full=True), (d, r, s)))

    def zero_slice(self, d: int, r: int, s: int) -> tuple[PositionTuple, ...]:
        key = (d, r, s)
        if key not in self._zero:
            get, make = self._parts(d, r).__getitem__, PositionTuple.unchecked
            self._zero[key] = tuple([make(tuple(map(get, p))) for p, _ in _expand(self._level(key), key)])
        return self._zero[key]

    def _parts(self, d: int, r: int) -> list[CardSubset]:
        """The d-subsets of [r] in lex order, built once per table and shared by its tuples."""
        if (d, r) not in self._subsets:
            self._subsets[d, r] = enumerate_subsets(d, r)
        return self._subsets[d, r]

    def _tuples(self, d: int, r: int, rows: Rows) -> list[tuple[PositionTuple, int]]:
        """Index rows with their edims as tuples of parts, unchecked: the parts are of one shape."""
        get, make = self._parts(d, r).__getitem__, PositionTuple.unchecked
        return [(make(tuple(map(get, row))), e) for row, e in rows]

    def _level(self, key: tuple[int, int, int], full: bool = False) -> Rows:
        store = self._rows if full else self._zero_rows
        if key not in store:
            if not (1 <= key[0] <= key[1] and key[2] >= 1):
                raise DomainError(f"need 1 <= cardinality <= ground and s >= 1, got {key}")
            self.check_budget([key], full)
            self._build(key, full=full)  # by keyword: wrappers see (self, key)
        return store[key]

    def check_budget(self, keys: Iterable[tuple[int, int, int]], full: bool = False):
        """Raise ``BudgetError`` before any scan if these levels need one over ``MAX_CANDIDATES``."""
        for key in keys:
            d, r, s = key
            if (key, full) in self._checked or key in (self._rows if full else self._zero_rows):
                continue
            if d < r < 2 * d:  # a mirrored level scans its source
                self.check_budget([(r - d, r, s)], full)
                continue
            if d < r:  # the level (r, r, s) is built without the slices below
                self.check_budget([(m, d, s) for m in range(1, d)])
            cell = d * (r - d)
            steps = comb(r, d) * s * (cell + 1)  # _count's loop; it also bounds the scan's per-budget pools
            if steps > MAX_CANDIDATES:
                raise BudgetError(f"Horn level {key} would take {steps} steps to count its candidates, over {MAX_CANDIDATES}")
            if comb(comb(r, d) + s - 1, s) > MAX_CANDIDATES:  # every canonical row: only then can the count be over
                tested = _count(_codims(d, r), cell, s, full)
                if tested > MAX_CANDIDATES:
                    raise BudgetError(f"Horn level {key} would test {tested} candidates, over {MAX_CANDIDATES}")
            self._checked.add((key, full))

    def _build(self, key: tuple[int, int, int], full: bool = False):
        """Build one level: its edim-0 rows, or all its rows if ``full``."""
        d, r, s = key
        if d < r < 2 * d:  # the image of level (r - d, r, s) under J -> J*
            # J -> J* takes lex order on (r - d)-subsets to colex order on
            # d-subsets, so dual[i], the lex index of J* for J of lex index i,
            # is the lex index of the i-th d-subset in colex order
            subs = list(itertools.combinations(range(1, r + 1), d))
            dual = sorted(range(len(subs)), key=lambda i: subs[i][::-1])
            rows = sorted((tuple(sorted(map(dual.__getitem__, row))), e) for row, e in self._level((r - d, r, s), full=full))
        elif d == r:  # only ([r], ..., [r]), of edim 0, since [r] o J = J
            rows = [((0,) * s, 0)]
        else:
            rows = self._scan(d, r, s, full)
        if full:
            self._rows[key] = rows
        self._zero_rows[key] = [(row, e) for row, e in rows if e == 0]

    def _scan(self, d: int, r: int, s: int, full: bool) -> Rows:
        cell = d * (r - d)
        codims = _codims(d, r)
        # lanes[k][i]: subset i as part k, packed w bits a lane with one lane
        # per tuple J of the slices Z(m, d, s) below: D[i][J_k] in part k, and
        # in part 0 also half - cut with cut = (s-1) m(r-m).  Summed over a
        # row's parts, a lane holds half + edim(I o J), so the row passes
        # exactly when every lane keeps its top bit.  D lies in [0, m(r-m)],
        # so partial and full sums stay in [half - cut, half + m(r-m)]: with
        # half >= cut and half > m(r-m) no lane borrows or carries.  Lanes
        # may come in any order, so each J is a permutation of a canonical row.
        top = max((m * (r - m) for m in range(1, d)), default=0)
        w = max((s - 1) * top - 1, top).bit_length() + 1
        half, one, none = 1 << (w - 1), "1".zfill(w), "0" * w
        # D[i][J] = sum of I(a) over the positions a in J, less m(m+1)/2, so
        # lanes[k][i] = sum_a I(a) at[k][a] + fixed[k], where at[k][a] holds 1
        # in the lanes whose part k contains position a
        at, fixed = [[0] * d for _ in range(s)], [0] * s
        shift = 0  # the bits of the lanes packed so far
        for m in range(1, d):
            inner = list(itertools.combinations(range(d), m))
            digits = [[one if a in small else none for small in inner] for a in range(d)]
            below = self._level((m, d, s))
            _check_listing(below, (m, d, s))
            tuples = [p for row, _ in below for p in _permutations(row)]
            ones = ((1 << w * len(tuples)) - 1) // ((1 << w) - 1) << shift  # 1 in each lane of this m
            fixed[0] += (half - (s - 1) * m * (r - m)) * ones
            for k, col in enumerate(zip(*tuples)):
                col = col[::-1]  # the first tuple in the lowest lane
                for a, digit in enumerate(digits):
                    at[k][a] += int("".join(map(digit.__getitem__, col)), 2) << shift
                fixed[k] -= m * (m + 1) // 2 * ones
            shift += w * len(tuples)
        outer = list(itertools.combinations(range(1, r + 1), d))  # by lex index
        lanes = [[sum(map(mul, big, at_k)) + fixed_k for big in outer] for at_k, fixed_k in zip(at, fixed)]
        mask = ((1 << shift) - 1) // ((1 << w) - 1) << (w - 1)  # the top bit of each lane; 0 for d = 1
        # fits[b]: subsets within a budget b; the last part must use it up unless full
        last = [[] for _ in range(cell + 1)]
        for i, c in enumerate(codims):
            last[c].append(i)
        fits = list(itertools.accumulate(last, lambda fit, more: sorted(fit + more)))
        if full:
            last = fits
        if s == 1:
            return [((i,), cell - codims[i]) for i in last[cell] if lanes[0][i] & mask == mask]
        if s == 2:
            return [
                ((i, j), rest - codims[j])
                for i in fits[cell]
                for rest in [cell - codims[i]]
                for pool in [last[rest]]
                for j in pool[bisect_left(pool, i):]
                if (lanes[0][i] + lanes[1][j]) & mask == mask
            ]
        rows: Rows = []
        # Depth first down to s - 3 parts, children pushed in reverse, so that
        # rows come out in lexicographic order; the last three parts h <= i <= j
        # are picked together.
        stack = [((), cell, 0)]
        lane_h, lane_i, lane_j = lanes[s - 3:]
        while stack:
            row, left, acc = stack.pop()  # acc: the lanes of row's parts
            pool = fits[left]
            if row:
                pool = pool[bisect_left(pool, row[-1]):]
            if len(row) < s - 3:
                lane = lanes[len(row)]
                stack += [(row + (i,), left - codims[i], acc + lane[i]) for i in reversed(pool)]
            else:
                rows += [
                    (row + (h, i, j), rest - codims[j])
                    for h in pool
                    for left_h, acc_h in [(left - codims[h], acc + lane_h[h])]
                    for pool_h in [fits[left_h]]
                    for i in pool_h[bisect_left(pool_h, h):]
                    for rest, acc_i in [(left_h - codims[i], acc_h + lane_i[i])]
                    for pool_i in [last[rest]]
                    for j in pool_i[bisect_left(pool_i, i):]
                    if (acc_i + lane_j[j]) & mask == mask
                ]
        return rows


def horn_member(tup: PositionTuple, cache: HornTable) -> HornVerdict:
    """Decide membership in Horn(r, n, s), with a violation witness on failure."""
    r, s = tup.cardinality, tup.s
    e = tup.edim()
    if e < 0:
        return HornVerdict(False, e, HornViolation("edim", None, None, e))
    cache.check_budget((d, r, s) for d in range(1, r))
    for d in range(1, r):
        for j in cache.zero_slice(d, r, s):
            comp_edim = tup.compose(j).edim()
            if comp_edim < 0:
                return HornVerdict(False, e, HornViolation("composition", d, j, comp_edim))
    return HornVerdict(True, e, None)


def is_intersecting_exact(tup: PositionTuple, cache: HornTable) -> bool:
    """Whether the Schubert varieties at these positions meet for all flags.

    Exact for s >= 2; for s = 1 the recursion is still evaluated literally
    (everything passes, since edim == dim >= 0).
    """
    return horn_member(tup, cache).member


def horn_enumerate(r: int, n: int, s: int, cache: HornTable) -> list[tuple[PositionTuple, int]]:
    """Every member of Horn(r, n, s) with its edim, in lexicographic order."""
    return cache.members(r, n, s)


def horn_classes(r: int, n: int, s: int, cache: HornTable) -> list[tuple[PositionTuple, int]]:
    """Equivalence classes under permutation of the s parts.

    Returns canonical representatives (parts sorted lexicographically) with
    their edims, sorted lexicographically; this is the Appendix-style view.
    """
    return cache._tuples(r, n, cache._level((r, n, s), full=True))


def horn0(d: int, r: int, s: int, cache: HornTable) -> list[PositionTuple]:
    """The edim-0 slice of Horn(d, r, s): all tuples, not just representatives."""
    if not (0 < d <= r):
        raise DomainError(f"need 0 < d <= r, got d={d}, r={r}")
    return list(cache.zero_slice(d, r, s))
