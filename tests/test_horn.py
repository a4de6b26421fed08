import itertools

import pytest

from horncalc import horn
from horncalc.errors import BudgetError, DomainError
from horncalc.horn import HornTable, horn0, horn_classes, horn_enumerate, horn_member, is_intersecting_exact
from horncalc.subsets import CardSubset, PositionTuple, enumerate_subsets
from horncalc.tables import APPENDIX_A_KEYS, appendix_a_tuple


def pt(n, *parts):
    return PositionTuple.from_lists(n, parts)


def reference_members(d, r, s, memo):
    """The product-loop recursion: every ordered tuple, composed as PositionTuples."""
    key = (d, r, s)
    if key not in memo:
        zero = [j for m in range(1, d) for j, e in reference_members(m, d, s, memo) if e == 0]
        memo[key] = []
        for parts in itertools.product(enumerate_subsets(d, r), repeat=s):
            tup = PositionTuple(parts)
            e = tup.edim()
            if e >= 0 and all(tup.compose(j).edim() >= 0 for j in zero):
                memo[key].append((tup, e))
    return memo[key]


class TestMembership:
    def test_failing_pair(self, cache):
        v = horn_member(pt(4, [1, 4], [2, 3]), cache)
        assert not v.member
        assert v.violation.kind == "composition"
        assert v.violation.d == 1
        assert v.violation.j_tuple == pt(2, [1], [2])
        assert v.violation.edim_value == -1

    def test_passing_pair(self, cache):
        v = horn_member(pt(4, [1, 4], [2, 4]), cache)
        assert v.member and v.edim == 1

    def test_symmetric_triple(self, cache):
        v = horn_member(pt(6, [2, 4, 6], [2, 4, 6], [2, 4, 6]), cache)
        assert v.member and v.edim == 0

    def test_rank_two_chain(self, cache):
        v = horn_member(pt(2, [1], [2], [2]), cache)
        assert v.member and v.edim == 0

    def test_negative_edim_violation(self, cache):
        v = horn_member(pt(4, [1, 2], [1, 2]), cache)
        assert not v.member
        assert v.violation.kind == "edim"
        assert v.violation.edim_value == v.edim < 0


class TestIntersectingAlias:
    def test_examples(self, cache):
        assert is_intersecting_exact(pt(4, [1, 4], [2, 4]), cache)
        assert not is_intersecting_exact(pt(4, [1, 4], [2, 3]), cache)

    def test_dense_components_always_intersect(self, cache):
        # (J1, {r-d+1..r}, ..., {r-d+1..r}) passes for every J1
        r, d, s = 5, 2, 3
        top = list(range(r - d + 1, r + 1))
        for j1 in enumerate_subsets(d, r):
            tup = PositionTuple((j1,) + (CardSubset(r, tuple(top)),) * (s - 1))
            assert is_intersecting_exact(tup, cache)

    def test_s1_everything_passes(self, cache):
        for sub in enumerate_subsets(2, 4):
            assert is_intersecting_exact(PositionTuple((sub,)), cache)


class TestEnumeration:
    def test_rank1_chain_classes(self, cache):
        classes = horn_classes(1, 2, 3, cache)
        assert [(t.sort_key(), e) for t, e in classes] == [
            (((1,), (2,), (2,)), 0),
            (((2,), (2,), (2,)), 1),
        ]

    def test_full_cardinality(self, cache):
        classes = horn_classes(3, 3, 4, cache)
        assert len(classes) == 1
        tup, e = classes[0]
        assert e == 0 and all(p.elements == (1, 2, 3) for p in tup.parts)

    def test_against_reference_tables(self, cache):
        for d, r in APPENDIX_A_KEYS:
            expected = [(t.canonical(), e) for t, e in appendix_a_tuple(d, r)]
            assert horn_classes(d, r, 3, cache) == expected

    def test_enumerate_is_closed_under_permutation(self, cache):
        members = {t for t, _ in horn_enumerate(2, 4, 3, cache)}
        for t in list(members):
            assert t.permutations() <= members

    def test_enumerate_matches_membership(self, cache):
        members = {t for t, _ in horn_enumerate(2, 4, 2, cache)}
        for parts in itertools.product(enumerate_subsets(2, 4), repeat=2):
            tup = PositionTuple(parts)
            assert (tup in members) == horn_member(tup, cache).member

    def test_bad_args(self, cache):
        with pytest.raises(DomainError):
            horn_enumerate(3, 2, 3, cache)
        with pytest.raises(DomainError):
            horn_enumerate(1, 2, 0, cache)


class TestZeroSlice:
    def test_rank2(self, cache):
        zs = horn0(1, 2, 3, cache)
        assert len(zs) == 3
        assert {t.canonical() for t in zs} == {pt(2, [1], [2], [2])}

    def test_rank3_level2(self, cache):
        zs = horn0(2, 3, 3, cache)
        expected = pt(3, [1, 2], [2, 3], [2, 3]).permutations() | pt(3, [1, 3], [1, 3], [2, 3]).permutations()
        assert set(zs) == expected

    def test_rank4_level1(self, cache):
        zs = horn0(1, 4, 3, cache)
        expected = (
            pt(4, [1], [4], [4]).permutations()
            | pt(4, [2], [3], [4]).permutations()
            | pt(4, [3], [3], [3]).permutations()
        )
        assert set(zs) == expected

    def test_full_level_admitted(self, cache):
        zs = horn0(3, 3, 2, cache)
        assert len(zs) == 1 and zs[0] == pt(3, [1, 2, 3], [1, 2, 3])


class TestStructuralProperties:
    def test_composition_closure_and_strengthening(self, cache):
        # exhaustive at small scale: members compose into members, and the
        # composed edim dominates the inner edim
        for s in (2, 3):
            for n in range(2, 6):
                for r in range(2, n + 1):
                    outer = horn_enumerate(r, n, s, cache)
                    for d in range(1, r):
                        inner = horn_enumerate(d, r, s, cache)
                        for t, te in outer:
                            for u, ue in inner:
                                comp = t.compose(u)
                                assert horn_member(comp, cache).member
                                assert comp.edim() >= ue

    def test_permutation_equivariance(self, cache):
        import random

        rng = random.Random(5)
        subs = enumerate_subsets(2, 5)
        for _ in range(150):
            tup = PositionTuple(tuple(rng.choice(subs) for _ in range(3)))
            base = horn_member(tup, cache).member
            for perm in itertools.permutations(range(3)):
                shuffled = PositionTuple(tuple(tup.parts[p] for p in perm))
                assert horn_member(shuffled, cache).member == base

    def test_cold_warm_cache_agree(self, cache):
        fresh = HornTable()
        for parts in itertools.product(enumerate_subsets(2, 4), repeat=3):
            tup = PositionTuple(parts)
            assert horn_member(tup, fresh).member == horn_member(tup, cache).member

    def test_verdict_violation_rechecks(self, cache):
        for parts in itertools.product(enumerate_subsets(2, 4), repeat=2):
            tup = PositionTuple(parts)
            v = horn_member(tup, cache)
            if v.member:
                continue
            if v.violation.kind == "edim":
                assert tup.edim() == v.violation.edim_value < 0
            else:
                j = v.violation.j_tuple
                assert j in horn0(v.violation.d, tup.cardinality, tup.s, cache)
                assert j.edim() == 0
                assert tup.compose(j).edim() == v.violation.edim_value < 0


class TestCanonicalBuild:
    def test_matches_product_loop_reference(self):
        # r = 6 at s = 3 checks the mirrored levels (4, 6, 3) and (5, 6, 3)
        memo, full, zero = {}, HornTable(), HornTable()
        for s, top in [(1, 5), (2, 5), (3, 6), (4, 5)]:
            for r in range(1, top + 1):
                for d in range(1, r + 1):
                    expected = reference_members(d, r, s, memo)
                    assert full.members(d, r, s) == expected
                    classes = {(t.canonical(), e) for t, e in expected}
                    assert horn_classes(d, r, s, full) == sorted(classes, key=lambda c: c[0].sort_key())
                    # slices built on their own and read off full levels agree
                    want = [t for t, e in expected if e == 0]
                    assert zero.zero_slice(d, r, s) == full.zero_slice(d, r, s) == want
        # many equal parts: s! orderings, few distinct ones
        for d, r, s in [(1, 2, 12), (2, 3, 7)]:
            expected = reference_members(d, r, s, memo)
            assert full.members(d, r, s) == expected
            assert zero.zero_slice(d, r, s) == [t for t, e in expected if e == 0]

    def test_zero_slice_sizes(self):
        table = HornTable()
        assert [len(horn0(d, 7, 3, table)) for d in range(1, 7)] == [28, 252, 751, 751, 252, 28]
        assert [len(horn0(d, 8, 3, table)) for d in range(1, 8)] == [36, 462, 2120, 3516, 2120, 462, 36]

    def test_duality(self):
        # Gr(d, r) = Gr(r - d, r) maps the position I to {r + 1 - x : x not in I}
        table = HornTable()
        for r in range(2, 9):
            for d in range(1, r):
                mirror = {
                    tuple(tuple(sorted(r + 1 - x for x in p.complement())) for p in t.parts)
                    for t in horn0(d, r, 3, table)
                }
                assert mirror == {t.sort_key() for t in horn0(r - d, r, 3, table)}

    def test_mirrored_levels_scan_nothing(self, monkeypatch):
        scanned, scan = [], HornTable._scan
        monkeypatch.setattr(HornTable, "_scan", lambda t, d, r, s, full: scanned.append((d, r)) or scan(t, d, r, s, full))
        table = HornTable()
        horn_classes(5, 7, 3, table)
        assert horn_member(pt(8, *[[4, 5, 6, 7, 8]] * 3), table).member
        assert (2, 7) in scanned and (2, 5) in scanned and (5, 7) not in scanned
        assert all(2 * d <= r or d == r for d, r in scanned)

    def test_candidate_count(self):
        for d, r, s in [(1, 4, 1), (2, 5, 3), (3, 6, 3), (2, 5, 4), (4, 4, 2)]:
            cell = d * (r - d)
            codims = [p.codim() for p in enumerate_subsets(d, r)]
            sums = [sum(c) for c in itertools.combinations_with_replacement(codims, s)]
            assert horn._count(codims, cell, s, True) == sum(x <= cell for x in sums)
            assert horn._count(codims, cell, s, False) == sums.count(cell)

    def test_budget(self, monkeypatch):
        # the full level (4, 8, 3) tests exactly 6,589 canonical candidates
        monkeypatch.setattr(horn, "MAX_CANDIDATES", 6589)
        assert len(horn_classes(4, 8, 3, HornTable())) > 0
        monkeypatch.setattr(horn, "MAX_CANDIDATES", 6588)
        with pytest.raises(BudgetError):
            horn_classes(4, 8, 3, HornTable())

    def test_default_budget(self):
        # 4,654,987 candidates; refused before any level is scanned
        table = HornTable()
        with pytest.raises(BudgetError):
            horn_enumerate(5, 12, 3, table)
        assert not table._rows and not table._zero_rows
        # (7, 12, 3) is the mirror of (5, 12, 3) and scans it, so it is refused alike
        with pytest.raises(BudgetError, match=r"\(5, 12, 3\) would test 4654987 candidates"):
            horn_classes(7, 12, 3, table)
        assert not table._rows and not table._zero_rows

    def test_query_budget(self):
        # the slices below r = 11 test at most 205,404 candidates a level;
        # (6, 12, 3) tests 1,252,473, so an r = 12 query is refused up front
        table = HornTable()
        table.check_budget((d, 11, 3) for d in range(1, 11))
        top = PositionTuple((CardSubset(24, tuple(range(13, 25))),) * 3)
        with pytest.raises(BudgetError, match=r"\(6, 12, 3\) would test 1252473 candidates"):
            horn_member(top, table)
        assert not table._rows and not table._zero_rows

    def test_boundary_tuples_equal_validated_ones(self):
        # zero_slice and horn_classes build their tuples without validation
        table = HornTable()
        for r in range(1, 8):
            for d in range(1, r + 1):
                for t in table.zero_slice(d, r, 3):
                    assert t == PositionTuple(t.parts) and hash(t) == hash(PositionTuple(t.parts))
        shapes = [(1, 6, 5), (2, 4, 5), (2, 5, 4), (2, 7, 3), (3, 6, 3), (3, 5, 4), (2, 8, 3), (4, 6, 3), (2, 6, 4)]
        for d, r, s in shapes:
            for t, _ in horn_classes(d, r, s, table):
                assert t == PositionTuple(t.parts) and hash(t) == hash(PositionTuple(t.parts))
                assert t.canonical() == t

    def test_mirrored_witnesses_recheck(self):
        # witnesses at d = 2 > r / 2 come from a mirrored slice
        table, mirrored = HornTable(), 0
        for parts in itertools.product(enumerate_subsets(3, 5), repeat=3):
            tup = PositionTuple(parts)
            v = horn_member(tup, table)
            if v.member or v.violation.kind == "edim":
                continue
            j = v.violation.j_tuple
            mirrored += v.violation.d == 2
            assert j == PositionTuple(j.parts) and j in horn0(v.violation.d, 3, 3, table)
            assert j.edim() == 0
            assert tup.compose(j).edim() == v.violation.edim_value < 0
        assert mirrored > 0
