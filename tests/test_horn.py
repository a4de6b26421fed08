import hashlib
import itertools
import json
import time
from collections import Counter
from math import comb, factorial, prod

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


def list_scan(table, d, r, s, full):
    """The level scan with one list entry per lower edim-0 tuple and no lanes.

    vecs[k][i] lists D[i][J_k] = dim(I o J_k) for every tuple J of the slices
    Z(m, d, s) below, less (s-1) m(r-m) in part 0; a canonical row passes when
    every entry of its parts' sum is >= 0.
    """
    subsets = enumerate_subsets(d, r)
    codims = [p.codim() for p in subsets]
    vecs = [[[] for _ in subsets] for _ in range(s)]
    for m in range(1, d):
        dims = [[big.compose(small).dim() for small in enumerate_subsets(m, d)] for big in subsets]
        cut = (s - 1) * m * (r - m)
        below = horn._expand(table._level((m, d, s)), (m, d, s))
        for k, col in enumerate(zip(*(row for row, _ in below))):
            for vec, row in zip(vecs[k], dims):
                vec += [row[j] - (cut if k == 0 else 0) for j in col]
    rows = []
    for row in itertools.combinations_with_replacement(range(len(subsets)), s):
        left = d * (r - d) - sum(codims[i] for i in row)
        if left == 0 or (full and left > 0):
            if all(x >= 0 for x in map(sum, zip(*(vecs[k][i] for k, i in enumerate(row))))):
                rows.append((row, left))
    return rows


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

    def test_cached_slice_cannot_be_mutated(self):
        # the table keeps each slice as a tuple, and horn0 hands out a new list
        table, tup = HornTable(), pt(4, [1, 4], [2, 3], [3, 4])
        assert not horn_member(tup, table).member
        zs = table.zero_slice(1, 2, 3)
        with pytest.raises(AttributeError):
            zs.clear()
        with pytest.raises(TypeError):
            zs[0] = zs[1]
        horn0(1, 2, 3, table).clear()
        assert len(table.zero_slice(1, 2, 3)) == 3 and not horn_member(tup, table).member


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
                    assert list(zero.zero_slice(d, r, s)) == list(full.zero_slice(d, r, s)) == want
        # many equal parts: s! orderings, few distinct ones
        for d, r, s in [(1, 2, 12), (2, 3, 7)]:
            expected = reference_members(d, r, s, memo)
            assert full.members(d, r, s) == expected
            assert list(zero.zero_slice(d, r, s)) == [t for t, e in expected if e == 0]

    def test_packed_scan_matches_list_scan(self):
        # every level up to these ranks: scanned, mirrored or (r, r, s); the
        # many parts of (1, 2, 12) and (2, 3, 7) leave (2, 3, 7) a bias of
        # 16 - 12 in 5-bit lanes, and (4, 8, 3) and (3, 6, 4) use 6-bit lanes;
        # s = 1, s = 2 and the last three parts take their own branches of the walk
        shapes = [(s, r) for s, top in [(3, 8), (1, 6), (2, 6), (4, 6), (5, 6)] for r in range(1, top + 1)]
        shapes += [(12, 2), (7, 3)]
        for full in (True, False):
            table = HornTable()
            for s, r in shapes:
                for d in range(1, r + 1):
                    assert table._level((d, r, s), full) == list_scan(table, d, r, s, full), (d, r, s, full)
                    if full and d == 1:  # no lanes: every candidate passes
                        codims = [p.codim() for p in enumerate_subsets(1, r)]
                        assert len(table._level((1, r, s), full)) == horn._count(codims, r - 1, s, True)

    def test_zero_slice_digests(self):
        # SHA-256 of repr([rows of Z(d, r, 3) for d < r]), as the list scan built them
        want = {
            2: "5d01f9884fc912f8c58d055641ae28610a7b325545fe235391614673216dfe47",
            3: "3bb200f312faccfa008ee7c0dda1851988e28b5442dbab15c95524bdbfa84550",
            4: "2e6787e5d6498dd6c983f0e1bfecc48178237e6a17a494016bdc4d5063514371",
            5: "275fb6007cf5dc03666e186cf00e184c0ffbfb03e796657ac3714e63fdf6e342",
            6: "c76662aa7f81cb911ba773ffa5f655723e075051ff1cc22e4d442c9ce94b483a",
            7: "411ff09062ec816748b48962d98a4e6336cde446e2c33e4edaada98b1fce8b25",
            8: "edc9870ca3197d5dc9fdd47eee0d9d2f611a44727f803e562fdf1edab06de867",
            9: "0ba6a006cb48a32dd83d98acc2c2e2acadec74415be0d8cbc5266318c4bf1eb2",
            10: "7b54b3096133f0e4d6b1a2efc0c484eb1aaf6f5b8734ac2693a18d30c59f82e4",
        }
        table = HornTable()
        for r, digest in want.items():
            assert hashlib.sha256(repr([table._level((d, r, 3)) for d in range(1, r)]).encode()).hexdigest() == digest, r

    def test_benchmark_class_digests(self):
        # count and SHA-256 of the JSON rows of horn_classes at the benchmark's
        # shapes, copied from perfbench/data/expected.json
        want = {
            (2, 5, 3): (44, "9d192d15e6df7957d5e9db0f48b8432d719a75c3e4de16974df02d80a3a44630"),
            (1, 6, 5): (19, "c6aac1bce4565105c1ad47be0740957a744c52d5c13a45a84ea354e0942787b1"),
            (2, 4, 5): (16, "aeecca0ef60eac1bd4af2adf8fbe69994a8b36af2ec6723d07e6e1f9b6879122"),
            (2, 5, 4): (52, "3329d28088dbd8bbcb3bf378d502bdb7a66a81c0443bb659542e6ee59e2830bb"),
            (2, 7, 3): (246, "2f5c9c07068b8683a979c5d667150a4329017e30ec842996612cb08ea2c73ed2"),
            (3, 6, 3): (206, "bcc4a6cb5e333b8749d6a81a16468d9b55eedce42f47c6e18e94081583e3f0da"),
            (3, 5, 4): (52, "14dc973c7bd9188b03d11342499b9516019f68e039a9b33efeee6f693221d2a3"),
            (2, 8, 3): (503, "4aee848c03630aa50cd5ad4e34c496ccde8d65de38d3e4fd2384ef266e701d64"),
            (4, 6, 3): (110, "f2ea24e6781d026d76733be2d227ab6695b92a749d6e5058d5623233b68b3ffc"),
            (2, 6, 4): (148, "009f0e6bb78cb098830a3bf5ff09b732db1c79d78b18e781963fc643269f64eb"),
        }
        for shape, pinned in want.items():
            classes = horn_classes(*shape, HornTable())
            rows = [[[list(p.elements) for p in tup.parts], e] for tup, e in classes]
            digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
            assert (len(classes), digest) == pinned, shape

    def test_full_cardinality_builds_nothing_below(self, monkeypatch):
        # ([r], ..., [r]) is the one tuple of (r, r, s), with edim 0, since [r] o J = J
        built, build = [], HornTable._build
        monkeypatch.setattr(HornTable, "_build", lambda t, key, full=False: built.append(key) or build(t, key, full=full))
        table = HornTable()
        top = CardSubset(11, tuple(range(1, 12)))
        assert horn_classes(11, 11, 3, table) == [(PositionTuple((top,) * 3), 0)]
        assert list(table.zero_slice(11, 11, 5)) == horn0(11, 11, 5, table) == [PositionTuple((top,) * 5)]
        table.check_budget([(12, 12, 3)], full=True)  # the slice (6, 12, 3) below is over budget
        assert built == [(11, 11, 3), (11, 11, 5)]
        with pytest.raises(BudgetError, match="steps"):  # a tuple of s parts is still budgeted
            table.zero_slice(2, 2, 10**6 + 1)
        with pytest.raises(DomainError):
            horn0(2, 2, 0, table)

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

    def test_budget_shortcuts_are_exact(self, monkeypatch):
        # Listing counts permutations only when len(rows) s! s is over the
        # budget, and check_budget counts candidates only when C(C(r, d) + s - 1, s),
        # every canonical row, is.  Both refuse exactly when the exact counts do.
        table = HornTable()
        levels = [(d, r, s) for s in range(1, 5) for r in range(1, 7) for d in range(1, r + 1)]
        built = [(key, table._level(key, full)) for key in levels + [(1, 2, 12), (2, 3, 7)] for full in (True, False)]
        for key, rows in built:
            listed = sum(factorial(len(row)) // prod(map(factorial, Counter(row).values())) for row, _ in rows)
            monkeypatch.setattr(horn, "MAX_LISTED_PARTS", listed * key[2])
            assert len(horn._expand(rows, key)) == listed
            monkeypatch.setattr(horn, "MAX_LISTED_PARTS", listed * key[2] - 1)
            with pytest.raises(BudgetError, match=f"would list {listed} tuples"):
                horn._expand(rows, key)
        monkeypatch.undo()
        # one row of 10**6 equal parts is counted without forming 10**6! (seconds alone)
        start = time.perf_counter()
        assert len(horn0(3, 3, 10**6, table)[0].parts) == 10**6
        assert time.perf_counter() - start < 5
        # a scan lists the slices below under the same budget before packing them
        with pytest.raises(BudgetError, match=r"\(1, 2, 2000\) would list 2000 tuples of 2000 parts"):
            horn0(2, 4, 2000, table)
        assert (2, 4, 2000) not in table._zero_rows

        counts = {}

        def count(key, full):
            d, r, s = key
            if (key, full) not in counts:
                counts[key, full] = horn._count([p.codim() for p in enumerate_subsets(d, r)], d * (r - d), s, full)
            return counts[key, full]

        def over(key, full, cap):  # every level the check visits, counted in full
            d, r, s = key
            if d < r < 2 * d:
                return over((r - d, r, s), full, cap)
            if d < r and any(over((m, d, s), False, cap) for m in range(1, d)):
                return True
            return comb(r, d) * s * (d * (r - d) + 1) > cap or count(key, full) > cap

        keys = [(d, r, s) for r in range(1, 13) for d in range(1, r + 1) for s in range(1, 5)]
        for key, full in itertools.product(keys, (True, False)):
            for cap in (count(key, full) - 1, count(key, full)):
                monkeypatch.setattr(horn, "MAX_CANDIDATES", cap)
                try:
                    HornTable().check_budget([key], full)
                    refused = False
                except BudgetError:
                    refused = True
                assert refused == over(key, full, cap), (key, full, cap)

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
        # zero_slice, members, horn_classes and horn0 build their tuples and
        # parts without validation; a table builds each part once per (d, r).
        # members lists every distinct permutation of each class, in
        # lexicographic order, whether the parts are distinct or repeat.
        table, seen = HornTable(), {}

        def check(t):
            assert t == PositionTuple(t.parts) and hash(t) == hash(PositionTuple(t.parts))
            for p in t.parts:
                valid = CardSubset(p.ground, p.elements)
                assert p == valid and hash(p) == hash(valid)
                assert seen.setdefault((p.ground, p.elements), p) is p

        for r in range(1, 8):
            for d in range(1, r + 1):
                for t in table.zero_slice(d, r, 3):
                    check(t)
        shapes = [(d, r, s) for s in range(1, 6) for r in range(1, 7) for d in range(1, r + 1)]
        for d, r, s in shapes + [(2, 7, 3), (2, 8, 3), (1, 2, 12), (2, 3, 7)]:
            classes = horn_classes(d, r, s, table)
            for t, _ in classes:
                check(t)
                assert t.canonical() == t
            members = table.members(d, r, s)
            for t, _ in members:
                check(t)
            keys = [t.sort_key() for t, _ in members]
            assert all(a < b for a, b in zip(keys, keys[1:])), (d, r, s)
            orderings = {(t, e): factorial(s) // prod(map(factorial, Counter(t.parts).values())) for t, e in classes}
            assert Counter((t.canonical(), e) for t, e in members) == orderings, (d, r, s)
            for t in horn0(d, r, s, table):
                check(t)
            zero = table.zero_slice(d, r, s)
            for t in zero:
                check(t)
            assert list(zero) == [t for t, e in members if e == 0]

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
