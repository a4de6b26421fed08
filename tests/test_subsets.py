import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from horncalc.errors import DomainError, ShapeError
from horncalc.subsets import (
    CardSubset,
    PositionTuple,
    Weight,
    enumerate_subsets,
    slope,
    subset_of_lambda,
    weights_of_tuple,
)


def cs(ground, *elems):
    return CardSubset(ground, tuple(elems))


def all_pairs(n):
    """Every (I, J) with I an r-subset of [n] and J a d-subset of [r]."""
    for r in range(n + 1):
        for i in enumerate_subsets(r, n):
            for d in range(r + 1):
                for j in enumerate_subsets(d, r):
                    yield i, j


class TestDim:
    def test_minimal_subset(self):
        assert cs(6, 1, 2, 3).dim() == 0

    def test_hand_values(self):
        assert cs(6, 2, 4, 6).dim() == 6
        assert cs(4, 2, 4).dim() == 3

    def test_range(self):
        for r in range(5):
            for i in enumerate_subsets(r, 4):
                assert 0 <= i.dim() <= r * (4 - r)


class TestComplement:
    def test_values(self):
        assert cs(4, 1, 3).complement() == cs(4, 2, 4)
        assert cs(3).complement() == cs(3, 1, 2, 3)
        assert cs(6, 2, 4, 6).complement() == cs(6, 1, 3, 5)


class TestCompose:
    def test_worked_example(self):
        assert cs(6, 1, 3, 5, 6).compose(cs(4, 2, 4)) == cs(6, 3, 6)

    def test_identity_selection(self):
        i = cs(7, 2, 4, 5)
        assert i.compose(cs(3, 1, 2, 3)) == i

    def test_hand_value(self):
        assert cs(6, 2, 4, 6).compose(cs(3, 1, 3)) == cs(6, 2, 6)

    def test_ground_mismatch(self):
        with pytest.raises(ShapeError):
            cs(6, 1, 3, 5).compose(cs(4, 2, 4))


class TestQuotient:
    def test_worked_example(self):
        assert cs(6, 1, 3, 5, 6).quotient(cs(4, 2, 4)) == cs(4, 1, 4)

    def test_empty_inner(self):
        i = cs(6, 2, 4, 6)
        assert i.quotient(cs(3)) == i

    def test_hand_value(self):
        assert cs(6, 2, 4, 6).quotient(cs(3, 2)) == cs(5, 2, 5)

    def test_ground_mismatch(self):
        with pytest.raises(ShapeError):
            cs(6, 1, 3, 5).quotient(cs(2, 1))


class TestExponent:
    def test_hand_value(self):
        assert cs(6, 1, 3, 5, 6).exponent(cs(4, 2, 4)) == cs(4, 2, 4)

    def test_equals_quotient_by_complement_exhaustive(self):
        for i, j in all_pairs(6):
            assert i.exponent(j) == i.quotient(j.complement())

    def test_dim_relation(self):
        i, j = cs(6, 1, 3, 5, 6), cs(4, 2, 4)
        assert i.exponent(j).dim() == i.compose(j).dim() - j.dim()


@given(st.data())
def test_exponent_quotient_identity_random(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    r = data.draw(st.integers(min_value=0, max_value=n))
    i = CardSubset(n, tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=r, max_size=r)))))
    d = data.draw(st.integers(min_value=0, max_value=r))
    j = CardSubset(r, tuple(sorted(data.draw(st.sets(st.integers(1, max(r, 1)), min_size=d, max_size=d)))) if r else ())
    assert i.exponent(j) == i.quotient(j.complement())
    assert i.quotient(j).dim() == i.dim() + j.dim() - i.compose(j).dim()


def test_quotient_dim_identity_exhaustive():
    for n in (5, 8):
        for i, j in all_pairs(n):
            assert i.quotient(j).dim() == i.dim() + j.dim() - i.compose(j).dim()


def test_exponent_dim_identity_triples():
    n = 6
    for r in range(n + 1):
        for i in enumerate_subsets(r, n):
            for d in range(r + 1):
                for j in enumerate_subsets(d, r):
                    for m in range(d + 1):
                        for k in enumerate_subsets(m, d):
                            lhs = i.exponent(j).compose(k).dim() - k.dim()
                            rhs = i.compose(j.compose(k)).dim() - j.compose(k).dim()
                            assert lhs == rhs


class TestEdim:
    def test_worked_examples(self):
        assert PositionTuple.from_lists(4, [[1, 4], [2, 4]]).edim() == 1
        assert PositionTuple.from_lists(4, [[1, 4], [2, 3]]).edim() == 0

    def test_point_grassmannian(self):
        full = [list(range(1, 4))] * 3
        assert PositionTuple.from_lists(3, full).edim() == 0

    def test_can_be_negative(self):
        assert PositionTuple.from_lists(4, [[1, 2], [1, 2]]).edim() < 0


def _random_tuple(rng, n, r, s):
    subs = enumerate_subsets(r, n)
    return PositionTuple(tuple(rng.choice(subs) for _ in range(s)))


def test_edim_tuple_identities_random():
    import random

    rng = random.Random(20240)
    for _ in range(300):
        n = rng.randrange(1, 9)
        r = rng.randrange(1, n + 1)
        d = rng.randrange(1, r + 1)
        m = rng.randrange(1, d + 1)
        s = rng.randrange(1, 4)
        t = _random_tuple(rng, n, r, s)
        u = _random_tuple(rng, r, d, s)
        v = _random_tuple(rng, d, m, s)
        assert t.quotient(u).edim() == t.edim() + u.edim() - t.compose(u).edim()
        assert t.exponent(u).edim() == t.compose(u).edim() - u.edim()
        lhs = t.exponent(u).compose(v).edim() - v.edim()
        rhs = t.compose(u.compose(v)).edim() - u.compose(v).edim()
        assert lhs == rhs


class TestLambdaDictionary:
    def test_full_subset_is_zero(self):
        assert cs(3, 1, 2, 3).lambda_weight() == Weight((0, 0, 0))

    def test_hand_value(self):
        assert cs(6, 2, 4, 6).lambda_weight() == Weight((-1, -2, -3))

    def test_inverse_hand_values(self):
        assert subset_of_lambda(Weight((0, 0)), 2) == cs(2, 1, 2)
        assert subset_of_lambda(Weight((-1, -2, -3)), 6) == cs(6, 2, 4, 6)
        assert subset_of_lambda(Weight((0, -2)), 4) == cs(4, 1, 4)

    def test_errors_name_offender(self):
        with pytest.raises(DomainError, match="entry 1"):
            subset_of_lambda(Weight((1, 0)), 4)
        with pytest.raises(DomainError, match="entry 2"):
            subset_of_lambda(Weight((0, -3)), 4)
        with pytest.raises(DomainError, match="dominant"):
            subset_of_lambda(Weight((-2, -1)), 4)

    @given(st.data())
    def test_roundtrip(self, data):
        n = data.draw(st.integers(min_value=1, max_value=9))
        r = data.draw(st.integers(min_value=0, max_value=n))
        elems = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=r, max_size=r))))
        i = CardSubset(n, elems)
        assert subset_of_lambda(i.lambda_weight(), n) == i
        lam = i.lambda_weight()
        assert lam.is_dominant()
        assert all(r - n <= x <= 0 for x in lam)


class TestWeightsOfTuple:
    def test_small_chain(self):
        t = PositionTuple.from_lists(2, [[1], [2], [2]])
        assert [w.entries for w in weights_of_tuple(t)] == [(1,), (0,), (-1,)]

    def test_full_tuple(self):
        t = PositionTuple.from_lists(3, [[1, 2, 3]] * 3)
        assert [w.entries for w in weights_of_tuple(t)] == [(0, 0, 0)] * 3

    def test_pair(self):
        t = PositionTuple.from_lists(4, [[1, 4], [2, 3]])
        assert [w.entries for w in weights_of_tuple(t)] == [(2, 0), (-1, -1)]


class TestSlope:
    def test_zero_weights(self):
        j = PositionTuple.from_lists(4, [[1, 3], [2, 4]])
        thetas = [Weight((0, 0, 0, 0))] * 2
        assert slope(j, thetas) == 0

    def test_single_term(self):
        j = PositionTuple.from_lists(2, [[1]])
        assert slope(j, [Weight((-1, 1))]) == -1

    def test_edim_difference_identity(self):
        t = PositionTuple.from_lists(4, [[1, 4], [2, 3]])
        j = PositionTuple.from_lists(2, [[1], [2]])
        thetas = [Weight(-x for x in w) for w in weights_of_tuple(t)]
        expected = Fraction(t.compose(j).edim() - j.edim(), j.cardinality)
        assert slope(j, thetas) == expected == -1

    def test_edim_difference_identity_random(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(2, 8)
            r = rng.randrange(1, n + 1)
            d = rng.randrange(1, r + 1)
            s = rng.randrange(1, 4)
            t = _random_tuple(rng, n, r, s)
            j = _random_tuple(rng, r, d, s)
            thetas = [Weight(-x for x in w) for w in weights_of_tuple(t)]
            assert slope(j, thetas) == Fraction(t.compose(j).edim() - j.edim(), d)

    def test_permutation_invariance(self):
        import random

        rng = random.Random(11)
        j = PositionTuple.from_lists(5, [[1, 3], [2, 5], [3, 4]])
        thetas = [Weight(tuple(sorted(rng.randrange(-5, 6) for _ in range(5)))) for _ in range(3)]
        base = slope(j, thetas)
        for perm in itertools.permutations(range(3)):
            jp = PositionTuple(tuple(j.parts[p] for p in perm))
            tp = [thetas[p] for p in perm]
            assert slope(jp, tp) == base

    def test_errors(self):
        with pytest.raises(DomainError):
            slope(PositionTuple.from_lists(3, [[], []]), [Weight((0, 0, 0))] * 2)
        with pytest.raises(DomainError):
            slope(PositionTuple.from_lists(2, [[1]]), [Weight((1, -1))])


class TestShuffle:
    def test_worked_example(self):
        assert cs(4, 1, 3, 4).shuffle_permutation() == (1, 3, 4, 2)

    def test_identity(self):
        assert cs(5, 1, 2, 3).shuffle_permutation() == (1, 2, 3, 4, 5)

    def test_hand_value(self):
        assert cs(4, 2, 4).shuffle_permutation() == (2, 4, 1, 3)


class TestCellSlots:
    def test_worked_example(self):
        assert cs(4, 1, 3, 4).cell_slots() == [(2, 1), (3, 1)]
        assert cs(5, 2, 5).cell_slots() == [(1, 1), (2, 1), (2, 2), (2, 3)]

    def test_point_and_top_cells(self):
        assert cs(5, 1, 2, 3).cell_slots() == []
        assert CardSubset(3, ()).cell_slots() == []
        # the top cell's chart is all of Hom, r x (n - r) slots
        assert cs(5, 4, 5).cell_slots() == [(a, b) for a in (1, 2) for b in (1, 2, 3)]

    def test_one_slot_per_free_coordinate(self):
        for n in range(7):
            for r in range(n + 1):
                for subset in enumerate_subsets(r, n):
                    slots = subset.cell_slots()
                    assert len(slots) == subset.dim()
                    assert slots == sorted(set(slots))
                    # slot (a, b) is the complement row Ic(b) above the pivot row I(a)
                    comp = subset.complement().elements
                    assert all(comp[b - 1] < subset.elements[a - 1] for a, b in slots)
                    assert sum(comp[b - 1] < subset.elements[a - 1] for a in range(1, r + 1) for b in range(1, n - r + 1)) == len(slots)


class TestEnumerate:
    def test_count_and_order(self):
        subs = enumerate_subsets(2, 4)
        assert len(subs) == 6
        assert subs[0] == cs(4, 1, 2)
        assert subs[-1] == cs(4, 3, 4)
        assert subs == sorted(subs, key=lambda s: s.elements)

    def test_empty(self):
        assert enumerate_subsets(0, 3) == [cs(3)]

    def test_full(self):
        assert enumerate_subsets(3, 3) == [cs(3, 1, 2, 3)]

    def test_error(self):
        with pytest.raises(DomainError):
            enumerate_subsets(4, 3)


class TestValidation:
    def test_not_increasing(self):
        with pytest.raises(DomainError):
            CardSubset(4, (2, 2))
        with pytest.raises(DomainError):
            CardSubset(4, (3, 1))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            CardSubset(4, (0, 1))
        with pytest.raises(DomainError):
            CardSubset(4, (5,))

    def test_tuple_shape(self):
        with pytest.raises(ShapeError):
            PositionTuple((cs(4, 1), cs(5, 1)))
        with pytest.raises(ShapeError):
            PositionTuple((cs(4, 1), cs(4, 1, 2)))


def test_json_roundtrip():
    i = cs(5, 2, 4)
    assert CardSubset.from_json(i.to_json()) == i
    t = PositionTuple.from_lists(5, [[2, 4], [1, 3]])
    assert PositionTuple.from_json(t.to_json()) == t
