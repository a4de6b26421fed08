"""Pinned behaviour of the value classes CardSubset, Weight and PositionTuple.

These are the keys of every Horn table and the parts of every verdict, so
equality, hashing, repr, immutability and validation are part of the API.
"""

import copy
import pickle

import pytest

from horncalc.errors import DomainError, ShapeError
from horncalc.subsets import CardSubset, PositionTuple, Weight


def cs(ground, *elems):
    return CardSubset(ground, tuple(elems))


def samples():
    a = cs(4, 1, 3)
    return [a, Weight((0, -1, -3)), PositionTuple((a, cs(4, 2, 4)))]


class TestEquality:
    def test_equal_fields_are_equal_and_hash_alike(self):
        assert cs(4, 1, 3) == CardSubset(4, [1, 3])
        assert hash(cs(4, 1, 3)) == hash(CardSubset(4, [1, 3]))
        assert Weight((0, -1)) == Weight([0, -1])
        assert hash(Weight((0, -1))) == hash(Weight([0, -1]))
        p, q = PositionTuple((cs(3, 1), cs(3, 2))), PositionTuple([cs(3, 1), cs(3, 2)])
        assert p == q and hash(p) == hash(q)

    def test_hash_is_the_hash_of_the_fields(self):
        a = cs(4, 1, 3)
        assert hash(a) == hash((4, (1, 3)))
        assert hash(Weight((0, -1))) == hash(((0, -1),))
        assert hash(PositionTuple((a, a))) == hash(((a, a),))

    def test_hash_values_are_pinned(self):
        # ints and tuples hash without a per-process seed, so these values are
        # stable across runs (64-bit CPython); sets and dicts of records rely on them
        a, w, p = samples()
        assert [hash(a), hash(w), hash(p)] == [442236298789593374, -6632034267479662006, 8921525106772509628]

    def test_any_field_difference_is_unequal(self):
        assert cs(4, 1, 3) != cs(5, 1, 3)
        assert cs(4, 1, 3) != cs(4, 1, 4)
        assert cs(4) != cs(5)
        assert Weight((0, -1)) != Weight((0, -2))
        assert PositionTuple((cs(3, 1), cs(3, 2))) != PositionTuple((cs(3, 2), cs(3, 1)))

    def test_other_types_are_unequal(self):
        a, w, p = samples()
        for obj in (a, w, p):
            for other in (None, 0, (), obj.__class__.__name__):
                assert obj != other and not obj == other
            assert obj.__eq__(object()) is NotImplemented
        assert a != (4, (1, 3)) and a != (1, 3)
        assert w != (0, -1, -3) and w != ((0, -1, -3),)
        assert p != p.parts
        assert a != Weight((4, 1, 3)) and p != a

    def test_usable_as_set_and_dict_keys(self):
        a, w, p = samples()
        keys = {a: 1, w: 2, p: 3}
        assert keys[cs(4, 1, 3)] == 1
        assert keys[Weight([0, -1, -3])] == 2
        assert keys[PositionTuple([cs(4, 1, 3), cs(4, 2, 4)])] == 3
        assert len({cs(2, 1), cs(2, 1), cs(2, 2)}) == 2

    def test_no_ordering(self):
        with pytest.raises(TypeError):
            cs(3, 1) < cs(3, 2)
        with pytest.raises(TypeError):
            Weight((1,)) <= Weight((2,))


class TestRepr:
    def test_repr(self):
        a, w, p = samples()
        assert repr(a) == "CardSubset(ground=4, elements=(1, 3))"
        assert repr(cs(2)) == "CardSubset(ground=2, elements=())"
        assert repr(w) == "Weight(entries=(0, -1, -3))"
        assert repr(p) == (
            "PositionTuple(parts=(CardSubset(ground=4, elements=(1, 3)), "
            "CardSubset(ground=4, elements=(2, 4))))"
        )


class TestImmutable:
    @pytest.mark.parametrize("index, name", [(0, "ground"), (0, "elements"), (1, "entries"), (2, "parts")])
    def test_field_assignment_and_deletion_raise(self, index, name):
        obj = samples()[index]
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == before

    def test_no_instance_dict(self):
        for obj in samples():
            assert not hasattr(obj, "__dict__")
            with pytest.raises((AttributeError, TypeError)):
                obj.extra = 1

    def test_keyword_construction(self):
        assert CardSubset(ground=3, elements=(1,)) == cs(3, 1)
        assert Weight(entries=(2, 1)) == Weight((2, 1))
        assert PositionTuple(parts=(cs(3, 1),)) == PositionTuple((cs(3, 1),))

    def test_unchecked_tuple_and_lists(self):
        a, b = cs(4, 1, 3), cs(4, 2, 4)
        p = PositionTuple.unchecked((a, b))
        assert p == PositionTuple((a, b)) and hash(p) == hash(PositionTuple((a, b)))
        assert p.to_lists() == [[1, 3], [2, 4]] and PositionTuple.from_lists(4, p.to_lists()) == p

    def test_copy_and_pickle_round_trip(self):
        for obj in samples():
            assert copy.copy(obj) == obj
            assert copy.deepcopy(obj) == obj
            assert pickle.loads(pickle.dumps(obj)) == obj


class TestValidation:
    def test_card_subset_normalizes_to_a_tuple(self):
        a = CardSubset(5, [2, 5])
        assert a.elements == (2, 5) and type(a.elements) is tuple
        assert CardSubset(0, ()).cardinality == 0

    @pytest.mark.parametrize(
        "ground, elements",
        [(-1, ()), (3, (0,)), (3, (4,)), (3, (2, 1)), (3, (2, 2)), (3, (1, 2, 3, 4))],
    )
    def test_card_subset_rejects(self, ground, elements):
        with pytest.raises(DomainError):
            CardSubset(ground, elements)

    def test_weight_converts_entries_to_int(self):
        w = Weight([1.0, "2", True])
        assert w.entries == (1, 2, 1) and all(type(x) is int for x in w.entries)
        assert Weight(()).entries == ()

    def test_weight_rejects_non_integers(self):
        with pytest.raises(ValueError):
            Weight(("a",))
        with pytest.raises(TypeError):
            Weight((None,))

    def test_position_tuple_normalizes_to_a_tuple(self):
        p = PositionTuple([cs(3, 1), cs(3, 3)])
        assert type(p.parts) is tuple and p.s == 2

    def test_position_tuple_rejects(self):
        with pytest.raises(DomainError):
            PositionTuple(())
        with pytest.raises(ShapeError):
            PositionTuple((cs(3, 1), cs(4, 1)))
        with pytest.raises(ShapeError):
            PositionTuple((cs(3, 1), cs(3, 1, 2)))
