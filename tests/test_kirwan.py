import itertools
import random
from fractions import Fraction

import pytest

from horncalc.errors import DomainError
from horncalc.kirwan import (
    kirwan_certificates,
    kirwan_check,
    kirwan_inequality_set,
    lr_nonvanishing,
    tuple_from_weights,
)
from horncalc.subsets import PositionTuple, Weight
from horncalc.tables import appendix_b_closure
from helpers import APPENDIX_B_CLOSURE_SIZES


def pt(n, *parts):
    return PositionTuple.from_lists(n, parts)


class TestInequalitySet:
    def test_rank2(self, cache):
        ineqs = kirwan_inequality_set(2, 3, cache)
        assert len(ineqs) == 3
        assert {j for _, j in ineqs} == pt(2, [1], [2], [2]).permutations()

    def test_rank3_closure(self, cache):
        ineqs = set(kirwan_inequality_set(3, 3, cache))
        assert ineqs == appendix_b_closure(3)
        assert len(ineqs) == APPENDIX_B_CLOSURE_SIZES[3]

    def test_rank1_empty(self, cache):
        assert kirwan_inequality_set(1, 4, cache) == []


def triangle_criterion(parts):
    """Independent r=2 oracle: trace zero plus the three triangle bounds."""
    (a1, b1), (a2, b2), (a3, b3) = [tuple(p) for p in parts]
    if a1 + b1 + a2 + b2 + a3 + b3 != 0:
        return False
    return a1 + b2 + b3 <= 0 and a2 + b1 + b3 <= 0 and a3 + b1 + b2 <= 0


class TestKirwanCheck:
    def test_symmetric_point(self, cache):
        ok, violated = kirwan_check([(1, -1), (1, -1), (1, -1)], cache)
        assert ok and violated == []

    def test_nonzero_trace(self, cache):
        ok, violated = kirwan_check([(1, 0), (1, 0), (1, 0)], cache)
        assert not ok
        assert violated[0].kind == "trace"
        assert violated[0].lhs == 3

    def test_hand_evaluated_point(self, cache):
        ok, _ = kirwan_check([(3, 0), (0, 0), (0, -3)], cache)
        assert ok
        certs = kirwan_certificates([(3, 0), (0, 0), (0, -3)], cache)
        horn_lhs = sorted(c.lhs for c in certs if c.kind == "horn")
        assert horn_lhs == [-3, 0, 0]

    def test_certificates_recompute(self, cache):
        point = [(Fraction(5, 2), -1), (0, -1), (1, Fraction(-3, 2))]
        for cert in kirwan_certificates(point, cache):
            if cert.kind != "horn":
                continue
            lhs = sum(point[k][a - 1] for k, part in enumerate(cert.j_tuple.parts) for a in part)
            assert lhs == cert.lhs
            assert cert.status == ("violated" if lhs > 0 else "tight" if lhs == 0 else "slack")

    def test_in_cone_certificates_nonpositive(self, cache):
        # necessity: every inequality certificate of an accepted point is <= 0
        rng = random.Random(21)
        accepted = 0
        while accepted < 20:
            parts = [tuple(sorted((rng.randrange(-4, 5) for _ in range(3)), reverse=True)) for _ in range(3)]
            total = sum(sum(p) for p in parts)
            last = parts[-1]
            parts[-1] = (last[0], last[1], last[2] - total)
            if any(parts[-1][i] < parts[-1][i + 1] for i in range(2)):
                continue
            ok, _ = kirwan_check(parts, cache)
            if not ok:
                continue
            accepted += 1
            for cert in kirwan_certificates(parts, cache):
                if cert.kind == "horn":
                    assert cert.lhs <= 0

    def test_permutation_invariance(self, cache):
        rng = random.Random(22)
        for _ in range(30):
            parts = [tuple(sorted((rng.randrange(-3, 4) for _ in range(3)), reverse=True)) for _ in range(3)]
            base, _ = kirwan_check(parts, cache)
            for perm in itertools.permutations(range(3)):
                ok, _ = kirwan_check([parts[p] for p in perm], cache)
                assert ok == base

    def test_cone_closure(self, cache):
        # sums and nonnegative rational scalings of members stay members
        rng = random.Random(23)
        members = []
        while len(members) < 6:
            parts = [tuple(sorted((rng.randrange(-4, 5) for _ in range(2)), reverse=True)) for _ in range(3)]
            total = sum(sum(p) for p in parts)
            parts[-1] = (parts[-1][0], parts[-1][1] - total)
            if parts[-1][0] < parts[-1][1]:
                continue
            if kirwan_check(parts, cache)[0]:
                members.append(parts)
        for x, y in itertools.combinations(members, 2):
            summed = [tuple(a + b for a, b in zip(px, py)) for px, py in zip(x, y)]
            assert kirwan_check(summed, cache)[0]
        for x in members:
            scaled = [tuple(Fraction(7, 3) * a for a in p) for p in x]
            assert kirwan_check(scaled, cache)[0]

    def test_check_agrees_with_certificates(self, cache):
        # integer and rational points share one compiled evaluation: the
        # check must return exactly the violated certificates, in order, and
        # an integer point must not change when given as Fractions
        rng = random.Random(26)
        members = 0
        for trial in range(240):
            r, s = rng.randrange(1, 5), rng.choice((3, 4))
            integral = trial % 2 == 0
            parts = [
                sorted(
                    (Fraction(rng.randrange(-6, 7), 1 if integral else rng.randrange(1, 7)) for _ in range(r)),
                    reverse=True,
                )
                for _ in range(s)
            ]
            # move the trace onto an end entry of the last part that keeps it sorted
            total = sum(sum(p) for p in parts)
            parts[-1][-1 if total > 0 else 0] -= total
            if integral:
                parts = [[int(x) for x in p] for p in parts]
            ok, violated = kirwan_check(parts, cache)
            certs = kirwan_certificates(parts, cache)
            assert violated == [c for c in certs if c.status == "violated"]
            assert ok == (not violated)
            members += ok
            for cert in certs[1:]:
                lhs = sum(Fraction(parts[k][a - 1]) for k, part in enumerate(cert.j_tuple.parts) for a in part)
                assert cert.lhs == lhs
            if integral:
                as_fractions = [[Fraction(x) for x in p] for p in parts]
                assert kirwan_check(as_fractions, cache) == (ok, violated)
                assert kirwan_certificates(as_fractions, cache) == certs
        assert 0 < members < 240

    def test_chamber_violation_names_pair(self, cache):
        with pytest.raises(DomainError, match=r"component 2.*\(1, 2\)"):
            kirwan_check([(1, 0), (0, 1)], cache)


class TestLR:
    def test_clebsch_gordan_triple(self, cache):
        assert lr_nonvanishing([Weight((1, -1))] * 3, cache)

    def test_nonzero_trace(self, cache):
        assert not lr_nonvanishing([Weight((1, 0))] * 3, cache)

    def test_hand_example(self, cache):
        assert lr_nonvanishing([Weight((2, 0)), Weight((0, -1)), Weight((0, -1))], cache)

    def test_dominance_required(self, cache):
        with pytest.raises(DomainError):
            lr_nonvanishing([Weight((0, 1))] * 3, cache)

    def test_r2_closed_form_small_grid(self, cache):
        for diffs in itertools.product(range(4), repeat=3):
            for offs in itertools.product(range(-2, 3), repeat=3):
                parts = [(d + o, o) for d, o in zip(diffs, offs)]
                expected = triangle_criterion(parts)
                got = lr_nonvanishing([Weight(p) for p in parts], cache)
                assert got == expected

    def test_saturation_sampled(self, cache):
        rng = random.Random(24)
        for _ in range(40):
            r = rng.randrange(2, 5)
            weights = []
            for _ in range(3):
                weights.append(sorted((rng.randrange(-5, 6) for _ in range(r)), reverse=True))
            total = sum(sum(w) for w in weights)
            last = list(weights[-1])
            last = [x - total // r for x in last]
            last[-1] -= total % r
            weights[-1] = last
            lams = [Weight(tuple(w)) for w in weights]
            base = lr_nonvanishing(lams, cache)
            for n_scale in (2, 3):
                scaled = [Weight(tuple(n_scale * x for x in w)) for w in weights]
                assert lr_nonvanishing(scaled, cache) == base


class TestTupleFromWeights:
    def test_rank1_chain(self):
        n, tup = tuple_from_weights([Weight((1,)), Weight((0,)), Weight((-1,))])
        assert n == 2
        assert tup == pt(2, [1], [2], [2])

    def test_zero_weights(self):
        n, tup = tuple_from_weights([Weight((0, 0))] * 3)
        assert n == 2
        assert all(p.elements == (1, 2) for p in tup.parts)

    def test_pair(self):
        n, tup = tuple_from_weights([Weight((2, 0)), Weight((-1, -1))])
        assert n == 4
        assert tup == pt(4, [1, 4], [2, 3])

    def test_shift_applied_when_needed(self):
        n, tup = tuple_from_weights([Weight((1, -1)), Weight((1, -1)), Weight((1, -1))])
        # first two shift up by one, the last shifts down by one
        assert n == 4
        assert tup.edim() == -2  # shifted totals: 2 + 2 + (-2) = 2

    def test_roundtrip_random(self):
        from horncalc.subsets import weights_of_tuple

        rng = random.Random(25)
        for _ in range(50):
            r = rng.randrange(1, 4)
            s = rng.randrange(2, 4)
            lams = [
                Weight(tuple(sorted((rng.randrange(-4, 5) for _ in range(r)), reverse=True)))
                for _ in range(s)
            ]
            n, tup = tuple_from_weights(lams)
            assert tup.cardinality == r and tup.ground == n
            # the reproduction property is asserted inside; re-check shifts
            produced = weights_of_tuple(tup)
            for lam, out in zip(lams, produced):
                gaps = {a - b for a, b in zip(lam.entries, out.entries)}
                assert len(gaps) == 1  # differ by one multiple of the ones vector
