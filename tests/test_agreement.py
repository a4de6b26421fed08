"""Cross-route agreement at r = 4: the Horn recursion against the tangent certifier.

Every permutation class of Horn(4, 8, 3) with edim >= 0 goes through
``horn_member`` and ``certify_intersecting`` over GF(2^31 - 1): three
samples, and ten more once on a disagreement, as criterion 3 of the
acceptance suite does.  A member the certifier never certifies, or a
certified non-member, fails the test.
"""

import itertools
import time

from horncalc import rng as rngmod
from horncalc.fields import DEFAULT_PRIME, PrimeField
from horncalc.horn import horn_member
from horncalc.subsets import PositionTuple, enumerate_subsets
from horncalc.tangent import certify_intersecting

GFP = PrimeField(DEFAULT_PRIME)


def test_every_class_of_horn_4_8_3_agrees(cache):
    start = time.perf_counter()
    counts = {True: 0, False: 0}
    # parts in lexicographic order: one tuple per permutation class
    for idx, parts in enumerate(itertools.combinations_with_replacement(enumerate_subsets(4, 8), 3)):
        tup = PositionTuple(parts)
        if tup.edim() < 0:
            continue
        member = horn_member(tup, cache).member
        verdict = certify_intersecting(tup, GFP, 3, rngmod.spawn(5000, idx))
        if verdict.intersecting != member:
            verdict = certify_intersecting(tup, GFP, 10, rngmod.spawn(5001, idx))
        assert verdict.intersecting == member, (
            f"disagreement at {tup.to_json()}: recursion={member}, tangent={verdict.kind}"
        )
        counts[member] += 1
    elapsed = time.perf_counter() - start
    assert counts == {True: 4455, False: 2134}
    assert elapsed < 30.0
