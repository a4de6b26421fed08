"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime bound is pinned here.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from horncalc import rng as rngmod
from horncalc.fields import DEFAULT_PRIME, QQ, PrimeField
from horncalc.flags import Flag, position
from horncalc.hn import hn_minimizer_exhaustive
from horncalc.horn import horn_classes, horn_member
from horncalc.kirwan import kirwan_inequality_set, lr_nonvanishing
from horncalc.matrices import Mat, rank
from horncalc.subsets import CardSubset, PositionTuple, Weight, enumerate_subsets
from horncalc.tables import (
    APPENDIX_A_KEYS,
    appendix_a_tuple,
    appendix_b_closure,
    two_point_flags,
    two_point_subspaces,
    two_point_tuple,
)
from horncalc.tangent import (
    certify_intersecting,
    delta_determinant,
    h_intersection_dim,
    phi_in_h_space,
    tdim_estimate,
)
from horncalc.variational import variational_check
from helpers import APPENDIX_B_CLOSURE_SIZES, mat_to_vec, random_upper_triangular

GFP = PrimeField(DEFAULT_PRIME)


def pt(n, *parts):
    return PositionTuple.from_lists(n, parts)


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_appendix_a_reproduction(cache):
    start = time.perf_counter()
    for d, r in APPENDIX_A_KEYS:
        expected = [(t.canonical(), e) for t, e in appendix_a_tuple(d, r)]
        computed = horn_classes(d, r, 3, cache)
        assert computed == expected, f"Horn({d},{r},3) deviates from the reference table"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    edims_343 = [e for _, e in horn_classes(3, 4, 3, cache)]
    assert edims_343 == [0, 0, 1, 0, 1, 2, 3]
    report(
        "criterion 1 (appendix A reproduction)",
        f"six tables match as permutation classes with edims; {elapsed:.2f}s",
    )


def test_criterion_2_appendix_b_reproduction(cache):
    start = time.perf_counter()
    for r in (2, 3, 4):
        closure = appendix_b_closure(r)
        computed = set(kirwan_inequality_set(r, 3, cache))
        assert computed == closure, f"cone system at r={r} deviates"
        assert len(computed) == APPENDIX_B_CLOSURE_SIZES[r]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        "criterion 2 (appendix B reproduction)",
        f"closure sizes {APPENDIX_B_CLOSURE_SIZES} match exactly; {elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence(cache):
    start = time.perf_counter()
    total = 0
    count_r3n6s3 = 0
    for s in (2, 3):
        for r in (1, 2, 3):
            for n in range(r, 7):
                subs = enumerate_subsets(r, n)
                for idx, parts in enumerate(itertools.product(subs, repeat=s)):
                    tup = PositionTuple(parts)
                    total += 1
                    if (s, r, n) == (3, 3, 6):
                        count_r3n6s3 += 1
                    member = horn_member(tup, cache).member
                    verdict = certify_intersecting(tup, GFP, 3, rngmod.spawn(1000, s, r, n, idx))
                    if verdict.intersecting != member:
                        # escalate once before declaring a mismatch
                        verdict = certify_intersecting(tup, GFP, 10, rngmod.spawn(2000, s, r, n, idx))
                    assert verdict.intersecting == member, (
                        f"disagreement at s={s}, {tup.to_json()}: recursion={member}, tangent={verdict.kind}"
                    )
    elapsed = time.perf_counter() - start
    assert count_r3n6s3 == 8000
    assert elapsed < 60.0
    report(
        "criterion 3 (oracle equivalence)",
        f"{total} tuples agree (incl. all 8000 at r=3,n=6,s=3) over GF({DEFAULT_PRIME}); {elapsed:.1f}s",
    )


def test_criterion_4_worked_tdim_examples():
    rng = rngmod.spawn(4000, 0)
    cases = [
        (pt(4, [1, 4], [2, 4]), 1, 1),
        (pt(4, [1, 4], [2, 3]), 1, 0),
        (pt(6, [3, 4, 6], [2, 4, 5]), 3, 3),
    ]
    for tup, want_tdim, want_edim in cases:
        assert tup.edim() == want_edim
        assert tdim_estimate(tup, GFP, 3, rng) == want_tdim

    # explicit solution matrices at random rational parameters, u31*u32 != 0
    pyrng = random.Random(4001)
    t = pt(6, [3, 4, 6], [2, 4, 5])
    z21, z31, z32 = (Fraction(pyrng.randrange(-9, 10)) for _ in range(3))
    u21 = Fraction(pyrng.randrange(-9, 10))
    u31, u32 = Fraction(pyrng.randrange(1, 10)), Fraction(pyrng.randrange(1, 10))
    f1, g1 = Flag.standard(QQ, 3), Flag.standard(QQ, 3)
    f2 = Flag.from_columns(QQ, [[1, z21, z31], [0, 1, z32], [0, 0, 1]])
    g2 = Flag.from_columns(QQ, [[1, u21, u31], [0, 1, u32], [0, 0, 1]])
    assert h_intersection_dim(t, [f1, f2], [g1, g2]) == 3
    phi1 = Mat(QQ, [[-z21 * u32, u32, 0], [-z21 * (u32 * u21 - u31), u32 * u21 - u31, 0], [0, 0, 0]])
    phi2 = Mat(QQ, [[z31 * u32, 0, 0], [z31 * (u32 * u21 - u31), 0, u31], [0, 0, u32 * u31]])
    phi3 = Mat(QQ, [[0, 0, 1], [0, 0, u21], [0, 0, u31]])
    for phi in (phi1, phi2, phi3):
        assert all(phi_in_h_space(sub, ff, gg, phi) for sub, ff, gg in zip(t.parts, [f1, f2], [g1, g2]))
    assert rank(Mat.from_columns(QQ, [mat_to_vec(p) for p in (phi1, phi2, phi3)])) == 3
    report(
        "criterion 4 (worked tdim examples)",
        "(tdim, edim) = (1,1), (1,0), (3,3); explicit basis matrices lie in the space",
    )


def test_criterion_5_two_point_fixture():
    flags = two_point_flags()
    v1, v2 = two_point_subspaces()
    target = two_point_tuple().parts[0]
    for sub in (v1, v2):
        for flag in flags:
            assert position(sub, flag) == target
    report(
        "criterion 5 (two-point fixture)",
        "both Q(sqrt5) subspaces sit at position {2,4,6} for all three derivative flags",
    )


def test_criterion_6_harder_narasimhan_uniqueness():
    start = time.perf_counter()
    s = 3
    trials_per_cell = 100
    checked = 0
    for r in (2, 3, 4):
        for q in (2, 3):
            field = PrimeField(q)
            for trial in range(trials_per_cell):
                rng = rngmod.spawn(6000, r, q, trial)
                flags = [Flag.random(field, r, rng) for _ in range(s)]
                thetas = [
                    Weight(tuple(sorted(rng.randrange(-4, 5) for _ in range(r))))
                    for _ in range(s)
                ]
                result = hn_minimizer_exhaustive(flags, thetas)
                assert result.multiplicity == 1, (
                    f"multiplicity {result.multiplicity} at r={r}, q={q}, trial={trial}"
                )
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        "criterion 6 (Harder-Narasimhan uniqueness)",
        f"{checked} exhaustive searches, multiplicity always 1; {elapsed:.1f}s",
    )


def _borel_factor(tup, bs, bps):
    r = tup.cardinality
    factor = Fraction(1)
    for subset, b, bp in zip(tup.parts, bs, bps):
        from horncalc.tangent import borel_character

        factor *= borel_character(subset.lambda_weight(), b)
        factor *= borel_character(subset.complement().lambda_weight().shift(r), bp)
    return factor


def test_criterion_7_delta_equivariance():
    from horncalc.matrices import det, inverse

    tuples = [pt(6, [2, 4, 6], [2, 4, 6], [2, 4, 6]), pt(3, [1, 2], [2, 3], [2, 3])]
    for t_idx, tup in enumerate(tuples):
        r, q, s = tup.cardinality, tup.ground - tup.cardinality, tup.s
        for i in range(20):
            rng = rngmod.spawn(7000, t_idx, i)
            gs = [Flag.random(QQ, r, rng).mat for _ in range(s)]
            hs = [Flag.random(QQ, q, rng).mat for _ in range(s)]
            base = delta_determinant(tup, gs, hs)
            bs = [random_upper_triangular(QQ, r, rng) for _ in range(s)]
            bps = [random_upper_triangular(QQ, q, rng) for _ in range(s)]
            lhs = delta_determinant(
                tup, [g.mul(b) for g, b in zip(gs, bs)], [h.mul(bp) for h, bp in zip(hs, bps)]
            )
            assert lhs == base * _borel_factor(tup, bs, bps)
            g = Flag.random(QQ, r, rng).mat
            h = Flag.random(QQ, q, rng).mat
            lhs2 = delta_determinant(
                tup, [inverse(g).mul(gk) for gk in gs], [inverse(h).mul(hk) for hk in hs]
            )
            assert lhs2 == det(g) ** (-q * (1 - s)) * det(h) ** (r * (1 - s)) * base

    dead = pt(4, [1, 4], [2, 3])
    for i in range(20):
        rng = rngmod.spawn(7001, i)
        gs = [Flag.random(QQ, 2, rng).mat for _ in range(2)]
        hs = [Flag.random(QQ, 2, rng).mat for _ in range(2)]
        assert delta_determinant(dead, gs, hs) == 0
    report(
        "criterion 7 (delta equivariance)",
        "20 exact Borel and diagonal identities per tuple; delta vanishes on the dead tuple",
    )


def test_criterion_8_variational_principle():
    start = time.perf_counter()
    tol = 1e-9
    base = random.Random(8000)
    for trial in range(10):
        xi = sorted((base.uniform(-2, 2) for _ in range(6)), reverse=True)
        for j in ((2, 4, 6), (1, 6), (6,)):
            rep = variational_check(xi, CardSubset(6, j), trials=50, tolerance=tol, seed=8100 + trial)
            assert rep.ok, (xi, j, rep.failures)
            assert rep.equality_error <= tol
            assert rep.min_trace >= rep.lower_bound - tol
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        "criterion 8 (variational principle)",
        f"10 spectra x 3 subsets x 50 samples within 1e-9; {elapsed:.1f}s",
    )


def _triangle_criterion(parts):
    (a1, b1), (a2, b2), (a3, b3) = parts
    if a1 + b1 + a2 + b2 + a3 + b3 != 0:
        return False
    return a1 + b2 + b3 <= 0 and a2 + b1 + b3 <= 0 and a3 + b1 + b2 <= 0


def test_criterion_9_saturation_and_r2_closed_form(cache):
    start = time.perf_counter()
    # saturation on 200 random trace-zero dominant tuples, r <= 4
    base = random.Random(9000)
    for _ in range(200):
        r = base.randrange(2, 5)
        weights = [sorted((base.randrange(-5, 6) for _ in range(r)), reverse=True) for _ in range(3)]
        total = sum(sum(w) for w in weights)
        last = [x - total // r for x in weights[-1]]
        last[-1] -= total % r
        weights[-1] = last
        assert sum(sum(w) for w in weights) == 0
        lams = [Weight(tuple(w)) for w in weights]
        truth = lr_nonvanishing(lams, cache)
        for scale in (2, 3):
            scaled = [Weight(tuple(scale * x for x in w)) for w in weights]
            assert lr_nonvanishing(scaled, cache) == truth

    # exact identity of the r=2 inequality systems, then the exhaustive grid
    computed = {j for _, j in kirwan_inequality_set(2, 3, cache)}
    assert computed == pt(2, [1], [2], [2]).permutations()
    checked = 0
    for diffs in itertools.product(range(7), repeat=3):
        for offs in itertools.product(range(-3, 4), repeat=3):
            parts = [(d + o, o) for d, o in zip(diffs, offs)]
            got = lr_nonvanishing([Weight(p) for p in parts], cache)
            assert got == _triangle_criterion(parts)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        "criterion 9 (saturation and r=2 closed form)",
        f"200 saturation tuples at N in {{2,3}}; {checked} grid tuples match the triangle test; {elapsed:.1f}s",
    )
