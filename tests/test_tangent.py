import json
import os
import random
from fractions import Fraction

import pytest

from horncalc import rng as rngmod
from horncalc.errors import BudgetError, DomainError, ShapeError
from horncalc.fields import QQ, SQRT5, DEFAULT_PRIME, PrimeField
from horncalc.flags import Flag, SubspaceBasis, induced_flag_on_quotient, position
from horncalc.horn import horn_member
from horncalc.matrices import (
    MAX_ELIM_CELLS,
    Mat,
    check_elim_cells,
    det,
    inverse,
    kernel_basis,
    random_matrix,
    rank,
)
from horncalc.subsets import CardSubset, PositionTuple, Weight, enumerate_subsets
from horncalc.tangent import (
    borel_character,
    certify_intersecting,
    check_delta_budget,
    delta_determinant,
    h_constraint_rows,
    h_intersection_dim,
    h_space_basis,
    phi_in_h_space,
    tdim_estimate,
)
from helpers import from_ints, hom_conjugation_matrix, mat_add, mat_to_vec, mul_vec, random_upper_triangular, scale

GFP = PrimeField(DEFAULT_PRIME)
FIELDS = [PrimeField(2), PrimeField(7), GFP, QQ, SQRT5]


def pt(n, *parts):
    return PositionTuple.from_lists(n, parts)


class TestHSpaceBasis:
    def test_minimal_subset_is_zero_space(self):
        f = Flag.standard(QQ, 3)
        g = Flag.standard(QQ, 2)
        basis = h_space_basis(CardSubset(5, (1, 2, 3)), f, g)
        assert basis.dim == 0

    def test_standard_flags_dimension_is_cell_dimension(self):
        for n, r in ((4, 2), (5, 2), (6, 3)):
            f = Flag.standard(QQ, r)
            g = Flag.standard(QQ, n - r)
            for subset in enumerate_subsets(r, n):
                assert h_space_basis(subset, f, g).dim == subset.dim()

    def test_basis_elements_satisfy_constraints(self):
        rng = rngmod.spawn(30, 0)
        f = Flag.random(QQ, 3, rng)
        g = Flag.random(QQ, 3, rng)
        subset = CardSubset(6, (2, 4, 6))
        basis = h_space_basis(subset, f, g)
        for phi in basis.basis:
            assert phi_in_h_space(subset, f, g, phi)

    def test_canonical_injection_membership(self):
        # r=3, n=8: the injection e_a -> ebar_a lies in the space at {3,4,7}
        f = Flag.standard(QQ, 3)
        g = Flag.standard(QQ, 5)
        inj = from_ints(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert phi_in_h_space(CardSubset(8, (3, 4, 7)), f, g, inj)
        assert not phi_in_h_space(CardSubset(8, (2, 3, 7)), f, g, inj)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            h_space_basis(CardSubset(5, (1, 2)), Flag.standard(QQ, 3), Flag.standard(QQ, 3))
        # phi must be a (n-r) x r map over the flags' field
        subset, f, g = CardSubset(4, (1, 2)), Flag.standard(QQ, 2), Flag.standard(QQ, 2)
        for phi in (from_ints(QQ, [[0]]), Mat.zeros(QQ, 2, 3), Mat.zeros(QQ, 3, 2), Mat.zeros(GFP, 2, 2)):
            with pytest.raises(ShapeError):
                phi_in_h_space(subset, f, g, phi)


class TestChartAgainstConstraintRows:
    # h_space_basis and phi_in_h_space read the chart of cell_slots; the
    # stacked equations of h_constraint_rows are the reference
    @staticmethod
    def cases(field, seed):
        rng = rngmod.spawn(seed, 0)
        pyrng = random.Random(seed)
        for _ in range(12):
            n = pyrng.randrange(2, 7)
            r = pyrng.randrange(1, n)
            subset = CardSubset(n, tuple(sorted(pyrng.sample(range(1, n + 1), r))))
            yield subset, Flag.standard(field, r), Flag.standard(field, n - r), rng
            yield subset, Flag.random(field, r, rng), Flag.random(field, n - r, rng), rng

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_basis_spans_the_constraint_kernel(self, field):
        for subset, f, g, _ in self.cases(field, 40):
            r, q = subset.cardinality, subset.ground - subset.cardinality
            rows = Mat(field, h_constraint_rows(subset, f, g), r * q)
            basis = h_space_basis(subset, f, g).basis
            assert len(basis) == subset.dim()
            vecs = [mat_to_vec(phi) for phi in basis]
            assert all(field.is_zero(x) for v in vecs for x in mul_vec(rows, v))
            assert rank(Mat(field, vecs, r * q)) == subset.dim()
            assert rank(rows) == r * q - subset.dim()

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_membership_matches_constraint_rows(self, field):
        outside = 0
        for subset, f, g, rng in self.cases(field, 41):
            r, q = subset.cardinality, subset.ground - subset.cardinality
            rows = h_constraint_rows(subset, f, g)
            inside = Mat.zeros(field, q, r)
            for phi in h_space_basis(subset, f, g).basis:
                inside = mat_add(inside, scale(phi, field.random(rng)))
            for phi in (inside, random_matrix(field, q, r, rng)):
                vec = mat_to_vec(phi)
                by_rows = all(field.is_zero(field.dot(row, vec)) for row in rows)
                assert phi_in_h_space(subset, f, g, phi) == by_rows
                outside += not by_rows
            assert phi_in_h_space(subset, f, g, inside)
        assert outside


class TestIntersectionDim:
    def test_pair_with_explicit_flags(self):
        t = pt(4, [1, 4], [2, 4])
        f1 = Flag.standard(QQ, 2)
        f2 = Flag(QQ, from_ints(QQ, [[1, 0], [1, 1]]))
        g = Flag.standard(QQ, 2)
        assert h_intersection_dim(t, [f1, f2], [g, g]) == 1

    def test_pair_one_dimensional_for_any_flags(self):
        t = pt(4, [1, 4], [2, 3])
        rng = rngmod.spawn(31, 0)
        f1 = Flag.standard(QQ, 2)
        g1 = Flag.standard(QQ, 2)
        for _ in range(10):
            f2 = Flag.random(QQ, 2, rng)
            g2 = Flag.random(QQ, 2, rng)
            assert h_intersection_dim(t, [f1, f2], [g1, g2]) == 1

    def test_parametrized_six_dim_example(self):
        rng = random.Random(77)
        t = pt(6, [3, 4, 6], [2, 4, 5])
        assert t.edim() == 3
        for _ in range(5):
            z21, z31, z32 = (Fraction(rng.randrange(-9, 10)) for _ in range(3))
            u21 = Fraction(rng.randrange(-9, 10))
            u31, u32 = Fraction(rng.randrange(1, 10)), Fraction(rng.randrange(1, 10))
            f1, g1 = Flag.standard(QQ, 3), Flag.standard(QQ, 3)
            f2 = Flag.from_columns(QQ, [[1, z21, z31], [0, 1, z32], [0, 0, 1]])
            g2 = Flag.from_columns(QQ, [[1, u21, u31], [0, 1, u32], [0, 0, 1]])
            assert h_intersection_dim(t, [f1, f2], [g1, g2]) == 3
            phi1 = Mat(QQ, [[-z21 * u32, u32, 0], [-z21 * (u32 * u21 - u31), u32 * u21 - u31, 0], [0, 0, 0]])
            phi2 = Mat(QQ, [[z31 * u32, 0, 0], [z31 * (u32 * u21 - u31), 0, u31], [0, 0, u32 * u31]])
            phi3 = Mat(QQ, [[0, 0, 1], [0, 0, u21], [0, 0, u31]])
            for phi in (phi1, phi2, phi3):
                assert all(
                    phi_in_h_space(sub, ff, gg, phi)
                    for sub, ff, gg in zip(t.parts, [f1, f2], [g1, g2])
                )
            stacked = Mat.from_columns(QQ, [mat_to_vec(p) for p in (phi1, phi2, phi3)])
            assert rank(stacked) == 3

    def test_monotone_bound(self):
        rng = rngmod.spawn(32, 0)
        pyrng = random.Random(99)
        for _ in range(25):
            n = pyrng.randrange(2, 7)
            r = pyrng.randrange(1, n)
            s = pyrng.randrange(2, 4)
            subs = enumerate_subsets(r, n)
            t = PositionTuple(tuple(pyrng.choice(subs) for _ in range(s)))
            fs = [Flag.random(GFP, r, rng) for _ in range(s)]
            gs = [Flag.random(GFP, n - r, rng) for _ in range(s)]
            assert h_intersection_dim(t, fs, gs) >= t.edim()


    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_dimension_matches_kernel_basis(self, field):
        # h_intersection_dim is ncols - rank from the forward pass alone; the
        # kernel basis needs the back pass.  Standard first flags leave
        # zeros in the joint matrix, so its elimination swaps rows.
        rng = rngmod.spawn(36, 0)
        pyrng = random.Random(36)
        for _ in range(20):
            n = pyrng.randrange(3, 7)
            r = pyrng.randrange(1, n)
            s = pyrng.randrange(2, 4)
            subs = enumerate_subsets(r, n)
            t = PositionTuple(tuple(pyrng.choice(subs) for _ in range(s)))
            fs = [Flag.standard(field, r)] + [Flag.random(field, r, rng) for _ in range(s - 1)]
            gs = [Flag.standard(field, n - r)] + [Flag.random(field, n - r, rng) for _ in range(s - 1)]
            joint = Mat(field, [row for k in range(s) for row in h_constraint_rows(t.parts[k], fs[k], gs[k])], r * (n - r))
            basis = kernel_basis(joint)
            assert h_intersection_dim(t, fs, gs) == len(basis)
            assert all(field.is_zero(x) for vec in basis for x in mul_vec(joint, vec))

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_reduced_space_matches_stacked_rank(self, field):
        # h_intersection_dim eliminates only the other parts' constraints on
        # the free slots of one part; it must equal ncols - rank of every
        # part's constraints stacked, generic flags or not
        rng = rngmod.spawn(39, 0)
        pyrng = random.Random(39)

        def rebased(flag, s):
            # one flag in every part, each with its own adapted basis
            n = flag.space_dim
            return [Flag(field, flag.mat.mul(random_upper_triangular(field, n, rng))) for _ in range(s)]

        def flag_modes(r, q, s):
            std = ([Flag.standard(field, r)] * s, [Flag.standard(field, q)] * s)
            same = (rebased(Flag.random(field, r, rng), s), rebased(Flag.random(field, q, rng), s))
            rand = ([Flag.random(field, r, rng) for _ in range(s)], [Flag.random(field, q, rng) for _ in range(s)])
            return std, same, rand

        tuples = [
            pt(4, [1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4]),  # r = n, q = 0
            pt(6, [1, 2, 3], [4, 5, 6], [4, 5, 6]),  # dim I_k0 = 0, edim 0
            pt(4, [3, 4], [3, 4], [2, 4], [1, 3]),  # s = 4, smallest part last
            pt(5, [2, 4], [2, 4], [2, 4]),  # every part has the same dim
        ]
        for _ in range(16):
            n = pyrng.randrange(2, 7)
            r = pyrng.randrange(1, n + 1)
            s = pyrng.randrange(1, 5)
            subs = enumerate_subsets(r, n)
            tuples.append(PositionTuple(tuple(pyrng.choice(subs) for _ in range(s))))
        for t in tuples:
            r, q = t.cardinality, t.ground - t.cardinality
            for fs, gs in flag_modes(r, q, t.s):
                rows = [row for k in range(t.s) for row in h_constraint_rows(t.parts[k], fs[k], gs[k])]
                stacked = Mat(field, rows, r * q)
                assert h_intersection_dim(t, fs, gs) == r * q - rank(stacked), t


class TestTdimEstimate:
    def test_worked_values(self):
        rng = rngmod.spawn(33, 0)
        assert tdim_estimate(pt(4, [1, 4], [2, 4]), GFP, 3, rng) == 1
        assert tdim_estimate(pt(4, [1, 4], [2, 3]), GFP, 3, rng) == 1
        assert tdim_estimate(pt(6, [3, 4, 6], [2, 4, 5]), GFP, 3, rng) == 3

    def test_rational_field_agrees(self):
        rng = rngmod.spawn(33, 1)
        assert tdim_estimate(pt(4, [1, 4], [2, 3]), QQ, 2, rng) == 1

    def test_never_below_edim(self):
        rng = rngmod.spawn(33, 2)
        t = pt(6, [2, 4, 6], [2, 4, 6], [2, 4, 6])
        assert tdim_estimate(t, GFP, 3, rng) >= t.edim()


class TestCertify:
    def test_examples(self):
        assert certify_intersecting(pt(4, [1, 4], [2, 4]), GFP, 3, rngmod.spawn(34, 0)).kind == "intersecting_certified"
        v = certify_intersecting(pt(4, [1, 4], [2, 3]), GFP, 3, rngmod.spawn(34, 1))
        assert v.kind == "not_intersecting_mc"
        assert v.min_observed_dim == 1 > v.edim == 0

    def test_negative_edim_exact(self):
        v = certify_intersecting(pt(4, [1, 2], [1, 2]), GFP, 3, rngmod.spawn(34, 2))
        assert v.kind == "not_intersecting_exact"
        assert v.samples == 0

    def test_full_grassmannian_point(self):
        # r == n: zero-dimensional Hom space, certified immediately
        v = certify_intersecting(pt(3, [1, 2, 3], [1, 2, 3]), GFP, 1, rngmod.spawn(34, 3))
        assert v.intersecting and v.edim == 0

    def test_witness_rechecks(self):
        from horncalc.fields import field_from_tag

        v = certify_intersecting(pt(6, [2, 4, 6], [2, 4, 6], [2, 4, 6]), GFP, 3, rngmod.spawn(34, 4))
        assert v.intersecting
        field = field_from_tag(v.field_tag)
        fs = [Flag(field, Mat(field, [[field.parse(x) for x in row] for row in flag["entries"]], 3))
              for flag in v.witness["source_flags"]]
        gs = [Flag(field, Mat(field, [[field.parse(x) for x in row] for row in flag["entries"]], 3))
              for flag in v.witness["target_flags"]]
        t = pt(6, [2, 4, 6], [2, 4, 6], [2, 4, 6])
        assert h_intersection_dim(t, fs, gs) == t.edim()

    def test_rng_stream_pinned(self):
        # one stream per field through three calls: a non-member, an edim-2 member and an
        # r = 3 member.  Flag.random redraws singular matrices, often over GF(2) and GF(3),
        # so any change in the draws a sample consumes moves the later witnesses.
        with open(os.path.join(os.path.dirname(__file__), "certify_stream.json")) as fh:
            expected = json.load(fh)
        calls = [pt(4, [1, 4], [2, 3]), pt(4, [2, 4], [2, 4]), pt(6, [2, 4, 6], [2, 4, 6], [2, 4, 6])]
        for i, field in enumerate([PrimeField(2), PrimeField(3), QQ, SQRT5]):
            rng = rngmod.spawn(23, i)
            got = [certify_intersecting(t, field, 3, rng).to_json() for t in calls]
            assert got == expected[field.name], field.name

    def test_agrees_with_recursion_small_grid(self, cache):
        import itertools

        count = 0
        for parts in itertools.product(enumerate_subsets(2, 4), repeat=2):
            t = PositionTuple(parts)
            member = horn_member(t, cache).member
            v = certify_intersecting(t, GFP, 3, rngmod.spawn(35, count))
            assert v.intersecting == member
            count += 1


class TestSamplingBudget:
    # ([1..r], [r+1..2r], [r+1..2r]) has edim 0 and an r^2 x r^2 stacked joint
    # matrix, but its first part has no free slots: the reduced matrix is empty
    @staticmethod
    def square_tuple(r):
        return pt(2 * r, list(range(1, r + 1)), list(range(r + 1, 2 * r + 1)), list(range(r + 1, 2 * r + 1)))

    # three parts {13..30} of [36] (r = 18): dim 216 each, edim 0, and a
    # reduced matrix of 2 x 108 rows over 216 columns
    WIDE = pt(36, *[list(range(13, 31))] * 3)

    def test_over_budget_raises_before_any_draw(self):
        # the cap lies between 196^3 and 225^3; one sample of WIDE eliminates 216^3 cells
        assert 196 ** 3 <= MAX_ELIM_CELLS < 225 ** 3
        assert 216 ** 3 > MAX_ELIM_CELLS
        t = self.WIDE
        for call in (
            lambda rng: certify_intersecting(t, GFP, 3, rng),
            lambda rng: tdim_estimate(t, QQ, 1, rng),
        ):
            rng = rngmod.spawn(37, 0)
            state = rng.getstate()
            with pytest.raises(BudgetError):
                call(rng)
            assert rng.getstate() == state

    def test_samples_count_against_the_budget(self):
        # per sample at r = q = 2, s = 2: 2 x 2 x 2 cells of elimination and 2 (8 + 8) of flags
        t = pt(4, [1, 4], [2, 3])
        assert tdim_estimate(t, GFP, 3, rngmod.spawn(38, 0)) >= 0
        for samples in (10**6, 10**9):
            rng = rngmod.spawn(38, 0)
            state = rng.getstate()
            with pytest.raises(BudgetError, match=f"{samples} samples of 40 elimination cells each"):
                tdim_estimate(t, GFP, samples, rng)
            assert rng.getstate() == state

    def test_cells_weighed_by_field(self):
        # 25,000 samples of 40 cells fit the budget over GF(p), not over Q or Q(sqrt5)
        t = pt(4, [1, 4], [2, 3])
        check_elim_cells(GFP, 25000 * 40, "")
        for field, cost in ((QQ, 40), (SQRT5, 256)):
            rng = rngmod.spawn(38, 0)
            state = rng.getstate()
            total = 25000 * 40 * cost
            with pytest.raises(BudgetError, match=rf"25000 samples .* at {cost} GF\(p\) cells each over .*, {total} GF"):
                tdim_estimate(t, field, 25000, rng)
            assert rng.getstate() == state
        # a 0 x 0 tangent map still draws and inverts three 44 x 44 matrices
        empty = PositionTuple.from_lists(44, [[], [], []])
        check_delta_budget(empty, GFP)
        with pytest.raises(BudgetError, match="255552 elimination cells at 40"):
            check_delta_budget(empty, QQ)

    def test_empty_reduced_matrix_is_admitted(self):
        # the stacked matrix of the r = 15 square tuple is 450 x 225, the reduced one 450 x 0
        verdict = certify_intersecting(self.square_tuple(15), GFP, 3, rngmod.spawn(39, 0))
        assert verdict.kind == "intersecting_certified" and verdict.min_observed_dim == 0


class TestKernelCompositionCompatibility:
    def test_induced_injection_lands_in_quotient_space(self):
        # a map in H_I with kernel S induces a map in H_{I/J} on the quotient
        rng = rngmod.spawn(36, 0)
        pyrng = random.Random(5)
        f = Flag.standard(QQ, 3)
        trials = 0
        while trials < 20:
            n, r = 7, 3
            subset = CardSubset(n, tuple(sorted(pyrng.sample(range(1, n + 1), r))))
            ff = Flag.random(QQ, r, rng)
            gg = Flag.random(QQ, n - r, rng)
            basis = h_space_basis(subset, ff, gg)
            if basis.dim == 0:
                continue
            coeffs = [QQ.random(rng) for _ in basis.basis]
            phi = Mat.zeros(QQ, n - r, r)
            for c, b in zip(coeffs, basis.basis):
                phi = mat_add(phi, scale(b, c))
            ker = kernel_basis(phi)
            if not ker:
                continue
            trials += 1
            s = SubspaceBasis(QQ, Mat.from_columns(QQ, ker, r))
            j = position(s, ff)
            quot = induced_flag_on_quotient(ff, s)
            phi_bar = phi.mul(quot.complement_cols)
            assert phi_in_h_space(subset.quotient(j), quot.flag, gg, phi_bar)


class TestDelta:
    def test_preconditions(self):
        rng = rngmod.spawn(37, 0)
        t = pt(4, [1, 4], [2, 4])  # edim 1
        gs = [Flag.random(QQ, 2, rng).mat for _ in range(2)]
        hs = [Flag.random(QQ, 2, rng).mat for _ in range(2)]
        with pytest.raises(DomainError):
            delta_determinant(t, gs, hs)
        t0 = pt(4, [1, 4], [2, 3])
        singular = from_ints(QQ, [[1, 2], [2, 4]])
        for g_vec, h_vec in [([singular, gs[1]], hs), (gs, [hs[0], singular])]:
            with pytest.raises(DomainError, match="matrix is singular"):
                delta_determinant(t0, g_vec, h_vec)
        with pytest.raises(ShapeError):
            delta_determinant(t0, gs, [Mat.identity(PrimeField(7), 2), hs[1]])

    def test_zero_for_non_intersecting(self):
        rng = rngmod.spawn(37, 1)
        t = pt(4, [1, 4], [2, 3])
        for _ in range(20):
            gs = [Flag.random(QQ, 2, rng).mat for _ in range(2)]
            hs = [Flag.random(QQ, 2, rng).mat for _ in range(2)]
            assert delta_determinant(t, gs, hs) == 0

    def test_nonzero_generically_for_intersecting(self):
        rng = rngmod.spawn(37, 2)
        for t in (pt(6, [2, 4, 6], [2, 4, 6], [2, 4, 6]), pt(3, [1, 2], [2, 3], [2, 3])):
            r, q = t.cardinality, t.ground - t.cardinality
            found = False
            for _ in range(5):
                gs = [Flag.random(QQ, r, rng).mat for _ in range(t.s)]
                hs = [Flag.random(QQ, q, rng).mat for _ in range(t.s)]
                if delta_determinant(t, gs, hs) != 0:
                    found = True
                    break
            assert found

    def test_nonzero_iff_joint_space_trivial(self):
        # the determinant vanishes exactly when the joint kernel is nonzero
        rng = rngmod.spawn(37, 3)
        t = pt(3, [1, 2], [2, 3], [2, 3])
        for _ in range(10):
            gs = [Flag.random(QQ, 2, rng).mat for _ in range(3)]
            hs = [Flag.random(QQ, 1, rng).mat for _ in range(3)]
            fs = [Flag(QQ, g) for g in gs]
            gflags = [Flag(QQ, h) for h in hs]
            d = delta_determinant(t, gs, hs)
            joint = h_intersection_dim(t, fs, gflags)
            assert (d != 0) == (joint == 0)


def _chi(subset_weight, b):
    return borel_character(subset_weight, b)


class TestEquivariance:
    def test_hom_base_change_determinant(self):
        rng = rngmod.spawn(38, 0)
        for r, q in ((2, 3), (3, 2), (2, 2)):
            g = Flag.random(QQ, r, rng).mat
            h = Flag.random(QQ, q, rng).mat
            m = hom_conjugation_matrix(g, h)
            assert det(m) == det(g) ** (-q) * det(h) ** r

    def test_hom_base_change_shape_errors(self):
        g = Mat.identity(QQ, 2)
        for h in (from_ints(QQ, [[1, 0], [0, 1], [1, 1]]), Mat.zeros(QQ, 2, 3), Mat.identity(GFP, 2)):
            with pytest.raises(ShapeError):
                hom_conjugation_matrix(g, h)
        with pytest.raises(ShapeError):
            hom_conjugation_matrix(Mat.zeros(QQ, 2, 3), Mat.identity(QQ, 2))

    @pytest.mark.parametrize(
        "tuple_lists,n",
        [([[2, 4, 6]] * 3, 6), ([[1, 2], [2, 3], [2, 3]], 3)],
        ids=["n6", "n3"],
    )
    def test_right_borel(self, tuple_lists, n):
        rng = rngmod.spawn(38, 1)
        t = PositionTuple.from_lists(n, tuple_lists)
        r, q = t.cardinality, t.ground - t.cardinality
        for _ in range(3):
            gs = [Flag.random(QQ, r, rng).mat for _ in range(t.s)]
            hs = [Flag.random(QQ, q, rng).mat for _ in range(t.s)]
            base = delta_determinant(t, gs, hs)
            bs = [random_upper_triangular(QQ, r, rng) for _ in range(t.s)]
            bps = [random_upper_triangular(QQ, q, rng) for _ in range(t.s)]
            lhs = delta_determinant(t, [g.mul(b) for g, b in zip(gs, bs)], [h.mul(bp) for h, bp in zip(hs, bps)])
            factor = Fraction(1)
            for subset, b, bp in zip(t.parts, bs, bps):
                factor *= _chi(subset.lambda_weight(), b)
                factor *= _chi(subset.complement().lambda_weight().shift(r), bp)
            assert lhs == base * factor

    @pytest.mark.parametrize(
        "tuple_lists,n",
        [([[2, 4, 6]] * 3, 6), ([[1, 2], [2, 3], [2, 3]], 3)],
        ids=["n6", "n3"],
    )
    def test_diagonal(self, tuple_lists, n):
        rng = rngmod.spawn(38, 2)
        t = PositionTuple.from_lists(n, tuple_lists)
        r, q = t.cardinality, t.ground - t.cardinality
        s = t.s
        for _ in range(3):
            gs = [Flag.random(QQ, r, rng).mat for _ in range(s)]
            hs = [Flag.random(QQ, q, rng).mat for _ in range(s)]
            base = delta_determinant(t, gs, hs)
            g = Flag.random(QQ, r, rng).mat
            h = Flag.random(QQ, q, rng).mat
            gi, hi = inverse(g), inverse(h)
            lhs = delta_determinant(t, [gi.mul(gk) for gk in gs], [hi.mul(hk) for hk in hs])
            assert lhs == det(g) ** (-q * (1 - s)) * det(h) ** (r * (1 - s)) * base


class TestBorelCharacter:
    def test_zero_weight(self):
        b = from_ints(QQ, [[2, 5], [0, 3]])
        assert borel_character(Weight((0, 0)), b) == 1

    def test_diagonal_torus(self):
        b = from_ints(QQ, [[2, 0], [0, 3]])
        assert borel_character(Weight((2, -1)), b) == Fraction(4, 3)

    def test_unipotent(self):
        b = from_ints(QQ, [[1, 7], [0, 1]])
        assert borel_character(Weight((5, -3)), b) == 1

    def test_rejects_non_triangular(self):
        b = from_ints(QQ, [[1, 0], [1, 1]])
        with pytest.raises(DomainError):
            borel_character(Weight((1, 0)), b)
