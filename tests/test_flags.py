import itertools
import random
import time

import pytest

from horncalc import rng as rngmod
from horncalc.errors import BudgetError, DomainError, ShapeError
from horncalc.fields import DEFAULT_PRIME, QQ, SQRT5, PrimeField
from horncalc.flags import (
    Flag,
    SubspaceBasis,
    cell_normal_basis,
    induced_flag_on_quotient,
    induced_flag_on_subspace,
    position,
    sample_cell_point,
)
from horncalc.hn import gaussian_binomial, hn_minimizer_exhaustive
from horncalc.matrices import Mat, rank, solve_exact
from horncalc.subsets import CardSubset, PositionTuple, Weight, enumerate_subsets, slope
from helpers import (
    from_ints,
    is_zero_matrix,
    project_subspace,
    random_upper_triangular,
    rref_subspaces,
    transpose,
)
from test_fields_matrices import _reference_rref

GF7 = PrimeField(7)


def position_by_rank_formula(sub: SubspaceBasis, flag: Flag) -> CardSubset:
    """Independent oracle: jump indices of dim(E(j) cap S) via rank counts."""
    n, d = flag.space_dim, sub.dim
    jumps = []
    prev = 0
    for j in range(1, n + 1):
        stacked = flag.mat.take_columns(list(range(j))).hstack(sub.mat)
        dim_meet = j + d - rank(stacked)
        if dim_meet > prev:
            jumps.append(j)
            prev = dim_meet
    return CardSubset(n, tuple(jumps))


def normal_form_by_reference_rref(f, sub_cols, flag_mat):
    """Independent oracle: position and cell normal form from the RREF pivots.

    Flag coordinates come from reducing [flag | subspace]; the position is
    the pivots of the RREF of those columns read bottom to top.  Returns
    None when the columns are dependent.
    """
    n = flag_mat.nrows
    aug, _ = _reference_rref(f, [row + [c[i] for c in sub_cols] for i, row in enumerate(flag_mat.rows)], n + len(sub_cols))
    coords = [[aug[i][n + a] for i in range(n)] for a in range(len(sub_cols))]
    red, pivots = _reference_rref(f, [c[::-1] for c in coords], n)
    if len(pivots) < len(sub_cols):
        return None
    pos = CardSubset(n, tuple(n - c for c in reversed(pivots)))
    return pos, Mat.from_columns(f, [row[::-1] for row in reversed(red)], n)


def example_flag():
    cols = [[1, 1, 1, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    return Flag(QQ, transpose(from_ints(QQ, cols)))


class TestPosition:
    def test_worked_example(self):
        e = example_flag()
        v = SubspaceBasis(QQ, from_ints(QQ, [[1, 0], [0, 1], [0, 0], [0, 0]]))
        assert position(v, e).elements == (2, 4)
        assert position(v, Flag.standard(QQ, 4)).elements == (1, 2)

    def test_whole_space(self):
        e = example_flag()
        w = SubspaceBasis(QQ, Mat.identity(QQ, 4))
        assert position(w, e).elements == (1, 2, 3, 4)

    def test_zero_subspace(self):
        e = example_flag()
        z = SubspaceBasis(QQ, Mat.zeros(QQ, 4, 0))
        assert position(z, e).elements == ()

    @pytest.mark.parametrize("field", [QQ, GF7], ids=["rational", "gf7"])
    def test_against_rank_formula_oracle(self, field):
        rng = rngmod.spawn(10, hash(field.name) % 1000)
        for trial in range(40):
            n = rng.randrange(1, 8)
            d = rng.randrange(0, n + 1)
            flag = Flag.random(field, n, rng)
            cols = []
            while True:
                m = Mat(field, [[field.random(rng) for _ in range(d)] for _ in range(n)], d)
                if rank(m) == d:
                    break
            sub = SubspaceBasis(field, m)
            assert position(sub, flag) == position_by_rank_formula(sub, flag)

    @pytest.mark.parametrize(
        "field", [PrimeField(2), GF7, PrimeField(2147483647), QQ, SQRT5], ids=lambda f: f.name
    )
    def test_against_reference_rref_oracle(self, field):
        # position reads the pivots of the forward pass; cell_normal_basis
        # also needs the back pass.  On odd trials the flag is upper
        # triangular and column a of the subspace ends in d - 1 - a zeros, so
        # the bottom-to-top reduction needs a row swap at its first column.
        rng = rngmod.spawn(14, 0)
        checked = 0
        for trial in range(60):
            n = rng.randrange(1, 8)
            d = rng.randrange(1, n + 1)
            zeros = trial % 2
            if zeros:
                flag = Flag(field, random_upper_triangular(field, n, rng))
            else:
                flag = Flag.random(field, n, rng)
            cols = [
                [field.zero if zeros and i >= n - (d - 1 - a) else field.random(rng) for i in range(n)]
                for a in range(d)
            ]
            expected = normal_form_by_reference_rref(field, cols, flag.mat)
            if expected is None:
                continue
            sub = SubspaceBasis(field, Mat.from_columns(field, cols, n))
            assert position(sub, flag) == expected[0]
            assert cell_normal_basis(sub, flag) == expected
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), QQ], ids=["gf2", "gf3", "rational"])
    def test_partial_permutations_under_triangular_flags(self, field):
        # an upper-triangular adapted basis gives the standard flag, where the
        # span of the unit vectors at rows R sits at R + 1; in its coordinates
        # the pivot search must take the last unused row, not the first
        rng = rngmod.spawn(16, 0)
        for n in range(1, 6):
            for d in range(n + 1):
                for rows in itertools.permutations(range(n), d):
                    cols = [[field.one if i == j else field.zero for i in range(n)] for j in rows]
                    sub = SubspaceBasis(field, Mat.from_columns(field, cols, n))
                    flag = Flag(field, random_upper_triangular(field, n, rng))
                    assert position(sub, flag).elements == tuple(sorted(i + 1 for i in rows))

    def test_shape_error(self):
        e = example_flag()
        with pytest.raises(ShapeError):
            position(SubspaceBasis(QQ, from_ints(QQ, [[1], [0], [0]])), e)

    @pytest.mark.parametrize("field", [QQ, GF7], ids=["rational", "gf7"])
    def test_cell_normal_form(self, field):
        # column a has entry one at its pivot row, zeros below it and zeros
        # at every other pivot row, and spans the subspace in flag coordinates
        rng = rngmod.spawn(11, 0)
        for _ in range(40):
            n = rng.randrange(1, 8)
            d = rng.randrange(1, n + 1)
            flag = Flag.random(field, n, rng)
            m = Mat(field, [[field.random(rng) for _ in range(d)] for _ in range(n)], d)
            if rank(m) < d:
                continue
            pos, normal = cell_normal_basis(SubspaceBasis(field, m), flag)
            assert pos == position_by_rank_formula(SubspaceBasis(field, m), flag)
            pivot_rows = [j - 1 for j in pos.elements]
            for a, p in enumerate(pivot_rows):
                col = normal.col(a)
                assert col[p] == field.one
                assert all(field.is_zero(x) for x in col[p + 1:])
                assert all(field.is_zero(col[q]) for q in pivot_rows if q != p)
            assert rank(flag.inv().mul(m).hstack(normal)) == d


class TestInducedSubspaceFlag:
    def test_prefix_subspace_gives_identity_chain(self):
        rng = rngmod.spawn(11, 0)
        e = Flag.random(QQ, 5, rng)
        v = SubspaceBasis(QQ, e.mat.take_columns([0, 1, 2]))
        induced = induced_flag_on_subspace(e, v)
        # prefix columns of E expressed in themselves: unit triangular chain
        for j in range(3):
            col = induced.mat.col(j)
            assert all(QQ.is_zero(col[i]) for i in range(j + 1, 3))

    def test_worked_example_up_to_scale(self):
        e = example_flag()
        v = SubspaceBasis(QQ, from_ints(QQ, [[1, 0], [0, 1], [0, 0], [0, 0]]))
        induced = induced_flag_on_subspace(e, v)
        # chain is span(e1) inside span(e1, e2), i.e. first column ~ e1,
        # second spans the rest: here (e1, e1+e2) up to scale
        c1, c2 = induced.mat.col(0), induced.mat.col(1)
        assert c1[1] == 0 and c1[0] != 0
        assert c2[1] != 0

    def test_chain_rule(self):
        # position(S, E) == compose(position(V, E), position(S, E^V))
        for field, seed in ((QQ, 1), (GF7, 2)):
            rng = rngmod.spawn(12, seed)
            for trial in range(40):
                n = rng.randrange(2, 9)
                r = rng.randrange(1, n + 1)
                d = rng.randrange(1, r + 1)
                e = Flag.random(field, n, rng)
                v = _random_subspace(field, n, r, rng)
                s_in_v = _random_subspace(field, r, d, rng)
                s = SubspaceBasis(field, v.mat.mul(s_in_v.mat))
                ev = induced_flag_on_subspace(e, v)
                lhs = position(s, e)
                rhs = position(v, e).compose(position(s_in_v, ev))
                assert lhs == rhs


def _random_subspace(field, n, d, rng):
    while True:
        m = Mat(field, [[field.random(rng) for _ in range(d)] for _ in range(n)], d)
        if rank(m) == d:
            return SubspaceBasis(field, m)


class TestQuotientFlag:
    def test_standard_prefix(self):
        e = Flag.standard(QQ, 5)
        v = SubspaceBasis(QQ, e.mat.take_columns([0, 1]))
        q = induced_flag_on_quotient(e, v)
        assert q.complement_cols == e.mat.take_columns([2, 3, 4])
        assert q.flag.mat == Mat.identity(QQ, 3)
        # the standard flag is handed its inverse, so none is eliminated
        for f in (PrimeField(2), QQ, SQRT5):
            for n in range(5):
                flag = Flag.standard(f, n)
                assert flag.inv() == Mat.identity(f, n)
                assert not any(a is b for a, b in zip(flag.inv().rows, flag.mat.rows))

    def test_complement_columns_follow_position(self):
        e = example_flag()
        v = SubspaceBasis(QQ, from_ints(QQ, [[1, 0], [0, 1], [0, 0], [0, 0]]))
        q = induced_flag_on_quotient(e, v)
        # position is {2,4}, so the complement is spanned by columns 1 and 3
        assert q.pos.elements == (2, 4)
        assert q.complement_cols == e.mat.take_columns([0, 2])

    def test_quotient_rule(self):
        # position(V/S, E_{W/S}) == quotient(position(V, E), position(S, E^V))
        for field, seed in ((QQ, 3), (GF7, 4)):
            rng = rngmod.spawn(13, seed)
            for trial in range(40):
                n = rng.randrange(2, 9)
                r = rng.randrange(1, n + 1)
                d = rng.randrange(1, r + 1)
                e = Flag.random(field, n, rng)
                v = _random_subspace(field, n, r, rng)
                s_in_v = _random_subspace(field, r, d, rng)
                s = SubspaceBasis(field, v.mat.mul(s_in_v.mat))
                ev = induced_flag_on_subspace(e, v)
                quot = induced_flag_on_quotient(e, s)
                image = project_subspace(quot, v)
                lhs = position(image, quot.flag)
                rhs = position(v, e).quotient(position(s_in_v, ev))
                assert lhs == rhs

    def test_projection_kills_the_subspace(self):
        rng = rngmod.spawn(14, 0)
        e = Flag.random(QQ, 6, rng)
        s = _random_subspace(QQ, 6, 2, rng)
        q = induced_flag_on_quotient(e, s)
        assert is_zero_matrix(q.project_matrix(s.mat))


class TestCellSampling:
    def test_point_cell(self):
        e = example_flag()
        full = CardSubset(4, (1, 2, 3))
        sub = sample_cell_point(full, e, rngmod.spawn(15, 0))
        # the cell at {1..r} is the single point E(r)
        assert position(sub, e) == full
        coords = cell_normal_basis(sub, e)[1]
        for j in range(3):
            col = coords.col(j)
            assert col[j] == 1 and all(QQ.is_zero(col[i]) for i in range(4) if i != j)

    def test_standard_flag_pattern(self):
        sub = sample_cell_point(CardSubset(4, (1, 3, 4)), Flag.standard(QQ, 4), rngmod.spawn(15, 1))
        m = sub.mat
        # span of e1, *e2+e3, *e2+e4
        assert m.col(0) == [1, 0, 0, 0]
        assert m.col(1)[2] == 1 and m.col(1)[0] == 0 and m.col(1)[3] == 0
        assert m.col(2)[3] == 1 and m.col(2)[0] == 0 and m.col(2)[2] == 0

    @pytest.mark.parametrize("field", [QQ, GF7], ids=["rational", "gf7"])
    def test_postcondition_all_subsets(self, field):
        rng = rngmod.spawn(16, 0)
        for n in (4, 5):
            flag = Flag.random(field, n, rng)
            for r in range(1, n + 1):
                for subset in enumerate_subsets(r, n):
                    sample = sample_cell_point(subset, flag, rng)
                    assert position(sample, flag) == subset

    @pytest.mark.parametrize(
        "field", [PrimeField(2), GF7, PrimeField(DEFAULT_PRIME), QQ, SQRT5], ids=lambda f: f.name
    )
    def test_matches_shuffle_reference(self, field):
        # reference: F W^{-1} U, with U's column a equal to e_a plus draws at
        # rows r + b, b <= I(a) - a, and W^{-1} sending e_a to e_{sigma(a)},
        # sigma = I followed by its complement
        rng = rngmod.spawn(18, 0)
        pyrng = random.Random(18)
        for _ in range(15):
            n = pyrng.randrange(1, 7)
            r = pyrng.randrange(0, n + 1)
            subset = CardSubset(n, tuple(sorted(pyrng.sample(range(1, n + 1), r))))
            for flag in (Flag.standard(field, n), Flag.random(field, n, rng)):
                ref_rng = random.Random()
                ref_rng.setstate(rng.getstate())
                cols = []
                for a, ia in enumerate(subset.elements, start=1):
                    col = [field.zero] * n
                    col[a - 1] = field.one
                    for b in range(1, ia - a + 1):
                        col[r + b - 1] = field.random(ref_rng)
                    cols.append(col)
                w_inv = Mat.zeros(field, n, n)
                for a, sa in enumerate(subset.shuffle_permutation(), start=1):
                    w_inv.rows[sa - 1][a - 1] = field.one
                chart = w_inv.mul(Mat.from_columns(field, cols, n))
                sample = sample_cell_point(subset, flag, rng)
                assert sample.mat == flag.mat.mul(chart)
                assert rng.getstate() == ref_rng.getstate()
                if r:
                    # the chart columns are the sample's cell normal form
                    assert cell_normal_basis(sample, flag)[1] == chart

    def test_degeneration_moves_down(self):
        # zeroing a free entry lands in a cell with entrywise smaller position
        rng = rngmod.spawn(17, 0)
        flag = Flag.standard(QQ, 6)
        subset = CardSubset(6, (3, 5, 6))
        for _ in range(10):
            sample = sample_cell_point(subset, flag, rng)
            m = sample.mat.rows
            # zero out the whole free part of one column
            col = rng.randrange(3)
            zeroed = [[(QQ.zero if j == col and i >= 3 else x) for j, x in enumerate(row)] for i, row in enumerate(m)]
            degenerate = SubspaceBasis(QQ, Mat(QQ, zeroed, 3))
            pos = position(degenerate, flag)
            assert all(a <= b for a, b in zip(pos.elements, subset.elements))


class TestSubspaceEnumeration:
    def test_counts_match_gaussian_binomials(self):
        for q in (2, 3):
            field = PrimeField(q)
            for r in (2, 3, 4):
                for d in range(1, r + 1):
                    subs = list(rref_subspaces(field, r, d))
                    assert len(subs) == gaussian_binomial(r, d, q)
                    # canonical echelon bases are pairwise distinct
                    keys = {tuple(tuple(row) for row in s.mat.rows) for s in subs}
                    assert len(keys) == len(subs)

    def test_budget(self):
        field = PrimeField(31)
        flags = [Flag.standard(field, 5)]
        with pytest.raises(BudgetError):
            hn_minimizer_exhaustive(flags, [Weight((0,) * 5)], budget=10)


class TestHarderNarasimhan:
    def test_zero_weights_full_space(self):
        field = PrimeField(3)
        rng = rngmod.spawn(18, 0)
        flags = [Flag.random(field, 3, rng) for _ in range(2)]
        res = hn_minimizer_exhaustive(flags, [Weight((0, 0, 0))] * 2)
        assert res.slope == 0
        assert res.minimizer.dim == 3
        assert res.multiplicity == 1

    def test_two_dim_example(self):
        field = PrimeField(2)
        res = hn_minimizer_exhaustive([Flag.standard(field, 2)], [Weight((-1, 1))])
        assert res.slope == -1
        assert res.multiplicity == 1
        assert res.minimizer.mat.rows == [[1], [0]]

    def test_minimizer_attains_reported_slope(self):
        field = PrimeField(3)
        rng = rngmod.spawn(18, 1)
        for trial in range(10):
            flags = [Flag.random(field, 3, rng) for _ in range(3)]
            thetas = [Weight(tuple(sorted(rng.randrange(-4, 5) for _ in range(3)))) for _ in range(3)]
            res = hn_minimizer_exhaustive(flags, thetas)
            pos = PositionTuple(tuple(position(res.minimizer, fl) for fl in flags))
            assert slope(pos, thetas) == res.slope
            assert res.multiplicity == 1

    def test_antidominance_required(self):
        field = PrimeField(2)
        with pytest.raises(DomainError):
            hn_minimizer_exhaustive([Flag.standard(field, 2)], [Weight((1, -1))])

    def test_rational_field_rejected(self):
        with pytest.raises(DomainError):
            hn_minimizer_exhaustive([Flag.standard(QQ, 2)], [Weight((0, 0))])

    def test_zero_space_rejected(self):
        # GF(q)^0 has no nonzero subspace, so there is no minimizer to report
        with pytest.raises(DomainError):
            hn_minimizer_exhaustive([Flag.standard(PrimeField(2), 0)], [Weight(())])

    @staticmethod
    def reference_scan(flags, thetas):
        """The scan by definition: position and slope of every subspace in enumeration order."""
        field, r = flags[0].field, flags[0].space_dim
        best_key = best = None
        multiplicity = scanned = 0
        for d in range(1, r + 1):
            for sub in rref_subspaces(field, r, d):
                scanned += 1
                key = (slope(PositionTuple(tuple(position(sub, fl) for fl in flags)), thetas), -d)
                if best_key is None or key < best_key:
                    best_key, best, multiplicity = key, sub, 1
                elif key == best_key:
                    multiplicity += 1
        return best.mat.rows, best_key[0], multiplicity, scanned

    def test_matches_reference_scan(self):
        # random, all-zero and two-valued weights; the zero and two-valued
        # ones tie subspaces within a dimension and across dimensions, where
        # the larger dimension must win.  (Antidominant weights have a unique
        # optimum, the Harder-Narasimhan lemma, so multiplicity stays 1.)
        rnd = random.Random(20)
        for q in (2, 3, 5, 7):
            field = PrimeField(q)
            for r in range(1, 5):
                for s in range(1, 5):
                    mode = (q + r + s) % 3
                    if mode == 0:
                        thetas = [Weight(sorted(rnd.randrange(-4, 5) for _ in range(r))) for _ in range(s)]
                    elif mode == 1:
                        thetas = [Weight((0,) * r)] * s
                    else:
                        thetas = [Weight(sorted(rnd.choice((-1, 1)) for _ in range(r))) for _ in range(s)]
                    flags = [Flag.random(field, r, rnd) for _ in range(s)]
                    res = hn_minimizer_exhaustive(flags, thetas)
                    got = (res.minimizer.mat.rows, res.slope, res.multiplicity, res.scanned)
                    assert got == self.reference_scan(flags, thetas), (q, r, s, mode)

    @pytest.mark.parametrize("r, q", [(1, 2**31 - 1), (2, 997)])
    def test_large_field_needs_no_field_sized_table(self, r, q):
        # the scan's cost follows the subspaces it visits (1 and 999 here), not q
        field = PrimeField(q)
        flags = [Flag.random(field, r, random.Random(22)) for _ in range(3)]
        start = time.perf_counter()
        res = hn_minimizer_exhaustive(flags, [Weight((-1,) + (0,) * (r - 1))] * 3)
        assert time.perf_counter() - start < 1
        assert res.scanned == (1 if r == 1 else q + 2) and res.multiplicity == 1


def test_subspace_in_coordinates_roundtrip():
    rng = rngmod.spawn(19, 0)
    v = _random_subspace(QQ, 6, 3, rng)
    s_in_v = _random_subspace(QQ, 3, 2, rng)
    s = SubspaceBasis(QQ, v.mat.mul(s_in_v.mat))
    coords = SubspaceBasis(v.field, solve_exact(v.mat, s.mat))
    assert v.mat.mul(coords.mat) == s.mat
