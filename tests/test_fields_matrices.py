import itertools
from fractions import Fraction

import pytest

from horncalc import rng as rngmod
from horncalc.errors import DomainError, ShapeError
from horncalc.fields import (
    DEFAULT_PRIME,
    QQ,
    SQRT5,
    PrimeField,
    RationalField,
    Sqrt5,
    Sqrt5Field,
    field_from_tag,
    is_prime,
)
from horncalc.flags import Flag
from horncalc.matrices import (
    Mat,
    _eliminate,
    det,
    inverse,
    kernel_basis,
    random_matrix,
    rank,
    rref,
    solve_exact,
)
from horncalc.tangent import _forward_rows
from helpers import from_ints, mul_vec, random_upper_triangular


class TestPrimality:
    def test_small(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_default_modulus(self):
        assert is_prime(2147483647)

    def test_composites(self):
        for n in (0, 1, 4, 561, 2147483647 * 3, 2 ** 31):
            assert not is_prime(n)

    def test_carmichael(self):
        assert not is_prime(341550071728321)

    def test_psi12_strong_pseudoprime_rejected(self):
        # strong pseudoprime to the twelve prime bases 2..37 (Sorenson-Webster)
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert not is_prime(psi12)

    def test_beyond_exact_range_raises(self):
        # psi_13, the bound below which the bases 2..41 are exact
        with pytest.raises(DomainError):
            is_prime(3317044064679887385961981)
        with pytest.raises(DomainError):
            PrimeField(2 ** 127 - 1)


def _field_axioms(field, rng, samples=50):
    for _ in range(samples):
        a, b, c = (field.random(rng) for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if not field.is_zero(b):
            assert field.mul(field.div(a, b), b) == a


def test_field_axioms_all_fields():
    rng = rngmod.spawn(1, 0)
    _field_axioms(QQ, rng)
    _field_axioms(PrimeField(7), rng)
    _field_axioms(PrimeField(2147483647), rng)
    _field_axioms(SQRT5, rng)


def test_division_by_zero_rejected():
    # the message names the field
    with pytest.raises(ZeroDivisionError, match=r"^division by zero in QQ$"):
        QQ.div(QQ.one, QQ.zero)
    with pytest.raises(ZeroDivisionError, match=r"^division by zero in GF\(5\)$"):
        PrimeField(5).div(1, 0)
    with pytest.raises(ZeroDivisionError, match=r"^division by zero in Q\(sqrt5\)$"):
        SQRT5.div(SQRT5.one, SQRT5.zero)


@pytest.mark.parametrize("p", [2, 3, 7, 2147483647])
def test_prime_division_matches_fermat(p):
    f = PrimeField(p)
    rng = rngmod.spawn(13, p % 1000)
    if p < 10:
        pairs = [(a, b) for a in range(p) for b in range(1, p)]
    else:
        pairs = [(rng.randrange(p), rng.randrange(1, p)) for _ in range(300)]
    # unreduced and negative representatives divide like their residues
    pairs += [(a + 3 * p, b - 5 * p) for a, b in pairs[:20]]
    for a, b in pairs:
        assert f.div(a, b) == a * pow(b, p - 2, p) % p
    for zero in (0, p, -2 * p):
        with pytest.raises(ZeroDivisionError):
            f.div(1, zero)


def test_nonprime_modulus_rejected():
    with pytest.raises(DomainError):
        PrimeField(10)


class TestSqrt5:
    def test_inverse_by_conjugate(self):
        x = Sqrt5(Fraction(3, 2), Fraction(-1, 3))
        assert x * x.inverse() == Sqrt5(1)

    def test_sqrt5_squares_to_five(self):
        s5 = Sqrt5(0, 1)
        assert s5 * s5 == Sqrt5(5)

    def test_compares_and_hashes_like_the_number_it_equals(self):
        assert Sqrt5(3) == 3 == Sqrt5(3) and Sqrt5(Fraction(1, 2)) == Fraction(1, 2) == Sqrt5(Fraction(1, 2))
        assert Sqrt5(3, 1) != 3 and Sqrt5(3) != 4 and Sqrt5(3) != Sqrt5(3, 1)
        assert hash(Sqrt5(3)) == hash(3) and hash(Sqrt5(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert len({Sqrt5(3), 3, Fraction(3)}) == 1 and len({Sqrt5(3, 1), 3}) == 2
        for other in (None, "x", 1.0, (1, 0)):  # not a Sqrt5, an int or a Fraction: never equal
            assert Sqrt5(1).__eq__(other) is NotImplemented
            assert Sqrt5(1) != other and not Sqrt5(1) == other

    def test_parse_format_roundtrip(self):
        for text in ("3", "-2/7", "1+2*s5", "-1/2-3/4*s5", "0+1*s5"):
            x = SQRT5.parse(text)
            assert SQRT5.parse(SQRT5.format(x)) == x

    def test_parse_garbage(self):
        with pytest.raises(DomainError):
            SQRT5.parse("s5+1")


def test_field_tags_roundtrip():
    for field in (QQ, SQRT5, PrimeField(101)):
        assert field_from_tag(field.to_json_tag()) == field


def test_field_identity():
    # fields are equal by kind (and modulus), hash alike when equal, and
    # show as their repr and JSON tag
    assert QQ == RationalField() and QQ != SQRT5 and SQRT5 != QQ
    assert SQRT5 == Sqrt5Field() and QQ != PrimeField(7) and PrimeField(7) != QQ
    assert PrimeField(7) == PrimeField(7) != PrimeField(5)
    assert hash(QQ) == hash(RationalField())
    assert hash(SQRT5) == hash(Sqrt5Field())
    assert hash(PrimeField(7)) == hash(PrimeField(7))
    assert len({QQ, RationalField(), SQRT5, PrimeField(7), PrimeField(7), PrimeField(5)}) == 4
    assert [repr(f) for f in (QQ, SQRT5, PrimeField(7))] == ["QQ", "Q(sqrt5)", "GF(7)"]
    assert [f.to_json_tag() for f in (QQ, SQRT5, PrimeField(7))] == ["rational", "sqrt5", {"prime": 7}]


class TestRankKernel:
    def test_identity(self):
        m = Mat.identity(QQ, 4)
        assert rank(m) == 4
        assert kernel_basis(m) == []

    def test_zero(self):
        m = Mat.zeros(QQ, 3, 5)
        assert rank(m) == 0
        assert len(kernel_basis(m)) == 5

    def test_rank_one(self):
        m = from_ints(QQ, [[1, 2], [2, 4]])
        assert rank(m) == 1
        (v,) = kernel_basis(m)
        # spanned by (2, -1) up to scale
        assert v[0] * Fraction(-1) == v[1] * Fraction(2)

    def test_kernel_is_annihilated(self):
        rng = rngmod.spawn(2, 0)
        for field in (QQ, PrimeField(101), SQRT5):
            for _ in range(10):
                m = random_matrix(field, 4, 6, rng)
                vecs = kernel_basis(m)
                assert len(vecs) == 6 - rank(m)
                for v in vecs:
                    assert all(field.is_zero(x) for x in mul_vec(m, v))

    def test_empty_shapes(self):
        m = Mat(QQ, [], ncols=3)
        assert rank(m) == 0 and len(kernel_basis(m)) == 3
        m2 = Mat(QQ, [[], []], ncols=0)
        assert rank(m2) == 0 and kernel_basis(m2) == []

    def test_prime_fast_path_matches_generic_path(self):
        # rref's per-field row updates vs the scalar-method reference loop
        rng = rngmod.spawn(3, 0)
        p = 97
        pf = PrimeField(p)
        for _ in range(30):
            ints = [[rng.randrange(p) for _ in range(5)] for _ in range(4)]
            red, pivots = rref(Mat(pf, ints))
            assert (red.rows, pivots) == _reference_rref(pf, ints, 5)
        for field in (QQ, SQRT5):
            for trial in range(20):
                rows = random_matrix(field, 4, 5, rng).rows
                if trial % 2:  # rank deficiency: a dependent row and a zero column
                    rows[3] = [field.add(x, y) for x, y in zip(rows[0], rows[1])]
                    for row in rows:
                        row[trial % 5] = field.zero
                red, pivots = rref(Mat(field, rows))
                assert (red.rows, pivots) == _reference_rref(field, rows, 5)


FORWARD_FIELDS = [PrimeField(2), PrimeField(7), PrimeField(2147483647), QQ, SQRT5]


def _seeded_matrices(field, rng):
    """Tall, wide and square matrices, full rank and rank-deficient.

    From the second trial on, the last row is the sum of the first two;
    from the third on, entry (0, 0) is zero, so column 0 needs a row swap,
    and one more column is zero.
    """
    for nrows, ncols in ((7, 3), (3, 7), (5, 5), (6, 6), (1, 4), (4, 1), (0, 3), (3, 0)):
        for trial in range(5):
            rows = random_matrix(field, nrows, ncols, rng).rows
            if trial >= 1 and nrows >= 3:
                rows[-1] = [field.add(x, y) for x, y in zip(rows[0], rows[1])]
            if trial >= 2 and nrows >= 2 and ncols >= 2:
                rows[0][0] = field.zero
                for row in rows:
                    row[1 + trial % (ncols - 1)] = field.zero
            yield Mat(field, rows, ncols)


@pytest.mark.parametrize("field", FORWARD_FIELDS, ids=lambda f: f.name)
def test_forward_pass_rank_and_det_match_reference_rref(field):
    # rank and det run the forward pass alone; rref also runs the back pass
    rng = rngmod.spawn(12, 0)
    for m in _seeded_matrices(field, rng):
        red, pivots = rref(m)
        assert (red.rows, pivots) == _reference_rref(field, m.rows, m.ncols)
        assert rank(m) == len(pivots)
        if m.nrows == m.ncols and m.nrows <= 5:
            assert det(m) == _leibniz_det(field, m)


def _rational_rank_cases(rng):
    p = DEFAULT_PRIME
    # singular mod p but invertible over Q: the residue rank is short
    yield from_ints(QQ, [[p, 0], [0, 1]])
    yield from_ints(QQ, [[1, 1], [1, 1 + p]])
    yield from_ints(QQ, [[p, 2 * p, 0], [1, 1, 1]])
    # p divides a denominator, which the integer rows scale away
    yield Mat(QQ, [[Fraction(1, p), QQ.one], [QQ.zero, QQ.one]])
    yield Mat(QQ, [[Fraction(1, p), QQ.one], [QQ.one, Fraction(p)]])  # singular
    # tall, wide and square with non-integer entries, every other one rank-deficient
    # (the integer ones of _seeded_matrices are in test_forward_pass_rank_and_det_match_reference_rref)
    for nrows, ncols in ((6, 3), (3, 6), (4, 4)):
        for trial in range(4):
            rows = [[Fraction(rng.randrange(-99, 100), rng.randrange(1, 10)) for _ in range(ncols)] for _ in range(nrows)]
            if trial % 2:
                rows[-1] = [x - 3 * y for x, y in zip(rows[0], rows[1])]
            yield Mat(QQ, rows, ncols)


def test_rational_rank_matches_plain_forward_pass():
    # rank over Q tries the integer rows mod p first; every outcome must equal the scalar reference's
    for m in _rational_rank_cases(rngmod.spawn(12, 1)):
        assert rank(m) == len(_reference_rref(QQ, m.rows, m.ncols)[1]), m
    assert rank(from_ints(QQ, [[DEFAULT_PRIME, 0], [0, 1]])) == 2
    assert Flag(QQ, from_ints(QQ, [[DEFAULT_PRIME, 0], [0, 1]])).space_dim == 2
    with pytest.raises(DomainError):
        Flag(QQ, Mat(QQ, [[Fraction(1, DEFAULT_PRIME), QQ.one], [QQ.one, Fraction(DEFAULT_PRIME)]]))


def _reference_rref(f, rows, ncols):
    """Gauss-Jordan elimination through the field's scalar methods only."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        pr = next((i for i in range(k, len(rows)) if not f.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[k], rows[pr] = rows[pr], rows[k]
        inv = f.div(f.one, rows[k][c])
        rows[k] = [f.mul(inv, x) for x in rows[k]]
        for i in range(len(rows)):
            if i != k and not f.is_zero(rows[i][c]):
                fct = rows[i][c]
                rows[i] = [f.sub(x, f.mul(fct, y)) for x, y in zip(rows[i], rows[k])]
        pivots.append(c)
    return rows, pivots


def _leibniz_det(f, m):
    n = m.nrows
    total = f.zero
    for perm in itertools.permutations(range(n)):
        term = f.one
        for i, j in enumerate(perm):
            term = f.mul(term, m.rows[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = f.add(total, f.neg(term) if inversions % 2 else term)
    return total


def _integer_pass_cases(rng):
    """Rational matrices for the fraction-free pass: zero rows and entries,
    entries of magnitude 10^40, denominators divisible by 2^31 - 1, tall,
    wide, square and rank-deficient shapes, and rows sharing a large content."""
    p = DEFAULT_PRIME

    def entry(kind):
        if rng.random() < 0.3:
            return QQ.zero
        if kind == "huge":
            return Fraction(rng.randrange(-(10**40), 10**40), rng.randrange(1, 10**3))
        if kind == "p":
            return Fraction(rng.randrange(-99, 100), p * rng.randrange(1, 5))
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))

    # pivots carrying 10^40 and 1/p; a zero row and a zero column; rank one with 1/p
    yield Mat(QQ, [[Fraction(10**40 + 1, p), QQ.zero, Fraction(3)], [QQ.zero, QQ.zero, Fraction(-(10**40))], [Fraction(1, 7), Fraction(p, 2), QQ.one]])
    yield Mat(QQ, [[QQ.zero] * 3, [Fraction(1, p), QQ.zero, QQ.one], [QQ.one, QQ.zero, Fraction(p + 1)]])
    yield Mat(QQ, [[Fraction(1, p), QQ.one], [QQ.one, Fraction(p)]])
    for nrows, ncols in ((6, 3), (3, 6), (5, 5), (4, 4), (3, 3), (1, 4), (4, 1), (0, 3), (3, 0)):
        for trial, kind in enumerate(("small", "huge", "p", "small", "huge", "p")):
            rows = [[entry(kind) for _ in range(ncols)] for _ in range(nrows)]
            if trial >= 3 and nrows >= 3:  # rank deficiency: a combination of two rows, and a zero row
                rows[-1] = [x - Fraction(3, 7) * y for x, y in zip(rows[0], rows[1])]
                rows[1 + trial % (nrows - 2)] = [QQ.zero] * ncols
            yield Mat(QQ, rows, ncols)

    # the shape of a certifier sample's rows: row (i, x) on column (y, j) is a[i][j] b[y][x];
    # row i of a and column x of b carry factors near 10^20, shared by all of row (i, x)
    def factors(n):
        return [rng.randrange(10**20, 10**21) for _ in range(n)]

    for (ar, ac), (br, bc) in (((4, 5), (5, 5)), ((2, 2), (3, 3))):
        fa, fb = factors(ar), factors(bc)
        a = [[Fraction(rng.randrange(-99, 100) * fa[i], rng.randrange(1, 8)) for _ in range(ac)] for i in range(ar)]
        b = [[Fraction(rng.randrange(-99, 100) * fb[x], rng.randrange(1, 8)) for x in range(bc)] for _ in range(br)]
        if ar > 3:  # rank 3 x 5 of 4 x 5: a's last row combines its first two
            a[-1] = [y - Fraction(2, 5) * z for y, z in zip(a[0], a[1])]
        yield Mat(QQ, [[a[i][j] * b[y][x] for y in range(br) for j in range(ac)] for i in range(ar) for x in range(bc)], br * ac)


def _reference_kernel(rows, ncols):
    red, pivots = _reference_rref(QQ, rows, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        vec = [QQ.zero] * ncols
        vec[j] = QQ.one
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][j]
        basis.append(vec)
    return basis


def test_integer_pass_matches_reference_over_q():
    # over Q rref, rank, det, kernel_basis, inverse and solve_exact run the fraction-free
    # pass, and a product is one integer dot per entry
    rng = rngmod.spawn(12, 2)
    for m in _integer_pass_cases(rng):
        red, pivots = rref(m)
        assert (red.rows, pivots) == _reference_rref(QQ, m.rows, m.ncols), m
        assert all(type(x) is Fraction for row in red.rows for x in row)
        assert rank(m) == len(pivots)
        kernel = kernel_basis(m)
        assert kernel == _reference_kernel(m.rows, m.ncols)
        assert all(x == 0 for v in kernel for x in mul_vec(m, v))
        if m.nrows == m.ncols:
            assert det(m) == _leibniz_det(QQ, m), m
            if len(pivots) == m.nrows:
                ident = Mat.identity(QQ, m.nrows)
                ref, _ = _reference_rref(QQ, m.hstack(ident).rows, 2 * m.ncols)
                assert inverse(m).rows == [row[m.ncols:] for row in ref]
                assert m.mul(inverse(m)) == ident
            else:
                with pytest.raises(DomainError):
                    inverse(m)
        x = Mat(QQ, [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(2)] for _ in range(m.ncols)], 2)
        b = m.mul(x)
        assert b.rows == [[sum((y * z for y, z in zip(row, col)), QQ.zero) for col in zip(*x.rows)] or [QQ.zero] * 2 for row in m.rows]
        if len(pivots) == m.ncols:  # full column rank: A X = B has the one solution X
            assert solve_exact(m, b) == x
            ref, _ = _reference_rref(QQ, m.hstack(b).rows, m.ncols + 2)
            assert solve_exact(m, b).rows == [row[m.ncols:] for row in ref[: m.ncols]]
        elif m.nrows:
            with pytest.raises(DomainError):
                solve_exact(m, Mat.zeros(QQ, m.nrows, 1))


class TestInverseDetSolve:
    def test_inverse(self):
        rng = rngmod.spawn(4, 0)
        for field in (QQ, PrimeField(13)):
            m = Flag.random(field, 4, rng).mat
            assert m.mul(inverse(m)) == Mat.identity(field, 4)

    def test_singular_inverse_raises(self):
        with pytest.raises(DomainError):
            inverse(from_ints(QQ, [[1, 2], [2, 4]]))

    def test_det_values(self):
        assert det(from_ints(QQ, [[2, 0], [0, 3]])) == 6
        assert det(from_ints(QQ, [[0, 1], [1, 0]])) == -1
        assert det(from_ints(QQ, [[1, 2], [2, 4]])) == 0
        assert det(Mat(QQ, [], ncols=0)) == 1

    @pytest.mark.parametrize(
        "field", [QQ, PrimeField(7), SQRT5, PrimeField(3)], ids=["rational", "gf7", "sqrt5", "gf3"]
    )
    def test_det_matches_leibniz(self, field):
        # every permutation matrix up to 5 x 5: the forward pass passes over
        # unused rows instead of exchanging them, and each one is a sign
        for n in range(6):
            for perm in itertools.permutations(range(n)):
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                assert det(_permutation_matrix(field, perm)) == field.from_int((-1) ** inversions)
        rng = rngmod.spawn(6, 0)
        for n in range(5):
            cases = [Mat.from_columns(field, Mat.identity(field, n).rows[::-1], n)]  # anti-diagonal
            for _ in range(6):
                m = random_matrix(field, n, n, rng)
                if n:
                    m.rows[0][0] = field.zero  # forces a row swap unless column 0 is zero
                cases.append(m)
                if n >= 2:
                    singular = Mat(m.field, m.rows, m.ncols)
                    singular.rows[-1] = list(singular.rows[0])
                    cases.append(singular)
            for m in cases:
                assert det(m) == _leibniz_det(field, m)

    def test_det_multiplicative(self):
        rng = rngmod.spawn(5, 0)
        a = random_matrix(QQ, 3, 3, rng)
        b = random_matrix(QQ, 3, 3, rng)
        assert det(a.mul(b)) == det(a) * det(b)

    def test_solve(self):
        a = from_ints(QQ, [[1, 0], [1, 1], [0, 2]])
        x = from_ints(QQ, [[3], [5]])
        b = a.mul(x)
        assert solve_exact(a, b) == x

    def test_solve_inconsistent(self):
        a = from_ints(QQ, [[1], [0]])
        b = from_ints(QQ, [[0], [1]])
        with pytest.raises(DomainError):
            solve_exact(a, b)


def _invertible_with_zero_corner(field, n, rng) -> Mat:
    """A random invertible n x n matrix whose (0, 0) entry is 0, so the forward pass swaps rows."""
    while True:
        m = random_matrix(field, n, n, rng)
        m.rows[0][0] = field.zero
        if rank(m) == n:
            return m


@pytest.mark.parametrize(
    "field", [PrimeField(2), PrimeField(3), PrimeField(DEFAULT_PRIME), QQ, SQRT5],
    ids=["gf2", "gf3", "gfp", "rational", "sqrt5"],
)
def test_forward_rows_are_the_solution_up_to_a_triangular_factor(field):
    # the certifier reads B_k and A_k off [T | Y] instead of solving: Y = T L^-1 R
    # with T upper-triangular and invertible only changes L's adapted basis
    rng = rngmod.spawn(14, 0)
    for n in range(1, 7):
        lefts = [Flag.random(field, n, rng).mat for _ in range(3)]
        if n >= 2:
            lefts.append(_invertible_with_zero_corner(field, n, rng))
        for left in lefts:
            right = random_matrix(field, n, rng.randrange(1, 2 * n + 1), rng)
            rows = _forward_rows(left, right)
            t = Mat(field, [row[:n] for row in rows], n)
            assert all(field.is_zero(t.rows[i][j]) for i in range(n) for j in range(i))
            assert not any(field.is_zero(t.rows[i][i]) for i in range(n))
            assert Mat(field, [row[n:] for row in rows], right.ncols) == t.mul(solve_exact(left, right))
        if n >= 2:
            singular = Mat(field, lefts[0].rows, n)
            singular.rows[-1] = list(singular.rows[0])
            with pytest.raises(DomainError, match="adapted basis must be invertible"):
                _forward_rows(singular, random_matrix(field, n, n, rng))


def _permutation_matrix(field, perm) -> Mat:
    """The matrix with a one at (perm[c], c) for each column c."""
    m = Mat.zeros(field, len(perm), len(perm))
    for c, i in enumerate(perm):
        m.rows[i][c] = field.one
    return m


@pytest.mark.parametrize(
    "field", [PrimeField(2), PrimeField(3), PrimeField(DEFAULT_PRIME), QQ, SQRT5],
    ids=["gf2", "gf3", "gfp", "rational", "sqrt5"],
)
def test_forward_pass_finds_the_bruhat_permutation(field):
    # M = U1 w U2 with U1, U2 invertible upper-triangular: the forward pass on
    # M's n columns takes column c's pivot in w's row for column c, and its rows,
    # left in place, are U M for an upper-triangular U.  The certifier carries
    # further columns along, which must not move a pivot.
    rng = rngmod.spawn(15, 0)
    for n in range(1, 7):
        perms = [list(range(n)), list(range(n))[::-1]]
        for _ in range(4):
            perms.append(rng.sample(range(n), n))
        for perm in perms:
            m = random_upper_triangular(field, n, rng).mul(_permutation_matrix(field, perm))
            m = m.mul(random_upper_triangular(field, n, rng))
            for extra in (0, 1, 2 * n):
                right = random_matrix(field, n, extra, rng)
                rows, pivots, _ = _eliminate(field, m.hstack(right).rows, n, back=False)
                assert pivots == [(i, c) for c, i in enumerate(perm)]
                rows = Mat(field, [[field.parse(x) for x in row] for row in rows], n + extra)
                u = Mat(field, [row[:n] for row in rows.rows], n).mul(inverse(m))
                assert all(field.is_zero(u.rows[i][j]) for i in range(n) for j in range(i))
                assert Mat(field, [row[n:] for row in rows.rows], extra) == u.mul(right)


def test_shape_errors():
    a = from_ints(QQ, [[1, 2]])
    b = from_ints(QQ, [[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        a.mul(a)
    with pytest.raises(ShapeError):
        a.hstack(b)
    with pytest.raises(ShapeError):
        Mat(QQ, [], ncols=None)
