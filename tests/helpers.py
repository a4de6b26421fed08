"""Constructions that only the tests use, kept out of the package.

Each one is a reference or a test-data generator: the library never calls
it, so it lives next to the tests that do.
"""

import itertools

from horncalc.errors import ShapeError
from horncalc.flags import QuotientSpace, SubspaceBasis
from horncalc.hn import _echelon_choices
from horncalc.matrices import Mat, inverse, rref

# Closure sizes of Appendix B per r, frozen as an independent pre-computed count.
APPENDIX_B_CLOSURE_SIZES = {2: 3, 3: 12, 4: 41}


def random_upper_triangular(field, n: int, rng) -> Mat:
    """Random invertible upper-triangular matrix (nonzero diagonal)."""
    m = Mat.zeros(field, n, n)
    for i in range(n):
        while True:
            d = field.random(rng)
            if not field.is_zero(d):
                break
        m.rows[i][i] = d
        for j in range(i + 1, n):
            m.rows[i][j] = field.random(rng)
    return m


def from_ints(field, rows, ncols: int | None = None) -> Mat:
    """The matrix over ``field`` with the given integer entries."""
    return Mat(field, [[field.from_int(x) for x in r] for r in rows], ncols)


def transpose(m: Mat) -> Mat:
    return Mat(m.field, m.columns(), m.nrows)


def scale(m: Mat, c) -> Mat:
    """``c`` times ``m``."""
    f = m.field
    return Mat(f, [[f.mul(c, x) for x in row] for row in m.rows], m.ncols)


def mat_add(a: Mat, b: Mat) -> Mat:
    """The entrywise sum of two matrices of one shape over one field."""
    if b.shape() != a.shape() or b.field != a.field:
        raise ShapeError("matrix addition needs identical shapes")
    f = a.field
    return Mat(f, [[f.add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a.rows, b.rows)], a.ncols)


def is_zero_matrix(m: Mat) -> bool:
    return all(m.field.is_zero(x) for row in m.rows for x in row)


def mul_vec(m: Mat, vec) -> list:
    """The product of ``m`` with the column vector ``vec``."""
    if len(vec) != m.ncols:
        raise ShapeError(f"vector length {len(vec)} != ncols {m.ncols}")
    return [m.field.dot(row, vec) for row in m.rows]


def mat_to_vec(phi: Mat) -> list:
    """vec(phi) of a q x r matrix: entry (b, a) at index a*q + b (0-based)."""
    q, r = phi.nrows, phi.ncols
    return [phi.rows[b][a] for a in range(r) for b in range(q)]


def project_subspace(quot: QuotientSpace, other: SubspaceBasis) -> SubspaceBasis:
    """Image of a subspace in the quotient, as the nonzero rows of an echelon form."""
    f = quot.field
    red, pivots = rref(transpose(quot.project_matrix(other.mat)))
    return SubspaceBasis(f, Mat.from_columns(f, red.rows[: len(pivots)], quot.dim))


def hom_conjugation_matrix(g: Mat, h: Mat) -> Mat:
    """Matrix of phi |-> h phi g^{-1} on Hom in the elementary basis, from its definition.

    Column a*q + b is ``mat_to_vec`` of h E_{b,a} g^{-1}, each product
    multiplied out, so it checks the blocks ``delta_determinant`` builds
    slot by slot.  Its determinant is det(g)^{-q} det(h)^r.
    """
    r, q = g.nrows, h.nrows
    if h.ncols != q or h.field != g.field:
        raise ShapeError(f"target matrix must be square over the source's field, got {h.shape()}")
    f, g_inv = g.field, inverse(g)
    cols = []
    for a in range(r):
        for b in range(q):
            e = Mat.zeros(f, q, r)
            e.rows[b][a] = f.one
            cols.append(mat_to_vec(h.mul(e).mul(g_inv)))
    return Mat.from_columns(f, cols, r * q)


def rref_subspaces(field, r: int, d: int):
    """All d-dimensional subspaces of GF(q)^r via canonical echelon rows, in the scan's order."""
    for choices in _echelon_choices(field.p, r, d):
        for rows in itertools.product(*choices):
            yield SubspaceBasis(field, Mat.from_columns(field, rows, r))
