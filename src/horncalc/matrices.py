"""Dense exact matrices over a pluggable field.

Plain Gaussian elimination: exact fields need no pivoting strategy, and
the whole artifact works at desk scale (n up to a few dozen).  One loop
serves every field and every caller, updating rows in place; the row
updates are the field's own ``scale_row`` and ``sub_scaled_row``, and each
entry of a product is one field ``dot``, so GF(p) stays on machine integers.
Over Q the same loop is fraction-free: rows scaled to integers by the
field's ``integer_rows`` are updated by Bareiss' rule, and the field's
``integer_quotients`` turns the integers back into fractions only at the
end; a product over Q is likewise one integer dot per entry.
``rank`` and ``det`` run only its forward pass; the back pass, clearing
above each pivot, runs for ``rref`` and the callers that read its rows.
Over a field with a ``residue_field`` (Q, with GF(2^31 - 1)) ``rank``
first eliminates the image there and stops if that rank is full.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul as _mul
from typing import Sequence

from .errors import BudgetError, DomainError, ShapeError

# Budget of one call's eliminations and products on the geometric route, in
# multiply-add cells over GF(p) (an n x n elimination or product is n^3):
# at most about a second over GF(2^31 - 1).  A cell over another field
# counts as its ``cell_cost`` GF(p) cells, so the budget holds about as long.
MAX_ELIM_CELLS = 10**7


def check_elim_cells(field, cells: int, what: str) -> None:
    """Raise ``BudgetError`` if ``cells`` cells over ``field`` are over ``MAX_ELIM_CELLS``.

    Each cell counts ``field.cell_cost`` GF(p) cells.  Over Q that is the
    worst time ratio to GF(2^31 - 1) measured on CPython at the budget's
    edge, 2.5 x 10^5 cells: 10-21 for a certifier sample whose rank runs
    the integer pass (r = 10-30), about 2 for one decided mod p, up to 6
    for ``delta_determinant`` and 2.5 for ``sample_cell_point`` and
    ``position``.  A cell over Q(sqrt 5), eliminated over fractions,
    counts 256.
    """
    cost = field.cell_cost
    if cells * cost > MAX_ELIM_CELLS:
        each = "" if cost == 1 else f" at {cost} GF(p) cells each over {field.name}, {cells * cost} GF(p) cells in all"
        raise BudgetError(f"{what} would take {cells} elimination cells{each}, over {MAX_ELIM_CELLS}")


class Mat:
    """Rectangular matrix; rows of scalars from one field instance."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows: Sequence[Sequence], ncols: int | None = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ShapeError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ShapeError(f"ncols={ncols} but rows have length {self.ncols}")
        else:
            if ncols is None:
                raise ShapeError("empty matrix needs an explicit column count")
            self.ncols = ncols

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Mat":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n: int) -> "Mat":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @classmethod
    def from_columns(cls, field, cols: Sequence[Sequence], nrows: int | None = None) -> "Mat":
        cols = [list(c) for c in cols]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ShapeError("empty column list needs an explicit row count")
        return cls(field, [[c[i] for c in cols] for i in range(nrows)], len(cols))

    @classmethod
    def from_ints(cls, field, rows: Sequence[Sequence[int]], ncols: int | None = None) -> "Mat":
        return cls(field, [[field.from_int(x) for x in r] for r in rows], ncols)

    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def col(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def columns(self) -> list[list]:
        return [self.col(j) for j in range(self.ncols)]

    def take_columns(self, idx: Sequence[int]) -> "Mat":
        return Mat(self.field, [[r[j] for j in idx] for r in self.rows], len(idx))

    def transpose(self) -> "Mat":
        return Mat(self.field, [self.col(j) for j in range(self.ncols)], self.nrows)

    def hstack(self, other: "Mat") -> "Mat":
        if other.nrows != self.nrows or other.field != self.field:
            raise ShapeError("hstack needs matching row counts and field")
        return Mat(self.field, [a + b for a, b in zip(self.rows, other.rows)], self.ncols + other.ncols)

    def mul(self, other: "Mat") -> "Mat":
        if other.nrows != self.ncols or other.field != self.field:
            raise ShapeError(f"cannot multiply {self.shape()} by {other.shape()}")
        f = self.field
        cols = list(zip(*other.rows)) or [()] * other.ncols
        if f.integer_rows is None:
            dot = f.dot
            return Mat(f, [[dot(row, col) for col in cols] for row in self.rows], other.ncols)
        # over Q: integer dots of rows and columns scaled to integers, one fraction per entry
        rows, row_scales = f.integer_rows(self.rows)
        cols, col_scales = f.integer_rows(cols)
        return Mat(
            f,
            [
                f.integer_quotients([sum(map(_mul, row, col)) for col in cols], [s * t for t in col_scales])
                for row, s in zip(rows, row_scales)
            ],
            other.ncols,
        )

    def scale(self, c) -> "Mat":
        f = self.field
        return Mat(f, [[f.mul(c, x) for x in row] for row in self.rows], self.ncols)

    def add(self, other: "Mat") -> "Mat":
        if other.shape() != self.shape() or other.field != self.field:
            raise ShapeError("matrix addition needs identical shapes")
        f = self.field
        return Mat(f, [[f.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(x) for row in self.rows for x in row)

    def format_entries(self) -> list[list]:
        fmt = self.field.format
        return [[fmt(x) for x in row] for row in self.rows]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if other.field != self.field or other.shape() != self.shape():
            return False
        f = self.field
        return all(
            f.is_zero(f.sub(a, b))
            for r1, r2 in zip(self.rows, other.rows)
            for a, b in zip(r1, r2)
        )

    def __repr__(self):
        return f"Mat({self.field!r}, {self.rows!r})"


def _eliminate(field, rows: Sequence[Sequence], ncols: int, back: bool) -> tuple[list[list] | None, list[int], object]:
    """Gaussian elimination, the one elimination loop of the package.

    Returns the rows of the reduced echelon form when ``back`` runs the back
    pass (None without it: the forward pass alone is read for its pivots),
    the pivot columns, and the product of the pivots as found, negated once
    per row swap: the determinant when the matrix is square and of full
    rank.  The back pass touches only rows above each pivot, so no pivot
    changes.

    Over a field with ``integer_rows`` (Q) the loop runs on integers
    (Bareiss): each row is scaled by the LCM of its denominators, which
    moves no pivot, and a pivot step replaces another row by
    (piv row - row[c] piv_row) // prev, with prev the pivot of the step
    before.  The division is exact, as every entry stays a minor of the
    scaled matrix, and the last pivot is the leading minor.  The back pass
    updates rows from column c on only, so at the end the entries from one
    pivot column up to the next stand over that column's pivot.  The
    forward pass alone (``rank``, ``det``) also strips each updated row of
    its content, kept aside in ``contents``: the rows of a certifier sample
    share factors of thousands of bits, which its minors would carry.
    Fractions are built only for the reduced rows and the pivot product.
    Over the other fields the pivot row is scaled to one and the field's
    ``sub_scaled_row`` clears the others.
    """
    integer_rows = field.integer_rows
    if integer_rows is None:
        rows, lcms = [list(r) for r in rows], None
    else:
        rows, lcms = integer_rows(rows)
        dens, contents, prev = [1] * ncols, [1] * len(rows), 1
    nrows = len(rows)
    is_zero, scale_row, sub_scaled_row = field.is_zero, field.scale_row, field.sub_scaled_row
    pivots = []
    factor = field.one
    for c in range(ncols):
        k = len(pivots)
        if k == nrows:
            break
        for pr in range(k, nrows):
            if not is_zero(rows[pr][c]):
                break
        else:
            continue
        if pr != k:
            rows[k], rows[pr] = rows[pr], rows[k]
            factor = field.neg(factor)
            if lcms is not None:
                lcms[k], lcms[pr] = lcms[pr], lcms[k]
                contents[k], contents[pr] = contents[pr], contents[k]
        piv_row = rows[k]
        piv = piv_row[c]
        # row k is zero left of column c, so every update starts there
        if lcms is None:
            factor = field.mul(factor, piv)
            piv_row[c:] = tail = scale_row(field.div(field.one, piv), piv_row[c:])
            for i in range(0 if back else k + 1, nrows):
                row = rows[i]
                if i != k and not is_zero(row[c]):
                    row[c:] = sub_scaled_row(row[c:], row[c], tail)
        elif back:
            # every other row from column c on: the entries from one pivot
            # column up to the next stay over that column's pivot
            tail = piv_row[c:]
            for i in range(nrows):
                if i != k:
                    row = rows[i]
                    x = row[c]
                    if x:
                        row[c:] = [(piv * y - x * z) // prev for y, z in zip(row[c:], tail)]
                    else:
                        row[c:] = [piv * y // prev for y in row[c:]]
            dens[c:] = [piv] * (ncols - c)
            prev = piv
        else:
            # the rows below, kept divided by their content: Bareiss' row i is
            # contents[i] times row i, so prev / gcd(prev, ss) divides w
            tail = piv_row[c:]
            sk = contents[k]
            for i in range(k + 1, nrows):
                row = rows[i]
                x = row[c]
                ss = contents[i] * sk
                d = prev // gcd(prev, ss)
                row[c:] = w = [(piv * y - x * z) // d for y, z in zip(row[c:], tail)]
                g = gcd(*w)
                if g > 1:
                    row[c:] = [y // g for y in w]
                contents[i] = ss * d // prev * g
            prev = sk * piv
        pivots.append(c)
    if lcms is not None:
        k = len(pivots)
        factor = field.mul(factor, field.div(field.from_int(prev), field.from_int(prod(lcms[:k]))))
        if back:
            rows = [field.integer_quotients(row, dens) for row in rows[:k]] + [[field.zero] * ncols for _ in rows[k:]]
    return (rows if back else None), pivots, factor


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    rows, pivots, _ = _eliminate(m.field, m.rows, m.ncols, back=True)
    return Mat(m.field, rows, m.ncols), pivots


def rank(m: Mat) -> int:
    """Rank by the forward pass, first in the field's ``residue_field`` if it has one.

    Rank mod p is at most rank over Q (a minor nonzero mod p is nonzero), so
    a full rank mod p is the answer; any other outcome, or a denominator
    divisible by p, runs the pass over the field itself.
    """
    fld = m.field
    if fld.residue_field is not None:
        image = fld.residues(m.rows)
        full = min(m.nrows, m.ncols)
        if image is not None and len(_eliminate(fld.residue_field, image, m.ncols, back=False)[1]) == full:
            return full
    return len(_eliminate(fld, m.rows, m.ncols, back=False)[1])


def kernel_basis(m: Mat) -> list[list]:
    """Basis of the right null space; length == ncols - rank."""
    f = m.field
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis = []
    for j in free:
        vec = [f.zero] * m.ncols
        vec[j] = f.one
        for i, pc in enumerate(pivots):
            vec[pc] = f.neg(red.rows[i][j])
        basis.append(vec)
    return basis


def inverse(m: Mat) -> Mat:
    if m.nrows != m.ncols:
        raise ShapeError("only square matrices can be inverted")
    aug = m.hstack(Mat.identity(m.field, m.nrows))
    red, pivots = rref(aug)
    if len(pivots) < m.nrows or pivots[: m.nrows] != list(range(m.nrows)):
        raise DomainError("matrix is singular")
    return Mat(m.field, [row[m.nrows:] for row in red.rows], m.nrows)


def det(m: Mat):
    """Exact determinant: the pivot product of one forward elimination pass."""
    if m.nrows != m.ncols:
        raise ShapeError("determinant of a nonsquare matrix")
    _, pivots, factor = _eliminate(m.field, m.rows, m.ncols, back=False)
    return factor if len(pivots) == m.nrows else m.field.zero


def solve_exact(a: Mat, b: Mat) -> Mat:
    """Solve A X = B for full-column-rank A; raises if inconsistent."""
    if a.nrows != b.nrows:
        raise ShapeError("row counts differ")
    f = a.field
    red, pivots = rref(a.hstack(b))
    if any(p >= a.ncols for p in pivots):
        raise DomainError("inconsistent linear system")
    if len(pivots) < a.ncols:
        raise DomainError("coefficient matrix does not have full column rank")
    x_rows = [[f.zero] * b.ncols for _ in range(a.ncols)]
    for i, pc in enumerate(pivots):
        x_rows[pc] = red.rows[i][a.ncols:]
    return Mat(f, x_rows, b.ncols)


def random_matrix(field, nrows: int, ncols: int, rng) -> Mat:
    return Mat(field, [[field.random(rng) for _ in range(ncols)] for _ in range(nrows)], ncols)
