"""Dense exact matrices over a pluggable field.

Plain Gaussian elimination: exact fields need no pivoting strategy, and
the whole artifact works at desk scale (n up to a few dozen).  One loop
serves every field and every caller, updating rows in place; the row
updates are the field's own ``scale_row`` and ``sub_scaled_row``, and each
entry of a product is one field ``dot``, so GF(p) stays on machine integers.
``rank`` and ``det`` run only its forward pass; the back pass, clearing
above each pivot, runs for ``rref`` and the callers that read its rows.
Over a field with a ``residue_field`` (Q, with GF(2^31 - 1)) ``rank``
first eliminates the image there and stops if that rank is full.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BudgetError, DomainError, ShapeError

# Budget of one call's eliminations and products on the geometric route, in
# multiply-add cells over GF(p) (an n x n elimination or product is n^3):
# at most about a second over GF(2^31 - 1).  A cell over another field
# counts as its ``cell_cost`` GF(p) cells, so the budget holds about as long.
MAX_ELIM_CELLS = 10**7


def check_elim_cells(field, cells: int, what: str) -> None:
    """Raise ``BudgetError`` if ``cells`` cells over ``field`` are over ``MAX_ELIM_CELLS``.

    Each cell counts ``field.cell_cost`` GF(p) cells: measured on CPython
    over certifier samples of 4 x 10^4 to 1.3 x 10^5 cells, a cell over Q
    costs 3-4 cells over GF(2^31 - 1) when ``rank`` is decided mod p and
    20-40 when its pass over fractions runs, and one over Q(sqrt 5) about
    four cells over Q.
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
        dot = self.field.dot
        cols = list(zip(*other.rows)) or [()] * other.ncols
        return Mat(self.field, [[dot(row, col) for col in cols] for row in self.rows], other.ncols)

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


def _eliminate(field, rows: Sequence[Sequence], ncols: int, back: bool) -> tuple[list[list], list[int], object]:
    """Gaussian elimination, the one elimination loop of the package.

    Returns the echelon rows, reduced when ``back`` runs the back pass, the
    pivot columns, and the product of the pivots as found, negated once per
    row swap: the determinant when the matrix is square and of full rank.
    The back pass touches only rows above each pivot, so no pivot changes.
    """
    rows = [list(r) for r in rows]
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
        piv_row = rows[k]
        piv = piv_row[c]
        factor = field.mul(factor, piv)
        # row k is zero left of column c, so every update starts there
        piv_row[c:] = tail = scale_row(field.div(field.one, piv), piv_row[c:])
        for i in range(0 if back else k + 1, nrows):
            row = rows[i]
            if i != k and not is_zero(row[c]):
                row[c:] = sub_scaled_row(row[c:], row[c], tail)
        pivots.append(c)
    return rows, pivots, factor


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
