"""Dense exact matrices over a pluggable field.

Plain Gaussian elimination: exact fields need no pivoting strategy, and
the whole artifact works at desk scale (n up to a few dozen).  One loop
serves every field and every caller, updating rows in place and never
exchanging them: a column's pivot is the last unused row nonzero there.
That is the Bruhat decomposition (Fulton, *Young Tableaux*, section 10), so
the pivots give the rank, the Schubert position of a column span
(``flags.position``) and the certifier's Bruhat permutations, and their
product, negated once for each unused row a pivot passes over, is the
determinant.  The row updates are the field's own ``scale_row`` and
``sub_scaled_row``, and each entry of a product is one field ``dot``, so
GF(p) stays on machine integers.
Over Q the same loop is fraction-free: rows scaled to integers by the
field's ``integer_rows`` are updated by one rule in both passes, Bareiss'
step on rows kept divided by their content, and the field's
``integer_quotients`` turns the integers back into fractions only at the
end; a product over Q is likewise one integer dot per entry.
``rank``, ``det``, ``position`` and the certifier run only its forward pass,
whose rows over Q are integers, each a nonzero multiple of its reduced row;
the back pass runs for ``rref`` and the callers that read reduced rows.
Over Q ``rank`` first ranks its input's integer rows mod 2^31 - 1, the field's
``residue_field``; a full rank there is the answer.
"""

from __future__ import annotations

from itertools import chain, repeat
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
    for ``delta_determinant`` and 4.5 for ``sample_cell_point`` and
    ``position``.  Re-measured with the exchange-free loop, no ratio is
    past those: 3-8 for such samples at r = 20-24, 1.4 for one decided mod
    p (n = 16), 1.0-1.1 for ``delta_determinant`` (n = 43) and 3.4-3.6 for
    ``sample_cell_point`` and ``position`` (n = 62); the weight is kept, so
    refusals stay as they are.  A cell over Q(sqrt 5), eliminated over
    fractions, counts 256.
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

    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def col(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def columns(self) -> list[list]:
        return [self.col(j) for j in range(self.ncols)]

    def take_columns(self, idx: Sequence[int]) -> "Mat":
        return Mat(self.field, [[r[j] for j in idx] for r in self.rows], len(idx))

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


def _eliminate(
    field, rows: Sequence[Sequence], ncols: int, back: bool
) -> tuple[list[list], list[tuple[int, int]], object]:
    """Gaussian elimination without row exchanges, the one elimination loop of the package.

    Columns are taken in order, and a column's pivot is the last unused row
    with a nonzero entry there.  The pivot step clears the column in the
    unused rows before the pivot row (those after it are zero there) and,
    with ``back``, in the earlier pivot rows too.  Rows never move: the
    pivots are returned as (row, column) pairs in column order, and the rows
    read in that order are an echelon form; columns past ``ncols`` are
    carried along.  Also returned is the pivot product, negated once for
    each unused row a pivot passes over: the determinant when the matrix is
    square and of full rank.

    Without ``back`` the rows are U times the input, U upper-triangular, so
    the pivots depend only on the ranks of the lower-left blocks: the pivot
    rows are the Schubert position of the column span in the coordinate
    flag, and on U' w U'' (U', U'' upper-triangular, w a permutation) column
    c's pivot row is w's row for column c.  Read in pivot order, the rows of
    [L | R] with L invertible are [T | T L^-1 R], T upper-triangular.  With
    ``back`` the pivot rows in pivot order are the reduced echelon form, and
    the other rows are zero.  Over Q, apart from those reduced rows, each
    row returned is integers, a nonzero multiple of the row the other
    fields give.

    Over a field with ``integer_rows`` (Q) the loop runs on integers
    (Bareiss): each row is scaled by the LCM of its denominators, which
    moves no pivot, and every updated row is kept divided by its content,
    kept aside in ``contents``: the rows of a certifier sample share
    factors of thousands of bits, which its minors would carry.  Bareiss'
    row i is contents[i] times row i, so a pivot step at row p replaces
    every unused row i (also those after row p, which it only rescales, as
    Bareiss' division needs) and with ``back`` every earlier pivot row by
    w = (piv row - row[c] piv_row) // (prev / gcd(prev, contents[i] contents[p])),
    with prev Bareiss' pivot of the step before, and divides w by its
    content; the last pivot is the leading minor of the rows in pivot order.
    An earlier pivot row is updated whole (from its own pivot column, as it
    is zero to the left), so each row ends proportional to its reduced row,
    and fractions are built only for the reduced rows, each over its pivot
    entry, and for the pivot product.  Over the other fields the pivot row
    is scaled to one and the field's ``sub_scaled_row`` clears the others.
    """
    integer_rows = field.integer_rows
    if integer_rows is None:
        rows, lcms = [list(r) for r in rows], None
    else:
        rows, lcms = integer_rows(rows)
        contents, prev = [1] * len(rows), 1
    is_zero, scale_row, sub_scaled_row = field.is_zero, field.scale_row, field.sub_scaled_row
    free, pivots = list(range(len(rows))), []
    factor, odd = field.one, 0
    for c in range(ncols):
        if not free:
            break
        for t in range(len(free) - 1, -1, -1):
            if not is_zero(rows[free[t]][c]):
                break
        else:
            continue
        p = free.pop(t)
        odd ^= t & 1  # moving row p above the t unused rows before it
        piv_row = rows[p]
        piv = piv_row[c]
        if lcms is None:
            factor = field.mul(factor, piv)
            # the pivot row is zero left of column c, so every update starts there
            piv_row[c:] = tail = scale_row(field.div(field.one, piv), piv_row[c:])
            for i in chain(free, (i for i, _ in pivots)) if back else free:
                row = rows[i]
                x = row[c]
                if not is_zero(x):
                    row[c:] = sub_scaled_row(row[c:], x, tail)
        else:
            sp = contents[p]
            # an unused row is zero left of column c, a pivot row left of its own column j
            targets = zip(free, repeat(c))
            for i, j in chain(targets, pivots) if back else targets:
                row = rows[i]
                x = row[c]
                ss = contents[i] * sp
                d = prev // gcd(prev, ss)
                if x:
                    w = [(piv * y - x * z) // d for y, z in zip(row[j:], piv_row[j:])]
                else:
                    w = [piv * y // d for y in row[j:]]
                g = gcd(*w)
                row[j:] = [y // g for y in w] if g > 1 else w
                contents[i] = ss * d // prev * g
            prev = sp * piv
        pivots.append((p, c))
    if lcms is None:
        if odd:
            factor = field.neg(factor)
    else:
        factor = field.integer_quotients([-prev if odd else prev], [prod(lcms[i] for i, _ in pivots)])[0]
        if back:
            for i, c in pivots:
                rows[i] = field.integer_quotients(rows[i], [rows[i][c]] * ncols)
    return rows, pivots, factor


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    rows, pivots, _ = _eliminate(m.field, m.rows, m.ncols, back=True)
    zeros = [[m.field.zero] * m.ncols for _ in range(m.nrows - len(pivots))]
    return Mat(m.field, [rows[i] for i, _ in pivots] + zeros, m.ncols), [c for _, c in pivots]


def rank(m: Mat) -> int:
    """Rank by the forward pass; over Q, first on the integer rows mod ``residue_field``.

    Scaling a row by its LCM keeps its rank, and an integer minor nonzero mod
    p is nonzero, so a full rank mod p is the rank over Q; any other outcome
    runs the pass over Q on the same integer rows.
    """
    fld, rows = m.field, m.rows
    if fld.integer_rows is not None:
        rows, _ = fld.integer_rows(rows)
        full, p = min(m.nrows, m.ncols), fld.residue_field.p
        if len(_eliminate(fld.residue_field, [[x % p for x in row] for row in rows], m.ncols, back=False)[1]) == full:
            return full
    return len(_eliminate(fld, rows, m.ncols, back=False)[1])


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
