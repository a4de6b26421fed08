"""Flags, Schubert positions, induced flags, and cell sampling.

A flag on an n-dimensional space is stored as an invertible n x n matrix
whose columns are an adapted basis: the span of the first j columns is the
j-th step of the flag.

``position`` computes the Schubert position of a subspace as the sorted
pivot rows of the forward elimination pass (``matrices._eliminate``) on its
basis in flag coordinates.  That pass only ever adds a row to an earlier
one, which keeps the span of every block of bottom rows, so its pivot rows
are where the rank of the bottom rows grows: the jumps of dim(E(j) meet S).
``cell_normal_basis`` reduces the columns instead, read bottom to top,
through the back pass; the result is the unique cell-normal-form basis
(coefficient one on the pivot row, zeros on the other pivot rows and
below), which is what the induced-flag constructions need.

``sample_cell_point`` works in the chart of ``CardSubset.cell_slots``: in
flag coordinates a point of the cell at I has basis columns with a one at
row I(a) and free entries at the complement rows Ic(b) for the slots
(a, b), b <= I(a) - a; these are exactly its normal-form coordinates.
"""

from __future__ import annotations

from .errors import DomainError, ShapeError
from .matrices import Mat, _eliminate, check_elim_cells, inverse, random_matrix, rank, solve_exact
from .subsets import CardSubset


class Flag:
    """Complete flag encoded by an ordered adapted basis (matrix columns)."""

    __slots__ = ("field", "mat", "_inv")

    def __init__(self, field, mat: Mat):
        if mat.nrows != mat.ncols:
            raise ShapeError("a flag needs a square adapted-basis matrix")
        if mat.field != field:
            raise ShapeError("field mismatch between flag and matrix")
        self.field = field
        self.mat = mat
        self._inv = None
        if rank(mat) != mat.nrows:
            raise DomainError("adapted basis must be invertible")

    @property
    def space_dim(self) -> int:
        return self.mat.nrows

    def inv(self) -> Mat:
        if self._inv is None:
            self._inv = inverse(self.mat)
        return self._inv

    @classmethod
    def standard(cls, field, n: int) -> "Flag":
        flag = cls(field, Mat.identity(field, n))
        flag._inv = Mat.identity(field, n)  # its own inverse, in rows of its own
        return flag

    @classmethod
    def random(cls, field, n: int, rng) -> "Flag":
        # the constructor's rank check rejects singular draws (probability
        # <= n/p over GF(p)); resample
        for _ in range(1000):
            try:
                return cls(field, random_matrix(field, n, n, rng))
            except DomainError:
                pass
        raise DomainError("failed to sample an invertible matrix")

    @classmethod
    def from_columns(cls, field, cols) -> "Flag":
        return cls(field, Mat.from_columns(field, cols))

    def to_json(self) -> dict:
        return {"field": self.field.to_json_tag(), "entries": self.mat.format_entries()}

    def __repr__(self):
        return f"Flag(n={self.space_dim}, field={self.field!r})"


class SubspaceBasis:
    """Full-column-rank n x d matrix of basis columns."""

    __slots__ = ("field", "mat")

    def __init__(self, field, mat: Mat):
        if mat.field != field:
            raise ShapeError("field mismatch between subspace and matrix")
        if rank(mat) != mat.ncols:
            raise DomainError("subspace basis must have full column rank")
        self.field = field
        self.mat = mat

    @property
    def ambient_dim(self) -> int:
        return self.mat.nrows

    @property
    def dim(self) -> int:
        return self.mat.ncols

    @classmethod
    def from_columns(cls, field, cols, ambient_dim: int | None = None) -> "SubspaceBasis":
        return cls(field, Mat.from_columns(field, cols, ambient_dim))

    def __repr__(self):
        return f"SubspaceBasis({self.dim} in {self.ambient_dim}, field={self.field!r})"


def _bottom_echelon(field, mat: Mat) -> tuple[list[int], list[list]]:
    """Column reduction with pivots at the lowest nonzero rows.

    Returns the sorted pivot rows (0-based) and the matching reduced columns:
    pivot entry one, zeros at every other pivot row and below the pivot.
    This is the reduced row echelon form of the columns read bottom to top.
    """
    n = mat.nrows
    rows, pivots, _ = _eliminate(field, [c[::-1] for c in mat.columns()], n, back=True)
    if len(pivots) < mat.ncols:
        raise DomainError("columns are linearly dependent")
    return [n - 1 - c for _, c in reversed(pivots)], [rows[i][::-1] for i, _ in reversed(pivots)]


def position(subspace: SubspaceBasis, flag: Flag) -> CardSubset:
    """Schubert position: the jump indices j where dim(E(j) meet S) grows."""
    if subspace.ambient_dim != flag.space_dim:
        raise ShapeError(
            f"ambient dimension {subspace.ambient_dim} != flag dimension {flag.space_dim}"
        )
    if subspace.field != flag.field:
        raise ShapeError("subspace and flag live over different fields")
    if subspace.dim == 0:
        return CardSubset(flag.space_dim, ())
    coords = flag.inv().mul(subspace.mat)
    _, pivots, _ = _eliminate(flag.field, coords.rows, subspace.dim, back=False)
    return CardSubset(flag.space_dim, tuple(sorted(i + 1 for i, _ in pivots)))


def cell_normal_basis(subspace: SubspaceBasis, flag: Flag) -> tuple[CardSubset, Mat]:
    """Position plus the unique normal-form basis in flag coordinates."""
    coords = flag.inv().mul(subspace.mat)
    pivots, cols = _bottom_echelon(flag.field, coords)
    pos = CardSubset(flag.space_dim, tuple(p + 1 for p in pivots))
    return pos, Mat.from_columns(flag.field, cols, flag.space_dim)


def induced_flag_on_subspace(flag: Flag, subspace: SubspaceBasis) -> Flag:
    """The flag cut out on the subspace, in coordinates of the given basis."""
    _, normal = cell_normal_basis(subspace, flag)
    ambient_cols = flag.mat.mul(normal)
    coords = solve_exact(subspace.mat, ambient_cols)
    return Flag(flag.field, coords)


class QuotientSpace:
    """Quotient by a subspace, realized on the complement spanned by the
    adapted-basis columns at the complementary positions.

    ``flag`` is the induced quotient flag in complement coordinates (by
    construction the complement columns themselves are an adapted basis, so
    the matrix is the identity).  ``project`` maps ambient vectors to
    quotient coordinates along the subspace.
    """

    __slots__ = ("field", "subspace", "pos", "complement_cols", "flag", "_basis_inv")

    def __init__(self, field, subspace: SubspaceBasis, pos: CardSubset, complement_cols: Mat):
        self.field = field
        self.subspace = subspace
        self.pos = pos
        self.complement_cols = complement_cols
        self.flag = Flag.standard(field, complement_cols.ncols)
        self._basis_inv = inverse(subspace.mat.hstack(complement_cols))

    @property
    def dim(self) -> int:
        return self.complement_cols.ncols

    def project_matrix(self, mat: Mat) -> Mat:
        full = self._basis_inv.mul(mat)
        return Mat(self.field, full.rows[self.subspace.dim:], mat.ncols)


def induced_flag_on_quotient(flag: Flag, subspace: SubspaceBasis) -> QuotientSpace:
    pos, _ = cell_normal_basis(subspace, flag)
    comp = pos.complement()
    complement_cols = flag.mat.take_columns([i - 1 for i in comp.elements])
    return QuotientSpace(flag.field, subspace, pos, complement_cols)


def check_flag_budget(n: int, field) -> None:
    """Raise ``BudgetError`` if work with a flag of an n-space over ``field`` is over budget.

    Building, inverting or multiplying by the n x n flag matrix takes n^3
    cells; callers that build the flag themselves check before building it.
    """
    check_elim_cells(field, n**3, f"a flag of a {n}-dimensional space")


def sample_cell_point(subset: CardSubset, flag: Flag, rng) -> SubspaceBasis:
    """Uniform-ish random point of the open Schubert cell at ``subset``.

    In flag coordinates column a has a one at row I(a) and a random entry
    at row Ic(b) for each slot (a, b) of ``subset.cell_slots()``, drawn in
    slot order; the position is re-verified before returning.
    """
    if subset.ground != flag.space_dim:
        raise ShapeError(f"subset ground {subset.ground} != flag dimension {flag.space_dim}")
    check_flag_budget(subset.ground, flag.field)
    f = flag.field
    n, comp = subset.ground, subset.complement().elements
    cols = [[f.zero] * n for _ in subset.elements]
    for col, ia in zip(cols, subset.elements):
        col[ia - 1] = f.one
    for a, b in subset.cell_slots():
        cols[a - 1][comp[b - 1] - 1] = f.random(rng)
    sample = SubspaceBasis(f, flag.mat.mul(Mat.from_columns(f, cols, n)))
    assert position(sample, flag) == subset
    return sample
