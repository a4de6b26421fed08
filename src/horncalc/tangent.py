"""Tangent-space computations certifying generic Schubert intersections.

For a position subset I and flags F (on the r-dim source) and G (on the
(n-r)-dim target), H_I(F, G) is the space of maps sending the a-th flag step
of F into step I(a) - a of G.  Since I(a) - a is nondecreasing it suffices
to constrain the image of each adapted basis vector: phi lies in H_I(F, G)
exactly when G^{-1} phi F vanishes outside the slots (a, b) of
``CardSubset.cell_slots``, b <= I(a) - a.  The space has the basis
G E_{b,a} F^{-1} over those slots, the chart of the Schubert cell carried
into Hom; ``h_constraint_rows`` states the r(n-r) - dim I equations on the
other entries one by one, as a reference.

The joint space over an s-tuple has dimension >= edim for every choice of
flags, with generic equality exactly when the tuple is intersecting.  Over
a prime field a sample achieving equality certifies intersection in
characteristic zero as well: lifting the flag entries to integers, a maximal
minor that is nonzero mod p is a nonzero integer, so the rational rank at
the lifted point is at least the mod-p rank, forcing dim == edim over Q too.
The reverse verdict stays Monte-Carlo.

One sample works on a reduced space.  Each space is equivariant,
H_I(F, G) = G H_I(E, E) F^{-1}, so the part k0 with the fewest free slots is
parametrised by its own slots at standard flags, phi = G0 psi F0^{-1}, and
part k asks that A_k psi B_k vanish outside its slots, with
A_k = G_k^{-1} G0 and B_k = F0^{-1} F_k.  A second part k1, of largest
codimension among the others, is reduced in closed form.  H_I(F, G)
depends only on the flags, so each F_k and G_k may be multiplied on the
right by any invertible upper-triangular matrix: B_k then changes by one of
its own on the right and by one shared by every part on the left (from F0),
A_k by one of its own on the left and by a shared one on the right (from
G0).  Every invertible matrix is U w U' with U, U' upper-triangular and w a
permutation (Bruhat), the relative position of two flags; the shared
factors of A_k1 and B_k1, carried onto the other parts, leave permutation
matrices there, and each constraint of part k1 then sets one entry of psi
to zero.  Only the other s - 2 parts are eliminated, on the slots that
survive: for an edim-0 triple a matrix of about codim I_k2 square instead
of (codim I_k1 + codim I_k2) x dim I_k0, and none for a pair, with the
same kernel dimension for every field and every flag tuple.  The
elimination budget (``matrices.check_elim_cells``, weighted by field)
covers every sample of a call, as a non-member draws them all: each costs
the reduced elimination plus drawing and multiplying its 2s flags, counted
(``_sample_cells``) as if only part k0 were reduced.  Over Q the weight is
that of a sample whose rank runs the integer pass, as a non-member's does;
a member's rank is decided mod p at about twice the GF(p) cost.
``delta_determinant`` is budgeted the same way (``check_delta_budget``).

When edim is zero the tangent map

    (zeta, phi_1, ..., phi_s) |-> (zeta + h_k phi_k g_k^{-1})_k

is square; its determinant delta is the basic invariant attached to the
tuple, and its Borel and diagonal equivariance laws are numerically testable
identities (see the test suite).
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, ShapeError
from .flags import Flag
from .matrices import Mat, check_elim_cells, det, inverse, rank, solve_exact
from .subsets import CardSubset, PositionTuple, Weight


class HomSpaceBasis(NamedTuple):
    """Basis of H_I(F, G) as a list of (n-r) x r matrices."""

    r: int
    q: int
    basis: list[Mat]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _check_shapes(subset: CardSubset, f_flag: Flag, g_flag: Flag):
    r = subset.cardinality
    q = subset.ground - r
    if f_flag.space_dim != r:
        raise ShapeError(f"source flag dimension {f_flag.space_dim} != cardinality {r}")
    if g_flag.space_dim != q:
        raise ShapeError(f"target flag dimension {g_flag.space_dim} != {q}")
    if f_flag.field != g_flag.field:
        raise ShapeError("source and target flags must share a field")


def h_constraint_rows(subset: CardSubset, f_flag: Flag, g_flag: Flag) -> list[list]:
    """Linear constraints on vec(phi) cutting out H_I(F, G).

    The unknown phi is (n-r) x r; vec index of phi[b][a] is a*(n-r) + b
    (0-based).  Row count is r(n-r) - dim I.
    """
    _check_shapes(subset, f_flag, g_flag)
    fld = f_flag.field
    r = subset.cardinality
    q = subset.ground - r
    g_inv = g_flag.inv()
    rows = []
    for a, ia in enumerate(subset.elements, start=1):
        fa = f_flag.mat.col(a - 1)
        for i in range(ia - a, q):  # coordinates beyond the first I(a)-a must vanish
            grow = g_inv.rows[i]
            row = [fld.zero] * (r * q)
            for col_a in range(r):
                x = fa[col_a]
                if fld.is_zero(x):
                    continue
                base = col_a * q
                for u in range(q):
                    row[base + u] = fld.mul(grow[u], x)
            rows.append(row)
    return rows


def _slot_images(fld, h: Mat, g_inv: Mat, slots) -> list[list]:
    """vec(h E_{b,a} g^{-1}) for each 1-based slot (a, b): column b of h times row a of g^{-1}.

    The vec index of entry (i, j) is j * q + i, with q the rows of h.
    """
    mul = fld.mul
    return [[mul(hrow[b - 1], x) for x in g_inv.rows[a - 1] for hrow in h.rows] for a, b in slots]


def h_space_basis(subset: CardSubset, f_flag: Flag, g_flag: Flag) -> HomSpaceBasis:
    """Exact basis of H_I(F, G): G E_{b,a} F^{-1} over the slots of ``subset.cell_slots()``."""
    _check_shapes(subset, f_flag, g_flag)
    fld = f_flag.field
    r = subset.cardinality
    q = subset.ground - r
    vecs = _slot_images(fld, g_flag.mat, f_flag.inv(), subset.cell_slots())
    return HomSpaceBasis(r, q, [Mat.from_columns(fld, [v[a * q:(a + 1) * q] for a in range(r)], q) for v in vecs])


def phi_in_h_space(subset: CardSubset, f_flag: Flag, g_flag: Flag, phi: Mat) -> bool:
    """Whether G^{-1} phi F vanishes outside the slots of ``subset.cell_slots()``."""
    _check_shapes(subset, f_flag, g_flag)
    fld = f_flag.field
    free = set(subset.cell_slots())
    coords = g_flag.inv().mul(phi).mul(f_flag.mat).rows
    return all(fld.is_zero(x) or (a, b) in free for b, row in enumerate(coords, 1) for a, x in enumerate(row, 1))


def h_intersection_dim(tup: PositionTuple, f_flags: Sequence[Flag], g_flags: Sequence[Flag]) -> int:
    """Exact dimension of the joint solution space; always >= edim.

    Works on the reduced space of the module docstring.  Neither inverse is
    formed: each A_k is solved from G_k A_k = G0, and every B_k from one
    solve F0 [B_k ...] = [F_k ...].  ``_bruhat_pivots`` brings B_k1, and
    A_k1 transposed with both orders reversed, to Bruhat normal form,
    carrying the shared operations onto the other parts; each constraint of
    part k1 then kills one slot.  Row (i, a) of a remaining part k on a
    surviving slot (a', b) is A_k[i][b] B_k[a'][a], and the result is the
    number of surviving slots minus the rank of those rows.
    """
    if len(f_flags) != tup.s or len(g_flags) != tup.s:
        raise ShapeError(f"need {tup.s} flag pairs, got {len(f_flags)}, {len(g_flags)}")
    fld = f_flags[0].field
    for subset, ff, gg in zip(tup.parts, f_flags, g_flags):
        _check_shapes(subset, ff, gg)
        if ff.field != fld:
            raise ShapeError("all flags must share one field")
    k0 = _reduced_part(tup)
    slots = [(a - 1, b - 1) for a, b in tup.parts[k0].cell_slots()]
    if not slots or tup.s == 1:
        return len(slots)
    k1 = min((k for k in range(tup.s) if k != k0), key=lambda k: tup.parts[k].dim())
    rest = [k for k in range(tup.s) if k not in (k0, k1)]
    r, g0, mul = tup.cardinality, g_flags[k0].mat, fld.mul
    q, ks = g0.nrows, (k1, *rest)
    # every B_k from one solve, B_k1 first: for k = ks[j] it is columns j r .. j r + r - 1
    f_rest = Mat(fld, [[x for k in ks for x in f_flags[k].mat.rows[i]] for i in range(r)], r * len(ks))
    b_rows = solve_exact(f_flags[k0].mat, f_rest).rows
    # the A_k transposed and side by side, column b of each in row q - 1 - b,
    # so that the recipe for B serves A with both index orders reversed
    a_ks = [solve_exact(g_flags[k].mat, g0).rows for k in ks]
    a_rows = [[a[i][b] for a in a_ks for i in range(q)] for b in reversed(range(q))]
    if fld.integer_rows is not None:
        # over Q a row scale is a diagonal operation, so the reduction runs on
        # integer rows, and the rows ranked at the end are integers too
        b_rows, _ = fld.integer_rows(b_rows)
        a_rows, _ = fld.integer_rows(a_rows)
    b_piv = _bruhat_pivots(fld, b_rows, range(r))
    a_piv = _bruhat_pivots(fld, a_rows, reversed(range(q)))
    # k1's row i of column a reads psi[q - 1 - a_piv[i]][b_piv[a]]
    killed = {(b_piv[a], q - 1 - a_piv[i])
              for a, ia in enumerate(tup.parts[k1].elements) for i in range(ia - a - 1, q)}
    live = [(a_rows[q - 1 - b], b_rows[ap]) for ap, b in slots if (ap, b) not in killed]
    rows = []
    for j, k in enumerate(rest, 1):
        for a, ia in enumerate(tup.parts[k].elements):
            col = j * r + a
            rows.extend([mul(ar[j * q + i], br[col]) for ar, br in live] for i in range(ia - a - 1, q))
    return len(live) - rank(Mat(fld, rows, len(live)))


def _bruhat_pivots(fld, rows: list[list], cols) -> dict:
    """Pivot row of each column of ``cols``, in the Bruhat normal form of those columns.

    The columns are taken in the order given.  A column's pivot is the last
    row not used yet with a nonzero entry there, and the unused rows before
    it are cleared with whole-row operations: a later row added to earlier
    ones, an upper-triangular operation on the left, made in place on the
    other columns too.  The operations on the right that would clear the
    pivot rows touch nothing else, so they are left out.  Over Q the rows
    are integers, each kept divided by its content.
    """
    integral = fld.integer_rows is not None
    is_zero, scale_row, sub_scaled_row = fld.is_zero, fld.scale_row, fld.sub_scaled_row
    free, pivots = list(range(len(rows))), {}
    for c in cols:
        at = next(t for t in reversed(range(len(free))) if not is_zero(rows[free[t]][c]))
        p = pivots[c] = free.pop(at)
        piv_row = rows[p]
        if not integral:
            piv_row = rows[p] = scale_row(fld.div(fld.one, piv_row[c]), piv_row)
        for i in free[:at]:
            x = rows[i][c]
            if is_zero(x):
                continue
            if integral:
                w = sub_scaled_row(scale_row(piv_row[c], rows[i]), x, piv_row)
                g = gcd(*w)
                rows[i] = [y // g for y in w]
            else:
                rows[i] = sub_scaled_row(rows[i], x, piv_row)
    return pivots


def _reduced_part(tup: PositionTuple) -> int:
    """The part k0 that ``h_intersection_dim`` parametrises: fewest free slots, first on ties."""
    return min(range(tup.s), key=lambda k: tup.parts[k].dim())


def _sample_cells(tup: PositionTuple) -> tuple[int, int, int]:
    """(rows, cols, cells) of one sample, as budgeted: an upper bound.

    Counted as if every part other than k0 were eliminated, on
    sum_{k != k0} codim I_k rows and dim I_k0 columns, in
    rows x cols x min(rows, cols) cells; drawing the 2s flags and solving
    against them adds s (r^3 + q^3), so that no sample is free even when
    the reduced matrix is empty.  ``h_intersection_dim`` reduces a second
    part in closed form and eliminates less; the count is kept so that
    every refusal, and its message, stays as it is.
    """
    r, q = tup.cardinality, tup.ground - tup.cardinality
    k0 = _reduced_part(tup)
    cols = tup.parts[k0].dim()
    rows = sum(r * q - p.dim() for k, p in enumerate(tup.parts) if k != k0)
    return rows, cols, rows * cols * min(rows, cols) + tup.s * (r**3 + q**3)


def _min_sampled_dim(tup: PositionTuple, field, samples: int, rng, stop_at: Optional[int] = None):
    """Smallest joint dimension over sampled flag tuples, with its flags.

    Draws ``samples`` flag tuples, stopping early at a draw whose dimension
    equals ``stop_at``.  Returns (dimension, source flags, target flags).
    Samples whose cells (``_sample_cells``) add up to over the budget
    (``check_elim_cells``) raise ``BudgetError`` before any flag is drawn.
    """
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    rows, cols, cells = _sample_cells(tup)
    what = f"{samples} samples of {cells} elimination cells each (reduced matrix {rows} x {cols})"
    check_elim_cells(field, samples * cells, what)
    r, q = tup.cardinality, tup.ground - tup.cardinality
    best = None
    for _ in range(samples):
        fs = [Flag.random(field, r, rng) for _ in range(tup.s)]
        gs = [Flag.random(field, q, rng) for _ in range(tup.s)]
        d = h_intersection_dim(tup, fs, gs)
        if best is None or d < best[0]:
            best = (d, fs, gs)
        if d == stop_at:
            break
    return best


def tdim_estimate(tup: PositionTuple, field, samples: int, rng) -> int:
    """Minimum joint dimension over sampled flag tuples (upper bound on tdim)."""
    return _min_sampled_dim(tup, field, samples, rng)[0]


class IntersectVerdict(NamedTuple):
    """Outcome of the randomized tangent-space test.

    kinds: "intersecting_certified" (exact, with a witness flag tuple),
    "not_intersecting_mc" (one-sided Monte-Carlo), or
    "not_intersecting_exact" (negative expected dimension).
    """

    kind: str
    edim: int
    tdim_upper_bound: Optional[int]
    samples: int
    field_tag: object
    min_observed_dim: Optional[int] = None
    witness: Optional[dict] = None

    @property
    def intersecting(self) -> bool:
        return self.kind == "intersecting_certified"

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "intersecting": self.intersecting,
            "edim": self.edim,
            "samples": self.samples,
            "field": self.field_tag,
        }
        if self.tdim_upper_bound is not None:
            out["tdim_upper_bound"] = self.tdim_upper_bound
        if self.min_observed_dim is not None:
            out["min_observed_dim"] = self.min_observed_dim
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def certify_intersecting(tup: PositionTuple, field, samples: int, rng) -> IntersectVerdict:
    """Randomized intersection certificate via joint-kernel dimensions."""
    e = tup.edim()
    tag = field.to_json_tag()
    if e < 0:
        return IntersectVerdict("not_intersecting_exact", e, None, 0, tag)
    best, fs, gs = _min_sampled_dim(tup, field, samples, rng, stop_at=e)
    if best == e:
        witness = {
            "source_flags": [f.to_json() for f in fs],
            "target_flags": [g.to_json() for g in gs],
        }
        return IntersectVerdict("intersecting_certified", e, best, samples, tag, best, witness)
    return IntersectVerdict("not_intersecting_mc", e, best, samples, tag, best)


def check_delta_budget(tup: PositionTuple, field) -> None:
    """Raise ``BudgetError`` if ``delta_determinant`` on ``tup`` over ``field`` is over budget.

    The tangent map is (s r q)-square, and drawing or inverting the 2s
    matrices g_k, h_k costs s (r^3 + q^3); callers that draw them check first.
    """
    r, q = tup.cardinality, tup.ground - tup.cardinality
    side = tup.s * r * q
    check_elim_cells(field, side**3 + tup.s * (r**3 + q**3), f"a tangent map of {side} x {side}")


def delta_determinant(tup: PositionTuple, g_vec: Sequence[Mat], h_vec: Sequence[Mat]):
    """Determinant of the tangent map at (g_vec, h_vec) for an edim-0 tuple.

    Bases are fixed once and for all: elementary matrices ordered by (a, b)
    on every Hom block, and at the slots of ``cell_slots`` on each H_{I_k}
    at standard flags, which pins the sign of the result.  A tuple over
    ``check_delta_budget`` raises ``BudgetError`` before any inverse is taken.
    """
    if tup.edim() != 0:
        raise DomainError(f"determinant needs edim == 0, got {tup.edim()}")
    if len(g_vec) != tup.s or len(h_vec) != tup.s:
        raise ShapeError(f"need {tup.s} matrices on each side")
    fld = g_vec[0].field
    r, q = tup.cardinality, tup.ground - tup.cardinality
    hom_dim = r * q
    n_cols = hom_dim + sum(p.dim() for p in tup.parts)
    assert n_cols == tup.s * hom_dim  # rank-nullity at edim zero
    if any(g.nrows != r or g.ncols != r for g in g_vec):
        raise ShapeError(f"source matrices must be {r} x {r}")
    if any(h.nrows != q or h.ncols != q for h in h_vec):
        raise ShapeError(f"target matrices must be {q} x {q}")
    if any(m.field != fld for m in (*g_vec, *h_vec)):
        raise ShapeError("all matrices must share one field")
    check_delta_budget(tup, fld)
    g_invs = [inverse(g) for g in g_vec]  # raises DomainError when singular
    if any(rank(h) < q for h in h_vec):
        raise DomainError("matrix is singular")

    n_rows = tup.s * hom_dim
    # zeta block: identity into every target copy of Hom
    cols = [[fld.one if i % hom_dim == idx else fld.zero for i in range(n_rows)] for idx in range(hom_dim)]
    # phi blocks: image of E_{b,a} under phi |-> h_k phi g_k^{-1}, in block k
    pad = [fld.zero] * hom_dim
    for k, (subset, h, g_inv) in enumerate(zip(tup.parts, h_vec, g_invs)):
        cols += [pad * k + v + pad * (tup.s - 1 - k) for v in _slot_images(fld, h, g_inv, subset.cell_slots())]
    return det(Mat.from_columns(fld, cols, n_rows))


def borel_character(mu: Weight, b: Mat):
    """Product of diagonal entries of an upper-triangular matrix raised to mu."""
    fld = b.field
    n = b.nrows
    if b.ncols != n:
        raise ShapeError("character needs a square matrix")
    if len(mu) != n:
        raise ShapeError(f"weight length {len(mu)} != matrix size {n}")
    for i in range(n):
        for j in range(i):
            if not fld.is_zero(b.rows[i][j]):
                raise DomainError(f"matrix is not upper-triangular at ({i + 1}, {j + 1})")
        if fld.is_zero(b.rows[i][i]):
            raise DomainError(f"zero diagonal entry at {i + 1}")
    result = fld.one
    for i, m in enumerate(mu):
        d = b.rows[i][i] if m >= 0 else fld.div(fld.one, b.rows[i][i])
        for _ in range(abs(m)):
            result = fld.mul(result, d)
    return result
