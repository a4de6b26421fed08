"""Every precondition check that no other test reaches: its exception type and message.

Each case calls one public function with arguments that break exactly one
precondition, so removing that check makes the case fail: either nothing
is raised or a later step raises something else.
"""

import random

import pytest

from horncalc.errors import DomainError, ShapeError
from horncalc.fields import QQ, PrimeField
from horncalc.flags import Flag, SubspaceBasis, position, sample_cell_point
from horncalc.hn import hn_minimizer_exhaustive
from horncalc.kirwan import tuple_from_weights
from horncalc.matrices import Mat, det, solve_exact
from horncalc.subsets import CardSubset, PositionTuple, Weight, slope
from horncalc.tangent import borel_character, delta_determinant, h_intersection_dim, h_space_basis
from helpers import mul_vec

GF7 = PrimeField(7)


def eye(field, n):
    return Mat.identity(field, n)


def flag(field, n):
    return Flag.standard(field, n)


def tup(ground, *parts):
    return PositionTuple.from_lists(ground, parts)


CASES = [
    # tangent
    ("h_space_basis target dimension", ShapeError, "target flag dimension 3 != 2",
     lambda: h_space_basis(CardSubset(4, (1, 3)), flag(QQ, 2), flag(QQ, 3))),
    ("h_space_basis field", ShapeError, "source and target flags must share a field",
     lambda: h_space_basis(CardSubset(4, (1, 3)), flag(QQ, 2), flag(GF7, 2))),
    ("h_intersection_dim pair count", ShapeError, "need 2 flag pairs, got 1, 1",
     lambda: h_intersection_dim(tup(4, [1, 3], [2, 4]), [flag(QQ, 2)], [flag(QQ, 2)])),
    ("h_intersection_dim field", ShapeError, "all flags must share one field",
     lambda: h_intersection_dim(tup(4, [1, 3], [2, 4]), [flag(QQ, 2), flag(GF7, 2)], [flag(QQ, 2), flag(GF7, 2)])),
    ("delta_determinant matrix count", ShapeError, "need 2 matrices on each side",
     lambda: delta_determinant(tup(2, [1], [2]), [eye(QQ, 1)], [eye(QQ, 1)] * 2)),
    ("delta_determinant source size", ShapeError, "source matrices must be 1 x 1",
     lambda: delta_determinant(tup(2, [1], [2]), [eye(QQ, 1), eye(QQ, 2)], [eye(QQ, 1)] * 2)),
    ("delta_determinant target size", ShapeError, "target matrices must be 1 x 1",
     lambda: delta_determinant(tup(2, [1], [2]), [eye(QQ, 1)] * 2, [eye(QQ, 2), eye(QQ, 1)])),
    ("borel_character square", ShapeError, "character needs a square matrix",
     lambda: borel_character(Weight((1,)), Mat(QQ, [[1, 0]]))),
    ("borel_character weight length", ShapeError, "weight length 2 != matrix size 1",
     lambda: borel_character(Weight((1, 0)), eye(QQ, 1))),
    ("borel_character zero diagonal", DomainError, "zero diagonal entry at 2",
     lambda: borel_character(Weight((1, -1)), Mat(GF7, [[1, 1], [0, 0]]))),
    # matrices
    ("Mat ragged", ShapeError, "ragged rows", lambda: Mat(QQ, [[1, 2], [3]])),
    ("Mat ncols", ShapeError, "ncols=3 but rows have length 2", lambda: Mat(QQ, [[1, 2]], 3)),
    ("Mat.from_columns empty", ShapeError, "empty column list needs an explicit row count",
     lambda: Mat.from_columns(QQ, [])),
    ("Mat.mul_vec length", ShapeError, "vector length 1 != ncols 2", lambda: mul_vec(eye(QQ, 2), [1])),
    ("Mat.add shapes", ShapeError, "matrix addition needs identical shapes", lambda: eye(QQ, 2).add(eye(QQ, 3))),
    ("det nonsquare", ShapeError, "determinant of a nonsquare matrix", lambda: det(Mat(QQ, [[1, 0]]))),
    ("solve_exact rows", ShapeError, "row counts differ", lambda: solve_exact(eye(QQ, 2), Mat.zeros(QQ, 3, 1))),
    ("solve_exact rank", DomainError, "coefficient matrix does not have full column rank",
     lambda: solve_exact(Mat(QQ, [[1, 1], [0, 0]]), Mat(QQ, [[1], [0]]))),
    # flags
    ("Flag field", ShapeError, "field mismatch between flag and matrix", lambda: Flag(QQ, eye(GF7, 2))),
    ("SubspaceBasis field", ShapeError, "field mismatch between subspace and matrix",
     lambda: SubspaceBasis(QQ, eye(GF7, 2))),
    ("SubspaceBasis rank", DomainError, "subspace basis must have full column rank",
     lambda: SubspaceBasis(QQ, Mat(QQ, [[1, 2], [2, 4]]))),
    ("position field", ShapeError, "subspace and flag live over different fields",
     lambda: position(SubspaceBasis(GF7, eye(GF7, 2)), flag(QQ, 2))),
    ("sample_cell_point ground", ShapeError, "subset ground 3 != flag dimension 2",
     lambda: sample_cell_point(CardSubset(3, (1,)), flag(QQ, 2), random.Random(0))),
    # hn
    ("hn no flags", ShapeError, "need at least one flag", lambda: hn_minimizer_exhaustive([], [])),
    ("hn flag shapes", ShapeError, "all flags must share dimension and field",
     lambda: hn_minimizer_exhaustive([flag(GF7, 2), flag(GF7, 3)], [Weight((0, 0))] * 2)),
    # kirwan
    ("tuple_from_weights empty", DomainError, "need at least one weight", lambda: tuple_from_weights([])),
    ("tuple_from_weights length", ShapeError, "weight 2 has length 1 != 2",
     lambda: tuple_from_weights([Weight((0, 0)), Weight((0,))])),
    ("tuple_from_weights dominance", DomainError, "weight 2 is not dominant: (0, 1)",
     lambda: tuple_from_weights([Weight((1, 0)), Weight((0, 1))])),
    # subsets
    ("CardSubset.exponent ground", ShapeError, "exponent needs inner ground == outer cardinality, got 3 != 2",
     lambda: CardSubset(4, (1, 3)).exponent(CardSubset(3, (1,)))),
    ("PositionTuple inner length", ShapeError, "tuple lengths differ: 2 != 1",
     lambda: tup(4, [1, 3], [2, 4]).compose(tup(2, [1]))),
    ("PositionTuple inner ground", ShapeError, "inner ground must equal outer cardinality, got 3 != 2",
     lambda: tup(4, [1, 3], [2, 4]).quotient(tup(3, [1], [2]))),
    ("slope weight count", ShapeError, "need one weight per part, got 1 for s=2",
     lambda: slope(tup(3, [1], [2]), [Weight((0, 0, 0))])),
    ("slope weight length", ShapeError, "weight length 2 != ground 3",
     lambda: slope(tup(3, [1], [2]), [Weight((0, 0, 0)), Weight((0, 0))])),
]


@pytest.mark.parametrize("exc, message, call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_precondition_raises(exc, message, call):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
