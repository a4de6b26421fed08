"""Exact computation with Horn inequalities and Schubert intersections.

The combinatorial route (the memoized Horn recursion) and the geometric
route (randomized tangent-map linear algebra over exact fields) decide the
same intersection questions independently, and the package cross-validates
one against the other.  Everything except the floating-point variational
demo runs in exact arithmetic.
"""

from .errors import BudgetError, DomainError, ShapeError
from .fields import DEFAULT_PRIME, QQ, SQRT5, PrimeField, RationalField, Sqrt5, Sqrt5Field, is_prime
from .flags import (
    Flag,
    QuotientSpace,
    SubspaceBasis,
    cell_normal_basis,
    induced_flag_on_quotient,
    induced_flag_on_subspace,
    position,
    sample_cell_point,
)
from .hn import HNResult, hn_minimizer_exhaustive
from .horn import HornTable, HornVerdict, HornViolation, horn0, horn_classes, horn_enumerate, horn_member, is_intersecting_exact
from .kirwan import IneqCertificate, kirwan_certificates, kirwan_check, kirwan_inequality_set, lr_nonvanishing, tuple_from_weights
from .matrices import Mat, det, inverse, kernel_basis, rank, rref, solve_exact
from .subsets import (
    CardSubset,
    PositionTuple,
    Weight,
    enumerate_subsets,
    slope,
    subset_of_lambda,
    weights_of_tuple,
)
from .tangent import (
    HomSpaceBasis,
    IntersectVerdict,
    borel_character,
    certify_intersecting,
    delta_determinant,
    h_intersection_dim,
    h_space_basis,
    phi_in_h_space,
    tdim_estimate,
)
from .variational import VariationalReport, variational_check

__version__ = "0.1.0"
