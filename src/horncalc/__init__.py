"""Exact computation with Horn inequalities and Schubert intersections.

The combinatorial route (the memoized Horn recursion) and the geometric
route (randomized tangent-map linear algebra over exact fields) decide the
same intersection questions independently, and the package cross-validates
one against the other.  Everything except the floating-point variational
demo runs in exact arithmetic.

``import horncalc`` loads no submodule: each public name below is imported
from its module on first use (PEP 562), so a command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "errors": "BudgetError DomainError ShapeError",
        "fields": "DEFAULT_PRIME QQ SQRT5 PrimeField RationalField Sqrt5 Sqrt5Field is_prime",
        "flags": (
            "Flag QuotientSpace SubspaceBasis cell_normal_basis induced_flag_on_quotient"
            " induced_flag_on_subspace position sample_cell_point"
        ),
        "hn": "HNResult hn_minimizer_exhaustive",
        "horn": "HornTable HornVerdict HornViolation horn0 horn_classes horn_enumerate horn_member is_intersecting_exact",
        "kirwan": "IneqCertificate kirwan_certificates kirwan_check kirwan_inequality_set lr_nonvanishing tuple_from_weights",
        "matrices": "Mat det inverse kernel_basis rank rref solve_exact",
        "subsets": "CardSubset PositionTuple Weight enumerate_subsets slope subset_of_lambda weights_of_tuple",
        "tangent": (
            "HomSpaceBasis IntersectVerdict borel_character certify_intersecting delta_determinant"
            " h_intersection_dim h_space_basis phi_in_h_space tdim_estimate"
        ),
        "variational": "VariationalReport variational_check",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "rng", "tables"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:  # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
