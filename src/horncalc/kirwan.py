"""Kirwan cone membership and Littlewood-Richardson nonvanishing.

A point of the candidate cone is an s-tuple of nonincreasing rational
vectors of length r.  Membership is the trace condition together with one
linear inequality per tuple in the edim-0 Horn slices at every level
0 < d < r; each evaluated inequality is returned as a re-checkable
certificate.  Saturation makes nonvanishing of the invariant-count for
dominant integral weights exactly this cone membership, so ``lr_nonvanishing``
is the same test on the rational embedding.

The inequality system of each (r, s) is compiled once per ``HornTable`` to
0-based index getters over the flattened point.  Points are evaluated in
integers: integer points as they are, rational points after scaling by the
LCM of their denominators, which divides back out of each reported ``lhs``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, ShapeError
from .horn import HornTable
from .subsets import PositionTuple, Weight, subset_of_lambda, weights_of_tuple


def _as_chamber_point(parts: Sequence[Sequence]) -> tuple[list[int], int, int, int]:
    """Validate a cone point and flatten it to integers: ``(flat, r, s, den)``.

    Integer entries are used as they are, others are read as ``Fraction``;
    every entry is scaled by ``den``, the LCM of the denominators."""
    rows = []
    for k, part in enumerate(parts, start=1):
        vec = [x if isinstance(x, int) else Fraction(x) for x in part]
        for j in range(len(vec) - 1):
            if vec[j] < vec[j + 1]:
                raise DomainError(
                    f"component {k} is not nonincreasing at positions ({j + 1}, {j + 2})"
                )
        rows.append(vec)
    if not rows:
        raise DomainError("a cone point needs at least one component")
    r = len(rows[0])
    if any(len(v) != r for v in rows):
        raise ShapeError("all components must have the same length")
    flat = [x for vec in rows for x in vec]
    den = math.lcm(*(x.denominator for x in flat))
    return [x.numerator * (den // x.denominator) for x in flat], r, len(rows), den


class IneqCertificate(NamedTuple):
    """One evaluated constraint: the trace equality or a Horn inequality."""

    kind: str  # "trace" or "horn"
    d: int
    j_tuple: Optional[PositionTuple]
    lhs: Fraction
    status: str  # "violated" | "tight" | "slack"

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "lhs": [self.lhs.numerator, self.lhs.denominator],
            "status": self.status,
        }
        if self.kind == "horn":
            out["d"] = self.d
            out["j_tuple"] = self.j_tuple.to_lists()
        return out


def kirwan_inequality_set(r: int, s: int, cache: HornTable) -> list[tuple[int, PositionTuple]]:
    """Index set of the cone inequalities: edim-0 Horn tuples, 0 < d < r."""
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    if s < 2:
        raise DomainError(f"need s >= 2, got {s}")
    cache.check_budget((d, r, s) for d in range(1, r))
    return [(d, j) for d in range(1, r) for j in cache.zero_slice(d, r, s)]


def _evaluated(parts: Sequence[Sequence], cache: HornTable):
    """Evaluate in integers: ``(den, trace, horn)``, all scaled by ``den``.

    ``horn`` lazily yields ``(d, J, lhs)`` in ``kirwan_inequality_set`` order;
    the (r, s) system is compiled on first use and kept on ``cache``."""
    flat, r, s, den = _as_chamber_point(parts)
    system = cache.kirwan_systems.get((r, s))
    if system is None:
        # d >= 1 and s >= 2: each getter takes 2+ indices, so returns a tuple
        system = cache.kirwan_systems[(r, s)] = [
            (d, j, itemgetter(*(k * r + a - 1 for k, part in enumerate(j.parts) for a in part)))
            for d, j in kirwan_inequality_set(r, s, cache)
        ]
    return den, sum(flat), ((d, j, sum(terms(flat))) for d, j, terms in system)


def _certificate(d: int, j: Optional[PositionTuple], lhs: int, den: int) -> IneqCertificate:
    """The trace equality when ``j`` is None, else the Horn inequality of ``j``."""
    if j is None:
        return IneqCertificate("trace", 0, None, Fraction(lhs, den), "tight" if lhs == 0 else "violated")
    status = "violated" if lhs > 0 else ("tight" if lhs == 0 else "slack")
    return IneqCertificate("horn", d, j, Fraction(lhs, den), status)


def kirwan_certificates(parts: Sequence[Sequence], cache: HornTable) -> list[IneqCertificate]:
    """Every constraint evaluated at the point (trace first)."""
    den, trace, horn = _evaluated(parts, cache)
    return [_certificate(0, None, trace, den)] + [_certificate(d, j, lhs, den) for d, j, lhs in horn]


def kirwan_check(parts: Sequence[Sequence], cache: HornTable) -> tuple[bool, list[IneqCertificate]]:
    """Cone membership plus the violated certificates (empty when inside).

    Integer points are evaluated directly and rational points after scaling
    by the LCM of their denominators; certificates are built only for the
    violated constraints, in the order of ``kirwan_certificates``.
    """
    den, trace, horn = _evaluated(parts, cache)
    violated = [_certificate(0, None, trace, den)] if trace else []
    violated += [_certificate(d, j, lhs, den) for d, j, lhs in horn if lhs > 0]
    return (not violated, violated)


def lr_nonvanishing(lams: Sequence[Weight], cache: HornTable) -> bool:
    """Whether the invariant count of the weight tuple is positive (dominance is the chamber check)."""
    _, trace, horn = _evaluated([lam.entries for lam in lams], cache)
    return trace == 0 and all(lhs <= 0 for _, _, lhs in horn)


def tuple_from_weights(lams: Sequence[Weight]) -> tuple[int, PositionTuple]:
    """Invert the weight dictionary after minimal shifts into its windows.

    The first s-1 weights are shifted (by a multiple of the all-ones vector,
    only when needed) to be nonnegative, the last to be nonpositive; the
    common ground becomes r plus the largest entry magnitude.  The result
    satisfies weights_of_tuple(tuple) == shifted weights, which is asserted.
    """
    if not lams:
        raise DomainError("need at least one weight")
    r = len(lams[0])
    for k, lam in enumerate(lams, start=1):
        if len(lam) != r:
            raise ShapeError(f"weight {k} has length {len(lam)} != {r}")
        if not lam.is_dominant():
            raise DomainError(f"weight {k} is not dominant: {lam.entries}")
    shifted = []
    for lam in lams[:-1]:
        shifted.append(lam.shift(-lam(r)) if lam(r) < 0 else lam)
    last = lams[-1]
    shifted.append(last.shift(-last(1)) if last(1) > 0 else last)
    q = max(
        [lam(1) for lam in shifted[:-1]] + [-shifted[-1](r)] + [0]
    )
    n = r + q
    parts = [subset_of_lambda(lam.shift(-q), n) for lam in shifted[:-1]]
    parts.append(subset_of_lambda(shifted[-1], n))
    tup = PositionTuple(tuple(parts))
    assert [w.entries for w in weights_of_tuple(tup)] == [w.entries for w in shifted]
    assert tup.edim() == -sum(w.total() for w in shifted)
    return n, tup
