"""Floating-point demonstration of the eigenvalue variational principle.

For a Hermitian matrix with spectrum xi and eigenflag F, the trace of
X compressed to any subspace in the closed Schubert cell at position J is
at least sum of xi over J, with equality on the span of the eigenvectors
indexed by J.  This is the only floating-point surface in the package;
everything else is exact.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import BudgetError, DomainError
from .subsets import CardSubset

# numpy is imported on use: at import time it would double every command's start-up and memory
if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOLERANCE = 1e-9
# (trials + 1) x max(r, 4)^3: each trial (and the set-up draw) is a few r x r
# products and a QR, and below r = 4 numpy's per-call overhead dominates.
MAX_TRIAL_WORK = 10**6


class VariationalReport(NamedTuple):
    ok: bool
    lower_bound: float
    equality_error: float
    min_trace: float
    min_margin: float
    trials: int
    failures: list

    def to_json(self) -> dict:
        return self._asdict()


def _random_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    import numpy as np
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # normalize phases so the factorization is canonical
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _cell_sample_float(gen: np.random.Generator, eigvecs: np.ndarray, subset: CardSubset) -> np.ndarray:
    """Random point of the Schubert cell of the eigenflag, as an orthonormal basis."""
    import numpy as np
    n, d = subset.ground, subset.cardinality
    cols = np.zeros((n, d), dtype=complex)
    for a, ia in enumerate(subset.elements, start=1):
        col = np.zeros(n, dtype=complex)
        col[a - 1] = 1.0
        free = ia - a
        if free:
            col[d : d + free] = gen.standard_normal(free) + 1j * gen.standard_normal(free)
        cols[:, a - 1] = col
    # eigenvectors in shuffle order, as a C-ordered copy: the operand's
    # layout picks BLAS's summation order, so it is kept fixed
    ambient = eigvecs.take([j - 1 for j in subset.shuffle_permutation()], axis=1) @ cols
    q, _ = np.linalg.qr(ambient)
    return q


def check_trial_budget(r: int, trials: int) -> None:
    """Raise ``BudgetError`` if ``trials`` at rank r are over ``MAX_TRIAL_WORK``; callers that draw the spectrum check first."""
    work = (trials + 1) * max(r, 4) ** 3
    if work > MAX_TRIAL_WORK:
        raise BudgetError(f"{trials} trials at r = {r}: (trials + 1) * max(r, 4)**3 = {work}, over {MAX_TRIAL_WORK}")


def variational_check(
    xi: Sequence[float],
    subset: CardSubset | Sequence[int],
    trials: int,
    tolerance: float,
    seed: int,
) -> VariationalReport:
    """Stress the lower bound tr(P_S X) >= sum_{j in J} xi(j) at position J.

    Traces are compared up to ``tolerance * max(1, sum |xi|)``: float
    rounding grows with the spectrum's scale.
    """
    import numpy as np
    xi = [float(x) for x in xi]
    r = len(xi)
    if not math.isfinite(r * sum(map(abs, xi))):
        raise DomainError("spectrum must be finite, with r * sum(|xi|) inside the float range")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance}")
    if trials < 0:
        raise DomainError(f"trials must be >= 0, got {trials}")
    check_trial_budget(r, trials)
    if any(a < b for a, b in zip(xi, xi[1:])):
        raise DomainError("spectrum must be nonincreasing")
    if not isinstance(subset, CardSubset):
        subset = CardSubset(r, tuple(int(x) for x in subset))
    if subset.ground != r:
        raise DomainError(f"subset ground {subset.ground} != spectrum length {r}")
    gen = np.random.Generator(np.random.PCG64(seed))
    u = _random_unitary(gen, r)
    x = u @ np.diag(xi) @ u.conj().T
    bound = float(sum(xi[j - 1] for j in subset))
    slack = tolerance * max(1.0, sum(map(abs, xi)))

    eig_cols = u[:, [j - 1 for j in subset.elements]]
    equality_trace = float(np.real(np.trace(eig_cols.conj().T @ x @ eig_cols)))
    equality_error = abs(equality_trace - bound)

    failures = []
    min_trace = float("inf")
    for t in range(trials):
        q = _cell_sample_float(gen, u, subset)
        tr = float(np.real(np.trace(q.conj().T @ x @ q)))
        min_trace = min(min_trace, tr)
        if tr < bound - slack:
            failures.append({"trial": t, "trace": tr})
    ok = equality_error <= slack and not failures
    return VariationalReport(
        ok=ok,
        lower_bound=bound,
        equality_error=equality_error,
        min_trace=min_trace if trials else equality_trace,
        min_margin=(min_trace - bound) if trials else 0.0,
        trials=trials,
        failures=failures,
    )
