"""Seeded input generators shared by the workloads and by ``record.py``.

Everything here is plain Python on integers; horncalc only receives the
finished inputs.
"""

from __future__ import annotations

import random


def stream(*key) -> random.Random:
    """Random stream for one purpose; str seeding is stable across processes."""
    return random.Random("/".join(str(k) for k in key))


def edim_of(parts, n: int) -> int:
    r = len(parts[0])
    cell = r * (n - r)
    return cell - sum(cell - sum(x - a for a, x in enumerate(p, start=1)) for p in parts)


def random_parts(rnd: random.Random, r: int, n: int, edim: int, s: int = 3) -> list[list[int]]:
    """s random r-subsets of [n], moved one step at a time until edim is exact.

    Raising one element by one raises the expected dimension by one, so the
    walk ends exactly at ``edim``.
    """
    parts = [sorted(rnd.sample(range(1, n + 1), r)) for _ in range(s)]
    e = edim_of(parts, n)
    while e != edim:
        step = 1 if e < edim else -1
        slots = []
        for k, p in enumerate(parts):
            for a in range(r):
                if step > 0 and p[a] < (p[a + 1] - 1 if a + 1 < r else n):
                    slots.append((k, a))
                if step < 0 and p[a] > (p[a - 1] + 1 if a > 0 else 1):
                    slots.append((k, a))
        k, a = rnd.choice(slots)
        parts[k][a] += step
        e += step
    return parts


def dominant_weights(rnd: random.Random, r: int, lo: int, hi: int, s: int = 3) -> list[list[int]]:
    """s nonincreasing integer vectors of length r whose entries sum to zero."""
    while True:
        weights = [sorted((rnd.randrange(lo, hi + 1) for _ in range(r)), reverse=True) for _ in range(s)]
        total = sum(map(sum, weights))
        last = [x - total // r for x in weights[-1]]
        last[-1] -= total % r
        weights[-1] = last
        if all(a >= b for a, b in zip(last, last[1:])):
            return weights


def unitriangular_product(rnd: random.Random, n: int, q: int) -> list[list[int]]:
    """Random invertible n x n matrix mod q, built as L U with nonzero pivots."""
    low = [[1 if i == j else (rnd.randrange(q) if i > j else 0) for j in range(n)] for i in range(n)]
    up = [[rnd.randrange(1, q) if i == j else (rnd.randrange(q) if j > i else 0) for j in range(n)] for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) % q for j in range(n)] for i in range(n)]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def nonzero_subspaces(r: int, q: int) -> int:
    return sum(gaussian_binomial(r, d, q) for d in range(1, r + 1))


def triangle_criterion(parts) -> bool:
    """Closed form of r = 2 nonvanishing: trace zero and three triangle inequalities."""
    (a1, b1), (a2, b2), (a3, b3) = parts
    if a1 + b1 + a2 + b2 + a3 + b3 != 0:
        return False
    return a1 + b2 + b3 <= 0 and a2 + b1 + b3 <= 0 and a3 + b1 + b2 <= 0
