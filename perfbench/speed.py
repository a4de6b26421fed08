"""Scale measured times to a fixed reference speed of the host.

A virtual machine on shared cores can change speed by a factor of two
within seconds, while the process's CPU time still tracks the wall clock
(no time is taken away from it; each instruction just runs slower).  Raw
wall-clock numbers from two runs minutes apart are then not comparable.  The
benchmark therefore interleaves a fixed pure-Python kernel with its
operations and reports every time as
``measured seconds * REFERENCE_KERNEL_S / kernel seconds around it``:
seconds at the speed where the kernel takes ``REFERENCE_KERNEL_S``.  The
kernel does the kind of work horncalc does (small frozen dataclasses,
tuples, dict lookups, modular integer products, ``Fraction`` sums), so the
ratio follows the host's speed swings while a change to horncalc still moves
the scaled numbers in full.  Raw values are printed next to the scaled ones.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

REFERENCE_KERNEL_S = 0.0015
SAMPLE_EVERY_S = 0.05


@dataclass(frozen=True)
class _Cell:
    key: tuple
    weight: int

    def __post_init__(self):
        object.__setattr__(self, "key", tuple(self.key))


def kernel():
    acc = 0
    seen: dict = {}
    for i in range(600):
        cell = _Cell([i % 7, i % 11, i % 13], i)
        key = tuple(x * 3 + 1 for x in cell.key)
        seen[key] = seen.get(key, 0) + 1
        acc = (acc * 31 + cell.weight * key[0]) % 2147483647
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 7 - 3, i % 11 + 1)
    return acc, total


class SpeedProbe:
    """Kernel timings taken between operations, indexed by when they ran."""

    def __init__(self):
        self.at: list = []
        self.cost: list = []
        self.last = float("-inf")

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.cost.append(t1 - t0)
        self.last = t1

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference-speed factor for an interval, from the kernel samples
        taken just before and just after it."""
        i = bisect_left(self.at, start)
        j = bisect_right(self.at, end)
        near = self.cost[i - 1 : i] + self.cost[j : j + 1]
        return REFERENCE_KERNEL_S * len(near) / sum(near)

    def timed(self, fn, *args):
        """Run ``fn`` between two kernel samples; returns (result, scaled s, raw s)."""
        self.sample()
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        self.sample()
        return result, raw * self.factor(t0, t0 + raw), raw
