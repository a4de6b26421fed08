"""Pluggable exact scalar fields: rationals, prime fields, and Q(sqrt 5).

Scalars are plain values (``Fraction`` for the rationals, ``int`` in
[0, p) for GF(p), ``Sqrt5`` pairs for the quadratic extension); the field
object supplies the arithmetic.  This keeps the prime-field hot paths on
machine integers.

The default prime modulus is 2**31 - 1: large enough for Schwartz-Zippel
style genericity, small enough that products fit comfortably in a machine
word before reduction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import mul as _mul

from .errors import DomainError

DEFAULT_PRIME = 2147483647

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least strong pseudoprime to all thirteen bases above
# (Sorenson & Webster, Math. Comp. 86 (2017)); below it the test is exact.
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41.

    Exact for n < psi_13 = 3317044064679887385961981 (about 3.3e24); larger
    n raise ``DomainError`` rather than get a probabilistic answer.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise DomainError(f"primality of {n} is only decided below {_MR_LIMIT}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _OperatorField:
    """A field whose scalars carry their own operators; all instances of a subclass are equal.

    Subclasses set ``name``, ``tag`` (JSON) and ``symbol`` (repr) and write
    ``add``, ``sub``, ``mul`` and ``is_zero``.
    """

    residue_field = None
    integer_rows = None

    def div(self, a, b):
        if self.is_zero(b):
            raise ZeroDivisionError(f"division by zero in {self!r}")
        return a / b

    def neg(self, a):
        return -a

    # row updates of the elimination loop
    def scale_row(self, c, row):
        return [c * x for x in row]

    def sub_scaled_row(self, row, c, pivot_row):
        return [x - c * y for x, y in zip(row, pivot_row)]

    def dot(self, xs, ys):
        return sum(map(_mul, xs, ys), self.zero)

    def to_json_tag(self):
        return self.tag

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.symbol


class PrimeField:
    cell_cost = 1
    residue_field = None
    integer_rows = None

    def __init__(self, p: int):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return a * pow(b, -1, self.p) % self.p

    def neg(self, a):
        return -a % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def scale_row(self, c, row):
        p = self.p
        return [c * x % p for x in row]

    def sub_scaled_row(self, row, c, pivot_row):
        p = self.p
        return [(x - c * y) % p for x, y in zip(row, pivot_row)]

    def dot(self, xs, ys):
        return sum(map(_mul, xs, ys)) % self.p

    def from_int(self, k):
        return k % self.p

    def random(self, rng):
        return rng.randrange(self.p)

    def format(self, a) -> str:
        return str(a % self.p)

    def parse(self, s):
        if isinstance(s, float):  # refused, not truncated
            raise TypeError("not an integer")
        return int(s) % self.p

    def to_json_tag(self):
        return {"prime": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return self.name


class RationalField(_OperatorField):
    name = tag = "rational"
    symbol = "QQ"
    # an elimination cell, in GF(p) cells (``matrices.check_elim_cells``)
    cell_cost = 40
    # where ``matrices.rank`` tries a full rank first
    residue_field = PrimeField(DEFAULT_PRIME)

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def from_int(self, k):
        return Fraction(k)

    def random(self, rng):
        return Fraction(rng.randrange(-99, 100))

    def format(self, a) -> str:
        return str(a)

    def parse(self, s):
        if isinstance(s, (int, Fraction)):
            return Fraction(s)
        return Fraction(str(s))

    # the fraction-free elimination of ``matrices._eliminate``: rows in, quotients out
    def integer_rows(self, rows):
        """Each row times the LCM of its denominators, as ints, and those LCMs."""
        out, scales = [], []
        for row in rows:
            m = lcm(*[x.denominator for x in row])
            out.append([x.numerator * (m // x.denominator) for x in row])
            scales.append(m)
        return out, scales

    def integer_quotients(self, row, dens):
        """The fractions y / d of the ints of ``row`` over the nonzero ints of ``dens``."""
        zero = self.zero
        return [Fraction(y, d) if y else zero for y, d in zip(row, dens)]

    def residues(self, rows):
        """The rows' image in ``residue_field``, or None if its prime divides a denominator."""
        p = self.residue_field.p
        try:
            return [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in rows]
        except ValueError:  # a denominator not invertible mod p
            return None


class Sqrt5:
    """Element a + b*sqrt(5) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, other):
        other = _coerce(other)
        return Sqrt5(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Sqrt5(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return Sqrt5(self.a * other.a + 5 * self.b * other.b, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __neg__(self):
        return Sqrt5(-self.a, -self.b)

    def inverse(self) -> "Sqrt5":
        # a^2 - 5 b^2 = 0 only at zero since sqrt(5) is irrational
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        return Sqrt5(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __eq__(self, other):  # equal to the rational it is, if any, and hashed like it
        if isinstance(other, Sqrt5):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __repr__(self):
        return f"Sqrt5({self.a}, {self.b})"


def _coerce(x) -> Sqrt5:
    if isinstance(x, Sqrt5):
        return x
    return Sqrt5(Fraction(x))


_SQRT5_RE = re.compile(
    r"^(?P<a>[+-]?\d+(?:/\d+)?)?(?P<bterm>(?P<sign>[+-])?(?P<b>\d+(?:/\d+)?)\*s5)?$"
)


class Sqrt5Field(_OperatorField):
    """The quadratic extension Q(sqrt 5), written as a + b*s5 in serial form."""

    name = symbol = "Q(sqrt5)"
    tag = "sqrt5"
    cell_cost = 256
    zero = Sqrt5(0)
    one = Sqrt5(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, x):
        return x.a == 0 and x.b == 0

    def from_int(self, k):
        return Sqrt5(k)

    def random(self, rng):
        return Sqrt5(rng.randrange(-99, 100), rng.randrange(-9, 10))

    def format(self, x: Sqrt5) -> str:
        if x.b == 0:
            return str(x.a)
        sign = "+" if x.b >= 0 else "-"
        return f"{x.a}{sign}{abs(x.b)}*s5"

    def parse(self, s) -> Sqrt5:
        if isinstance(s, Sqrt5):
            return s
        if isinstance(s, int):
            return Sqrt5(s)
        text = str(s).replace(" ", "")
        m = _SQRT5_RE.match(text)
        if not m or (m.group("a") is None and m.group("bterm") is None):
            raise DomainError(f"cannot parse {s!r} as an element of Q(sqrt 5)")
        a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
        b = Fraction(0)
        if m.group("bterm"):
            b = Fraction(m.group("b"))
            if m.group("sign") == "-":
                b = -b
        return Sqrt5(a, b)


QQ = RationalField()
SQRT5 = Sqrt5Field()


def field_from_tag(tag) -> RationalField | PrimeField | Sqrt5Field:
    """Inverse of ``to_json_tag``: "rational" | {"prime": p} | "sqrt5"."""
    if tag == "rational":
        return QQ
    if tag == "sqrt5":
        return SQRT5
    if isinstance(tag, dict) and isinstance(tag.get("prime"), int):
        return PrimeField(tag["prime"])
    raise DomainError(f"unknown field tag {tag!r}")
