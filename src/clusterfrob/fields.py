"""Coefficient fields: the rationals and prime fields.

Coefficients are plain Python values, not wrapper objects.  Over QQ a
coefficient is an int while it is integral and a reduced Fraction (positive
denominator > 1) otherwise, never a float; ints and Fractions mix through
Python's numeric tower, so one arithmetic path serves both.  Over GF(p) it
is the canonical residue 0 <= c < p.  The field objects only coerce, invert
and render; the arithmetic kernels branch on `field.char` and work on the
raw values directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import FieldMismatchError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# the least strong pseudoprime to every base in _MR_BASES
_MR_EXACT_BELOW = 1287836182261 * 2575672364521


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24; a larger n
    raises ValueError."""
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot decide whether {n} is prime: only "
                         f"n < {_MR_EXACT_BELOW} is decided")
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
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


def qq_canonical(c):
    """The canonical form of a QQ value: an integral Fraction becomes its
    int; an int or a non-integral Fraction is returned as it is."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class RationalField:
    """The field QQ; a singleton, exposed as fields.QQ."""

    char = 0
    name = "QQ"

    zero = 0
    one = 1

    def coerce(self, value):
        """`value` in canonical form: an int when integral, else a
        reduced Fraction.  Floats are refused."""
        if isinstance(value, int):
            return int(value)
        if isinstance(value, (str, Fraction)):
            return qq_canonical(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def invert(self, c):
        if not c:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return qq_canonical(1 / Fraction(c))

    def render(self, c) -> str:
        return str(c)

    def __repr__(self):
        return "QQ"

    def __reduce__(self):  # keep the singleton under pickling
        return (_get_qq, ())


QQ = RationalField()


def _get_qq():
    return QQ


class PrimeField:
    """GF(p) with canonical residues 0..p-1.  Obtain instances via GF(p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return int(value) % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator of {value} vanishes in GF({self.p})")
            return value.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def invert(self, c: int) -> int:
        if c % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(c, -1, self.p)

    def render(self, c: int) -> str:
        return str(c)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def same_field(a, b) -> bool:
    return a is b or a == b


def require_same_field(a, b) -> None:
    if not same_field(a, b):
        raise FieldMismatchError(f"field mismatch: {a!r} vs {b!r}")
