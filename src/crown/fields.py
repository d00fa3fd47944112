"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values.  A rational is an int when it is
integral and a `fractions.Fraction` otherwise.  Arithmetic may still
produce an integral Fraction (1/2 * 2); that is harmless, because
`Fraction(2) == 2`, both hash alike and both print "2", so equality,
dict keys and reports are exact whichever form a value takes.  F_p
scalars are ints in ``range(p)``.  A field object bundles the operations
so that matrix and algebra code stays field-generic.  There is no
floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """The field of rational numbers; scalars are ints or `Fraction` values."""

    name = "rational"
    zero = 0
    one = 1

    @property
    def is_prime_field(self):
        return False

    def coerce(self, x):
        """x as a scalar: an int when integral, a Fraction otherwise."""
        if type(x) is int:
            return x
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def from_int(self, m: int):
        return m

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.coerce(1 / Fraction(a))

    def scalar_to_json(self, a):
        return str(a)

    def scalar_from_json(self, s):
        return self.coerce(s)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField:
    """F_p for a prime p; scalars are ints kept reduced into range(p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"not a prime: {p!r}")
        self.p = p
        self.name = f"fp:{p}"
        self.zero = 0
        self.one = 1 % p

    @property
    def is_prime_field(self):
        return True

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator vanishes in this field")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return x % self.p

    def from_int(self, m: int):
        return m % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def scalar_to_json(self, a):
        return int(a)

    def scalar_from_json(self, s):
        return int(s) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))


QQ = RationalField()

_PRIME_FIELDS: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the (cached) prime field with p elements."""
    if p not in _PRIME_FIELDS:
        _PRIME_FIELDS[p] = PrimeField(p)
    return _PRIME_FIELDS[p]


def parse_field(text: str):
    """Parse a field tag: ``rational`` or ``fp:<p>``."""
    if text == "rational":
        return QQ
    if text.startswith("fp:") and text[3:].isdecimal():
        return GF(int(text[3:]))
    raise ValueError(f"unknown field tag {text!r} (expected 'rational' or 'fp:<p>')")
