"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Over QQ a scalar is a Python ``int`` when it is integral and a rational
otherwise: ``gmpy2.mpq``, or ``fractions.Fraction`` when gmpy2 is
unavailable.  ``QQ.of`` keeps that form, so integral rationals never
carry a denominator.  Over GF(p) a scalar is an ``Fp``.  Scalars of
either field support +, -, * and truth tests (zero is false), so matrix
code is field-generic; division goes only through ``FieldSpec.inv``,
because ``/`` on two ints is float division.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _RAT

    RATIONAL_BACKEND = "gmpy2.mpq"
except ImportError:  # pragma: no cover
    _RAT = Fraction
    RATIONAL_BACKEND = "fractions.Fraction"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Fp:
    """Element of GF(p).  Immutable, hashable."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return Fp(self.v + other.v, self.p)

    def __sub__(self, other):
        return Fp(self.v - other.v, self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __mul__(self, other):
        return Fp(self.v * other.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return Fp(self.v * pow(other.v, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.v == other.v and self.p == other.p
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "Fp(%d mod %d)" % (self.v, self.p)


class FieldSpec:
    """Ground field: the rationals, or GF(p) for a prime p.

    Prime fields with small p can misreport radicals of endomorphism
    algebras computed through the trace form; p > module dimension is
    the documented safe regime (module.rad_end).  The rationals are the
    default everywhere.
    """

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("rationals", "prime"):
            raise ValueError("unknown field kind %r" % kind)
        if kind == "prime":
            if p is None or not _is_prime(p):
                raise ValueError("prime field needs a prime order, got %r" % p)
        self.kind = kind
        self.p = p
        # built once: scalars are immutable, so every caller can share them
        if kind == "rationals":
            self._zero, self._one = 0, 1
        else:
            self._zero, self._one = Fp(0, p), Fp(1, p)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def of(self, x):
        """Coerce an int, Fraction, Fp or 'p/q' string into this field.
        Over QQ the result is an int when x is integral."""
        if self.kind == "rationals":
            t = type(x)
            if t is int:
                return x
            if t is not _RAT:
                if isinstance(x, Fp):
                    raise TypeError("cannot coerce GF(p) element into the rationals")
                x = _RAT(x)
            # mpq.numerator is an mpz, hence the int()
            return int(x.numerator) if x.denominator == 1 else x
        if isinstance(x, Fp):
            if x.p != self.p:
                raise TypeError("GF(%d) element used over GF(%d)" % (x.p, self.p))
            return x
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
            if den % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return Fp(num * pow(den, -1, self.p), self.p)
        return Fp(int(x), self.p)

    def inv(self, x):
        """Exact reciprocal of a nonzero scalar of this field."""
        if self.kind == "prime":
            if x.v:
                return Fp(pow(x.v, -1, self.p), self.p)
        elif x:
            return self.of(_RAT(1, x) if type(x) is int else 1 / x)
        raise ZeroDivisionError("reciprocal of zero in %r" % self)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.kind == "rationals" else "GF(%d)" % self.p


QQ = FieldSpec("rationals")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime", p)
