"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Over QQ a scalar is a Python ``int`` when it is integral and a rational
otherwise: ``gmpy2.mpq``, or ``fractions.Fraction`` when gmpy2 is
unavailable.  ``QQ.of`` keeps that form, so integral rationals never
carry a denominator.  Over GF(p) a scalar is a plain ``int`` in
[0, p): ``GF(p).of`` reduces, and every scalar stored in a matrix,
vector or structure constant is kept reduced, so truth tests, ``==``
and hashing are exact.  The code that adds or multiplies GF(p) scalars
reduces the results mod ``FieldSpec.p`` (linalg reduces each output row
once).  Division goes only through ``FieldSpec.inv``, because ``/`` on
two ints is float division.
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


class FieldSpec:
    """Ground field: the rationals, or GF(p) for a prime p.

    Every prime is supported: module.rad_end reads radicals of
    endomorphism algebras exactly also for p <= the module dimension.
    The rationals are the default everywhere.
    """

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("rationals", "prime"):
            raise ValueError("unknown field kind %r" % kind)
        if kind == "prime":
            if p is None or not _is_prime(p):
                raise ValueError("prime field needs a prime order, got %r" % p)
        self.kind = kind
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, x):
        """Coerce an int, Fraction or 'p/q' string into this field.
        Over QQ the result is an int when x is integral; over GF(p) it
        is the int in [0, p)."""
        p = self.p
        if type(x) is int:
            return x % p if p else x
        if p is None:
            if type(x) is not _RAT:
                x = _RAT(x)
            # mpq.numerator is an mpz, hence the int()
            return int(x.numerator) if x.denominator == 1 else x
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, (Fraction, _RAT)):
            num, den = int(x.numerator), int(x.denominator)
            if den % p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % p)
            return num * pow(den, -1, p) % p
        return int(x) % p

    def inv(self, x):
        """Exact reciprocal of a nonzero scalar of this field."""
        if self.p:
            if x % self.p:
                return pow(x, -1, self.p)
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
