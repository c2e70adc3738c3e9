"""Exact scalar arithmetic over Q and over quadratic extensions Q(sqrt(r)).

Every scalar that appears in an exact certificate is either a Fraction or a
Surd, i.e. a single term coeff*sqrt(radicand) in canonical form.  Canonical
form makes structural equality coincide with numerical equality, so Surd
values can live in sets and dict keys.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable, Union

from .config import ENV_SIZE_CAP, SizeCapExceeded, size_cap

Scalar = Union[int, Fraction, "Surd"]


class MixedRadicandError(ArithmeticError):
    """Raised when adding surds over distinct quadratic extensions."""


def square_free_split(n: int) -> tuple[int, int]:
    """Return (f, s) with n = f*f*s and s square-free.  Requires n >= 0.
    Trial division, SizeCapExceeded once the divisor passes size_cap().
    A divisor p is tried as p*p only when p itself divides s, since a p
    that does not divide s cannot have p*p divide it either."""
    if n < 0:
        raise ValueError("square_free_split needs a non-negative integer")
    if n in (0, 1):
        return 1, n
    f = 1
    s = n
    p = 2
    cap = size_cap()
    while p * p <= s:
        if p > cap:
            raise SizeCapExceeded(f"square-free split of {n} needs trial divisors "
                                  f"above the cap {cap} (raise {ENV_SIZE_CAP} to override)")
        while s % p == 0 and s % (p * p) == 0:
            s //= p * p
            f *= p
        p += 1 if p == 2 else 2
    return f, s


@dataclass(frozen=True, order=False)
class Surd:
    """coeff * sqrt(radicand) with radicand square-free and positive.

    The constructor normalizes: square factors are pulled out of the
    radicand, radicand 0 collapses to the canonical zero, and coeff 0
    forces radicand 1.  Rationals are the radicand-1 case.
    """

    coeff: Fraction
    radicand: int

    def __init__(self, coeff: Scalar = 0, radicand: int = 1) -> None:
        if isinstance(coeff, Surd):
            if radicand != 1:
                raise TypeError("cannot nest a Surd inside a radical")
            object.__setattr__(self, "coeff", coeff.coeff)
            object.__setattr__(self, "radicand", coeff.radicand)
            return
        c = Fraction(coeff)
        r = int(radicand)
        if r < 0:
            raise ValueError("radicand must be non-negative")
        f, s = square_free_split(r)
        c *= f
        if s == 0 or c == 0:
            c, s = Fraction(0), 1
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "radicand", s)

    # --- predicates and conversions ---

    @property
    def is_rational(self) -> bool:
        return self.radicand == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.coeff

    def __float__(self) -> float:
        return float(self.coeff) * sqrt(self.radicand)

    def __bool__(self) -> bool:
        return self.coeff != 0

    @staticmethod
    def sqrt_of(q: Scalar) -> "Surd":
        """Exact square root of a non-negative rational."""
        if isinstance(q, Surd):
            q = q.as_fraction()
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt of a negative rational")
        # sqrt(p/q) = sqrt(p*q)/q
        return Surd(Fraction(1, q.denominator), q.numerator * q.denominator)

    # --- ring operations ---

    def _coerce(self, other: Scalar) -> "Surd":
        if isinstance(other, Surd):
            return other
        if isinstance(other, (int, Fraction)):
            return Surd(other)
        return NotImplemented  # type: ignore[return-value]

    def __neg__(self) -> "Surd":
        return Surd(-self.coeff, self.radicand)

    def __add__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.coeff == 0:
            return o
        if o.coeff == 0:
            return self
        if self.radicand != o.radicand:
            raise MixedRadicandError(
                f"cannot add sqrt({self.radicand}) and sqrt({o.radicand}) terms exactly"
            )
        return Surd(self.coeff + o.coeff, self.radicand)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "Surd":
        return self + (-self._coerce(other))

    def __mul__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Surd(self.coeff * o.coeff, self.radicand * o.radicand)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.coeff == 0:
            raise ZeroDivisionError("division by zero surd")
        # 1/(c*sqrt(r)) = sqrt(r)/(c*r)
        return self * Surd(Fraction(1, 1) / (o.coeff * o.radicand), o.radicand)

    def __rtruediv__(self, other: Scalar) -> "Surd":
        return self._coerce(other) / self

    # --- total order ---

    def _order(self, other: object, op: Callable[[int, int], bool]) -> bool:
        # NotImplemented for floats and other types, so Python raises its
        # own TypeError naming both types
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return op(surd_cmp(self, o), 0)

    def __eq__(self, other: object) -> bool:
        # canonical form: equal values have equal fields
        if isinstance(other, Surd):
            return self.coeff == other.coeff and self.radicand == other.radicand
        return self._order(other, operator.eq)

    def __hash__(self) -> int:
        # rationals hash like their Fraction value so 'Surd(2) in {2}' holds
        if self.radicand == 1:
            return hash(self.coeff)
        return hash((self.coeff, self.radicand))

    def __lt__(self, other: Scalar) -> bool:
        return self._order(other, operator.lt)

    def __le__(self, other: Scalar) -> bool:
        return self._order(other, operator.le)

    def __gt__(self, other: Scalar) -> bool:
        return self._order(other, operator.gt)

    def __ge__(self, other: Scalar) -> bool:
        return self._order(other, operator.ge)

    # --- rendering ---

    def __str__(self) -> str:
        if self.radicand == 1:
            return str(self.coeff)
        if self.coeff == 1:
            return f"sqrt({self.radicand})"
        if self.coeff == -1:
            return f"-sqrt({self.radicand})"
        return f"{self.coeff}*sqrt({self.radicand})"

    def __repr__(self) -> str:
        return f"Surd({self.coeff!r}, {self.radicand})"


def surd_cmp(a: Scalar, b: Scalar) -> int:
    """Exact three-way comparison: -1, 0, or 1 as a < b, a == b, a > b.

    Both values are nonnegative-coefficient multiples of square roots, so
    after comparing signs it suffices to compare squares; squares of surds
    are rational.
    """
    a = a if isinstance(a, Surd) else Surd(a)
    b = b if isinstance(b, Surd) else Surd(b)
    sa = (a.coeff > 0) - (a.coeff < 0)
    sb = (b.coeff > 0) - (b.coeff < 0)
    if sa != sb:
        return -1 if sa < sb else 1
    if sa == 0:
        return 0
    qa = a.coeff * a.coeff * a.radicand
    qb = b.coeff * b.coeff * b.radicand
    if qa == qb:
        # equal squares with equal signs: equal values iff same radicand,
        # and canonical form makes equal values structurally identical
        if a.radicand != b.radicand:
            raise AssertionError("canonical surds with equal squares must match")
        return 0
    if qa < qb:
        return -sa
    return sa


# a rational: integer, p/q, or decimal with optional exponent
_RATIONAL = r"[+-]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
_SCALAR_RE = re.compile(
    rf"(?P<rational>{_RATIONAL})"
    rf"|(?:(?P<coeff>{_RATIONAL})\s*\*\s*|(?P<neg>-))?sqrt\(\s*(?P<rad>\d+(?:/\d+)?)\s*\)"
)


def parse_scalar(text: str) -> Surd:
    """Parse one exact scalar into a canonical Surd.

    Accepts a rational r (integer, p/q or decimal, kept exact), sqrt(q),
    -sqrt(q) and r*sqrt(q) for a non-negative rational q written p/q or as
    an integer: every form scalar_str writes.  Anything else, including
    nan and inf, raises ValueError.
    """
    m = _SCALAR_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"cannot parse scalar {text!r}")
    try:
        if m.group("rational") is not None:
            return Surd(Fraction(m.group("rational")))
        root = Surd.sqrt_of(Fraction(m.group("rad")))
    except ZeroDivisionError:
        raise ValueError(f"cannot parse scalar {text!r}: zero denominator") from None
    if m.group("neg"):
        return -root
    coeff = m.group("coeff")
    return root * Fraction(coeff) if coeff is not None else root


def scalar_str(x: Scalar) -> str:
    """Render an exact scalar the way parse_scalar reads it."""
    return str(Surd(x))
