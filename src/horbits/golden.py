"""Exact arithmetic in the golden field Q(tau), where tau = (1+sqrt(5))/2.

Every number is stored as ``q + r*tau`` with exact rational ``q`` and ``r``.
Multiplication uses tau**2 = tau + 1, so the representation is closed under
all field operations, and equality/ordering are decided without floating
point.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import total_ordering

from .errors import SizeLimitError

__all__ = [
    "GoldenNumber",
    "golden",
    "parse_golden",
    "value_fraction",
    "ZERO",
    "ONE",
    "TAU",
    "TAU_PRIME",
]

_RATIONAL = r"[+-]?\d+(?:/0*[1-9]\d*)?"  # INT or INT/POSINT
_PURE_RE = re.compile(rf"({_RATIONAL})(t?)\Z")
_MIXED_RE = re.compile(rf"({_RATIONAL})([+-])({_RATIONAL})t\Z")

# sqrt(5) to 120 fractional bits; enough that float(...) below is correct to
# 1 ulp for any value whose parts fit comfortably in a double.
_SQRT5 = Fraction(math.isqrt(5 << 240), 1 << 120)
_TAU_FRACTION = (1 + _SQRT5) / 2
# tau as the nearest float64: the float filters and the presort of exact ranks
_TAU_F = float(_TAU_FRACTION)

_RationalLike = (int, Fraction)


@total_ordering
class GoldenNumber:
    """An element ``q + r*tau`` of Q(tau) with exact rational parts."""

    __slots__ = ("rat", "tau", "_hash", "_text")

    def __init__(self, rat=0, tau=0):
        # Fractions are immutable: share them rather than copy
        object.__setattr__(self, "rat", rat if type(rat) is Fraction else Fraction(rat))
        object.__setattr__(self, "tau", tau if type(tau) is Fraction else Fraction(tau))

    def __setattr__(self, name, value):
        raise AttributeError("GoldenNumber is immutable")

    def __reduce__(self):
        # the parts alone: copies and unpickled numbers recompute _hash and _text
        return GoldenNumber, (self.rat, self.tau)

    # -- coercion -------------------------------------------------------

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, GoldenNumber):
            return value
        if isinstance(value, _RationalLike):
            return cls(value)
        return None

    # -- ring/field operations ------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GoldenNumber(self.rat + other.rat, self.tau + other.tau)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GoldenNumber(self.rat - other.rat, self.tau - other.tau)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GoldenNumber(other.rat - self.rat, other.tau - self.tau)

    def __neg__(self):
        return GoldenNumber(-self.rat, -self.tau)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        q1, r1, q2, r2 = self.rat, self.tau, other.rat, other.tau
        return GoldenNumber(q1 * q2 + r1 * r2, q1 * r2 + r1 * q2 + r1 * r2)

    __rmul__ = __mul__

    def inverse(self) -> GoldenNumber:
        """Multiplicative inverse, via the Galois conjugate.

        ``x * conj(x)`` is rational, so ``1/x = conj(x) / (x * conj(x))``.
        Raises ZeroDivisionError on zero.
        """
        q, r = self.rat, self.tau
        norm = q * q + q * r - r * r
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(tau)")
        return GoldenNumber((q + r) / norm, -r / norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> GoldenNumber:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> GoldenNumber:
        """Galois conjugate: tau -> 1 - tau."""
        return GoldenNumber(self.rat + self.tau, -self.tau)

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value q + r*(1+sqrt5)/2 (-1, 0 or +1)."""
        q, r = self.rat, self.tau
        denom = math.lcm(q.denominator, r.denominator)
        return _sign_pair(q.numerator * (denom // q.denominator),
                          r.numerator * (denom // r.denominator))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.rat == other.rat and self.tau == other.tau

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        # computed once: the flat-row helpers share one number between weights
        try:
            return self._hash
        except AttributeError:
            value = hash((self.rat, self.tau))
            object.__setattr__(self, "_hash", value)
            return value

    def __bool__(self):
        return self.rat != 0 or self.tau != 0

    # -- conversions ------------------------------------------------------

    def __float__(self):
        return float(self.rat + self.tau * _TAU_FRACTION)

    @property
    def is_rational(self) -> bool:
        return self.tau == 0

    @property
    def is_ztau(self) -> bool:
        """True if both parts are integers, i.e. the value lies in Z[tau]."""
        return self.rat.denominator == 1 and self.tau.denominator == 1

    def parts(self) -> tuple[Fraction, Fraction]:
        return self.rat, self.tau

    # -- text form ---------------------------------------------------------

    def __str__(self):
        # rendered once: the flat-row helpers share one number per distinct
        # coordinate, so listings and exports print each distinct value once
        try:
            return self._text
        except AttributeError:
            q, r = self.rat, self.tau
            try:
                text = str(r) if r else str(q)
                if r and q:
                    text = f"{q}{text if text[0] == '-' else '+' + text}t"
                elif r:
                    text += "t"
            except ValueError as exc:  # a part longer than Python's int-to-str limit
                raise SizeLimitError(
                    f"cannot print a number with a part of more than "
                    f"{sys.get_int_max_str_digits()} digits (Python's int-to-str limit)") from exc
            object.__setattr__(self, "_text", text)
            return text

    def __repr__(self):
        return f"GoldenNumber({self.rat!r}, {self.tau!r})"


def _sign_pair(a: int, b: int) -> int:
    """Exact sign of a + b*tau for integers a, b."""
    s = 2 * a + b  # a + b*tau = (s + b*sqrt5) / 2
    if s >= 0 and b >= 0:
        return 1 if (s or b) else 0
    if s <= 0 and b <= 0:
        return -1
    # mixed signs: compare s^2 with 5 b^2 (equality impossible, b != 0)
    if s > 0:
        return 1 if s * s > 5 * b * b else -1
    return 1 if 5 * b * b > s * s else -1


def _pair_pow(a: int, b: int, n: int) -> tuple[int, int]:
    """``(a + b*tau)**n`` for integers and ``n >= 0``, as an integer pair."""
    pa, pb = 1, 0
    for _ in range(n):
        pa, pb = pa * a + pb * b, pa * b + pb * a + pb * b
    return pa, pb


def golden(rat=0, tau=0) -> GoldenNumber:
    """Shorthand constructor for q + r*tau."""
    return GoldenNumber(rat, tau)


def value_fraction(x: GoldenNumber) -> Fraction:
    """A rational proxy for the real value, usable as a sort key.

    Uses tau to 120 fractional bits, which orders golden numbers exactly
    whenever distinct values differ by more than ``|r| * 2**-120`` (always
    the case for the bounded coefficients arising here).
    """
    return x.rat + x.tau * _TAU_FRACTION


def parse_golden(text: str) -> GoldenNumber:
    """Parse the canonical text form: ``R``, ``Rt`` or ``R(+|-)Rt``.

    ``R`` is an integer or a fraction ``INT/POSINT``; examples: ``3``,
    ``-1/2t``, ``1+1t``, ``0``.  Inverse of ``str()`` on canonical forms.
    """
    m = _PURE_RE.fullmatch(text)
    if m:
        value = Fraction(m.group(1))
        return GoldenNumber(0, value) if m.group(2) else GoldenNumber(value)
    m = _MIXED_RE.fullmatch(text)
    if m:
        tau_part = Fraction(m.group(3))
        if m.group(2) == "-":
            tau_part = -tau_part
        return GoldenNumber(Fraction(m.group(1)), tau_part)
    raise ValueError(f"not a golden-field literal: {text!r}")


ZERO = GoldenNumber(0)
ONE = GoldenNumber(1)
TAU = GoldenNumber(0, 1)
TAU_PRIME = GoldenNumber(1, -1)  # Galois conjugate 1 - tau
