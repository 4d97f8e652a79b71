"""Sparse Laurent polynomials over Q.

A LaurentPoly is an immutable map exponent -> Fraction with zero
coefficients stripped.  Exponents may be negative.  The monic node
products prod (X - y_i) that the operation bases are written in are
built on integer coefficient lists by times_linear, one linear factor
at a time.  The library only builds, reads and renders a LaurentPoly;
its arithmetic serves callers and the test oracles, which also hold its
evaluation.
"""
from __future__ import annotations

from fractions import Fraction

from .rationals import as_fraction


def times_linear(t: list[int], y: int) -> list[int]:
    """The integer coefficients of t(X) * (X - y), constant term first."""
    return [u - y * v for u, v in zip([0] + t, t + [0])]


class LaurentPoly:
    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in dict(coeffs).items():
                v = as_fraction(v)
                if v:
                    c[int(e)] = v
        self._c = c

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentPoly":
        return cls({exponent: coeff})

    @classmethod
    def variable(cls) -> "LaurentPoly":
        return cls({1: 1})

    def items(self):
        return self._c.items()

    @property
    def support(self):
        return self._c.keys()

    def coeff(self, exponent: int) -> Fraction:
        return self._c.get(exponent, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def degree(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no degree")
        return max(self._c)

    @property
    def low(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no lowest exponent")
        return min(self._c)

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly({0: other})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, Fraction(0)) + v
        return LaurentPoly(c)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPoly) else LaurentPoly({0: -as_fraction(other)}))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            v = as_fraction(other)
            return LaurentPoly({e: c * v for e, c in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, Fraction(0)) + v1 * v2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined; use monomials directly")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        return self.render()

    def render(self) -> str:
        """The polynomial in the variable w, top exponent first."""
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            sign = "-" if v < 0 else "+"
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                pw = "w" if e == 1 else f"w^{e}"
                body = pw if mag == 1 else f"{mag}*{pw}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"
