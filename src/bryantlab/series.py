"""Exact Laurent-series arithmetic over the Gaussian rationals.

Frames, Higgs fields and quadratic differentials in this package are all
built from 2x2 matrices of finite Laurent polynomials  sum_k c_k z^k  with
coefficients c_k in Q(i).  Keeping coefficients exact is what lets the
geometric predicates downstream (unit determinant, vanishing discriminant,
pole-order bounds) be decided with == instead of thresholds.

Representation: a polynomial is a map {exponent: coefficient} holding no
zero coefficients; the empty map is the zero polynomial.  All values here
are immutable; every operation returns a fresh object.

Serialization: ``to_json``/``from_json`` use rationals printed as
decimal-free strings ("3/4", "-2"), terms sorted by exponent, so that
parse -> serialize is byte identical on canonical input.  On input an
exponent must be a JSON integer and a coefficient a string or a JSON
integer; a float or a bool is rejected, since neither is exact input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import NotRepresentable, PoleAtZero

RationalLike = Union[int, Fraction]
CoeffLike = Union[int, Fraction, "GaussianRational"]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """An element re + im*i of Q(i), both parts arbitrary-precision."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- coercion ---------------------------------------------------------

    @classmethod
    def coerce(cls, x: CoeffLike) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return cls(_as_fraction(x))

    # -- ring operations --------------------------------------------------

    def __add__(self, other: CoeffLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: CoeffLike) -> "GaussianRational":
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other: CoeffLike) -> "GaussianRational":
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other: CoeffLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: CoeffLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * GaussianRational(o.re / n, -o.im / n)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|x|^2, exact."""
        return self.re * self.re + self.im * self.im

    # -- predicates & conversions -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def to_complex(self) -> complex:
        """Nearest complex double; NotRepresentable if a part overflows."""
        try:
            return complex(self.re, self.im)
        except OverflowError:
            raise NotRepresentable(f"{self!r} exceeds the double range") from None

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))


class LaurentPoly:
    """Finite Laurent polynomial over Q(i), keyed by exponent."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, CoeffLike] | None = None):
        c: dict[int, GaussianRational] = {}
        if coeffs:
            for e, v in coeffs.items():
                g = GaussianRational.coerce(v)
                if not g.is_zero:
                    c[int(e)] = g
        self._c = c

    @classmethod
    def _of(cls, c: dict[int, GaussianRational]) -> "LaurentPoly":
        """Wrap a map that already holds no zero coefficients."""
        out = cls.__new__(cls)
        out._c = c
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def z(cls) -> "LaurentPoly":
        return cls({1: 1})

    @classmethod
    def constant(cls, c: CoeffLike) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int, coeff: CoeffLike = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, exp: int) -> GaussianRational:
        return self._c.get(exp, GR_ZERO)

    def terms(self) -> Iterator[tuple[int, GaussianRational]]:
        """Terms in ascending exponent order."""
        for e in sorted(self._c):
            yield e, self._c[e]

    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return max(self._c) if self._c else None

    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return min(self._c) if self._c else None

    def pole_order(self) -> int:
        """Order of the pole at z = 0 (0 if holomorphic there or zero)."""
        v = self.valuation()
        return max(0, -v) if v is not None else 0

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, GR_ZERO) + v
            if s.is_zero:
                c.pop(e, None)
            else:
                c[e] = s
        return LaurentPoly._of(c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: -v for e, v in self._c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        c: dict[int, GaussianRational] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                s = c.get(e, GR_ZERO) + v1 * v2
                if s.is_zero:
                    c.pop(e, None)
                else:
                    c[e] = s
        return LaurentPoly._of(c)

    def scale(self, k: CoeffLike) -> "LaurentPoly":
        g = GaussianRational.coerce(k)
        if g.is_zero:
            return LaurentPoly.zero()
        return LaurentPoly._of({e: v * g for e, v in self._c.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        return LaurentPoly._of({e + k: v for e, v in self._c.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers: shift() handles monomials only")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly._of({e - 1: v * e for e, v in self._c.items() if e != 0})

    # -- evaluation --------------------------------------------------------------

    def __call__(self, z: complex) -> complex:
        """Numeric value at z; Horner on the regular and principal parts."""
        if not self._c:
            return 0j
        lo, hi = min(self._c), max(self._c)
        z = complex(z)
        if z == 0:
            if lo < 0:
                raise PoleAtZero("evaluation at 0 with negative exponents")
            return self.coeff(0).to_complex()
        acc = 0j
        for e in range(hi, -1, -1):
            acc = acc * z + self.coeff(e).to_complex()
        if lo < 0:
            w = 1.0 / z
            neg = 0j
            for e in range(lo, 0):
                neg = (neg + self.coeff(e).to_complex()) * w
            acc += neg
        return acc

    def eval_exact(self, z: GaussianRational) -> GaussianRational:
        """Exact value at a Gaussian-rational point."""
        if z.is_zero:
            if self.pole_order() > 0:
                raise PoleAtZero("evaluation at 0 with negative exponents")
            return self.coeff(0)
        if not self._c:
            return GR_ZERO
        c = self._c
        lo, hi = min(c), max(c)
        acc = GR_ZERO
        if hi >= 0:
            for e in range(hi, -1, -1):
                acc = acc * z
                if e in c:
                    acc = acc + c[e]
        if lo < 0:
            w = GR_ONE / z
            neg = GR_ZERO
            for e in range(lo, 0):
                if e in c:
                    neg = neg + c[e]
                neg = neg * w
            acc = acc + neg
        return acc

    # -- comparison ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, v in self.terms():
            if e == 0:
                parts.append(f"{v!r}")
            else:
                ze = "z" if e == 1 else f"z^{e}"
                coeff = "" if v == GR_ONE else f"{v!r}*"
                parts.append(f"{coeff}{ze}")
        return " + ".join(parts)

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"exp": e, "re": str(v.re), "im": str(v.im)}
                for e, v in self.terms()
            ]
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentPoly":
        coeffs: dict[int, GaussianRational] = {}
        for term in data["terms"]:
            e, re, im = term["exp"], term["re"], term["im"]
            if type(e) is not int or not {type(re), type(im)} <= {str, int}:
                raise ValueError("an exponent must be an integer and a coefficient "
                                 f"a string or an integer, got {term!r}")
            g = GaussianRational(Fraction(re), Fraction(im))
            if e in coeffs:
                raise ValueError(f"duplicate exponent {e} in serialized polynomial")
            if not g.is_zero:
                coeffs[e] = g
        return cls(coeffs)


@dataclass(frozen=True)
class LaurentMatrix:
    """2x2 matrix of Laurent polynomials; row-major entries a, b, c, d."""

    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly

    @classmethod
    def identity(cls) -> "LaurentMatrix":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return cls(one, zero, zero, one)

    @classmethod
    def diagonal(cls, p: LaurentPoly, q: LaurentPoly) -> "LaurentMatrix":
        zero = LaurentPoly.zero()
        return cls(p, zero, zero, q)

    @property
    def entries(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> LaurentPoly:
        return self.a * self.d - self.b * self.c

    def trace(self) -> LaurentPoly:
        return self.a + self.d

    def adjugate(self) -> "LaurentMatrix":
        return LaurentMatrix(self.d, -self.b, -self.c, self.a)

    def derivative(self) -> "LaurentMatrix":
        return LaurentMatrix(*(p.derivative() for p in self.entries))

    def map(self, f) -> "LaurentMatrix":
        return LaurentMatrix(*(f(p) for p in self.entries))

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return LaurentMatrix(*(p + q for p, q in zip(self.entries, other.entries)))

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return LaurentMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def swap_columns(self) -> "LaurentMatrix":
        return LaurentMatrix(self.b, self.a, self.d, self.c)

    def max_pole_order(self) -> int:
        return max(p.pole_order() for p in self.entries)

    def evaluate(self, z: complex):
        """Numeric 2x2 complex array at z (numpy)."""
        import numpy as np

        return np.array(
            [[self.a(z), self.b(z)], [self.c(z), self.d(z)]], dtype=complex
        )

    def eval_exact(
        self, z: GaussianRational
    ) -> tuple[tuple[GaussianRational, GaussianRational], tuple[GaussianRational, GaussianRational]]:
        return (
            (self.a.eval_exact(z), self.b.eval_exact(z)),
            (self.c.eval_exact(z), self.d.eval_exact(z)),
        )

    def to_json(self) -> list:
        return [
            [self.a.to_json(), self.b.to_json()],
            [self.c.to_json(), self.d.to_json()],
        ]

    @classmethod
    def from_json(cls, data) -> "LaurentMatrix":
        (a, b), (c, d) = data
        return cls(
            LaurentPoly.from_json(a),
            LaurentPoly.from_json(b),
            LaurentPoly.from_json(c),
            LaurentPoly.from_json(d),
        )


def canonical_dumps(data) -> str:
    """Stable JSON encoding used for byte-identical round trips."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
