"""Exact Laurent-series arithmetic over the Gaussian rationals.

Frames, Higgs fields and quadratic differentials in this package are all
built from 2x2 matrices of finite Laurent polynomials  sum_k c_k z^k  with
coefficients c_k in Q(i).  Keeping coefficients exact is what lets the
geometric predicates downstream (unit determinant, vanishing discriminant,
pole-order bounds) be decided with == instead of thresholds.

Representation: a polynomial is a map {exponent: (re, im)} of nonzero
Gaussian-integer numerators over one positive int denominator, in lowest
terms: no integer > 1 divides the denominator and every numerator part,
so the denominator is the lcm of the coefficients' denominators, and the
zero polynomial is {} over 1.  The form is canonical, so == and hash
compare values.  Ring operations make one dict and one gcd reduction per
result.  Every sum is one call of the multiply-accumulate sum_of_products, which
sums Σ k·p·q (p * q, p ± q, det, @, a division step) in integers over the lcm of
the denominators; scale, shift, twisted_derivative and -p stay one-pass maps.
A coefficient becomes a GaussianRational only when coeff or terms asks for it,
a double (float_coeffs, __call__) by one correctly rounded int/int division per
part.  Division with remainder in z (divmod, //) and the monic gcd (poly_gcd)
are exact too.  All values are immutable; every operation returns a fresh object.

Serialization: ``to_json``/``from_json`` use rationals printed as
decimal-free strings ("3/4", "-2"), terms sorted by exponent, so that
parse -> serialize is byte identical on canonical input.  Both work on
the integer form: one gcd per printed part, and ints read straight from
ASCII "-?digits(/digits)"; any other coefficient string goes to Fraction,
so input is accepted or rejected exactly as Fraction(s) does.  An exponent
must be a JSON integer and a coefficient a string or a JSON integer; a
float or a bool is rejected, since neither is exact input.
Float fields of the numeric layer (radii, points) take only JSON numbers
(json_float, json_point): a bool or a numeric string is rejected too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from typing import Iterator, Mapping, Union

from .errors import NotRepresentable, PoleAtZero

RationalLike = Union[int, Fraction]
CoeffLike = Union[int, Fraction, "GaussianRational"]
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]   # ((a, b), (c, d))


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


def _split(g: GaussianRational) -> tuple[int, int, int]:
    """(re, im, d) with g = (re + im·i)/d, d the lcm of the parts' denominators."""
    d = lcm(g.re.denominator, g.im.denominator)
    return (g.re.numerator * (d // g.re.denominator),
            g.im.numerator * (d // g.im.denominator), d)


class LaurentPoly:
    """Finite Laurent polynomial over Q(i): Gaussian-integer numerators over one
    positive denominator, in lowest terms."""

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Mapping[int, CoeffLike] | None = None):
        parts = {int(e): _split(GaussianRational.coerce(v)) for e, v in (coeffs or {}).items()}
        # over the lcm of the reduced denominators the numerators are coprime to it
        d = lcm(*(q for _, _, q in parts.values()))
        self._n = {e: (re * (d // q), im * (d // q))
                   for e, (re, im, q) in parts.items() if re or im}
        self._d = d

    @classmethod
    def _of(cls, n: dict[int, tuple[int, int]], d: int = 1) -> "LaurentPoly":
        """Numerators {exp: (re, im)}, none zero, over d > 0, put in lowest terms."""
        g = gcd(d, *chain.from_iterable(n.values()))
        if g > 1:   # g = d if n is empty, so zero is {} over 1
            n, d = {e: (re // g, im // g) for e, (re, im) in n.items()}, d // g
        out = cls.__new__(cls)
        out._n, out._d = n, d
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._of({0: (1, 0)})

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
        return not self._n

    def coeff(self, exp: int) -> GaussianRational:
        v = self._n.get(exp)
        if v is None:
            return GR_ZERO
        return GaussianRational(Fraction(v[0], self._d), Fraction(v[1], self._d))

    def terms(self) -> Iterator[tuple[int, GaussianRational]]:
        """Terms in ascending exponent order."""
        for e in sorted(self._n):
            yield e, self.coeff(e)

    def integer_form(self) -> tuple[int, dict[int, tuple[int, int]]]:
        """(d, {exp: (re, im)}): the coefficient of z^exp is (re + im·i)/d.

        d > 0 is the lcm of the coefficients' denominators, so no integer
        > 1 divides d and every re and im; the zero polynomial is (1, {}).
        """
        return self._d, dict(self._n)

    def float_coeffs(self, lo: int, hi: int) -> list[complex]:
        """Coefficients of z^lo .. z^hi, each the correctly rounded double.

        NotRepresentable if one exceeds the double range.
        """
        d, n = self._d, self._n
        try:
            return [complex(re / d, im / d)
                    for re, im in (n.get(e, (0, 0)) for e in range(lo, hi + 1))]
        except OverflowError:
            for e in range(lo, hi + 1):
                self.coeff(e).to_complex()   # raises NotRepresentable, naming it

    def float_scale(self) -> RationalLike:
        """For p != 0, 1 when its largest coefficient part m lies in the normal double range
        [2^-1022, 2^1024), else 2^-k with 2^k <= m < 2^(k+1): p times it reads as doubles."""
        m, d = max(map(abs, chain.from_iterable(self._n.values()))), self._d
        k = m.bit_length() - d.bit_length()
        k -= m << max(-k, 0) < d << max(k, 0)   # floor(log2(m/d))
        return 1 if -1022 <= k < 1024 else Fraction(2) ** -k

    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return max(self._n) if self._n else None

    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return min(self._n) if self._n else None

    def pole_order(self) -> int:
        """Order of the pole at z = 0 (0 if holomorphic there or zero)."""
        v = self.valuation()
        return max(0, -v) if v is not None else 0

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.sum_of_products((1, self, _ONE), (1, other, _ONE))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: (-re, -im) for e, (re, im) in self._n.items()}, self._d)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.sum_of_products((1, self, _ONE), (-1, other, _ONE))

    @staticmethod
    def sum_of_products(*terms: tuple[int, "LaurentPoly", "LaurentPoly"]) -> "LaurentPoly":
        """Σ k·p·q over the terms (k, p, q), each k a nonzero int, in one dict over the lcm
        of their denominators, put in lowest terms once: the one loop that adds polynomials."""
        d = lcm(*[p._d * q._d for _, p, q in terms])
        n: dict[int, tuple[int, int]] = {}
        get = n.get
        for k, p, q in terms:
            s, qn = k * (d // (p._d * q._d)), q._n.items()
            for e1, (a, b) in p._n.items():
                a, b = a * s, b * s
                for e2, (c, f) in qn:
                    r, i = get(e := e1 + e2, (0, 0))
                    n[e] = (r + a * c - b * f, i + a * f + b * c)
        return LaurentPoly._of({e: v for e, v in n.items() if v[0] or v[1]}, d)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.sum_of_products((1, self, other))

    def scale(self, k: CoeffLike) -> "LaurentPoly":
        g = GaussianRational.coerce(k)
        if g.is_zero:
            return LaurentPoly.zero()
        c, d, q = _split(g)
        return LaurentPoly._of(
            {e: (a * c - b * d, a * d + b * c) for e, (a, b) in self._n.items()},
            self._d * q)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        return LaurentPoly._of({e + k: v for e, v in self._n.items()}, self._d)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers: shift() handles monomials only")
        return prod([self] * n, start=LaurentPoly.one())

    def derivative(self) -> "LaurentPoly":
        return self.twisted_derivative(0)

    def twisted_derivative(self, alpha: RationalLike) -> "LaurentPoly":
        """p′ - α·p/z = z^α·(z^-α·p)′ in one pass: with α = r/s the term c_e·z^e
        becomes (e·s - r)·c_e·z^(e-1), over s times p's denominator."""
        r, s = alpha.numerator, alpha.denominator
        return LaurentPoly._of({e - 1: (re * k, im * k) for e, (re, im) in self._n.items()
                                if (k := e * s - r)}, self._d * s)

    def __divmod__(self, other: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """(q, r), self = q·other + r and deg r < deg other, over Q(i); one sum_of_products a step."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        n, q, r = other.degree(), {}, self
        while not r.is_zero and (k := r.degree()) >= n:
            q[k - n] = c = r.coeff(k) / other.coeff(n)
            r = LaurentPoly.sum_of_products((1, r, _ONE), (-1, LaurentPoly({k - n: c}), other))
        return LaurentPoly(q), r

    def __floordiv__(self, other: "LaurentPoly") -> "LaurentPoly":
        return divmod(self, other)[0]

    # -- evaluation --------------------------------------------------------------

    def __call__(self, z: complex) -> complex:
        """Numeric value at z; Horner on the regular and principal parts."""
        if not self._n:
            return 0j
        lo, hi = min(self._n), max(self._n)
        z = complex(z)
        if z == 0:
            if lo < 0:
                raise PoleAtZero("evaluation at 0 with negative exponents")
            return self.float_coeffs(0, 0)[0]
        base = min(lo, 0)
        c = self.float_coeffs(base, max(hi, 0))
        acc = 0j
        for e in range(hi, -1, -1):
            acc = acc * z + c[e - base]
        if lo < 0:
            w = 1.0 / z
            neg = 0j
            for e in range(lo, 0):
                neg = (neg + c[e - base]) * w
            acc += neg
        return acc

    def eval_exact(self, z: GaussianRational) -> GaussianRational:
        """Exact value at a Gaussian-rational point."""
        if z.is_zero:
            if self.pole_order() > 0:
                raise PoleAtZero("evaluation at 0 with negative exponents")
            return self.coeff(0)
        if not self._n:
            return GR_ZERO
        c = dict(self.terms())
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
        return self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        return hash((self._d, frozenset(self._n.items())))

    def __repr__(self) -> str:
        if not self._n:
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
        d = self._d
        return {"terms": [{"exp": e, "re": _rational_str(re, d), "im": _rational_str(im, d)}
                          for e, (re, im) in sorted(self._n.items())]}

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentPoly":
        parts: dict[int, tuple[int, int, int, int]] = {}
        for term in data["terms"]:
            e, re, im = term["exp"], term["re"], term["im"]
            if type(e) is not int or not {type(re), type(im)} <= {str, int}:
                raise ValueError("an exponent must be an integer and a coefficient "
                                 f"a string or an integer, got {term!r}")
            (a, b), (c, q) = _read_rational(re), _read_rational(im)
            if e in parts:
                raise ValueError(f"duplicate exponent {e} in serialized polynomial")
            parts[e] = (a, b, c, q)
        parts = {e: t for e, t in parts.items() if t[0] or t[2]}   # zero terms drop
        d = lcm(*chain.from_iterable((b, q) for _, b, _, q in parts.values()))
        return cls._of({e: (a * (d // b), c * (d // q)) for e, (a, b, c, q) in parts.items()}, d)


_ONE = LaurentPoly.one()


def _read_rational(x: str | int) -> tuple[int, int]:
    """(n, d > 0) with n/d = Fraction(x); only ASCII "-?digits(/digits)" skips Fraction."""
    if type(x) is int:
        return x, 1
    num, slash, den = x.partition("/")
    if x.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
        if d := int(den or 1):
            return int(num), d
    f = Fraction(x)   # raises on "n/0" and on what it does not read
    return f.numerator, f.denominator


def _rational_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def poly_gcd(*ps: LaurentPoly) -> LaurentPoly:
    """Monic gcd over Q(i) of the ps, each first divided by its power of z, so
    z never divides it; zero arguments are skipped, and all zero give zero."""
    g = LaurentPoly.zero()
    for p in ps:
        p = p if p.is_zero else p.shift(-p.valuation())
        while p.degree():   # None once p is zero, 0 once a nonzero constant
            g, p = p, divmod(g, p)[1]
        if p.degree() == 0:
            return LaurentPoly.one()
    return g if g.is_zero else g.scale(GR_ONE / g.coeff(g.degree()))


@dataclass(frozen=True)
class LaurentMatrix:
    """2x2 matrix of Laurent polynomials; row-major entries a, b, c, d."""

    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly

    @classmethod
    def identity(cls) -> "LaurentMatrix":
        return cls.diagonal(LaurentPoly.one(), LaurentPoly.one())

    @classmethod
    def diagonal(cls, p: LaurentPoly, q: LaurentPoly) -> "LaurentMatrix":
        zero = LaurentPoly.zero()
        return cls(p, zero, zero, q)

    @property
    def entries(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> LaurentPoly:
        return LaurentPoly.sum_of_products((1, self.a, self.d), (-1, self.b, self.c))

    def trace(self) -> LaurentPoly:
        return self.a + self.d

    def adjugate(self) -> "LaurentMatrix":
        return LaurentMatrix(self.d, -self.b, -self.c, self.a)

    def derivative(self) -> "LaurentMatrix":
        return LaurentMatrix(*(p.derivative() for p in self.entries))

    def map(self, f) -> "LaurentMatrix":
        return LaurentMatrix(*(f(p) for p in self.entries))

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        sp, (a, b, c, d), (p, q, r, s) = LaurentPoly.sum_of_products, self.entries, other.entries
        return LaurentMatrix(sp((1, a, p), (1, b, r)), sp((1, a, q), (1, b, s)),
                             sp((1, c, p), (1, d, r)), sp((1, c, q), (1, d, s)))

    def swap_columns(self) -> "LaurentMatrix":
        return LaurentMatrix(self.b, self.a, self.d, self.c)

    def max_pole_order(self) -> int:
        return max(p.pole_order() for p in self.entries)

    def evaluate(self, z: complex) -> Matrix2:
        """The value at z as nested tuples ((a, b), (c, d)) of complex."""
        return (self.a(z), self.b(z)), (self.c(z), self.d(z))

    def eval_exact(self, z: GaussianRational) -> tuple[tuple[GaussianRational, ...], ...]:
        return ((self.a.eval_exact(z), self.b.eval_exact(z)),
                (self.c.eval_exact(z), self.d.eval_exact(z)))

    def to_json(self) -> list:
        return [[self.a.to_json(), self.b.to_json()], [self.c.to_json(), self.d.to_json()]]

    @classmethod
    def from_json(cls, data) -> "LaurentMatrix":
        (a, b), (c, d) = data
        return cls(*map(LaurentPoly.from_json, (a, b, c, d)))


def json_float(x) -> float:
    """A JSON number (int or float) as a float.  A bool or a numeric string
    is a ValueError, as is an integer beyond the double range."""
    if type(x) not in (int, float):
        raise ValueError(f"expected a JSON number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError("an integer exceeds the double range") from None


def json_point(v) -> complex:
    """A JSON pair [re, im] of numbers as a complex."""
    if type(v) not in (list, tuple) or len(v) != 2:
        raise ValueError(f"a point must be a pair [re, im], got {v!r}")
    return complex(*map(json_float, v))


def canonical_dumps(data) -> str:
    """Stable JSON encoding used for byte-identical round trips."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
