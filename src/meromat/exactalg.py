"""Exact scalar arithmetic: rationals, Gaussian rationals, univariate
polynomials and reduced rational functions.

Everything in this module is immutable and exact; no floating point enters
except through the explicit complex-evaluation helpers.
"""

from __future__ import annotations

from .errors import InputError

try:  # gmpy2.mpq is a drop-in, much faster rational
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ

__all__ = [
    "QQ",
    "GaussRat",
    "Poly",
    "RatFn",
    "poly_gcd",
    "poly_lcm",
    "poly_divmod",
    "squarefree_decomposition",
]

_ZERO = QQ(0)
_ONE = QQ(1)


class GaussRat:
    """A Gaussian rational re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is type(_ZERO) else QQ(re))
        object.__setattr__(self, "im", im if type(im) is type(_ZERO) else QQ(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @staticmethod
    def coerce(value) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        return GaussRat(QQ(value))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussRat):
            try:
                other = GaussRat.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussRat.coerce(other) - self

    def __mul__(self, other):
        other = GaussRat.coerce(other)
        if not self.im and not other.im:
            return GaussRat(self.re * other.re)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if not self.im:
            return GaussRat(1 / self.re)
        n = self.re * self.re + self.im * self.im
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussRat.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussRat.coerce(other) * self.inverse()

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


_G_ZERO = GaussRat(0)
_G_ONE = GaussRat(1)


def _coeff(value) -> GaussRat:
    return value if isinstance(value, GaussRat) else GaussRat.coerce(value)


class Poly:
    """Univariate polynomial over the Gaussian rationals.

    Coefficients are stored lowest degree first with no trailing zeros;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def zero() -> "Poly":
        return _P_ZERO

    @staticmethod
    def one() -> "Poly":
        return _P_ONE

    @staticmethod
    def z() -> "Poly":
        return _P_Z

    @staticmethod
    def from_roots(roots) -> "Poly":
        p = _P_ONE
        for r in roots:
            p = p * Poly((-_coeff(r), _G_ONE))
        return p

    @staticmethod
    def coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    # -- basic structure ---------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> GaussRat:
        if not self.coeffs:
            return _G_ZERO
        return self.coeffs[-1]

    def constant_value(self) -> GaussRat:
        if not self.coeffs:
            return _G_ZERO
        return self.coeffs[0]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == _G_ONE

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        inv = self.coeffs[-1].inverse()
        return Poly(c * inv for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = Poly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-Poly.coerce(other))

    def __rsub__(self, other):
        return Poly.coerce(other) - self

    def __mul__(self, other):
        other = Poly.coerce(other)
        if self.is_zero or other.is_zero:
            return _P_ZERO
        a, b = self.coeffs, other.coeffs
        out = [_G_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "Poly":
        c = _coeff(c)
        return Poly(co * c for co in self.coeffs)

    def __divmod__(self, other):
        other = Poly.coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return _P_ZERO, self
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quo = [_G_ZERO] * (dq + 1)
        inv_lead = other.coeffs[-1].inverse()
        dcs = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            quo[k] = c
            if c:
                for j, dc in enumerate(dcs):
                    rem[k + j] = rem[k + j] - c * dc
        return Poly(quo), Poly(rem[: other.degree])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (Poly.coerce(other) % self).is_zero

    def exact_div(self, other) -> "Poly":
        q, r = divmod(self, Poly.coerce(other))
        if not r.is_zero:
            raise ValueError("exact division has a nonzero remainder")
        return q

    def derivative(self) -> "Poly":
        return Poly(self.coeffs[i] * i for i in range(1, len(self.coeffs)))

    # -- evaluation ----------------------------------------------------

    def eval_exact(self, point) -> GaussRat:
        point = _coeff(point)
        acc = _G_ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c.to_complex()
        return acc

    def reverse(self, at_degree: int | None = None) -> "Poly":
        """Coefficient reversal z^d * p(1/z); used for behaviour at infinity."""
        d = self.degree if at_degree is None else at_degree
        if d < self.degree:
            raise ValueError("reversal degree below actual degree")
        out = [_G_ZERO] * (d + 1)
        for i, c in enumerate(self.coeffs):
            out[d - i] = c
        return Poly(out)

    def multiplicity_at(self, point) -> int:
        """Exact multiplicity of `point` as a root of this polynomial."""
        if self.is_zero:
            raise ValueError("every point is a root of the zero polynomial")
        factor = Poly((-_coeff(point), _G_ONE))
        p, k = self, 0
        while True:
            q, r = divmod(p, factor)
            if not r.is_zero:
                return k
            p, k = q, k + 1

    def all_real_rational(self) -> bool:
        return all(c.is_real for c in self.coeffs)

    def __repr__(self):
        from .frontio.render import poly_to_str

        try:
            return f"Poly({poly_to_str(self)})"
        except Exception:
            return f"Poly{self.coeffs}"


_P_ZERO = Poly(())
_P_ONE = Poly((1,))
_P_Z = Poly((0, 1))


def poly_divmod(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Euclidean division p = q*d + r with deg r < deg d, exactly."""
    return divmod(Poly.coerce(p), Poly.coerce(d))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    a, b = Poly.coerce(p), Poly.coerce(q)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_lcm(p: Poly, q: Poly) -> Poly:
    p, q = Poly.coerce(p), Poly.coerce(q)
    if p.is_zero or q.is_zero:
        return _P_ZERO
    return p.exact_div(poly_gcd(p, q)) * q


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(g_k, k)] with p = lc * prod g_k^k, g_k monic
    squarefree and pairwise coprime, constant factors dropped."""
    p = Poly.coerce(p)
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    p = p.monic()
    if p.is_constant:
        return []
    out = []
    g = poly_gcd(p, p.derivative())
    w = p.exact_div(g)
    k = 1
    while not w.is_constant:
        y = poly_gcd(w, g)
        factor = w.exact_div(y)
        if not factor.is_constant:
            out.append((factor.monic(), k))
        w = y
        g = g.exact_div(y)
        k += 1
    return out


class RatFn:
    """Reduced rational function num/den: den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P_ONE):
        num = Poly.coerce(num)
        den = Poly.coerce(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = _P_ZERO, _P_ONE
        else:
            g = poly_gcd(num, den)
            if not g.is_constant:
                num, den = num.exact_div(g), den.exact_div(g)
            lead = den.leading()
            if lead != _G_ONE:
                inv = lead.inverse()
                num, den = num.scale(inv), den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFn is immutable")

    @staticmethod
    def coerce(value) -> "RatFn":
        if isinstance(value, RatFn):
            return value
        return RatFn(Poly.coerce(value))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == _P_ONE

    def to_poly(self) -> Poly:
        if not self.is_polynomial:
            raise InputError("rational function is not a polynomial")
        return self.num

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Poly, GaussRat)):
            other = RatFn.coerce(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = RatFn.coerce(other)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatFn.coerce(other))

    def __rsub__(self, other):
        return RatFn.coerce(other) - self

    def __mul__(self, other):
        other = RatFn.coerce(other)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFn":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFn(self.den, self.num)

    def __truediv__(self, other):
        return self * RatFn.coerce(other).inverse()

    def __rtruediv__(self, other):
        return RatFn.coerce(other) * self.inverse()

    def __call__(self, z: complex) -> complex:
        return self.num(z) / self.den(z)

    def derivative(self) -> "RatFn":
        return RatFn(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def polynomial_part(self) -> tuple[Poly, "RatFn"]:
        """Split f = p + f_sp with p polynomial and f_sp strictly proper."""
        q, r = divmod(self.num, self.den)
        return q, RatFn(r, self.den)

    def __repr__(self):
        from .frontio.render import ratfn_to_str

        try:
            return f"RatFn({ratfn_to_str(self)})"
        except Exception:
            return f"RatFn({self.num!r}/{self.den!r})"
