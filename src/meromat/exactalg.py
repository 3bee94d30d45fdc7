"""Exact scalar arithmetic: rationals, Gaussian rationals, univariate
polynomials and reduced rational functions.

Everything in this module is immutable and exact; no floating point enters
except through the explicit complex-evaluation helpers. `Poly` arithmetic
runs on Python ints: the kernel functions take numerator sequences, lowest
degree first, where an empty imaginary sequence stands for zeros.
"""

from __future__ import annotations

from math import gcd, lcm
from numbers import Rational

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
    "squarefree_decomposition",
]

_ZERO = QQ(0)


class GaussRat:
    """A Gaussian rational re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is type(_ZERO) else QQ(re))
        object.__setattr__(self, "im", im if type(im) is type(_ZERO) else QQ(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        return GaussRat, (self.re, self.im)

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


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _lin(a, ma, b, mb):
    """ma * a + mb * b."""
    if len(a) < len(b):
        a, ma, b, mb = b, mb, a, ma
    out = [x * ma for x in a]
    for i, y in enumerate(b):
        out[i] += y * mb
    return out


def _gmul(ar, ai, br, bi):
    """(re, im) of (ar + i*ai) * (br + i*bi)."""
    re = _conv(ar, br)
    if not (ai or bi):
        return re, ()
    return (_lin(re, 1, _conv(ai, bi), -1),
            _lin(_conv(ar, bi), 1, _conv(ai, br), 1))


def _pdiv(a, b, q=None):
    """(r, s) with s * a == q * b + r, deg r < deg b and s > 0, for
    len(a) >= len(b) and lc(b) > 0; a step scales by lc(b) / gcd(lc(b), top).
    The quotient goes into q when given, a list of len(a) - len(b) + 1."""
    n, lc = len(b) - 1, b[-1]
    r, s = list(a), 1
    for k in range(len(a) - n - 1, -1, -1):
        t = r[k + n]
        if not t:
            continue
        g = gcd(t, lc)
        c = t // g
        if g == lc:
            r[k:k + n] = [x - c * y for x, y in zip(r[k:k + n], b)]
        else:
            m = lc // g
            s *= m
            r[:k + n] = [x * m for x in r[:k]] + [
                x * m - c * y for x, y in zip(r[k:k + n], b)]
            if q:
                q[k + 1:] = [x * m for x in q[k + 1:]]
        if q:
            q[k] = c
    return r[:n], s


def _primitive(a):
    """The list a over its content with lc > 0, trailing zeros dropped."""
    while a and not a[-1]:
        a.pop()
    g = gcd(*a) if a and a[-1] > 0 else -gcd(*a)
    return [x // g for x in a] if g != 1 else a


def _poly(re, im, den):
    """The canonical Poly (see its docstring) of (re + i*im) / den."""
    n = len(re)
    im = list(im) + [0] * (n - len(im)) if any(im) else ()
    while n and not (re[n - 1] or im and im[n - 1]):
        n -= 1
    re, im = tuple(re[:n]), tuple(im[:n])
    if den != 1:  # with no numerators, g = den and den becomes 1
        g = gcd(den, *re, *im) if den > 0 else -gcd(den, *re, *im)
        if g != 1:
            den, re = den // g, tuple(x // g for x in re)
            im = tuple(x // g for x in im)
    p = _new(Poly)
    _set(p, "re", re)
    _set(p, "im", im)
    _set(p, "den", den)
    return p


def _parts(c):
    """Integers (re, im, den) with c = (re + i*im) / den and den > 0."""
    if type(c) is int:
        return c, 0, 1
    re, im = (c.re, c.im) if isinstance(c, GaussRat) else (QQ(c), _ZERO)
    d = lcm(int(re.denominator), int(im.denominator))
    return (int(re.numerator) * (d // int(re.denominator)),
            int(im.numerator) * (d // int(im.denominator)), d)


class Poly:
    """Univariate polynomial over the Gaussian rationals, held on integers:
    the tuples `re` and `im` of numerators, lowest degree first, over one
    common denominator `den` > 0. No trailing zeros, `im` empty when every
    coefficient is real, gcd(den, numerators) = 1; the zero polynomial has
    degree -1. `coeffs` computes the coefficients as GaussRat."""

    __slots__ = ("re", "im", "den")

    def __new__(cls, coeffs=()):
        parts = [_parts(c) for c in coeffs]
        den = lcm(*[d for _, _, d in parts])
        return _poly([r * (den // d) for r, _, d in parts],
                     [i * (den // d) for _, i, d in parts], den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.coeffs,)

    @property
    def coeffs(self) -> tuple:
        return tuple(self._coeff(k) for k in range(len(self.re)))

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
            p = p * (_P_Z - r)
        return p

    @staticmethod
    def coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    # -- basic structure ---------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.re) - 1

    @property
    def is_zero(self) -> bool:
        return not self.re

    @property
    def is_constant(self) -> bool:
        return len(self.re) <= 1

    def _scaled(self, cr, ci, cd) -> "Poly":
        """self * (cr + i*ci) / cd."""
        if ci:
            return _poly(*_gmul(self.re, self.im, (cr,), (ci,)), self.den * cd)
        return _poly([x * cr for x in self.re], [x * cr for x in self.im],
                     self.den * cd)

    def _plus(self, q, sign) -> "Poly":
        """self + sign * q over the least common denominator."""
        g = gcd(self.den, q.den)
        mp, mq = q.den // g, self.den // g * sign
        im = _lin(self.im, mp, q.im, mq) if self.im or q.im else ()
        return _poly(_lin(self.re, mp, q.re, mq), im, self.den * mp)

    def _lead_inverse(self) -> tuple:
        """Parts of 1 / lc = den * (x - i*y) / (x^2 + y^2)."""
        x, y = self.re[-1], self.im[-1] if self.im else 0
        return self.den * x, -self.den * y, x * x + y * y

    def _coeff(self, k) -> GaussRat:
        if not self.re:
            return _G_ZERO
        return GaussRat(QQ(self.re[k], self.den),
                        QQ(self.im[k], self.den) if self.im else _ZERO)

    def leading(self) -> GaussRat:
        return self._coeff(-1)

    def constant_value(self) -> GaussRat:
        return self._coeff(0)

    @property
    def is_monic(self) -> bool:
        return self.re[-1:] == (self.den,) and not any(self.im[-1:])

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self._scaled(*self._lead_inverse())

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.den == other.den and self.re == other.re
                and self.im == other.im)

    def __hash__(self):
        # a constant hashes like its GaussRat, as a constant RatFn must
        if len(self.re) <= 1:
            return hash(self._coeff(0))
        return hash((self.re, self.im, self.den))

    def __bool__(self):
        return bool(self.re)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return self._plus(Poly.coerce(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1, 0, 1)

    def __sub__(self, other):
        return self._plus(Poly.coerce(other), -1)

    def __rsub__(self, other):
        return Poly.coerce(other)._plus(self, -1)

    def __mul__(self, other):
        other = Poly.coerce(other)
        if not self.re or not other.re:
            return _P_ZERO
        re, im = _gmul(self.re, self.im, other.re, other.im)
        return _poly(re, im, self.den * other.den)

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
        return self._scaled(*_parts(c))

    def __divmod__(self, other):
        other = Poly.coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return _P_ZERO, self
        ar, ai, da = self.re, self.im, self.den
        b, bi, db = other.re, other.im, other.den
        if bi:  # q of self * conj(B) by the real B * conj(B)
            ar, ai = _gmul(ar, ai, b, [-y for y in bi])
            b, da, db = _lin(_conv(b, b), 1, _conv(bi, bi), 1), da * db, db * db
        if b[-1] < 0:
            b, db = [-x for x in b], -db
        # integer pseudo-division of both parts, brought to one scale s
        qr, qi = [[0] * (len(ar) - len(b) + 1) for _ in range(2)]
        rr, sr = _pdiv(ar, b, qr)
        ri, si = _pdiv(ai, b, qi) if ai else ((), sr)
        s = lcm(sr, si)
        mr, mi = s // sr, s // si
        q = _poly([x * mr * db for x in qr], [x * mi * db for x in qi], s * da)
        if bi:
            qb = _poly(*_gmul(q.re, q.im, other.re, bi), q.den * other.den)
            return q, self._plus(qb, -1)
        return q, _poly([x * mr for x in rr], [x * mi for x in ri], s * da)

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
        return _poly([k * x for k, x in enumerate(self.re)][1:],
                     [k * y for k, y in enumerate(self.im)][1:], self.den)

    # -- evaluation ----------------------------------------------------

    def eval_exact(self, point) -> GaussRat:
        # the remainder of the division by z - point
        return divmod(self, _P_Z - point)[1].constant_value()

    def __call__(self, z: complex) -> complex:
        # as GaussRat.to_complex; int / int rounds like float() of a Fraction
        acc, d = 0j, self.den
        im = self.im or (0,) * len(self.re)
        for x, y in zip(reversed(self.re), reversed(im)):
            acc = acc * z + (complex(x / d) + 1j * complex(y / d))
        return acc

    def reverse(self, at_degree: int | None = None) -> "Poly":
        """Coefficient reversal z^d * p(1/z); used for behaviour at infinity."""
        d = self.degree if at_degree is None else at_degree
        if d < self.degree:
            raise ValueError("reversal degree below actual degree")
        pad = [0] * (d - self.degree)
        return _poly(pad + list(reversed(self.re)),
                     pad + list(reversed(self.im)), self.den)

    def multiplicity_at(self, point) -> int:
        """Exact multiplicity of `point` as a root of this polynomial."""
        if self.is_zero:
            raise ValueError("every point is a root of the zero polynomial")
        factor = _P_Z - point
        p, k = self, 0
        while True:
            q, r = divmod(p, factor)
            if not r.is_zero:
                return k
            p, k = q, k + 1

    def all_real_rational(self) -> bool:
        return not self.im

    def __repr__(self):
        from .frontio.render import poly_to_str

        try:
            return f"Poly({poly_to_str(self)})"
        except Exception:
            return f"Poly{self.coeffs}"


_new = object.__new__
_set = object.__setattr__
_P_ZERO = Poly(())
_P_ONE = Poly((1,))
_P_Z = Poly((0, 1))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0. Real polynomials run a
    primitive remainder sequence on their integer numerators."""
    a, b = Poly.coerce(p), Poly.coerce(q)
    if 1 in (len(a.re), len(b.re)):
        return _P_ONE
    if a.im or b.im:
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()
    x, y = sorted((_primitive(a.re), _primitive(b.re)), key=len, reverse=True)
    while y:
        x, y = y, _primitive(_pdiv(x, y)[0])
    return _poly(x, (), x[-1]) if x else _P_ZERO


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
            if not den.is_monic:
                inv = den._lead_inverse()
                num, den = num._scaled(*inv), den._scaled(*inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFn is immutable")

    def __reduce__(self):
        return RatFn, (self.num, self.den)

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
        if isinstance(other, (Rational, QQ, Poly, GaussRat)):
            other = RatFn.coerce(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den.is_constant:
            return hash(self.num)
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
