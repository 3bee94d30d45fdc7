"""Exact scalar arithmetic: rationals, univariate polynomials over the
rationals, reduced rational functions, and Gaussian-rational points.

Everything in this module is immutable and exact; no floating point enters
except through the explicit complex-evaluation helpers. `Poly` arithmetic
runs on Python ints: the kernel functions take numerator sequences, lowest
degree first. A non-real point enters only through its real factor
(`real_factor`), so every polynomial stays rational.
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
    "real_factor",
    "squarefree_decomposition",
]

_ZERO = QQ(0)


class GaussRat:
    """A Gaussian rational re + im*i with exact rational parts: a point of
    the complex plane, and the view of a `Poly` coefficient (im = 0). It
    defines no arithmetic."""

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


def _addmul(a, ma, q, mq, b):
    """ma * a + mq * q * b for nonempty b, without trailing zeros: each
    product of q and b is added into the result as it is formed."""
    out = [x * ma for x in a]
    out += [0] * (len(q) + len(b) - 1 - len(out))
    for i, x in enumerate(q):
        if x:
            x *= mq
            for j, y in enumerate(b, i):
                out[j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


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


def _poly(nums, den):
    """The canonical Poly (see its docstring) of nums / den."""
    while nums and not nums[-1]:
        nums = nums[:-1]
    nums = tuple(nums)
    if den != 1:  # with no numerators, g = den and den becomes 1
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            den, nums = den // g, tuple(x // g for x in nums)
    p = _new(Poly)
    _set_nums(p, nums)
    _set_den(p, den)
    return p


def _parts(c):
    """Integers (num, den) with c = num / den and den > 0."""
    if type(c) is int:
        return c, 1
    if isinstance(c, GaussRat):
        if c.im:
            raise InputError(f"non-real coefficient {c!r}: polynomials "
                             "have rational coefficients")
        c = c.re
    else:
        c = QQ(c)
    return int(c.numerator), int(c.denominator)


def real_factor(point) -> "Poly":
    """The monic real polynomial of least degree that vanishes at `point`:
    z - a for a real point a, (z - a)^2 + b^2 for a + bi with b != 0. Its
    multiplicity in a real polynomial is that of the point."""
    point = GaussRat.coerce(point)
    a, b = point.re, point.im
    if not b:
        return Poly((-a, 1))
    return Poly((a * a + b * b, -2 * a, 1))


class Poly:
    """Univariate polynomial over the rationals, held on integers: the
    tuple `nums` of numerators, lowest degree first, over one common
    denominator `den` > 0. No trailing zeros and gcd(den, nums) = 1; the
    zero polynomial has degree -1. `coeffs` computes the coefficients as
    real GaussRat."""

    __slots__ = ("nums", "den")

    def __new__(cls, coeffs=()):
        parts = [_parts(c) for c in coeffs]
        den = lcm(*[d for _, d in parts])
        return _poly([n * (den // d) for n, d in parts], den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.coeffs,)

    @property
    def coeffs(self) -> tuple:
        return tuple(self._coeff(k) for k in range(len(self.nums)))

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
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def _scaled(self, cn, cd) -> "Poly":
        """self * cn / cd."""
        if not self.nums:
            return self
        return _poly([x * cn for x in self.nums], self.den * cd)

    def _plus(self, q, sign, y=None) -> "Poly":
        """self + sign * q over the least common denominator; with y, the
        elimination step self + sign * q * y, formed in one pass on the
        numerators (`_addmul`), so that only the result is normalised."""
        qd = q.den
        if y is not None:
            if not q.nums or not y.nums:
                return self
            qd *= y.den
        g = gcd(self.den, qd)
        mp, mq = qd // g, self.den // g * sign
        if y is None:
            return _poly(_lin(self.nums, mp, q.nums, mq), self.den * mp)
        return _poly(_addmul(self.nums, mp, q.nums, mq, y.nums), self.den * mp)

    def _lead_inverse(self) -> tuple:
        """Parts of 1 / lc = den / nums[-1]."""
        return self.den, self.nums[-1]

    def _coeff(self, k) -> GaussRat:
        if not self.nums:
            return _G_ZERO
        return GaussRat(QQ(self.nums[k], self.den))

    def leading(self) -> GaussRat:
        return self._coeff(-1)

    def constant_value(self) -> GaussRat:
        return self._coeff(0)

    @property
    def is_monic(self) -> bool:
        return self.nums[-1:] == (self.den,)

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self._scaled(*self._lead_inverse())

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # a constant hashes like its GaussRat, as a constant RatFn must;
        # an integer hashes like its rational, so it needs no GaussRat
        if len(self.nums) <= 1:
            if self.den == 1:
                return hash(self.nums[0] if self.nums else 0)
            return hash(self._coeff(0))
        return hash((self.nums, self.den))

    def __bool__(self):
        return bool(self.nums)

    # -- arithmetic ---------------------------------------------------

    # an operand of a wider ring (RatFn, QuasiPolyEntry) gets NotImplemented

    def __add__(self, other):
        if not isinstance(other, Poly) and (other := _lift(other)) is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1, 1)

    def __sub__(self, other):
        if not isinstance(other, Poly) and (other := _lift(other)) is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return Poly.coerce(other)._plus(self, -1)

    def __mul__(self, other):
        if not isinstance(other, Poly) and (other := _lift(other)) is None:
            return NotImplemented
        if not self.nums or not other.nums:
            return _P_ZERO
        return _poly(_conv(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c) -> "Poly":
        return self._scaled(*_parts(c))

    def _divide(self, other, quotient=True, remainder=True):
        """(q, r) of self by other, each None unless asked for: integer
        pseudo-division s * self.nums = q' * b + r' (`_pdiv`) by other = b
        / db with lc(b) > 0 gives q = q' * db / d and r = r' / d, d = s *
        self.den. q' is empty when deg self < deg other."""
        other = Poly.coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b, db = other.nums, other.den
        if b[-1] < 0:
            b, db = [-x for x in b], -db
        q = [0] * (len(self.nums) - len(b) + 1) if quotient else None
        r, s = _pdiv(self.nums, b, q)
        d = s * self.den
        return (_poly([x * db for x in q], d) if quotient else None,
                _poly(r, d) if remainder else None)

    def __divmod__(self, other):
        return self._divide(other)

    def __floordiv__(self, other):
        return self._divide(other, remainder=False)[0]

    def __mod__(self, other):
        return self._divide(other, quotient=False)[1]

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
        return _poly([k * x for k, x in enumerate(self.nums)][1:], self.den)

    # -- evaluation ----------------------------------------------------

    def eval_exact(self, point) -> GaussRat:
        """The exact value at a Gaussian-rational point a + bi: the
        remainder c0 + c1*z of the division by the real factor of the
        point, taken there."""
        point = GaussRat.coerce(point)
        r = self % real_factor(point)
        c0, c1 = (QQ(x, r.den) for x in r.nums + (0, 0)[len(r.nums):])
        return GaussRat(c0 + c1 * point.re, c1 * point.im)

    def __call__(self, z: complex) -> complex:
        # int / int rounds once, like float() of a Fraction
        acc, d = 0j, self.den
        for x in reversed(self.nums):
            acc = acc * z + complex(x / d)
        return acc

    def reverse(self, at_degree: int | None = None) -> "Poly":
        """Coefficient reversal z^d * p(1/z); used for behaviour at infinity."""
        d = self.degree if at_degree is None else at_degree
        if d < self.degree:
            raise ValueError("reversal degree below actual degree")
        return _poly([0] * (d - self.degree) + list(reversed(self.nums)),
                     self.den)

    def multiplicity_at(self, point) -> int:
        """Exact multiplicity of `point` as a root of this polynomial."""
        if self.is_zero:
            raise ValueError("every point is a root of the zero polynomial")
        factor = real_factor(point)
        p, k = self, 0
        while True:
            q, r = divmod(p, factor)
            if not r.is_zero:
                return k
            p, k = q, k + 1

    def __str__(self):
        """Canonical text (3/2*z^2 - z + 1), which the grammar reads back."""
        pieces = []
        for d in range(len(self.nums) - 1, -1, -1):
            if x := self.nums[d]:
                c = str(QQ(abs(x), self.den))
                z = "z" if d == 1 else f"z^{d}"
                term = c if not d else z if abs(x) == self.den else f"{c}*{z}"
                sign = " - " if x < 0 else " + "
                pieces += [sign if pieces else sign.strip(" +"), term]
        return "".join(pieces) or "0"

    def __repr__(self):
        return f"Poly({self})"


def _lift(value, coerce=Poly.const):
    """coerce(value), or None for an operand of another ring."""
    try:
        return coerce(value)
    except TypeError:
        return None


_new = object.__new__
_set = object.__setattr__
# the slots' own setters, past Poly.__setattr__, which refuses every write
_set_nums, _set_den = Poly.nums.__set__, Poly.den.__set__
_P_ZERO = Poly(())
_P_ONE = Poly((1,))
_P_Z = Poly((0, 1))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0. A primitive remainder
    sequence on the integer numerators."""
    a, b = Poly.coerce(p), Poly.coerce(q)
    if 1 in (len(a.nums), len(b.nums)):
        return _P_ONE
    x, y = sorted((_primitive(a.nums), _primitive(b.nums)), key=len,
                  reverse=True)
    while y:
        x, y = y, _primitive(_pdiv(x, y)[0])
    return _poly(x, x[-1]) if x else _P_ZERO


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
        if isinstance(other, GaussRat) and other.im:
            return False
        if isinstance(other, (Rational, QQ, Poly, GaussRat)):
            other = RatFn.coerce(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den.is_constant:
            return hash(self.num)
        return hash((self.num, self.den))

    # an operand of another ring (QuasiPolyEntry) gets NotImplemented

    def __add__(self, other):
        if (not isinstance(other, RatFn)
                and (other := _lift(other, RatFn.coerce)) is None):
            return NotImplemented
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if (not isinstance(other, RatFn)
                and (other := _lift(other, RatFn.coerce)) is None):
            return NotImplemented
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFn":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFn(self.den, self.num)

    def __truediv__(self, other):
        if (other := _lift(other, RatFn.coerce)) is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __call__(self, z: complex) -> complex:
        return self.num(z) / self.den(z)

    def derivative(self) -> "RatFn":
        """(num' h - num k) / (den h) with g = gcd(den, den'), h = den / g
        and k = den' / g, reduced and monic as built: each irreducible
        factor of den divides h once and divides neither k nor num."""
        dd = self.den.derivative()
        g = poly_gcd(self.den, dd)
        h, k = self.den.exact_div(g), dd.exact_div(g)
        out = _new(RatFn)
        _set(out, "num", self.num.derivative() * h - self.num * k)
        _set(out, "den", self.den * h if out.num else _P_ONE)
        return out

    def polynomial_part(self) -> tuple[Poly, "RatFn"]:
        """Split f = p + f_sp with p polynomial and f_sp strictly proper."""
        q, r = divmod(self.num, self.den)
        return q, RatFn(r, self.den)

    def __str__(self):
        """num or (num)/(den), which the entry grammar reads back."""
        return (str(self.num) if self.is_polynomial
                else f"({self.num})/({self.den})")

    def __repr__(self):
        return f"RatFn({self})"
