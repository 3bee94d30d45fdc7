"""Rational-matrix structure theory: Smith-McMillan form, root handles and
divisors, structural indices, coprime matrix-fraction descriptions, least
order and McMillan degree.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

from . import linalg_exact, polymat
from .errors import InputError, NotCoprimeError
from .exactalg import (
    QQ,
    GaussRat,
    Poly,
    RatFn,
    poly_gcd,
    poly_lcm,
    squarefree_decomposition,
)
from .polymat import PolyMat

__all__ = [
    "RatMat",
    "SmithMcMillanDecomposition",
    "Divisor",
    "RootHandle",
    "IndexTuple",
    "Mfd",
    "poly_roots",
    "smith_mcmillan",
    "zero_index",
    "pole_index",
    "pole_zero_index",
    "right_coprime_mfd",
    "left_coprime_mfd",
    "mfd_unit_relator",
    "least_order",
    "least_order_total",
    "mcmillan_degree",
]

_P_ONE = Poly.one()


class RatMat(linalg_exact.DenseMat):
    """Dense matrix of reduced rational functions."""

    __slots__ = linalg_exact.DenseMat.SLOTS
    entry = RatFn
    kind = "rational"

    @property
    def is_polynomial(self) -> bool:
        return all(e.is_polynomial for row in self.entries for e in row)

    def to_polymat(self) -> PolyMat:
        return PolyMat([[e.to_poly() for e in row] for row in self.entries])

    def nrank(self) -> int:
        return linalg_exact.rank(self.entries)

    def det(self) -> RatFn:
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        return linalg_exact.det(self.entries)

    def inverse(self) -> "RatMat":
        return RatMat(linalg_exact.inverse(self.entries))

    def denominator_lcm(self) -> Poly:
        d = _P_ONE
        for row in self.entries:
            for e in row:
                d = poly_lcm(d, e.den)
        return d.monic()


# ---------------------------------------------------------------------------
# root handles and divisors


def _rationalize(x: float, p: Poly):
    """Try to identify a float as an exact rational root of p."""
    for digits in (6, 9, 12):
        cand = Fraction(x).limit_denominator(10 ** digits)
        g = GaussRat(QQ(cand.numerator, cand.denominator))
        if not p.eval_exact(g):
            return g
    return None


def _rationalize_complex(z: complex, p: Poly):
    if abs(z.imag) < 1e-12:
        return _rationalize(z.real, p)
    for digits in (6, 9, 12):
        re = Fraction(z.real).limit_denominator(10 ** digits)
        im = Fraction(z.imag).limit_denominator(10 ** digits)
        g = GaussRat(QQ(re.numerator, re.denominator),
                     QQ(im.numerator, im.denominator))
        if not p.eval_exact(g):
            return g
    return None


class RootHandle:
    """A located root: either an exact Gaussian rational, or a numeric
    approximation tagged with the monic squarefree factor it annihilates."""

    __slots__ = ("exact", "approx", "factor")

    def __init__(self, exact=None, approx=None, factor=None):
        if exact is not None:
            exact = GaussRat.coerce(exact)
            approx = exact.to_complex()
        elif approx is None:
            raise InputError("root handle needs an exact or numeric value")
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "approx", complex(approx))
        object.__setattr__(self, "factor", factor)

    def __setattr__(self, name, value):
        raise AttributeError("RootHandle is immutable")

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def value(self) -> complex:
        return self.approx

    def __eq__(self, other):
        if isinstance(other, (int, GaussRat)):
            other = RootHandle(exact=other)
        if not isinstance(other, RootHandle):
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self.exact == other.exact
        return abs(self.approx - other.approx) < 1e-9

    def __hash__(self):
        # numeric handles hash coarsely so near-equal values collide
        if self.is_exact:
            return hash(self.exact)
        return hash((round(self.approx.real, 6), round(self.approx.imag, 6)))

    def __repr__(self):
        if self.is_exact:
            return f"RootHandle({self.exact!r})"
        return f"RootHandle(~{self.approx:.6g})"


def poly_roots(p: Poly) -> list[tuple[RootHandle, int]]:
    """All roots of p with multiplicities; rational (Gaussian rational)
    roots are identified exactly, the rest carried as numeric handles."""
    p = Poly.coerce(p)
    if p.is_zero:
        raise InputError("roots of the zero polynomial")
    out = []
    for g, k in squarefree_decomposition(p):
        rem = g
        # peel off exact rational roots first
        import numpy as np

        roots = np.roots([c.to_complex() for c in reversed(rem.coeffs)])
        for z in roots:
            if rem.is_constant:
                break
            ex = _rationalize_complex(complex(z), rem)
            if ex is not None:
                out.append((RootHandle(exact=ex), k))
                rem = rem.exact_div(Poly((-ex, 1)))
        if not rem.is_constant:
            for z in np.roots([c.to_complex() for c in reversed(rem.coeffs)]):
                out.append((RootHandle(approx=complex(z), factor=rem), k))
    return out


class Divisor:
    """Finitely supported integer divisor, held exactly as a coprime pair
    of monic polynomials: order at a point = mult in `zeros` − mult in
    `poles`. Addition multiplies, comparison reduces to divisibility."""

    __slots__ = ("zeros", "poles")

    def __init__(self, zeros=_P_ONE, poles=_P_ONE):
        zeros, poles = Poly.coerce(zeros), Poly.coerce(poles)
        if zeros.is_zero or poles.is_zero:
            raise InputError("divisor polynomials must be nonzero")
        g = poly_gcd(zeros, poles)
        if not g.is_constant:
            zeros, poles = zeros.exact_div(g), poles.exact_div(g)
        object.__setattr__(self, "zeros", zeros.monic())
        object.__setattr__(self, "poles", poles.monic())

    def __setattr__(self, name, value):
        raise AttributeError("Divisor is immutable")

    @staticmethod
    def of_zeros(p: Poly) -> "Divisor":
        return Divisor(zeros=p)

    @staticmethod
    def of_points(points) -> "Divisor":
        """Divisor with order 1 at each listed exact point."""
        return Divisor(zeros=Poly.from_roots(points))

    @property
    def is_empty(self) -> bool:
        return self.zeros.is_constant and self.poles.is_constant

    def order_at(self, point) -> int:
        return (self.zeros.multiplicity_at(point)
                - self.poles.multiplicity_at(point))

    def degree(self) -> int:
        return self.zeros.degree - self.poles.degree

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(self.zeros * other.zeros, self.poles * other.poles)

    def __neg__(self) -> "Divisor":
        return Divisor(self.poles, self.zeros)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.zeros == other.zeros and self.poles == other.poles

    def __hash__(self):
        return hash((self.zeros, self.poles))

    def __le__(self, other: "Divisor") -> bool:
        # pointwise order comparison is exactly polynomial divisibility
        return (self.zeros * other.poles).divides(other.zeros * self.poles)

    def __lt__(self, other: "Divisor") -> bool:
        return self <= other and self != other

    def support(self) -> dict:
        out = {}
        if not self.zeros.is_constant:
            for h, k in poly_roots(self.zeros):
                out[h] = out.get(h, 0) + k
        if not self.poles.is_constant:
            for h, k in poly_roots(self.poles):
                out[h] = out.get(h, 0) - k
        return {h: k for h, k in out.items() if k}

    def points(self) -> set:
        return set(self.support())

    def __repr__(self):
        if self.is_empty:
            return "Divisor(0)"
        return f"Divisor(zeros={self.zeros!r}, poles={self.poles!r})"


@dataclass(frozen=True)
class IndexTuple:
    """Ordered structural indices of a matrix at a point."""

    point: object
    values: tuple


# ---------------------------------------------------------------------------
# Smith-McMillan form


@dataclass(frozen=True)
class SmithMcMillanDecomposition:
    """M = E @ Σ @ F with Σ = diag(φⱼ/ψⱼ) ⊕ 0, gcd(φⱼ, ψⱼ) = 1,
    φⱼ | φⱼ₊₁ and ψⱼ₊₁ | ψⱼ."""

    E: PolyMat
    F: PolyMat
    zero_factors: tuple
    pole_factors: tuple
    nrank: int
    shape: tuple

    def sigma(self) -> RatMat:
        rows, cols = self.shape
        grid = [[RatFn(0)] * cols for _ in range(rows)]
        for j in range(self.nrank):
            grid[j][j] = RatFn(self.zero_factors[j], self.pole_factors[j])
        return RatMat(grid)

    @property
    def phi_total(self) -> Poly:
        p = _P_ONE
        for f in self.zero_factors:
            p = p * f
        return p

    @property
    def psi_total(self) -> Poly:
        p = _P_ONE
        for f in self.pole_factors:
            p = p * f
        return p

    def reconstruct(self) -> RatMat:
        return RatMat.from_polymat(self.E) @ self.sigma() @ RatMat.from_polymat(self.F)


def smith_mcmillan(M: RatMat) -> SmithMcMillanDecomposition:
    """Clear the least common denominator, take the polynomial Smith form,
    and reduce each diagonal entry back against the denominator."""
    d = M.denominator_lcm()
    cleared = PolyMat([[(e * RatFn(d)).to_poly() for e in row]
                       for row in M.entries])
    dec = polymat.smith_form(cleared)
    phis, psis = [], []
    for s in dec.invariant_factors:
        f = RatFn(s, d)
        phis.append(f.num.monic())
        psis.append(f.den)
    return SmithMcMillanDecomposition(
        E=dec.E, F=dec.F,
        zero_factors=tuple(phis), pole_factors=tuple(psis),
        nrank=dec.nrank, shape=(M.rows, M.cols),
    )


def _exact_point(point) -> GaussRat:
    """The exact point of an index query. Floats and complex numbers are
    refused: the answer would be for their binary value, not the point
    meant."""
    if isinstance(point, RootHandle):
        if not point.is_exact:
            raise InputError("structural indices need an exact point")
        return point.exact
    if (isinstance(point, numbers.Complex)
            and not isinstance(point, numbers.Rational)):
        raise InputError("structural indices need an exact point, not "
                         f"the {type(point).__name__} {point!r}")
    return GaussRat.coerce(point)


def zero_index(M: RatMat, point) -> IndexTuple:
    """(ν₁,…,ν_r): multiplicities of the point in the zero factors φⱼ."""
    lam = _exact_point(point)
    dec = smith_mcmillan(M)
    return IndexTuple(lam, tuple(f.multiplicity_at(lam)
                                 for f in dec.zero_factors))


def pole_index(M: RatMat, point) -> IndexTuple:
    """(κ₁,…,κ_r): multiplicities of the point in the pole factors ψⱼ,
    listed nonincreasing."""
    lam = _exact_point(point)
    dec = smith_mcmillan(M)
    return IndexTuple(lam, tuple(f.multiplicity_at(lam)
                                 for f in dec.pole_factors))


def pole_zero_index(M: RatMat, point) -> IndexTuple:
    """τⱼ = νⱼ − κⱼ: the nondecreasing local exponent tuple."""
    lam = _exact_point(point)
    dec = smith_mcmillan(M)
    vals = tuple(p.multiplicity_at(lam) - q.multiplicity_at(lam)
                 for p, q in zip(dec.zero_factors, dec.pole_factors))
    return IndexTuple(lam, vals)


# ---------------------------------------------------------------------------
# matrix-fraction descriptions


@dataclass(frozen=True)
class Mfd:
    """Matrix-fraction description M = N @ D^{-1} (right) or D^{-1} @ N
    (left) with regular polynomial denominator D."""

    N: PolyMat
    D: PolyMat
    side: str
    coprime: bool

    def transfer(self) -> RatMat:
        dinv = RatMat.from_polymat(self.D).inverse()
        n = RatMat.from_polymat(self.N)
        return n @ dinv if self.side == "right" else dinv @ n

    def order_divisor(self) -> Divisor:
        return Divisor.of_zeros(polymat.det(self.D))


def right_coprime_mfd(M: RatMat) -> Mfd:
    """Right coprime MFD from the Smith-McMillan form: N = E @ (diag φ ⊕ 0),
    D = F^{-1} @ (diag ψ ⊕ I)."""
    dec = smith_mcmillan(M)
    r = dec.nrank
    n_phi = PolyMat.diag(dec.zero_factors, rows=M.rows, cols=M.cols)
    d_psi = PolyMat.diag(list(dec.pole_factors) + [_P_ONE] * (M.cols - r))
    n = dec.E @ n_phi
    d = polymat.inverse_unimodular(dec.F) @ d_psi
    ok, _ = polymat.are_right_coprime(n, d)
    return Mfd(N=n, D=d, side="right", coprime=ok)


def left_coprime_mfd(M: RatMat) -> Mfd:
    """Left coprime MFD: N = (diag φ ⊕ 0) @ F, D = (diag ψ ⊕ I) @ E^{-1}."""
    dec = smith_mcmillan(M)
    r = dec.nrank
    n_phi = PolyMat.diag(dec.zero_factors, rows=M.rows, cols=M.cols)
    d_psi = PolyMat.diag(list(dec.pole_factors) + [_P_ONE] * (M.rows - r))
    n = n_phi @ dec.F
    d = d_psi @ polymat.inverse_unimodular(dec.E)
    ok, _ = polymat.are_left_coprime(d, n)
    return Mfd(N=n, D=d, side="left", coprime=ok)


def mfd_unit_relator(mfd1: Mfd, mfd2: Mfd) -> PolyMat:
    """Unimodular U relating two coprime MFDs of the same matrix:
    N1 = N2 @ U, D1 = D2 @ U (right side) or N1 = U @ N2 (left side)."""
    if mfd1.side != mfd2.side:
        raise InputError("unit relator needs MFDs of the same side")
    if not (mfd1.coprime and mfd2.coprime):
        raise NotCoprimeError("unit relator is defined for coprime MFDs")
    if mfd1.side == "right":
        # D1 = D2 @ U
        u = polymat.left_quotient(mfd1.D, mfd2.D)
        if u is None or not polymat.is_unimodular(u):
            raise InputError("MFDs do not describe the same matrix")
        if mfd2.N @ u != mfd1.N:
            raise InputError("MFDs do not describe the same matrix")
    else:
        # D1 = U @ D2
        u = polymat.right_quotient(mfd1.D, mfd2.D)
        if u is None or not polymat.is_unimodular(u):
            raise InputError("MFDs do not describe the same matrix")
        if u @ mfd2.N != mfd1.N:
            raise InputError("MFDs do not describe the same matrix")
    return u


def least_order(M: RatMat) -> Divisor:
    """ν(M): the pole divisor ∂_D of any coprime MFD, read off as the
    divisor of ψ_A."""
    return Divisor.of_zeros(smith_mcmillan(M).psi_total)


def least_order_total(M: RatMat) -> int:
    return smith_mcmillan(M).psi_total.degree


def _substitute_reciprocal(P: RatMat) -> RatMat:
    """Entrywise substitution z -> 1/z."""
    out = []
    for row in P.entries:
        new = []
        for e in row:
            d = max(e.num.degree, e.den.degree, 0)
            new.append(RatFn(e.num.reverse(d), e.den.reverse(d)))
        out.append(new)
    return RatMat(out)


def mcmillan_degree(M: RatMat) -> int:
    """δ(M) = ν̂(M_sp) + ν̂₀(P(1/z)) with M = P + M_sp the entrywise split
    into polynomial part and strictly proper part."""
    p_grid, sp_grid = [], []
    for row in M.entries:
        p_row, sp_row = [], []
        for e in row:
            q, rem = e.polynomial_part()
            p_row.append(RatFn(q))
            sp_row.append(rem)
        p_grid.append(p_row)
        sp_grid.append(sp_row)
    finite = least_order_total(RatMat(sp_grid))
    at_infinity = least_order(_substitute_reciprocal(RatMat(p_grid)))
    return finite + at_infinity.zeros.multiplicity_at(0)
