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
    real_factor,
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

    @staticmethod
    def _split(e):
        return ((e.num, None),), e.den

    @property
    def is_polynomial(self) -> bool:
        return all(e.is_polynomial for row in self.entries for e in row)

    def to_polymat(self) -> PolyMat:
        return PolyMat([[e.to_poly() for e in row] for row in self.entries],
                       self.cols)

    def denominator_lcm(self) -> Poly:
        d = _P_ONE
        for den in {e.den for row in self.entries for e in row}:
            d = poly_lcm(d, den)
        return d.monic()


# ---------------------------------------------------------------------------
# root handles and divisors


def _rationalize(z: complex, p: Poly):
    """The exact root of p that z approximates, if one is found: a
    Gaussian rational whose parts have denominators up to 10^6, 10^9 or
    10^12, real when |Im z| < 1e-12."""
    real = abs(z.imag) < 1e-12
    for digits in (6, 9, 12):
        re = Fraction(z.real).limit_denominator(10 ** digits)
        im = 0 if real else Fraction(z.imag).limit_denominator(10 ** digits)
        g = GaussRat(QQ(re.numerator, re.denominator),
                     QQ(im.numerator, im.denominator))
        if not p.eval_exact(g):
            return g
    return None


class RootHandle:
    """A located root: either an exact Gaussian rational, or a numeric
    approximation tagged with the monic squarefree factor it annihilates.
    A handle equals only handles."""

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

    def __reduce__(self):
        return RootHandle, (self.exact, self.approx, self.factor)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def value(self) -> complex:
        return self.approx

    def __eq__(self, other):
        if not isinstance(other, RootHandle):
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self.exact == other.exact
        return abs(self.approx - other.approx) < 1e-9

    def __hash__(self):
        # handles equal within 1e-9, and no rounding of the value keeps
        # such a pair together at every rounding boundary; so every handle
        # hashes alike, and sets and dicts of handles (a divisor's few
        # points) fall back on equality
        return 0

    def __repr__(self):
        if self.is_exact:
            return f"RootHandle({self.exact!r})"
        return f"RootHandle(~{self.approx:.6g})"


def poly_roots(p: Poly) -> list[tuple[RootHandle, int]]:
    """All roots of p with multiplicities; Gaussian-rational roots are
    identified exactly, a non-real one together with its conjugate, and
    the rest carried as numeric handles."""
    p = Poly.coerce(p)
    if p.is_zero:
        raise InputError("roots of the zero polynomial")
    out = []
    for g, k in squarefree_decomposition(p):
        rem = g
        # peel off exact rational roots first
        import numpy as np

        for z in np.roots([x / rem.den for x in reversed(rem.nums)]):
            if rem.is_constant:
                break
            ex = _rationalize(complex(z), rem)
            if ex is None:
                continue
            out.append((RootHandle(exact=ex), k))
            if not ex.is_real:
                out.append((RootHandle(exact=GaussRat(ex.re, -ex.im)), k))
            rem = rem.exact_div(real_factor(ex))
        if not rem.is_constant:
            for z in np.roots([x / rem.den for x in reversed(rem.nums)]):
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

    def __reduce__(self):
        return Divisor, (self.zeros, self.poles)

    @staticmethod
    def of_zeros(p: Poly) -> "Divisor":
        return Divisor(zeros=p)

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
        return RatMat(grid, cols)

    @property
    def phi_total(self) -> Poly:
        return _product(self.zero_factors)

    @property
    def psi_total(self) -> Poly:
        return _product(self.pole_factors)

    def reconstruct(self) -> RatMat:
        return RatMat.from_polymat(self.E) @ self.sigma() @ RatMat.from_polymat(self.F)


def _product(polys) -> Poly:
    p = _P_ONE
    for f in polys:
        p = p * f
    return p


def smith_mcmillan(M: RatMat) -> SmithMcMillanDecomposition:
    """Clear the least common denominator, take the polynomial Smith form,
    and reduce each diagonal entry back against the denominator. The
    decomposition, E and F included, is kept on M under "smith_mcmillan";
    the queries that read only its diagonal (the indices, least order and
    McMillan degree) read it from there when it is kept, and otherwise
    build only the factors (see `_factors`)."""
    return M._keep("smith_mcmillan", _smith_mcmillan)


def _cleared(M: RatMat, d: Poly) -> PolyMat:
    """d @ M, polynomial for a common denominator d of the entries; d is
    divided by each distinct denominator once."""
    cofactor = {den: d.exact_div(den)
                for den in {e.den for row in M.entries for e in row}}
    return PolyMat._of([[e.num * cofactor[e.den] for e in row]
                        for row in M.entries], M.cols)


def _reduced(invariant_factors, d: Poly) -> tuple:
    """(zero factors, pole factors): each s / d in lowest terms."""
    phis, psis = [], []
    for s in invariant_factors:
        f = RatFn(s, d)
        phis.append(f.num.monic())
        psis.append(f.den)
    return tuple(phis), tuple(psis)


def _smith_mcmillan(M: RatMat) -> SmithMcMillanDecomposition:
    d = M.denominator_lcm()
    dec = polymat.smith_form(_cleared(M, d))
    phis, psis = _reduced(dec.invariant_factors, d)
    return SmithMcMillanDecomposition(
        E=dec.E, F=dec.F, zero_factors=phis, pole_factors=psis,
        nrank=dec.nrank, shape=(M.rows, M.cols),
    )


def _smith_mcmillan_factors(M: RatMat) -> tuple:
    """(zero factors, pole factors) from invariant factors that carry no
    E or F and build no echelon."""
    d = M.denominator_lcm()
    return _reduced(polymat._invariant_factors(_cleared(M, d)), d)


def _factors(M: RatMat) -> tuple:
    """(zero factors, pole factors) of M: read from the kept Smith-McMillan
    decomposition if there is one, else from the factors alone, kept under
    "smith_mcmillan_factors"."""
    dec = (M._kept or {}).get("smith_mcmillan")
    if dec is not None:
        return dec.zero_factors, dec.pole_factors
    return M._keep("smith_mcmillan_factors", _smith_mcmillan_factors)


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
    return IndexTuple(lam, tuple(f.multiplicity_at(lam)
                                 for f in _factors(M)[0]))


def pole_index(M: RatMat, point) -> IndexTuple:
    """(κ₁,…,κ_r): multiplicities of the point in the pole factors ψⱼ,
    listed nonincreasing."""
    lam = _exact_point(point)
    return IndexTuple(lam, tuple(f.multiplicity_at(lam)
                                 for f in _factors(M)[1]))


def pole_zero_index(M: RatMat, point) -> IndexTuple:
    """τⱼ = νⱼ − κⱼ: the nondecreasing local exponent tuple."""
    lam = _exact_point(point)
    vals = tuple(p.multiplicity_at(lam) - q.multiplicity_at(lam)
                 for p, q in zip(*_factors(M)))
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
        """N @ D^-1 = Y / delta for Y @ D = delta * N (`polymat._right_solve`);
        a left MFD through its transpose, the right MFD of M^T."""
        if self.side == "left":
            return self.transpose().transfer().transpose()
        y, delta = polymat._right_solve(self.N, self.D)
        return RatMat([[RatFn(e, delta) for e in row] for row in y.entries],
                      y.cols)

    def order_divisor(self) -> Divisor:
        return Divisor.of_zeros(polymat.det(self.D))

    def transpose(self) -> "Mfd":
        """The MFD of M^T, on the other side."""
        return Mfd(N=self.N.transpose(), D=self.D.transpose(),
                   side="left" if self.side == "right" else "right",
                   coprime=self.coprime)


def right_coprime_mfd(M: RatMat) -> Mfd:
    """Right coprime MFD by removing a gcrd (Kailath 1980, §6.3): with d
    the least common denominator and G = gcrd(d M, d I), [d M; d I] =
    [N; D] @ G, so M = N @ D^{-1}; `coprime` is the Bezout check X @ N +
    Y @ D = I, from the certificate X @ d M + Y @ d I = G of the gcrd."""
    d = M.denominator_lcm()
    g = polymat.gcrd(_cleared(M, d), PolyMat.diag([d] * M.cols))
    coprime = g.X @ g.Q1 + g.Y @ g.Q2 == PolyMat.identity(M.cols)
    return Mfd(N=g.Q1, D=g.Q2, side="right", coprime=coprime)


def left_coprime_mfd(M: RatMat) -> Mfd:
    """Left coprime MFD, by duality: the transpose of a right coprime MFD
    of M^T."""
    return right_coprime_mfd(M.transpose()).transpose()


def mfd_unit_relator(mfd1: Mfd, mfd2: Mfd) -> PolyMat:
    """Unimodular U relating two coprime MFDs of the same matrix:
    N1 = N2 @ U, D1 = D2 @ U (right side) or N1 = U @ N2 (left side, by
    transposition)."""
    if mfd1.side != mfd2.side:
        raise InputError("unit relator needs MFDs of the same side")
    if mfd1.side == "left":
        return mfd_unit_relator(mfd1.transpose(),
                                mfd2.transpose()).transpose()
    if not (mfd1.coprime and mfd2.coprime):
        raise NotCoprimeError("unit relator is defined for coprime MFDs")
    # D1 = D2 @ U
    u = polymat.left_quotient(mfd1.D, mfd2.D)
    if u is None or not polymat.is_unimodular(u):
        raise InputError("MFDs do not describe the same matrix")
    if mfd2.N @ u != mfd1.N:
        raise InputError("MFDs do not describe the same matrix")
    return u


def least_order(M: RatMat) -> Divisor:
    """ν(M): the pole divisor ∂_D of any coprime MFD, read off as the
    divisor of ψ_A."""
    return Divisor.of_zeros(_product(_factors(M)[1]))


def least_order_total(M: RatMat) -> int:
    return sum(f.degree for f in _factors(M)[1])


def _substitute_reciprocal(P: RatMat) -> RatMat:
    """Entrywise substitution z -> 1/z."""
    out = []
    for row in P.entries:
        new = []
        for e in row:
            d = max(e.num.degree, e.den.degree, 0)
            new.append(RatFn(e.num.reverse(d), e.den.reverse(d)))
        out.append(new)
    return RatMat(out, P.cols)


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
    finite = least_order_total(RatMat(sp_grid, M.cols))
    at_infinity = least_order(_substitute_reciprocal(RatMat(p_grid, M.cols)))
    return finite + at_infinity.zeros.multiplicity_at(0)
