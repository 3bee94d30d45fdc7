"""Rational-matrix structure theory: Smith-McMillan form, root handles and
divisors, structural indices, coprime matrix-fraction descriptions, least
order and McMillan degree.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from . import linalg_exact, polymat
from .errors import AnalysisError, InputError, NotCoprimeError
from .exactalg import (
    QQ,
    GaussRat,
    Poly,
    RatFn,
    poly_gcd,
    poly_lcm,
    real_factor,
    squarefree_decomposition,
    _conv,
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
        return self.E @ self.sigma() @ self.F


def _product(polys) -> Poly:
    p = _P_ONE
    for f in polys:
        p = p * f
    return p


def smith_mcmillan(M: RatMat) -> SmithMcMillanDecomposition:
    """Clear the least common denominator, take the polynomial Smith form,
    and reduce each diagonal entry back against the denominator. The
    decomposition, E and F included, is kept on M under "smith_mcmillan",
    and least order and McMillan degree read their poles from it when it
    is kept; otherwise they read them from the right coprime MFD's Hermite
    form (see `_pole_polynomial`). The index queries never read it: they
    take the local exponents at their point from Taylor data
    (`_local_exponents`)."""
    return M._keep("smith_mcmillan", _smith_mcmillan)


def _cleared(M: RatMat, d: Poly) -> PolyMat:
    """d @ M, polynomial for a common denominator d of the entries; d is
    divided by each distinct denominator once."""
    cofactor = {den: d.exact_div(den)
                for den in {e.den for row in M.entries for e in row}}
    return PolyMat._of([[e.num * cofactor[e.den] for e in row]
                        for row in M.entries], M.cols)


def _smith_mcmillan(M: RatMat) -> SmithMcMillanDecomposition:
    d = M.denominator_lcm()
    dec = polymat.smith_form(_cleared(M, d))
    reduced = [RatFn(s, d) for s in dec.invariant_factors]
    return SmithMcMillanDecomposition(
        E=dec.E, F=dec.F,
        zero_factors=tuple(f.num.monic() for f in reduced),
        pole_factors=tuple(f.den for f in reduced),
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
    """(ν₁,…,ν_r): multiplicities of the point in the zero factors φⱼ,
    νⱼ = max(τⱼ, 0) for the local exponents τ (`_local_exponents`)."""
    lam = _exact_point(point)
    return IndexTuple(lam, tuple(max(t, 0)
                                 for t in _local_exponents(M, lam)))


def pole_index(M: RatMat, point) -> IndexTuple:
    """(κ₁,…,κ_r): multiplicities of the point in the pole factors ψⱼ,
    κⱼ = max(−τⱼ, 0), nonincreasing."""
    lam = _exact_point(point)
    return IndexTuple(lam, tuple(max(-t, 0)
                                 for t in _local_exponents(M, lam)))


def pole_zero_index(M: RatMat, point) -> IndexTuple:
    """τⱼ = νⱼ − κⱼ: the nondecreasing local exponent tuple."""
    lam = _exact_point(point)
    return IndexTuple(lam, _local_exponents(M, lam))


def _local_exponents(M: RatMat, lam: GaussRat) -> tuple:
    """The local exponents τ₁ ≤ … ≤ τ_r of M at the exact point lam, r the
    normal rank: the exponents of the local Smith-McMillan form at lam
    (Kailath, Linear Systems, 1980, §6.5), from Taylor data alone. With
    lam = (a + c i)/b, b the least common denominator of its two parts,
    each numerator and denominator p becomes the Gaussian-integer
    coefficients of b^D p((a + c i + u)/b) in u = b (z − lam), one D for
    the whole matrix, so every entry keeps its value. Each entry loses its
    power u^v, each row is multiplied by the unit parts of its entries'
    denominators and the whole matrix by u^s, s = max(0, −min v): a
    polynomial matrix C whose exponents are those of M plus s. For a
    non-real lam, the integer matrix [[R, −I], [I, R]] of the real and
    imaginary parts of C is similar over C to C ⊕ C̄, so it has every
    exponent twice. Its exponents are the orders of the pivots of a
    fraction-free elimination over Z[u]/(u^K) (`_pivot_orders`) of C
    built modulo u^K, K doubled from 4 until as many pivots are found as
    the normal rank: min(rows, cols) when the first pass finds so many,
    and otherwise the rank that `_normal_rank` certifies."""
    b = lcm(lam.re.denominator, lam.im.denominator)
    a = int(lam.re.numerator) * (b // lam.re.denominator)
    c = int(lam.im.numerator) * (b // lam.im.denominator)
    cells = [e for row in M.entries for e in row if e.num.nums]
    if not cells:
        return ()
    deg = max(max(len(e.num.nums), len(e.den.nums)) for e in cells) - 1
    bpow = [b ** (deg - k) for k in range(deg + 1)]
    shifted = {}

    def unit(p, scale):
        """(order, unit part) of the shift of scale * p, each shifted once."""
        if (p, scale) not in shifted:
            shifted[p, scale] = _unit_part(*_shift(p, scale, a, c, bpow))
        return shifted[p, scale]

    # an entry num / den is (num.nums * den.den) / (den.nums * num.den)
    grid = [[(unit(e.num.nums, e.den.den), unit(e.den.nums, e.num.den))
             if e.num.nums else None for e in row] for row in M.entries]
    s = max(0, max(vd - vn for row in grid
                   for (vn, _), (vd, _) in filter(None, row)))

    def cleared(k):
        """The rows of C modulo u^k; for a non-real lam, those of the
        matrix [[R, −I], [I, R]] of its real and imaginary parts."""
        re, im = [], []
        for row in grid:
            dens = list({d: None for _, (_, d) in filter(None, row)})
            re.append([])
            im.append([])
            for cell in row:
                pad = k if cell is None else cell[0][0] - cell[1][0] + s
                if pad >= k:
                    re[-1].append([])
                    im[-1].append([])
                    continue
                (_, n), (_, d) = cell
                for other in dens:
                    if other != d:
                        n = _gauss_mul(n, other, k - pad)
                re[-1].append([0] * pad + list(n[0][:k - pad]))
                if c:
                    im[-1].append([0] * pad + list(n[1][:k - pad]))
        if not c:
            return re
        return ([x + [[-t for t in y] for y in z] for x, z in zip(re, im)]
                + [z + x for x, z in zip(re, im)])

    k, copies = 4, 2 if c else 1
    orders = _pivot_orders(cleared(k), k)
    if len(orders) < min(len(grid), len(grid[0])) * copies:
        rank = _normal_rank(M) * copies
        while len(orders) < rank:
            k *= 2
            orders = _pivot_orders(cleared(k), k)
    return tuple(v - s for v in orders[::copies])


def _normal_rank(M: RatMat) -> int:
    """The rank of M over the rational functions, exactly: the largest rank
    of P = diag(lᵢ) M, lᵢ the least common denominator of row i, at the
    integers 0, 1, −1, 2, … An (r + 1)-minor of P is a polynomial of
    degree at most D, the sum of the r + 1 largest row degrees of P; if it
    is not zero, it is not zero at one of any D + 1 points. So the largest
    rank r seen is the normal rank once it is full or D + 1 points have
    been seen."""
    rows = []  # the nonzero rows of P, integer coefficients
    for row in M.entries:
        if any(e.num.nums for e in row):
            l = _P_ONE
            for den in {e.den for e in row}:
                l = poly_lcm(l, den)
            polys = [e.num * (l // e.den) for e in row]
            w = lcm(*(p.den for p in polys))
            rows.append([[t * (w // p.den) for t in p.nums] for p in polys])
    degs = sorted((max(map(len, row)) - 1 for row in rows), reverse=True)
    full = min(len(rows), sum(map(any, zip(*rows))))
    top = max(degs, default=0) + 1
    rank, seen, x = 0, 0, 0
    while rank < full and seen <= sum(degs[:rank + 1]):
        powers = [x ** k for k in range(top)]
        rank = max(rank, _int_rank([[sum(map(mul, p, powers)) for p in row]
                                    for row in rows]))
        seen += 1
        x = -x if x > 0 else 1 - x
    return rank


def _int_rank(a):
    """The rank over Q of an integer matrix held as a list of rows, by
    Bareiss's fraction-free elimination: each step divides exactly by the
    previous pivot, so every entry stays a minor of the matrix."""
    rank, prev = 0, 1
    while a:
        row = a.pop()
        j = next((j for j, t in enumerate(row) if t), None)
        if j is not None:
            rank, p = rank + 1, row[j]
            a = [[(p * t - r[j] * s) // prev for s, t in zip(row, r)]
                 for r in a]
            prev = p
    return rank


def _shift(p, scale, a, c, bpow):
    """(re, im): the coefficients in u of b^D q((a + c i + u)/b) for q =
    scale * p, p integer coefficients lowest degree first and bpow[k] =
    b^(D − k), by the Taylor shift of Σ q_k b^(D−k) x^k to x = a + c i + u
    in place; im is None for c = 0."""
    re = [x * y * scale for x, y in zip(p, bpow)]
    n = len(re) - 1
    if not c:
        for i in range(n if a else 0):
            for j in range(n - 1, i - 1, -1):
                re[j] += a * re[j + 1]
        return re, None
    im = [0] * (n + 1)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            re[j], im[j] = (re[j] + a * re[j + 1] - c * im[j + 1],
                            im[j] + a * im[j + 1] + c * re[j + 1])
    return re, im


def _unit_part(re, im):
    """(v, (re', im')) with re + i im = u^v (re' + i im') and re' + i im'
    nonzero at 0, for a nonzero polynomial."""
    v = 0
    while not re[v] and (im is None or not im[v]):
        v += 1
    return v, (tuple(re[v:]), None if im is None else tuple(im[v:]))


def _gauss_mul(x, y, k):
    """The coefficients below degree k of the product of two
    Gaussian-integer polynomials held as (re, im)."""
    (xr, xi), (yr, yi) = x, y
    if xi is None:
        return _conv(xr, yr, k), None
    return ([p - q for p, q in zip(_conv(xr, yr, k), _conv(xi, yi, k))],
            [p + q for p, q in zip(_conv(xr, yi, k), _conv(xi, yr, k))])


def _order(x):
    """The order in u of a coefficient list; None for zero."""
    for v, p in enumerate(x):
        if p:
            return v
    return None


def _pivot_orders(grid, k):
    """The orders of the pivots of a fraction-free elimination of the
    integer polynomial matrix `grid` (rows of coefficient lists, lowest
    degree first) over Z[u]/(u^k), nondecreasing. The pivot is an entry
    of least order v; every other row i becomes p̂·rowᵢ − (e/u^v)·row_p,
    with p̂ the pivot's unit part and e row i's entry in the pivot column,
    a step exact modulo u^k because every entry has order at least v;
    then the pivot's row and column go, and each changed row is divided
    by its integer content. Each step multiplies rows by units of Q[[u]],
    so the orders are the local Smith exponents of grid below k."""
    a = [[x[:k] for x in row] for row in grid]
    orders = []
    while a and a[0]:
        best = None
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                v = _order(x)
                if v is not None and (best is None or v < best[0]):
                    best = v, i, j
        if best is None:
            break
        v, p, q = best
        prow = a.pop(p)
        piv = prow[q][v:]
        prow = prow[:q] + prow[q + 1:]
        for i, row in enumerate(a):
            e = row.pop(q)
            if not any(e):
                continue
            f = e[v:]
            row = [_conv(piv, x, k) if x else [] for x in row]
            for x, y in zip(row, prow):
                if y:
                    if len(x) < k:
                        x += [0] * (k - len(x))
                    for m, t in enumerate(_conv(f, y, k)):
                        x[m] -= t
            g = gcd(*chain.from_iterable(row))
            a[i] = [[t // g for t in x] if g > 1 else x for x in row]
        orders.append(v)
    return orders


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


def _modular_hermite(M: RatMat) -> tuple:
    """(d, G): d the least common denominator of M and G the Hermite form
    of the row lattice of [d M; d I] (`polymat._hermite_mod`), a gcrd of
    d M and d I. Kept on M under "hermite_mod" for its right coprime MFD
    and its poles."""
    d = M.denominator_lcm()
    return d, polymat._hermite_mod(_cleared(M, d), d)


def right_coprime_mfd(M: RatMat) -> Mfd:
    """Right coprime MFD by removing a gcrd (Kailath 1980, §6.3): with d
    the least common denominator and G the Hermite form of the row lattice
    L of [d M; d I] (kept on M), [d M; d I] = [N; D] @ G, so M = N @ D^{-1}
    and D = d G^{-1}. `coprime` holds by construction. G comes from the
    generators of L by steps within L, so span(G) ⊆ L and G = X @ [d M;
    d I] for a polynomial X; the exact division along the rows of G
    succeeds, so L ⊆ span(G). Then G = X @ [N; D] @ G, so X @ [N; D] = I.
    A remainder in the division would break the second fact, and raises
    AnalysisError."""
    d, g = M._keep("hermite_mod", _modular_hermite)
    q = polymat._right_divide(
        _cleared(M, d).vstack(PolyMat.diag([d] * M.cols)), g)
    if q is None:
        raise AnalysisError("the Hermite form modulo d does not divide "
                            "[d M; d I]")
    return Mfd(N=q.submatrix(slice(0, M.rows), slice(None)),
               D=q.submatrix(slice(M.rows, None), slice(None)),
               side="right", coprime=True)


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


def _pole_polynomial(M: RatMat) -> Poly:
    """ψ_total = ψ₁ ⋯ ψ_r, the monic least common denominator of all
    minors of M: the product of the pole factors of a kept Smith-McMillan
    form, and otherwise det D = dⁿ / det G for the kept (d, G) of the
    right coprime MFD, the product of the d / Gⱼⱼ."""
    dec = (M._kept or {}).get("smith_mcmillan")
    if dec is not None:
        return dec.psi_total
    d, g = M._keep("hermite_mod", _modular_hermite)
    return _product(d if g[j, j] == _P_ONE else d.exact_div(g[j, j])
                    for j in range(M.cols))


def least_order(M: RatMat) -> Divisor:
    """ν(M): the pole divisor ∂_D of any coprime MFD, read off as the
    divisor of ψ_total."""
    return Divisor.of_zeros(_pole_polynomial(M))


def least_order_total(M: RatMat) -> int:
    return _pole_polynomial(M).degree


def mcmillan_degree(M: RatMat) -> int:
    """δ(M) = ν̂(M) + ν̂₀(P(1/z)) with M = P + M_sp the entrywise split into
    polynomial part and strictly proper part. M and M_sp share their
    finite poles: for a right coprime M_sp = N @ D^{-1}, [N + P @ D; D] =
    [[I, P], [0, I]] @ [N; D] is a coprime MFD of M with the same D. With
    k the largest degree in P, z^k is a common denominator of P(1/z) and
    z^k P(1/z) reverses each entry at degree k; every diagonal entry of
    the Hermite form G modulo z^k is a power of z, so the pole order at 0
    of det(z^k I) / det G is n k − Σ deg Gⱼⱼ."""
    p = [[e.num // e.den for e in row] for row in M.entries]
    k = max([0] + [q.degree for row in p for q in row])
    g = polymat._hermite_mod(PolyMat._of(
        [[q.reverse(k) for q in row] for row in p], M.cols), Poly.z() ** k)
    at_infinity = sum(k - g[j, j].degree for j in range(M.cols))
    return least_order_total(M) + at_infinity
