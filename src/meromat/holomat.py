"""Numerics for quasi-polynomial and other evaluable matrices: contour
counting via the argument principle, root localization, block-Toeplitz
local indices, regional coprimeness, and TDS system-matrix assembly.

Exact data lives in exactalg/polymat/ratmat; everything here that touches
floating point is deliberate and tolerance-guarded.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AmbiguousRankError,
    AnalysisError,
    ContourError,
    ConvergenceError,
    InputError,
    RankDeficientError,
    SingularMatrixError,
)
from .exactalg import QQ, GaussRat, Poly, _lift
from .linalg_exact import DenseMat
from .polymat import PolyMat
from .ratmat import IndexTuple, RatMat, RootHandle

__all__ = [
    "QuasiPolyEntry",
    "QuasiPolyMat",
    "Contour",
    "CountResult",
    "TdsData",
    "as_evaluable",
    "nrank_sampled",
    "count_zeros_minus_poles",
    "roots_in_region",
    "local_indices",
    "regional_coprime",
    "build_tds_amd",
    "tds_pole_count",
]

_EXP_LIMIT = 700.0  # beyond this |Re(z)|*tau, exp over/underflows badly


def _delay_factors(tau, zs):
    """e^{-tau z} at a vector of nodes, computed as QuasiPolyEntry computes
    it, with the same AnalysisError where it would overflow."""
    t = -float(tau)
    over = t * zs.real > _EXP_LIMIT
    if over.any():
        z = zs[over.argmax()]
        raise AnalysisError(
            f"exponential overflow at Re(z) = {z.real:g}, tau = {tau}")
    return np.array([cmath.exp(t * z) for z in zs.tolist()], dtype=complex)


class QuasiPolyEntry:
    """Finite sum of p(z) * exp(-tau z) terms with exact polynomial p and
    exact nonnegative rational delay tau; delays strictly increasing."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for p, tau in terms:
            p = Poly.coerce(p)
            tau = QQ(tau)
            if tau < 0:
                raise InputError("negative delay in quasi-polynomial term")
            if p.is_zero:
                continue
            if tau in merged:
                merged[tau] = merged[tau] + p
            else:
                merged[tau] = p
        cleaned = tuple(sorted(((t, p) for t, p in merged.items()
                                if not p.is_zero)))
        object.__setattr__(self, "terms",
                           tuple((p, t) for t, p in cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("QuasiPolyEntry is immutable")

    def __reduce__(self):
        return QuasiPolyEntry, (self.terms,)

    @staticmethod
    def coerce(value) -> "QuasiPolyEntry":
        if isinstance(value, QuasiPolyEntry):
            return value
        return QuasiPolyEntry(((Poly.coerce(value), QQ(0)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_polynomial(self) -> bool:
        return all(not tau for _, tau in self.terms)

    def to_poly(self) -> Poly:
        if self.is_zero:
            return Poly.zero()
        if not self.is_polynomial:
            raise InputError("quasi-polynomial has delayed terms")
        return self.terms[0][0]

    def __eq__(self, other):
        if not isinstance(other, QuasiPolyEntry):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    # an operand of another ring (RatFn) gets NotImplemented

    def __add__(self, other):
        if (not isinstance(other, QuasiPolyEntry)
                and (other := _lift(other, QuasiPolyEntry.coerce)) is None):
            return NotImplemented
        return QuasiPolyEntry(self.terms + other.terms)

    def __neg__(self):
        return QuasiPolyEntry(tuple((-p, t) for p, t in self.terms))

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if (not isinstance(other, QuasiPolyEntry)
                and (other := _lift(other, QuasiPolyEntry.coerce)) is None):
            return NotImplemented
        out = []
        for p1, t1 in self.terms:
            for p2, t2 in other.terms:
                out.append((p1 * p2, t1 + t2))
        return QuasiPolyEntry(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative power of a quasi-polynomial")
        result = QuasiPolyEntry.coerce(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "QuasiPolyEntry":
        # d/dz [p e^{-tau z}] = (p' - tau p) e^{-tau z}
        return QuasiPolyEntry(tuple(
            (p.derivative() - p.scale(tau), tau) for p, tau in self.terms))

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for p, tau in self.terms:
            arg = -float(tau) * z.real
            if arg > _EXP_LIMIT:
                raise AnalysisError(
                    f"exponential overflow at Re(z) = {z.real:g}, tau = {tau}")
            acc += p(z) * cmath.exp(-float(tau) * z)
        return acc

    def __str__(self):
        """Canonical text, which the entry grammar reads back."""
        return " + ".join(str(p) if not tau else f"({p})*exp(-{tau}*z)"
                          for p, tau in self.terms) or "0"

    def __repr__(self):
        return f"QuasiPolyEntry({self})"


class QuasiPolyMat(DenseMat):
    """Dense matrix of quasi-polynomial entries."""

    __slots__ = DenseMat.SLOTS
    entry = QuasiPolyEntry
    kind = "quasipoly"
    _delay = staticmethod(_delay_factors)

    @staticmethod
    def _split(e):
        return e.terms, None

    def to_polymat(self) -> PolyMat:
        return PolyMat([[e.to_poly() for e in row] for row in self.entries],
                       self.cols)


# ---------------------------------------------------------------------------
# evaluable wrappers


class _QpTransferEvaluable:
    """Transfer function D + C A^{-1} B of a quasipoly AMD, with the
    analytic derivative assembled from block derivatives."""

    __slots__ = ("A", "B", "C", "D", "shape")

    def __init__(self, A, B, C, D):
        self.A, self.B, self.C, self.D = A, B, C, D
        self.shape = (C.rows, B.cols)

    def eval_many(self, zs):
        x = np.linalg.solve(self.A.eval_many(zs), self.B.eval_many(zs))
        return self.D.eval_many(zs) + self.C.eval_many(zs) @ x

    def eval_pair_many(self, zs):
        """Values and derivatives; A^{-1} B serves both."""
        (a, da), (b, db), (c, dc), (d, dd) = (
            X.eval_pair_many(zs) for X in (self.A, self.B, self.C, self.D))
        ainv_b = np.linalg.solve(a, b)
        c_ainv = np.linalg.solve(a.swapaxes(1, 2),
                                 c.swapaxes(1, 2)).swapaxes(1, 2)
        return (d + c @ ainv_b,
                dd + dc @ ainv_b - c_ainv @ da @ ainv_b + c_ainv @ db)

    def eval(self, z: complex):
        return self.eval_many([z])[0]


class _Pointwise:
    """Node vectors for an object that evaluates one node at a time, its
    values by `eval(z)` and its derivative by `eval_deriv(z)`."""

    __slots__ = ("shape", "inner")

    def __init__(self, inner):
        self.shape, self.inner = tuple(inner.shape), inner

    def _stack(self, f, zs):
        zs = np.asarray(zs, dtype=complex).tolist()
        return np.array([f(z) for z in zs],
                        dtype=complex).reshape((len(zs),) + self.shape)

    def eval_many(self, zs):
        return self._stack(self.inner.eval, zs)

    def eval_pair_many(self, zs):
        return self.eval_many(zs), self._stack(self.inner.eval_deriv, zs)


def as_evaluable(M):
    """M itself when it evaluates node vectors, values (`eval_many`, arrays
    of shape (k, rows, cols)) and values with derivatives (`eval_pair_many`);
    an adapter when it evaluates one node at a time (`eval`, `eval_deriv`)."""
    if hasattr(M, "eval_many") and hasattr(M, "eval_pair_many"):
        return M
    if hasattr(M, "eval") and hasattr(M, "eval_deriv"):
        return _Pointwise(M)
    raise InputError(f"cannot evaluate object of type {type(M).__name__}")


_RANK_ZERO = 1e-9
_RANK_BAND = (1e-11, 1e-7)


def _band_ranks(svals, refs):
    """Rank of each row of descending singular values relative to its entry
    of `refs` (0 if that is not positive); -1 if a value is in the band."""
    refs = refs[:, None]
    ambiguous = ((_RANK_BAND[0] * refs < svals)
                 & (svals < _RANK_BAND[1] * refs)).any(axis=1)
    ranks = ((svals > _RANK_ZERO * refs) & (refs > 0)).sum(axis=1)
    return np.where(ambiguous, -1, ranks)


def _max_rank(mats) -> int:
    """Largest rank of the samples (k, rows, cols) that have one, each with
    rows, then columns, scaled to unit max-norm, so that no full-rank sample
    is ambiguous by its scaling alone; AmbiguousRankError if none has."""
    for axis in (2, 1):
        norm = np.abs(mats).max(axis=axis, keepdims=True, initial=0.0)
        mats = mats / np.where(norm > 0, norm, 1.0)
    # a sample that is not finite would fail the SVD of the whole stack
    mats = mats[np.isfinite(mats).all(axis=(1, 2))]
    svals = np.linalg.svd(mats, compute_uv=False)
    ranks = _band_ranks(svals, svals.max(axis=1, initial=0.0))
    if not (ranks >= 0).any():
        raise AmbiguousRankError(f"no rank at any of {len(mats)} samples")
    return int(ranks.max())


@functools.cache
def _sample_points() -> tuple:
    """16 fixed random points in the square [-3, 3]^2, drawn once."""
    rng = np.random.default_rng(715225741)
    return tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                 for _ in range(16))


def nrank_sampled(M) -> int:
    """_max_rank at those of _sample_points that can be evaluated; 0 when M
    has no rows or no columns."""
    ev = as_evaluable(M)
    if 0 in ev.shape:
        return 0
    zs = _sample_points()
    try:
        mats = ev.eval_many(zs)
    except AnalysisError:  # skip only the points that cannot be evaluated
        mats = []
        for z in zs:
            with contextlib.suppress(AnalysisError):
                mats.append(ev.eval_many([z])[0])
    return _max_rank(np.reshape(mats, (-1,) + ev.shape))


# ---------------------------------------------------------------------------
# contours and the argument principle


@dataclass(frozen=True)
class Contour:
    """Circle or rectangle contour with quadrature settings.

    `max_subdiv` = N bounds the adaptive quadrature: panels are never
    split below 2^-N of a segment; at most 2^min(N,16) splits. A count
    that would need more raises ConvergenceError."""

    kind: str
    center: complex = 0j
    radius: float = 0.0
    corners: tuple = ()
    tol: float = 1e-8
    max_subdiv: int = 40

    def __post_init__(self):
        if self.kind == "circle":
            coords = (self.center, self.radius)
        elif self.kind == "rectangle":
            coords = self.corners
            if len(coords) != 4:
                raise InputError("a rectangle needs its four corners")
        else:
            raise InputError(f"unknown contour kind {self.kind!r}")
        if not all(map(cmath.isfinite, coords)):
            raise InputError("contour coordinates must be finite")
        if not (math.isfinite(self.tol) and self.tol > 0
                and self.max_subdiv >= 1):
            raise InputError("quadrature needs a finite tolerance > 0 and "
                             "max_subdiv >= 1")
        if self.kind == "circle" and self.radius <= 0:
            raise InputError("circle radius must be positive")
        if self.kind == "rectangle":
            lo, hi = coords[0], coords[2]
            if hi.real <= lo.real or hi.imag <= lo.imag:
                raise InputError("rectangle must have positive area")
            if coords != (lo, complex(hi.real, lo.imag), hi,
                          complex(lo.real, hi.imag)):
                raise InputError("rectangle corners must run counterclockwise "
                                 "from the lower left, axis-parallel")

    @staticmethod
    def circle(center, radius, tol=1e-8, max_subdiv=40) -> "Contour":
        return Contour(kind="circle", center=complex(center),
                       radius=float(radius), tol=tol, max_subdiv=max_subdiv)

    @staticmethod
    def rectangle(x0, x1, y0, y1, tol=1e-8, max_subdiv=40) -> "Contour":
        corners = (complex(x0, y0), complex(x1, y0),
                   complex(x1, y1), complex(x0, y1))
        return Contour(kind="rectangle", corners=corners,
                       tol=tol, max_subdiv=max_subdiv)

    def segments(self):
        """Parametrized pieces (z(t), z'(t)) over t in [0, 1], each taking
        and returning arrays of parameters and points."""
        if self.kind == "circle":
            c, r = self.center, self.radius

            def zf(t, c=c, r=r):
                return c + r * np.exp(2j * math.pi * t)

            def dzf(t, c=c, r=r):
                return 2j * math.pi * r * np.exp(2j * math.pi * t)

            return [(zf, dzf)]
        segs = []
        pts = self.corners
        for a, b in zip(pts, pts[1:] + pts[:1]):
            segs.append((lambda t, a=a, b=b: a + (b - a) * t,
                         lambda t, a=a, b=b: np.full(len(t), b - a)))
        return segs

    def boundary_points(self, k: int = 256):
        segs = self.segments()
        per = max(1, k // len(segs))
        return np.concatenate([zf(np.arange(per) / per) for zf, _ in segs])


@dataclass(frozen=True)
class CountResult:
    """Argument-principle count: zeros minus poles inside the contour.

    `evals` is (value evaluations, derivative evaluations) of the matrix,
    one per node; `subdivisions` counts quadrature panel splits.
    """

    n_minus_p: int
    raw_integral: complex
    residual: float
    evals: tuple
    subdivisions: int


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# panels refined per call of the integrand; a small cap keeps the work of a
# count that cannot converge close to that of one panel at a time
_BATCH = 4


class _SubdivBudget:
    """Splits left, and the narrowest panel that may be split."""

    __slots__ = ("left", "floor")

    def __init__(self, max_subdiv):
        self.left = 2 ** min(max_subdiv, 16)
        self.floor = 2.0 ** -max_subdiv


class _Panel:
    """Parameter interval [a, b] of a segment: tolerance, own rule sum
    `whole` (None until evaluated), folded `value`, `halves` once split."""

    __slots__ = ("seg", "a", "b", "tol", "whole", "value", "halves")

    def __init__(self, seg, a, b, tol, whole=None):
        self.seg, self.a, self.b, self.tol, self.whole = seg, a, b, tol, whole
        self.value = self.halves = None


def _integrate(g, segments, tol: float, budget: _SubdivBudget):
    """Sum over the segments (z(t), z'(t)) of the integral of g(z) z' over
    t in [0, 1] by adaptive 16-point Gauss-Legendre panels: a panel whose
    rule misses the sum of its halves' rules by more than its tolerance is
    split, each half taking half the tolerance. Up to _BATCH panels are
    taken depth first, evaluated in one call of g, summed in node order
    and folded as a recursion adds them: no bit depends on _BATCH."""
    roots = [_Panel(seg, 0.0, 1.0, tol) for seg in segments]
    made, stack = list(roots), roots[::-1]  # made: parents before halves
    while stack:
        batch = stack[:-_BATCH - 1:-1]
        del stack[-_BATCH:]
        zs, dzs, halves = [], [], []
        for p in batch:
            mid = 0.5 * (p.a + p.b)
            ends = [(p.a, p.b)] if p.whole is None else []  # segment rule
            ends += [(p.a, mid), (mid, p.b)]
            halves += [0.5 * (b - a) for a, b in ends]
            t = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
                                for a, b in ends])
            zs.append(p.seg[0](t))
            dzs.append(p.seg[1](t))
        v = _cmul(g(np.concatenate(zs)), np.concatenate(dzs))
        sums = iter([sum((_GL_WEIGHTS * v[16 * i:16 * i + 16]).tolist(), 0j)
                     * h for i, h in enumerate(halves)])
        mark = len(made)
        for p in batch:
            if p.whole is None:
                p.whole = next(sums)
            lo, hi = next(sums), next(sums)
            if abs(p.whole - (lo + hi)) <= p.tol:
                p.value = lo + hi
                continue
            # tol is halved per level: this deep it is below rounding
            if p.b - p.a < budget.floor:
                raise ConvergenceError(f"quadrature panel of width "
                                       f"{p.b - p.a:.3g} has not converged")
            if budget.left <= 0:
                raise ConvergenceError(
                    "quadrature subdivision budget exhausted")
            budget.left -= 1
            mid = 0.5 * (p.a + p.b)
            p.halves = (_Panel(p.seg, p.a, mid, p.tol / 2, lo),
                        _Panel(p.seg, mid, p.b, p.tol / 2, hi))
            made += p.halves
        stack += reversed(made[mark:])  # the first left half on top
    for p in reversed(made):
        if p.halves:
            p.value = p.halves[0].value + p.halves[1].value
    # a numpy scalar: the winding integral keeps numpy's complex division
    return sum((p.value for p in roots), np.complex128(0))


def _check_proximity(ev, contour: Contour, samples: int = 256):
    try:
        dets = np.linalg.det(ev.eval_many(contour.boundary_points(samples)))
    except AnalysisError as exc:  # a pole or an overflow on the boundary
        raise ContourError(f"contour cannot be sampled: {exc}") from exc
    dets = np.hypot(dets.real, dets.imag)
    top, low = dets.max(), dets.min()
    if top == 0.0 or low <= 1e-10 * top:
        # det M may vanish everywhere, not just near the contour
        with contextlib.suppress(AmbiguousRankError):
            rank, n = nrank_sampled(ev), ev.shape[0]
            if rank < n:
                raise SingularMatrixError(
                    f"matrix is singular: normal rank {rank} < {n}")
        raise ContourError(
            "contour passes too close to a zero or pole "
            f"(min/max boundary |det| = {low:.3g}/{top:.3g})")


def _cmul(a, b):
    """a * b elementwise by CPython's complex product; numpy's own may
    fuse multiply-adds and round differently."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _log_deriv_trace(ev):
    """Tr(M^{-1} M') at a vector of nodes."""
    def g(zs):
        x = np.linalg.solve(*ev.eval_pair_many(zs))
        return np.trace(x, axis1=1, axis2=2)

    return g


class _Counted:
    """Counts the nodes at which a matrix and its derivative are
    evaluated."""

    __slots__ = ("ev", "shape", "values", "derivs")

    def __init__(self, ev):
        self.ev, self.shape = ev, ev.shape
        self.values = self.derivs = 0

    def eval_many(self, zs):
        self.values += len(zs)
        return self.ev.eval_many(zs)

    def eval_pair_many(self, zs):
        self.values += len(zs)
        self.derivs += len(zs)
        return self.ev.eval_pair_many(zs)


def count_zeros_minus_poles(M, contour: Contour,
                            samples: int = 256) -> CountResult:
    """(1/2πi) ∮ Tr(M^{-1} M') dz, snapped to the nearest integer; the
    contour is first checked at `samples` >= 1 boundary points, and a
    failed check on a matrix whose sampled normal rank is short of its
    size raises SingularMatrixError."""
    ev = _Counted(as_evaluable(M))
    if ev.shape[0] != ev.shape[1]:
        raise InputError("argument principle needs a square matrix")
    if samples < 1:
        raise InputError(f"samples must be at least 1, not {samples}")
    _check_proximity(ev, contour, samples=samples)
    budget = _SubdivBudget(contour.max_subdiv)
    splits = budget.left
    raw = _integrate(_log_deriv_trace(ev), contour.segments(), contour.tol,
                     budget) / (2j * math.pi)
    nearest = round(raw.real)
    residual = abs(raw - nearest)
    if residual >= 0.25:
        raise ConvergenceError(
            f"winding integral {raw:.6g} is not close to an integer")
    return CountResult(n_minus_p=int(nearest), raw_integral=raw,
                       residual=residual, evals=(ev.values, ev.derivs),
                       subdivisions=splits - budget.left)


# ---------------------------------------------------------------------------
# root localization


@dataclass
class _Box:
    x0: float
    x1: float
    y0: float
    y1: float

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    @property
    def diameter(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    def contains(self, z: complex) -> bool:
        return self.x0 <= z.real <= self.x1 and self.y0 <= z.imag <= self.y1


def _box_contour(box: _Box, tol: float) -> Contour:
    return Contour.rectangle(box.x0, box.x1, box.y0, box.y1, tol=tol)


def _count_in_box(ev, box: _Box, tol: float) -> int:
    return count_zeros_minus_poles(ev, _box_contour(box, tol)).n_minus_p


def _newton(ev, start: complex, mult: int, tol: float, max_iter: int = 80):
    g = _log_deriv_trace(ev)
    z = start
    for _ in range(max_iter):
        try:
            gz = complex(g([z])[0])
        except (np.linalg.LinAlgError, AnalysisError):
            return None
        if gz == 0:
            return None
        step = mult / gz
        z = z - step
        if abs(step) < tol:
            return z
    return None


def _verify_cluster(ev, z: complex, mult: int, tol: float,
                    radius: float) -> bool:
    for scale in (1.0, 1.7, 0.6):
        try:
            c = Contour.circle(z, radius * scale, tol=tol)
            return count_zeros_minus_poles(ev, c, samples=64).n_minus_p == mult
        except (ContourError, ConvergenceError):
            continue
    return False


def _split_box(ev, box: _Box, tol: float):
    wide = (box.x1 - box.x0) >= (box.y1 - box.y0)
    # nudge the split line away from roots sitting on it
    for frac in (0.5, 0.53, 0.47, 0.58, 0.42, 0.51, 0.49):
        if wide:
            xm = box.x0 + frac * (box.x1 - box.x0)
            lo = _Box(box.x0, xm, box.y0, box.y1)
            hi = _Box(xm, box.x1, box.y0, box.y1)
        else:
            ym = box.y0 + frac * (box.y1 - box.y0)
            lo = _Box(box.x0, box.x1, box.y0, ym)
            hi = _Box(box.x0, box.x1, ym, box.y1)
        try:
            nlo = _count_in_box(ev, lo, tol)
            nhi = _count_in_box(ev, hi, tol)
            return lo, nlo, hi, nhi
        except (ContourError, ConvergenceError):
            continue
    raise ContourError("could not find a clean subdivision line")


def roots_in_region(f, box, tol: float = 1e-8) -> list:
    """All zeros of det f inside the rectangle, with multiplicities.

    `box` is (x0, x1, y0, y1). The matrix must be regular and pole-free in
    the region; multiplicities always sum to the region count.
    """
    ev = as_evaluable(f)
    try:
        root_box = _Box(*(float(v) for v in box))
    except (TypeError, ValueError):
        raise InputError(f"a box is four numbers x0, x1, y0, y1, not "
                         f"{box!r}") from None
    min_cell = max(tol * 100, 1e-10)
    total = _count_in_box(ev, root_box, tol)
    if total < 0:
        raise InputError("region contains poles; root search needs a "
                         "pole-free matrix")
    found = []
    _locate(ev, root_box, total, tol, min_cell, found)
    got = sum(m for _, m in found)
    if got != total:
        raise AnalysisError(
            f"located multiplicities sum to {got}, region count is {total}")
    return sorted(found, key=lambda rm: (rm[0].real, rm[0].imag))


def _locate(ev, box: _Box, count: int, tol: float, min_cell: float, out):
    if count == 0:
        return
    # try a direct (cluster-aware) Newton hit before subdividing
    radius = min(box.diameter / 3, max(10 * tol, min_cell))
    z = _newton(ev, box.center, count, tol)
    if z is not None and box.contains(z) and _verify_cluster(
            ev, z, count, tol, radius):
        out.append((z, count))
        return
    if box.diameter <= min_cell:
        # unresolved cluster at the floor: report at cell center
        z = _newton(ev, box.center, count, tol) or box.center
        out.append((z, count))
        return
    lo, nlo, hi, nhi = _split_box(ev, box, tol)
    if nlo + nhi != count:
        raise AnalysisError("subdivision counts do not add up")
    _locate(ev, lo, nlo, tol, min_cell, out)
    _locate(ev, hi, nhi, tol, min_cell, out)


# ---------------------------------------------------------------------------
# local indices via block-Toeplitz ranks


def local_indices(M, point, kmax: int = 12,
                  pole_order: int | None = None) -> IndexTuple:
    """Pole-zero index of M at the point from numeric Taylor data.

    Multiplies by (z - point)^s to clear a pole of order s, Taylor-expands
    on the circle of radius 0.1 about the point, and reads partial
    multiplicities off the rank increments of nested block-Toeplitz
    coefficient matrices. Their number, the normal rank of M, is read from
    16 of the same samples by nrank_sampled's rule: the rank drops only at
    isolated points, and the circle must already avoid the poles of M.
    Numerically a zero of high order at the point can still hide the full
    rank on the circle, so a rank below min(rows, cols) there is taken
    from nrank_sampled's own points instead. The point must be finite; M
    without rows or columns has no indices. kmax runs from 0 to 64: at 64
    the routine takes 512 samples and its largest Toeplitz block is
    65*rows x 65*cols.
    """
    lam = complex(point.value if isinstance(point, RootHandle) else point)
    if not cmath.isfinite(lam):
        raise InputError(f"local indices need a finite point, not {lam}")
    if not 0 <= kmax <= 64:
        raise InputError(f"kmax must be from 0 to 64, not {kmax}")
    ev = as_evaluable(M)
    rows, cols = ev.shape
    if not (rows and cols):
        return IndexTuple(point, ())
    if pole_order is None:
        pole_order = _default_pole_order(M, lam)
    s = int(pole_order)
    nsamp = 1 << max(8, (kmax + 1).bit_length() + 2)
    ws, wss = _circle_powers(nsamp, s)
    vals = ev.eval_many(lam + 0.1 * ws)
    r = 0
    with contextlib.suppress(AmbiguousRankError):
        r = _max_rank(vals[::nsamp // 16])
    if r < min(rows, cols):
        # near a zero of high order the circle's singular values shrink
        # like 0.1^order and can hide the full rank: sample elsewhere
        r = nrank_sampled(ev)
    # coefficients of (rho w)^s N(lam + rho w) in w: same local exponents,
    # numerically balanced
    coeffs = np.fft.fft(vals * wss[:, None, None], axis=0) / nsamp
    # rank thresholds are relative to the largest coefficient overall, so
    # Toeplitz blocks made of pure truncation noise stay rank zero
    scale = float(np.abs(coeffs).max())
    alphas = []
    prev_rank = 0
    for k in range(kmax + 1):
        t = np.zeros(((k + 1) * rows, (k + 1) * cols), dtype=complex)
        for i in range(k + 1):
            for j in range(i + 1):
                t[i * rows:(i + 1) * rows, j * cols:(j + 1) * cols] = \
                    coeffs[i - j]
        svals = np.linalg.svd(t, compute_uv=False)
        rk = int(_band_ranks(svals[None], np.array([scale]))[0])
        if rk < 0:
            raise AmbiguousRankError(f"a singular value of {list(svals)} "
                                     "falls in the ambiguity band")
        delta = rk - prev_rank
        prev_rank = rk
        while len(alphas) < delta:
            alphas.append(k)
        if len(alphas) == r:
            return IndexTuple(point, tuple(a - s for a in alphas))
    raise ConvergenceError(
        f"kmax = {kmax} too small: found {len(alphas)} of {r} indices")


@functools.lru_cache(maxsize=32)
def _circle_powers(nsamp: int, s: int) -> tuple:
    """The nodes w = exp(2 pi i k / nsamp) and their scalar powers w^s
    (numpy's array power rounds differently), read-only."""
    ws = np.exp(1j * (2 * math.pi * np.arange(nsamp) / nsamp))
    wss = np.array([w ** s for w in ws])
    ws.flags.writeable = wss.flags.writeable = False
    return ws, wss


def _default_pole_order(M, lam: complex) -> int:
    """For a RatMat, the largest multiplicity in an entry denominator of
    the rational point nearest lam (denominators up to 10^12); else 0.
    A denominator that does not vanish there but is numerically zero at
    lam has a root there that no rational point names, so the pole order
    must be given: that raises InputError."""
    if not isinstance(M, RatMat):
        return 0
    re = Fraction(lam.real).limit_denominator(10 ** 12)
    im = Fraction(lam.imag).limit_denominator(10 ** 12)
    ex = GaussRat(QQ(re.numerator, re.denominator),
                  QQ(im.numerator, im.denominator))
    dens = {e.den for row in M.entries for e in row if not e.den.is_constant}
    order = 0
    for p in dens:
        k = p.multiplicity_at(ex)
        if not k and _numerically_zero(p, lam):
            raise InputError(
                f"an entry denominator is numerically zero at {lam} but "
                "vanishes at no nearby rational point; give pole_order")
        order = max(order, k)
    return order


def _numerically_zero(p: Poly, lam: complex) -> bool:
    """|p(lam)| at most 1e-8 (about the square root of the unit roundoff)
    times the sum of |c_k| |lam|^k, both in one Horner pass."""
    val, size, r = 0j, 0.0, abs(lam)
    for x in reversed(p.nums):
        c = x / p.den
        val = val * lam + c
        size = size * r + abs(c)
    return abs(val) <= 1e-8 * size


# ---------------------------------------------------------------------------
# regional coprimeness


def regional_coprime(A, B, box, side: str = "right", tol: float = 1e-8):
    """Pointwise full-rank coprimeness over a rectangle.

    Returns (True, []) or (False, offending points). Candidate points are
    zeros of a random square compression of the stacked matrix, each
    re-checked by numeric rank of the stack itself. A stack whose sampled
    normal rank is below n has a rank drop everywhere: RankDeficientError.
    """
    a, b = as_evaluable(A), as_evaluable(B)
    if side not in ("right", "left"):
        raise InputError(f"unknown side {side!r}")
    i = int(side == "right")  # the axis of the shape that A and B share
    if a.shape[i] != b.shape[i]:
        raise InputError(f"{side} coprimeness: {('row', 'column')[i]} "
                         "counts differ")
    n, big = a.shape[i], a.shape[1 - i] + b.shape[1 - i]

    def join(x, y):  # [A; B], or [A, B] transposed
        s = np.concatenate([x, y], axis=2 - i)
        return s if i else s.swapaxes(1, 2)

    def stack(zs):
        return join(a.eval_many(zs), b.eval_many(zs))

    class _Compressed:
        """g @ stack, with its derivative."""

        def __init__(self, g):
            self.g, self.shape = g, (len(g), n)

        def eval_many(self, zs):
            return self.g @ stack(zs)

        def eval_pair_many(self, zs):
            (av, ad), (bv, bd) = a.eval_pair_many(zs), b.eval_pair_many(zs)
            return self.g @ join(av, bv), self.g @ join(ad, bd)

    k = nrank_sampled(_Compressed(np.eye(big)))
    if k < n:
        raise RankDeficientError(f"the stack has normal rank {k} < {n}")
    rng = np.random.default_rng(911375821)
    for _ in range(6):
        g = rng.standard_normal((n, big)) + 1j * rng.standard_normal((n, big))
        try:
            candidates = roots_in_region(_Compressed(g), box, tol=tol)
        except (ContourError, ConvergenceError, AnalysisError):
            continue
        zs = [z for z, _ in candidates]
        # each rank relative to the stack's own largest singular value at
        # that point, not equilibrated: a row vanishing there is the drop
        svals = np.linalg.svd(stack(zs), compute_uv=False)
        ranks = _band_ranks(svals, svals.max(axis=1, initial=0.0))
        if (ranks < 0).any():
            raise AmbiguousRankError(f"the rank of the stack at "
                                     f"{zs[ranks.argmin()]} is ambiguous")
        bad = [z for z, rk in zip(zs, ranks) if rk < n]
        return (not bad), bad
    raise AnalysisError("could not localize rank-drop candidates")


# ---------------------------------------------------------------------------
# time-delay systems


@dataclass(frozen=True)
class TdsData:
    """Data of an LTI time-delay system: constant matrices with exact
    nonnegative delays, orderings per the state/input/output conventions.
    n is the width of the B terms, else of the D terms, and m the height
    of the C terms, else of the D terms; every term has its block's shape."""

    A0: tuple
    A_delayed: tuple = ()   # ((matrix, tau), ...) with 0 < tau_1 < ...
    B_terms: tuple = ()     # ((matrix, t), ...) with 0 <= t_1 < ...
    C_terms: tuple = ()
    D_terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "A0",
                           tuple(tuple(QQ(x) for x in row) for row in self.A0))
        for name, strict_pos in (("A_delayed", True), ("B_terms", False),
                                 ("C_terms", False), ("D_terms", False)):
            norm = []
            prev = None
            for mat, tau in getattr(self, name):
                tau = QQ(tau)
                if strict_pos and tau <= 0:
                    raise InputError(f"{name}: delays must be positive")
                if tau < 0:
                    raise InputError(f"{name}: delays must be nonnegative")
                if prev is not None and tau <= prev:
                    raise InputError(f"{name}: delays must strictly increase")
                prev = tau
                norm.append((tuple(tuple(QQ(x) for x in row) for row in mat),
                             tau))
            object.__setattr__(self, name, tuple(norm))
        r, m, n = self.state_dim, self.output_dim, self.input_dim
        if any(len(row) != r for row in self.A0):
            raise InputError("state matrix A0 must be square")
        for name, rows, cols in (("A_delayed", r, r), ("B_terms", r, n),
                                 ("C_terms", m, r), ("D_terms", m, n)):
            for mat, tau in getattr(self, name):
                if len(mat) != rows or any(len(row) != cols for row in mat):
                    raise InputError(f"{name}: the matrix at delay {tau} is "
                                     f"not {rows} x {cols}")

    @property
    def state_dim(self) -> int:
        return len(self.A0)

    @property
    def input_dim(self) -> int:
        terms = self.B_terms or self.D_terms
        return len(terms[0][0][0]) if terms and terms[0][0] else 0

    @property
    def output_dim(self) -> int:
        terms = self.C_terms or self.D_terms
        return len(terms[0][0]) if terms else 0


def _qp_grid(terms, rows, cols) -> QuasiPolyMat:
    """The rows x cols matrix sum of M e^{-tau z} over the terms (M, tau),
    each entry built once from its terms."""
    return QuasiPolyMat._of(
        [[QuasiPolyEntry([(mat[i][j], tau) for mat, tau in terms])
          for j in range(cols)] for i in range(rows)], cols)


def tds_state_block(data: TdsData) -> QuasiPolyMat:
    """A(z) = zI - A0 - sum A_j e^{-tau_j z}."""
    z = Poly.z()
    lead = [[(z if i == j else Poly.zero()) - Poly.const(x)
             for j, x in enumerate(row)] for i, row in enumerate(data.A0)]
    return _qp_grid([(lead, QQ(0))]
                    + [([[-x for x in row] for row in mat], tau)
                       for mat, tau in data.A_delayed],
                    data.state_dim, data.state_dim)


def build_tds_amd(data: TdsData):
    """Assemble the quasipoly AMD [[A, B], [-C, D]] of a TDS."""
    from .sysmat import Amd

    r, n, m = data.state_dim, data.input_dim, data.output_dim
    if not (data.B_terms and data.C_terms and n and m):
        raise InputError("TDS needs at least one input and one output term")
    return Amd(A=tds_state_block(data), B=_qp_grid(data.B_terms, r, n),
               C=_qp_grid(data.C_terms, m, r), D=_qp_grid(data.D_terms, m, n))


def tds_pole_count(data: TdsData, contour: Contour) -> CountResult:
    """Characteristic roots of the TDS inside the contour: argument
    principle on the (holomorphic, hence pole-free) state block."""
    return count_zeros_minus_poles(tds_state_block(data), contour)
