"""Polynomial-matrix algorithms: Smith and Hermite forms, normal rank,
gcrd/gcld, coprimeness certificates and Bezout equations.

All computations are exact over Gaussian-rational coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg_exact
from .errors import (
    AnalysisError,
    InputError,
    NoSolutionError,
    NotCoprimeError,
    RankDeficientError,
    SingularMatrixError,
)
from .exactalg import Poly, RatFn

__all__ = [
    "PolyMat",
    "SmithDecomposition",
    "BezoutCertificate",
    "GcrdResult",
    "smith_form",
    "nrank",
    "gcrd",
    "gcld",
    "are_right_coprime",
    "are_left_coprime",
    "coprime_completion",
    "solve_bezout",
    "is_unimodular",
    "det",
    "inverse_unimodular",
    "hermite_form",
]


class PolyMat(linalg_exact.DenseMat):
    """Dense matrix of polynomials, stored as a tuple of row tuples."""

    __slots__ = linalg_exact.DenseMat.SLOTS
    entry = Poly
    kind = "polynomial"

    def to_ratfn_grid(self):
        return [[RatFn(e) for e in row] for row in self.entries]


@dataclass(frozen=True)
class SmithDecomposition:
    """A = E @ S @ F with E, F unimodular and S the diagonal canonical form."""

    E: PolyMat
    S: PolyMat
    F: PolyMat
    invariant_factors: tuple
    nrank: int


@dataclass(frozen=True)
class BezoutCertificate:
    """Witness X @ A + Y @ B = rhs for a coprimeness or divisor claim."""

    X: PolyMat
    Y: PolyMat


@dataclass(frozen=True)
class GcrdResult:
    """gcrd D with cofactors A = Q1 @ D, B = Q2 @ D and X @ A + Y @ B = D."""

    D: PolyMat
    Q1: PolyMat
    Q2: PolyMat
    X: PolyMat
    Y: PolyMat

    @property
    def certificate(self) -> BezoutCertificate:
        return BezoutCertificate(self.X, self.Y)


def det(A: PolyMat) -> Poly:
    """Exact determinant of a square polynomial matrix."""
    if A.rows != A.cols:
        raise InputError("determinant of a non-square matrix")
    d = linalg_exact.det(A.to_ratfn_grid())
    return d.to_poly()


def nrank(A: PolyMat) -> int:
    """Normal rank: rank over the rational-function field."""
    return linalg_exact.rank(A.to_ratfn_grid())


def is_unimodular(A: PolyMat) -> bool:
    """True iff A is square with constant nonzero determinant."""
    if A.rows != A.cols:
        raise InputError("unimodularity is defined for square matrices")
    d = det(A)
    return (not d.is_zero) and d.is_constant


def inverse_unimodular(A: PolyMat) -> PolyMat:
    """Exact polynomial inverse of a unimodular matrix."""
    inv = linalg_exact.inverse(A.to_ratfn_grid())
    try:
        return PolyMat([[e.to_poly() for e in row] for row in inv])
    except InputError:
        raise SingularMatrixError("matrix is not unimodular") from None


def _pick_pivot(s, k, rows, cols):
    best = None
    for i in range(k, rows):
        for j in range(k, cols):
            e = s[i][j]
            if e.is_zero:
                continue
            if best is None or e.degree < best[0]:
                best = (e.degree, i, j)
    return best


def smith_form(A: PolyMat) -> SmithDecomposition:
    """Diagonalize A = E @ S @ F by elementary row/column operations.

    Pivots are chosen as a nonzero entry of minimal degree (ties broken by
    lowest row, then column); invariant factors come out monic and satisfy
    the divisibility chain.
    """
    m, n = A.rows, A.cols
    s = [list(row) for row in A.entries]
    e = [list(row) for row in PolyMat.identity(m).entries]
    f = [list(row) for row in PolyMat.identity(n).entries]

    # Maintain A = E @ S @ F: each op on S updates E or F with its inverse.
    def row_sub(i, j, q):  # S: row_i -= q*row_j ; E: col_j += q*col_i
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]
        for t in range(m):
            e[t][j] = e[t][j] + q * e[t][i]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        for t in range(m):
            e[t][i], e[t][j] = e[t][j], e[t][i]

    def col_sub(j, i, q):  # S: col_j -= q*col_i ; F: row_i += q*row_j
        for t in range(m):
            s[t][j] = s[t][j] - q * s[t][i]
        f[i] = [a + q * b for a, b in zip(f[i], f[j])]

    def col_swap(i, j):
        for t in range(m):
            s[t][i], s[t][j] = s[t][j], s[t][i]
        f[i], f[j] = f[j], f[i]

    def row_scale(i, c):  # S: row_i *= c ; E: col_i /= c
        s[i] = [a.scale(c) for a in s[i]]
        inv = c.inverse()
        for t in range(m):
            e[t][i] = e[t][i].scale(inv)

    k = 0
    while k < min(m, n):
        if _pick_pivot(s, k, m, n) is None:
            break
        while True:
            deg, pi, pj = _pick_pivot(s, k, m, n)
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            dirty = False
            for i in range(k + 1, m):
                if not s[i][k].is_zero:
                    q, r = divmod(s[i][k], s[k][k])
                    row_sub(i, k, q)
                    if not r.is_zero:
                        dirty = True
            for j in range(k + 1, n):
                if not s[k][j].is_zero:
                    q, r = divmod(s[k][j], s[k][k])
                    col_sub(j, k, q)
                    if not r.is_zero:
                        dirty = True
            if dirty:
                continue
            # pivot now divides its row and column residues are zero;
            # enforce divisibility of the trailing submatrix
            witness = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if not (s[i][j] % s[k][k]).is_zero:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            s[k] = [a + b for a, b in zip(s[k], s[witness])]
            for t in range(m):
                e[t][witness] = e[t][witness] - e[t][k]
        lead = s[k][k].leading()
        if lead != Poly.one().leading():
            row_scale(k, lead.inverse())
        k += 1

    factors = tuple(s[j][j] for j in range(k))
    return SmithDecomposition(
        E=PolyMat(e), S=PolyMat(s), F=PolyMat(f),
        invariant_factors=factors, nrank=k,
    )


def hermite_form(D: PolyMat) -> tuple[PolyMat, PolyMat]:
    """Row Hermite form of a regular square matrix: H = U @ D with U
    unimodular, H upper triangular with monic diagonal and off-diagonal
    entries of degree below the diagonal entry in their column."""
    n = D.rows
    if D.cols != n:
        raise InputError("hermite_form expects a square matrix")
    h = [list(row) for row in D.entries]
    u = [list(row) for row in PolyMat.identity(n).entries]

    def row_sub(i, j, q):
        h[i] = [a - q * b for a, b in zip(h[i], h[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def row_swap(i, j):
        h[i], h[j] = h[j], h[i]
        u[i], u[j] = u[j], u[i]

    def row_scale(i, c):
        h[i] = [a.scale(c) for a in h[i]]
        u[i] = [a.scale(c) for a in u[i]]

    for j in range(n):
        while True:
            nz = [i for i in range(j, n) if not h[i][j].is_zero]
            if not nz:
                raise SingularMatrixError("hermite_form of a singular matrix")
            piv = min(nz, key=lambda i: (h[i][j].degree, i))
            if piv != j:
                row_swap(j, piv)
            done = True
            for i in range(j + 1, n):
                if not h[i][j].is_zero:
                    q, r = divmod(h[i][j], h[j][j])
                    row_sub(i, j, q)
                    if not r.is_zero:
                        done = False
            if done:
                break
        lead = h[j][j].leading()
        if not h[j][j].is_monic:
            row_scale(j, lead.inverse())
        for i in range(j):
            if h[i][j].degree >= h[j][j].degree:
                q, _ = divmod(h[i][j], h[j][j])
                row_sub(i, j, q)
    return PolyMat(h), PolyMat(u)


def gcrd(A: PolyMat, B: PolyMat) -> GcrdResult:
    """Greatest common right divisor of A and B via the Smith form of the
    stacked matrix, canonicalized to upper-triangular Hermite form."""
    if A.cols != B.cols:
        raise InputError("gcrd: column counts differ")
    n = A.cols
    w = A.vstack(B)
    dec = smith_form(w)
    if dec.nrank < n:
        raise RankDeficientError(
            f"gcrd undefined: stacked matrix has normal rank {dec.nrank} < {n}")
    d0 = dec.S.submatrix(slice(0, n), slice(None)) @ dec.F
    q = dec.E.submatrix(slice(None), slice(0, n))
    q1 = q.submatrix(slice(0, A.rows), slice(None))
    q2 = q.submatrix(slice(A.rows, None), slice(None))
    einv = inverse_unimodular(dec.E)
    x = einv.submatrix(slice(0, n), slice(0, A.rows))
    y = einv.submatrix(slice(0, n), slice(A.rows, None))
    h, u = hermite_form(d0)
    uinv = inverse_unimodular(u)
    return GcrdResult(D=h, Q1=q1 @ uinv, Q2=q2 @ uinv, X=u @ x, Y=u @ y)


def gcld(A: PolyMat, B: PolyMat) -> GcrdResult:
    """Greatest common left divisor, by transposition duality.

    Returns D, Q1, Q2 with A = D @ Q1 and B = D @ Q2, plus the certificate
    A @ X + B @ Y = D.
    """
    if A.rows != B.rows:
        raise InputError("gcld: row counts differ")
    res = gcrd(A.transpose(), B.transpose())
    return GcrdResult(
        D=res.D.transpose(),
        Q1=res.Q1.transpose(),
        Q2=res.Q2.transpose(),
        X=res.X.transpose(),
        Y=res.Y.transpose(),
    )


def are_right_coprime(A: PolyMat, B: PolyMat):
    """Coprimeness test via the Smith form of the stacked matrix.

    Returns (True, BezoutCertificate with X @ A + Y @ B = I) or (False, None).
    """
    if A.cols != B.cols:
        raise InputError("coprimeness: column counts differ")
    n = A.cols
    dec = smith_form(A.vstack(B))
    if dec.nrank < n or any(not p.is_constant for p in dec.invariant_factors):
        return False, None
    res = gcrd(A, B)
    if res.D != PolyMat.identity(n):
        raise AnalysisError("gcrd of a coprime pair is not the identity")
    return True, BezoutCertificate(res.X, res.Y)


def are_left_coprime(A: PolyMat, B: PolyMat):
    """Dual test; certificate satisfies A @ X + B @ Y = I."""
    ok, cert = are_right_coprime(A.transpose(), B.transpose())
    if not ok:
        return False, None
    return True, BezoutCertificate(cert.X.transpose(), cert.Y.transpose())


def coprime_completion(A: PolyMat, B: PolyMat) -> tuple[PolyMat, PolyMat]:
    """Blocks C, D such that [[A, C], [B, D]] is unimodular, for right
    coprime A (m x n) and B (p x n)."""
    if A.cols != B.cols:
        raise InputError("completion: column counts differ")
    n = A.cols
    m, p = A.rows, B.rows
    dec = smith_form(A.vstack(B))
    if dec.nrank < n or any(not f.is_constant for f in dec.invariant_factors):
        raise NotCoprimeError("inputs are not right coprime")
    # stacked = E @ [F; 0]; appending the last m+p-n columns of E yields
    # E @ [[F, 0], [0, I]] which is unimodular
    tail = dec.E.submatrix(slice(None), slice(n, None))
    return (tail.submatrix(slice(0, m), slice(None)),
            tail.submatrix(slice(m, None), slice(None)))


def solve_bezout(A: PolyMat, B: PolyMat, C: PolyMat):
    """Solve X @ A + Y @ B = C; solvable iff a gcrd of (A, B) right-divides
    C. Raises NoSolutionError carrying the obstructing gcrd otherwise."""
    if not (A.cols == B.cols == C.cols):
        raise InputError("bezout: column counts differ")
    res = gcrd(A, B)
    quotient = _right_quotient(C, res.D)
    if quotient is None:
        raise NoSolutionError("gcrd of (A, B) does not right-divide C",
                              gcrd=res.D)
    return quotient @ res.X, quotient @ res.Y


def _right_quotient(C: PolyMat, D: PolyMat):
    """R with C = R @ D if one exists over the polynomials, else None."""
    dinv = linalg_exact.inverse(D.to_ratfn_grid())
    r = linalg_exact.matmul(C.to_ratfn_grid(), dinv)
    out = []
    for row in r:
        new = []
        for e in row:
            if not e.is_polynomial:
                return None
            new.append(e.to_poly())
        out.append(new)
    return PolyMat(out)


def left_quotient(C: PolyMat, D: PolyMat):
    """R with C = D @ R if one exists over the polynomials, else None."""
    r = _right_quotient(C.transpose(), D.transpose())
    return None if r is None else r.transpose()


def right_quotient(C: PolyMat, D: PolyMat):
    return _right_quotient(C, D)
