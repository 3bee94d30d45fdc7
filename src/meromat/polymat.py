"""Polynomial-matrix algorithms: Smith and Hermite forms, normal rank,
gcrd/gcld, coprimeness certificates and Bezout equations.

All computations are exact over rational coefficients. One row
reduction to Hermite echelon form answers every query but the Smith form.
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
from .exactalg import QQ, Poly

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

    @staticmethod
    def _split(e):
        return ((e, None),), None


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


def _echelon(M: PolyMat):
    """Row Hermite echelon form H = U @ M, U unimodular, of any shape and rank.

    Row k of H has a monic pivot in column pivots[k], zeros below it and
    entries of lower degree above it; rows past the last pivot are zero.
    Returns (H, U, pivots, det U), det U being a nonzero constant. Queries
    read it kept on M, `M._keep("echelon", _echelon)`, and only len(pivots)."""
    m = M.rows
    h = [list(row) for row in M.entries]
    u = [list(row) for row in PolyMat.identity(m).entries]
    pivots, det_u = [], QQ(1)

    def row_sub(i, j, q):
        h[i] = [a - q * b for a, b in zip(h[i], h[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    for j in range(M.cols):
        k = len(pivots)
        rest = [i for i in range(k, m) if not h[i][j].is_zero]
        if not rest:
            continue
        # Euclid down the column until row k holds its only nonzero entry
        while rest:
            piv = min(rest, key=lambda i: (h[i][j].degree, i))
            if piv != k:
                h[k], h[piv] = h[piv], h[k]
                u[k], u[piv] = u[piv], u[k]
                det_u = -det_u
            for i in range(k + 1, m):
                if not h[i][j].is_zero:
                    row_sub(i, k, h[i][j] // h[k][j])
            rest = [i for i in range(k + 1, m) if not h[i][j].is_zero]
        if not h[k][j].is_monic:
            inv = 1 / h[k][j].leading().re
            h[k] = [a.scale(inv) for a in h[k]]
            u[k] = [a.scale(inv) for a in u[k]]
            det_u = det_u * inv
        for i in range(k):
            if h[i][j].degree >= h[k][j].degree:
                row_sub(i, k, h[i][j] // h[k][j])
        pivots.append(j)
    return PolyMat(h, M.cols), PolyMat(u), pivots, det_u


def det(A: PolyMat) -> Poly:
    """Exact determinant of a square polynomial matrix."""
    if A.rows != A.cols:
        raise InputError("determinant of a non-square matrix")
    # det H is 0 when a pivot is missing: the last row of H is then zero
    h, _, _, det_u = A._keep("echelon", _echelon)
    d = Poly.const(1 / det_u)
    for i in range(A.rows):
        d = d * h[i, i]
    return d


def nrank(A: PolyMat) -> int:
    """Normal rank: rank over the rational-function field."""
    return len(A._keep("echelon", _echelon)[2])


def is_unimodular(A: PolyMat) -> bool:
    """True iff A is square with constant nonzero determinant."""
    if A.rows != A.cols:
        raise InputError("unimodularity is defined for square matrices")
    return A._keep("echelon", _echelon)[0] == PolyMat.identity(A.rows)


def inverse_unimodular(A: PolyMat) -> PolyMat:
    """Exact polynomial inverse of a unimodular matrix."""
    h, u = hermite_form(A)
    if h != PolyMat.identity(A.rows):
        raise SingularMatrixError("matrix is not unimodular")
    return u


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
    the divisibility chain. The decomposition is kept on A.
    """
    return A._keep("smith", _smith)


def _smith(A: PolyMat) -> SmithDecomposition:
    """The elimination of `smith_form`, uncached."""
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
        inv = 1 / c
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
        lead = s[k][k].leading().re
        if lead != 1:
            row_scale(k, 1 / lead)
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
    if D.cols != D.rows:
        raise InputError("hermite_form expects a square matrix")
    h, u, pivots, _ = D._keep("echelon", _echelon)
    if len(pivots) < D.rows:
        raise SingularMatrixError("hermite_form of a singular matrix")
    return h, u


def gcrd(A: PolyMat, B: PolyMat) -> GcrdResult:
    """Greatest common right divisor of A and B, in Hermite form, from one
    row reduction U @ [A; B] = [D; 0]: X and Y are the top rows of U, and
    Q1 and Q2 the leading columns of U^-1."""
    if A.cols != B.cols:
        raise InputError("gcrd: column counts differ")
    n, m = A.cols, A.rows
    h, u, pivots, _ = A.vstack(B)._keep("echelon", _echelon)
    if len(pivots) < n:
        raise RankDeficientError(
            f"gcrd undefined: [A; B] has normal rank {len(pivots)} < {n}")
    q, top = inverse_unimodular(u), slice(0, n)
    return GcrdResult(D=h.submatrix(top, slice(None)),
                      Q1=q.submatrix(slice(0, m), top),
                      Q2=q.submatrix(slice(m, None), top),
                      X=u.submatrix(top, slice(0, m)),
                      Y=u.submatrix(top, slice(m, None)))


def gcld(A: PolyMat, B: PolyMat) -> GcrdResult:
    """Greatest common left divisor, by transposition duality.

    Returns D, Q1, Q2 with A = D @ Q1 and B = D @ Q2, plus the certificate
    A @ X + B @ Y = D.
    """
    if A.rows != B.rows:
        raise InputError("gcld: row counts differ")
    res = gcrd(A.transpose(), B.transpose())
    return GcrdResult(res.D.transpose(), res.Q1.transpose(),
                      res.Q2.transpose(), res.X.transpose(), res.Y.transpose())


def are_right_coprime(A: PolyMat, B: PolyMat):
    """Coprimeness test: A and B are right coprime iff the Hermite echelon
    form of [A; B] is [I; 0].

    Returns (True, BezoutCertificate with X @ A + Y @ B = I) or (False, None).
    """
    if A.cols != B.cols:
        raise InputError("coprimeness: column counts differ")
    n, m = A.cols, A.rows
    h, u, _, _ = A.vstack(B)._keep("echelon", _echelon)
    eye, top = PolyMat.identity(n), slice(0, n)
    if h.submatrix(top, slice(None)) != eye:
        return False, None
    x = u.submatrix(top, slice(0, m))
    y = u.submatrix(top, slice(m, None))
    if x @ A + y @ B != eye:
        raise AnalysisError("Bezout certificate of a coprime pair fails")
    return True, BezoutCertificate(x, y)


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
    quotient = right_quotient(C, res.D)
    if quotient is None:
        raise NoSolutionError("gcrd of (A, B) does not right-divide C",
                              gcrd=res.D)
    return quotient @ res.X, quotient @ res.Y


def right_quotient(C: PolyMat, D: PolyMat):
    """R with C = R @ D if one exists over the polynomials, else None: with
    D = Q1 @ G and C = Q2 @ G for G = gcrd(D, C), it exists iff Q1 is
    unimodular, and then R = Q2 @ Q1^-1."""
    if D.rows != D.cols:
        raise InputError("right_quotient: divisor must be square")
    try:
        res = gcrd(D, C)
    except RankDeficientError:
        raise SingularMatrixError("quotient by a singular matrix") from None
    # raises SingularMatrixError when Q1, and so D, is singular
    h, q1_inv = hermite_form(res.Q1)
    return res.Q2 @ q1_inv if h == PolyMat.identity(D.rows) else None


def left_quotient(C: PolyMat, D: PolyMat):
    """R with C = D @ R if one exists over the polynomials, else None."""
    r = right_quotient(C.transpose(), D.transpose())
    return None if r is None else r.transpose()
