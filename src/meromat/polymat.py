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
    """Row Hermite echelon form H = U @ M, U unimodular, of any shape and
    rank: the Smith pass `_triangularise` carried forward onto U, then each
    pivot row made monic and the entries above its pivot reduced. Row k of
    H has a monic pivot in column pivots[k], zeros below it and entries of
    lower degree above it; rows past the last pivot are zero. Returns (H,
    U, pivots, det U), det U a nonzero constant, kept on M as
    `M._keep("echelon", _echelon)`."""
    h = [list(row) for row in M.entries]
    u = [list(row) for row in PolyMat.identity(M.rows).entries]
    det_u = QQ(-1 if _triangularise(h, u, _fwd) % 2 else 1)
    pivots = [next(j for j, x in enumerate(row) if not x.is_zero)
              for row in h if not all(x.is_zero for x in row)]
    for k, j in enumerate(pivots):
        if not h[k][j].is_monic:
            inv = 1 / h[k][j].leading().re
            h[k] = [a.scale(inv) for a in h[k]]
            u[k] = [a.scale(inv) for a in u[k]]
            det_u = det_u * inv
        for i in range(k):
            if h[i][j].degree >= h[k][j].degree:
                _fwd(h, u, i, k, h[i][j] // h[k][j])
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


def smith_form(A: PolyMat) -> SmithDecomposition:
    """Diagonalize A = E @ S @ F by elementary row/column operations.

    Row and column triangularisation passes alternate until S is diagonal
    (Kannan & Bachem, SIAM J. Comput. 8, 1979); each pass takes its
    pivots by Euclid down one column at a time, the entry of least degree
    first. Where d_i does not divide d_i+1, row i+1 is added to row i and
    the passes resume. Invariant factors come out monic and satisfy the
    divisibility chain. The decomposition is kept on A.
    """
    return A._keep("smith", _smith)


def _sub(a, t, i, k, q):
    """Row i of a -= q * row k; row k of t += q * row i. With a = S and t
    = E^T that is the row operation on S and its inverse on E; with a =
    S^T and t = F, the column operation and its inverse on F."""
    a[i] = [x if y.is_zero else x - q * y for x, y in zip(a[i], a[k])]
    t[k] = [x if y.is_zero else x + q * y for x, y in zip(t[k], t[i])]


def _fwd(a, t, i, k, q):
    """Row i of a -= q * row k, and the same row operation on t = U."""
    a[i] = [x if y.is_zero else x - q * y for x, y in zip(a[i], a[k])]
    t[i] = [x if y.is_zero else x - q * y for x, y in zip(t[i], t[k])]


def _triangularise(a, t, step):
    """Row echelon form of a in place, without reduction above the pivots.
    `step(a, t, i, k, q)` takes q times row k of a from row i and carries
    that over to t, as its inverse (`_sub`, Smith) or as itself (`_fwd`,
    echelon); swaps move rows of a and t together. Returns their number."""
    k = swaps = 0
    for j in range(len(a[0]) if a else 0):
        rest = [i for i in range(k, len(a)) if not a[i][j].is_zero]
        while rest:
            piv = min(rest, key=lambda i: (a[i][j].degree, i))
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                t[k], t[piv] = t[piv], t[k]
                swaps += 1
            for i in range(k + 1, len(a)):
                if not a[i][j].is_zero:
                    step(a, t, i, k, a[i][j] // a[k][j])
            rest = [i for i in range(k + 1, len(a)) if not a[i][j].is_zero]
        if not a[k][j].is_zero:
            k += 1
        if k == len(a):
            break
    return swaps


def _smith(A: PolyMat) -> SmithDecomposition:
    """The elimination of `smith_form`, uncached."""
    m, n = A.rows, A.cols
    s = [list(row) for row in A.entries]
    et = [list(row) for row in PolyMat.identity(m).entries]  # E transposed
    f = [list(row) for row in PolyMat.identity(n).entries]

    def diagonal():
        return all(x.is_zero for i, row in enumerate(s)
                   for j, x in enumerate(row) if i != j)

    while True:
        _triangularise(s, et, _sub)
        if not diagonal():
            st = [[s[i][j] for i in range(m)] for j in range(n)]
            _triangularise(st, f, _sub)
            s = [[st[j][i] for j in range(n)] for i in range(m)]
            if not diagonal():
                continue
        d = [s[k][k] for k in range(min(m, n)) if not s[k][k].is_zero]
        bad = next((i for i in range(len(d) - 1)
                    if not d[i].divides(d[i + 1])), None)
        if bad is None:
            break
        _sub(s, et, bad, bad + 1, Poly.const(-1))
    for k, p in enumerate(d):
        lead = p.leading().re
        s[k] = [x.scale(1 / lead) for x in s[k]]
        et[k] = [x.scale(lead) for x in et[k]]
    e = [[et[j][i] for j in range(m)] for i in range(m)]
    return SmithDecomposition(
        E=PolyMat(e, m), S=PolyMat(s, n), F=PolyMat(f, n),
        invariant_factors=tuple(s[k][k] for k in range(len(d))),
        nrank=len(d),
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


def _right_divide(C: PolyMat, D: PolyMat):
    """Q with C = Q @ D for D upper triangular with monic diagonal, solved
    entry by entry along each row of C; None if a division leaves a
    remainder, in which case no polynomial Q exists."""
    d, rows = D.entries, []
    for c in C.entries:
        q = []
        for j in range(D.cols):
            acc = c[j]
            for i in range(j):
                acc = acc - q[i] * d[i][j]
            qj, r = divmod(acc, d[j][j])
            if not r.is_zero:
                return None
            q.append(qj)
        rows.append(q)
    return PolyMat(rows, D.cols)


def gcrd(A: PolyMat, B: PolyMat) -> GcrdResult:
    """Greatest common right divisor of A and B, in Hermite form, from one
    row reduction U @ [A; B] = [D; 0]: X and Y are the top rows of U, and
    Q1 and Q2 solve [A; B] = [Q1; Q2] @ D by division along the rows."""
    if A.cols != B.cols:
        raise InputError("gcrd: column counts differ")
    n, m = A.cols, A.rows
    stacked = A.vstack(B)
    h, u, pivots, _ = stacked._keep("echelon", _echelon)
    if len(pivots) < n:
        raise RankDeficientError(
            f"gcrd undefined: [A; B] has normal rank {len(pivots)} < {n}")
    top = slice(0, n)
    d = h.submatrix(top, slice(None))
    q = _right_divide(stacked, d)
    return GcrdResult(D=d,
                      Q1=q.submatrix(slice(0, m), slice(None)),
                      Q2=q.submatrix(slice(m, None), slice(None)),
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


def _coprime_echelon(A: PolyMat, B: PolyMat):
    """U and W = U^-1 for right coprime A and B, U @ [A; B] = [I; 0] being
    the kept echelon of the stack; NotCoprimeError for any other pair."""
    if A.cols != B.cols:
        raise InputError("completion: column counts differ")
    h, u, _, _ = A.vstack(B)._keep("echelon", _echelon)
    if h.submatrix(slice(0, A.cols), slice(None)) != PolyMat.identity(A.cols):
        raise NotCoprimeError("inputs are not right coprime")
    return u, inverse_unimodular(u)


def coprime_completion(A: PolyMat, B: PolyMat) -> tuple[PolyMat, PolyMat]:
    """Blocks C, D such that [[A, C], [B, D]] is unimodular, for right
    coprime A (m x n) and B (p x n): the last m+p-n columns of W = U^-1,
    whose first n columns are W @ [I; 0] = [A; B]."""
    _, w = _coprime_echelon(A, B)
    tail = w.submatrix(slice(None), slice(A.cols, None))
    return (tail.submatrix(slice(0, A.rows), slice(None)),
            tail.submatrix(slice(A.rows, None), slice(None)))


def solve_bezout(A: PolyMat, B: PolyMat, C: PolyMat):
    """Solve X @ A + Y @ B = C; solvable iff a gcrd of (A, B) right-divides
    C. Raises NoSolutionError carrying the obstructing gcrd otherwise."""
    if not (A.cols == B.cols == C.cols):
        raise InputError("bezout: column counts differ")
    res = gcrd(A, B)
    quotient = _right_divide(C, res.D)
    if quotient is None:
        raise NoSolutionError("gcrd of (A, B) does not right-divide C",
                              gcrd=res.D)
    return quotient @ res.X, quotient @ res.Y


def right_quotient(C: PolyMat, D: PolyMat):
    """R with C = R @ D if one exists over the polynomials, else None: with
    H = U @ D the Hermite form of D, R = (C @ H^-1) @ U, and C @ H^-1 is
    polynomial iff R is."""
    if not C.cols == D.cols == D.rows:
        raise InputError("right_quotient: D must be square, with as many "
                         "columns as C")
    h, u = hermite_form(D)  # SingularMatrixError when D is singular
    x = _right_divide(C, h)
    return None if x is None else x @ u


def left_quotient(C: PolyMat, D: PolyMat):
    """R with C = D @ R if one exists over the polynomials, else None."""
    r = right_quotient(C.transpose(), D.transpose())
    return None if r is None else r.transpose()
