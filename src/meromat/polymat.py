"""Polynomial-matrix algorithms: Smith and Hermite forms, normal rank,
gcrd/gcld, coprimeness certificates and Bezout equations.

All computations are exact over rational coefficients. One row
reduction to Hermite echelon form, kept on the matrix, answers every
query; the Smith form of a square regular matrix starts from it. The
coprime MFDs of a rational matrix do not use it: they take the Hermite
form of a lattice that holds d I, reduced modulo d (`_hermite_mod`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm

from . import linalg_exact
from .errors import (
    AnalysisError,
    InputError,
    NoSolutionError,
    NotCoprimeError,
    RankDeficientError,
    SingularMatrixError,
)
from .exactalg import QQ, Poly, _addmul, _pdiv, _poly

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

_ZERO, _ONE, _MINUS_ONE = Poly.zero(), Poly.one(), Poly.const(-1)


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
    rank, on integer rows: row i of [M | U] is a list of numerator lists
    over one denominator D_i > 0 (U's part starts as D_i e_i), so Polys are
    built only for H and U. The steps are those of the Smith pass
    `_triangularise`, each by `_reduce`; then each pivot row is made monic
    and the entries above its pivot reduced. Row k of H has a monic pivot
    in column pivots[k], zeros below it and entries of lower degree above
    it; rows past the last pivot are zero. Returns (H, U, pivots, det U),
    det U a nonzero constant, kept on M as `M._keep("echelon", _echelon)`."""
    m, n = M.rows, M.cols
    dens = [lcm(*(x.den for x in row)) for row in M.entries]
    rows = [[[c * (d // x.den) for c in x.nums] for x in row]
            + [[d] if k == i else [] for k in range(m)]
            for i, (row, d) in enumerate(zip(M.entries, dens))]
    k = swaps = 0
    for j in range(n if m else 0):
        rest = [i for i in range(k, m) if rows[i][j]]
        while rest:
            piv = min(rest, key=lambda i: (len(rows[i][j]), i))
            if piv != k:
                rows[k], rows[piv] = rows[piv], rows[k]
                dens[k], dens[piv] = dens[piv], dens[k]
                swaps += 1
            for i in range(k + 1, m):
                if rows[i][j]:
                    _reduce(rows, dens, i, k, j)
            rest = [i for i in range(k + 1, m) if rows[i][j]]
        if rows[k][j]:
            k += 1
            if k == m:
                break
    det_u = QQ(-1 if swaps % 2 else 1)
    pivots = [next(j for j in range(n) if row[j])
              for row in rows if any(row[:n])]
    for k, j in enumerate(pivots):
        lc, d = rows[k][j][-1], dens[k]
        if lc != d:  # times d / lc: the row's numerators over lc
            det_u = det_u * d / lc
            if lc < 0:
                lc, rows[k] = -lc, [[-c for c in x] for x in rows[k]]
            _content(rows, dens, k, lc)
        for i in range(k):
            if len(rows[i][j]) >= len(rows[k][j]):
                _reduce(rows, dens, i, k, j)
    h = [[_poly(x, d) for x in row[:n]] for row, d in zip(rows, dens)]
    u = [[_poly(x, d) for x in row[n:]] for row, d in zip(rows, dens)]
    return PolyMat._of(h, n), PolyMat._of(u, m), pivots, det_u


def _reduce(rows, dens, i, k, j):
    """Row i -= (a // b) * row k on the integer rows of `_echelon`, a and
    b their entries in column j, deg a >= deg b: with s * a = q' * b + r
    (`_pdiv`), row i becomes (s * row i - q' * row k) / (s * D_i)."""
    a, b, sign = rows[i][j], rows[k][j], -1
    if b[-1] < 0:
        b, sign = [-c for c in b], 1
    q = [0] * (len(a) - len(b) + 1)
    r, s = _pdiv(a, b, q)
    row = [_addmul(x, s, q, sign, y) if y else x if s == 1 else
           [c * s for c in x] for x, y in zip(rows[i], rows[k])]
    while r and not r[-1]:
        r.pop()
    row[j] = r
    rows[i] = row
    _content(rows, dens, i, s * dens[i])


def _content(rows, dens, i, d):
    """Row i, whose numerators now stand over d, divided by its content
    gcd(d, numerators), with one gcd for the whole row."""
    g = gcd(d, *chain.from_iterable(rows[i]))
    if g != 1:
        rows[i] = [[c // g for c in x] for x in rows[i]]
    dens[i] = d // g


def _hermite_mod(A: PolyMat, d: Poly) -> PolyMat:
    """The row Hermite form G of the lattice L spanned by the rows of
    [A; d I], for a nonzero monic d: n x n, upper triangular with a monic
    diagonal that divides d, entries above a pivot of lower degree. This
    is the modular method of Domich, Kannan & Trotter (Math. Oper. Res.
    12, 1987): L holds d e_k for every k, so any entry may be reduced
    modulo d. For each column j a row d e_j joins the rows nonzero in
    column j, and Euclid steps as in `_triangularise` (the row of least
    degree there, first of them on a tie, reduces the others) run until
    one row, the pivot row, is left, reducing every entry right of column
    j modulo d (d e_k, k > j, joins later); then each pivot row is made
    monic and the entries above it reduced, as in `_echelon`. Each step is
    unimodular on the generators, so span(G) = L, and no entry outgrows
    deg d. Reducing by the row of least degree keeps the coefficients
    small too; Euclid of d e_j against one row at a time doubled their
    size at every column (24k bits at 8 x 8)."""
    n, deg = A.cols, d.degree
    rows = [[x if x.degree < deg else x % d for x in row]
            for row in A.entries]
    g = []
    for j in range(n):
        live = [[_ZERO] * j + [d] + [_ZERO] * (n - j - 1)]
        live += [r for r in rows if r[j]]
        rows = [r for r in rows if not r[j]]
        while len(live) > 1:
            p = live.pop(min(range(len(live)),
                             key=lambda i: live[i][j].degree))
            rest = []
            for r in live:
                q, rj = divmod(r[j], p[j])
                r = r[:j] + [rj] + [
                    x if x.degree < deg else x % d
                    for x in (x._plus(q, -1, y)
                              for x, y in zip(r[j + 1:], p[j + 1:]))]
                if rj:
                    rest.append(r)
                elif any(r):
                    rows.append(r)
            live = [p] + rest
        g.append(live[0])
    for k in range(n):
        if not g[k][k].is_monic:
            cn, cd = g[k][k]._lead_inverse()
            g[k] = [x._scaled(cn, cd) for x in g[k]]
        for i in range(k):
            if g[i][k].degree >= g[k][k].degree:
                q = g[i][k] // g[k][k]
                g[i] = [x._plus(q, -1, y) for x, y in zip(g[i], g[k])]
    return PolyMat._of(g, n)


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
    first. A square regular A starts from its kept Hermite echelon H =
    U @ A, with E seeded by U^-1 = A @ H^-1, so the echelon that `det` and
    `hermite_form` read is the Smith form's row pass and E and F stay
    small; any other A starts from itself. Where d_i does not divide
    d_i+1, row i+1 is added to row i and the passes resume. Invariant
    factors come out monic and satisfy the divisibility chain. The
    decomposition is kept on A, beside the echelon.
    """
    return A._keep("smith", _smith)


def _cut(a, t, i, k, q):
    """Row i of a -= q * row k, carried nowhere (t is not read)."""
    a[i] = [x._plus(q, -1, y) for x, y in zip(a[i], a[k])]


def _sub(a, t, i, k, q):
    """Row i of a -= q * row k; row k of t += q * row i. With a = S and t
    = E^T that is the row operation on S and its inverse on E; with a =
    S^T and t = F, the column operation and its inverse on F."""
    _cut(a, t, i, k, q)
    t[k] = [x._plus(q, 1, y) for x, y in zip(t[k], t[i])]


def _triangularise(a, t, step):
    """Row echelon form of a in place, without reduction above the pivots,
    on Poly entries: a pass of the Smith form. `step(a, t, i, k, q)` takes
    q times row k of a from row i and carries that over to t as its
    inverse (`_sub`) or not at all (`_cut`); swaps move rows of a and t
    together. `_echelon` takes the same steps on integer rows."""
    k = 0
    for j in range(len(a[0]) if a else 0):
        rest = [i for i in range(k, len(a)) if not a[i][j].is_zero]
        while rest:
            piv = min(rest, key=lambda i: (a[i][j].degree, i))
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                t[k], t[piv] = t[piv], t[k]
            for i in range(k + 1, len(a)):
                if not a[i][j].is_zero:
                    step(a, t, i, k, a[i][j] // a[k][j])
            rest = [i for i in range(k + 1, len(a)) if not a[i][j].is_zero]
        if not a[k][j].is_zero:
            k += 1
        if k == len(a):
            break


def _eye(n):
    """The rows of the n x n identity, as lists."""
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def _diagonalise(s, et, f, step):
    """Alternate row passes (carried onto the rows of et = E^T) and column
    passes (onto the rows of f = F) on the grid s until it is diagonal,
    and add row i+1 to row i wherever d_i does not divide d_i+1. Returns
    the diagonal grid and the nonzero d_i, not yet monic."""
    m, n = len(s), len(f)

    def diagonal():
        return all(x.is_zero for i, row in enumerate(s)
                   for j, x in enumerate(row) if i != j)

    while True:
        _triangularise(s, et, step)
        if not diagonal():
            st = [[s[i][j] for i in range(m)] for j in range(n)]
            _triangularise(st, f, step)
            s = [[st[j][i] for j in range(n)] for i in range(m)]
            if not diagonal():
                continue
        d = [s[k][k] for k in range(min(m, n)) if not s[k][k].is_zero]
        bad = next((i for i in range(len(d) - 1)
                    if not d[i].divides(d[i + 1])), None)
        if bad is None:
            return s, d
        step(s, et, bad, bad + 1, _MINUS_ONE)


def _smith(A: PolyMat) -> SmithDecomposition:
    """The elimination of `smith_form`, uncached. A square A whose kept
    echelon H = U @ A has a pivot in every column starts from H, with E
    seeded by W = U^-1 = A @ H^-1 (exact division along the rows of H):
    A = W @ H, so the passes' inverse steps give E = W @ E_H, the row pass
    finds H triangular and the column pass clears what lies above the
    diagonal. Any other A starts from itself with E = I."""
    m, n = A.rows, A.cols
    h = pivots = None
    if m == n:
        h, _, pivots, _ = A._keep("echelon", _echelon)
    if h is not None and len(pivots) == n:
        s = [list(row) for row in h.entries]
        et = [list(col) for col in zip(*_right_divide(A, h).entries)]
    else:
        s, et = [list(row) for row in A.entries], _eye(m)
    f = _eye(n)
    s, d = _diagonalise(s, et, f, _sub)
    for k, p in enumerate(d):
        cn, cd = p._lead_inverse()
        s[k] = [x._scaled(cn, cd) for x in s[k]]
        et[k] = [x._scaled(cd, cn) for x in et[k]]
    return SmithDecomposition(
        E=PolyMat._of(zip(*et), m), S=PolyMat._of(s, n),
        F=PolyMat._of(f, n),
        invariant_factors=tuple(s[k][k] for k in range(len(d))),
        nrank=len(d),
    )


def _invariant_factors(A: PolyMat) -> tuple:
    """The monic invariant factors of A by the passes of `_smith` from A
    itself, carrying neither E nor F and building no echelon."""
    s = [list(row) for row in A.entries]
    _, d = _diagonalise(s, [None] * A.rows, [None] * A.cols, _cut)
    return tuple(p.monic() for p in d)


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
                acc = acc._plus(q[i], -1, d[i][j])
            qj, r = divmod(acc, d[j][j])
            if not r.is_zero:
                return None
            q.append(qj)
        rows.append(q)
    return PolyMat._of(rows, D.cols)


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


def _right_solve(C: PolyMat, A: PolyMat):
    """(Y, delta) with Y @ A = delta * C for a regular square A, delta the
    product of the monic diagonal of A's kept echelon H: Y is the right
    quotient of delta * C by A, polynomial because delta * H^-1 is."""
    h, _ = hermite_form(A)
    delta = Poly.one()
    for i in range(A.rows):
        delta = delta * h[i, i]
    dc = PolyMat([[delta * c for c in row] for row in C.entries], C.cols)
    return right_quotient(dc, A), delta
