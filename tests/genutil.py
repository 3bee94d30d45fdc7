"""Shared random generators for the test suite.

Everything is driven by an explicit random.Random so individual tests
stay reproducible.
"""

import random

from meromat import polymat, sysmat
from meromat.exactalg import QQ, Poly, RatFn
from meromat.polymat import PolyMat
from meromat.ratmat import RatMat
from meromat.sysmat import Amd


def rand_poly(rng: random.Random, max_deg: int = 3, span: int = 4,
              nonzero: bool = False) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [QQ(rng.randint(-span, span)) for _ in range(deg + 1)]
    p = Poly(coeffs)
    if nonzero and p.is_zero:
        return Poly.const(QQ(rng.randint(1, span)))
    return p


def rand_polymat(rng: random.Random, rows: int, cols: int,
                 max_deg: int = 3) -> PolyMat:
    return PolyMat([[rand_poly(rng, max_deg) for _ in range(cols)]
                    for _ in range(rows)])


def rand_regular_polymat(rng: random.Random, n: int,
                         max_deg: int = 3) -> PolyMat:
    while True:
        a = rand_polymat(rng, n, n, max_deg)
        if not polymat.det(a).is_zero:
            return a


def rand_unimodular(rng: random.Random, n: int, steps: int = 4) -> PolyMat:
    entries = [[Poly.one() if i == j else Poly.zero() for j in range(n)]
               for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rand_poly(rng, 1, 2)
        entries[i] = [entries[i][k] + q * entries[j][k] for k in range(n)]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        c = QQ(rng.choice([-2, -1, 1, 2, 3]))
        entries[i] = [e.scale(c) for e in entries[i]]
    u = PolyMat(entries)
    assert polymat.is_unimodular(u)
    return u


# small factor pool so random rational matrices share poles and zeros
_FACTORS = [Poly((QQ(0), QQ(1))), Poly((QQ(-1), QQ(1))), Poly((QQ(1), QQ(1))),
            Poly((QQ(-2), QQ(1))), Poly((QQ(2), QQ(1)))]


def rand_ratfn(rng: random.Random, max_factors: int = 2) -> RatFn:
    num = rand_poly(rng, 2, 3)
    den = Poly.one()
    for _ in range(rng.randint(0, max_factors)):
        den = den * rng.choice(_FACTORS)
    if den.is_zero:
        den = Poly.one()
    return RatFn(num, den)


def rand_ratmat(rng: random.Random, rows: int, cols: int) -> RatMat:
    return RatMat([[rand_ratfn(rng) for _ in range(cols)]
                   for _ in range(rows)])


def minor_gcd(A: PolyMat, k: int) -> Poly:
    """Monic gcd of all k x k minors; the determinantal-divisor oracle."""
    from itertools import combinations

    from meromat.exactalg import poly_gcd

    g = Poly.zero()
    for rows in combinations(range(A.rows), k):
        for cols in combinations(range(A.cols), k):
            sub = PolyMat([[A.entries[i][j] for j in cols] for i in rows])
            g = poly_gcd(g, polymat.det(sub))
            if g == Poly.one():
                return g
    return g


def local_exponent_oracle(M: RatMat, lam) -> tuple:
    """Brute-force local exponents of M at an exact point: delta_k is the
    minimal order over all k x k minors, tau_k = delta_k - delta_{k-1}."""
    from itertools import combinations

    from meromat import linalg_exact
    from meromat.exactalg import GaussRat

    lam = GaussRat.coerce(lam)
    r = M.nrank()
    prev = 0
    taus = []
    for k in range(1, r + 1):
        best = None
        for rows in combinations(range(M.rows), k):
            for cols in combinations(range(M.cols), k):
                sub = [[M.entries[i][j] for j in cols] for i in rows]
                minor = linalg_exact.det(sub)
                if minor.is_zero:
                    continue
                o = (minor.num.multiplicity_at(lam)
                     - minor.den.multiplicity_at(lam))
                if best is None or o < best:
                    best = o
        taus.append(best - prev)
        prev = best
    return tuple(taus)


def rand_left_coprime_amd(rng: random.Random, r: int = 2, m: int = 1,
                          n: int = 1, max_deg: int = 2) -> Amd:
    """Random AMD with (A, B) left coprime, for RMF reduction."""
    while True:
        a = rand_regular_polymat(rng, r, max_deg)
        b = rand_polymat(rng, r, n, max_deg)
        if polymat.are_left_coprime(a, b)[0]:
            c = rand_polymat(rng, m, r, max_deg)
            d = rand_polymat(rng, m, n, max_deg)
            return Amd(A=a, B=b, C=c, D=d)


def rand_irreducible_amd(rng: random.Random, r: int = 2, m: int = 1,
                         n: int = 1, max_deg: int = 2) -> Amd:
    while True:
        a = rand_regular_polymat(rng, r, max_deg)
        b = rand_polymat(rng, r, n, max_deg)
        c = rand_polymat(rng, m, r, max_deg)
        d = rand_polymat(rng, m, n, max_deg)
        h = Amd(A=a, B=b, C=c, D=d)
        if sysmat.is_irreducible(h):
            return h


def transformed_realization(rng: random.Random, h: Amd) -> Amd:
    """A different minimal realization of the same transfer function."""
    r = h.state_dim
    u = rand_unimodular(rng, r)
    v = rand_unimodular(rng, r)
    return Amd(A=u @ h.A @ v, B=u @ h.B, C=h.C @ v, D=h.D)
