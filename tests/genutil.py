"""Shared random generators for the test suite.

Everything is driven by an explicit random.Random so individual tests
stay reproducible.
"""

import random
from fractions import Fraction

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


def fresh(m):
    """An equal matrix of the same type with no forms kept yet."""
    return type(m)(m.entries, m.cols)


def record_calls(monkeypatch, module, name: str) -> list:
    """Wrap the function `module.name` so that each call appends its first
    argument to the returned list."""
    seen = []
    real = getattr(module, name)

    def recorded(arg, *rest):
        seen.append(arg)
        return real(arg, *rest)

    monkeypatch.setattr(module, name, recorded)
    return seen


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
    """Monic gcd of all k x k minors; the determinantal-divisor oracle.

    The minors come from Gauss elimination over the rational functions
    (`linalg_exact.det`), not from polymat's row reduction, so the oracle
    stays independent of what it checks."""
    from itertools import combinations

    from meromat import linalg_exact
    from meromat.exactalg import poly_gcd

    g = Poly.zero()
    for rows in combinations(range(A.rows), k):
        for cols in combinations(range(A.cols), k):
            sub = [[RatFn(A.entries[i][j]) for j in cols] for i in rows]
            g = poly_gcd(g, linalg_exact.det(sub).to_poly())
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
    r = linalg_exact.rank(M.entries)
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


def rand_qpoly(rng: random.Random, max_deg: int, nonzero: bool = False,
               bits: int = 4) -> Poly:
    """Polynomial with rational coefficients (numerators and denominators of
    about `bits` bits); zero about one time in eight unless `nonzero`."""
    def q():
        return QQ(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))

    while True:
        if not nonzero and rng.random() < 1 / 8:
            return Poly.zero()
        p = Poly([q() for _ in range(rng.randint(0, max_deg) + 1)])
        if not p.is_zero:
            return p


# -- reference arithmetic on lists of Fraction, lowest degree first: the
# coefficient-by-coefficient algorithms, an oracle for Poly's integer kernel


def fracs(p: Poly) -> list:
    """The coefficients of p as a list of Fraction."""
    return [Fraction(int(c.re.numerator), int(c.re.denominator))
            for c in p.coeffs]


def ref_trim(cs) -> list:
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ref_add(a, b, sign=1) -> list:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return ref_trim(x + y * sign for x, y in zip(a, b))


def ref_mul(a, b) -> list:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b) -> tuple:
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] = rem[k + j] - c * y
    return ref_trim(quo), ref_trim(rem[:len(b) - 1])


def ref_monic(a) -> list:
    return ref_mul(a, [1 / a[-1]]) if a else []


def ref_gcd(a, b) -> list:
    """Monic gcd by Euclid over the rationals."""
    a, b = ref_trim(a), ref_trim(b)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_derivative(a) -> list:
    return ref_trim([c * k for k, c in enumerate(a)][1:])


def ref_eval_exact(a, x) -> tuple:
    """(re, im) of the value at the point x = re + im*i (a pair of
    Fraction), by Horner on pairs."""
    xr, xi = x
    re = im = Fraction(0)
    for c in reversed(a):
        re, im = re * xr - im * xi + c, re * xi + im * xr
    return re, im


def ref_call(a, z: complex) -> complex:
    """Horner on the complex values of the coefficients."""
    acc = 0j
    for c in reversed(a):
        acc = acc * z + complex(c)
    return acc
