"""Exact univariate polynomial arithmetic of the benchmark's own.

Input generation and the correctness checks use this module instead of
`meromat`, so that no input is shaped by the program under test and no
check compares the program with itself. A polynomial is a tuple of
`Fraction` coefficients, lowest degree first, with no trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = ()
ONE = (Fraction(1),)

# 2**61 - 1, a Mersenne prime for modular identity tests
PRIME = (1 << 61) - 1


def norm(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def deg(p) -> int:
    return len(p) - 1


def add(p, q) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return norm(out)


def neg(p) -> tuple:
    return tuple(-c for c in p)


def mul(p, q) -> tuple:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return norm(out)


def scale(p, c) -> tuple:
    return norm(c * a for a in p)


def divmod_(p, d) -> tuple:
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    if len(p) < len(d):
        return ZERO, tuple(p)
    quo = [Fraction(0)] * (len(p) - len(d) + 1)
    lead = d[-1]
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(d) - 1] / lead
        quo[k] = c
        if c:
            for j, b in enumerate(d):
                rem[k + j] -= c * b
    return norm(quo), norm(rem[: len(d) - 1])


def monic(p) -> tuple:
    return p if not p or p[-1] == 1 else scale(p, 1 / p[-1])


def gcd(p, q) -> tuple:
    while q:
        p, q = q, divmod_(p, q)[1]
    return monic(p)


def lcm(p, q) -> tuple:
    if not p or not q:
        return ZERO
    return monic(mul(divmod_(p, gcd(p, q))[0], q))


def power(p, k: int) -> tuple:
    out = ONE
    for _ in range(k):
        out = mul(out, p)
    return out


def from_roots(roots) -> tuple:
    out = ONE
    for r in roots:
        out = mul(out, (Fraction(-r), Fraction(1)))
    return out


def multiplicity(p, a) -> int:
    """Multiplicity of the rational point a as a root of p (p nonzero)."""
    lin = (Fraction(-a), Fraction(1))
    k = 0
    while True:
        q, r = divmod_(p, lin)
        if r:
            return k
        p, k = q, k + 1


def complex_coeffs(p) -> list:
    """Coefficients highest degree first, as floats, for numpy."""
    return [float(c) for c in reversed(p)]


def to_text(p) -> str:
    """Render in the `meromat/1` entry grammar, highest degree first."""
    if not p:
        return "0"
    parts = []
    for k in range(deg(p), -1, -1):
        c = p[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            zp = "z" if k == 1 else f"z^{k}"
            term = zp if mag == 1 else f"{mag}*{zp}"
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append((" - " if c < 0 else " + ") + term)
    return "".join(parts)


def rat_text(num, den) -> str:
    if den == ONE:
        return to_text(num)
    return f"({to_text(num)})/({to_text(den)})"


# ---------------------------------------------------------------------------
# rational functions as reduced (num, den) pairs with monic den


def rf(num, den=ONE) -> tuple:
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return ZERO, ONE
    g = gcd(num, den)
    num, den = divmod_(num, g)[0], divmod_(den, g)[0]
    lead = den[-1]
    return scale(num, 1 / lead), scale(den, 1 / lead)


def rf_add(a, b) -> tuple:
    return rf(add(mul(a[0], b[1]), mul(b[0], a[1])), mul(a[1], b[1]))


def rf_mul(a, b) -> tuple:
    return rf(mul(a[0], b[0]), mul(a[1], b[1]))


# ---------------------------------------------------------------------------
# matrices


def matmul(a, b, mul_=mul, add_=add, zero=ZERO):
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = zero
            for k, x in enumerate(row):
                acc = add_(acc, mul_(x, b[k][j]))
            new.append(acc)
        out.append(new)
    return out


def rf_matmul(a, b):
    return matmul(a, b, rf_mul, rf_add, (ZERO, ONE))


def det(m):
    """Laplace expansion along the first row; for the small matrices the
    oracles need (at most 5 x 5 minors)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = ZERO
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = mul(m[0][j], det(minor))
            acc = add(acc, term if j % 2 == 0 else neg(term))
    return acc


def minors(m, k):
    """All k x k submatrices of m, as row lists."""
    from itertools import combinations

    for rows in combinations(range(len(m)), k):
        for cols in combinations(range(len(m[0])), k):
            yield [[m[i][j] for j in cols] for i in rows]


def minor_gcd(m, k):
    """Monic gcd of the k x k minors: the k-th determinantal divisor."""
    g = ZERO
    for sub in minors(m, k):
        g = gcd(g, det(sub))
        if g == ONE:
            break
    return g


# ---------------------------------------------------------------------------
# arithmetic modulo PRIME, for identity tests on large results


def mod_value(c: Fraction) -> int:
    den = c.denominator % PRIME
    if not den:
        raise ZeroDivisionError("denominator vanishes modulo the test prime")
    return c.numerator % PRIME * pow(den, -1, PRIME) % PRIME


def mod_poly(p) -> tuple:
    """Coefficients reduced modulo PRIME, once, for repeated evaluation."""
    return tuple(mod_value(c) for c in p)


def mod_eval(cs, x: int) -> int:
    """Value at x of a polynomial given by `mod_poly` coefficients."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % PRIME
    return acc


def mod_matmul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) % PRIME
             for j in range(len(b[0]))] for row in a]


def mod_det(m) -> int:
    a = [list(row) for row in m]
    n = len(a)
    out = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out = out * a[c][c] % PRIME
        inv = pow(a[c][c], -1, PRIME)
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv % PRIME
                a[i] = [(x - f * y) % PRIME for x, y in zip(a[i], a[c])]
    return out % PRIME
