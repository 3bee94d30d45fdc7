"""Seeded input generation for the four workloads.

Every input is built by the benchmark's own code from `random.Random(seed)`
and written as `meromat/1` text. Where an analysis needs its input to have
a property (a regular matrix, a left coprime pair, an irreducible AMD, a
contour away from every root), the property holds by construction or is
established here with `qpoly`, numpy or scipy; `meromat` is never run to
pick inputs.

`bundle(workload, seed)` returns a JSON-ready dict: `docs` maps a key to a
`meromat/1` document and `ops` lists the operations of one round, each with
the parameters and the oracle data its check needs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import qpoly as qp

WORKLOADS = ("smith-sweep", "amd-analysis", "tds-numerics", "cli")

# smith-sweep: matrices per (n, degree) cell in one round. The 6x6 degree-3
# cell is left out: one Smith form there takes about 23 s.
SMITH_CELLS = {
    (2, 1): 20, (2, 2): 20, (2, 3): 20,
    (3, 1): 16, (3, 2): 16, (3, 3): 10,
    (4, 1): 10, (4, 2): 7, (4, 3): 3,
    (5, 1): 5, (5, 2): 2, (5, 3): 1,
    (6, 1): 3, (6, 2): 1,
}

# points that poles and zeros of the structured rational matrices are
# drawn from
POOL = (-2, -1, 0, 1, 2, 3)

# Quadrature tolerance of every count and root search. At the default
# 1e-8, rounding noise in the integrand can stay above the tolerance, and
# the adaptive quadrature then spends its whole subdivision budget: on
# some seeds a count or the cluster check of a root search ran for more
# than 13 s (see CHANGES.md). At 1e-6 none did.
TOL = 1e-6

# the root search that does not return: kept, time-limited, counted failed
HANG_TDS = {"A0": [[0, 1], [-1, 0]], "A1": [[0, 0], ["1/2", 0]], "tau": "1"}
HANG_BOX = (-3, 3, -3, 3)


# ---------------------------------------------------------------------------
# text


def matrix_doc(grid, kind="polynomial") -> str:
    """grid holds polynomials (kind polynomial) or (num, den) pairs."""
    render = qp.to_text if kind == "polynomial" else (lambda e: qp.rat_text(*e))
    lines = ["meromat/1 matrix", f"kind {kind}",
             f"size {len(grid)} {len(grid[0])}"]
    lines += ["row " + " ; ".join(render(e) for e in row) for row in grid]
    return "\n".join(lines) + "\n"


def amd_doc(a, b, c, d) -> str:
    """Standard layout [[A, B], [-C, D]]."""
    r, m, n = len(a), len(c), len(b[0])
    lines = ["meromat/1 amd", "ring polynomial", f"dims {r} {m} {n}",
             "layout standard"]
    for name, grid in (("tl", a), ("tr", b),
                       ("bl", [[qp.neg(e) for e in row] for row in c]),
                       ("br", d)):
        lines.append(f"block {name}")
        lines += ["row " + " ; ".join(qp.to_text(e) for e in row)
                  for row in grid]
    return "\n".join(lines) + "\n"


def tds_doc(a0, delayed=(), b_terms=(), c_terms=()) -> str:
    r = len(a0)
    m = len(c_terms[0][0]) if c_terms else 0
    n = len(b_terms[0][0][0]) if b_terms else 0
    lines = ["meromat/1 tds", f"dims {r} {m} {n}", "matrix A0"]
    lines += ["row " + " ; ".join(str(Fraction(x)) for x in row) for row in a0]
    for tag, terms in (("A", delayed), ("B", b_terms), ("C", c_terms)):
        for mat, tau in terms:
            lines.append(f"matrix {tag} {Fraction(tau)}")
            lines += ["row " + " ; ".join(str(Fraction(x)) for x in row)
                      for row in mat]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# building blocks


def rand_poly(rng, degree, span=2, full=True) -> tuple:
    cs = [rng.randint(-span, span) for _ in range(degree)]
    lead = rng.choice([c for c in range(-span, span + 1) if c]) if full \
        else rng.randint(-span, span)
    return qp.norm(cs + [lead])


def rand_grid(rng, rows, cols, degree, span=2, full=True):
    return [[rand_poly(rng, degree, span, full) for _ in range(cols)]
            for _ in range(rows)]


def is_regular(grid, rng) -> bool:
    """det A is not the zero polynomial: nonzero modulo a prime at a
    random point (a zero there would need a root at that point)."""
    x = rng.randrange(1 << 40)
    return qp.mod_det([[qp.mod_eval(qp.mod_poly(e), x) for e in row]
                       for row in grid]) != 0


def unimodular(rng, n, steps=2, degree=1):
    """Product of elementary row operations row_i += q * row_j with q of
    the given degree: determinant 1 by construction."""
    u = [[qp.ONE if i == j else qp.ZERO for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = qp.norm([rng.choice([-1, 1]) for _ in range(degree)]
                    + [rng.choice([-2, -1, 1, 2])])
        u[i] = [qp.add(a, qp.mul(q, b)) for a, b in zip(u[i], u[j])]
    return u


def poly_matmul(a, b):
    return qp.matmul(a, b)


def _diag_lin(r, i, lam):
    """Identity with (z - lam) at position (i, i)."""
    return [[qp.from_roots([lam]) if j == k == i else
             (qp.ONE if j == k else qp.ZERO) for k in range(r)]
            for j in range(r)]


def structured_ratmat(rng, rows, cols, npoints=3):
    """U @ diag(phi_j / psi_j) @ V with unimodular U, V and every pole and
    zero in POOL. Returns the (num, den) grid and the structural points
    with their pole-zero index tuples."""
    r = min(rows, cols)
    points = rng.sample(POOL, npoints)
    taus = {}
    for lam in points:
        t = sorted(rng.choice([-1, -1, 0, 1, 1]) for _ in range(r))
        if not any(t):
            t[-1] = 1
        taus[lam] = t
    sigma = [[(qp.ZERO, qp.ONE)] * cols for _ in range(rows)]
    for j in range(r):
        num, den = qp.ONE, qp.ONE
        for lam, t in taus.items():
            lin = qp.from_roots([lam])
            if t[j] > 0:
                num = qp.mul(num, qp.power(lin, t[j]))
            elif t[j] < 0:
                den = qp.mul(den, qp.power(lin, -t[j]))
        sigma[j][j] = qp.rf(qp.scale(num, rng.choice([1, 2, -3])), den)
    lift = lambda g: [[qp.rf(e) for e in row] for row in g]  # noqa: E731
    m = qp.rf_matmul(qp.rf_matmul(lift(unimodular(rng, rows, 1)), sigma),
                     lift(unimodular(rng, cols, 1)))
    return m, {str(lam): t for lam, t in taus.items()}


def rand_irreducible_amd(rng, r, m, n, degree):
    """Random blocks; kept when det A is not zero and the r x r minors of
    [A B] and of [A; C] have constant gcd (the determinantal-divisor
    characterisation of coprimeness, computed with qpoly)."""
    while True:
        a = rand_grid(rng, r, r, degree, full=False)
        b = rand_grid(rng, r, n, 1, full=False)
        c = rand_grid(rng, m, r, 1, full=False)
        d = rand_grid(rng, m, n, 1, full=False)
        if not is_regular(a, rng):
            continue
        ab = [ra + rb for ra, rb in zip(a, b)]
        ac = a + c
        if qp.minor_gcd(ab, r) == qp.ONE and qp.minor_gcd(ac, r) == qp.ONE:
            return a, b, c, d


# ---------------------------------------------------------------------------
# workloads


def gen_smith(rng):
    docs, ops = {}, []
    for (n, degree), count in SMITH_CELLS.items():
        for k in range(count):
            while True:
                grid = rand_grid(rng, n, n, degree)
                if is_regular(grid, rng):
                    break
            key = f"dense-{n}x{n}-d{degree}-{k}"
            docs[key] = matrix_doc(grid)
            ops.append({"kind": "smith", "doc": key, "n": n, "degree": degree})
    return docs, ops


# amd-analysis: (r, m, n, realizations per round); every block has degree
# at most one. equate_irreducible runs on the first EQUATES single-input
# single-output realizations with r = 2: it takes 0.1-0.8 s there (so one
# call moves a batch by several per cent from seed to seed), and about
# 30 s at r = 3 or with a state block of degree two.
AMD_SHAPES = ((2, 1, 1, 3), (2, 2, 1, 2), (2, 1, 2, 2), (3, 1, 1, 1))
EQUATES = 1
# (rows, cols, matrices per round); the coprime MFDs of 3 x 3 and of
# non-square structured matrices take from 0.1 s to 4 s, a spread that
# would swamp the batch
RATMAT_SHAPES = ((2, 2, 48),)


def gen_amd(rng):
    docs, ops = {}, []
    idx = 0
    for r, m, n, count in AMD_SHAPES:
        for k in range(count):
            a, b, c, d = rand_irreducible_amd(rng, r, m, n, 1)
            key = f"amd-{idx}"
            docs[key] = amd_doc(a, b, c, d)
            for kind in ("least_order_check", "to_rmf", "to_lmf"):
                ops.append({"kind": kind, "doc": key})
            # planted decoupling zeros: A' = L A R, B' = L B, C' = C R with
            # det L, det R linear in z and rooted in POOL. Only at r = 2:
            # decouple at r = 3 takes 0.2-1.5 s, a spread that would swamp
            # the batch.
            if r == 2:
                lam_in, lam_out = rng.sample(POOL, 2)
                ell = poly_matmul(unimodular(rng, r, 1, 0),
                                  _diag_lin(r, 0, lam_in))
                rr = poly_matmul(_diag_lin(r, r - 1, lam_out),
                                 unimodular(rng, r, 1, 0))
                dkey = f"amd-{idx}-dec"
                docs[dkey] = amd_doc(poly_matmul(poly_matmul(ell, a), rr),
                                     poly_matmul(ell, b), poly_matmul(c, rr),
                                     d)
                ops.append({"kind": "decouple", "doc": dkey,
                            "planted": [lam_in, lam_out]})
            if r == 2 and m == n == 1 and k < EQUATES:
                u, v = unimodular(rng, r, 1, 0), unimodular(rng, r, 1, 0)
                tkey = f"amd-{idx}-eq"
                docs[tkey] = amd_doc(poly_matmul(poly_matmul(u, a), v),
                                     poly_matmul(u, b), poly_matmul(c, v), d)
                ops.append({"kind": "equate", "doc": key, "doc2": tkey})
            idx += 1
    for rows, cols, count in RATMAT_SHAPES:
        for _ in range(count):
            grid, taus = structured_ratmat(rng, rows, cols)
            key = f"rat-{idx}"
            docs[key] = matrix_doc(grid, "rational")
            for kind in ("smith_mcmillan", "least_order", "mcmillan_degree",
                         "right_mfd", "left_mfd"):
                ops.append({"kind": kind, "doc": key})
            for lam in taus:
                ops.append({"kind": "pole_zero_index", "doc": key,
                            "point": lam})
            idx += 1
    return docs, ops


def lambert_roots(a, b, tau, branches=60):
    """All roots of z - a - b exp(-tau z) with |Im z| below the branch
    cut-off: z = a + W_k(b tau exp(-a tau)) / tau (scipy)."""
    import cmath

    from scipy.special import lambertw

    if b == 0:
        return [complex(a)]
    arg = b * tau * cmath.exp(-a * tau)
    return [a + complex(lambertw(arg, k)) / tau
            for k in range(-branches, branches + 1)]


def circle_with_margin(roots, candidates, margin):
    """The first candidate circle at least `margin` from every root, or
    None: the caller then draws another system."""
    for cand in candidates:
        if min(abs(abs(z - cand[0]) - cand[1]) for z in roots) >= margin:
            return cand
    return None


_CIRCLES = [(0j, r) for r in (2.0, 2.4, 1.7, 2.8, 1.4, 3.1, 1.2, 3.4, 2.2,
                              2.6, 1.9)]
# least distance from a counting circle to any root
MARGIN = 0.25


def rand_invertible_int(rng, r):
    """Integer matrix with determinant +-1: unit triangular factors."""
    lo = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0)
           for j in range(r)] for i in range(r)]
    up = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0)
           for j in range(r)] for i in range(r)]
    return [[sum(lo[i][k] * up[k][j] for k in range(r)) for j in range(r)]
            for i in range(r)]


def _fmat(m):
    return [[Fraction(x) for x in row] for row in m]


def _fmatmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _finverse(m):
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(_fmat(m))]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


# tds-numerics: structured 2 x 2 rational matrices, each with one
# argument-principle count and local indices at its 3 structural points
RAT_COUNTS = 64


def gen_tds(rng):
    import numpy as np

    docs, ops = {}, []
    # state-delay TDS, simultaneously triangularisable: A_j = P T_j P^-1
    for idx in range(14):
        r = 1 + idx % 3
        circle = None
        while circle is None:
            tau = Fraction(rng.choice([1, 2, 3]), 2)
            t0 = [[Fraction(rng.randint(-4, 2), 2) if i == j else
                   (Fraction(rng.randint(-2, 2), 2) if i < j
                    else Fraction(0))
                   for j in range(r)] for i in range(r)]
            t1 = [[Fraction(rng.choice([-2, -1, 1, 2]), 4) if i == j else
                   (Fraction(rng.randint(-1, 1), 2) if i < j
                    else Fraction(0))
                   for j in range(r)] for i in range(r)]
            p = rand_invertible_int(rng, r)
            roots = []
            for i in range(r):
                roots += lambert_roots(float(t0[i][i]), float(t1[i][i]),
                                       float(tau))
            circle = circle_with_margin(roots, _CIRCLES, MARGIN)
        center, radius = circle
        pinv = _finverse(p)
        a0 = _fmatmul(_fmatmul(_fmat(p), t0), pinv)
        a1 = _fmatmul(_fmatmul(_fmat(p), t1), pinv)
        inside = sum(1 for z in roots if abs(z - center) < radius)
        key = f"tds-{idx}"
        docs[key] = tds_doc(a0, [(a1, tau)])
        ops.append({"kind": "tds_pole_count", "doc": key, "tol": TOL,
                    "circle": [center.real, center.imag, radius],
                    "expect": inside, "oracle": "lambertw"})
    # delays only on the input and output: poles at eig(A0)
    for idx in range(6):
        r = 2 + idx % 2
        circle = None
        while circle is None:
            a0 = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
            b = [[rng.randint(-1, 1) for _ in range(1)] for _ in range(r)]
            c = [[rng.randint(-1, 1) for _ in range(r)]]
            eig = list(np.linalg.eigvals(np.array(a0, dtype=float)))
            circle = circle_with_margin(eig, _CIRCLES, MARGIN)
        center, radius = circle
        key = f"tds-io-{idx}"
        docs[key] = tds_doc(a0, (), [(b, Fraction(1, 2))],
                            [(c, Fraction(1))])
        ops.append({"kind": "tds_pole_count", "doc": key, "tol": TOL,
                    "circle": [center.real, center.imag, radius],
                    "expect": sum(1 for z in eig
                                  if abs(z - center) < radius),
                    "oracle": "eigvals"})
    # argument-principle counts of structured rational matrices: every
    # pole and zero is an integer, so circles centred at half-integers
    # with radius 1 or 2 stay 0.5 from all of them. The counts (about
    # 30 ms each) are many, so that the 90th percentile of the batch lies
    # among them and not among the few delay-system counts, whose cost
    # varies from 10 ms to 300 ms with the system.
    for idx in range(RAT_COUNTS):
        grid, taus = structured_ratmat(rng, 2, 2)
        key = f"rat-{idx}"
        docs[key] = matrix_doc(grid, "rational")
        cx = rng.choice([-0.5, 0.5, 1.5])
        ops.append({"kind": "count", "doc": key, "tol": TOL,
                    "circle": [cx, 0.0, rng.choice([1.0, 2.0])]})
        for lam in taus:
            ops.append({"kind": "local_indices", "doc": key, "point": lam})
    # root localisation: triangular polynomial matrices with known roots
    # at rational points well inside the cells of the box's first splits
    for idx in range(3):
        grid, roots = rooted_polymat(rng)
        key = f"roots-{idx}"
        docs[key] = matrix_doc(grid)
        ops.append({"kind": "roots", "doc": key, "box": list(ROOT_BOX),
                    "tol": TOL,
                    "roots": [[str(x), str(y)] for x, y in roots]})
    key = "hang"
    docs[key] = tds_doc(HANG_TDS["A0"],
                        [(HANG_TDS["A1"], Fraction(HANG_TDS["tau"]))])
    ops.append({"kind": "roots_limited", "doc": key, "box": list(HANG_BOX),
                "roots": [[repr(z.real), repr(z.imag)] for z in hang_roots()]})
    return docs, ops


def hang_roots():
    """Characteristic roots of HANG_TDS in HANG_BOX, computed with numpy
    alone: Newton's method on det(zI - A0 - A1 exp(-tau z)) from a grid of
    starting points, checked against an argument-principle count along the
    edges of the box (the nearest root lies about 0.01 inside the edge
    Re z = -3, so the edges are sampled every 3e-4)."""
    import numpy as np

    a0 = np.array(HANG_TDS["A0"], dtype=float)
    a1 = np.array([[float(Fraction(v)) for v in row]
                   for row in HANG_TDS["A1"]])
    tau = float(Fraction(HANG_TDS["tau"]))
    eye = np.eye(len(a0))

    def det(z):
        e = np.exp(-tau * z)[..., None, None]
        return np.linalg.det(z[..., None, None] * eye - a0 - a1 * e)

    x0, x1, y0, y1 = HANG_BOX
    roots, h = [], 1e-7
    for start in (complex(x, y) for x in np.linspace(x0, x1, 13)
                  for y in np.linspace(y0, y1, 13)):
        z = start
        for _ in range(60):
            f, fp, fm = det(np.array([z, z + h, z - h]))
            step = f / ((fp - fm) / (2 * h))
            z -= step
            if abs(step) < 1e-15 or abs(z) > 1e3:
                break
        if (x0 < z.real < x1 and y0 < z.imag < y1
                and abs(det(np.array([z]))[0]) < 1e-12
                and all(abs(z - w) > 1e-6 for w in roots)):
            roots.append(z)
    n = 20000
    edge = np.concatenate([
        np.linspace(x0, x1, n, endpoint=False) + 1j * y0,
        x1 + 1j * np.linspace(y0, y1, n, endpoint=False),
        np.linspace(x1, x0, n, endpoint=False) + 1j * y1,
        x0 + 1j * np.linspace(y1, y0, n + 1)])
    turns = np.sum(np.diff(np.unwrap(np.angle(det(edge))))) / (2 * np.pi)
    if round(turns) != len(roots) or abs(turns - round(turns)) > 1e-6:
        raise RuntimeError(f"hang_roots: {len(roots)} roots by Newton, "
                           f"{turns:.6f} by the argument principle")
    return sorted((complex(z) for z in roots), key=lambda z: (z.real, z.imag))


ROOT_BOX = (-2.1, 1.9, -1.3, 1.7)
# relative positions inside the box, away from the split lines at 1/2,
# 1/4 and 3/4 of each side
_REL = (Fraction(3, 20), Fraction(7, 20), Fraction(13, 20), Fraction(17, 20))


def rooted_polymat(rng):
    """U @ [[f1, g], [0, f2]] @ V with f1 f2 of degree 3-4 and roots at
    chosen rational points: two real roots and a complex pair."""
    x0, x1, y0, y1 = (Fraction(v).limit_denominator(10) for v in ROOT_BOX)
    roots, factors = [], []
    # two distinct real roots on y = 0, whose relative height 13/30 is
    # clear of the split lines as well, and one complex pair
    for u in rng.sample(_REL, 2):
        x = x0 + u * (x1 - x0)
        roots.append((x, Fraction(0)))
        factors.append(qp.from_roots([x]))
    x = x0 + rng.choice(_REL) * (x1 - x0)
    y = rng.choice([Fraction(7, 10), Fraction(6, 5)])
    roots += [(x, y), (x, -y)]
    factors.append(qp.norm([x * x + y * y, -2 * x, 1]))
    f1 = qp.mul(factors[0], factors[2])
    f2 = factors[1]
    g = rand_poly(rng, 1, full=False)
    tri = [[f1, g], [qp.ZERO, f2]]
    grid = poly_matmul(poly_matmul(unimodular(rng, 2, 1), tri),
                       unimodular(rng, 2, 1))
    return grid, roots


def gen_cli(rng):
    """Small `meromat/1` files and one argv per call, over every
    subcommand. File names are relative to the workload directory."""
    docs, ops = {}, []

    def call(argv, check, **extra):
        ops.append({"kind": "cli", "argv": argv, "check": check, **extra})

    for k in range(18):
        n = 2 + k % 2
        grid = rand_grid(rng, n, n, 1 + k % 2)
        while not is_regular(grid, rng):
            grid = rand_grid(rng, n, n, 1 + k % 2)
        docs[f"poly-{k}.mm"] = matrix_doc(grid)
        call(["smith", "--json", f"poly-{k}.mm"], "smith", doc=f"poly-{k}.mm")
    for k in range(15):
        grid, taus = structured_ratmat(rng, 2, 2)
        name = f"rat-{k}.mm"
        docs[name] = matrix_doc(grid, "rational")
        call(["smith-mcmillan", "--json", name], "smith_mcmillan", doc=name)
        call(["least-order", "--json", name], "least_order", doc=name)
        call(["mfd", "--json", "--side", "right" if k % 2 else "left", name],
             "mfd", doc=name)
        lam = next(iter(taus))
        call(["local-indices", "--json", f"--point={lam},0", name],
             "local_indices", doc=name, point=lam)
        if k < 4:
            cx = rng.choice([-0.5, 0.5, 1.5])
            call(["count", "--json", f"--tol={TOL}", f"--circle={cx},0,1",
                  name],
                 "count", doc=name, circle=[cx, 0.0, 1.0])
    for k in range(12):
        r = 1 + k % 2
        a, b, c, d = rand_irreducible_amd(rng, r, 1, 1, 1)
        name = f"amd-{k}.mm"
        docs[name] = amd_doc(a, b, c, d)
        call(["amd", "check", "--json", name], "amd_check", doc=name)
        call(["amd", "to-rmf", "--json", name], "amd_form", doc=name)
        call(["amd", "to-lmf", "--json", name], "amd_form", doc=name)
        call(["amd", "reduce", "--json", name], "amd_reduce", doc=name)
        if r == 1:
            u = [[qp.norm([rng.choice([-2, -1, 1, 2])])]]
            name2 = f"amd-{k}-eq.mm"
            docs[name2] = amd_doc(poly_matmul(u, a), poly_matmul(u, b), c, d)
            call(["amd", "equate", "--json", name, name2], "amd_equate",
                 doc=name, doc2=name2)
    for k in range(9):
        circle = None
        while circle is None:
            a0 = [[rng.randint(-3, 3)]]
            t1 = Fraction(rng.choice([-2, -1, 1, 2]), 4)
            roots = lambert_roots(float(a0[0][0]), float(t1), 1.0)
            circle = circle_with_margin(roots, _CIRCLES, MARGIN)
        center, radius = circle
        name = f"tds-{k}.mm"
        docs[name] = tds_doc(a0, [([[t1]], 1)], [([[1]], 0)], [([[1]], 1)])
        call(["tds", "build", "--json", name], "tds_build", doc=name)
        if k < 3:
            call(["tds", "poles", "--json", f"--tol={TOL}",
                  f"--circle={center.real},{center.imag},{radius}", name],
                 "tds_poles", doc=name,
                 expect=sum(1 for z in roots if abs(z - center) < radius))
    grid, roots = rooted_polymat(rng)
    docs["roots.mm"] = matrix_doc(grid)
    call(["roots", "--json", f"--tol={TOL}",
          "--region=" + ",".join(str(v) for v in ROOT_BOX), "roots.mm"],
         "roots", doc="roots.mm", roots=[[str(x), str(y)] for x, y in roots])
    return docs, ops


GENERATORS = {"smith-sweep": gen_smith, "amd-analysis": gen_amd,
              "tds-numerics": gen_tds, "cli": gen_cli}


def bundle(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    docs, ops = GENERATORS[workload](rng)
    return {"workload": workload, "seed": seed, "docs": docs, "ops": ops}
