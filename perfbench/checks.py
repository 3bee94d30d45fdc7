"""Correctness checks, run after the timed round.

Every check compares the program's output with a computation made apart
from it: sympy (invariant factors, determinants, inverses over Q(z)), the
benchmark's own polynomial arithmetic in `qpoly`, and numeric roots from
numpy or, for delay systems, scipy's Lambert W (computed in gen.py). Inputs
are read back from their `meromat/1` text with sympy's parser, never with
meromat's. Nothing is compared with a stored copy of an earlier output.

`check(bundle, results)` returns a list of problems; empty means
every output that was returned is correct. Operations that raised are
skipped here: the worker counts them as failed, and a failure of any
operation but the time-limited root search makes the run incorrect. When
that root search does return, its roots are compared with the ones
`gen.hang_roots` computes with numpy.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import sympy as sp
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

import qpoly as qp

Z = sp.Symbol("z")
K = sp.QQ.frac_field(Z)


class Mismatch(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# reading `meromat/1` text and meromat objects


def sym(entry: str):
    return sp.sympify(entry.replace("^", "**"), locals={"z": Z})


def read_doc(text: str) -> dict:
    """Grids of entry strings, keyed by block name ("m" for a matrix)."""
    blocks, cur = {}, None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("meromat/1"):
            continue
        head, _, rest = line.partition(" ")
        if head == "row":
            blocks.setdefault(cur or "m", []).append(
                [c.strip() for c in rest.split(";")])
        elif head in ("block", "matrix"):
            cur = rest
    return blocks


def sym_grid(grid):
    return [[sym(e) for e in row] for row in grid]


def sym_poly(p):
    """meromat Poly -> sympy expression, from its exact coefficients."""
    acc = sp.Integer(0)
    for k, c in enumerate(p.coeffs):
        expect(not c.im, "complex coefficient")
        acc += sp.Rational(c.re.numerator, c.re.denominator) * Z ** k
    return acc


def sym_entry(e):
    if hasattr(e, "coeffs"):
        return sym_poly(e)
    return sym_poly(e.num) / sym_poly(e.den)


def sym_mat(M):
    return [[sym_entry(e) for e in row] for row in M.entries]


def to_q(expr) -> tuple:
    """Polynomial sympy expression -> qpoly tuple."""
    cs = sp.Poly(sp.expand(expr), Z).all_coeffs()
    return qp.norm(Fraction(int(sp.numer(c)), int(sp.denom(c)))
                   for c in reversed(cs))


def mq(p) -> tuple:
    """meromat Poly -> qpoly tuple."""
    return qp.norm(Fraction(c.re.numerator, c.re.denominator)
                   for c in p.coeffs)


def frac(expr) -> tuple:
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    return qp.rf(to_q(num), to_q(den))


def kmat(grid) -> DomainMatrix:
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    return DomainMatrix([[K.from_sympy(sp.sympify(e)) for e in row]
                         for row in grid], (rows, cols), K)


def kq(x) -> tuple:
    """Element of Q(z) -> reduced (num, den) qpoly pair."""
    return frac(K.to_sympy(x))


def eye(n):
    return [[sp.Integer(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[sp.Integer(0)] * c for _ in range(r)]


def block(rows):
    out = []
    for brow in rows:
        for i in range(len(brow[0])):
            out.append([e for b in brow for e in b[i]])
    return out


def neg(grid):
    return [[-e for e in row] for row in grid]


# ---------------------------------------------------------------------------
# oracles


def inv_factors(grid) -> list:
    """Monic invariant factors of a polynomial matrix (sympy)."""
    out = invariant_factors(sp.Matrix(grid), domain=sp.QQ[Z])
    return [qp.monic(to_q(sp.sympify(f.as_expr() if hasattr(f, "as_expr")
                                     else f))) for f in out]


def minors_q(kgrid: DomainMatrix, k: int):
    rows, cols = kgrid.shape
    from itertools import combinations

    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            sub = kgrid.extract(list(ri), list(ci))
            yield kq(sub.det())


def minor_pole_data(kgrid: DomainMatrix):
    """(lcm of the denominators of all minors, largest pole order at
    infinity of any minor)."""
    lcm, at_inf = qp.ONE, 0
    for k in range(1, min(kgrid.shape) + 1):
        for num, den in minors_q(kgrid, k):
            if num:
                lcm = qp.lcm(lcm, den)
                at_inf = max(at_inf, qp.deg(num) - qp.deg(den))
    return lcm, at_inf


def local_exponents(kgrid: DomainMatrix, lam) -> tuple:
    """tau_k = delta_k - delta_{k-1}, delta_k the least order at lam of
    the nonzero k x k minors."""
    lam = Fraction(lam)
    out, prev = [], 0
    for k in range(1, min(kgrid.shape) + 1):
        orders = [qp.multiplicity(n, lam) - qp.multiplicity(d, lam)
                  for n, d in minors_q(kgrid, k) if n]
        if not orders:
            break
        out.append(min(orders) - prev)
        prev = min(orders)
    return tuple(out)


def amd_blocks(text):
    b = read_doc(text)
    a, bb = sym_grid(b["tl"]), sym_grid(b["tr"])
    c, d = neg(sym_grid(b["bl"])), sym_grid(b["br"])
    return a, bb, c, d


def transfer(a, b, c, d) -> DomainMatrix:
    return kmat(d) + kmat(c) * kmat(a).inv() * kmat(b)


def sym_amd(H):
    return sym_mat(H.A), sym_mat(H.B), sym_mat(H.C), sym_mat(H.D)


def system(a, b, c, d):
    return block([[a, b], [neg(c), d]])


def check_fse(h1, h2, w):
    """[[M, 0], [X, I]] P1 == P2 [[N, Y], [0, I]] with P the system
    matrices, re-multiplied over Q(z)."""
    a1, b1, c1, d1 = h1
    a2, b2, c2, d2 = h2
    m, n, r = len(c1), len(b1[0]), len(a1)
    ell = len(a2)
    left = kmat(block([[w[0], zeros(ell, m)], [w[2], eye(m)]])) \
        * kmat(system(*h1))
    right = kmat(system(*h2)) \
        * kmat(block([[w[1], w[3]], [zeros(n, r), eye(n)]]))
    expect(left == right, "equivalence witness identity fails")


def polys_equal_mod(lhs, rhs, degree):
    """lhs(x), rhs(x): callables returning values modulo qpoly.PRIME.
    Equal at degree + 1 points means equal as polynomials modulo PRIME."""
    return all(lhs(x) == rhs(x) for x in range(1, degree + 2))


def mod_grid(grid):
    return [[qp.mod_poly(e) for e in row] for row in grid]


def at(mgrid, x):
    return [[qp.mod_eval(e, x) for e in row] for row in mgrid]


def maxdeg(grid):
    return max((qp.deg(e) for row in grid for e in row), default=0)


def is_unit_det(grid) -> bool:
    """det is a nonzero constant: the same nonzero value modulo PRIME at
    more points than its degree bound."""
    bound = len(grid) * max(maxdeg(grid), 0)
    mg = mod_grid(grid)
    vals = {qp.mod_det(at(mg, x)) for x in range(1, bound + 2)}
    return len(vals) == 1 and 0 not in vals


def q_grid(M):
    return [[mq(e) for e in row] for row in M.entries]


def product_check(target, factors, what):
    degree = maxdeg(target) + sum(maxdeg(f) for f in factors)
    mt = mod_grid(target)
    mfs = [mod_grid(f) for f in factors]

    def lhs(x):
        out = at(mfs[0], x)
        for f in mfs[1:]:
            out = qp.mod_matmul(out, at(f, x))
        return out

    expect(polys_equal_mod(lambda x: at(mt, x), lhs, degree), what)


def count_inside(roots, cx, cy, r):
    c = complex(cx, cy)
    return sum(1 for z in roots if abs(z - c) < r)


def rat_count_oracle(grid, circle) -> int:
    """Zeros minus poles of det M inside the circle, from numpy roots of
    the numerator and denominator of the sympy determinant."""
    num, den = frac(sp.Matrix(grid).det())
    zs = np.roots(qp.complex_coeffs(num)) if qp.deg(num) > 0 else []
    ps = np.roots(qp.complex_coeffs(den)) if qp.deg(den) > 0 else []
    return count_inside(zs, *circle) - count_inside(ps, *circle)


# ---------------------------------------------------------------------------
# per-operation checks


def check_smith(spec, res, text):
    dec, (H, U), d = res
    a = [[to_q(e) for e in row] for row in sym_grid(read_doc(text)["m"])]
    n = len(a)
    got = [mq(f) for f in dec.invariant_factors]
    expect(got == inv_factors([[sym(e) for e in row]
                               for row in read_doc(text)["m"]]),
           "invariant factors differ from sympy")
    S = q_grid(dec.S)
    expect(all(not S[i][j] for i in range(n) for j in range(n) if i != j)
           and [S[i][i] for i in range(n)] == got, "S is not diag(factors)")
    E, F = q_grid(dec.E), q_grid(dec.F)
    product_check(a, [E, S, F], "E S F != A")
    expect(is_unit_det(E) and is_unit_det(F), "det E or det F not a unit")
    h, u = q_grid(H), q_grid(U)
    product_check(h, [u, a], "H != U A")
    expect(is_unit_det(u), "det U not a unit")
    for j in range(n):
        expect(h[j][j] == qp.monic(h[j][j]) and all(
            not h[i][j] for i in range(j + 1, n)) and all(
            qp.deg(h[i][j]) < qp.deg(h[j][j]) for i in range(j)),
            "H is not in Hermite form")
    dq, ma = qp.mod_poly(mq(d)), mod_grid(a)
    expect(polys_equal_mod(lambda x: qp.mod_eval(dq, x),
                           lambda x: qp.mod_det(at(ma, x)),
                           n * maxdeg(a)), "det differs")


def check_amd_op(spec, res, docs):
    kind = spec["kind"]
    h = amd_blocks(docs[spec["doc"]])
    if kind == "least_order_check":
        g = transfer(*h)
        lcm, _ = minor_pole_data(g)
        expect(res.irreducible and res.is_least, "irreducible AMD reported "
               "reducible")
        expect(mq(res.transfer_least_order.zeros) == lcm
               and mq(res.transfer_least_order.poles) == qp.ONE,
               "least order of the transfer function")
        det_a = qp.monic(to_q(sp.Matrix(h[0]).det()))
        expect(mq(res.order.zeros) == det_a, "order of the AMD != det A")
    elif kind in ("to_rmf", "to_lmf"):
        s, w = res
        hs = sym_amd(s)
        expect(transfer(*hs) == transfer(*h), f"{kind} changed the transfer")
        check_fse(h, hs, [sym_mat(w.M), sym_mat(w.N), sym_mat(w.X),
                          sym_mat(w.Y)])
    elif kind == "decouple":
        a, b, c, _ = h
        red = sym_amd(res.reduced)
        expect(transfer(*red) == transfer(*h), "decouple changed transfer")
        r = len(a)
        qa = [[to_q(e) for e in row] for row in a]
        qb = [[to_q(e) for e in row] for row in b]
        qc = [[to_q(e) for e in row] for row in c]
        inp = qp.minor_gcd([x + y for x, y in zip(qa, qb)], r)
        out = qp.minor_gcd(qa + qc, r)
        expect(mq(res.input_decoupling.zeros) == inp, "input decoupling")
        expect(mq(res.output_decoupling.zeros) == out, "output decoupling")
        lam_in, lam_out = spec["planted"]
        expect(qp.multiplicity(inp, lam_in) >= 1
               and qp.multiplicity(out, lam_out) >= 1, "planted zeros")
        ra = [[to_q(e) for e in row] for row in red[0]]
        rb = [[to_q(e) for e in row] for row in red[1]]
        rc = [[to_q(e) for e in row] for row in red[2]]
        rr = len(ra)
        expect(qp.minor_gcd([x + y for x, y in zip(ra, rb)], rr) == qp.ONE
               and qp.minor_gcd(ra + rc, rr) == qp.ONE, "reduced AMD reducible")
        want = np.roots(qp.complex_coeffs(qp.lcm(inp, out)))
        got = sorted((h_.approx for h_ in res.decoupling),
                     key=lambda v: (round(v.real, 6), round(v.imag, 6)))
        want = sorted(want, key=lambda v: (round(v.real, 6), round(v.imag, 6)))
        expect(len(got) == len(want) and all(
            abs(x - y) < 1e-6 for x, y in zip(got, want)), "decoupling set")
    elif kind == "equate":
        expect(res is not None, "equivalent AMDs reported inequivalent")
        h2 = amd_blocks(docs[spec["doc2"]])
        check_fse(h, h2, [sym_mat(res.M), sym_mat(res.N), sym_mat(res.X),
                          sym_mat(res.Y)])


def check_rat_op(spec, res, text):
    kind = spec["kind"]
    grid = sym_grid(read_doc(text)["m"])
    km = kmat(grid)
    if kind == "smith_mcmillan":
        d = qp.ONE
        for row in grid:
            for e in row:
                d = qp.lcm(d, frac(e)[1])
        dsym = sum(sp.Rational(c.numerator, c.denominator) * Z ** k
                   for k, c in enumerate(d))
        cleared = [[sp.cancel(e * dsym) for e in row] for row in grid]
        want = [qp.rf(s, d) for s in inv_factors(cleared)]
        got = [(mq(p), mq(q)) for p, q in zip(res.zero_factors,
                                             res.pole_factors)]
        expect(got == [(qp.monic(p), q) for p, q in want],
               "Smith-McMillan factors differ from sympy")
        s_diag = [[qp.divmod_(qp.mul(p, d), q)[0]
                   if i == j else qp.ZERO for j in range(len(grid[0]))]
                  for i, (p, q) in enumerate(got)]
        product_check([[to_q(e) for e in row] for row in cleared],
                      [q_grid(res.E), s_diag, q_grid(res.F)],
                      "E diag F != d M")
        expect(is_unit_det(q_grid(res.E)) and is_unit_det(q_grid(res.F)),
               "E or F not unimodular")
    elif kind == "least_order":
        lcm, _ = minor_pole_data(km)
        expect(mq(res.zeros) == lcm and mq(res.poles) == qp.ONE,
               "least order != lcm of minor denominators")
    elif kind == "mcmillan_degree":
        lcm, at_inf = minor_pole_data(km)
        expect(res == qp.deg(lcm) + at_inf, "McMillan degree")
    elif kind in ("right_mfd", "left_mfd"):
        n, d = kmat(sym_mat(res.N)), kmat(sym_mat(res.D))
        prod = km * d if kind == "right_mfd" else d * km
        expect(prod == n, "N != M D (or D M)")
        lcm, _ = minor_pole_data(km)
        expect(res.coprime and qp.monic(kq(d.det())[0]) == lcm,
               "MFD is not coprime of least order")
    elif kind in ("pole_zero_index", "local_indices"):
        expect(tuple(res.values) == local_exponents(km, spec["point"]),
               "indices differ from the orders of minors")


def check_numeric(spec, res, text):
    kind = spec["kind"]
    if kind == "tds_pole_count":
        expect(res.n_minus_p == spec["expect"], "pole count")
    elif kind == "count":
        grid = sym_grid(read_doc(text)["m"])
        expect(res.n_minus_p == rat_count_oracle(grid, spec["circle"]),
               "argument-principle count")
    elif kind in ("roots", "roots_limited"):
        check_roots([(z, m) for z, m in res], spec["roots"])


def check_roots(found, roots):
    want = [complex(float(Fraction(x)), float(Fraction(y)))
            for x, y in roots]
    found = sorted(found, key=lambda zm: (round(zm[0].real, 4),
                                          round(zm[0].imag, 4)))
    want = sorted(want, key=lambda v: (round(v.real, 4), round(v.imag, 4)))
    expect(len(found) == len(want) and all(
        m == 1 and abs(z - w) < 1e-5 for (z, m), w in zip(found, want)),
        "roots differ from the independently computed ones")


def check_cli(spec, res, docs):
    code, stdout = res
    expect(code == 0, f"exit code {code}")
    doc = json.loads(stdout)
    what = spec["check"]
    text = docs.get(spec.get("doc"))
    if what == "smith":
        grid = [[sym(e) for e in row] for row in read_doc(text)["m"]]
        expect([to_q(sym(f)) for f in doc["invariant_factors"]]
               == inv_factors(grid), "cli smith factors")
    elif what in ("smith_mcmillan", "least_order", "mfd", "local_indices",
                  "count"):
        grid = sym_grid(read_doc(text)["m"])
        km = kmat(grid)
        lcm, at_inf = minor_pole_data(km)
        if what == "smith_mcmillan":
            psi = qp.ONE
            for f in doc["pole_factors"]:
                psi = qp.mul(psi, to_q(sym(f)))
            expect(psi == lcm, "cli pole factors")
        elif what == "least_order":
            expect(to_q(sym(doc["least_order"]["zeros"])) == lcm
                   and doc["total"] == qp.deg(lcm)
                   and doc["mcmillan_degree"] == qp.deg(lcm) + at_inf,
                   "cli least order")
        elif what == "mfd":
            n, d = kmat(sym_grid(doc["N"])), kmat(sym_grid(doc["D"]))
            expect((km * d if doc["side"] == "right" else d * km) == n,
                   "cli mfd")
        elif what == "local_indices":
            expect(tuple(doc["indices"]) == local_exponents(km, spec["point"]),
                   "cli local indices")
        else:
            expect(doc["n_minus_p"] == rat_count_oracle(grid, spec["circle"]),
                   "cli count")
    elif what in ("amd_check", "amd_form", "amd_reduce", "amd_equate"):
        h = amd_blocks(text)
        if what == "amd_check":
            expect(doc["irreducible"] and doc["is_least"], "cli amd check")
        elif what == "amd_equate":
            h2 = amd_blocks(docs[spec["doc2"]])
            w = doc["witness"]
            expect(doc["equivalent"], "cli amd equate")
            check_fse(h, h2, [sym_grid(w[k]) for k in ("M", "N", "X", "Y")])
        else:
            blocks = doc["system"] if what == "amd_form" else doc["reduced"]
            hs = tuple(sym_grid(blocks[k]) for k in ("A", "B", "C", "D"))
            expect(transfer(*hs) == transfer(*h), "cli amd transfer")
    elif what == "tds_build":
        expect(len(doc["amd"]["A"]) == int(read_doc_dims(text)),
               "cli tds build")
    elif what == "tds_poles":
        expect(doc["n_minus_p"] == spec["expect"], "cli tds poles")
    elif what == "roots":
        check_roots([(complex(r["re"], r["im"]), r["multiplicity"])
                     for r in doc["roots"]], spec["roots"])


def read_doc_dims(text):
    for line in text.splitlines():
        if line.startswith("dims "):
            return line.split()[1]
    raise Mismatch("no dims line")


def check(bundle, results) -> list:
    docs = bundle["docs"]
    problems = []
    for i, (spec, res) in enumerate(zip(bundle["ops"], results)):
        if isinstance(res, BaseException) or isinstance(res, type):
            continue
        kind = spec["kind"]
        try:
            if kind == "smith":
                check_smith(spec, res, docs[spec["doc"]])
            elif kind in ("least_order_check", "to_rmf", "to_lmf",
                          "decouple", "equate"):
                check_amd_op(spec, res, docs)
            elif kind in ("smith_mcmillan", "least_order", "mcmillan_degree",
                          "right_mfd", "left_mfd", "pole_zero_index",
                          "local_indices"):
                check_rat_op(spec, res, docs[spec["doc"]])
            elif kind in ("tds_pole_count", "count", "roots",
                          "roots_limited"):
                check_numeric(spec, res, docs.get(spec["doc"]))
            elif kind == "cli":
                check_cli(spec, res, docs)
        except Mismatch as exc:
            problems.append(f"op {i} {kind} {spec.get('doc', '')}: {exc}")
    return problems
