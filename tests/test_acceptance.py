"""End-to-end acceptance suite: every core guarantee of the library,
checked against independent oracles at desk scale."""

import math
import random

import numpy as np
import pytest

from genutil import (
    local_exponent_oracle,
    minor_gcd,
    rand_irreducible_amd,
    rand_left_coprime_amd,
    rand_polymat,
    rand_ratmat,
    rand_regular_polymat,
    rand_unimodular,
    transformed_realization,
)
from meromat import linalg_exact, polymat, ratmat, sysmat
from meromat.errors import AnalysisError, ContourError, ParseError
from meromat.exactalg import QQ, GaussRat, Poly, RatFn, poly_gcd
from meromat.frontio import files, parse_entry
from meromat.holomat import (
    Contour,
    QuasiPolyEntry,
    QuasiPolyMat,
    TdsData,
    count_zeros_minus_poles,
    local_indices,
    roots_in_region,
    tds_pole_count,
)
from meromat.polymat import PolyMat, smith_form
from meromat.ratmat import (
    Divisor,
    Mfd,
    RatMat,
    least_order,
    left_coprime_mfd,
    mfd_unit_relator,
    poly_roots,
    right_coprime_mfd,
    smith_mcmillan,
)
from meromat.sysmat import (
    Amd,
    amd_order,
    decouple,
    equate_irreducible,
    to_rmf,
    transfer_function,
    verify_fse,
)

Z = Poly.z()
ONE = Poly.one()
ZERO = Poly.zero()


# 1. Smith form against the determinantal-divisor oracle


def test_smith_form_oracle_suite():
    rng = random.Random(101)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = rand_polymat(rng, rows, cols, 3)
        dec = smith_form(a)
        assert dec.E @ dec.S @ dec.F == a
        assert polymat.is_unimodular(dec.E)
        assert polymat.is_unimodular(dec.F)
        prod = ONE
        for k, phi in enumerate(dec.invariant_factors, start=1):
            if k > 1:
                assert dec.invariant_factors[k - 2].divides(phi)
            prod = prod * phi
            assert minor_gcd(a, k) == prod.monic()


# 2. Smith-McMillan form and structural indices


def test_smith_mcmillan_and_index_suite():
    rng = random.Random(102)
    for _ in range(100):
        m = rand_ratmat(rng, rng.randint(1, 3), rng.randint(1, 3))
        dec = smith_mcmillan(m)
        assert dec.reconstruct() == m
        for phi, psi in zip(dec.zero_factors, dec.pole_factors):
            assert poly_gcd(phi, psi).is_constant
        for a, b in zip(dec.zero_factors, dec.zero_factors[1:]):
            assert a.divides(b)
        for a, b in zip(dec.pole_factors, dec.pole_factors[1:]):
            assert b.divides(a)
        # indices at every rational structural point match the brute-force
        # minor-order oracle
        structure = dec.phi_total * dec.psi_total
        if structure.is_constant:
            continue
        for handle, _ in poly_roots(structure):
            if not handle.is_exact:
                continue
            lam = handle.exact
            got = ratmat.pole_zero_index(m, lam).values
            assert got == local_exponent_oracle(m, lam)


# 3. Coprime MFDs, the unit relator, and least order


def test_mfd_suite():
    rng = random.Random(103)
    for _ in range(50):
        m = rand_ratmat(rng, 2, 2)
        right = right_coprime_mfd(m)
        left = left_coprime_mfd(m)
        assert right.coprime and left.coprime
        assert right.transfer() == m
        assert left.transfer() == m
        # construct-and-recover: a planted unimodular factor is returned
        v = rand_unimodular(rng, 2)
        planted = Mfd(N=right.N @ v, D=right.D @ v, side="right",
                      coprime=True)
        assert mfd_unit_relator(planted, right) == v
        # least order read off either side agrees
        nu = least_order(m)
        assert right.order_divisor() == nu
        assert left.order_divisor() == nu
        # a non-unimodular planted factor strictly inflates the order
        w = PolyMat([[Z - ONE, ZERO], [ZERO, ONE]])
        bloated = Mfd(N=right.N @ w, D=right.D @ w, side="right",
                      coprime=False)
        assert nu < bloated.order_divisor()


# 4. System equivalence witnesses


def test_amd_equivalence_suite():
    rng = random.Random(104)
    for _ in range(50):
        h = rand_left_coprime_amd(rng)
        s, w = to_rmf(h)
        assert verify_fse(h, s, w)
    for _ in range(10):
        h1 = rand_irreducible_amd(rng)
        h2 = transformed_realization(rng, h1)
        assert transfer_function(h1) == transfer_function(h2)
        w = equate_irreducible(h1, h2)
        assert w is not None
        assert verify_fse(h1, h2, w)
        assert amd_order(h1) == amd_order(h2)


# 5. Canonical Smith forms of irreducible AMDs


def test_canonical_form_suite():
    rng = random.Random(105)
    for _ in range(30):
        h = rand_irreducible_amd(rng, r=2, m=rng.randint(1, 2),
                                 n=rng.randint(1, 2))
        dec = smith_mcmillan(transfer_function(h))
        p = dec.nrank
        r = h.state_dim
        # state block: r - p units then the pole factors in reverse
        expected_a = tuple([ONE] * (r - p)) + tuple(dec.pole_factors[::-1])
        got_a = smith_form(h.A).invariant_factors
        assert tuple(f.monic() for f in got_a) == expected_a
        # full system matrix: r units then the zero factors
        expected_h = tuple([ONE] * r) + tuple(dec.zero_factors)
        got_h = smith_form(h.system_matrix()).invariant_factors
        assert tuple(f.monic() for f in got_h) == expected_h


# 6. Decoupling zeros


def test_decoupling_suite():
    rng = random.Random(106)
    for _ in range(20):
        core = rand_irreducible_amd(rng)
        ql = rand_regular_polymat(rng, core.state_dim, 1)
        planted = Amd(A=ql @ core.A, B=ql @ core.B, C=core.C, D=core.D)
        rep = decouple(planted)
        assert sysmat.is_irreducible(rep.reduced)
        assert transfer_function(rep.reduced) == transfer_function(planted)
        # recovered sets are exactly the sigma(Q_L)/sigma(Q_R) point sets
        sigma_ql = Divisor.of_zeros(polymat.det(rep.QL)).points()
        sigma_qr = Divisor.of_zeros(polymat.det(rep.QR)).points()
        assert rep.decoupling == frozenset(sigma_ql | sigma_qr)
        assert rep.input_decoupling.points() == sigma_ql
        assert (rep.io_decoupling
                == frozenset(rep.output_decoupling.points() - sigma_qr))
        # sigma(A) = poles of the transfer plus the decoupling set
        poles = least_order(transfer_function(planted)).points()
        assert amd_order(planted).points() == poles | rep.decoupling
    # worked example: input-decoupling zeros are exactly {1}
    h = Amd(A=PolyMat([[Z, ZERO], [ZERO, Z - ONE]]),
            B=PolyMat([[ONE], [ZERO]]), C=PolyMat([[ONE, ZERO]]),
            D=PolyMat.zeros(1, 1))
    rep = decouple(h)
    assert rep.input_decoupling == Divisor.of_zeros(Z - ONE)
    assert {p.approx for p in rep.input_decoupling.points()} == {1 + 0j}


# 7. Argument-principle counting against exact structure


class _DiagExample:
    """diag(z, (z-1)/(e^z - 1)) with its analytic derivative."""

    shape = (2, 2)

    def eval_many(self, zs):
        return self.eval_pair_many(zs)[0]

    def eval_pair_many(self, zs):
        z = np.asarray(zs, dtype=complex)
        ez = np.exp(z)
        den = ez - 1
        vals = np.zeros((len(z), 2, 2), dtype=complex)
        ders = np.zeros((len(z), 2, 2), dtype=complex)
        vals[:, 0, 0], vals[:, 1, 1] = z, (z - 1) / den
        ders[:, 0, 0], ders[:, 1, 1] = 1, (den - (z - 1) * ez) / den ** 2
        return vals, ders


def test_argument_principle_suite():
    rng = random.Random(107)
    checked = 0
    while checked < 50:
        m = rand_ratmat(rng, 2, 2)
        if linalg_exact.rank(m.entries) < 2:
            continue
        dec = smith_mcmillan(m)
        cx = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        radius = rng.uniform(0.4, 3.0)
        inside = lambda h: abs(h.approx - cx) < radius
        expected = 0
        if not dec.phi_total.is_constant:
            expected += sum(k for h, k in poly_roots(dec.phi_total)
                            if inside(h))
        if not dec.psi_total.is_constant:
            expected -= sum(k for h, k in poly_roots(dec.psi_total)
                            if inside(h))
        try:
            res = count_zeros_minus_poles(m, Contour.circle(cx, radius))
        except (ContourError, AnalysisError):
            continue
        assert res.n_minus_p == expected
        assert res.residual < 1e-6
        checked += 1
    # pinned transcendental example: zeros {0, 1}, poles {0} inside |z| = 2
    # give N - P = 1; inside |z| = 7 the poles 0, 2 pi i and -2 pi i join,
    # so N - P = 2 - 3 = -1
    ex = _DiagExample()
    assert count_zeros_minus_poles(ex, Contour.circle(0j, 2.0)).n_minus_p == 1
    assert count_zeros_minus_poles(ex, Contour.circle(0j, 7.0)).n_minus_p == -1


# 8. Time-delay systems


def test_delay_system_suite():
    # scalar state delay: the root of z - e^{-z}
    entry = QuasiPolyEntry([(Z, QQ(0)), (Poly.const(QQ(-1)), QQ(1))])
    roots = roots_in_region(QuasiPolyMat([[entry]]), (0.0, 1.0, -1.0, 1.0))
    assert len(roots) == 1 and roots[0][1] == 1
    assert abs(roots[0][0] - 0.567143) < 1e-6

    # control delays leave the characteristic roots at the eigenvalues of A0
    rng = random.Random(108)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 3)
        a0 = tuple(tuple(QQ(rng.randint(-3, 3)) for _ in range(n))
                   for _ in range(n))
        tau = QQ(rng.randint(1, 4), 2)
        data = TdsData(
            A0=a0,
            B_terms=(((tuple((QQ(1),) for _ in range(n))), tau),),
            C_terms=(((tuple(QQ(1) for _ in range(n)),), 0),),
        )
        cx = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        radius = rng.uniform(0.5, 4.0)
        eigs = np.linalg.eigvals(np.array(
            [[float(x) for x in row] for row in a0]))
        if any(abs(abs(e - cx) - radius) < 0.05 for e in eigs):
            continue
        expected = int(sum(1 for e in eigs if abs(e - cx) < radius))
        try:
            res = tds_pole_count(data, Contour.circle(cx, radius))
        except (ContourError, AnalysisError):
            continue
        assert res.n_minus_p == expected
        checked += 1

    # delayed input/output blocks do not move the zeros or poles: the
    # quasi-polynomial system matrix and its undelayed counterpart have the
    # same counts in every tested contour
    a_blk = PolyMat([[Z - ONE, ZERO], [ZERO, Z + ONE]])
    b_blk = PolyMat([[ONE], [ZERO]])
    c_blk = PolyMat([[ONE, ZERO]])
    s_full = PolyMat.block([[a_blk, b_blk], [-c_blk, PolyMat.zeros(1, 1)]])

    def delayed_entry(p, tau):
        return QuasiPolyEntry([(p, QQ(tau))])

    h_grid = [[delayed_entry(Z - ONE, 0), delayed_entry(ZERO, 0),
               delayed_entry(ONE, QQ(1, 2))],
              [delayed_entry(ZERO, 0), delayed_entry(Z + ONE, 0),
               delayed_entry(ZERO, 0)],
              [delayed_entry(-ONE, QQ(1, 3)), delayed_entry(ZERO, 0),
               delayed_entry(ZERO, 0)]]
    h_full = QuasiPolyMat(h_grid)
    for contour in (Contour.circle(0j, 0.5), Contour.circle(-1 + 0j, 0.7),
                    Contour.circle(0j, 3.0)):
        zeros_h = count_zeros_minus_poles(h_full, contour).n_minus_p
        zeros_s = count_zeros_minus_poles(
            RatMat.from_polymat(s_full), contour).n_minus_p
        assert zeros_h == zeros_s
        poles_h = count_zeros_minus_poles(
            QuasiPolyMat.from_polymat(a_blk), contour).n_minus_p
        poles_s = count_zeros_minus_poles(
            RatMat.from_polymat(a_blk), contour).n_minus_p
        assert poles_h == poles_s


# 9. Local indices from block-Toeplitz ranks


def test_local_indices_suite():
    rng = random.Random(109)
    checked = 0
    while checked < 50:
        p = rand_polymat(rng, 2, 2, 2)
        m = RatMat.from_polymat(p)
        if linalg_exact.rank(m.entries) < 2:
            continue
        lam = GaussRat(QQ(rng.randint(-2, 2)))
        exact = ratmat.pole_zero_index(m, lam).values
        if max(exact) > 9:
            continue
        got = local_indices(m, lam.to_complex(), kmax=12)
        assert got.values == exact
        checked += 1
    # pole-zero pair: diag(1/z, z) at the origin
    m = RatMat([[RatFn(ONE, Z), RatFn(0)], [RatFn(0), RatFn.coerce(Z)]])
    assert local_indices(m, 0).values == (-1, 1)


# 10. Parser and file IO


def _random_expression(rng, depth=0):
    choices = ["int", "z", "exp", "neg", "sum", "prod", "pow", "group"]
    if depth >= 3:
        choices = ["int", "z", "exp"]
    kind = rng.choice(choices)
    if kind == "int":
        if rng.random() < 0.3:
            return f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
        return str(rng.randint(0, 9))
    if kind == "z":
        return "z"
    if kind == "exp":
        if rng.random() < 0.5:
            return f"exp(-{rng.randint(0, 4)}*z)"
        return f"exp(-{rng.randint(0, 4)}/{rng.randint(1, 4)}*z)"
    if kind == "neg":
        return "-" + _random_expression(rng, depth + 1)
    if kind == "sum":
        op = rng.choice([" + ", " - "])
        return (_random_expression(rng, depth + 1) + op
                + _random_expression(rng, depth + 1))
    if kind == "prod":
        return (_random_expression(rng, depth + 1) + "*"
                + _random_expression(rng, depth + 1))
    if kind == "pow":
        base = _random_expression(rng, depth + 1)
        return f"({base})^{rng.randint(0, 3)}"
    return "(" + _random_expression(rng, depth + 1) + ")"


def test_parser_and_io_suite():
    rng = random.Random(110)
    parsed = 0
    while parsed < 1000:
        text = _random_expression(rng)
        e = parse_entry(text)
        parsed += 1
        rendered = str(e.value)
        again = parse_entry(rendered)
        assert again.kind == e.kind, (text, rendered)
        assert again.value == e.value, (text, rendered)

    # malformed inputs fail with a byte offset
    for text, offset in [("z +", 3), ("exp(2*z)", 4), ("(z", 2), ("@", 0)]:
        with pytest.raises(ParseError) as exc:
            parse_entry(text)
        assert exc.value.offset == offset

    # file round-trips are byte-exact
    texts = [
        "meromat/1 matrix\nkind polynomial\nsize 2 2\n"
        "row z ; 1\nrow 0 ; z^2 - 1\n",
        "meromat/1 amd\nring polynomial\ndims 2 1 1\nlayout standard\n"
        "block tl\nrow z ; 1\nrow 0 ; z\nblock tr\nrow 0\nrow 1\n"
        "block bl\nrow -1 ; 0\nblock br\nrow 0\n",
        "meromat/1 tds\ndims 1 1 1\nmatrix A0\nrow 0\nmatrix A 1\n"
        "row -1\nmatrix B 0\nrow 1\nmatrix C 0\nrow 1\n",
    ]
    for text in texts:
        assert files.dumps(files.loads(text)) == text
