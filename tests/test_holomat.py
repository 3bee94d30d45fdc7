import math
import operator
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meromat
from genutil import rand_ratfn, rand_ratmat
from meromat import holomat, linalg_exact, ratmat
from meromat.errors import (
    AmbiguousRankError,
    AnalysisError,
    ContourError,
    ConvergenceError,
    InputError,
    RankDeficientError,
    SingularMatrixError,
)
from meromat.exactalg import QQ, Poly, RatFn, real_factor
from meromat.holomat import (
    Contour,
    QuasiPolyEntry,
    QuasiPolyMat,
    TdsData,
    as_evaluable,
    build_tds_amd,
    count_zeros_minus_poles,
    local_indices,
    nrank_sampled,
    regional_coprime,
    roots_in_region,
    tds_pole_count,
    tds_state_block,
)
from meromat.polymat import PolyMat
from meromat.ratmat import RatMat
from meromat.sysmat import Amd, is_irreducible, transfer_function

Z = Poly.z()
ONE = Poly.one()
# the directory that holds the imported package, for child interpreters
PACKAGE_ROOT = str(Path(meromat.__file__).resolve().parents[1])


def qp(terms):
    return QuasiPolyEntry(terms)


class TestQuasiPolyEntry:
    def test_merge_and_sort(self):
        e = qp([(ONE, QQ(1)), (Z, QQ(0)), (ONE, QQ(1))])
        assert e.terms == ((Z, QQ(0)), (Poly.const(QQ(2)), QQ(1)))

    def test_arithmetic(self):
        a = qp([(Z, QQ(0))])
        b = qp([(ONE, QQ(2))])
        prod = a * b
        assert prod.terms == ((Z, QQ(2)),)
        assert (a + b - b) == a

    def test_negative_delay_rejected(self):
        with pytest.raises(InputError):
            qp([(ONE, QQ(-1))])

    def test_polynomial_operand_first(self):
        q = qp([(ONE, QQ(0)), (Z, QQ(1, 2))])
        assert Z + q == q + Z and Z * q == q * Z
        assert Z - q == -(q - Z)
        assert 2 - q == qp([(ONE, QQ(0)), (-Z, QQ(1, 2))])

    @pytest.mark.parametrize("op, sign", [(operator.add, "+"),
                                          (operator.sub, "-"),
                                          (operator.mul, "*"),
                                          (operator.truediv, "/")])
    def test_rational_operand_is_unsupported(self, op, sign):
        # neither ring holds the other: Python's own message, either order
        q = qp([(ONE, QQ(0)), (Z, QQ(1, 2))])
        f = RatFn(ONE, Z)
        for a, b in ((q, f), (f, q)):
            with pytest.raises(TypeError, match=re.escape(
                    f"unsupported operand type(s) for {sign}: "
                    f"'{type(a).__name__}' and '{type(b).__name__}'")):
                op(a, b)
        if sign == "/":
            return  # the quasi-polynomial ring has no division
        # a polynomial, an int or a rational still lifts into either ring
        for c in (Z, 2, QQ(1, 2)):
            assert op(q, c) == op(q, qp([(Poly.coerce(c), QQ(0))]))
            assert op(c, f) == op(RatFn(c), f)

    def test_text(self):
        q = qp([(ONE, QQ(0)), (-Z, QQ(1, 2))])
        assert str(q) == "1 + (-z)*exp(-1/2*z)"
        assert repr(q) == f"QuasiPolyEntry({q})"
        assert str(QuasiPolyEntry()) == "0"

    def test_eval_and_derivative(self):
        e = qp([(Z, QQ(0)), (ONE, QQ(1))])  # z + e^{-z}
        z0 = 0.3 + 0.1j
        expected = z0 + np.exp(-z0)
        assert abs(e(z0) - expected) < 1e-12
        d = e.derivative()
        assert abs(d(z0) - (1 - np.exp(-z0))) < 1e-12

    def test_overflow_guard(self):
        e = qp([(ONE, QQ(2))])
        with pytest.raises(AnalysisError):
            e(complex(-400, 0))


MATRIX_TYPES = [PolyMat, RatMat, QuasiPolyMat]
POINTS = [0.3 + 0.1j, -1.2 + 0.7j, 2.0 - 0.5j]


def sample_grid():
    return [[Z * Z - ONE, Z], [Poly.const(QQ(3)), Z * Z * Z]]


class TestDenseMat:
    def test_no_rows_to_polymat(self):
        assert QuasiPolyMat([], 3).to_polymat() == PolyMat([], 3)

    @pytest.mark.parametrize("cls", MATRIX_TYPES)
    def test_ragged_rejected(self, cls):
        with pytest.raises(InputError):
            cls([[ONE, Z], [ONE]])

    @pytest.mark.parametrize("cls", MATRIX_TYPES)
    def test_immutable(self, cls):
        m = cls(sample_grid())
        with pytest.raises(AttributeError):
            m.rows = 3
        with pytest.raises(AttributeError):
            m.extra = 1

    @pytest.mark.parametrize("cls", MATRIX_TYPES)
    def test_equality_is_per_class(self, cls):
        m = cls(sample_grid())
        twin = cls(sample_grid())
        assert m == twin and hash(m) == hash(twin)
        for other in MATRIX_TYPES:
            if other is not cls:
                assert m != other(sample_grid())

    @pytest.mark.parametrize("cls", MATRIX_TYPES)
    def test_identity_is_neutral(self, cls):
        m = cls(sample_grid())
        assert cls.identity(2) @ m == m
        assert m @ cls.identity(2) == m

    def test_polymat_evaluates_like_ratmat(self):
        p = PolyMat(sample_grid())
        r = RatMat.from_polymat(p)
        for z in POINTS:
            assert (p.eval(z) == r.eval(z)).all()
            assert (p.eval_pair_many([z])[1][0]
                    == r.eval_pair_many([z])[1][0]).all()

    def test_quasipoly_derivative_is_cached_and_exact(self):
        # the exact derivative, within rounding; the kept form gives the
        # same bits again
        m = QuasiPolyMat([[qp([(Z, QQ(0)), (ONE, QQ(1))]), Z],
                          [qp([(Z * Z, QQ(1, 2))]), ONE]])
        first = [m.eval_pair_many([z])[1][0] for z in POINTS]
        for z, got in zip(POINTS, first):
            for i, row in enumerate(m.entries):
                for j, e in enumerate(row):
                    assert_rounded(got[i, j], e.derivative(), z)
        for z, got in zip(POINTS, first):
            assert (bits(m.eval_pair_many([z])[1][0]) == bits(got)).all()


def rand_rpoly(rng, max_deg):
    """Polynomial with rational coefficients; zero about one time in six."""
    if rng.random() < 1 / 6:
        return Poly.zero()
    return Poly([QQ(rng.randint(-9, 9), rng.randint(1, 7))
                 for _ in range(rng.randint(0, max_deg) + 1)])


def rand_entry(rng, cls):
    if cls is PolyMat:
        return rand_rpoly(rng, 4)
    if cls is RatMat:
        while True:
            den = rand_rpoly(rng, rng.choice((0, 3)))  # constant or not
            if not den.is_zero:
                return RatFn(rand_rpoly(rng, 3), den)
    return qp([(rand_rpoly(rng, 3), QQ(rng.randint(0, 6), rng.randint(1, 3)))
               for _ in range(rng.randint(0, 3))])


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


# A computed value lies within ROUNDING_C * 2^-53 * S of the exact value:
# S is the entry evaluated with absolute coefficients at |z| (Horner's
# forward error bound, Higham, Accuracy and Stability of Numerical
# Algorithms, section 5.1), each delay term weighted by 1 + |tau z| for the
# rounding of its exponent, and for a quotient num/den it is
# (S_num + |value| S_den) / |den(z)|. Complex Horner of degree d gains at
# most about (1 + sqrt 5) d roundings, and the degrees here stay below 8.
ROUNDING_C = 32


def exact_poly(p, z, mpmath):
    """(p(z), S) to 50 digits."""
    zm = mpmath.mpc(z)
    cs = [mpmath.mpf(x) / p.den for x in p.nums]
    return (sum((c * zm ** d for d, c in enumerate(cs)), mpmath.mpf(0)),
            sum((abs(c) * abs(zm) ** d for d, c in enumerate(cs)),
                mpmath.mpf(0)))


def exact_entry(e, z, mpmath):
    """(e(z), S) of a Poly, RatFn or QuasiPolyEntry to 50 digits."""
    if isinstance(e, Poly):
        return exact_poly(e, z, mpmath)
    if isinstance(e, RatFn):
        (n, sn), (d, sd) = exact_poly(e.num, z, mpmath), \
            exact_poly(e.den, z, mpmath)
        return n / d, (sn + abs(n / d) * sd) / abs(d)
    value = scale = mpmath.mpf(0)
    for p, tau in e.terms:
        v, sp = exact_poly(p, z, mpmath)
        arg = -mpmath.mpf(tau.numerator) / tau.denominator * mpmath.mpc(z)
        value += v * mpmath.exp(arg)
        scale += sp * abs(mpmath.exp(arg)) * (1 + abs(arg))
    return value, scale


def assert_rounded(got, e, z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want, scale = exact_entry(e, z, mpmath)
        assert abs(mpmath.mpc(complex(got)) - want) \
            <= ROUNDING_C * mpmath.mpf(2) ** -53 * scale


class TestBatchedEval:
    """eval_many and eval_pair_many against the exact entries, within the
    rounding bound ROUNDING_C."""

    def check_rounded(self, m, zs):
        vals, ders = m.eval_many(zs), m.eval_pair_many(zs)[1]
        assert vals.shape == ders.shape == (len(zs),) + m.shape
        for k, z in enumerate(zs):
            for i, row in enumerate(m.entries):
                for j, e in enumerate(row):
                    assert_rounded(vals[k, i, j], e, z)
                    assert_rounded(ders[k, i, j], e.derivative(), z)
        return vals, ders

    @pytest.mark.parametrize("cls", MATRIX_TYPES)
    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (3, 1), (0, 2),
                                       (2, 0)])
    def test_bit_identical_to_entries(self, cls, shape):
        # the exact entries within rounding; one node alone, bit for bit
        # as in the vector
        rows, cols = shape
        rng = random.Random(f"{cls.kind}/{rows}x{cols}")
        for _ in range(6):
            m = cls([[rand_entry(rng, cls) for _ in range(cols)]
                     for _ in range(rows)], cols)
            zs = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                  for _ in range(rng.randint(1, 9))]
            vals, ders = self.check_rounded(m, zs)
            for k, z in enumerate(zs):
                assert (bits(m.eval(z)) == bits(vals[k])).all()
                assert (bits(m.eval_pair_many([z])[1][0])
                        == bits(ders[k])).all()

    def test_several_delays_and_zero_entries(self):
        m = QuasiPolyMat([[qp([(Z, QQ(0)), (ONE, QQ(1)), (Z * Z, QQ(5, 2))]),
                           qp([])],
                          [qp([(Poly.const(QQ(-1, 3)), QQ(7, 4))]),
                           qp([(Z - ONE, QQ(1))])]])
        vals, _ = self.check_rounded(
            m, [0.3 + 0.1j, -1.2 + 0.7j, 2.0 - 0.5j, -0.5 - 3j])
        assert not bits(vals[:, 0, 1]).any()  # the zero entry is +0j

    def test_overflow_raises_alike(self):
        e = qp([(ONE, QQ(2))])
        m = QuasiPolyMat([[qp([(Z, QQ(0))]), e]])
        z = complex(-400, 0)
        with pytest.raises(AnalysisError) as single:
            m.eval(z)
        with pytest.raises(AnalysisError) as batch:
            m.eval_many([0.5 + 0j, z])
        with pytest.raises(AnalysisError) as entry:
            e(z)
        assert str(single.value) == str(batch.value) == str(entry.value)

    def test_exact_pole_raises(self):
        m = RatMat([[RatFn(ONE, Z - ONE)]])
        with pytest.raises(AnalysisError):
            m.eval_many([0j, 1 + 0j])
        with pytest.raises(AnalysisError):
            m.eval(1)

    def test_transfer_closure_batches(self):
        data = TdsData(A0=((0, 1), (-1, 0)),
                       A_delayed=((((0, 0), (QQ(1, 2), 0)), 1),),
                       B_terms=((((1,), (0,)), QQ(1, 3)),),
                       C_terms=((((1, 2),), 0),))
        ev = transfer_function(build_tds_amd(data))
        zs = [0.3 + 0.1j, -1.2 + 0.7j, 2.0 - 0.5j]
        vals, ders = ev.eval_many(zs), ev.eval_pair_many(zs)[1]
        assert vals.shape == ders.shape == (3, 1, 1)
        h = 1e-6
        for k, z in enumerate(zs):
            assert np.allclose(vals[k], ev.eval(z))
            slope = (ev.eval(z + h) - ev.eval(z - h)) / (2 * h)
            assert np.allclose(ders[k], slope, atol=1e-7)


README_TDS = TdsData(A0=((0, 1), (-1, 0)),
                     A_delayed=((((0, 0), (QQ(1, 2), 0)), 1),),
                     B_terms=((((1,), (0,)), 0),),
                     C_terms=((((1, 0),), 0),))


class TestNoEntryCalls:
    """The numerics evaluate compiled matrices, never entry by entry."""

    @pytest.fixture
    def no_entry_calls(self, monkeypatch):
        def refuse(self, z):
            raise AssertionError("entry-by-entry evaluation")

        for cls in (Poly, RatFn, QuasiPolyEntry):
            monkeypatch.setattr(cls, "__call__", refuse)

    @pytest.mark.parametrize("cls", MATRIX_TYPES)
    def test_numerics(self, cls, no_entry_calls):
        m = cls([[Z * (Z - ONE), ONE], [ONE * 0, Z + ONE]])
        assert count_zeros_minus_poles(
            m, Contour.circle(0j, 2.0)).n_minus_p == 3
        roots = roots_in_region(m, (-1.5, 1.5, -0.5, 0.5))
        assert [(round(z.real, 6), k) for z, k in roots] == \
            [(-1.0, 1), (0.0, 1), (1.0, 1)]
        assert local_indices(m, 0).values == (0, 1)

    def test_tds_pole_count(self, no_entry_calls):
        assert tds_pole_count(README_TDS,
                              Contour.circle(0j, 3.0)).n_minus_p == 3


class TestCounting:
    def test_evaluation_counts(self):
        # 256 boundary samples, then 59 Gauss-Legendre panels of 16 nodes,
        # as the reference recursion of TestBatchedQuadrature counts them
        res = tds_pole_count(README_TDS, Contour.circle(0j, 3.0))
        assert res.n_minus_p == 3
        assert res.evals == (256 + 944, 944)
        assert res.subdivisions == 14

    def test_contour_through_pole(self):
        m = RatMat([[RatFn(ONE, Z)]])
        with pytest.raises(ContourError):
            count_zeros_minus_poles(m, Contour.rectangle(0, 1, 0, 1))


    def test_polynomial_zero_count(self):
        m = RatMat([[RatFn.coerce(Z ** 3)]])
        res = count_zeros_minus_poles(m, Contour.circle(0j, 1.0))
        assert res.n_minus_p == 3
        assert res.residual < 1e-10

    def test_pole_count(self):
        m = RatMat([[RatFn(ONE, Z * Z)]])
        res = count_zeros_minus_poles(m, Contour.circle(0j, 1.0))
        assert res.n_minus_p == -2

    def test_rectangle_contour(self):
        m = RatMat([[RatFn.coerce(Z - ONE)]])
        res = count_zeros_minus_poles(m, Contour.rectangle(0, 2, -1, 1))
        assert res.n_minus_p == 1

    def test_proximity_guard(self):
        m = RatMat([[RatFn.coerce(Z)]])
        with pytest.raises(ContourError):
            count_zeros_minus_poles(m, Contour.circle(1 + 0j, 1.0))

    def test_singular_matrix_is_reported(self):
        # det [[z, z], [1, 1]] vanishes everywhere, not near the contour
        m = PolyMat([[Z, Z], [ONE, ONE]])
        with pytest.raises(SingularMatrixError, match="normal rank 1 < 2"):
            count_zeros_minus_poles(m, Contour.circle(0.5 + 0.5j, 1.0))
        with pytest.raises(SingularMatrixError, match="normal rank 1 < 2"):
            roots_in_region(m, (-1, 1, -1, 1))

    def test_ambiguous_rank_keeps_contour_error(self):
        # det = 1e-9 z: the circle passes through its zero at 0, and every
        # sample is nearly singular, so the rank is ambiguous
        m = PolyMat([[ONE, ONE], [ONE, ONE + Z * QQ(1, 10 ** 9)]])
        with pytest.raises(AmbiguousRankError):
            nrank_sampled(m)
        with pytest.raises(ContourError, match="too close"):
            count_zeros_minus_poles(m, Contour.circle(1, 1.0))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one_rejected(self, samples):
        m = RatMat([[RatFn.coerce(Z)]])
        with pytest.raises(InputError, match="samples must be at least 1"):
            count_zeros_minus_poles(m, Contour.circle(5, 1.0),
                                    samples=samples)

    def test_nonsquare_rejected(self):
        m = RatMat([[RatFn.coerce(Z), RatFn.coerce(ONE)]])
        with pytest.raises(InputError):
            count_zeros_minus_poles(m, Contour.circle(0j, 1.0))

    def test_matches_exact_structure(self):
        rng = random.Random(41)
        checked = 0
        while checked < 10:
            m = rand_ratmat(rng, 2, 2)
            if linalg_exact.rank(m.entries) < 2:
                continue
            dec = ratmat.smith_mcmillan(m)
            cx = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            r = rng.uniform(0.5, 3.0)
            inside = lambda p: abs(p.approx - cx) < r
            expected = (sum(k for h, k in
                            ratmat.poly_roots(dec.phi_total) if inside(h))
                        if not dec.phi_total.is_constant else 0)
            expected -= (sum(k for h, k in
                             ratmat.poly_roots(dec.psi_total) if inside(h))
                         if not dec.psi_total.is_constant else 0)
            try:
                res = count_zeros_minus_poles(m, Contour.circle(cx, r))
            except (ContourError, AnalysisError):
                continue
            assert res.n_minus_p == expected
            checked += 1


class TestBoundedFailure:
    """A count along a contour through, or within rounding of, a root
    stops at the quadrature depth floor instead of spending the whole
    2^16-split budget (about 4 million evaluations)."""

    def test_line_through_root(self):
        # the edge Im z = 0 of the box passes through the root -2.989...
        ev = holomat._Counted(tds_state_block(README_TDS))
        with pytest.raises(ConvergenceError):
            count_zeros_minus_poles(ev, Contour.rectangle(-3, 0, -3, 0))
        assert ev.values < 10_000

    def test_circle_around_double_root(self):
        r = Z + Poly.const(QQ(3, 2))
        ev = holomat._Counted(PolyMat([[r * r]]))
        with pytest.raises(ConvergenceError):
            count_zeros_minus_poles(
                ev, Contour.circle(-1.5, 1e-6, tol=1e-8))
        assert ev.values < 10_000

    @pytest.mark.parametrize("p, contour", [
        (Z * Z + ONE, Contour.rectangle(-3, 0, -3, 3)),
        (Z * Z + ONE, Contour.rectangle(0, 3, -3, 3)),
        (Z ** 4 + Z * Z + ONE, Contour.circle(0, 1)),
        (Z * Z - ONE, Contour.rectangle(-3, 3, 0, 3)),
        (Z * Z - ONE, Contour.rectangle(-3, 3, -3, 0)),
    ])
    def test_symmetric_contour_through_roots(self, p, contour):
        # roots on a panel that a reflection of the integrand maps onto
        # itself, between the boundary samples: halves split at the centre
        # would mirror each other and sum to the principal value, where
        # each such root counts one half
        with pytest.raises(ConvergenceError):
            count_zeros_minus_poles(PolyMat([[p]]), contour)

    def test_readme_tds_roots(self):
        mpmath = pytest.importorskip("mpmath")
        roots = roots_in_region(tds_state_block(README_TDS),
                                (-3, 3, -3, 3))
        assert [k for _, k in roots] == [1, 1, 1]

        def det(z):  # of [[z, -1], [1 - e^{-z}/2, z]]
            return z * z + 1 - mpmath.exp(-z) / 2

        for z, _ in roots:
            ref = complex(mpmath.findroot(det, mpmath.mpc(z)))
            assert abs(z - ref) < 1e-10


class TestRoots:
    def test_polynomial_roots(self):
        m = RatMat([[RatFn.coerce((Z - ONE) * Z * Z)]])
        roots = roots_in_region(m, (-0.5, 1.5, -0.5, 0.5))
        assert [(round(z.real, 6), mult) for z, mult in roots] == \
            [(0.0, 2), (1.0, 1)]

    def test_roots_on_the_first_split_line(self):
        # the box's first split line Re z = 0 holds both roots
        roots = roots_in_region(PolyMat([[Z * Z + ONE]]), (-3, 3, -3, 3))
        assert [(round(z.real, 9), round(z.imag, 9), k)
                for z, k in roots] == [(0, -1, 1), (0, 1, 1)]

    def test_conjugate_pair_by_imaginary_part(self):
        # real parts that agree within the cell floor order by imaginary
        # part, whatever their last bits
        c = Poly.const
        m = PolyMat([[Z ** 3 + c(QQ(17, 10)) * Z ** 2 + c(QQ(79, 100)) * Z
                      - c(QQ(5797, 1000)), ONE],
                     [-Z ** 4 - c(QQ(7, 10)) * Z ** 3
                      + c(QQ(191, 100)) * Z ** 2 + c(QQ(6287, 1000)) * Z
                      - c(QQ(6497, 1000)), c(QQ(17, 10))]])
        roots = roots_in_region(m, (-2.1, 1.9, -1.3, 1.7), tol=1e-6)
        assert [(round(z.real, 6), round(z.imag, 6)) for z, _ in roots] \
            == [(-1.5, -1.2), (-1.5, 1.2), (-0.7, 0), (1.3, 0)]

    def test_region_with_poles_rejected(self):
        m = RatMat([[RatFn(ONE, Z)]])
        with pytest.raises(InputError):
            roots_in_region(m, (-1, 1, -1, 1))

    def test_lambert_root(self):
        e = QuasiPolyMat([[qp([(Z, QQ(0)), (Poly.const(QQ(-1)), QQ(1))])]])
        roots = roots_in_region(e, (0.0, 1.0, -1.0, 1.0))
        assert len(roots) == 1
        z, mult = roots[0]
        assert mult == 1
        assert abs(z - 0.5671432904097838) < 1e-6

    @pytest.mark.parametrize("hit, want", [(0j, 0j), (None, 2e-7 + 0j)])
    def test_floor_cell_runs_newton_once(self, monkeypatch, hit, want):
        # a cell at the size floor whose Newton result fails the cluster
        # check reports that result (even 0j), else the cell center
        runs = []

        def newton(ev, box, mult, tol):
            runs.append(box)
            return hit

        monkeypatch.setattr(holomat, "_newton", newton)
        monkeypatch.setattr(holomat, "_verify_cluster", lambda *args: False)
        out = []
        holomat._locate(None, holomat._Box(0, 4e-7, -2e-7, 2e-7), 1,
                        1e-8, 1e-6, out)
        assert out == [(want, 1)] and len(runs) == 1

    def test_newton_stops_outside_its_box(self):
        # z^2 + 1 from the real point 3: Newton stays on the real axis and
        # never converges, and its first iterate, 4/3, leaves the box
        ev = holomat._Counted(PolyMat([[Z * Z + ONE]]))
        assert holomat._newton(ev, holomat._Box(2, 4, -1, 1), 1, 1e-8) is None
        assert ev.values == 1


class TestLocalIndices:
    def test_pole_zero_pair(self):
        m = RatMat([[RatFn(ONE, Z), RatFn(0)], [RatFn(0), RatFn.coerce(Z)]])
        res = local_indices(m, 0)
        assert res.values == (-1, 1)

    def test_polynomial_agreement(self):
        rng = random.Random(42)
        from genutil import rand_polymat

        checked = 0
        while checked < 6:
            p = rand_polymat(rng, 2, 2, 2)
            m = RatMat.from_polymat(p)
            if linalg_exact.rank(m.entries) < 2:
                continue
            exact = ratmat.pole_zero_index(m, 0).values
            if max(exact) > 8:
                continue
            assert local_indices(m, 0).values == exact
            checked += 1

    def test_kmax_too_small(self):
        from meromat.errors import ConvergenceError

        m = RatMat([[RatFn.coerce(Z ** 4)]])
        with pytest.raises(ConvergenceError):
            local_indices(m, 0, kmax=2)

    def test_kmax_bounds(self):
        # the work grows with kmax: 0 to 64 is taken, anything else refused
        assert local_indices(PolyMat([[Z + ONE]]), 0, kmax=0).values == (0,)
        assert local_indices(PolyMat([[Z ** 4]]), 0, kmax=64).values == (4,)
        for kmax in (-1, 65, 10 ** 6):
            with pytest.raises(InputError,
                               match=f"kmax must be from 0 to 64, not {kmax}"):
                local_indices(PolyMat([[Z]]), 0, kmax=kmax)

    @pytest.mark.parametrize("point", [math.nan, complex(0, math.nan),
                                       math.inf, complex(0, -math.inf)])
    def test_non_finite_point(self, point):
        for m in (RatMat([[RatFn(ONE, Z)]]), PolyMat([[Z]]),
                  QuasiPolyMat([[qp([(Z, QQ(0))])]])):
            with pytest.raises(InputError, match="finite point"):
                local_indices(m, point)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 2), (2, 0)])
    def test_empty_shape_has_no_indices(self, shape):
        assert local_indices(RatMat.zeros(*shape), 0).values == ()
        assert local_indices(PolyMat.zeros(*shape), 1.5).values == ()

    def test_zero_matrix_has_no_indices(self):
        assert local_indices(RatMat.zeros(2, 2), 0).values == ()

    def test_root_handle_point(self):
        # a handle from poly_roots names an irrational pole, which
        # pole_zero_index cannot take; the index is read at its value and
        # reported at the handle
        m = RatMat([[RatFn(ONE, Z * Z - 2)]])
        roots = ratmat.poly_roots(Z * Z - 2)
        assert len(roots) == 2
        for h, _ in roots:
            res = local_indices(m, h)
            assert res.values == (-1,)
            assert res.point is h
            assert local_indices(m, h.value).values == (-1,)


def oracle_cases():
    """40 seeded random rational matrices, 2x2, 3x2 and 2x3; every fourth
    is an outer product, of rank 1 (or 0), and every other has its first
    row times (z - a)^k, a zero at a in -2..2 of order k = 1 or 2."""
    rng = random.Random(20261020)
    cases = []
    for k in range(40):
        rows, cols = ((2, 2), (3, 2), (2, 3))[k % 3]
        if k % 4 == 3:
            u = [rand_ratfn(rng) for _ in range(rows)]
            v = [rand_ratfn(rng) for _ in range(cols)]
            grid = [[a * b for b in v] for a in u]
        else:
            grid = [list(row) for row in rand_ratmat(rng, rows, cols).entries]
        if k % 2:
            f = RatFn.coerce((Z - ONE.scale(QQ(rng.randint(-2, 2))))
                             ** rng.randint(1, 2))
            grid[0] = [f * e for e in grid[0]]
        cases.append(RatMat(grid))
    return cases


def isolated(smm, lam, margin=0.3):
    """No root of a Smith-McMillan factor other than lam lies within
    `margin` of lam, so the circle of radius 0.1 that local_indices
    samples sees the structure at lam alone."""
    fac = real_factor(lam)
    for f in smm.zero_factors + smm.pole_factors:
        for _ in range(f.multiplicity_at(lam)):
            f = f // fac
        roots = np.roots([x / f.den for x in reversed(f.nums)])
        if len(roots) and min(abs(roots - float(lam))) < margin:
            return False
    return True


class CountingEvaluable:
    """A matrix's evaluable that records which evaluation it is asked for."""

    def __init__(self, M):
        self.ev = as_evaluable(M)
        self.shape = self.ev.shape
        self.calls = []

    def eval_many(self, zs):
        self.calls.append("eval_many")
        return self.ev.eval_many(zs)

    def eval_pair_many(self, zs):
        self.calls.append("eval_pair_many")
        return self.ev.eval_pair_many(zs)


class TestLocalIndicesOracle:
    """local_indices against the exact Smith-McMillan form: as many
    indices as the exact normal rank, and pole_zero_index's values."""

    POINTS = (QQ(0), QQ(1), QQ(-1), QQ(2), QQ(-2), QQ(1, 2))

    def test_rank_and_values_match_smith_mcmillan(self):
        checked, ranks = 0, set()
        for m in oracle_cases():
            smm = ratmat.smith_mcmillan(m)
            sigma = smm.sigma().entries
            nrank = sum(1 for j in range(min(m.shape))
                        if not sigma[j][j].is_zero)
            for lam in self.POINTS:
                exact = ratmat.pole_zero_index(m, lam).values
                # the pole order cleared first, and the largest partial
                # multiplicity after it, stay inside kmax = 12
                s = max((e.den.multiplicity_at(lam) for row in m.entries
                         for e in row), default=0)
                if max(exact, default=0) + s > 10 or not isolated(smm, lam):
                    continue
                got = local_indices(m, float(lam)).values
                assert len(got) == nrank, (m, lam)
                assert got == exact, (m, lam)
                checked += 1
                ranks.add(nrank)
        assert checked >= 100
        assert {1, 2} <= ranks

    def test_one_evaluation_pass(self):
        m = RatMat([[RatFn(ONE, Z), RatFn.coerce(Z)],
                    [RatFn(0), RatFn.coerce(Z + ONE)]])
        ev = CountingEvaluable(m)
        assert local_indices(ev, 0).values == \
            ratmat.pole_zero_index(m, 0).values
        assert ev.calls == ["eval_many"]

    @pytest.mark.parametrize("k", [11, 12, 14])
    def test_high_order_zero_keeps_the_normal_rank(self, k):
        # a zero of order k at 0 (alone, or spread between a pole and a
        # zero) shrinks a singular value on the circle of radius 0.1 by
        # about 0.1^k, below the rank threshold; the call must still look
        # for 2 indices, not return the one it finds
        zero = RatMat([[RatFn.coerce(ONE), RatFn.coerce(ONE)],
                       [RatFn.coerce(ONE), RatFn.coerce(ONE + Z ** k)]])
        spread = RatMat([[RatFn(e.num, Z ** (k // 2)) for e in row]
                         for row in zero.entries])
        for m in (zero, spread):
            assert len(ratmat.pole_zero_index(m, 0).values) == 2
            with pytest.raises(ConvergenceError, match="1 of 2 indices"):
                local_indices(m, 0)

    def test_draws_no_random_points(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("local_indices drew random points")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        m = RatMat([[RatFn(ONE, Z), RatFn(0)], [RatFn(0), RatFn.coerce(Z)]])
        assert local_indices(m, 0).values == (-1, 1)

    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                        reason="numpy < 2 loads numpy.random eagerly")
    def test_leaves_numpy_random_unloaded(self):
        code = (
            "import sys\n"
            "from meromat.exactalg import Poly, RatFn\n"
            "from meromat.holomat import local_indices\n"
            "from meromat.ratmat import RatMat\n"
            "z = Poly.z()\n"
            "m = RatMat([[RatFn(Poly.one(), z), RatFn(0)],\n"
            "            [RatFn(0), RatFn.coerce(z)]])\n"
            "assert local_indices(m, 0).values == (-1, 1)\n"
            "print('numpy.random' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False"]

    @pytest.mark.parametrize("nsamp, s", [(256, 0), (256, 3), (512, 1),
                                          (256, -2)])
    def test_cached_circle_powers(self, nsamp, s):
        ws = holomat._circle_nodes(nsamp)
        theta = 2 * math.pi * np.arange(nsamp) / nsamp
        assert bits(ws).tolist() == bits(np.exp(1j * theta)).tolist()
        assert holomat._circle_nodes(nsamp) is ws
        with pytest.raises(ValueError):
            ws[0] = 0
        # rolling the coefficients by s is multiplying the samples by w^s
        vals = np.random.default_rng(nsamp + s).standard_normal(nsamp)
        rolled = np.roll(np.fft.fft(vals), s)
        assert np.allclose(rolled, np.fft.fft(vals * ws ** s), atol=1e-12)


class FixedSamples:
    """Returns the given matrices, one per node, whatever the nodes."""

    def __init__(self, mats):
        self.mats = np.asarray(mats, dtype=complex)
        self.shape = self.mats.shape[1:]

    def eval_many(self, zs):
        return self.mats[:len(zs)]

    def eval_pair_many(self, zs):
        raise AssertionError("rank sampling needs no derivative")


def loop_nrank(mats):
    """nrank_sampled's rule one matrix at a time, each by its own SVD and
    without equilibration: the largest rank of a finite sample with no
    singular value in the ambiguity band relative to its largest."""
    lo, hi = holomat._RANK_BAND
    ranks = []
    for m in mats:
        if not np.isfinite(m).all():
            continue
        s = np.linalg.svd(m, compute_uv=False)
        if not ((lo * s[0] < s) & (s < hi * s[0])).any():
            ranks.append(int((s > holomat._RANK_ZERO * s[0]).sum()))
    return max(ranks)


class TestRank:
    def test_nrank_sampled(self):
        m = RatMat([[RatFn.coerce(Z), RatFn.coerce(Z)],
                    [RatFn.coerce(Z), RatFn.coerce(Z)]])
        assert nrank_sampled(as_evaluable(m)) == 1

    def test_batched_equals_loop(self):
        rng = np.random.default_rng(5)
        for rows, cols in [(1, 1), (2, 2), (2, 3), (4, 2), (4, 4)]:
            mats = (rng.standard_normal((16, rows, cols))
                    + 1j * rng.standard_normal((16, rows, cols)))
            k = min(rows, cols)
            mats[3] = 0
            # full rank but badly scaled: singular value ratio 5e-8 falls
            # in the ambiguity band
            mats[5] = 0
            mats[5][range(k), range(k)] = 4.5e-4
            mats[5][0, 0] = 8.9e3
            mats[7] = np.outer(mats[7][:, 0], mats[7][0])  # rank 1
            stacked = np.linalg.svd(mats, compute_uv=False)
            for m, row in zip(mats, stacked):
                assert (bits(np.linalg.svd(m, compute_uv=False)).tolist()
                        == bits(row).tolist())
            assert nrank_sampled(FixedSamples(mats)) == loop_nrank(mats)
            # a sample the SVD cannot take fails the stacked call
            mats[9, 0, 0] = np.nan
            assert nrank_sampled(FixedSamples(mats)) == loop_nrank(mats)

    def test_no_evidence_raises(self):
        # nearly singular whatever the row and column scaling: singular
        # value ratio about 2.5e-10, in the ambiguity band
        bad = np.array([[1, 1], [1, 1 + 1e-9]], dtype=complex)
        with pytest.raises(AmbiguousRankError):
            nrank_sampled(FixedSamples([bad] * 16))

    def test_badly_scaled_sample_has_full_rank(self):
        # singular value ratio 5e-8 before equilibration, 1 after
        diag = np.diag([8.9e3, 4.5e-4]).astype(complex)
        assert nrank_sampled(FixedSamples([diag] * 16)) == 2
        # scaled rows and columns of a rank-1 sample stay rank 1
        outer = np.outer([1e4, 2e-4], [3e-3, 5e5]).astype(complex)
        assert nrank_sampled(FixedSamples([outer] * 16)) == 1
        # zero rows and columns keep their zeros
        empty = np.zeros((3, 2), dtype=complex)
        empty[0, 0] = 7e-6
        assert nrank_sampled(FixedSamples([empty] * 16)) == 1

    def test_sample_points_drawn_once(self, monkeypatch):
        rng = np.random.default_rng(715225741)
        want = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                for _ in range(16)]
        got = holomat._sample_points()
        assert bits(got).tolist() == bits(want).tolist()

        def no_draws(*args):
            raise AssertionError("sample points drawn again")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        m = PolyMat([[Z, ONE], [ONE, Z]])
        assert nrank_sampled(m) == 2
        assert holomat._sample_points() is got

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0)])
    def test_empty_shape_has_rank_zero(self, shape):
        assert nrank_sampled(PolyMat.zeros(*shape)) == 0
        assert nrank_sampled(QuasiPolyMat.zeros(*shape)) == 0


class TestRegionalCoprime:
    def test_coprime_pair(self):
        a = QuasiPolyMat([[qp([(Z, QQ(0))])]])
        b = QuasiPolyMat([[qp([(ONE, QQ(0))])]])
        ok, bad = regional_coprime(a, b, (-1, 1, -1, 1), side="right")
        assert ok and not bad

    def test_common_zero_detected(self):
        a = QuasiPolyMat([[qp([(Z, QQ(0))])]])
        b = QuasiPolyMat([[qp([(Z, QQ(0))])]])
        ok, bad = regional_coprime(a, b, (-1, 1, -1, 1), side="right")
        assert not ok
        assert any(abs(z) < 1e-6 for z in bad)


    def test_common_zero_in_one_row(self):
        # at 0 only the first rows of [A; B] vanish: scaling each row to
        # unit norm would hide the drop
        a = QuasiPolyMat.from_polymat(PolyMat([[Z, 0], [0, ONE]]))
        ok, bad = regional_coprime(a, a, (-1, 1, -1, 1), side="right")
        assert not ok and len(bad) == 1 and abs(bad[0]) < 1e-6
        ok, bad = regional_coprime(a, a, (2, 3, -1, 1), side="left")
        assert ok and not bad  # no candidate in the box

    def test_rank_deficient_stack(self):
        # [z, z; 1, 1] has normal rank 1 < 2: no root search is made
        a = QuasiPolyMat.from_polymat(PolyMat([[Z, Z]]))
        b = QuasiPolyMat.from_polymat(PolyMat([[ONE, ONE]]))
        for pair, side in (((a, b), "right"),
                           ((a.transpose(), b.transpose()), "left")):
            with pytest.raises(RankDeficientError, match="normal rank 1 < 2"):
                regional_coprime(*pair, (-1, 1, -1, 1), side=side)


@pytest.mark.parametrize("box", [(0, 1, 0), (0, 1, 0, 1, 2), 3,
                                 (0, 1, 0, "y"), (0, 1, 0, 1j)])
def test_malformed_box_is_input_error(box):
    a = QuasiPolyMat([[qp([(Z, QQ(0))])]])
    b = QuasiPolyMat([[qp([(ONE, QQ(0))])]])
    with pytest.raises(InputError, match="box is four numbers"):
        roots_in_region(a, box)
    with pytest.raises(InputError, match="box is four numbers"):
        regional_coprime(a, b, box)


class TestTds:
    def test_validation(self):
        with pytest.raises(InputError):
            TdsData(A0=((0, 1),))  # not square
        with pytest.raises(InputError):
            TdsData(A0=((0,),), A_delayed=((((1,),), 0),))  # zero state delay
        with pytest.raises(InputError):
            TdsData(A0=((0,),),
                    B_terms=((((1,),), 1), (((1,),), 1)))  # not increasing

    def test_sizes_from_terms(self):
        # n from the B terms or else the D terms, m from the C terms or
        # else the D terms
        d_only = TdsData(A0=((0,),), D_terms=((((1, 2),), 0),))
        assert (d_only.state_dim, d_only.output_dim, d_only.input_dim) == \
            (1, 1, 2)
        b_and_d = TdsData(A0=((0,),), B_terms=((((1, 0, 0),), 0),),
                          D_terms=((((1, 2, 3), (4, 5, 6)), 1),))
        assert (b_and_d.output_dim, b_and_d.input_dim) == (2, 3)
        assert (TdsData(A0=((0,),)).output_dim,
                TdsData(A0=((0,),)).input_dim) == (0, 0)

    def test_term_shapes_checked(self):
        with pytest.raises(InputError, match="B_terms"):
            TdsData(A0=((0,),), B_terms=((((1,),), 0), (((1, 2),), 1)))
        with pytest.raises(InputError, match="C_terms"):
            TdsData(A0=((0, 1), (1, 0)), C_terms=((((1,),), 0),))
        with pytest.raises(InputError, match="D_terms"):
            TdsData(A0=((0,),), B_terms=((((1,),), 0),),
                    C_terms=((((1,),), 0),), D_terms=((((1, 2),), 0),))
        with pytest.raises(InputError, match="A_delayed"):
            TdsData(A0=((0,),), A_delayed=((((1, 0),), 1),))

    def test_amd_needs_input_and_output_terms(self):
        for data in (TdsData(A0=((0,),), C_terms=((((1,),), 0),),
                             D_terms=((((1,),), 0),)),
                     TdsData(A0=((0,),), B_terms=((((1,),), 0),),
                             D_terms=((((1,),), 0),))):
            with pytest.raises(InputError, match="input and one output"):
                build_tds_amd(data)

    def test_state_block(self):
        data = TdsData(A0=((2,),), A_delayed=(((( -3,),), 1),))
        blk = tds_state_block(data)
        z0 = 0.5 + 0j
        expected = z0 - 2 + 3 * np.exp(-z0)
        assert abs(blk.eval(z0)[0][0] - expected) < 1e-12

    def test_amd_and_transfer(self):
        data = TdsData(A0=((0,),), B_terms=((((1,),), QQ(1, 2)),),
                       C_terms=((((1,),), 0),))
        h = build_tds_amd(data)
        assert h.ring == "quasipoly"
        ev = transfer_function(h)
        z0 = 1.0 + 0j
        # transfer e^{-z/2} / z
        assert abs(ev.eval(z0)[0][0] - math.exp(-0.5) / 1.0) < 1e-12

    def test_pole_count_is_eigenvalues(self):
        data = TdsData(A0=((1, 0), (0, -2)), B_terms=(((((1,), (1,))), 0),),
                       C_terms=((((1, 1),), 0),))
        res = tds_pole_count(data, Contour.circle(0j, 1.5))
        assert res.n_minus_p == 1  # only the eigenvalue 1 is inside


class TestRegularity:
    """A quasi-polynomial state block is regular when its sampled normal
    rank is full, whatever the scale of the block."""

    @pytest.mark.parametrize("scale", [QQ(1), QQ(1, 10 ** 4), QQ(1, 10 ** 8)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_scaled_regular_block(self, scale, n):
        e = qp([(Z * scale, QQ(0)), (Poly.const(-scale), QQ(1))])
        a = QuasiPolyMat([[e if i == j else qp([]) for j in range(n)]
                          for i in range(n)])
        assert nrank_sampled(a) == n
        b = QuasiPolyMat([[qp([(ONE, QQ(0))])] for _ in range(n)])
        c = QuasiPolyMat([[qp([(ONE, QQ(0))]) for _ in range(n)]])
        h = Amd(A=a, B=b, C=c, D=QuasiPolyMat.zeros(1, 1))
        assert h.state_dim == n

    @pytest.mark.parametrize("scale", [QQ(1), QQ(1, 10 ** 8)])
    def test_rank_one_block(self, scale):
        e = qp([(Z * scale, QQ(0)), (Poly.const(-scale), QQ(1))])
        a = QuasiPolyMat([[e, e * 2], [e * 3, e * 6]])
        assert nrank_sampled(a) == 1
        one = QuasiPolyMat([[qp([(ONE, QQ(0))])], [qp([(ONE, QQ(0))])]])
        with pytest.raises(SingularMatrixError, match="normal rank 1 < 2"):
            Amd(A=a, B=one, C=one.transpose(),
                D=QuasiPolyMat.zeros(1, 1))


    def test_exact_and_sampled_rules_agree(self):
        # the same singular block, exact and quasi-polynomial
        a = PolyMat([[Z, Z], [ONE, ONE]])
        b, c, d = PolyMat([[ONE], [ONE]]), PolyMat([[ONE, ONE]]), \
            PolyMat([[0]])
        msgs = []
        for make in (lambda x: x, QuasiPolyMat.from_polymat):
            with pytest.raises(SingularMatrixError) as exc:
                Amd(A=make(a), B=make(b), C=make(c), D=make(d))
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1] == "state block is singular: " \
            "normal rank 1 < 2"

    def test_no_states(self):
        # r = 0: an empty state block is regular in either ring
        for zeros in (PolyMat.zeros, QuasiPolyMat.zeros):
            h = Amd(A=zeros(0, 0), B=zeros(0, 1), C=zeros(1, 0),
                    D=zeros(1, 1))
            assert h.state_dim == 0 and h.input_dim == h.output_dim == 1


class TestContourInput:
    """Bad contour settings are input errors, not quadrature failures."""

    @pytest.mark.parametrize("make", [
        lambda: Contour.circle(0, math.nan),
        lambda: Contour.circle(0, math.inf),
        lambda: Contour.circle(math.nan, 1),
        lambda: Contour.circle(complex(0, math.inf), 1),
        lambda: Contour.rectangle(0, math.nan, 0, 1),
        lambda: Contour.rectangle(-math.inf, 1, 0, 1),
        lambda: Contour.rectangle(0, 1, 0, math.inf),
        lambda: Contour.circle(0, 1, tol=math.nan),
        lambda: Contour.circle(0, 1, tol=math.inf),
        lambda: Contour.circle(0, 1, tol=-1),
        lambda: Contour.circle(0, 1, tol=0),
        lambda: Contour.rectangle(0, 1, 0, 1, tol=math.nan),
        lambda: Contour.circle(0, 1, max_subdiv=-3),
        lambda: Contour.rectangle(0, 1, 0, 1, max_subdiv=0),
    ])
    def test_rejected(self, make):
        with pytest.raises(InputError):
            make()

    @pytest.mark.parametrize("fields", [
        dict(kind="circle"),  # the default radius 0
        dict(kind="box"),
        dict(kind="circle", radius=-1.0),
        dict(kind="circle", center=complex(math.nan, 0), radius=1.0),
        dict(kind="circle", radius=math.inf),
        dict(kind="circle", radius=1.0, tol=0.0),
        dict(kind="circle", radius=1.0, max_subdiv=0),
        dict(kind="rectangle"),
        dict(kind="rectangle", corners=(0j, 1 + 0j, 1 + 1j)),
        dict(kind="rectangle", corners=(1 + 1j, 1j, 0j, 1 + 0j)),
        dict(kind="rectangle", corners=(0j, 1 + 0j, 1 + 1j, 2j)),
        dict(kind="rectangle", corners=(0j, 1 + 0j, 1 + 0j, 0j)),
        dict(kind="rectangle", corners=(0j, complex(math.inf, 0),
                                        complex(math.inf, 1), 1j)),
    ])
    def test_direct_construction_rejected(self, fields):
        # a directly built contour is checked like circle() and rectangle()
        with pytest.raises(InputError):
            Contour(**fields)

    def test_direct_construction_accepted(self):
        m = RatMat([[RatFn.coerce(Z - Poly.const(5))]])
        for c in (Contour(kind="circle", center=5 + 0j, radius=1.0),
                  Contour(kind="rectangle",
                          corners=(4 - 1j, 6 - 1j, 6 + 1j, 4 + 1j))):
            assert count_zeros_minus_poles(m, c).n_minus_p == 1
        assert Contour.rectangle(4, 6, -1, 1) == Contour(
            kind="rectangle", corners=(4 - 1j, 6 - 1j, 6 + 1j, 4 + 1j))

    def test_smallest_settings_accepted(self):
        c = Contour.circle(0, 1, tol=5e-324, max_subdiv=1)
        assert (c.tol, c.max_subdiv) == (5e-324, 1)

    def test_root_search_tolerance(self):
        m = RatMat([[RatFn.coerce(Z - ONE)]])
        with pytest.raises(InputError):
            roots_in_region(m, (0, 2, -1, 1), tol=math.nan)


class Wrapped:
    """A matrix behind the batch protocol alone, so that local_indices sees
    nothing of its type."""

    def __init__(self, M):
        self.m, self.shape = M, M.shape

    def eval_many(self, zs):
        return self.m.eval_many(zs)

    def eval_pair_many(self, zs):
        return self.m.eval_pair_many(zs)


class TestSampledPoleOrder:
    """The pole order that local_indices reads from its own samples."""

    POINTS = (QQ(0), QQ(1), QQ(-1), QQ(2), QQ(-2), QQ(1, 2), QQ(3),
              QQ(1, 3))

    def test_matches_pole_zero_index(self):
        rng = random.Random(1729)
        checked, orders = 0, set()
        for _ in range(40):
            m = rand_ratmat(rng, rng.randint(1, 3), rng.randint(1, 3))
            smm = ratmat.smith_mcmillan(m)
            for lam in self.POINTS:
                exact = ratmat.pole_zero_index(m, lam).values
                s = max((e.den.multiplicity_at(lam) for row in m.entries
                         for e in row), default=0)
                if max(exact, default=0) + s > 10 or not isolated(smm, lam):
                    continue
                assert local_indices(m, float(lam)).values == exact, (m, lam)
                checked += 1
                orders.add(s)
        assert checked >= 100
        assert {0, 1, 2} <= orders

    def test_irrational_pole(self):
        m = RatMat([[RatFn(ONE, Z * Z - 2)]])
        for lam in (2 ** 0.5, -(2 ** 0.5)):
            assert local_indices(m, lam).values == (-1,)
        # a rational pole of another entry does not hide the irrational one
        both = RatMat([[RatFn(ONE, Z * Z - 2), RatFn(ONE, Z - 1)]])
        assert local_indices(both, 2 ** 0.5).values == (-1,)
        assert local_indices(both, 1).values == (-1,)

    def test_behind_the_batch_protocol(self):
        for f, want in ((RatFn(Z + 2, Z * (Z - 1)), (-1,)),
                        (RatFn(ONE, Z), (-1,)), (RatFn(ONE, Z ** 2), (-2,)),
                        (RatFn(ONE, Z ** 3), (-3,)),
                        (RatFn(Z ** 3, Z + 1), (3,))):
            m = RatMat([[f]])
            assert ratmat.pole_zero_index(m, 0).values == want
            assert local_indices(Wrapped(m), 0).values == want
        assert local_indices(Wrapped(PolyMat([[Z * Z]])), 0).values == (2,)


class TestTransferFunctionPoles:
    """At a simple zero of det A where the AMD is irreducible, the transfer
    function D + C A^-1 B has the pole index -1: the pole indices there are
    the negated nonzero zero indices of A (Kailath 1980, section 6.5, for
    the system matrix of an AMD)."""

    def test_delay_system_roots(self):
        mpmath = pytest.importorskip("mpmath")
        h = build_tds_amd(README_TDS)
        g = transfer_function(h)
        roots = roots_in_region(h.A, (-3, 3, -3, 3))
        assert [m for _, m in roots] == [1, 1, 1]
        for lam, _ in roots:
            # det A = z^2 + 1 - e^-z / 2
            ref = complex(mpmath.findroot(
                lambda z: z * z + 1 - mpmath.exp(-z) / 2, lam))
            assert abs(ref - lam) < 1e-8
            assert local_indices(g, lam).values == (-1,)

    def test_polynomial_amd_matches_the_exact_index(self):
        # det A = (z - 1)(z - 2)(z + 1/2), each root simple
        a = PolyMat([[Z - 1, ONE, 0], [0, Z - 2, ONE], [0, 0, Z + QQ(1, 2)]])
        h = Amd(A=a, B=PolyMat([[0, 0], [1, 0], [0, 1]]),
                C=PolyMat([[1, 0, 0], [0, 1, 1]]), D=PolyMat.zeros(2, 2))
        assert is_irreducible(h)
        g = transfer_function(h)
        for lam in (QQ(1), QQ(2), QQ(-1, 2)):
            assert ratmat.pole_zero_index(g, lam).values == (-1, 0)
            assert local_indices(Wrapped(g), float(lam)).values == (-1, 0)


# ---------------------------------------------------------------------------
# the batched quadrature and the pair evaluation against the formulas they
# replace


def ref_gl_segment(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return sum((holomat._GL_WEIGHTS * f(mid + half * holomat._GL_NODES)
                ).tolist(), 0j) * half


def ref_adaptive(f, a, b, tol, budget, whole=None):
    """The recursive adaptive quadrature, one panel per call."""
    if whole is None:
        whole = ref_gl_segment(f, a, b)
    mid = a + holomat._SPLIT * (b - a)
    lo = ref_gl_segment(f, a, mid)
    hi = ref_gl_segment(f, mid, b)
    if abs(whole - (lo + hi)) <= tol:
        return lo + hi
    if b - a < budget.floor:
        raise ConvergenceError(
            f"quadrature panel of width {b - a:.3g} has not converged")
    if budget.left <= 0:
        raise ConvergenceError("quadrature subdivision budget exhausted")
    budget.left -= 1
    return (ref_adaptive(f, a, mid, tol / 2, budget, lo)
            + ref_adaptive(f, mid, b, tol / 2, budget, hi))


def ref_deriv_many(m, zs):
    """The derivative of a matrix from its own numeric form."""
    from meromat.linalg_exact import _Numeric

    grid = [[e.derivative() for e in row] for row in m.entries]
    return _Numeric(grid, m.shape, m._split).at(zs)


class NodeCount:
    """g, counting the nodes it is called on."""

    def __init__(self, g):
        self.g, self.nodes = g, 0

    def __call__(self, zs):
        self.nodes += len(zs)
        return self.g(zs)


def ref_log_deriv_trace(m):
    def g(zs):
        x = np.linalg.solve(m.eval_many(zs), ref_deriv_many(m, zs))
        return np.trace(x, axis1=1, axis2=2)

    return g


def ref_integrate(m, contour):
    """(total, nodes, splits) by the recursion, or the exception type."""
    g = NodeCount(ref_log_deriv_trace(m))
    budget = holomat._SubdivBudget(contour.max_subdiv)
    total = np.complex128(0)
    try:
        for zf, dzf in contour.segments():
            total += ref_adaptive(
                lambda t, zf=zf, dzf=dzf: g(zf(t)) * dzf(t),
                0.0, 1.0, contour.tol, budget)
    except (ConvergenceError, AnalysisError, np.linalg.LinAlgError) as exc:
        return type(exc)
    return total, g.nodes, 2 ** min(contour.max_subdiv, 16) - budget.left


def new_integrate(m, contour):
    g = NodeCount(holomat._log_deriv_trace(m))
    budget = holomat._SubdivBudget(contour.max_subdiv)
    try:
        total = holomat._integrate(g, contour.segments(), contour.tol, budget)
    except (ConvergenceError, AnalysisError, np.linalg.LinAlgError) as exc:
        return type(exc)
    return total, g.nodes, 2 ** min(contour.max_subdiv, 16) - budget.left


def same_result(got, want):
    if isinstance(want, type):
        return got is want
    return (got[1:] == want[1:]
            and bits([got[0]]).tolist() == bits([want[0]]).tolist())


def rand_contour(rng):
    tol = rng.choice((1e-6, 1e-8, 1e-10, 1e-12))
    if rng.random() < 0.5:
        return Contour.circle(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                              rng.uniform(0.3, 3), tol=tol)
    x0, y0 = rng.uniform(-3, 1), rng.uniform(-3, 1)
    return Contour.rectangle(x0, x0 + rng.uniform(0.5, 3), y0,
                             y0 + rng.uniform(0.5, 3), tol=tol)


class TestBatchedQuadrature:
    def check(self, m, contour):
        want = ref_integrate(m, contour)
        assert same_result(new_integrate(m, contour), want)
        if isinstance(want, type) or len(contour.segments()) == 1:
            return want
        # each segment's value alone, with a budget of its own
        g = ref_log_deriv_trace(m)
        for zf, dzf in contour.segments():
            value = ref_adaptive(
                lambda t: g(zf(t)) * dzf(t), 0.0, 1.0,
                contour.tol, holomat._SubdivBudget(contour.max_subdiv))
            got = holomat._integrate(
                holomat._log_deriv_trace(m), [(zf, dzf)], contour.tol,
                holomat._SubdivBudget(contour.max_subdiv))
            assert (bits([got]).tolist()
                    == bits([np.complex128(0) + value]).tolist())
        return want

    def test_random_ratmats(self):
        rng = random.Random(2718)
        splits = 0
        for _ in range(25):
            n = rng.randint(1, 3)
            m = rand_ratmat(rng, n, n)
            want = self.check(m, rand_contour(rng))
            if not isinstance(want, type):
                splits += want[2]
        assert splits > 0

    def test_random_quasipolymats(self):
        rng = random.Random(3141)
        splits = 0
        for _ in range(25):
            n = rng.randint(1, 3)
            m = QuasiPolyMat([[rand_entry(rng, QuasiPolyMat)
                               for _ in range(n)] for _ in range(n)])
            want = self.check(m, rand_contour(rng))
            if not isinstance(want, type):
                splits += want[2]
        assert splits > 0

    def test_readme_tds(self):
        m = tds_state_block(README_TDS)
        want = self.check(m, Contour.circle(0j, 3.0))
        assert want[1:] == (944, 14)
        self.check(m, Contour.rectangle(-3, 1, -2, 2, tol=1e-10))

    @pytest.mark.parametrize("m, contour", [
        (tds_state_block(README_TDS), Contour.rectangle(-3, 0, -3, 0)),
        (PolyMat([[(Z + Poly.const(QQ(3, 2))) ** 2]]),
         Contour.circle(-1.5, 1e-6, tol=1e-8)),
        # the depth floor, and the budget shared by the four edges
        (PolyMat([[Z ** 3 - ONE]]),
         Contour.circle(0j, 2.0, tol=1e-14, max_subdiv=1)),
        (PolyMat([[Z ** 3 - ONE]]),
         Contour.rectangle(-2, 2, -2, 2, tol=1e-15, max_subdiv=2)),
    ])
    def test_failures_raise_alike(self, m, contour):
        assert self.check(m, contour) is ConvergenceError


class TestPairEvaluation:
    """eval_pair_many against eval_many and the derivative's own form."""

    def check(self, m, zs):
        vals, ders = m.eval_pair_many(zs)
        assert vals.shape == ders.shape == (len(zs),) + m.shape
        assert bits(vals).tolist() == bits(m.eval_many(zs)).tolist()
        assert bits(ders).tolist() == bits(ref_deriv_many(m, zs)).tolist()
        # one node alone gives the bits it gives in the vector
        one = m.eval_pair_many(zs[:1])
        assert bits(one[0]).tolist() == bits(vals[:1]).tolist()
        assert bits(one[1]).tolist() == bits(ders[:1]).tolist()

    @pytest.mark.parametrize("cls", MATRIX_TYPES)
    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (3, 1), (0, 2),
                                       (2, 0), (0, 0)])
    def test_random(self, cls, shape):
        rows, cols = shape
        rng = random.Random(f"pair/{cls.kind}/{rows}x{cols}")
        for _ in range(8):
            m = cls([[rand_entry(rng, cls) for _ in range(cols)]
                     for _ in range(rows)], cols)
            self.check(m, [complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                           for _ in range(rng.randint(1, 40))])

    def test_constant_denominators_and_several_delays(self):
        self.check(RatMat([[RatFn(Z * Z, Poly.const(QQ(3))), RatFn(ONE)],
                           [RatFn(Z, Z - ONE), RatFn(0)]]),
                   [0.3 + 0.1j, -1.2 + 0.7j, 2.0 - 0.5j])
        m = QuasiPolyMat([[qp([(Z, QQ(0)), (ONE, QQ(1)), (Z * Z, QQ(5, 2))]),
                           qp([(Poly.const(QQ(2)), QQ(0))])],
                          [qp([(Poly.const(QQ(-1, 3)), QQ(7, 4))]),
                           qp([(Z - ONE, QQ(1)), (ONE, QQ(1, 3))])]])
        self.check(m, [0.3 + 0.1j, -1.2 + 0.7j, 2.0 - 0.5j, -0.5 - 3j])

    def test_overflow_raises_alike(self):
        m = QuasiPolyMat([[qp([(Z, QQ(0))]), qp([(ONE, QQ(2))])]])
        zs = [0.5 + 0j, complex(-400, 0)]
        with pytest.raises(AnalysisError) as pair:
            m.eval_pair_many(zs)
        with pytest.raises(AnalysisError) as values:
            m.eval_many(zs)
        assert str(pair.value) == str(values.value)

    def test_adapter_supplies_pairs(self):
        m = RatMat([[RatFn(Z, Z - ONE), RatFn(ONE)], [RatFn(0), Z + ONE]])

        class Many:
            shape = m.shape
            eval_many = staticmethod(m.eval_many)

            def eval_deriv_many(self, zs):
                return m.eval_pair_many(zs)[1]

        class Single:
            shape = m.shape
            eval = staticmethod(m.eval)

            def eval_deriv(self, z):
                return m.eval_pair_many([z])[1][0]

        assert as_evaluable(m) is m
        # values and derivatives apart, or one node at a time, are no
        # protocol
        for inner in (Many(), Single(), object()):
            with pytest.raises(InputError):
                as_evaluable(inner)

    def test_transfer_pair(self):
        h = build_tds_amd(README_TDS)
        ev = transfer_function(h)
        zs = [0.3 + 0.1j, -1.2 + 0.7j, 2.0 - 0.5j]
        vals, ders = ev.eval_pair_many(zs)
        assert (bits(vals) == bits(ev.eval_many(zs))).all()
        # the derivative as it was assembled from separate evaluations
        a = h.A.eval_many(zs)
        ainv_b = np.linalg.solve(a, h.B.eval_many(zs))
        c_ainv = np.linalg.solve(a.swapaxes(1, 2),
                                 h.C.eval_many(zs).swapaxes(1, 2)
                                 ).swapaxes(1, 2)
        want = (ref_deriv_many(h.D, zs) + ref_deriv_many(h.C, zs) @ ainv_b
                - c_ainv @ ref_deriv_many(h.A, zs) @ ainv_b
                + c_ainv @ ref_deriv_many(h.B, zs))
        assert (bits(ders) == bits(want)).all()
