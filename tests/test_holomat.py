import math
import random

import numpy as np
import pytest

from genutil import rand_ratmat
from meromat import holomat, ratmat
from meromat.errors import (
    AnalysisError,
    ContourError,
    InputError,
    SingularMatrixError,
)
from meromat.exactalg import QQ, Poly, RatFn
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

Z = Poly.z()
ONE = Poly.one()


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
            assert (p.eval_deriv(z) == r.eval_deriv(z)).all()

    def test_quasipoly_derivative_is_cached_and_exact(self):
        m = QuasiPolyMat([[qp([(Z, QQ(0)), (ONE, QQ(1))]), Z],
                          [qp([(Z * Z, QQ(1, 2))]), ONE]])
        for z in POINTS + POINTS:
            want = np.array([[e.derivative()(z) for e in row]
                             for row in m.entries])
            assert (m.eval_deriv(z) == want).all()


class TestCounting:
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

    def test_nonsquare_rejected(self):
        m = RatMat([[RatFn.coerce(Z), RatFn.coerce(ONE)]])
        with pytest.raises(InputError):
            count_zeros_minus_poles(m, Contour.circle(0j, 1.0))

    def test_matches_exact_structure(self):
        rng = random.Random(41)
        checked = 0
        while checked < 10:
            m = rand_ratmat(rng, 2, 2)
            if m.nrank() < 2:
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


class TestRoots:
    def test_polynomial_roots(self):
        m = RatMat([[RatFn.coerce((Z - ONE) * Z * Z)]])
        roots = roots_in_region(m, (-0.5, 1.5, -0.5, 0.5))
        assert [(round(z.real, 6), mult) for z, mult in roots] == \
            [(0.0, 2), (1.0, 1)]

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
            if m.nrank() < 2:
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


class TestRank:
    def test_nrank_sampled(self):
        m = RatMat([[RatFn.coerce(Z), RatFn.coerce(Z)],
                    [RatFn.coerce(Z), RatFn.coerce(Z)]])
        assert nrank_sampled(as_evaluable(m)) == 1


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


class TestTds:
    def test_validation(self):
        with pytest.raises(InputError):
            TdsData(A0=((0, 1),))  # not square
        with pytest.raises(InputError):
            TdsData(A0=((0,),), A_delayed=((((1,),), 0),))  # zero state delay
        with pytest.raises(InputError):
            TdsData(A0=((0,),),
                    B_terms=((((1,),), 1), (((1,),), 1)))  # not increasing

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
        ev = holomat.qp_transfer_closure(h)
        z0 = 1.0 + 0j
        # transfer e^{-z/2} / z
        assert abs(ev.eval(z0)[0][0] - math.exp(-0.5) / 1.0) < 1e-12

    def test_pole_count_is_eigenvalues(self):
        data = TdsData(A0=((1, 0), (0, -2)), B_terms=(((((1,), (1,))), 0),),
                       C_terms=((((1, 1),), 0),))
        res = tds_pole_count(data, Contour.circle(0j, 1.5))
        assert res.n_minus_p == 1  # only the eigenvalue 1 is inside
