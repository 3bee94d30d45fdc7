import random

import pytest

from genutil import (
    minor_gcd,
    rand_polymat,
    rand_regular_polymat,
    rand_unimodular,
)
from meromat import polymat
from meromat.errors import (
    AnalysisError,
    InputError,
    NoSolutionError,
    RankDeficientError,
    SingularMatrixError,
)
from meromat.exactalg import QQ, Poly
from meromat.polymat import (
    GcrdResult,
    PolyMat,
    gcld,
    gcrd,
    hermite_form,
    smith_form,
)

Z = Poly.z()
ONE = Poly.one()
ZERO = Poly.zero()


def check_smith(a):
    dec = smith_form(a)
    assert dec.E @ dec.S @ dec.F == a
    assert polymat.is_unimodular(dec.E)
    assert polymat.is_unimodular(dec.F)
    factors = dec.invariant_factors
    assert len(factors) == dec.nrank == polymat.nrank(a)
    for p, q in zip(factors, factors[1:]):
        assert p.divides(q)
    for p in factors:
        assert p.is_monic
    # off-diagonal entries of S vanish
    for i, row in enumerate(dec.S.entries):
        for j, e in enumerate(row):
            if i != j:
                assert e.is_zero
    return dec


class TestPolyMat:
    def test_matmul_and_block(self):
        a = PolyMat([[Z, ONE], [ZERO, Z]])
        i = PolyMat.identity(2)
        assert a @ i == a
        blk = PolyMat.block([[a, i], [i, a]])
        assert blk.rows == blk.cols == 4
        assert blk.submatrix(slice(0, 2), slice(0, 2)) == a

    def test_diag_rectangular(self):
        d = PolyMat.diag([Z, ONE], rows=3, cols=2)
        assert d.entries[0][0] == Z
        assert d.entries[2][0].is_zero and d.entries[2][1].is_zero

    def test_det_inverse(self):
        u = PolyMat([[ONE, Z], [ZERO, ONE]])
        assert polymat.det(u) == ONE
        assert polymat.inverse_unimodular(u) @ u == PolyMat.identity(2)

    def test_inverse_singular(self):
        s = PolyMat([[Z, Z], [Z, Z]])
        with pytest.raises(SingularMatrixError):
            polymat.inverse_unimodular(s)


class TestSmith:
    def test_worked_example(self):
        a = PolyMat([[Z, ONE], [ZERO, Z * Z]])
        dec = check_smith(a)
        assert dec.invariant_factors == (ONE, Z ** 3)

    def test_zero_matrix(self):
        dec = smith_form(PolyMat.zeros(2, 3))
        assert dec.nrank == 0
        assert dec.invariant_factors == ()

    def test_random_reconstruction(self):
        rng = random.Random(5)
        for _ in range(25):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            check_smith(rand_polymat(rng, rows, cols, 2))

    def test_determinantal_oracle(self):
        rng = random.Random(6)
        for _ in range(10):
            a = rand_polymat(rng, 3, 3, 2)
            dec = check_smith(a)
            prod = ONE
            for k, phi in enumerate(dec.invariant_factors, start=1):
                prod = prod * phi
                assert minor_gcd(a, k) == prod.monic()


class TestHermite:
    def test_canonical_shape(self):
        rng = random.Random(7)
        for _ in range(10):
            d = rand_regular_polymat(rng, 3, 2)
            h, u = hermite_form(d)
            assert polymat.is_unimodular(u)
            assert u @ d == h
            for i in range(3):
                assert h.entries[i][i].is_monic
                for j in range(i):
                    assert h.entries[i][j].is_zero
                for j in range(i + 1, 3):
                    # entries above the diagonal are reduced
                    assert (h.entries[j][j].degree > h.entries[i][j].degree
                            or h.entries[i][j].is_zero)

    def test_idempotent(self):
        rng = random.Random(8)
        d = rand_regular_polymat(rng, 2, 2)
        h, _ = hermite_form(d)
        h2, u2 = hermite_form(h)
        assert h2 == h
        assert u2 == PolyMat.identity(2)


class TestGcrd:
    def test_certificate(self):
        rng = random.Random(9)
        for _ in range(12):
            a = rand_regular_polymat(rng, 2, 2)
            b = rand_polymat(rng, 2, 2, 2)
            res = gcrd(a, b)
            assert a == res.Q1 @ res.D
            assert b == res.Q2 @ res.D
            cert = res.certificate
            assert cert.X @ a + cert.Y @ b == res.D

    def test_planted_divisor(self):
        rng = random.Random(10)
        for _ in range(8):
            d = rand_regular_polymat(rng, 2, 1)
            q1 = rand_regular_polymat(rng, 2, 1)
            q2 = rand_polymat(rng, 2, 2, 1)
            res = gcrd(q1 @ d, q2 @ d)
            # the planted divisor right-divides the computed gcrd
            assert polymat.right_quotient(res.D, d) is not None
            # and when the cofactors are coprime the two agree up to a unit
            if polymat.are_right_coprime(q1, q2)[0]:
                assert polymat.det(res.D).monic() == polymat.det(d).monic()

    def test_rank_deficient(self):
        a = PolyMat([[Z, ZERO], [ZERO, ZERO]])
        b = PolyMat([[Z, ZERO], [Z, ZERO]])
        with pytest.raises(RankDeficientError):
            gcrd(a, b)

    def test_gcld_duality(self):
        rng = random.Random(11)
        a = rand_regular_polymat(rng, 2, 2)
        b = rand_polymat(rng, 2, 2, 2)
        res = gcld(a, b)
        assert a == res.D @ res.Q1
        assert b == res.D @ res.Q2
        cert = res.certificate
        assert a @ cert.X + b @ cert.Y == res.D


class TestCoprime:
    def test_bezout_certificate(self):
        a = PolyMat([[Z]])
        b = PolyMat([[Z + ONE]])
        ok, cert = polymat.are_right_coprime(a, b)
        assert ok
        assert cert.X @ a + cert.Y @ b == PolyMat.identity(1)

    def test_not_coprime(self):
        a = PolyMat([[Z]])
        b = PolyMat([[Z * Z]])
        ok, cert = polymat.are_right_coprime(a, b)
        assert not ok and cert is None

    def test_failed_certificate_raises(self, monkeypatch):
        a = PolyMat([[Z]])
        b = PolyMat([[Z - ONE]])
        real = polymat.gcrd

        def bad_gcrd(x, y):
            res = real(x, y)
            return GcrdResult(D=res.D @ PolyMat([[Z]]), Q1=res.Q1, Q2=res.Q2,
                              X=res.X, Y=res.Y)

        monkeypatch.setattr(polymat, "gcrd", bad_gcrd)
        with pytest.raises(AnalysisError):
            polymat.are_right_coprime(a, b)

    def test_completion_unimodular(self):
        rng = random.Random(12)
        for _ in range(8):
            a = rand_regular_polymat(rng, 2, 2)
            b = rand_polymat(rng, 1, 2, 2)
            if not polymat.are_right_coprime(a, b)[0]:
                continue
            c, d = polymat.coprime_completion(a, b)
            big = PolyMat.block([[a, c], [b, d]])
            assert polymat.is_unimodular(big)

    def test_solve_bezout(self):
        a = PolyMat([[Z]])
        b = PolyMat([[Z + ONE]])
        x, y = polymat.solve_bezout(a, b, PolyMat([[Z * Z]]))
        assert x @ a + y @ b == PolyMat([[Z * Z]])

    def test_solve_bezout_no_solution(self):
        a = PolyMat([[Z]])
        b = PolyMat([[Z * Z]])
        with pytest.raises(NoSolutionError) as exc:
            polymat.solve_bezout(a, b, PolyMat([[ONE]]))
        assert exc.value.gcrd is not None


class TestUnimodular:
    def test_random_products(self):
        rng = random.Random(13)
        for _ in range(10):
            u = rand_unimodular(rng, 3)
            assert polymat.is_unimodular(u)
            assert polymat.inverse_unimodular(u) @ u == PolyMat.identity(3)

    def test_non_unimodular(self):
        assert not polymat.is_unimodular(PolyMat([[Z]]))
