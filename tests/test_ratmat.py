import random

import pytest

from genutil import local_exponent_oracle, rand_ratmat, rand_unimodular
from meromat import polymat, ratmat
from meromat.errors import InputError, NotCoprimeError
from meromat.exactalg import QQ, GaussRat, Poly, RatFn, poly_gcd
from meromat.polymat import PolyMat
from meromat.ratmat import (
    Divisor,
    Mfd,
    RatMat,
    RootHandle,
    least_order,
    least_order_total,
    left_coprime_mfd,
    mcmillan_degree,
    mfd_unit_relator,
    pole_index,
    pole_zero_index,
    poly_roots,
    right_coprime_mfd,
    smith_mcmillan,
    zero_index,
)

Z = Poly.z()
ONE = Poly.one()


def rmat(grid):
    return RatMat([[RatFn.coerce(e) for e in row] for row in grid])


class TestRatMat:
    def test_inverse(self):
        m = rmat([[Z, ONE], [ONE, Z]])
        prod = m @ m.inverse()
        assert prod == RatMat.identity(2)

    def test_polynomial_detection(self):
        m = rmat([[Z, ONE]])
        assert m.is_polynomial
        assert m.to_polymat() == PolyMat([[Z, ONE]])
        assert not RatMat([[RatFn(ONE, Z)]]).is_polynomial

    def test_eval(self):
        m = RatMat([[RatFn(ONE, Z)]])
        assert abs(m.eval(2.0 + 0j)[0][0] - 0.5) < 1e-12


class TestRoots:
    def test_exact_roots(self):
        p = Poly.from_roots([QQ(1), QQ(1), QQ(-2)])
        found = {h.exact.re: k for h, k in poly_roots(p)}
        assert found == {QQ(1): 2, QQ(-2): 1}

    def test_gaussian_roots(self):
        # z^2 + 1 has exact roots +-i
        p = Poly((QQ(1), QQ(0), QQ(1)))
        handles = [h for h, _ in poly_roots(p)]
        assert all(h.is_exact for h in handles)
        assert {h.exact.im for h in handles} == {QQ(1), QQ(-1)}

    def test_irrational_roots_are_numeric(self):
        p = Poly((QQ(-2), QQ(0), QQ(1)))  # z^2 - 2
        handles = [h for h, _ in poly_roots(p)]
        assert all(not h.is_exact for h in handles)
        assert any(abs(h.approx - 2 ** 0.5) < 1e-9 for h in handles)

    def test_handle_equality(self):
        assert RootHandle(approx=1.0000000001 + 0j) == RootHandle(exact=QQ(1))


class TestDivisor:
    def test_algebra(self):
        a = Divisor.of_zeros(Z * (Z - ONE))
        b = Divisor(zeros=Z, poles=Z - ONE)
        s = a + b
        assert s.order_at(GaussRat(QQ(0))) == 2
        assert s.order_at(GaussRat(QQ(1))) == 0
        assert a - a == Divisor()
        assert (a - a).is_empty

    def test_partial_order(self):
        small = Divisor.of_zeros(Z)
        big = Divisor.of_zeros(Z * Z * (Z - ONE))
        assert small <= big
        assert not big <= small
        assert small < big

    def test_support(self):
        d = Divisor(zeros=Z ** 2, poles=Z - ONE)
        sup = {h.approx: k for h, k in d.support().items()}
        assert sup == {0j: 2, 1 + 0j: -1}


class TestSmithMcMillan:
    def test_worked_example(self):
        m = RatMat([[RatFn(ONE, Z), RatFn(0)], [RatFn(0), RatFn(Z)]])
        dec = smith_mcmillan(m)
        assert dec.zero_factors == (ONE, Z)
        assert dec.pole_factors == (Z, ONE)
        assert dec.reconstruct() == m

    def test_random_properties(self):
        rng = random.Random(21)
        for _ in range(15):
            m = rand_ratmat(rng, rng.randint(1, 3), rng.randint(1, 3))
            dec = smith_mcmillan(m)
            assert dec.reconstruct() == m
            assert polymat.is_unimodular(dec.E)
            assert polymat.is_unimodular(dec.F)
            for phi, psi in zip(dec.zero_factors, dec.pole_factors):
                assert poly_gcd(phi, psi).is_constant
            for a, b in zip(dec.zero_factors, dec.zero_factors[1:]):
                assert a.divides(b)
            for a, b in zip(dec.pole_factors, dec.pole_factors[1:]):
                assert b.divides(a)

    def test_indices_against_oracle(self):
        m = rmat([[RatFn(ONE, Z), ONE], [ONE, Z]])
        lam = GaussRat(QQ(0))
        assert pole_zero_index(m, lam).values == local_exponent_oracle(m, lam)

    def test_index_split(self):
        m = RatMat([[RatFn(ONE, Z), RatFn(0)], [RatFn(0), RatFn(Z)]])
        assert pole_index(m, 0).values == (1, 0)
        assert zero_index(m, 0).values == (0, 1)
        assert pole_zero_index(m, 0).values == (-1, 1)


    @pytest.mark.parametrize("point", [2 ** 0.5, 1 + 0j])
    def test_float_point_rejected(self, point):
        m = RatMat([[Z * Z - Poly.const(QQ(2))]])
        for query in (zero_index, pole_index, pole_zero_index):
            with pytest.raises(InputError):
                query(m, point)

    @pytest.mark.parametrize(
        "point", [QQ(1), 1, GaussRat(QQ(1)), RootHandle(exact=QQ(1))])
    def test_exact_point_accepted(self, point):
        m = RatMat([[Z * Z - Poly.const(QQ(2))]])
        res = pole_zero_index(m, point)
        assert res.point == GaussRat(QQ(1)) and res.values == (0,)

class TestMfd:
    def test_right_reconstruction(self):
        rng = random.Random(22)
        for _ in range(10):
            m = rand_ratmat(rng, 2, 2)
            mfd = right_coprime_mfd(m)
            assert mfd.coprime
            assert mfd.transfer() == m

    def test_left_reconstruction(self):
        rng = random.Random(23)
        for _ in range(10):
            m = rand_ratmat(rng, 2, 3)
            mfd = left_coprime_mfd(m)
            assert mfd.coprime
            assert mfd.transfer() == m

    def test_unit_relator_recovers_plant(self):
        rng = random.Random(24)
        m = rand_ratmat(rng, 2, 2)
        mfd = right_coprime_mfd(m)
        v = rand_unimodular(rng, 2)
        planted = Mfd(N=mfd.N @ v, D=mfd.D @ v, side="right", coprime=True)
        u = mfd_unit_relator(planted, mfd)
        assert u == v

    def test_unit_relator_rejects_mismatch(self):
        rng = random.Random(25)
        m1 = right_coprime_mfd(rmat([[RatFn(ONE, Z)]]))
        m2 = right_coprime_mfd(rmat([[RatFn(ONE, Z - ONE)]]))
        with pytest.raises(InputError):
            mfd_unit_relator(m1, m2)

    def test_unit_relator_needs_coprime(self):
        mfd = Mfd(N=PolyMat([[Z]]), D=PolyMat([[Z]]), side="right",
                  coprime=False)
        with pytest.raises(NotCoprimeError):
            mfd_unit_relator(mfd, mfd)


class TestLeastOrder:
    def test_sides_agree(self):
        rng = random.Random(26)
        for _ in range(8):
            m = rand_ratmat(rng, 2, 2)
            nu = least_order(m)
            assert right_coprime_mfd(m).order_divisor() == nu
            assert left_coprime_mfd(m).order_divisor() == nu

    def test_strict_growth_for_noncoprime(self):
        m = rmat([[RatFn(ONE, Z)]])
        mfd = right_coprime_mfd(m)
        w = PolyMat([[Z - ONE]])  # non-unimodular extra factor
        bloated = Mfd(N=mfd.N @ w, D=mfd.D @ w, side="right", coprime=False)
        assert least_order(m) < bloated.order_divisor()

    def test_mcmillan_degree(self):
        # finite poles only
        assert mcmillan_degree(RatMat([[RatFn(ONE, Z)]])) == 1
        # pole at infinity only
        assert mcmillan_degree(rmat([[Z]])) == 1
        # both: 1/z + z^2 has one finite pole and a double pole at infinity
        f = RatFn(ONE, Z) + RatFn.coerce(Z * Z)
        assert mcmillan_degree(RatMat([[f]])) == 3
        # constants have degree zero
        assert mcmillan_degree(rmat([[ONE]])) == 0

    def test_total(self):
        m = RatMat([[RatFn(ONE, Z * Z)]])
        assert least_order_total(m) == 2
