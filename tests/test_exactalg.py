import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meromat.exactalg import (
    QQ,
    GaussRat,
    Poly,
    RatFn,
    poly_gcd,
    poly_lcm,
    squarefree_decomposition,
)

coeffs = st.lists(st.integers(-6, 6), min_size=0, max_size=5)


def mkpoly(cs):
    return Poly([QQ(c) for c in cs])


class TestGaussRat:
    def test_arithmetic(self):
        a = GaussRat(QQ(1, 2), QQ(3))
        b = GaussRat(QQ(2), QQ(-1))
        assert a + b == GaussRat(QQ(5, 2), QQ(2))
        assert a * b == GaussRat(QQ(4), QQ(11, 2))
        assert (a * a.inverse()) == GaussRat(QQ(1))

    def test_real_detection(self):
        assert GaussRat(QQ(7)).is_real
        assert not GaussRat(QQ(0), QQ(1)).is_real

    def test_to_complex(self):
        assert GaussRat(QQ(1, 4), QQ(-2)).to_complex() == 0.25 - 2j


class TestPoly:
    def test_normalization(self):
        assert Poly([QQ(1), QQ(0), QQ(0)]).degree == 0
        assert Poly([]).degree == -1
        assert Poly.zero().is_zero

    def test_eval(self):
        p = mkpoly([1, -3, 0, 1])  # z^3 - 3z + 1
        assert p.eval_exact(GaussRat(QQ(2))) == GaussRat(QQ(3))
        assert abs(p(2.0 + 0j) - 3.0) < 1e-12

    def test_from_roots(self):
        p = Poly.from_roots([QQ(1), QQ(2)])
        assert p == mkpoly([2, -3, 1])

    def test_reverse(self):
        p = mkpoly([1, 2, 3])
        assert p.reverse(2) == mkpoly([3, 2, 1])
        assert p.reverse(4) == mkpoly([0, 0, 3, 2, 1])

    def test_multiplicity(self):
        p = Poly.from_roots([QQ(1), QQ(1), QQ(2)])
        assert p.multiplicity_at(GaussRat(QQ(1))) == 2
        assert p.multiplicity_at(GaussRat(QQ(3))) == 0

    @given(coeffs, coeffs)
    def test_divmod_identity(self, a, b):
        p, d = mkpoly(a), mkpoly(b)
        if d.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(p, d)
            return
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.degree < d.degree

    @given(coeffs, coeffs)
    def test_gcd_divides_both(self, a, b):
        p, q = mkpoly(a), mkpoly(b)
        g = poly_gcd(p, q)
        if p.is_zero and q.is_zero:
            assert g.is_zero
            return
        assert g.leading() == GaussRat(QQ(1))
        assert g.divides(p) if not p.is_zero else True
        assert g.divides(q) if not q.is_zero else True

    @given(coeffs, coeffs)
    @settings(max_examples=60)
    def test_lcm_contains_both(self, a, b):
        p, q = mkpoly(a), mkpoly(b)
        if p.is_zero or q.is_zero:
            return
        m = poly_lcm(p, q)
        assert p.divides(m) and q.divides(m)
        assert m.degree == p.degree + q.degree - poly_gcd(p, q).degree

    def test_gcd_euclid_oracle(self):
        # independent check: Euclid on a worked pair, then trial division
        z = Poly.z()
        p = (z - Poly.one()) * (z + Poly.one())
        q = z - Poly.one()
        g = poly_gcd(p, q)
        assert g == z - Poly.one()
        assert g.divides(p) and g.divides(q)

    def test_squarefree(self):
        z = Poly.z()
        p = z ** 3 * (z - Poly.one()) ** 2 * (z + Poly.one())
        parts = dict((k, g) for g, k in squarefree_decomposition(p))
        assert parts[3] == z
        assert parts[2] == z - Poly.one()
        assert parts[1] == z + Poly.one()
        recon = Poly.one()
        for g, k in squarefree_decomposition(p):
            recon = recon * g ** k
        assert recon == p.monic()


class TestRatFn:
    def test_auto_reduce(self):
        z = Poly.z()
        f = RatFn(z * z - Poly.one(), z - Poly.one())
        assert f.is_polynomial
        assert f.to_poly() == z + Poly.one()

    def test_monic_denominator(self):
        z = Poly.z()
        f = RatFn(Poly.one(), z.scale(QQ(2)))
        assert f.den == z
        assert f.num == Poly.const(QQ(1, 2))

    @given(coeffs, coeffs, coeffs, coeffs)
    @settings(max_examples=60)
    def test_field_ops(self, a, b, c, d):
        pb, pd = mkpoly(b), mkpoly(d)
        if pb.is_zero or pd.is_zero:
            return
        f = RatFn(mkpoly(a), pb)
        g = RatFn(mkpoly(c), pd)
        s = f + g
        assert s - g == f
        if not g.is_zero:
            assert (f * g) / g == f

    def test_derivative(self):
        z = Poly.z()
        f = RatFn(Poly.one(), z)
        df = f.derivative()
        assert df == RatFn(Poly.const(QQ(-1)), z * z)

    def test_polynomial_part(self):
        z = Poly.z()
        f = RatFn(z * z + Poly.one(), z)
        p, sp = f.polynomial_part()
        assert p == z
        assert sp == RatFn(Poly.one(), z)
        assert RatFn.coerce(p) + sp == f
