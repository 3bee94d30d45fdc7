import random
import struct
from fractions import Fraction

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

from genutil import (
    rand_qpoly,
    ref_add,
    ref_call,
    ref_derivative,
    ref_divmod,
    ref_eval_exact,
    ref_gcd,
    ref_monic,
    ref_mul,
    ref_trim,
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

    def test_eq_hash_contract(self):
        # equal values hash alike across RatFn, Poly and the scalars
        assert len({RatFn(1), 1, QQ(1), GaussRat(1)}) == 1
        assert RatFn(1) == QQ(1) and QQ(1) == RatFn(1)
        half = RatFn(Poly.const(QQ(1, 2)))
        assert half == QQ(1, 2) and half == GaussRat(QQ(1, 2))
        assert half == Poly.const(QQ(1, 2))
        assert (hash(half) == hash(QQ(1, 2)) == hash(GaussRat(QQ(1, 2)))
                == hash(Poly.const(QQ(1, 2))))
        g = GaussRat(QQ(1, 2), QQ(-3))
        assert RatFn(g) == g and hash(RatFn(g)) == hash(g)
        z = Poly.z()
        assert RatFn(z) == z and hash(RatFn(z)) == hash(z)
        assert RatFn(z) != 1 and RatFn(1, z) != 1 and RatFn(1, z) != z
        assert RatFn(0) == 0 and hash(RatFn(0)) == hash(0)


def bits(v) -> bytes:
    v = complex(v)
    return struct.pack("<dd", v.real, v.imag)


class TestKernelDifferential:
    """Poly's integer kernel against coefficient-by-coefficient GaussRat
    arithmetic (genutil's reference) and sympy."""

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_ring_ops_and_division(self, gaussian):
        rng = random.Random(11 + gaussian)
        for _ in range(150):
            p, q = rand_qpoly(rng, 6, gaussian), rand_qpoly(rng, 6, gaussian)
            a, b = list(p.coeffs), list(q.coeffs)
            assert Poly(a) == p
            assert list((p + q).coeffs) == ref_add(a, b)
            assert list((p - q).coeffs) == ref_add(a, b, -1)
            assert list((p * q).coeffs) == ref_mul(a, b)
            assert list((-p).coeffs) == ref_add([], a, -1)
            c = rand_qpoly(rng, 0, gaussian).constant_value()
            assert list(p.scale(c).coeffs) == ref_mul(a, [c])
            assert list(p.derivative().coeffs) == ref_derivative(a)
            assert list(p.monic().coeffs) == ref_monic(a)
            d = p.degree + rng.randint(0, 2)
            assert list(p.reverse(d).coeffs) == ref_trim(
                [0] * (d - p.degree) + a[::-1])
            if q.is_zero:
                continue
            quo, rem = divmod(p, q)
            assert (list(quo.coeffs), list(rem.coeffs)) == ref_divmod(a, b)
            assert quo * q + rem == p and rem.degree < q.degree
            assert (p * q).exact_div(q) == p
            if rem:
                with pytest.raises(ValueError):
                    p.exact_div(q)

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_gcd_lcm(self, gaussian):
        rng = random.Random(21 + gaussian)
        for _ in range(80):
            common = rand_qpoly(rng, 3, gaussian, nonzero=True)
            p = rand_qpoly(rng, 4, gaussian) * common
            q = rand_qpoly(rng, 4, gaussian) * common
            g = poly_gcd(p, q)
            assert list(g.coeffs) == ref_gcd(p.coeffs, q.coeffs)
            if p.is_zero or q.is_zero:
                continue
            assert g.divides(p) and g.divides(q) and common.divides(p)
            lcm = poly_lcm(p, q)
            assert list(lcm.coeffs) == ref_divmod(ref_mul(p.coeffs, q.coeffs),
                                                  list(g.coeffs))[0]

    def test_gcd_against_sympy(self):
        sp = pytest.importorskip("sympy")
        z = sp.Symbol("z")

        def sym(p):
            return sum((sp.Rational(c.re.numerator, c.re.denominator)
                        + sp.I * sp.Rational(c.im.numerator, c.im.denominator))
                       * z ** k for k, c in enumerate(p.coeffs))

        rng = random.Random(31)
        for gaussian, domain in ((False, "QQ"), (True, "QQ_I")):
            for _ in range(40):
                common = rand_qpoly(rng, 3, gaussian, nonzero=True, bits=6)
                p = rand_qpoly(rng, 5, gaussian, nonzero=True, bits=6) * common
                q = rand_qpoly(rng, 4, gaussian, nonzero=True, bits=6) * common
                want = sp.Poly(sym(p), z, domain=domain).gcd(
                    sp.Poly(sym(q), z, domain=domain)).monic()
                assert sp.expand(sym(poly_gcd(p, q)) - want.as_expr()) == 0

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_squarefree_decomposition(self, gaussian):
        sp = pytest.importorskip("sympy") if not gaussian else None
        rng = random.Random(41 + gaussian)
        for _ in range(30):
            factors = [rand_qpoly(rng, 2, gaussian, nonzero=True)
                       for _ in range(3)]
            p = rand_qpoly(rng, 0, gaussian, nonzero=True)
            for k, f in enumerate(factors, 1):
                p = p * f ** k
            parts = squarefree_decomposition(p)
            recon = Poly.one()
            for g, k in parts:
                assert g.is_monic and not g.is_constant
                assert poly_gcd(g, g.derivative()) == Poly.one()
                recon = recon * g ** k
            assert recon == p.monic()
            ks = [k for _, k in parts]
            assert len(set(ks)) == len(ks)
            for i, (g, _) in enumerate(parts):
                for h, _ in parts[i + 1:]:
                    assert poly_gcd(g, h) == Poly.one()
            if sp is not None:
                z = sp.Symbol("z")
                expr = sum(sp.Rational(c.re.numerator, c.re.denominator)
                           * z ** k for k, c in enumerate(p.coeffs))
                _, want = sp.Poly(expr, z, domain="QQ").sqf_list()
                got = {(tuple(g.coeffs), k) for g, k in parts}
                assert got == {(tuple(Fraction(int(c.p), int(c.q)) for c in
                                      reversed(f.monic().all_coeffs())), k)
                               for f, k in want}

    def test_multiplicity_at_complex_point(self):
        rng = random.Random(51)
        for _ in range(40):
            w = GaussRat(QQ(rng.randint(-5, 5), rng.randint(1, 4)),
                         QQ(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
            k = rng.randint(0, 3)
            r = rand_qpoly(rng, 3, rng.random() < 0.5, nonzero=True)
            if not r.eval_exact(w):
                r = r + Poly.one()
            p = Poly.from_roots([w] * k) * r
            assert p.eval_exact(w) == ref_eval_exact(p.coeffs, w)
            assert r.eval_exact(w) == ref_eval_exact(r.coeffs, w)
            assert p.multiplicity_at(w) == k
            # a real polynomial with the root pair w, conj(w)
            pair = Poly.from_roots([w, GaussRat(w.re, -w.im)] * k)
            assert pair.all_real_rational()
            assert pair.multiplicity_at(GaussRat(w.re, -w.im)) == k

    def test_canonical_form(self):
        forms = [Poly([QQ(2, 4), 0]), Poly([GaussRat(QQ(1, 2))]),
                 Poly([Fraction(1, 2)]), Poly([QQ(1, 2), GaussRat(0, 0)])]
        assert all(f == forms[0] for f in forms)
        assert len({hash(f) for f in forms}) == 1
        assert (forms[0].re, forms[0].im, forms[0].den) == ((1,), (), 2)
        p = Poly([GaussRat(QQ(1, 3), QQ(1, 6)), QQ(2, 4), GaussRat(0, 0)])
        assert (p.re, p.im, p.den) == ((2, 3), (1, 0), 6)
        i = Poly([GaussRat(0, QQ(-2, 3))])
        assert (i.re, i.im, i.den) == ((0,), (-2,), 3)
        assert i.degree == 0 and not i.is_zero and not i.all_real_rational()
        assert Poly([QQ(-6, 4), QQ(3, 2)]).monic() == Poly([-1, 1])
        with pytest.raises(AttributeError):
            p.den = 1

    def test_zero_polynomial(self):
        zero = Poly([QQ(0), GaussRat(0, 0)])
        assert zero == Poly.zero() == Poly()
        assert (zero.re, zero.im, zero.den) == ((), (), 1)
        assert zero.degree == -1 and zero.coeffs == () and not zero
        assert zero.is_constant and not zero.is_monic
        assert zero.leading() == 0 and zero.constant_value() == 0
        assert hash(zero) == hash(0)
        p = rand_qpoly(random.Random(61), 4, True, nonzero=True)
        assert p * zero == zero and p + zero == p and p - p == zero
        assert divmod(zero, p) == (zero, zero)
        assert zero.derivative() == zero and zero.monic() == zero
        assert zero.reverse(3) == zero and zero.scale(QQ(5)) == zero
        assert zero(1.5 + 2j) == 0j and zero.eval_exact(3) == 0
        assert poly_gcd(zero, zero) == zero
        assert poly_gcd(zero, p) == p.monic() == poly_gcd(p, zero)
        assert poly_lcm(zero, p) == zero
        with pytest.raises(ZeroDivisionError):
            divmod(p, zero)
        with pytest.raises(ValueError):
            squarefree_decomposition(zero)
        with pytest.raises(ValueError):
            zero.multiplicity_at(1)


class TestFloatEval:
    def test_call_matches_coefficient_horner(self):
        # bit for bit, signed zeros included, also where int / int rounds
        rng = random.Random(71)
        nodes = [0j, complex(0.0, -0.0), complex(-0.0, 0.0),
                 complex(-0.0, -0.0), complex(-0.0, 1.25), -2, 0.5, -0.0]
        for gaussian in (False, True):
            for size in (4, 70):
                for _ in range(60):
                    p = rand_qpoly(rng, 8, gaussian, bits=size)
                    zs = nodes + [complex(rng.uniform(-3, 3),
                                          rng.uniform(-3, 3)),
                                  rng.uniform(-3, 3)]
                    for z in zs:
                        assert bits(p(z)) == bits(ref_call(p.coeffs, z))


class TestKernelGuard:
    """The kernel stays on integers: with GaussRat arithmetic disabled, and
    Poly's product disabled where it is not the operation itself, every
    operation still gives the value it gave before."""

    def test_no_gaussrat_arithmetic(self, monkeypatch):
        rng = random.Random(81)
        cases = [(rand_qpoly(rng, 5, g, nonzero=True),
                  rand_qpoly(rng, 3, g, nonzero=True))
                 for g in (False, True) for _ in range(12)]

        def run(p, q):
            f, g = RatFn(p, q), RatFn(q, p * q + Poly.one())
            return (p + q, p - q, p * q, -p, p * 3, divmod(p * p, q),
                    poly_gcd(p * q, q * q), poly_lcm(p, q),
                    squarefree_decomposition(p * p * q),
                    p.scale(GaussRat(QQ(2, 3), QQ(1, 5))), p.monic(),
                    p.derivative(), p.reverse(p.degree + 1),
                    p.multiplicity_at(GaussRat(QQ(1, 2), 1)),
                    p.eval_exact(GaussRat(QQ(1, 2), -1)),
                    f, g, f + g, f - g, f * g, f / g, -f, f + 1, 2 * f,
                    f.derivative(), f.polynomial_part(), hash(f), hash(p))

        want = [run(p, q) for p, q in cases]

        def boom(*args):
            raise AssertionError("GaussRat arithmetic in the kernel")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__neg__", "__truediv__",
                     "__rtruediv__", "inverse"):
            monkeypatch.setattr(GaussRat, name, boom)
        assert [run(p, q) for p, q in cases] == want

    def test_scale_is_not_a_product(self, monkeypatch):
        # the traced run counts Poly.__mul__ calls as polynomial products
        rng = random.Random(91)
        cases = [rand_qpoly(rng, 5, g, nonzero=True) for g in (False, True)
                 for _ in range(10)]

        def run(p):
            return (p.scale(QQ(3, 7)), p.scale(GaussRat(1, -2)), p.monic(),
                    -p, p.derivative(), RatFn(p, p.scale(QQ(5, 2))),
                    RatFn(Poly.one(), p.scale(QQ(-3))))

        want = [run(p) for p in cases]

        def boom(*args):
            raise AssertionError("Poly product")

        monkeypatch.setattr(Poly, "__mul__", boom)
        monkeypatch.setattr(Poly, "__rmul__", boom)
        assert [run(p) for p in cases] == want
