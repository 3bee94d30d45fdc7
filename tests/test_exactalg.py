import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meromat.errors import InputError
from meromat.exactalg import (
    QQ,
    GaussRat,
    Poly,
    RatFn,
    poly_gcd,
    poly_lcm,
    real_factor,
    squarefree_decomposition,
)

from genutil import (
    fracs,
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
qpolys = st.lists(st.fractions(-6, 6, max_denominator=4),
                  max_size=5).map(lambda cs: Poly([QQ(c) for c in cs]))


def mkpoly(cs):
    return Poly([QQ(c) for c in cs])


class TestGaussRat:
    def test_arithmetic(self):
        # a point and coefficient-view type: no arithmetic of its own
        a = GaussRat(QQ(1, 2), QQ(3))
        b = GaussRat(QQ(2), QQ(-1))
        for op in (lambda: a + b, lambda: a - b, lambda: a * b,
                   lambda: a / b, lambda: -a, lambda: 1 + a, lambda: 2 * a,
                   lambda: 1 / a):
            with pytest.raises(TypeError):
                op()
        assert not hasattr(a, "inverse")
        assert (a.re, a.im) == (QQ(1, 2), QQ(3)) and a == GaussRat(a.re, 3)

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

    def test_derivative_against_quotient_rule(self):
        """The derivative built reduced equals (num' den - num den') / den^2
        reduced by RatFn, with repeated factors in the denominator,
        constant denominators and zero derivatives among the cases."""
        rng = random.Random(29)
        pool = [Poly((QQ(c), QQ(1))) for c in (0, 1, -2, QQ(1, 3))] + [
            Poly((QQ(1), QQ(0), QQ(1))), Poly((QQ(-2), QQ(1), QQ(3)))]
        zero_derivatives = 0
        for _ in range(2000):
            num = rand_qpoly(rng, rng.choice((0, 0, 2, 4)), bits=3)
            den = Poly.const(QQ(rng.randint(1, 9), rng.choice((1, -3))))
            for _ in range(rng.choice((0, 0, 1, 2, 3))):
                den = den * rng.choice(pool) ** rng.randint(1, 3)
            f = RatFn(num, den)
            want = RatFn(f.num.derivative() * f.den
                         - f.num * f.den.derivative(), f.den * f.den)
            got = f.derivative()
            assert (got.num, got.den) == (want.num, want.den)
            assert got.den.is_monic
            zero_derivatives += got.is_zero
        assert zero_derivatives > 100

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
        # a non-real point equals no rational function
        g = GaussRat(QQ(1, 2), QQ(-3))
        assert RatFn(QQ(1, 2)) != g and g != RatFn(QQ(1, 2))
        z = Poly.z()
        assert RatFn(z) == z and hash(RatFn(z)) == hash(z)
        assert RatFn(z) != 1 and RatFn(1, z) != 1 and RatFn(1, z) != z
        assert RatFn(0) == 0 and hash(RatFn(0)) == hash(0)

    def test_polynomial_operand_first(self):
        # Poly leaves an operand it cannot take to that operand's ring
        z = Poly.z()
        f = RatFn(Poly.one(), z)
        assert z * f == f * z == RatFn(1)
        assert z + f == f + z == RatFn(z * z + Poly.one(), z)
        assert z - f == -(f - z)
        assert z / f == RatFn(z * z) and 1 / f == RatFn(z) and f / f == 1
        with pytest.raises(TypeError):
            z + object()

    def test_text(self):
        z = Poly.z()
        p = Poly([1, -1, QQ(3, 2)])
        assert str(p) == "3/2*z^2 - z + 1" and repr(p) == f"Poly({p})"
        assert str(-z) == "-z" and str(Poly.zero()) == "0"
        assert str(Poly([QQ(-1, 2), 0, 0, 2])) == "2*z^3 - 1/2"
        f = RatFn(Poly.one(), z.scale(QQ(2)))
        assert str(f) == "(1/2)/(z)" and repr(f) == "RatFn((1/2)/(z))"
        assert str(RatFn(z * z - Poly.one(), z - Poly.one())) == "z + 1"


def bits(v) -> bytes:
    v = complex(v)
    return struct.pack("<dd", v.real, v.imag)


class TestKernelDifferential:
    """Poly's integer kernel against coefficient-by-coefficient Fraction
    arithmetic (genutil's reference) and sympy, on small and on large
    (70-bit) coefficients."""

    @pytest.mark.parametrize("big", [False, True])
    def test_ring_ops_and_division(self, big):
        rng = random.Random(11 + big)
        bits = 70 if big else 4
        for _ in range(150):
            p, q = rand_qpoly(rng, 6, bits=bits), rand_qpoly(rng, 6, bits=bits)
            a, b = fracs(p), fracs(q)
            assert Poly(a) == p
            assert fracs(p + q) == ref_add(a, b)
            assert fracs(p - q) == ref_add(a, b, -1)
            assert fracs(p * q) == ref_mul(a, b)
            assert fracs(-p) == ref_add([], a, -1)
            c = fracs(rand_qpoly(rng, 0, bits=bits)) or [0]
            assert fracs(p.scale(c[0])) == ref_mul(a, c)
            assert fracs(p.derivative()) == ref_derivative(a)
            assert fracs(p.monic()) == ref_monic(a)
            d = p.degree + rng.randint(0, 2)
            assert fracs(p.reverse(d)) == ref_trim(
                [0] * (d - p.degree) + a[::-1])
            if q.is_zero:
                continue
            quo, rem = divmod(p, q)
            assert (fracs(quo), fracs(rem)) == ref_divmod(a, b)
            assert quo * q + rem == p and rem.degree < q.degree
            assert (p * q).exact_div(q) == p
            if rem:
                with pytest.raises(ValueError):
                    p.exact_div(q)

    @pytest.mark.parametrize("big", [False, True])
    def test_elimination_step_and_partial_division(self, big):
        """The step x + sign * q * y, built once on integer numerators,
        gives the (nums, den) of the operator expression; `//` and `%` give
        the two halves of divmod; scaling by the integer pair of 1 / lc
        gives scale(1 / lc). Zero, constants and negative leading
        coefficients are drawn on purpose."""
        rng = random.Random(17 + big)
        bits = 70 if big else 4
        special = [Poly.zero(), Poly.one(), Poly.const(QQ(-3, 2)),
                   Poly((QQ(1), QQ(0), QQ(-5, 3))), Poly((QQ(2), QQ(-7)))]

        def draw():
            if rng.random() < 0.25:
                return rng.choice(special)
            return rand_qpoly(rng, 5, bits=bits)

        def parts(p):
            return p.nums, p.den

        for _ in range(200):
            x, q, y = draw(), draw(), draw()
            assert parts(x._plus(q, -1, y)) == parts(x - q * y)
            assert parts(x._plus(q, 1, y)) == parts(x + q * y)
            if y.is_zero:
                for op in (divmod, lambda a, b: a // b, lambda a, b: a % b):
                    with pytest.raises(ZeroDivisionError):
                        op(x, y)
                continue
            quo, rem = divmod(x, y)
            assert parts(x // y) == parts(quo)
            assert parts(x % y) == parts(rem)
            scaled = y._scaled(*y._lead_inverse())
            assert parts(scaled) == parts(y.scale(1 / y.leading().re))
            assert scaled.is_monic

    @given(qpolys, qpolys, qpolys, st.sampled_from((-1, 1)),
           st.sampled_from(("free", "cancel", "drop")))
    @settings(max_examples=300)
    def test_elimination_step_one_pass(self, x, q, y, sign, shape):
        """x + sign * q * y, formed in one pass, is canonical and has the
        coefficients of the reference arithmetic, also where q or y is
        zero, where everything cancels and where the degree drops."""
        prod = q * y
        if shape == "cancel":
            x = prod.scale(-sign)
        elif shape == "drop":  # keeps only the terms of x below deg q*y
            x = prod.scale(-sign) + Poly(x.coeffs[:max(prod.degree, 0)])
        got = x._plus(q, sign, y)
        assert fracs(got) == ref_add(fracs(x), ref_mul(fracs(q), fracs(y)),
                                     sign)
        assert got.nums[-1:] != (0,) and got.den > 0
        assert math.gcd(got.den, *got.nums) == 1
        if shape == "cancel":
            assert got.is_zero
        elif shape == "drop" and prod.degree > 0:
            assert got.degree < prod.degree

    @pytest.mark.parametrize("big", [False, True])
    def test_gcd_lcm(self, big):
        rng = random.Random(21 + big)
        bits = 70 if big else 4
        for _ in range(80):
            common = rand_qpoly(rng, 3, nonzero=True, bits=bits)
            p = rand_qpoly(rng, 4, bits=bits) * common
            q = rand_qpoly(rng, 4, bits=bits) * common
            g = poly_gcd(p, q)
            assert fracs(g) == ref_gcd(fracs(p), fracs(q))
            if p.is_zero or q.is_zero:
                continue
            assert g.divides(p) and g.divides(q) and common.divides(p)
            lcm = poly_lcm(p, q)
            assert fracs(lcm) == ref_divmod(ref_mul(fracs(p), fracs(q)),
                                            fracs(g))[0]

    def test_gcd_against_sympy(self):
        sp = pytest.importorskip("sympy")
        z = sp.Symbol("z")

        def sym(p):
            return sum(sp.Rational(c.numerator, c.denominator) * z ** k
                       for k, c in enumerate(fracs(p)))

        rng = random.Random(31)
        for _ in range(40):
            common = rand_qpoly(rng, 3, nonzero=True, bits=6)
            p = rand_qpoly(rng, 5, nonzero=True, bits=6) * common
            q = rand_qpoly(rng, 4, nonzero=True, bits=6) * common
            want = sp.Poly(sym(p), z, domain="QQ").gcd(
                sp.Poly(sym(q), z, domain="QQ")).monic()
            assert sp.expand(sym(poly_gcd(p, q)) - want.as_expr()) == 0

    @pytest.mark.parametrize("big", [False, True])
    def test_squarefree_decomposition(self, big):
        sp = pytest.importorskip("sympy")
        rng = random.Random(41 + big)
        bits = 70 if big else 4
        for _ in range(30):
            factors = [rand_qpoly(rng, 2, nonzero=True, bits=bits)
                       for _ in range(3)]
            p = rand_qpoly(rng, 0, nonzero=True, bits=bits)
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
            z = sp.Symbol("z")
            expr = sum(sp.Rational(c.numerator, c.denominator) * z ** k
                       for k, c in enumerate(fracs(p)))
            _, want = sp.Poly(expr, z, domain="QQ").sqf_list()
            got = {(tuple(fracs(g)), k) for g, k in parts}
            assert got == {(tuple(Fraction(int(c.p), int(c.q)) for c in
                                  reversed(f.monic().all_coeffs())), k)
                           for f, k in want}

    def test_multiplicity_at_complex_point(self):
        # a non-real point a + bi through its real factor (z - a)^2 + b^2
        rng = random.Random(51)
        for _ in range(40):
            a = QQ(rng.randint(-5, 5), rng.randint(1, 4))
            b = QQ(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
            w, w_bar = GaussRat(a, b), GaussRat(a, -b)
            assert real_factor(w) == real_factor(w_bar) == Poly(
                [a * a + b * b, -2 * a, 1])
            k = rng.randint(0, 3)
            r = rand_qpoly(rng, 3, nonzero=True)
            if not r.eval_exact(w):
                r = r + Poly.one()
            p = real_factor(w) ** k * r
            for f in (p, r):
                assert (f.eval_exact(w).re, f.eval_exact(w).im) == \
                    ref_eval_exact(fracs(f), (a, b))
            assert p.multiplicity_at(w) == p.multiplicity_at(w_bar) == k
            assert p.multiplicity_at(a) == r.multiplicity_at(a)

    def test_points_against_sympy(self):
        # random real polynomials with a planted factor ((z-a)^2 + b^2)^k:
        # value and multiplicity at a + bi as sympy computes them there
        sp = pytest.importorskip("sympy")
        z = sp.Symbol("z")
        rng = random.Random(53)
        for _ in range(30):
            a = QQ(rng.randint(-6, 6), rng.randint(1, 5))
            b = QQ(rng.randint(1, 6), rng.randint(1, 5)) * rng.choice([-1, 1])
            k = rng.randint(0, 3)
            p = real_factor(GaussRat(a, b)) ** k * rand_qpoly(
                rng, 4, nonzero=True)
            expr = sum(sp.Rational(c.numerator, c.denominator) * z ** j
                       for j, c in enumerate(fracs(p)))
            pt = sp.Rational(a.numerator, a.denominator) + sp.I * sp.Rational(
                b.numerator, b.denominator)
            v = p.eval_exact(GaussRat(a, b))
            want = sp.expand(expr.subs(z, pt))
            assert sp.Rational(v.re.numerator, v.re.denominator) == sp.re(want)
            assert sp.Rational(v.im.numerator, v.im.denominator) == sp.im(want)
            mult = 0
            while sp.expand(sp.diff(expr, z, mult).subs(z, pt)) == 0:
                mult += 1
            assert p.multiplicity_at(GaussRat(a, b)) == mult >= k

    def test_non_real_coefficient_rejected(self):
        i = GaussRat(0, 1)
        for make in (lambda: Poly([1, i]), lambda: Poly.const(i),
                     lambda: Poly.z().scale(GaussRat(QQ(1, 2), -1)),
                     lambda: Poly.from_roots([i]), lambda: RatFn(i),
                     lambda: RatFn(Poly.one(), GaussRat(1, 1))):
            with pytest.raises(InputError):
                make()
        # real GaussRat coefficients are accepted
        assert Poly([GaussRat(QQ(1, 2)), 1]) == Poly([QQ(1, 2), 1])

    def test_canonical_form(self):
        forms = [Poly([QQ(2, 4), 0]), Poly([GaussRat(QQ(1, 2))]),
                 Poly([Fraction(1, 2)]), Poly([QQ(1, 2), GaussRat(0, 0)])]
        assert all(f == forms[0] for f in forms)
        assert len({hash(f) for f in forms}) == 1
        assert (forms[0].nums, forms[0].den) == ((1,), 2)
        p = Poly([QQ(1, 3), QQ(2, 4), GaussRat(0, 0)])
        assert (p.nums, p.den) == ((2, 3), 6)
        assert Poly([QQ(-6, 4), QQ(3, 2)]).monic() == Poly([-1, 1])
        with pytest.raises(AttributeError):
            p.den = 1

    def test_zero_polynomial(self):
        zero = Poly([QQ(0), GaussRat(0, 0)])
        assert zero == Poly.zero() == Poly()
        assert (zero.nums, zero.den) == ((), 1)
        assert zero.degree == -1 and zero.coeffs == () and not zero
        assert zero.is_constant and not zero.is_monic
        assert zero.leading() == 0 and zero.constant_value() == 0
        assert hash(zero) == hash(0)
        p = rand_qpoly(random.Random(61), 4, nonzero=True)
        assert p * zero == zero and p + zero == p and p - p == zero
        assert divmod(zero, p) == (zero, zero)
        assert zero.derivative() == zero and zero.monic() == zero
        assert zero.reverse(3) == zero and zero.scale(QQ(5)) == zero
        assert zero(1.5 + 2j) == 0j and zero.eval_exact(3) == 0
        assert zero.eval_exact(GaussRat(1, 2)) == 0
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
        for size in (4, 70):
            for _ in range(120):
                p = rand_qpoly(rng, 8, bits=size)
                zs = nodes + [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                              rng.uniform(-3, 3)]
                for z in zs:
                    assert bits(p(z)) == bits(ref_call(fracs(p), z))


class TestKernelGuard:
    """The kernel stays on integers: GaussRat has no arithmetic, and with
    the rationals' arithmetic disabled too, and Poly's product disabled
    where it is not the operation itself, every operation still gives the
    value it gave before."""

    def test_no_gaussrat_arithmetic(self, monkeypatch):
        if QQ is not Fraction:
            pytest.skip("the rationals' arithmetic is patched on Fraction")
        rng = random.Random(81)
        cases = [(rand_qpoly(rng, 5, nonzero=True, bits=bits),
                  rand_qpoly(rng, 3, nonzero=True, bits=bits))
                 for bits in (4, 70) for _ in range(12)]
        third = QQ(2, 3)

        def run(p, q):
            f, g = RatFn(p, q), RatFn(q, p * q + Poly.one())
            return (p + q, p - q, p * q, -p, p * 3, divmod(p * p, q),
                    poly_gcd(p * q, q * q), poly_lcm(p, q),
                    squarefree_decomposition(p * p * q),
                    p.scale(third), p.scale(GaussRat(third)), p.monic(),
                    p.derivative(), p.reverse(p.degree + 1), p.coeffs,
                    f, g, f + g, f - g, f * g, f / g, -f, f + 1, 2 * f,
                    f.derivative(), f.polynomial_part(), hash(f), hash(p))

        want = [run(p, q) for p, q in cases]

        def boom(*args):
            raise AssertionError("rational arithmetic in the kernel")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__neg__", "__truediv__",
                     "__rtruediv__", "__pow__"):
            assert not hasattr(GaussRat, name)
            monkeypatch.setattr(Fraction, name, boom)
        assert [run(p, q) for p, q in cases] == want

    def test_power_products(self, monkeypatch):
        """z**n squares its base only while bits of n remain: one product
        per set bit and one squaring per further bit."""
        calls = []
        real = Poly.__mul__

        def counted(p, q):
            calls.append(None)
            return real(p, q)

        monkeypatch.setattr(Poly, "__mul__", counted)
        counts = []
        for n in range(1, 9):
            calls.clear()
            assert Poly.z() ** n == Poly([0] * n + [1])
            counts.append(len(calls))
        assert counts == [1, 2, 3, 3, 4, 4, 5, 4]

    def test_scale_is_not_a_product(self, monkeypatch):
        # the traced run counts Poly.__mul__ calls as polynomial products
        rng = random.Random(91)
        cases = [rand_qpoly(rng, 5, nonzero=True, bits=bits)
                 for bits in (4, 70) for _ in range(10)]

        def run(p):
            return (p.scale(QQ(3, 7)), p.scale(GaussRat(QQ(-1, 2))),
                    p.monic(), -p, p.derivative(),
                    RatFn(p, p.scale(QQ(5, 2))),
                    RatFn(Poly.one(), p.scale(QQ(-3))))

        want = [run(p) for p in cases]

        def boom(*args):
            raise AssertionError("Poly product")

        monkeypatch.setattr(Poly, "__mul__", boom)
        monkeypatch.setattr(Poly, "__rmul__", boom)
        assert [run(p) for p in cases] == want
