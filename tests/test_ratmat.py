import random
import time

import pytest

from genutil import (
    fracs,
    fresh,
    local_exponent_oracle,
    rand_qpoly,
    rand_ratmat,
    rand_unimodular,
    record_calls,
)
from meromat import linalg_exact, polymat, ratmat
from meromat.errors import InputError, NotCoprimeError
from meromat.exactalg import QQ, GaussRat, Poly, RatFn, poly_gcd, real_factor
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
        prod = m @ RatMat(linalg_exact.inverse(m.entries))
        assert prod == RatMat.identity(2)

    def test_mixed_operands_coerce(self):
        """A rational matrix combined with a polynomial one has rational
        entries throughout."""
        r = rmat([[Z, RatFn(ONE, Z)]])
        p = PolyMat([[ONE, Z]])
        for out in (r + p, r.hstack(p), r.vstack(p), r @ p.transpose()):
            assert type(out) is RatMat
            assert all(type(e) is RatFn for row in out.entries for e in row)
        assert r + p == r + RatMat.from_polymat(p)

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

    def test_planted_conjugate_pair(self):
        # both members of a non-real pair come back exact, each with its
        # multiplicity, beside a rational and two irrational roots
        w = GaussRat(QQ(-2, 3), QQ(5, 4))
        p = (real_factor(w) ** 2 * (Z - Poly.const(QQ(1, 3)))
             * (Z * Z - Poly.const(2)))
        roots = poly_roots(p)
        exact = {h.exact: k for h, k in roots if h.is_exact}
        assert exact == {w: 2, GaussRat(w.re, -w.im): 2, QQ(1, 3): 1}
        assert sum(k for _, k in roots) == p.degree
        assert sorted(k for h, k in roots if not h.is_exact) == [1, 1]

    def test_irrational_roots_are_numeric(self):
        p = Poly((QQ(-2), QQ(0), QQ(1)))  # z^2 - 2
        handles = [h for h, _ in poly_roots(p)]
        assert all(not h.is_exact for h in handles)
        assert any(abs(h.approx - 2 ** 0.5) < 1e-9 for h in handles)

    def test_handle_equality(self):
        assert RootHandle(approx=1.0000000001 + 0j) == RootHandle(exact=QQ(1))

    @pytest.mark.parametrize("point", [GaussRat(QQ(1, 3)), QQ(1, 3)])
    def test_handle_is_not_a_point(self, point):
        # a handle equals only handles, so it never equals a point it does
        # not hash like
        h = RootHandle(exact=QQ(1, 3))
        assert h != point and point != h
        assert len({h, point}) == 2
        assert h != 1 and RootHandle(exact=1) != 1

    @pytest.mark.parametrize("exact, approx", [
        (QQ(1), 1 + 0j),
        (GaussRat(QQ(1, 3), QQ(-3)), complex(1 / 3, -3) + 1e-12),
        (QQ(-7, 4), -1.75 + 1e-13j),
    ])
    def test_mixed_handles_hash_alike(self, exact, approx):
        # equal handles, one exact and one numeric: one set element, and
        # either finds the other
        ex, num = RootHandle(exact=exact), RootHandle(approx=approx)
        assert ex == num and hash(ex) == hash(num)
        assert len({ex, num}) == 1
        assert {ex: "pole"}[num] == "pole" and {num: 2}[ex] == 2
        assert {ex} - {num} == set()

    @pytest.mark.parametrize("boundary", [5e-7, -5e-7, 1.5, 2.0000005])
    def test_handles_hash_alike_across_rounding(self, boundary):
        # equal handles on either side of a boundary of the sixth decimal
        lo = RootHandle(approx=boundary - 1e-12)
        hi = RootHandle(approx=boundary + 1e-12)
        assert lo == hi and hash(lo) == hash(hi)
        assert len({lo, hi}) == 1 and {lo} - {hi} == set()
        tilted = RootHandle(approx=complex(boundary, boundary + 1e-12))
        flat = RootHandle(approx=complex(boundary, boundary - 1e-12))
        assert len({tilted, flat}) == 1

    def test_numeric_roots_against_mpmath(self):
        # real coefficients: real roots come back real, non-real ones in
        # exactly conjugate pairs, all within 1e-12 of mpmath
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(36)
        polys = [(Z * Z + ONE) * (Z - Poly.const(QQ(1, 3)))
                 * (Z * Z - Poly.const(2)) * (Z * Z + Z + Poly.const(3))]
        polys += [Poly([rng.randint(-5, 5) for _ in range(rng.randint(2, 6))]
                       + [1]) for _ in range(20)]
        for p in polys:
            with mpmath.workdps(60):
                ref = mpmath.polyroots(
                    [mpmath.mpf(x) / p.den for x in reversed(p.nums)],
                    maxsteps=200, extraprec=200)
                ref = [(complex(r), abs(mpmath.im(r)) < 1e-40) for r in ref]
            numeric = [h.approx for h, _ in poly_roots(p) if not h.is_exact]
            for z in numeric:
                near, real = min(ref, key=lambda rr: abs(rr[0] - z))
                assert abs(near - z) < 1e-12
                if real:
                    assert z.imag == 0.0
                else:
                    assert z.conjugate() in numeric
            nonreal = [z for z in numeric if z.imag != 0.0]
            assert len(nonreal) == 2 * sum(z.imag > 0 for z in nonreal)


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

    def test_no_rows_keep_their_columns(self):
        m = RatMat([], 2)
        dec = smith_mcmillan(m)
        assert dec.F.shape == (2, 2) and dec.sigma().shape == (0, 2)
        assert dec.reconstruct() == m
        assert m.to_polymat() == PolyMat([], 2)
        mfd = right_coprime_mfd(m)
        assert mfd.N == PolyMat([], 2) and mfd.D == PolyMat.identity(2)
        assert mcmillan_degree(m) == 0

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

    def test_mfd_transpose(self):
        m = rmat([[RatFn(ONE, Z), ONE, RatFn(Z, Z - ONE)]])
        right = right_coprime_mfd(m)
        left = right.transpose()
        assert left.side == "left" and left.coprime
        assert left.transfer() == m.transpose()
        assert left.transpose() == right

    def test_unit_relator_rejects_mismatch(self):
        rng = random.Random(25)
        m1 = right_coprime_mfd(rmat([[RatFn(ONE, Z)]]))
        m2 = right_coprime_mfd(rmat([[RatFn(ONE, Z - ONE)]]))
        with pytest.raises(InputError):
            mfd_unit_relator(m1, m2)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_mfd_differential(self, side):
        # N = M D (or D M) exactly, det D is the least order of M, and a
        # Bezout certificate proves N, D coprime
        rng = random.Random(33)
        mats = [rand_ratmat(rng, r, c) for r in (1, 2, 3) for c in (1, 2, 3)]
        mats += [RatMat.zeros(2, 3), rmat([[Z, ONE], [ONE, Z * Z]]),
                 RatMat([], 2), RatMat([[], []], 0)]
        for m in mats:
            if side == "right":
                mfd = right_coprime_mfd(m)
                n, d = RatMat.from_polymat(mfd.N), RatMat.from_polymat(mfd.D)
                ok, cert = polymat.are_right_coprime(mfd.N, mfd.D)
                assert n == m @ d
                assert cert.X @ mfd.N + cert.Y @ mfd.D == PolyMat.identity(
                    m.cols)
            else:
                mfd = left_coprime_mfd(m)
                n, d = RatMat.from_polymat(mfd.N), RatMat.from_polymat(mfd.D)
                ok, cert = polymat.are_left_coprime(mfd.N, mfd.D)
                assert n == d @ m
                assert mfd.N @ cert.X + mfd.D @ cert.Y == PolyMat.identity(
                    m.rows)
            assert mfd.side == side and mfd.coprime and ok
            assert polymat.det(mfd.D).monic() == least_order(m).zeros

    def test_mfd_scale(self):
        # the Smith-McMillan route took minutes on this 3 x 3 matrix, its
        # D reaching degree 25 with 430-bit coefficients
        rng = random.Random(2)

        def p(k):
            return Poly([rng.randint(-5, 5) for _ in range(k)] + [1])

        m = RatMat([[RatFn(p(rng.randint(0, 2)), p(rng.randint(1, 2)))
                     for _ in range(3)] for _ in range(3)])
        start = time.perf_counter()
        mfd = right_coprime_mfd(m)
        assert time.perf_counter() - start < 5
        bits = max(abs(x).bit_length() for row in mfd.D.entries
                   for e in row for x in e.nums + (e.den,))
        assert bits < 64
        assert mfd.coprime
        assert RatMat.from_polymat(mfd.N) == m @ RatMat.from_polymat(mfd.D)

    def test_mfd_builds_no_smith_form(self, monkeypatch):
        m = rand_ratmat(random.Random(34), 3, 2)
        smiths = record_calls(monkeypatch, polymat, "_smith")
        inverses = record_calls(monkeypatch, polymat, "inverse_unimodular")
        right_coprime_mfd(m)
        left_coprime_mfd(m)
        assert smiths == [] and inverses == []

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


def structure(m):
    """Every answer read from the Smith-McMillan form of m."""
    return (smith_mcmillan(m), least_order(m), least_order_total(m),
            mcmillan_degree(m), pole_zero_index(m, 0).values,
            zero_index(m, 1).values, pole_index(m, -1).values,
            right_coprime_mfd(m))


class TestKeptForms:
    def test_queries_share_one_form(self, monkeypatch):
        rng = random.Random(27)
        for rows, cols in ((2, 2), (2, 3), (3, 1)):
            m = rand_ratmat(rng, rows, cols)
            expect = structure(fresh(m))
            seen = record_calls(monkeypatch, ratmat, "_smith_mcmillan")
            dec = smith_mcmillan(m)
            assert smith_mcmillan(m) is dec
            assert structure(m) == expect
            assert sum(x is m for x in seen) == 1
            monkeypatch.undo()

    def test_second_mfd_reduces_only_its_stack(self, monkeypatch):
        m = rand_ratmat(random.Random(28), 2, 2)
        first = right_coprime_mfd(m)
        echelons = record_calls(monkeypatch, polymat, "_echelon")
        smiths = record_calls(monkeypatch, polymat, "_smith")
        # one gcrd, of the fresh stack [d M; d I], and no Smith form
        assert right_coprime_mfd(m) == first
        d_eye = PolyMat.diag([m.denominator_lcm()] * 2)
        stack = (RatMat.from_polymat(d_eye) @ m).to_polymat().vstack(d_eye)
        assert echelons == [stack] and smiths == []

    def test_equal_matrices_build_separately(self, monkeypatch):
        m = rand_ratmat(random.Random(29), 2, 2)
        twin = fresh(m)
        assert twin == m and hash(twin) == hash(m)
        seen = record_calls(monkeypatch, ratmat, "_smith_mcmillan_factors")
        for x in (m, twin, m, twin):
            least_order(x)
        assert [id(x) for x in seen] == [id(m), id(twin)]
        assert smith_mcmillan(m) == smith_mcmillan(twin)
        assert smith_mcmillan(m) is not smith_mcmillan(twin)

    FACTOR_QUERIES = {
        "zero_index": lambda m: zero_index(m, 1).values,
        "pole_index": lambda m: pole_index(m, -1).values,
        "pole_zero_index": lambda m: pole_zero_index(m, 0).values,
        "least_order": least_order,
        "least_order_total": least_order_total,
        "mcmillan_degree": mcmillan_degree,
    }

    @staticmethod
    def cases():
        """Random 1..3 x 1..3 inputs, and rank-deficient products through
        a thinner middle factor."""
        rng = random.Random(30)
        out = [rand_ratmat(rng, rng.randint(1, 3), rng.randint(1, 3))
               for _ in range(8)]
        for rows, inner, cols in ((2, 1, 2), (3, 1, 2), (3, 2, 3)):
            out.append(rand_ratmat(rng, rows, inner)
                       @ rand_ratmat(rng, inner, cols))
        return out

    def test_factor_queries_carry_nothing(self, monkeypatch):
        """The queries that read only the diagonal build no echelon, no
        Smith form with E and F, and no full decomposition."""
        for m in self.cases():
            for name, query in self.FACTOR_QUERIES.items():
                built = [record_calls(monkeypatch, mod, f) for mod, f in (
                    (polymat, "_echelon"), (polymat, "_smith"),
                    (ratmat, "_smith_mcmillan"))]
                query(fresh(m))
                assert built == [[], [], []], name
                monkeypatch.undo()

    def test_factor_queries_read_kept_decomposition(self, monkeypatch):
        """With the full decomposition kept, a query on M builds nothing."""
        for m in self.cases():
            smith_mcmillan(m)
            for name, query in self.FACTOR_QUERIES.items():
                if name == "mcmillan_degree":
                    continue  # it reads the forms of its two parts, not M's
                built = [record_calls(monkeypatch, mod, f) for mod, f in (
                    (polymat, "_echelon"), (polymat, "_smith"),
                    (polymat, "_invariant_factors"),
                    (ratmat, "_smith_mcmillan_factors"))]
                query(m)
                assert built == [[], [], [], []], name
                monkeypatch.undo()

    def test_factors_equal_full_decomposition(self):
        for m in self.cases():
            factors = ratmat._factors(fresh(m))
            dec = smith_mcmillan(fresh(m))
            assert factors == (dec.zero_factors, dec.pole_factors)
            full = fresh(m)
            smith_mcmillan(full)
            for name, query in self.FACTOR_QUERIES.items():
                assert query(fresh(m)) == query(full), name


def _sym(p, z):
    import sympy

    return sum(sympy.Rational(c.numerator, c.denominator) * z ** k
               for k, c in enumerate(fracs(p)))


def _sym_order(expr, z, pt):
    """Order at pt of a rational sympy expression: the vanishing
    derivatives of its numerator minus those of its denominator, there."""
    import sympy

    def mult(e):
        k = 0
        while sympy.expand(sympy.diff(e, z, k).subs(z, pt)) == 0:
            k += 1
        return k

    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    return mult(num) - mult(den)


class TestNonRealPoints:
    """Orders and local exponents at non-real points a + bi, against sympy
    at a + b*I, on random real polynomials with a planted factor
    ((z - a)^2 + b^2)^k."""

    @staticmethod
    def point(rng):
        a = QQ(rng.randint(-4, 4), rng.randint(1, 3))
        b = QQ(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([-1, 1])
        return GaussRat(a, b)

    def test_divisor_order(self):
        sp = pytest.importorskip("sympy")
        z = sp.Symbol("z")
        rng = random.Random(27)
        for _ in range(20):
            w = self.point(rng)
            pt = sp.Rational(w.re.numerator, w.re.denominator) + sp.I * \
                sp.Rational(w.im.numerator, w.im.denominator)
            q = real_factor(w)
            zeros = q ** rng.randint(0, 3) * rand_qpoly(rng, 3, nonzero=True)
            poles = q ** rng.randint(0, 3) * rand_qpoly(rng, 3, nonzero=True)
            d = Divisor(zeros=zeros, poles=poles)
            want = _sym_order(_sym(zeros, z) / _sym(poles, z), z, pt)
            assert d.order_at(w) == d.order_at(GaussRat(w.re, -w.im)) == want

    def test_pole_zero_index(self):
        sp = pytest.importorskip("sympy")
        from itertools import combinations

        z = sp.Symbol("z")
        rng = random.Random(28)
        for _ in range(8):
            w = self.point(rng)
            pt = sp.Rational(w.re.numerator, w.re.denominator) + sp.I * \
                sp.Rational(w.im.numerator, w.im.denominator)
            q = real_factor(w)
            grid = [[RatFn(q ** rng.randint(0, 2)
                           * rand_qpoly(rng, 1, nonzero=True),
                           q ** rng.randint(0, 2)
                           * rand_qpoly(rng, 1, nonzero=True))
                     for _ in range(2)] for _ in range(2)]
            m = RatMat(grid)
            sym = sp.Matrix(2, 2, [_sym(e.num, z) / _sym(e.den, z)
                                   for row in grid for e in row])
            # delta_k: least order at pt over the nonzero k x k minors
            deltas = [0]
            for k in (1, 2):
                orders = []
                for rows in combinations(range(2), k):
                    for cols in combinations(range(2), k):
                        minor = sp.cancel(sym.extract(list(rows),
                                                      list(cols)).det())
                        if minor != 0:
                            orders.append(_sym_order(minor, z, pt))
                if not orders:
                    break
                deltas.append(min(orders))
            want = tuple(b - a for a, b in zip(deltas, deltas[1:]))
            assert pole_zero_index(m, w).values == want
