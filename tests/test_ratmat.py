import gc
import random
import time

import pytest

from genutil import (
    found_ratmat,
    fracs,
    fresh,
    local_exponent_oracle,
    minor_gcd,
    rand_qpoly,
    rand_ratmat,
    rand_unimodular,
    record_calls,
)
from meromat import linalg_exact, polymat, ratmat
from meromat.errors import InputError, NotCoprimeError
from meromat.exactalg import QQ, GaussRat, Poly, RatFn, poly_gcd, real_factor
from meromat.holomat import QuasiPolyEntry, QuasiPolyMat
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
        """A rational or quasi-polynomial matrix combined with a polynomial
        one, in either order, has entries of the wider ring throughout; a
        rational and a quasi-polynomial matrix do not combine."""
        p = PolyMat([[ONE, Z]])
        r = rmat([[Z, RatFn(ONE, Z)]])
        q = QuasiPolyMat([[QuasiPolyEntry([(Z, 1)]), Z]])
        for w, cls in ((r, RatMat), (q, QuasiPolyMat)):
            for out in (w + p, p + w, w - p, p - w, w.hstack(p), p.hstack(w),
                        w.vstack(p), p.vstack(w), w @ p.transpose(),
                        p.transpose() @ w):
                assert type(out) is cls
                assert all(type(e) is cls.entry
                           for row in out.entries for e in row)
            assert w + p == p + w == w + cls.from_polymat(p)
            assert p.transpose() @ w == cls.from_polymat(p.transpose()) @ w
        for x, y in ((r, q), (q, r)):
            for op in (x.__add__, x.hstack, x.vstack):
                with pytest.raises(InputError, match="cannot combine"):
                    op(y)
            with pytest.raises(InputError, match="cannot combine"):
                x.transpose() @ y

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
        m = found_ratmat(3, 2)
        start = time.perf_counter()
        mfd = right_coprime_mfd(m)
        assert time.perf_counter() - start < 5
        bits = max(abs(x).bit_length() for row in mfd.D.entries
                   for e in row for x in e.nums + (e.den,))
        assert bits < 64
        assert mfd.coprime
        assert RatMat.from_polymat(mfd.N) == m @ RatMat.from_polymat(mfd.D)

    @pytest.mark.parametrize("n, seed", [(5, 1), (6, 1), (6, 2)])
    def test_found_scale(self, n, seed):
        # on these, the right MFD took 7 s at 5 x 5 through an echelon
        # carrying U, and least order 2.6 s at 5 x 5 and 27-73 s at 6 x 6
        # through Smith passes; the Hermite form modulo d takes about
        # 0.03 s
        m = found_ratmat(n, seed)
        timed = {}
        for name, query in (("right", right_coprime_mfd),
                            ("left", left_coprime_mfd),
                            ("least_order", least_order)):
            start = time.perf_counter()
            timed[name] = query(fresh(m))
            assert time.perf_counter() - start < 2, name
        right, left, nu = timed["right"], timed["left"], timed["least_order"]
        assert RatMat.from_polymat(right.N) == m @ RatMat.from_polymat(
            right.D)
        assert RatMat.from_polymat(left.N) == RatMat.from_polymat(
            left.D) @ m
        for mfd in (right, left):
            assert mfd.coprime
            assert polymat.det(mfd.D).monic() == nu.zeros

    def test_mfd_builds_no_smith_form(self, monkeypatch):
        m = rand_ratmat(random.Random(34), 3, 2)
        built = [record_calls(monkeypatch, polymat, f) for f in (
            "_smith", "_echelon", "inverse_unimodular")]
        right_coprime_mfd(m)
        left_coprime_mfd(m)
        assert built == [[], [], []]

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

    def test_mfd_builds_no_echelon(self, monkeypatch):
        """An MFD builds no echelon and no Smith form: one Hermite form
        modulo d, of d M, kept on M for a second MFD and the poles."""
        m = rand_ratmat(random.Random(28), 2, 2)
        d = m.denominator_lcm()
        built = [record_calls(monkeypatch, polymat, f) for f in (
            "_echelon", "_smith", "_hermite_mod")]
        first = right_coprime_mfd(m)
        assert right_coprime_mfd(m) == first
        nu, total = least_order(m), least_order_total(m)
        cleared = (RatMat.from_polymat(PolyMat.diag([d] * 2)) @ m).to_polymat()
        assert built == [[], [], [cleared]]
        monkeypatch.undo()
        assert (nu, total) == (least_order(fresh(m)),
                               least_order_total(fresh(m)))
        assert nu == first.order_divisor()

    def test_equal_matrices_build_separately(self, monkeypatch):
        m = rand_ratmat(random.Random(29), 2, 2)
        twin = fresh(m)
        assert twin == m and hash(twin) == hash(m)
        seen = record_calls(monkeypatch, ratmat, "_modular_hermite")
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

    INDEX_QUERIES = ("zero_index", "pole_index", "pole_zero_index")

    def test_factor_queries_carry_nothing(self, monkeypatch):
        """The queries that read only the diagonal build no echelon, no
        Smith form with E and F, and no full decomposition. The index
        queries also build no Hermite form modulo d and run no Smith pass,
        and keep nothing on M."""
        for m in self.cases():
            for name, query in self.FACTOR_QUERIES.items():
                built = [record_calls(monkeypatch, mod, f) for mod, f in (
                    (polymat, "_echelon"), (polymat, "_smith"),
                    (ratmat, "_smith_mcmillan"), (polymat, "_hermite_mod"),
                    (polymat, "_diagonalise"))]
                x = fresh(m)
                query(x)
                if name in self.INDEX_QUERIES:
                    assert built == [[], [], [], [], []], name
                    assert not x._kept, name
                else:
                    assert built[:3] == [[], [], []], name
                monkeypatch.undo()

    def test_factor_queries_read_kept_decomposition(self, monkeypatch):
        """With the full decomposition kept, a query on M builds nothing."""
        for m in self.cases():
            smith_mcmillan(m)
            for name, query in self.FACTOR_QUERIES.items():
                if name == "mcmillan_degree":
                    continue  # its part at infinity is another matrix
                built = [record_calls(monkeypatch, mod, f) for mod, f in (
                    (polymat, "_echelon"), (polymat, "_smith"),
                    (polymat, "_hermite_mod"))]
                query(m)
                assert built == [[], [], []], name
                monkeypatch.undo()

    def test_mcmillan_degree_reads_m(self, monkeypatch):
        """The finite part of the McMillan degree is read from M's own
        kept Hermite form, so the least-order command builds that form for
        M alone; it equals the Smith-McMillan pole degree of the strictly
        proper part, and the part at infinity that of P(1/z) at 0."""
        for m in self.cases():
            parts = [[divmod(e.num, e.den) for e in row] for row in m.entries]
            sp = RatMat([[RatFn(r, e.den) for (_, r), e in zip(row, erow)]
                         for row, erow in zip(parts, m.entries)], m.cols)
            at_zero = RatMat([[RatFn(q.reverse(max(q.degree, 0)),
                                     Z ** max(q.degree, 0))
                               for q, _ in row]
                              for row in parts], m.cols)
            expect = sum(f.degree for f in smith_mcmillan(sp).pole_factors)
            expect += sum(f.multiplicity_at(0)
                          for f in smith_mcmillan(at_zero).pole_factors)
            seen = record_calls(monkeypatch, ratmat, "_modular_hermite")
            m = fresh(m)
            least_order(m), least_order_total(m)
            assert mcmillan_degree(m) == expect
            assert seen == [m] and seen[0] is m
            monkeypatch.undo()

    def test_factors_equal_full_decomposition(self):
        """The local exponents at a point are the multiplicities there in
        the factors of the full decomposition, and a kept decomposition
        changes no answer."""
        for m in self.cases():
            dec = smith_mcmillan(fresh(m))
            for lam in (0, 1, -1, 2, -2, QQ(1, 2)):
                assert pole_zero_index(fresh(m), lam).values == tuple(
                    p.multiplicity_at(lam) - q.multiplicity_at(lam)
                    for p, q in zip(dec.zero_factors, dec.pole_factors))
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


def _sym_matrix(m, z):
    """m, a RatMat or a PolyMat, as a sympy Matrix of rational functions
    of z."""
    import sympy

    return sympy.Matrix(m.rows, m.cols, [
        _sym(e.num, z) / _sym(e.den, z)
        for row in m.entries for e in map(RatFn.coerce, row)])


def _pole_oracle(mat, x):
    """The monic least common denominator of all minors of the sympy
    matrix mat, rational in x, as a sympy Poly. A k x k minor of mat is
    that of the polynomial d mat over d^k, d the least common denominator
    of the entries. So with g_k the gcd of the k x k minors of d mat
    (determinants over QQ[x]), the k x k minors of mat have the least
    common denominator d^k / gcd(g_k, d^k)."""
    from itertools import combinations

    import sympy
    from sympy.polys.matrices import DomainMatrix

    d = sympy.Poly(1, x)
    for e in mat:
        d = d.lcm(sympy.Poly(sympy.fraction(sympy.cancel(e))[1], x))
    # over ZZ[x] when every coefficient of d mat is an integer
    cleared = DomainMatrix.from_Matrix(
        mat.applyfunc(lambda e: sympy.cancel(e * d.as_expr())))
    ring = cleared.domain
    d = ring.from_sympy(d.as_expr())
    psi = ring.one
    for k in range(1, min(mat.shape) + 1):
        g = ring.zero
        for rows in combinations(range(mat.rows), k):
            for cols in combinations(range(mat.cols), k):
                g = ring.gcd(g, cleared.extract(list(rows), list(cols)).det())
        dk = d ** k
        psi = ring.lcm(psi, ring.exquo(dk, ring.gcd(g, dk)))
    return sympy.Poly(ring.to_sympy(psi), x, domain="QQ").monic()


def _oracle_cases():
    """Random dense inputs up to 4 x 4, two of them from the FOUND
    generator, rank-deficient products through a thinner middle factor,
    a zero matrix, and matrices with no rows or no columns."""
    rng = random.Random(35)
    out = [rand_ratmat(rng, rows, cols) for rows, cols in (
        (1, 1), (1, 3), (2, 2), (3, 2), (2, 4), (3, 3), (4, 4))]
    out += [found_ratmat(3, 3), found_ratmat(4, 1)]
    for rows, inner, cols in ((2, 1, 2), (3, 1, 3), (4, 2, 3)):
        out.append(rand_ratmat(rng, rows, inner)
                   @ rand_ratmat(rng, inner, cols))
    out += [RatMat.zeros(2, 3), RatMat([], 2), RatMat([[], []], 0)]
    return out


class TestPoleOracle:
    """MFDs and least order against sympy, with no use of polymat."""

    @pytest.mark.parametrize("m", _oracle_cases(),
                             ids=lambda m: f"{m.rows}x{m.cols}")
    def test_mfds_and_least_order(self, m):
        sympy = pytest.importorskip("sympy")
        z, w = sympy.symbols("z w")
        mat = _sym_matrix(m, z)
        psi = _pole_oracle(mat, z)
        for mfd in (right_coprime_mfd(fresh(m)), left_coprime_mfd(fresh(m))):
            n_sym, d_sym = _sym_matrix(mfd.N, z), _sym_matrix(mfd.D, z)
            if mfd.side == "right":
                product, k, stack = mat * d_sym, m.cols, mfd.N.vstack(mfd.D)
            else:
                product, k, stack = d_sym * mat, m.rows, mfd.N.hstack(mfd.D)
            assert (n_sym - product).applyfunc(sympy.cancel).is_zero_matrix
            assert minor_gcd(stack, k) == ONE
            det = sympy.cancel(d_sym.det())
            assert sympy.Poly(det, z, domain="QQ").monic() == psi
        nu = least_order(fresh(m)).zeros
        assert sympy.Poly(_sym(nu, z), z, domain="QQ") == psi
        assert least_order_total(fresh(m)) == psi.degree()
        at_infinity = _pole_oracle(mat.subs(z, 1 / w), w)
        multiplicity = 0
        while at_infinity.eval(0) == 0:
            at_infinity = at_infinity.exquo(sympy.Poly(w, w))
            multiplicity += 1
        assert mcmillan_degree(fresh(m)) == psi.degree() + multiplicity


def _index_oracle(mat, z, a, b):
    """The local exponents of the sympy matrix mat, rational in z, at the
    exact point a + b i: τ_k = δ_k − δ_(k−1), δ_k the least
    order at the point over the nonzero k x k minors. A k x k minor of mat
    is that of the polynomial d mat (a determinant over QQ[z]) over d^k,
    d the least common denominator of the entries; the order of a real
    polynomial at a + b i is its multiplicity of (z − a)^2 + b^2."""
    from itertools import combinations

    import sympy
    from sympy.polys.matrices import DomainMatrix

    if not min(mat.shape):
        return ()
    d = sympy.Poly(1, z)
    for e in mat:
        d = d.lcm(sympy.Poly(sympy.fraction(sympy.cancel(e))[1], z))
    cleared = DomainMatrix.from_Matrix(
        mat.applyfunc(lambda e: sympy.cancel(e * d.as_expr())))
    ring = cleared.domain
    minors = []  # minors[k - 1]: the nonzero k x k minors of d mat
    for k in range(1, min(mat.shape) + 1):
        found = [sympy.Poly(ring.to_sympy(g), z, domain="QQ")
                 for rows in combinations(range(mat.rows), k)
                 for cols in combinations(range(mat.cols), k)
                 if (g := cleared.extract(list(rows), list(cols)).det())]
        if not found:
            break
        minors.append(found)

    def mult(p, q):
        k = 0
        while p.rem(q).is_zero:
            p, k = p.quo(q), k + 1
        return k

    q = sympy.Poly((z - a) ** 2 + b ** 2 if b else z - a, z, domain="QQ")
    at_d = mult(d, q)
    deltas = [0] + [min(mult(g, q) for g in found) - k * at_d
                    for k, found in enumerate(minors, 1)]
    return tuple(y - x for x, y in zip(deltas, deltas[1:]))


def _planted_cases(rng, lam):
    """Random matrices from 1 x 1 to 4 x 4 whose numerators and
    denominators carry the real factor of lam to powers 0..2, products of
    such through a thinner middle factor, orders 4 and 5 at lam stacked on
    zero rows (which add nothing to the degree bound of the elimination),
    a zero matrix, and matrices with no rows or no columns."""
    q = real_factor(lam)
    dens = (ONE, Z + Poly.const(3), Z - Poly.const(4))

    def planted(rows, cols):
        return RatMat([[RatFn(q ** rng.randint(0, 2) * rand_qpoly(rng, 1),
                              q ** rng.randint(0, 2) * rng.choice(dens))
                        for _ in range(cols)] for _ in range(rows)])

    out = [planted(rows, cols) for rows, cols in (
        (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4))]
    for rows, inner, cols in ((2, 1, 2), (3, 1, 3), (4, 2, 3)):
        out.append(planted(rows, inner) @ planted(inner, cols))
    out += [RatMat([[q ** 4], [0]]), RatMat([[q ** 4]] + [[0]] * 7),
            RatMat([[q ** 4 * rand_qpoly(rng, 1, nonzero=True), q ** 5]]
                   + [[0, 0]] * 2)]
    return out + [RatMat.zeros(2, 3), RatMat([], 2), RatMat([[], []], 0)]


class TestIndexOracle:
    """The three index queries against the orders of sympy minors, with no
    use of polymat, at real and non-real points with planted factors."""

    POINTS = (QQ(0), QQ(1), QQ(-1), QQ(1, 2), QQ(-2, 3),
              GaussRat(QQ(1, 2), QQ(3, 2)), GaussRat(QQ(-1), QQ(-2)))

    @pytest.mark.parametrize("lam", POINTS,
                             ids=lambda p: repr(GaussRat.coerce(p)))
    def test_indices_against_minors(self, lam):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")
        lam = GaussRat.coerce(lam)
        rng = random.Random(str(lam))
        a = sympy.Rational(lam.re.numerator, lam.re.denominator)
        b = sympy.Rational(lam.im.numerator, lam.im.denominator)
        for m in _planted_cases(rng, lam):
            want = _index_oracle(_sym_matrix(m, z), z, a, b)
            assert pole_zero_index(m, lam).values == want
            assert zero_index(m, lam).values == tuple(max(t, 0)
                                                      for t in want)
            assert pole_index(m, lam).values == tuple(max(-t, 0)
                                                      for t in want)


class TestNormalRank:
    """The elimination of the index queries stops at the normal rank, which
    _normal_rank certifies from ranks at integer points, rather than
    doubling its truncation up to a degree bound (K = 256 and 7 s at 1 + i
    on the 6 x 5 product below)."""

    def test_against_rank_over_the_rational_functions(self):
        rng = random.Random(31)
        for k in range(30):
            rows, inner, cols = rng.randint(1, 4), rng.randint(1, 3), \
                rng.randint(1, 4)
            m = rand_ratmat(rng, rows, inner) @ rand_ratmat(rng, inner, cols)
            if k % 3 == 0:  # a zero row
                m = RatMat([[RatFn(0)] * cols] + list(m.entries))
            assert ratmat._normal_rank(m) == linalg_exact.rank(m.entries)
        assert ratmat._normal_rank(RatMat.zeros(2, 3)) == 0
        assert ratmat._normal_rank(RatMat([], 2)) == 0

    def test_poles_at_the_integer_points(self):
        # every entry has poles at 0, ±1 and ±2, the first points taken;
        # the ranks there are those of diag(lᵢ) M, a polynomial matrix
        d = Z * (Z * Z - ONE) * (Z * Z - Poly.const(4))
        m = RatMat([[RatFn(ONE, d), RatFn(Z, d)],
                    [RatFn(Z, d), RatFn(Z * Z, d)]])
        assert ratmat._normal_rank(m) == 1
        assert pole_zero_index(m, 0).values == (-1,)

    @pytest.mark.parametrize("rows, inner, cols", [(6, 3, 5), (4, 2, 3)])
    def test_rank_deficient_products(self, rows, inner, cols, monkeypatch):
        rng = random.Random(5)
        m = rand_ratmat(rng, rows, inner) @ rand_ratmat(rng, inner, cols)
        assert ratmat._normal_rank(m) == inner
        passes = record_calls(monkeypatch, ratmat, "_pivot_orders")
        # a full collection now, so that no garbage of earlier tests is
        # collected inside the timed calls; the 6 x 5 product takes about
        # 7 ms at 1 + i on a 2-vCPU VM, and up to twice that while the VM
        # is shared, so the bound leaves room above 10 ms
        gc.collect()
        for lam in (GaussRat(1, 1), QQ(1, 3)):
            best = None
            for _ in range(5):
                passes.clear()
                start = time.perf_counter()
                got = pole_zero_index(m, lam).values
                took = time.perf_counter() - start
                best = took if best is None else min(best, took)
            assert best < 0.025, (lam, best)
            assert got == (0,) * inner
            # one elimination, at the first truncation
            assert len(passes) == 1


class TestIndexScale:
    """On the FOUND matrices, where the Smith passes from d M took 1.2 to
    2.3 s at 5 x 5 and 30.5 s at 6 x 6, each index query at two integer
    poles and at 0 takes well under a second. Σκ is the least order there,
    and Στ the order of det(d M) / dⁿ. polymat.det takes 1 to 2 s on the
    5 x 5 matrices and 17 and 71 s on the 6 x 6 ones, so those take their
    determinant from sympy."""

    @pytest.mark.parametrize("n, seed", [(5, 1), (5, 2), (6, 1), (6, 2)])
    def test_found_scale(self, n, seed):
        m = found_ratmat(n, seed)
        d = m.denominator_lcm()
        cleared = ratmat._cleared(m, d)
        if n == 5:
            det = polymat.det(cleared)
        else:
            sympy = pytest.importorskip("sympy")
            from sympy.polys.matrices import DomainMatrix

            z = sympy.Symbol("z")
            det = sympy.Poly(DomainMatrix.from_Matrix(
                _sym_matrix(cleared, z)).det().as_expr(), z, domain="QQ")
            det = Poly([QQ(int(c.p), int(c.q)) for c in reversed(
                det.all_coeffs())])
        nu = least_order(m).zeros
        poles = [k for k in range(-6, 7) if d.multiplicity_at(k)][:2]
        for lam in poles + [0]:
            timed = {}
            for query in (zero_index, pole_index, pole_zero_index):
                start = time.perf_counter()
                timed[query] = query(m, lam).values
                assert time.perf_counter() - start < 1, query.__name__
            tau = timed[pole_zero_index]
            assert sum(timed[pole_index]) == nu.multiplicity_at(lam)
            assert sum(tau) == (det.multiplicity_at(lam)
                                - n * d.multiplicity_at(lam))
            assert timed[zero_index] == tuple(max(t, 0) for t in tau)
        if (n, seed) == (6, 1):
            assert pole_zero_index(m, -3).values == (-1, -1, -1, 0, 0, 0)
