import inspect
import itertools
import random
import time

import pytest

from genutil import (
    fresh,
    minor_gcd,
    rand_polymat,
    rand_regular_polymat,
    rand_unimodular,
    record_calls,
)
from meromat import linalg_exact, polymat
from meromat.errors import (
    AnalysisError,
    InputError,
    NoSolutionError,
    NotCoprimeError,
    RankDeficientError,
    SingularMatrixError,
)
from meromat.exactalg import QQ, Poly, RatFn
from meromat.polymat import (
    PolyMat,
    gcld,
    gcrd,
    hermite_form,
    smith_form,
)
from meromat.ratmat import RatMat

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


def rat_inverse(d):
    """The inverse of d over the rational functions (Gauss-Jordan)."""
    return RatMat(linalg_exact.inverse(RatMat.from_polymat(d).entries))


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

    def test_no_rational_function_kernels(self, monkeypatch):
        """Every public polymat function works in Q[z] alone: none reaches
        the RatFn rank, determinant or inverse kernels."""
        def refuse(*args):
            raise AssertionError("polymat used a rational-function kernel")

        for name in ("rank", "det", "inverse"):
            monkeypatch.setattr(linalg_exact, name, refuse)
        a = PolyMat([[Z, ONE], [ZERO, Z]])
        b = PolyMat([[Z + ONE, ZERO]])
        c = PolyMat([[ONE], [Z + ONE]])
        u = PolyMat([[ONE, Z], [ZERO, ONE]])
        eye = PolyMat.identity(2)

        def completed():
            top, bottom = polymat.coprime_completion(a, b)
            return polymat.is_unimodular(
                PolyMat.block([[a, top], [b, bottom]]))

        def solved():
            x, y = polymat.solve_bezout(a, b, eye)
            return x @ a + y @ b == eye

        calls = {
            "smith_form": lambda: smith_form(a).nrank == 2,
            "hermite_form": lambda: hermite_form(a)[0] == a,
            "det": lambda: polymat.det(a) == Z * Z,
            "nrank": lambda: polymat.nrank(a.vstack(b)) == 2,
            "is_unimodular": lambda: polymat.is_unimodular(u),
            "inverse_unimodular":
                lambda: polymat.inverse_unimodular(u) @ u == eye,
            "gcrd": lambda: gcrd(a, b).D == eye,
            "gcld": lambda: gcld(a, c).D == eye,
            "are_right_coprime": lambda: polymat.are_right_coprime(a, b)[0],
            "are_left_coprime": lambda: polymat.are_left_coprime(a, c)[0],
            "coprime_completion": completed,
            "solve_bezout": solved,
            "right_quotient": lambda: polymat.right_quotient(a @ u, u) == a,
            "left_quotient": lambda: polymat.left_quotient(u @ a, u) == a,
        }
        public = {name for name, fn in inspect.getmembers(
            polymat, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == polymat.__name__}
        assert set(calls) == public
        for name, call in calls.items():
            assert call(), name


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


    @pytest.mark.parametrize("n", range(2, 8))
    def test_against_sympy(self, n):
        """Square, rectangular and rank-deficient (L @ R through a thin
        middle factor) inputs of degree 1..3: the decomposition holds and
        the invariant factors are sympy's, made monic."""
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.matrices.normalforms import invariant_factors

        z = sympy.Symbol("z")
        ring = sympy.QQ[z]

        def to_ring(p):
            return ring.from_sympy(sum(
                sympy.Rational(c.re.numerator, c.re.denominator) * z ** k
                for k, c in enumerate(p.coeffs)))

        for deg in (1, 2, 3):
            rng = random.Random(100 * n + deg)
            cases = (rand_polymat(rng, n, n, deg),
                     rand_polymat(rng, n, n - 1, deg),
                     rand_polymat(rng, n, n // 2, 1)
                     @ rand_polymat(rng, n // 2, n, deg - 1))
            for a in cases:
                dec = check_smith(a)
                dm = DomainMatrix([[to_ring(e) for e in row]
                                   for row in a.entries], a.shape, ring)
                want = [f.monic() for f in invariant_factors(dm) if f]
                assert [to_ring(f) for f in dec.invariant_factors] == want

    def test_large_dense_matrix(self):
        """A dense 6 x 6 matrix of degree 3 with coefficients in -9..9:
        the transforms stay small and the form is quick."""
        rng = random.Random(0)
        a = PolyMat([[Poly([rng.randint(-9, 9) for _ in range(4)])
                      for _ in range(6)] for _ in range(6)])
        start = time.perf_counter()
        dec = smith_form(a)
        assert time.perf_counter() - start < 10
        bits = max(x.bit_length() for m in (dec.E, dec.F)
                   for row in m.entries for p in row
                   for x in p.nums + (p.den,))
        assert bits < 4000
        assert dec.E @ dec.S @ dec.F == a
        assert dec.invariant_factors[-1] == polymat.det(a).monic()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_large_dense_7x7(self, seed):
        """7 x 7 of degree 3 with coefficients in -9..9: the form starts
        from the kept echelon, and E and F stay under 600 bits."""
        rng = random.Random(seed)
        a = PolyMat([[Poly([rng.randint(-9, 9) for _ in range(4)])
                      for _ in range(7)] for _ in range(7)])
        start = time.perf_counter()
        dec = smith_form(a)
        assert time.perf_counter() - start < 10
        bits = max(x.bit_length() for m in (dec.E, dec.F)
                   for row in m.entries for p in row
                   for x in p.nums + (p.den,))
        assert bits < 600
        assert dec.E @ dec.S @ dec.F == a
        assert polymat.is_unimodular(dec.E)
        assert polymat.is_unimodular(dec.F)

    def test_one_echelon_in_any_order(self, monkeypatch):
        """On a square regular matrix, the Smith form, the Hermite form and
        the determinant, asked in any order, share one echelon and one
        division W = A @ H^-1."""
        a = rand_regular_polymat(random.Random(15), 3, 2)
        want = (smith_form(a), hermite_form(a), polymat.det(a))
        for order in itertools.permutations(range(3)):
            echelons = record_calls(monkeypatch, polymat, "_echelon")
            divisions = record_calls(monkeypatch, polymat, "_right_divide")
            m = fresh(a)
            calls = (smith_form, hermite_form, polymat.det)
            got = [None] * 3
            for i in order:
                got[i] = calls[i](m)
            assert tuple(got) == want
            assert echelons == [m] and divisions == [m]
            monkeypatch.undo()


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


def echelon_cases():
    """Square regular and singular, wide, tall and rank-deficient inputs."""
    rng = random.Random(14)
    out = [rand_polymat(rng, r, c, 2)
           for r, c in ((3, 3), (2, 2), (2, 4), (4, 2), (1, 3), (3, 1))]
    # products through a thin middle factor have rank below both sides
    out.append(rand_polymat(rng, 3, 2, 1) @ rand_polymat(rng, 2, 3, 1))
    out.append(rand_polymat(rng, 4, 1, 1) @ rand_polymat(rng, 1, 3, 2))
    out.append(PolyMat([[Z, ONE, Z], [Z * Z, Z, Z * Z]]))
    out.append(PolyMat.zeros(2, 3))
    return out


class TestEchelon:
    def test_shape_and_transform(self):
        for a in echelon_cases():
            h, u, pivots, det_u = polymat._echelon(a)
            assert u @ a == h
            assert linalg_exact.det(RatMat.from_polymat(u).entries) == det_u
            assert pivots == sorted(set(pivots))
            for k, j in enumerate(pivots):
                assert h[k, j].is_monic
                assert all(h[i, j].is_zero for i in range(k + 1, a.rows))
                assert all(h[i, j].degree < h[k, j].degree for i in range(k))
            assert h.submatrix(slice(len(pivots), None), slice(None)).is_zero

    def test_against_ratfn_elimination(self):
        for a in echelon_cases():
            grid = RatMat.from_polymat(a).entries
            assert polymat.nrank(a) == linalg_exact.rank(grid)
            if a.rows == a.cols:
                assert RatFn(polymat.det(a)) == linalg_exact.det(grid)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        z = sympy.Symbol("z")

        def to_sympy(p):
            return sum((sympy.Rational(str(c.re)) + sympy.I
                        * sympy.Rational(str(c.im))) * z ** k
                       for k, c in enumerate(p.coeffs))

        for a in echelon_cases():
            dm = DomainMatrix.from_Matrix(sympy.Matrix(
                a.rows, a.cols, [to_sympy(e) for row in a.entries
                                 for e in row]))
            assert polymat.nrank(a) == dm.to_field().rank()
            if a.rows == a.cols:
                assert sympy.expand(dm.det().as_expr()
                                    - to_sympy(polymat.det(a))) == 0

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
    def test_zero_size(self, rows, cols):
        a = PolyMat.zeros(rows, cols)
        assert a.shape == (rows, cols)
        assert a.transpose().shape == (cols, rows)
        h, u, pivots, det_u = polymat._echelon(a)
        assert h == a and u == PolyMat.identity(rows)
        assert pivots == [] and det_u == 1
        assert polymat.nrank(a) == 0
        if rows == cols:
            assert polymat.det(a) == ONE
        else:
            with pytest.raises(InputError):
                polymat.det(a)


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
            # det D is the n-th determinantal divisor of [A; B]
            assert polymat.det(res.D).monic() == minor_gcd(a.vstack(b), 2)

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

    def test_cofactors_by_division(self, monkeypatch):
        """One row reduction, of [A; B] alone: the cofactors come from
        dividing by D, not from inverting U, and equal U^-1's leading
        columns."""
        rng = random.Random(16)
        for rows in (1, 2, 3):
            a = rand_polymat(rng, rows, 2, 2)
            b = rand_regular_polymat(rng, 2, 2)
            stacked = a.vstack(b)
            seen = record_calls(monkeypatch, polymat, "_echelon")
            res = gcrd(a, b)
            assert seen == [stacked]
            monkeypatch.undo()
            q = polymat.inverse_unimodular(polymat._echelon(stacked)[1])
            assert res.Q1 == q.submatrix(slice(0, rows), slice(0, 2))
            assert res.Q2 == q.submatrix(slice(rows, None), slice(0, 2))

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

    def test_corrupted_certificate_raises(self, monkeypatch):
        a = PolyMat([[Z]])
        b = PolyMat([[Z - ONE]])
        real = polymat._echelon

        def corrupt_x(m):
            # [A; B] still reduces to [I; 0], but X, the top left of U,
            # gains z, so X @ A + Y @ B is no longer I
            h, u, pivots, det_u = real(m)
            return h, u + PolyMat([[Z, ZERO], [ZERO, ZERO]]), pivots, det_u

        monkeypatch.setattr(polymat, "_echelon", corrupt_x)
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
        # m + p - n = 2 completion columns, beside a 1 x 2 top block
        a = PolyMat([[Z, ONE]])
        b = PolyMat([[ONE, ZERO], [Z, Z * Z], [ZERO, Z + ONE]])
        c, d = polymat.coprime_completion(a, b)
        assert (c.shape, d.shape) == ((1, 2), (3, 2))
        assert polymat.is_unimodular(PolyMat.block([[a, c], [b, d]]))

    def test_completion_needs_coprime(self):
        with pytest.raises(NotCoprimeError):
            polymat.coprime_completion(PolyMat([[Z]]), PolyMat([[Z * Z]]))
        with pytest.raises(NotCoprimeError):  # too few rows for rank 2
            polymat.coprime_completion(PolyMat([[ONE, Z]]),
                                       PolyMat([], 2))

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


class TestQuotient:
    def test_against_ratfn_division(self):
        """A quotient exists exactly when C D^-1 (or D^-1 C) over the
        rational functions is polynomial, and then equals it."""
        rng = random.Random(15)
        for trial in range(12):
            d = rand_regular_polymat(rng, 2, 1)
            if trial % 4 == 0:
                d = rand_unimodular(rng, 2)
            c = rand_polymat(rng, 3, 2, 2)
            if trial % 2:
                c = c @ d
            ref = RatMat.from_polymat(c) @ rat_inverse(d)
            expect = ref.to_polymat() if ref.is_polynomial else None
            assert polymat.right_quotient(c, d) == expect
            c = c.transpose()
            ref = rat_inverse(d) @ RatMat.from_polymat(c)
            if trial % 2:
                c = d @ rand_polymat(rng, 2, 3, 2)
                ref = rat_inverse(d) @ RatMat.from_polymat(c)
            expect = ref.to_polymat() if ref.is_polynomial else None
            assert polymat.left_quotient(c, d) == expect

    def test_one_reduction_of_the_divisor(self, monkeypatch):
        """right_quotient reduces D once and divides by its Hermite form;
        a remainder gives None."""
        d = PolyMat([[Z, ONE], [ZERO, Z + ONE]])
        seen = record_calls(monkeypatch, polymat, "_echelon")
        r = PolyMat([[ONE, Z], [Z * Z, ZERO], [ONE, ONE]])
        assert polymat.right_quotient(r @ d, d) == r
        assert seen == [d]
        # C D^-1 has the entry 1/z
        assert polymat.right_quotient(PolyMat([[ONE, ZERO]]), d) is None
        assert polymat.right_quotient(PolyMat.zeros(1, 2), d) \
            == PolyMat.zeros(1, 2)
        with pytest.raises(InputError):
            polymat.right_quotient(PolyMat([[ONE]]), d)

    def test_singular_divisor_raises(self):
        s = PolyMat([[Z, Z], [ONE, ONE]])
        # [S; C] of full rank (the cofactor of S is singular) and of rank 1
        for c in (PolyMat.identity(2), PolyMat([[Z, Z]])):
            with pytest.raises(SingularMatrixError):
                polymat.right_quotient(c, s)
            with pytest.raises(SingularMatrixError):
                polymat.left_quotient(c.transpose(), s.transpose())


ECHELON_QUERIES = {
    "hermite_form": hermite_form,
    "det": polymat.det,
    "nrank": polymat.nrank,
    "is_unimodular": polymat.is_unimodular,
    "inverse_unimodular": polymat.inverse_unimodular,
}


def answer(query, a):
    """The query's value, or the type of the error it raises."""
    try:
        return query(a)
    except SingularMatrixError as exc:
        return type(exc)


class TestKeptForms:
    def test_echelon_queries_share_one_reduction(self, monkeypatch):
        rng = random.Random(16)
        # unimodular, regular and singular: the two last make
        # inverse_unimodular, and the last hermite_form, raise
        cases = [rand_unimodular(rng, 3), rand_polymat(rng, 3, 3, 2),
                 rand_polymat(rng, 3, 1, 1) @ rand_polymat(rng, 1, 3, 1)]
        for a in cases:
            expect = {name: answer(q, fresh(a))
                      for name, q in ECHELON_QUERIES.items()}
            seen = record_calls(monkeypatch, polymat, "_echelon")
            for order in itertools.permutations(ECHELON_QUERIES):
                b = fresh(a)
                seen.clear()
                for name in order:
                    assert answer(ECHELON_QUERIES[name], b) == expect[name]
                assert len(seen) == 1 and seen[0] is b
            monkeypatch.undo()
        assert expect["hermite_form"] is SingularMatrixError

    def test_smith_form_is_kept(self, monkeypatch):
        a = rand_polymat(random.Random(17), 3, 4, 2)
        seen = record_calls(monkeypatch, polymat, "_smith")
        dec = smith_form(a)
        assert smith_form(a) is dec
        assert len(seen) == 1 and seen[0] is a

    def test_equal_matrices_reduce_separately(self, monkeypatch):
        a = fresh(rand_regular_polymat(random.Random(18), 3, 2))
        b = fresh(a)
        assert a == b and hash(a) == hash(b)
        echelons = record_calls(monkeypatch, polymat, "_echelon")
        smiths = record_calls(monkeypatch, polymat, "_smith")
        for m in (a, b, a, b):
            polymat.det(m)
            smith_form(m)
        assert [id(m) for m in echelons] == [id(a), id(b)]
        assert [id(m) for m in smiths] == [id(a), id(b)]
        assert smith_form(a) == smith_form(b)
        assert smith_form(a) is not smith_form(b)

    def test_kept_forms_equal_fresh_ones(self):
        for a in echelon_cases():
            queries = [polymat.nrank, smith_form]
            if a.rows == a.cols:
                queries += [polymat.det, polymat.is_unimodular]
            for q in queries:
                kept = q(a)
                assert q(a) == kept == q(fresh(a))
            kept = a._keep("echelon", polymat._echelon)
            assert kept is a._keep("echelon", polymat._echelon)
            assert kept == polymat._echelon(fresh(a))
