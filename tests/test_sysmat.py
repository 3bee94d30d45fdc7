import pickle
import random

import pytest

from genutil import (
    rand_irreducible_amd,
    rand_left_coprime_amd,
    rand_poly,
    rand_polymat,
    rand_regular_polymat,
    rand_unimodular,
    record_calls,
    transformed_realization,
)
from meromat import linalg_exact, polymat, ratmat, sysmat
from meromat.errors import (
    InputError,
    NoSolutionError,
    NotCoprimeError,
    SingularMatrixError,
)
from meromat.exactalg import QQ, Poly, RatFn
from meromat.holomat import (
    QuasiPolyEntry,
    QuasiPolyMat,
    TdsData,
    build_tds_amd,
)
from meromat.polymat import PolyMat
from meromat.ratmat import Divisor, Mfd, RatMat
from meromat.sysmat import (
    Amd,
    FseWitness,
    RseWitness,
    amd_order,
    compose_fse,
    decouple,
    equate_irreducible,
    fse_to_rse,
    is_irreducible,
    least_order_check,
    rse_to_fse,
    to_lmf,
    to_rmf,
    transfer_function,
    verify_fse,
    verify_rse,
)

Z = Poly.z()
ONE = Poly.one()
ZERO = Poly.zero()


def simple_amd():
    a = PolyMat([[Z, ONE], [ZERO, Z]])
    return Amd(A=a, B=PolyMat.identity(2), C=PolyMat.identity(2),
               D=PolyMat.zeros(2, 2))


class TestAmd:
    def test_dimensions(self):
        h = simple_amd()
        assert (h.state_dim, h.output_dim, h.input_dim) == (2, 2, 2)

    def test_singular_state_rejected(self):
        with pytest.raises(SingularMatrixError):
            Amd(A=PolyMat.zeros(1, 1), B=PolyMat.zeros(1, 1),
                C=PolyMat.zeros(1, 1), D=PolyMat.zeros(1, 1))

    def test_nonzero_singular_state_rejected(self):
        a = PolyMat([[Z, ONE], [Z * Z, Z]])  # det z^2 - z^2 = 0
        with pytest.raises(SingularMatrixError):
            Amd(A=a, B=PolyMat.zeros(2, 1), C=PolyMat.zeros(1, 2),
                D=PolyMat.zeros(1, 1))

    def test_ring_from_blocks(self):
        h = simple_amd()
        assert h.ring == "polynomial"
        # any quasi-polynomial block makes every block quasi-polynomial
        a = QuasiPolyMat.from_polymat(h.A)
        q = Amd(A=a, B=h.B, C=RatMat.from_polymat(h.C), D=h.D)
        assert q.ring == "quasipoly"
        assert all(isinstance(b, QuasiPolyMat) for b in (q.A, q.B, q.C, q.D))
        assert q == Amd(A=a, B=QuasiPolyMat.from_polymat(h.B),
                        C=QuasiPolyMat.from_polymat(h.C),
                        D=QuasiPolyMat.from_polymat(h.D))
        assert q != h and pickle.loads(pickle.dumps(q)) == q
        # rational blocks are kept when polynomial, else refused
        assert Amd(A=RatMat.from_polymat(h.A), B=h.B, C=h.C, D=h.D) == h
        with pytest.raises(InputError, match="polynomial entries"):
            Amd(A=h.A, B=RatMat([[RatFn(ONE, Z), RatFn(0)],
                                 [RatFn(0), RatFn(1)]]), C=h.C, D=h.D)

    def test_raw_grid_entry_of_another_ring(self):
        # a raw grid goes through PolyMat, which cannot take a delay
        e = QuasiPolyEntry([(ONE, QQ(1))])
        with pytest.raises(InputError, match="row 1 col 1: .*exp"):
            Amd([[e]], [[1]], [[1]], [[0]])

    def test_transfer(self):
        h = simple_amd()
        m = transfer_function(h)
        # inverse of [[z, 1], [0, z]]
        assert m == sysmat.RatMat(linalg_exact.inverse(
            sysmat.RatMat.from_polymat(h.A).entries))


class TestEquivalence:
    def test_to_rmf_verifies(self):
        rng = random.Random(31)
        for _ in range(10):
            h = rand_left_coprime_amd(rng)
            s, w = to_rmf(h)
            assert verify_fse(h, s, w)
            assert transfer_function(s) == transfer_function(h)

    def test_rmf_reads_one_echelon(self, monkeypatch):
        # the completion T and its inverse come from the echelon of
        # [A^T; B^T]: no Smith form, one inverse of its unimodular factor
        h = rand_left_coprime_amd(random.Random(35), r=3, m=2, n=2)
        smiths = record_calls(monkeypatch, polymat, "_smith")
        inverses = record_calls(monkeypatch, polymat, "inverse_unimodular")
        s, w = to_rmf(h)
        assert smiths == [] and len(inverses) == 1
        assert verify_fse(h, s, w)

    def test_to_lmf_verifies(self):
        rng = random.Random(32)
        for _ in range(10):
            h = rand_irreducible_amd(rng)
            s, w = to_lmf(h)
            assert verify_fse(h, s, w)
            assert transfer_function(s) == transfer_function(h)

    def test_to_rmf_needs_left_coprime(self):
        h = Amd(A=PolyMat([[Z]]), B=PolyMat([[Z]]), C=PolyMat([[ONE]]),
                D=PolyMat([[ZERO]]))
        with pytest.raises(NotCoprimeError,
                           match="state and input blocks are not left coprime"):
            to_rmf(h)

    def test_to_lmf_needs_right_coprime(self):
        # (A, B) is left coprime, so the error names the output side only
        h = Amd(A=PolyMat([[Z]]), B=PolyMat([[ONE]]), C=PolyMat([[Z]]),
                D=PolyMat([[ZERO]]))
        with pytest.raises(
                NotCoprimeError,
                match="state and output blocks are not right coprime"):
            to_lmf(h)

    def test_reductions_need_polynomial_blocks(self):
        h = build_tds_amd(TdsData(A0=((0,),), B_terms=((((1,),), QQ(1, 2)),),
                                  C_terms=((((1,),), 0),)))
        with pytest.raises(InputError, match="to_lmf needs polynomial blocks"):
            to_lmf(h)
        with pytest.raises(InputError, match="to_rmf needs polynomial blocks"):
            to_rmf(h)
        for fn in (is_irreducible, amd_order, decouple, least_order_check,
                   Amd.system_matrix):
            with pytest.raises(InputError, match="needs polynomial blocks"):
                fn(h)
        with pytest.raises(InputError, match="equate_irreducible needs"):
            equate_irreducible(simple_amd(), h)

    def test_fse_rse_round_trip(self, monkeypatch):
        # fse_to_rse writes down the inverse of its right factor
        def refuse(*args):
            raise AssertionError("inverse_unimodular called")

        rng = random.Random(33)
        for _ in range(6):
            h = rand_left_coprime_amd(rng)
            s, w = to_rmf(h)
            with monkeypatch.context() as mp:
                mp.setattr(polymat, "inverse_unimodular", refuse)
                r = fse_to_rse(h, s, w)
            assert verify_rse(h, s, r)
            w2 = rse_to_fse(h, s, r)
            assert verify_fse(h, s, w2)

    def test_fse_to_rse_invalid_witness(self):
        # one entry of M or N changed: the witness breaks M A1 = A2 N, and
        # fse_to_rse refuses it or returns a witness that verify_rse rejects
        rng = random.Random(7)
        refused = 0
        for k in range(12):
            h = rand_left_coprime_amd(rng)
            s, w = to_rmf(h)
            grid = [list(row) for row in (w.M if k % 2 else w.N).entries]
            grid[0][0] = grid[0][0] + Poly.z() ** (k % 3)
            bad = (FseWitness(M=PolyMat(grid), N=w.N, X=w.X, Y=w.Y)
                   if k % 2 else
                   FseWitness(M=w.M, N=PolyMat(grid), X=w.X, Y=w.Y))
            assert not verify_fse(h, s, bad)
            try:
                r = fse_to_rse(h, s, bad)
            except SingularMatrixError as exc:
                assert str(exc) == "matrix is not unimodular"
                refused += 1
            except (NotCoprimeError, NoSolutionError):
                pass  # a Bezout equation has no solution
            else:
                assert not verify_rse(h, s, r)
        assert refused

    def test_compose_fse(self):
        # H1 ~ H2 = U H1 V by (U, V^-1, 0, 0), H2 ~ H3 by a reduction
        rng = random.Random(34)
        for reduce in (to_rmf, to_lmf):
            h1 = rand_irreducible_amd(rng)
            u, v = rand_unimodular(rng, 2), rand_unimodular(rng, 2)
            h2 = Amd(A=u @ h1.A @ v, B=u @ h1.B, C=h1.C @ v, D=h1.D)
            w12 = FseWitness(M=u, N=polymat.inverse_unimodular(v),
                             X=PolyMat.zeros(1, 2), Y=PolyMat.zeros(2, 1))
            assert verify_fse(h1, h2, w12)
            h3, w23 = reduce(h2)
            assert verify_fse(h2, h3, w23)
            assert verify_fse(h1, h3, compose_fse(w12, w23))

    def test_no_rse_detour(self, monkeypatch):
        """Equating AMDs, the LMF reduction and the left MFD compose
        Fuhrmann witnesses and transpose right-handed results: none of them
        passes through the Rosenbrock form or solves a Bezout equation."""
        def refuse(*args):
            raise AssertionError("Rosenbrock detour or Bezout solve")

        for owner, name in ((sysmat, "fse_to_rse"), (sysmat, "rse_to_fse"),
                            (polymat, "solve_bezout")):
            monkeypatch.setattr(owner, name, refuse)
        rng = random.Random(40)
        h1 = rand_irreducible_amd(rng)
        h2 = transformed_realization(rng, h1)
        assert verify_fse(h1, h2, equate_irreducible(h1, h2))
        h = rand_irreducible_amd(rng, m=2)
        s, w = to_lmf(h)
        assert verify_fse(h, s, w)
        m = transfer_function(h)
        left = ratmat.left_coprime_mfd(m)
        assert left.coprime and left.transfer() == m
        v = rand_unimodular(rng, 2)
        planted = Mfd(N=v @ left.N, D=v @ left.D, side="left", coprime=True)
        assert ratmat.mfd_unit_relator(planted, left) == v

    def test_equate_minimal_realizations(self):
        rng = random.Random(35)
        for _ in range(6):
            h1 = rand_irreducible_amd(rng)
            h2 = transformed_realization(rng, h1)
            w = equate_irreducible(h1, h2)
            assert w is not None
            assert verify_fse(h1, h2, w)
            assert amd_order(h1) == amd_order(h2)

    def test_equate_different_transfers(self):
        rng = random.Random(36)
        h1 = rand_irreducible_amd(rng)
        while True:
            h2 = rand_irreducible_amd(rng)
            if transfer_function(h2) != transfer_function(h1):
                break
        assert equate_irreducible(h1, h2) is None

    def test_verify_rejects_broken_witness(self):
        h = simple_amd()
        s, w = to_rmf(h)
        bad = FseWitness(M=w.M, N=w.N, X=w.X + PolyMat.identity(2), Y=w.Y)
        assert not verify_fse(h, s, bad)

    def test_verify_rse_at_smallest_padding(self):
        # p = r = ell leaves the identity padding blocks with no rows
        h = Amd(A=PolyMat([[Z]]), B=PolyMat([[ONE]]), C=PolyMat([[ONE]]),
                D=PolyMat([[ZERO]]))
        assert h.system_matrix() == PolyMat([[Z, ONE], [-ONE, ZERO]])
        eye, zero = PolyMat.identity(1), PolyMat.zeros(1, 1)
        assert verify_rse(h, h, RseWitness(M=eye, N=eye, X=zero, Y=zero, p=1))


def block(rng, rows, cols, max_deg=2):
    """A random polynomial block that keeps its column count with no rows."""
    return PolyMat([[rand_poly(rng, max_deg) for _ in range(cols)]
                    for _ in range(rows)], cols)


def oracle_inverse(a: PolyMat) -> RatMat:
    """A^-1 by Gauss-Jordan over the rational functions, independent of the
    Hermite echelon that the transfer functions read."""
    return RatMat(linalg_exact.inverse(RatMat.from_polymat(a).entries),
                  a.cols)


def transfer_cases():
    """Regular AMDs with r = 0..4 and m, n = 0..3, plus a constant state
    block and one whose det has a negative, non-unit leading coefficient."""
    rng = random.Random(60)
    cases = [
        Amd(A=PolyMat([[QQ(2), ONE], [ONE, ONE]]), B=block(rng, 2, 2),
            C=block(rng, 1, 2), D=block(rng, 1, 2)),
        Amd(A=PolyMat([[Poly((1, -3)), Z], [Poly.const(2), Poly.const(5)]]),
            B=block(rng, 2, 1), C=block(rng, 2, 2), D=block(rng, 2, 1)),
    ]
    assert polymat.det(cases[1].A) == Poly((5, -17))
    for r in range(5):
        for _ in range(4):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            cases.append(Amd(A=rand_regular_polymat(rng, r, 2),
                             B=block(rng, r, n), C=block(rng, m, r),
                             D=block(rng, m, n)))
    return cases


def mfd_cases():
    rng = random.Random(61)
    for side in ("right", "left"):
        for n in range(4):
            m = rng.randint(0, 3)
            shape = (m, n) if side == "right" else (n, m)
            yield Mfd(N=block(rng, *shape), D=rand_regular_polymat(rng, n, 2),
                      side=side, coprime=False)


def sympy_matrix(sp, m):
    """m over sympy's field QQ(z), whose elements are reduced fractions."""
    from sympy.polys.matrices import DomainMatrix

    z = sp.Symbol("z")
    field = sp.QQ.frac_field(z)

    def conv(e):
        if isinstance(e, RatFn):
            return conv(e.num) / conv(e.den)
        return field.from_sympy(sp.Add(*(
            sp.Rational(int(c.re.numerator), int(c.re.denominator)) * z ** k
            for k, c in enumerate(e.coeffs))))

    return DomainMatrix([[conv(e) for e in row] for row in m.entries],
                        m.shape, field)


class TestTransfer:
    def test_against_gauss_jordan(self):
        for h in transfer_cases():
            want = (RatMat.from_polymat(h.D) + RatMat.from_polymat(h.C)
                    @ oracle_inverse(h.A) @ RatMat.from_polymat(h.B))
            assert transfer_function(h) == want
        for mfd in mfd_cases():
            n, d_inv = RatMat.from_polymat(mfd.N), oracle_inverse(mfd.D)
            want = n @ d_inv if mfd.side == "right" else d_inv @ n
            assert mfd.transfer() == want

    def test_against_sympy(self):
        sp = pytest.importorskip("sympy")
        for h in transfer_cases():
            a, b, c, d = (sympy_matrix(sp, m) for m in (h.A, h.B, h.C, h.D))
            want = d + c * a.lu_solve(b) if h.state_dim and h.input_dim else d
            assert sympy_matrix(sp, transfer_function(h)) == want
        for mfd in mfd_cases():
            n, d = sympy_matrix(sp, mfd.N), sympy_matrix(sp, mfd.D)
            if not (d.shape[0] and n.shape[0] and n.shape[1]):
                want = n
            elif mfd.side == "right":
                want = d.transpose().lu_solve(n.transpose()).transpose()
            else:
                want = d.lu_solve(n)
            assert sympy_matrix(sp, mfd.transfer()) == want

    def test_reads_the_kept_echelon(self, monkeypatch):
        # Amd(...) keeps A's echelon through its determinant check
        h = transfer_cases()[-1]
        echelons = record_calls(monkeypatch, polymat, "_echelon")
        transfer_function(h)
        assert echelons == []

    def test_no_rational_function_kernels(self, monkeypatch):
        """The system operations work in Q[z] alone: none reaches the RatFn
        rank, determinant or inverse kernels."""
        rng = random.Random(62)
        h = rand_irreducible_amd(rng, m=2)
        h2 = transformed_realization(rng, h)
        core = rand_irreducible_amd(rng)
        ql = rand_regular_polymat(rng, 2, 1)
        planted = Amd(A=ql @ core.A, B=ql @ core.B, C=core.C, D=core.D)
        mfd = ratmat.right_coprime_mfd(transfer_function(h))

        def refuse(*args):
            raise AssertionError("sysmat used a rational-function kernel")

        for name in ("rank", "det", "inverse"):
            monkeypatch.setattr(linalg_exact, name, refuse)
        assert transfer_function(h) == mfd.transfer()
        assert least_order_check(h).is_least
        assert not least_order_check(planted).is_least
        assert is_irreducible(decouple(planted).reduced)
        for reduce in (to_rmf, to_lmf):
            s, w = reduce(h)
            assert verify_fse(h, s, w)
        assert verify_fse(h, h2, equate_irreducible(h, h2))
        assert mfd.transpose().transfer() == transfer_function(h).transpose()


class TestLeastOrder:
    def test_irreducible_is_least(self):
        rng = random.Random(37)
        h = rand_irreducible_amd(rng)
        rep = least_order_check(h)
        assert rep.irreducible and rep.is_least
        assert rep.order == rep.transfer_least_order

    def test_reducible_is_not_least(self):
        h = Amd(A=PolyMat([[Z, ZERO], [ZERO, Z - ONE]]),
                B=PolyMat([[ONE], [ZERO]]), C=PolyMat([[ONE, ZERO]]),
                D=PolyMat.zeros(1, 1))
        rep = least_order_check(h)
        assert not rep.irreducible and not rep.is_least
        assert rep.transfer_least_order < rep.order


class TestDecoupling:
    def test_worked_example(self):
        h = Amd(A=PolyMat([[Z, ZERO], [ZERO, Z - ONE]]),
                B=PolyMat([[ONE], [ZERO]]), C=PolyMat([[ONE, ZERO]]),
                D=PolyMat.zeros(1, 1))
        rep = decouple(h)
        assert rep.input_decoupling == Divisor.of_zeros(Z - ONE)
        assert {h.approx for h in rep.input_decoupling.points()} == {1 + 0j}
        assert is_irreducible(rep.reduced)
        assert transfer_function(rep.reduced) == transfer_function(h)

    def test_construct_and_recover(self):
        rng = random.Random(38)
        done = 0
        while done < 5:
            core = rand_irreducible_amd(rng)
            ql = rand_regular_polymat(rng, core.state_dim, 1)
            planted = Amd(A=ql @ core.A, B=ql @ core.B, C=core.C, D=core.D)
            rep = decouple(planted)
            assert transfer_function(rep.reduced) == transfer_function(core)
            assert is_irreducible(rep.reduced)
            # recovered decoupling sets cover the planted sigma(Q_L)
            sigma_ql = Divisor.of_zeros(polymat.det(ql)).points()
            assert sigma_ql <= rep.decoupling
            done += 1

    def test_irreducible_has_no_decoupling(self):
        rng = random.Random(39)
        h = rand_irreducible_amd(rng)
        rep = decouple(h)
        assert rep.decoupling == frozenset()
        assert rep.input_decoupling.is_empty
