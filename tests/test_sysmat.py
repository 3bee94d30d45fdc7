import random

import pytest

from genutil import (
    rand_irreducible_amd,
    rand_left_coprime_amd,
    rand_polymat,
    rand_regular_polymat,
    rand_unimodular,
    transformed_realization,
)
from meromat import polymat, ratmat, sysmat
from meromat.errors import InputError, NotCoprimeError, SingularMatrixError
from meromat.exactalg import QQ, Poly
from meromat.holomat import TdsData, build_tds_amd
from meromat.polymat import PolyMat
from meromat.ratmat import Divisor, Mfd
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

    def test_layouts_agree(self):
        h = simple_amd()
        sm = h.system_matrix()
        tl = sm.submatrix(slice(0, 2), slice(0, 2))
        tr = sm.submatrix(slice(0, 2), slice(2, None))
        bl = sm.submatrix(slice(2, None), slice(0, 2))
        br = sm.submatrix(slice(2, None), slice(2, None))
        # sm has blocks tl = A, tr = B, bl = -C, br = D
        variants = {
            "standard": (tl, tr, bl, br),          # [[A, B], [-C, D]]
            "flipped": (br, bl, tr, tl),           # [[D, -C], [B, A]]
            "flipped-neg-b": (br, -bl, -tr, tl),   # [[D, C], [-B, A]]
            "neg-b": (tl, -tr, -bl, br),           # [[A, -B], [C, D]]
            "neg-a": (-tl, tr, -bl, br),           # [[-A, B], [C, D]]
        }
        for layout, blocks in variants.items():
            rebuilt = Amd.from_layout_blocks(*blocks, layout=layout)
            assert rebuilt == h, layout

    def test_transfer(self):
        h = simple_amd()
        m = transfer_function(h)
        # inverse of [[z, 1], [0, z]]
        assert m == sysmat.RatMat.from_polymat(h.A).inverse()


class TestEquivalence:
    def test_to_rmf_verifies(self):
        rng = random.Random(31)
        for _ in range(10):
            h = rand_left_coprime_amd(rng)
            s, w = to_rmf(h)
            assert verify_fse(h, s, w)
            assert transfer_function(s) == transfer_function(h)

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

    def test_fse_rse_round_trip(self):
        rng = random.Random(33)
        for _ in range(6):
            h = rand_left_coprime_amd(rng)
            s, w = to_rmf(h)
            r = fse_to_rse(h, s, w)
            assert verify_rse(h, s, r)
            w2 = rse_to_fse(h, s, r)
            assert verify_fse(h, s, w2)

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
