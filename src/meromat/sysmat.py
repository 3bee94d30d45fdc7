"""System matrices (AMDs): transfer functions, irreducibility, Fuhrmann and
Rosenbrock system equivalence, reduction to matrix-fraction form, least
order, and decoupling zeros.

Exact algorithms require polynomial blocks; quasi-polynomial AMDs get an
evaluable transfer closure and delegate numeric analysis to `holomat`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polymat, ratmat
from .errors import AnalysisError, InputError, NotCoprimeError, SingularMatrixError
from .exactalg import RatFn
from .holomat import QuasiPolyMat, _QpTransferEvaluable, nrank_sampled
from .polymat import PolyMat
from .ratmat import Divisor, RatMat

__all__ = [
    "Amd",
    "FseWitness",
    "RseWitness",
    "DecouplingReport",
    "LeastOrderReport",
    "transfer_function",
    "is_irreducible",
    "verify_fse",
    "verify_rse",
    "fse_to_rse",
    "rse_to_fse",
    "compose_fse",
    "to_rmf",
    "to_lmf",
    "equate_irreducible",
    "amd_order",
    "least_order_check",
    "decouple",
]


class Amd:
    """Analytic matrix description [[A, B], [-C, D]] with regular state
    block A, one of full normal rank (exact for PolyMat blocks, sampled
    for QuasiPolyMat); transfer function D + C A^{-1} B. Its blocks are all
    QuasiPolyMat when any one is, else all PolyMat; `ring` reads which."""

    __slots__ = ("A", "B", "C", "D")

    def __init__(self, A, B, C, D):
        blocks = [b if isinstance(b, QuasiPolyMat) else _as_polymat(b)
                  for b in (A, B, C, D)]
        if any(isinstance(b, QuasiPolyMat) for b in blocks):
            blocks = [QuasiPolyMat.from_polymat(b) if isinstance(b, PolyMat)
                      else b for b in blocks]
        A, B, C, D = blocks
        r = A.rows
        if A.cols != r:
            raise InputError("state block must be square")
        if B.rows != r or C.cols != r or C.rows != D.rows or B.cols != D.cols:
            raise InputError("inconsistent AMD block dimensions")
        rank = (polymat.nrank(A) if isinstance(A, PolyMat)
                else nrank_sampled(A))
        if rank < r:
            raise SingularMatrixError(
                f"state block is singular: normal rank {rank} < {r}")
        for name, value in zip(Amd.__slots__, blocks):
            object.__setattr__(self, name, value)

    @staticmethod
    def _regular(A, B, C, D) -> "Amd":
        """An AMD built in this module whose state block is regular by
        construction: stored as given, without the normal-rank check."""
        h = object.__new__(Amd)
        for name, value in zip(Amd.__slots__, (A, B, C, D)):
            object.__setattr__(h, name, value)
        return h

    def __setattr__(self, name, value):
        raise AttributeError("Amd is immutable")

    def __reduce__(self):
        return Amd, (self.A, self.B, self.C, self.D)

    @property
    def ring(self) -> str:
        return self.A.kind  # "polynomial" or "quasipoly"

    @property
    def state_dim(self) -> int:
        return self.A.rows

    @property
    def output_dim(self) -> int:
        return self.C.rows

    @property
    def input_dim(self) -> int:
        return self.B.cols

    def system_matrix(self) -> PolyMat:
        _need_polynomial("system_matrix", self)
        return PolyMat.block([[self.A, self.B], [-self.C, self.D]])

    def __eq__(self, other):
        if not isinstance(other, Amd):
            return NotImplemented
        return (self.A == other.A and self.B == other.B
                and self.C == other.C and self.D == other.D)

    def __hash__(self):
        return hash((self.A, self.B, self.C, self.D))

    def __repr__(self):
        return (f"Amd(r={self.state_dim}, m={self.output_dim}, "
                f"n={self.input_dim}, ring={self.ring})")


def _as_polymat(block) -> PolyMat:
    if isinstance(block, PolyMat):
        return block
    if isinstance(block, RatMat):
        # rational blocks are accepted when the entries are polynomial;
        # genuinely rational blocks have no exact Smith-form theory here
        if not block.is_polynomial:
            raise InputError("AMD blocks must have polynomial entries")
        return block.to_polymat()
    return PolyMat(block)


def _need_polynomial(what: str, *amds) -> None:
    if any(H.ring == "quasipoly" for H in amds):
        raise InputError(f"{what} needs polynomial blocks")


def transfer_function(H: Amd):
    """Schur complement D + C A^{-1} B; exact for polynomial/rational AMDs,
    an evaluable closure for quasipoly AMDs. The exact one is the reduced
    (D delta + Y B) / delta for Y A = delta C, which `polymat._right_solve`
    reads off the echelon of A that `Amd(...)` keeps from its regularity
    check: no rational-function matrix is inverted."""
    if H.ring == "quasipoly":
        return _QpTransferEvaluable(H.A, H.B, H.C, H.D)
    y, delta = polymat._right_solve(H.C, H.A)
    return RatMat([[RatFn(e._plus(d, 1, delta), delta)
                    for d, e in zip(rd, ryb)]
                   for rd, ryb in zip(H.D.entries, (y @ H.B).entries)],
                  H.D.cols)


def is_irreducible(H: Amd) -> bool:
    """A, C right coprime and A, B left coprime."""
    _need_polynomial("is_irreducible", H)
    ok_out, _ = polymat.are_right_coprime(H.A, H.C)
    if not ok_out:
        return False
    ok_in, _ = polymat.are_left_coprime(H.A, H.B)
    return ok_in


@dataclass(frozen=True)
class FseWitness:
    """Fuhrmann witness: [[M, 0], [X, I]] H1 = H2 [[N, Y], [0, I]] with
    M, A2 left coprime and A1, N right coprime."""

    M: PolyMat
    N: PolyMat
    X: PolyMat
    Y: PolyMat


@dataclass(frozen=True)
class RseWitness:
    """Rosenbrock witness at padding size p: M, N unimodular p x p and
    [[M, 0], [X, I]] (I ⊕ H1) [[N, Y], [0, I]] = I ⊕ H2."""

    M: PolyMat
    N: PolyMat
    X: PolyMat
    Y: PolyMat
    p: int


def verify_fse(H1: Amd, H2: Amd, w: FseWitness) -> bool:
    r, ell = H1.state_dim, H2.state_dim
    m, n = H1.output_dim, H1.input_dim
    if H2.output_dim != m or H2.input_dim != n:
        raise InputError("AMDs have different input/output dimensions")
    if (w.M.rows, w.M.cols) != (ell, r) or (w.N.rows, w.N.cols) != (ell, r):
        raise InputError("witness M/N blocks have wrong shape")
    if (w.X.rows, w.X.cols) != (m, r) or (w.Y.rows, w.Y.cols) != (ell, n):
        raise InputError("witness X/Y blocks have wrong shape")
    left = PolyMat.block([
        [w.M, PolyMat.zeros(ell, m)],
        [w.X, PolyMat.identity(m)],
    ]) @ H1.system_matrix()
    right = H2.system_matrix() @ PolyMat.block([
        [w.N, w.Y],
        [PolyMat.zeros(n, r), PolyMat.identity(n)],
    ])
    if left != right:
        return False
    ok_a, _ = polymat.are_left_coprime(w.M, H2.A)
    if not ok_a:
        return False
    ok_b, _ = polymat.are_right_coprime(H1.A, w.N)
    return ok_b


def verify_rse(H1: Amd, H2: Amd, w: RseWitness) -> bool:
    r, ell = H1.state_dim, H2.state_dim
    m, n = H1.output_dim, H1.input_dim
    p = w.p
    if p < max(r, ell):
        raise InputError("padding size below both state dimensions")
    if not (polymat.is_unimodular(w.M) and polymat.is_unimodular(w.N)):
        return False
    mid1 = PolyMat.block([
        [PolyMat.identity(p - r), PolyMat.zeros(p - r, r + n)],
        [PolyMat.zeros(r + m, p - r), H1.system_matrix()],
    ])
    mid2 = PolyMat.block([
        [PolyMat.identity(p - ell), PolyMat.zeros(p - ell, ell + n)],
        [PolyMat.zeros(ell + m, p - ell), H2.system_matrix()],
    ])
    left = PolyMat.block([
        [w.M, PolyMat.zeros(p, m)],
        [w.X, PolyMat.identity(m)],
    ])
    right = PolyMat.block([
        [w.N, w.Y],
        [PolyMat.zeros(n, p), PolyMat.identity(n)],
    ])
    return left @ mid1 @ right == mid2


def fse_to_rse(H1: Amd, H2: Amd, w: FseWitness) -> RseWitness:
    """Constructive half of the fse = rse theorem, padding at p = r + ell."""
    r, ell = H1.state_dim, H2.state_dim
    # Bezout certificates from the two coprimeness side conditions
    x_hat, y_hat = polymat.solve_bezout(
        H2.A.transpose(), w.M.transpose(), PolyMat.identity(ell))
    x_hat, y_hat = x_hat.transpose(), y_hat.transpose()  # A2 X̂ + M Ŷ = I
    x_til, y_til = polymat.solve_bezout(w.N, H1.A, PolyMat.identity(r))
    # left factor [[-X̃, Ỹ], [A2, M]]; correct it to make the product with
    # [[-N, X̂], [A1, Ŷ]] exactly the identity
    w_blk = (-x_til) @ x_hat + y_til @ y_hat
    x_til = x_til + w_blk @ H2.A
    y_til = y_til - w_blk @ w.M
    m_rse = PolyMat.block([[-x_til, y_til], [H2.A, w.M]])
    x_rse = (-H2.C).hstack(w.X)
    # the proof identity reads X (I ⊕ H1) = (I ⊕ H2) Y' with right factor
    # [[-X̃, Ỹ A1], [I, N]]; X̃ N + Ỹ A1 = I, which the correction keeps as
    # M A1 = A2 N, makes [[-N, I - N X̃], [I, X̃]] its inverse, the Def. sse
    # right factor
    if x_til.hstack(y_til) @ w.N.vstack(H1.A) != PolyMat.identity(r):
        raise SingularMatrixError("matrix is not unimodular")
    n_inv = PolyMat.block([
        [-w.N, PolyMat.identity(ell) - w.N @ x_til],
        [PolyMat.identity(r), x_til],
    ])
    y_prime = (y_til @ H1.B).vstack(w.Y)
    return RseWitness(M=m_rse, N=n_inv, X=x_rse, Y=-(n_inv @ y_prime),
                      p=r + ell)


def rse_to_fse(H1: Amd, H2: Amd, w: RseWitness) -> FseWitness:
    """Read the Fuhrmann witness off the conformal corner blocks."""
    r, ell = H1.state_dim, H2.state_dim
    p = w.p
    m22 = w.M.submatrix(slice(p - ell, None), slice(p - r, None))
    # rewrite L (I ⊕ H1) R = I ⊕ H2 as L (I ⊕ H1) = (I ⊕ H2) R^{-1} and
    # read the corner blocks of R^{-1}
    n_conv = polymat.inverse_unimodular(w.N)
    y_conv = -(n_conv @ w.Y)
    n22 = n_conv.submatrix(slice(p - ell, None), slice(p - r, None))
    x2 = w.X.submatrix(slice(None), slice(p - r, None))
    y2 = y_conv.submatrix(slice(p - ell, None), slice(None))
    return FseWitness(M=m22, N=n22, X=x2, Y=y2)


def compose_fse(w12: FseWitness, w23: FseWitness) -> FseWitness:
    """Witness for H1 ~ H3 from witnesses H1 ~ H2 and H2 ~ H3: the product
    of the two left and of the two right factors (Fuhrmann equivalence is
    transitive, side conditions included)."""
    return FseWitness(M=w23.M @ w12.M, N=w23.N @ w12.N,
                      X=w23.X @ w12.M + w12.X, Y=w23.N @ w12.Y + w23.Y)


def _dual(H: Amd) -> Amd:
    """[[A^T, C^T], [-B^T, D^T]]: the AMD of the transposed transfer
    function. A witness H1 ~ H2 transposes to the witness
    (N^T, M^T, -Y^T, -X^T) for dual(H2) ~ dual(H1)."""
    return Amd._regular(A=H.A.transpose(), B=H.C.transpose(),
                        C=H.B.transpose(), D=H.D.transpose())


def _rmf(H: Amd):
    """RMF system S of an AMD with left coprime (A, B), with the witnesses
    H ~ S and S ~ H."""
    a, b, c, d = H.A, H.B, H.C, H.D
    r, n = H.state_dim, H.input_dim
    # U [A^T; B^T] = [I; 0] from the kept echelon; T = (U^-1)^T is then a
    # unimodular [[A, B], [-N, -Y]] and T^-1 = U^T. Raises NotCoprimeError
    # unless A, B are left coprime
    u, w = polymat._coprime_echelon(a.transpose(), b.transpose())
    t, t_inv = w.transpose(), u.transpose()
    n_blk = -t.submatrix(slice(r, None), slice(0, r))
    y_blk = -t.submatrix(slice(r, None), slice(r, None))
    t1 = t_inv.submatrix(slice(0, r), slice(0, r))
    t2 = t_inv.submatrix(slice(0, r), slice(r, None))
    m_blk = t_inv.submatrix(slice(r, None), slice(0, r))
    d_r = t_inv.submatrix(slice(r, None), slice(r, None))
    n_r = d @ d_r - c @ t2
    x_blk = c @ t1 - d @ m_blk
    # det D_R is a nonzero constant times det A
    s = Amd._regular(A=d_r, B=PolyMat.identity(n), C=n_r,
                     D=PolyMat.zeros(H.output_dim, n))
    # A t2 + B D_R = 0 (from T T^-1 = I) makes [[B, 0], [D, I]] S equal to
    # H [[-t2, 0], [0, I]]; [t2; D_R] is a column block of a unimodular
    # matrix, so D_R, t2 are right coprime
    back = FseWitness(M=b, N=-t2, X=d, Y=PolyMat.zeros(r, n))
    return s, FseWitness(M=m_blk, N=n_blk, X=x_blk, Y=y_blk), back


def to_rmf(H: Amd):
    """Reduce an AMD with left coprime (A, B) to an RMF-system matrix
    [[D_R, I], [-N_R, 0]], returning the fse witness."""
    _need_polynomial("to_rmf", H)
    try:
        s, w, _ = _rmf(H)
    except NotCoprimeError:
        raise NotCoprimeError(
            "state and input blocks are not left coprime") from None
    return s, w


def to_lmf(H: Amd):
    """Reduce an AMD with right coprime (A, C) to an LMF-system matrix
    [[D_L, N_L], [-I, 0]], returning the fse witness: the dual of the RMF
    reduction of the dual AMD."""
    _need_polynomial("to_lmf", H)
    try:
        s, _, back = _rmf(_dual(H))
    except NotCoprimeError:
        raise NotCoprimeError(
            "state and output blocks are not right coprime") from None
    w = FseWitness(M=back.N.transpose(), N=back.M.transpose(),
                   X=-back.Y.transpose(), Y=-back.X.transpose())
    return _dual(s), w


def equate_irreducible(H1: Amd, H2: Amd):
    """Fse witness between two irreducible AMDs with the same transfer
    function (Rosenbrock's theorem); None when the transfers differ.
    Composes H1 ~ S1 ~ S2 ~ H2 through the RMF systems S1, S2, which are
    related by the unimodular factor of their coprime MFDs."""
    _need_polynomial("equate_irreducible", H1, H2)
    if not (is_irreducible(H1) and is_irreducible(H2)):
        raise InputError("equate_irreducible needs irreducible AMDs")
    if transfer_function(H1) != transfer_function(H2):
        return None
    s1, w1, _ = _rmf(H1)
    s2, _, back2 = _rmf(H2)
    mfd1 = ratmat.Mfd(N=s1.C, D=s1.A, side="right", coprime=True)
    mfd2 = ratmat.Mfd(N=s2.C, D=s2.A, side="right", coprime=True)
    m, n = H1.output_dim, H1.input_dim
    # N1 = N2 U and D1 = D2 U give S1 = S2 (U ⊕ I)
    w_mid = FseWitness(M=PolyMat.identity(n),
                       N=ratmat.mfd_unit_relator(mfd1, mfd2),
                       X=PolyMat.zeros(m, n), Y=PolyMat.zeros(n, n))
    w = compose_fse(compose_fse(w1, w_mid), back2)
    if not verify_fse(H1, H2, w):
        raise AnalysisError("constructed equivalence witness failed to verify")
    return w


def amd_order(H: Amd) -> Divisor:
    """∂_A: the divisor of zeros of det A."""
    _need_polynomial("amd_order", H)
    return Divisor.of_zeros(polymat.det(H.A))


@dataclass(frozen=True)
class LeastOrderReport:
    irreducible: bool
    order: Divisor
    transfer_least_order: Divisor
    is_least: bool


def least_order_check(H: Amd) -> LeastOrderReport:
    """The three equivalent least-order characterizations, evaluated and
    cross-checked."""
    irr = is_irreducible(H)
    order = amd_order(H)
    nu = ratmat.least_order(transfer_function(H))
    is_least = order == nu
    if is_least != irr:
        raise AnalysisError("least-order equivalences disagree")
    return LeastOrderReport(irreducible=irr, order=order,
                            transfer_least_order=nu, is_least=is_least)


@dataclass(frozen=True)
class DecouplingReport:
    input_decoupling: Divisor
    output_decoupling: Divisor
    io_decoupling: frozenset
    decoupling: frozenset
    reduced: Amd
    QL: PolyMat
    QR: PolyMat


def decouple(H: Amd) -> DecouplingReport:
    """Strip decoupling zeros: A = Q_L Â Q_R with the reduced AMD
    irreducible and the transfer function unchanged."""
    _need_polynomial("decouple", H)
    a, b, c, d = H.A, H.B, H.C, H.D
    left = polymat.gcld(a, b)
    q_l, a_tilde, b_hat = left.D, left.Q1, left.Q2
    right = polymat.gcrd(a_tilde, c)
    q_r, a_hat, c_hat = right.D, right.Q1, right.Q2
    reduced = Amd(A=a_hat, B=b_hat, C=c_hat, D=d)

    input_div = Divisor.of_zeros(polymat.det(q_l))
    out_gcrd = polymat.gcrd(a, c).D
    output_div = Divisor.of_zeros(polymat.det(out_gcrd))
    sigma_qr = Divisor.of_zeros(polymat.det(q_r)).points()
    io_set = frozenset(output_div.points() - sigma_qr)
    dec_set = frozenset(input_div.points() | sigma_qr)

    if not is_irreducible(reduced):
        raise AnalysisError("reduced AMD is not irreducible")
    g = transfer_function(H)
    if transfer_function(reduced) != g:
        raise AnalysisError("decoupling changed the transfer function")
    poles = ratmat.least_order(g).points()
    if amd_order(H).points() != poles | dec_set:
        raise AnalysisError("spectrum of A is not poles plus decoupling set")
    return DecouplingReport(
        input_decoupling=input_div,
        output_decoupling=output_div,
        io_decoupling=io_set,
        decoupling=dec_set,
        reduced=reduced,
        QL=q_l,
        QR=q_r,
    )
