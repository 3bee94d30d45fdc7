"""Canonical text rendering of entries.

Every renderer emits a string the grammar re-parses to an equal value;
file round-trips rely on this being deterministic.
"""

from __future__ import annotations

from ..exactalg import GaussRat, Poly, RatFn

__all__ = ["poly_to_str", "ratfn_to_str", "qp_to_str"]


def _term_str(c: GaussRat, d: int) -> str:
    """One monomial |c|*z^d with the sign stripped."""
    mag = abs(c.re)
    if d == 0:
        return str(mag)
    zpart = "z" if d == 1 else f"z^{d}"
    if mag == 1:
        return zpart
    return f"{mag}*{zpart}"


def poly_to_str(p: Poly) -> str:
    p = Poly.coerce(p)
    if p.is_zero:
        return "0"
    pieces = []
    for d, c in reversed(list(enumerate(p.coeffs))):
        if not c:
            continue
        if not pieces:
            sign = "-" if c.re < 0 else ""
            pieces.append(sign + _term_str(c, d))
        else:
            sign = " - " if c.re < 0 else " + "
            pieces.append(sign + _term_str(c, d))
    return "".join(pieces)


def ratfn_to_str(f: RatFn) -> str:
    f = RatFn.coerce(f)
    if f.is_polynomial:
        return poly_to_str(f.num)
    return f"({poly_to_str(f.num)})/({poly_to_str(f.den)})"


def qp_to_str(q) -> str:
    from ..holomat import QuasiPolyEntry

    q = QuasiPolyEntry.coerce(q)
    if q.is_zero:
        return "0"
    pieces = []
    for p, tau in q.terms:
        if not tau:
            piece = poly_to_str(p)
        else:
            piece = f"({poly_to_str(p)})*exp(-{tau}*z)"
        pieces.append(piece)
    return " + ".join(pieces)
