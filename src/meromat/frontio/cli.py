"""Command line front end.

Every subcommand loads its inputs from `meromat/1` files, runs one
analysis, and prints a report: a human-readable listing by default, or a
deterministic JSON document with --json (fixed field order, floats at 17
significant digits).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .. import __version__, holomat, polymat, ratmat, sysmat
from ..errors import AnalysisError, InputError
from ..ratmat import Divisor, RatMat
from . import files

__all__ = ["main"]


# ---------------------------------------------------------------------------
# report plumbing


def _f(x) -> str:
    return format(float(x), ".17g")


def _emit_json(obj, parts: list) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True or obj is False:
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(_f(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit_json(v, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)) + ":")
            _emit_json(v, parts)
        parts.append("}")
    else:
        raise InputError(f"unserializable report value {obj!r}")


def _is_grid(v) -> bool:
    return (isinstance(v, list) and v
            and all(isinstance(r, list)
                    and all(isinstance(e, str) for e in r) for r in v))


def _print_human(obj, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in obj.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_human(value, indent + 1)
        elif _is_grid(value):
            print(f"{pad}{key}:")
            for row in value:
                print(f"{pad}  [{', '.join(row)}]")
        elif isinstance(value, list):
            if all(isinstance(e, dict) for e in value):
                print(f"{pad}{key}:")
                for e in value:
                    _print_human(e, indent + 1)
            else:
                print(f"{pad}{key}: "
                      + ", ".join(_scalar(e) for e in value))
        else:
            print(f"{pad}{key}: {_scalar(value)}")


def _scalar(v) -> str:
    if isinstance(v, float):
        return _f(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _report(args, body: dict) -> None:
    """tool, version, the tolerance options the command takes (no block
    when it takes none), the command's words, then the handler's body."""
    doc = {"tool": "meromat", "version": __version__}
    tolerances = {k: getattr(args, k) for k in
                  ("tol", "max_subdiv", "samples") if hasattr(args, k)}
    if tolerances:
        doc["tolerances"] = tolerances
    doc["command"] = args.words
    doc.update(body)
    if args.json:
        parts: list = []
        _emit_json(doc, parts)
        print("".join(parts))
    else:
        _print_human(doc)


# ---------------------------------------------------------------------------
# value rendering


def _grid(M) -> list:
    return [[files._render_entry(e) for e in row] for row in M.entries]


def _divisor(d: Divisor) -> dict:
    return {"zeros": str(d.zeros), "poles": str(d.poles)}


def _complex(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _points(handles) -> list:
    pts = sorted(handles, key=lambda h: (h.approx.real, h.approx.imag))
    return [_complex(h.approx) for h in pts]


def _witness(w) -> dict:
    return {"M": _grid(w.M), "N": _grid(w.N),
            "X": _grid(w.X), "Y": _grid(w.Y)}


def _amd_blocks(H) -> dict:
    return {"A": _grid(H.A), "B": _grid(H.B),
            "C": _grid(H.C), "D": _grid(H.D)}


def _count_body(res) -> dict:
    return {"n_minus_p": res.n_minus_p,
            "raw_integral": _complex(res.raw_integral),
            "residual": float(res.residual)}


# ---------------------------------------------------------------------------
# input loading and flag parsing


def _load(path: str, want: type):
    obj = files.load(path)
    if not isinstance(obj, want):
        raise InputError(
            f"{path}: expected a {want.__name__.lower()[:-4]} file")
    return obj


def _load_matrix(path: str):
    return _load(path, files.MatrixFile).matrix()


def _load_ratmat(path: str) -> RatMat:
    mf = _load(path, files.MatrixFile)
    if mf.kind == "quasipoly":
        raise InputError(f"{path}: this analysis needs a rational or "
                         "polynomial matrix")
    M = mf.matrix()
    return RatMat.from_polymat(M) if mf.kind == "polynomial" else M


def _load_amd(path: str):
    return _load(path, files.AmdFile).amd()


def _csv_floats(text: str, n: int, flag: str) -> list:
    parts = text.split(",")
    if len(parts) != n:
        raise InputError(f"{flag} needs {n} comma-separated numbers")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise InputError(f"{flag}: malformed number in {text!r}") from None


def _contour(args) -> holomat.Contour:
    if args.circle is not None and args.region is not None:
        raise InputError("give either --circle or --region, not both")
    if args.circle is not None:
        cx, cy, r = _csv_floats(args.circle, 3, "--circle")
        return holomat.Contour.circle(complex(cx, cy), r, tol=args.tol,
                                      max_subdiv=args.max_subdiv)
    if args.region is not None:
        return holomat.Contour.rectangle(*_box(args), tol=args.tol,
                                         max_subdiv=args.max_subdiv)
    raise InputError("a contour is required: --circle CX,CY,R or "
                     "--region X0,X1,Y0,Y1")


def _box(args) -> list:
    if args.region is None:
        raise InputError("--region X0,X1,Y0,Y1 is required")
    return _csv_floats(args.region, 4, "--region")


# ---------------------------------------------------------------------------
# subcommands: each returns its report body


def _cmd_smith(args) -> dict:
    M = _load(args.file, files.MatrixFile)
    if M.kind != "polynomial":
        raise InputError(f"{args.file}: smith needs a polynomial matrix")
    dec = polymat.smith_form(M.matrix())
    return {"invariant_factors": [str(p) for p in dec.invariant_factors],
            "nrank": dec.nrank,
            "E": _grid(dec.E), "S": _grid(dec.S), "F": _grid(dec.F)}


def _cmd_smith_mcmillan(args) -> dict:
    dec = ratmat.smith_mcmillan(_load_ratmat(args.file))
    return {"zero_factors": [str(p) for p in dec.zero_factors],
            "pole_factors": [str(p) for p in dec.pole_factors],
            "nrank": dec.nrank, "E": _grid(dec.E), "F": _grid(dec.F)}


def _cmd_mfd(args) -> dict:
    M = _load_ratmat(args.file)
    mfd = (ratmat.right_coprime_mfd(M) if args.side == "right"
           else ratmat.left_coprime_mfd(M))
    return {"side": mfd.side, "N": _grid(mfd.N), "D": _grid(mfd.D),
            "order": _divisor(mfd.order_divisor())}


def _cmd_least_order(args) -> dict:
    M = _load_ratmat(args.file)
    return {"least_order": _divisor(ratmat.least_order(M)),
            "total": ratmat.least_order_total(M),
            "mcmillan_degree": ratmat.mcmillan_degree(M)}


def _cmd_amd_check(args) -> dict:
    rep = sysmat.least_order_check(_load_amd(args.file))
    return {"irreducible": rep.irreducible, "order": _divisor(rep.order),
            "transfer_least_order": _divisor(rep.transfer_least_order),
            "is_least": rep.is_least}


def _cmd_amd_reduce(args) -> dict:
    rep = sysmat.decouple(_load_amd(args.file))
    return {"input_decoupling": _divisor(rep.input_decoupling),
            "output_decoupling": _divisor(rep.output_decoupling),
            "io_decoupling": _points(rep.io_decoupling),
            "decoupling": _points(rep.decoupling),
            "reduced": _amd_blocks(rep.reduced)}


def _cmd_amd_equate(args) -> dict:
    w = sysmat.equate_irreducible(_load_amd(args.file),
                                  _load_amd(args.file2))
    return {"equivalent": w is not None,
            "witness": None if w is None else _witness(w)}


def _cmd_amd_to_rmf(args) -> dict:
    s, w = sysmat.to_rmf(_load_amd(args.file))
    return {"system": _amd_blocks(s), "witness": _witness(w)}


def _cmd_amd_to_lmf(args) -> dict:
    s, w = sysmat.to_lmf(_load_amd(args.file))
    return {"system": _amd_blocks(s), "witness": _witness(w)}


def _cmd_count(args) -> dict:
    return _count_body(holomat.count_zeros_minus_poles(
        _load_matrix(args.file), _contour(args), samples=args.samples))


def _cmd_roots(args) -> dict:
    roots = holomat.roots_in_region(_load_matrix(args.file), _box(args),
                                    tol=args.tol)
    return {"total": sum(m for _, m in roots),
            "roots": [{"re": float(z.real), "im": float(z.imag),
                       "multiplicity": m} for z, m in roots]}


def _cmd_local_indices(args) -> dict:
    x, y = _csv_floats(args.point, 2, "--point")
    res = holomat.local_indices(_load_matrix(args.file), complex(x, y),
                                kmax=args.kmax)
    return {"point": _complex(complex(x, y)), "indices": list(res.values)}


def _cmd_tds_build(args) -> dict | None:
    """The report with --json; otherwise the AMD file itself."""
    H = holomat.build_tds_amd(_load(args.file, files.TdsFile).data)
    if args.json:
        return {"amd": _amd_blocks(H)}
    sys.stdout.write(files.dumps(files.AmdFile.from_amd(H)))
    return None


def _cmd_tds_poles(args) -> dict:
    tf = _load(args.file, files.TdsFile)
    return _count_body(holomat.count_zeros_minus_poles(
        holomat.tds_state_block(tf.data), _contour(args),
        samples=args.samples))


# ---------------------------------------------------------------------------
# the command table


def _arg(*flags, **kw) -> tuple:
    return flags, kw


_TOL = _arg("--tol", type=float, default=1e-8,
            help="numeric tolerance (default 1e-8)")
_REGION = _arg("--region", metavar="X0,X1,Y0,Y1", help="rectangular region")
# an argument-principle count: its contour and quadrature settings
_CONTOUR = (
    _TOL,
    _arg("--max-subdiv", type=int, default=40,
         help="quadrature depth N: panels are never split below 2^-N of a "
              "segment; at most 2^min(N,16) splits (default 40)"),
    _arg("--samples", type=int, default=256,
         help="boundary sample count for proximity checks"),
    _arg("--circle", metavar="CX,CY,R", help="circular contour"),
    _REGION,
)
_FILE = (_arg("file", help="input file"),)
_AMD = (_arg("file", help="AMD file"),)
_TDS = (_arg("file", help="TDS file"),)

_GROUPS = {"amd": "analytic matrix description analyses",
           "tds": "time-delay system analyses"}

# words, handler, help, shared options, own arguments
_COMMANDS = (
    ("smith", _cmd_smith, "Smith form of a polynomial matrix", (), _FILE),
    ("smith-mcmillan", _cmd_smith_mcmillan,
     "Smith-McMillan form of a rational matrix", (), _FILE),
    ("mfd", _cmd_mfd, "coprime matrix-fraction description", (),
     _FILE + (_arg("--side", choices=("right", "left"), default="right"),)),
    ("least-order", _cmd_least_order,
     "least order and McMillan degree of a rational matrix", (), _FILE),
    ("amd check", _cmd_amd_check, "irreducibility and least order", (), _AMD),
    ("amd reduce", _cmd_amd_reduce, "strip decoupling zeros", (), _AMD),
    ("amd equate", _cmd_amd_equate,
     "system equivalence of two irreducible AMDs", (),
     _AMD + (_arg("file2", help="second AMD file"),)),
    ("amd to-rmf", _cmd_amd_to_rmf, "right matrix fraction form", (), _AMD),
    ("amd to-lmf", _cmd_amd_to_lmf, "left matrix fraction form", (), _AMD),
    ("count", _cmd_count, "argument-principle count of zeros minus poles",
     _CONTOUR, _FILE),
    ("roots", _cmd_roots, "locate all roots in a region", (_TOL, _REGION),
     _FILE),
    ("local-indices", _cmd_local_indices,
     "local pole-zero indices at a point", (), _FILE + (
         _arg("--point", metavar="X,Y", required=True,
              help="expansion point"),
         _arg("--kmax", type=int, default=12,
              help="truncation order for the Toeplitz ranks, 0 to 64"))),
    ("tds build", _cmd_tds_build, "assemble the quasi-polynomial AMD", (),
     _TDS),
    ("tds poles", _cmd_tds_poles, "count characteristic roots in a contour",
     _CONTOUR, _TDS),
)


@functools.cache  # built on first use; parse_args keeps no state on it
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="meromat",
        description="Exact and numeric analysis of polynomial, rational "
                    "and quasi-polynomial matrices.")
    top.add_argument("--version", action="version",
                     version=f"meromat {__version__}")
    subs = {"": top.add_subparsers(dest="command", required=True)}
    for words, fn, help_text, shared, own in _COMMANDS:
        group, _, name = words.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(
                group, help=_GROUPS[group]).add_subparsers(
                    dest=f"{group}_command", required=True)
        p = subs[group].add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")
        for flags, kw in shared + own:
            p.add_argument(*flags, **kw)
        p.set_defaults(fn=fn, words=words)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        body = args.fn(args)
        if body is not None:
            _report(args, body)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
