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
    doc = {"tool": "meromat", "version": __version__,
           "tolerances": {"tol": float(args.tol),
                          "max_subdiv": int(args.max_subdiv),
                          "samples": int(args.samples)}}
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
# subcommands


def _cmd_smith(args) -> None:
    M = _load(args.file, files.MatrixFile)
    if M.kind != "polynomial":
        raise InputError(f"{args.file}: smith needs a polynomial matrix")
    dec = polymat.smith_form(M.matrix())
    _report(args, {
        "command": "smith",
        "invariant_factors": [str(p) for p in dec.invariant_factors],
        "nrank": dec.nrank,
        "E": _grid(dec.E), "S": _grid(dec.S), "F": _grid(dec.F),
    })


def _cmd_smith_mcmillan(args) -> None:
    dec = ratmat.smith_mcmillan(_load_ratmat(args.file))
    _report(args, {
        "command": "smith-mcmillan",
        "zero_factors": [str(p) for p in dec.zero_factors],
        "pole_factors": [str(p) for p in dec.pole_factors],
        "nrank": dec.nrank,
        "E": _grid(dec.E), "F": _grid(dec.F),
    })


def _cmd_mfd(args) -> None:
    M = _load_ratmat(args.file)
    mfd = (ratmat.right_coprime_mfd(M) if args.side == "right"
           else ratmat.left_coprime_mfd(M))
    _report(args, {
        "command": "mfd",
        "side": mfd.side,
        "N": _grid(mfd.N), "D": _grid(mfd.D),
        "order": _divisor(mfd.order_divisor()),
    })


def _cmd_least_order(args) -> None:
    M = _load_ratmat(args.file)
    nu = ratmat.least_order(M)
    _report(args, {
        "command": "least-order",
        "least_order": _divisor(nu),
        "total": ratmat.least_order_total(M),
        "mcmillan_degree": ratmat.mcmillan_degree(M),
    })


def _cmd_amd_check(args) -> None:
    rep = sysmat.least_order_check(_load_amd(args.file))
    _report(args, {
        "command": "amd check",
        "irreducible": rep.irreducible,
        "order": _divisor(rep.order),
        "transfer_least_order": _divisor(rep.transfer_least_order),
        "is_least": rep.is_least,
    })


def _cmd_amd_reduce(args) -> None:
    rep = sysmat.decouple(_load_amd(args.file))
    _report(args, {
        "command": "amd reduce",
        "input_decoupling": _divisor(rep.input_decoupling),
        "output_decoupling": _divisor(rep.output_decoupling),
        "io_decoupling": _points(rep.io_decoupling),
        "decoupling": _points(rep.decoupling),
        "reduced": _amd_blocks(rep.reduced),
    })


def _cmd_amd_equate(args) -> None:
    w = sysmat.equate_irreducible(_load_amd(args.file),
                                  _load_amd(args.file2))
    _report(args, {
        "command": "amd equate",
        "equivalent": w is not None,
        "witness": None if w is None else _witness(w),
    })


def _cmd_amd_to_rmf(args) -> None:
    s, w = sysmat.to_rmf(_load_amd(args.file))
    _report(args, {"command": "amd to-rmf",
                   "system": _amd_blocks(s), "witness": _witness(w)})


def _cmd_amd_to_lmf(args) -> None:
    s, w = sysmat.to_lmf(_load_amd(args.file))
    _report(args, {"command": "amd to-lmf",
                   "system": _amd_blocks(s), "witness": _witness(w)})


def _cmd_count(args) -> None:
    res = holomat.count_zeros_minus_poles(
        _load_matrix(args.file), _contour(args), samples=args.samples)
    _report(args, {"command": "count", **_count_body(res)})


def _cmd_roots(args) -> None:
    roots = holomat.roots_in_region(_load_matrix(args.file), _box(args),
                                    tol=args.tol)
    _report(args, {
        "command": "roots",
        "total": sum(m for _, m in roots),
        "roots": [{"re": float(z.real), "im": float(z.imag),
                   "multiplicity": m} for z, m in roots],
    })


def _cmd_local_indices(args) -> None:
    x, y = _csv_floats(args.point, 2, "--point")
    res = holomat.local_indices(_load_matrix(args.file), complex(x, y),
                                kmax=args.kmax)
    _report(args, {
        "command": "local-indices",
        "point": _complex(complex(x, y)),
        "indices": list(res.values),
    })


def _cmd_tds_build(args) -> None:
    tf = _load(args.file, files.TdsFile)
    H = holomat.build_tds_amd(tf.data)
    if args.json:
        _report(args, {"command": "tds build", "amd": _amd_blocks(H)})
    else:
        sys.stdout.write(files.dumps(files.AmdFile.from_amd(H)))


def _cmd_tds_poles(args) -> None:
    tf = _load(args.file, files.TdsFile)
    res = holomat.count_zeros_minus_poles(
        holomat.tds_state_block(tf.data), _contour(args),
        samples=args.samples)
    _report(args, {"command": "tds poles", **_count_body(res)})


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built on first use; parse_args keeps no state on it
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    common.add_argument("--tol", type=float, default=1e-8,
                        help="numeric tolerance (default 1e-8)")
    common.add_argument("--max-subdiv", type=int, default=40,
                        help="quadrature depth N: panels are never split "
                             "below 2^-N of a segment; at most 2^min(N,16) "
                             "splits (default 40)")
    common.add_argument("--samples", type=int, default=256,
                        help="boundary sample count for proximity checks")
    region = argparse.ArgumentParser(add_help=False)
    region.add_argument("--region", metavar="X0,X1,Y0,Y1",
                        help="rectangular region")
    contour = argparse.ArgumentParser(add_help=False, parents=[region])
    contour.add_argument("--circle", metavar="CX,CY,R",
                         help="circular contour")

    top = argparse.ArgumentParser(
        prog="meromat",
        description="Exact and numeric analysis of polynomial, rational "
                    "and quasi-polynomial matrices.")
    top.add_argument("--version", action="version",
                     version=f"meromat {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, parents, help_text, two_files=False):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.add_argument("file", help="input file")
        if two_files:
            p.add_argument("file2", help="second input file")
        p.set_defaults(fn=fn)
        return p

    add("smith", _cmd_smith, [common],
        "Smith form of a polynomial matrix")
    add("smith-mcmillan", _cmd_smith_mcmillan, [common],
        "Smith-McMillan form of a rational matrix")
    p = add("mfd", _cmd_mfd, [common],
            "coprime matrix-fraction description")
    p.add_argument("--side", choices=("right", "left"), default="right")
    add("least-order", _cmd_least_order, [common],
        "least order and McMillan degree of a rational matrix")

    amd = sub.add_parser("amd", help="analytic matrix description analyses")
    amd_sub = amd.add_subparsers(dest="amd_command", required=True)

    def add_amd(name, fn, help_text, two_files=False):
        p = amd_sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file", help="AMD file")
        if two_files:
            p.add_argument("file2", help="second AMD file")
        p.set_defaults(fn=fn)
        return p

    add_amd("check", _cmd_amd_check, "irreducibility and least order")
    add_amd("reduce", _cmd_amd_reduce, "strip decoupling zeros")
    add_amd("equate", _cmd_amd_equate,
            "system equivalence of two irreducible AMDs", two_files=True)
    add_amd("to-rmf", _cmd_amd_to_rmf, "right matrix fraction form")
    add_amd("to-lmf", _cmd_amd_to_lmf, "left matrix fraction form")

    add("count", _cmd_count, [common, contour],
        "argument-principle count of zeros minus poles")
    add("roots", _cmd_roots, [common, region],
        "locate all roots in a region")
    p = add("local-indices", _cmd_local_indices, [common],
            "local pole-zero indices at a point")
    p.add_argument("--point", metavar="X,Y", required=True,
                   help="expansion point")
    p.add_argument("--kmax", type=int, default=12,
                   help="truncation order for the Toeplitz ranks")

    tds = sub.add_parser("tds", help="time-delay system analyses")
    tds_sub = tds.add_subparsers(dest="tds_command", required=True)
    p = tds_sub.add_parser("build", parents=[common],
                           help="assemble the quasi-polynomial AMD")
    p.add_argument("file", help="TDS file")
    p.set_defaults(fn=_cmd_tds_build)
    p = tds_sub.add_parser("poles", parents=[common, contour],
                           help="count characteristic roots in a contour")
    p.add_argument("file", help="TDS file")
    p.set_defaults(fn=_cmd_tds_poles)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
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
