"""Structured text files for matrices, AMDs and TDS data.

All three formats share the versioned header line `meromat/1 <type>`.
Loading normalizes entries; saving renders them canonically, so a
load/save round trip is byte-exact on canonical files.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InputError, ParseError
from ..exactalg import QQ, Poly, RatFn
from ..holomat import QuasiPolyEntry, QuasiPolyMat, TdsData
from ..linalg_exact import DenseMat
from ..polymat import PolyMat
from ..ratmat import RatMat
from ..sysmat import Amd
from .parser import parse_entry

__all__ = [
    "MatrixFile",
    "AmdFile",
    "TdsFile",
    "loads",
    "dumps",
    "load",
    "save",
]

_MATRIX_TYPES = {cls.kind: cls for cls in (PolyMat, RatMat, QuasiPolyMat)}
_KINDS = tuple(_MATRIX_TYPES)
_BLOCKS = ("tl", "tr", "bl", "br")
# for each accepted layout, the AMD block written at tl, tr, bl and br,
# with its sign; every layout describes the one AMD [[A, B], [-C, D]]
_LAYOUTS = {
    "standard": ("A", "B", "-C", "D"),
    "flipped": ("D", "-C", "B", "A"),
    "flipped-neg-b": ("D", "C", "-B", "A"),
    "neg-b": ("A", "-B", "C", "D"),
    "neg-a": ("-A", "B", "C", "D"),
}
_ALLOWED = {
    "polynomial": ("polynomial",),
    "rational": ("polynomial", "rational"),
    "quasipoly": ("polynomial", "quasipoly"),
}


def _render_entry(value) -> str:
    if not isinstance(value, (Poly, RatFn, QuasiPolyEntry)):
        raise InputError(f"cannot render entry of type {type(value).__name__}")
    return str(value)


def _parse_grid_entry(src: str, kind: str, where: str):
    try:
        parsed = parse_entry(src)
    except ParseError as exc:
        raise InputError(f"{where}: {exc}") from None
    if parsed.kind not in _ALLOWED[kind]:
        raise InputError(
            f"{where}: {parsed.kind} entry in a {kind} matrix")
    return parsed.value


@dataclass(frozen=True)
class MatrixFile:
    """A matrix with a declared entry kind and an optional region of
    interest (x0, x1, y0, y1)."""

    kind: str
    rows: int
    cols: int
    entries: tuple  # grid of normalized Poly | RatFn | QuasiPolyEntry
    region: tuple | None = None

    @staticmethod
    def from_matrix(M, region=None) -> "MatrixFile":
        if not isinstance(M, DenseMat):
            raise InputError(f"unsupported matrix type {type(M).__name__}")
        return MatrixFile(kind=M.kind, rows=M.rows, cols=M.cols,
                          entries=M.entries, region=region)

    def matrix(self):
        return _MATRIX_TYPES[self.kind](self.entries, self.cols)


@dataclass(frozen=True)
class AmdFile:
    """Four system-matrix blocks in one of the accepted layouts."""

    ring: str
    r: int
    m: int
    n: int
    layout: str
    blocks: tuple  # (tl, tr, bl, br) entry grids

    @staticmethod
    def from_amd(H: Amd) -> "AmdFile":
        neg_c = -H.C
        return AmdFile(ring=H.ring, r=H.state_dim, m=H.output_dim,
                       n=H.input_dim, layout="standard",
                       blocks=(H.A.entries, H.B.entries,
                               neg_c.entries, H.D.entries))

    def amd(self) -> Amd:
        wrap = _MATRIX_TYPES[self.ring]
        shapes = _shapes(self.r, self.m, self.n)
        blocks = {}
        for spot, grid in zip(_LAYOUTS[self.layout], self.blocks):
            blk = wrap(grid, shapes[spot[-1]][1])
            blocks[spot[-1]] = -blk if spot[0] == "-" else blk
        return Amd(**blocks)


def _shapes(r: int, m: int, n: int) -> dict:
    """(rows, cols) of the blocks A, B, C and D of an AMD or of a TDS."""
    return {"A": (r, r), "B": (r, n), "C": (m, r), "D": (m, n)}


@dataclass(frozen=True)
class TdsFile:
    data: TdsData


# ---------------------------------------------------------------------------
# serialization


def _rows_to_lines(grid, render=_render_entry) -> list:
    return ["row " + " ; ".join(render(e) for e in row) for row in grid]


def _dump_matrix(mf: MatrixFile) -> str:
    lines = ["meromat/1 matrix", f"kind {mf.kind}",
             f"size {mf.rows} {mf.cols}"]
    if mf.region is not None:
        lines.append("region " + " ".join(str(QQ(v)) for v in mf.region))
    lines.extend(_rows_to_lines(mf.entries))
    return "\n".join(lines) + "\n"


def _dump_amd(af: AmdFile) -> str:
    lines = ["meromat/1 amd", f"ring {af.ring}",
             f"dims {af.r} {af.m} {af.n}", f"layout {af.layout}"]
    for name, grid in zip(_BLOCKS, af.blocks):
        lines.append(f"block {name}")
        lines.extend(_rows_to_lines(grid))
    return "\n".join(lines) + "\n"


def _dump_tds(tf: TdsFile) -> str:
    d = tf.data
    lines = ["meromat/1 tds",
             f"dims {d.state_dim} {d.output_dim} {d.input_dim}",
             "matrix A0"]
    lines.extend(_rows_to_lines(d.A0, str))
    for tag, terms in (("A", d.A_delayed), ("B", d.B_terms),
                       ("C", d.C_terms), ("D", d.D_terms)):
        for mat, tau in terms:
            lines.append(f"matrix {tag} {tau}")
            lines.extend(_rows_to_lines(mat, str))
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    if isinstance(obj, MatrixFile):
        return _dump_matrix(obj)
    if isinstance(obj, AmdFile):
        return _dump_amd(obj)
    if isinstance(obj, TdsFile):
        return _dump_tds(obj)
    if isinstance(obj, DenseMat):
        return _dump_matrix(MatrixFile.from_matrix(obj))
    if isinstance(obj, Amd):
        return _dump_amd(AmdFile.from_amd(obj))
    if isinstance(obj, TdsData):
        return _dump_tds(TdsFile(obj))
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# parsing


class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.idx = self.at = 0

    @property
    def where(self) -> str:  # the line last returned by peek or pop
        return f"line {self.at + 1}"

    def peek(self):
        while self.idx < len(self.lines) and not self.lines[self.idx].strip():
            self.idx += 1
        self.at = self.idx
        if self.idx >= len(self.lines):
            return None
        return self.lines[self.idx].strip()

    def pop(self):
        line = self.peek()
        if line is not None:
            self.idx += 1
        return line


def _expect_field(lines: _Lines, name: str) -> str:
    line = lines.pop()
    if line is None or not line.startswith(name + " "):
        raise InputError(f"{lines.where}: expected '{name} ...'")
    return line[len(name) + 1:].strip()


def _read_rows(lines: _Lines, rows: int, cols: int, kind: str, path: str):
    grid = []
    for i in range(rows):
        line = lines.pop()
        if line is None or not line.startswith("row "):
            raise InputError(f"{lines.where}: expected row {i + 1} of {path}")
        cells = [c.strip() for c in line[4:].split(";")]
        if len(cells) != cols:
            raise InputError(
                f"{path} row {i + 1}: expected {cols} entries, got "
                f"{len(cells)}")
        grid.append(tuple(
            _parse_grid_entry(src, kind, f"{path} row {i + 1} col {j + 1}")
            for j, src in enumerate(cells)))
    return tuple(grid)


def _load_matrix(lines: _Lines) -> MatrixFile:
    kind = _expect_field(lines, "kind")
    if kind not in _KINDS:
        raise InputError(f"{lines.where}: unknown entry kind {kind!r}")
    size = _expect_field(lines, "size").split()
    if len(size) != 2 or not all(s.isdigit() for s in size):
        raise InputError(f"{lines.where}: malformed size line")
    rows, cols = int(size[0]), int(size[1])
    region = None
    nxt = lines.peek()
    if nxt is not None and nxt.startswith("region "):
        lines.pop()
        parts = nxt[7:].split()
        if len(parts) != 4:
            raise InputError(f"{lines.where}: region needs four numbers")
        try:
            region = tuple(QQ(p) for p in parts)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{lines.where}: bad region value in "
                             f"{nxt[7:]!r}") from None
    grid = _read_rows(lines, rows, cols, kind, "matrix")
    if lines.peek() is not None:
        raise InputError(f"{lines.where}: trailing content")
    return MatrixFile(kind=kind, rows=rows, cols=cols, entries=grid,
                      region=region)


def _load_amd(lines: _Lines) -> AmdFile:
    ring = _expect_field(lines, "ring")
    if ring not in _KINDS:
        raise InputError(f"{lines.where}: unknown ring {ring!r}")
    dims = _expect_field(lines, "dims").split()
    if len(dims) != 3 or not all(s.isdigit() for s in dims):
        raise InputError(f"{lines.where}: malformed dims line")
    r, m, n = (int(s) for s in dims)
    layout = _expect_field(lines, "layout")
    if layout not in _LAYOUTS:
        raise InputError(f"{lines.where}: unknown layout {layout!r}")
    shapes = _shapes(r, m, n)
    blocks = []
    for name, spot in zip(_BLOCKS, _LAYOUTS[layout]):
        tag = _expect_field(lines, "block")
        if tag != name:
            raise InputError(f"{lines.where}: expected 'block {name}'")
        blocks.append(_read_rows(lines, *shapes[spot[-1]], ring,
                                 f"block {name}"))
    if lines.peek() is not None:
        raise InputError(f"{lines.where}: trailing content")
    return AmdFile(ring=ring, r=r, m=m, n=n, layout=layout,
                   blocks=tuple(blocks))


def _read_const_rows(lines: _Lines, rows: int, cols: int, path: str):
    grid = [[RatFn.coerce(v) for v in row]
            for row in _read_rows(lines, rows, cols, "rational", path)]
    for i, row in enumerate(grid):
        for j, f in enumerate(row):
            if not (f.is_polynomial and f.num.is_constant):
                raise InputError(f"{path} row {i + 1} col {j + 1}: "
                                 "expected a rational constant")
    return tuple(tuple(f.num.constant_value().re for f in row)
                 for row in grid)


def _load_tds(lines: _Lines) -> TdsFile:
    dims = _expect_field(lines, "dims").split()
    where = lines.where
    if len(dims) != 3 or not all(s.isdigit() for s in dims):
        raise InputError(f"{where}: malformed dims line")
    r, m, n = (int(s) for s in dims)
    tag = _expect_field(lines, "matrix")
    if tag != "A0":
        raise InputError(f"{lines.where}: TDS file must start with A0")
    a0 = _read_const_rows(lines, r, r, "A0")
    terms = {"A": [], "B": [], "C": [], "D": []}
    shapes = _shapes(r, m, n)
    while lines.peek() is not None:
        head = _expect_field(lines, "matrix").split()
        if len(head) != 2 or head[0] not in terms:
            raise InputError(f"{lines.where}: malformed matrix header")
        name = head[0]
        try:
            tau = QQ(head[1])
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{lines.where}: bad delay {head[1]!r}") from None
        mat = _read_const_rows(lines, *shapes[name], f"{name} delay {tau}")
        terms[name].append((mat, tau))
    data = TdsData(A0=a0, A_delayed=tuple(terms["A"]),
                   B_terms=tuple(terms["B"]), C_terms=tuple(terms["C"]),
                   D_terms=tuple(terms["D"]))
    # n and m come from the terms: a dims line they contradict won't round-trip
    got = (data.state_dim, data.output_dim, data.input_dim)
    if got != (r, m, n):
        raise InputError(f"{where}: dims {r} {m} {n}, but the terms give "
                         "dims {} {} {}".format(*got))
    return TdsFile(data=data)


def loads(text: str):
    lines = _Lines(text)
    header = lines.pop()
    if header is None or not header.startswith("meromat/1"):
        raise InputError("line 1: missing 'meromat/1' header")
    parts = header.split()
    if len(parts) != 2 or parts[1] not in ("matrix", "amd", "tds"):
        raise InputError("line 1: header must name a matrix, amd or tds body")
    if parts[1] == "matrix":
        return _load_matrix(lines)
    if parts[1] == "amd":
        return _load_amd(lines)
    return _load_tds(lines)


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def save(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
