"""Dense exact linear algebra: list-of-list grid kernels and the immutable
dense-matrix base that PolyMat, RatMat and QuasiPolyMat share.

`rank`, `det` and `inverse` work on grids of RatFn; `matmul` works on
grids of any entry ring, given that ring's zero.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, SingularMatrixError
from .exactalg import RatFn

_R_ZERO = RatFn(0)
_R_ONE = RatFn(1)


def _clone(m):
    return [list(row) for row in m]


def rank(m) -> int:
    if not m or not m[0]:
        return 0
    a = _clone(m)
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def det(m) -> RatFn:
    n = len(m)
    if n == 0:
        return _R_ONE
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = _clone(m)
    result = _R_ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return _R_ZERO
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            result = -result
        result = result * a[c][c]
        inv = a[c][c].inverse()
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def inverse(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    a = [list(row) + [_R_ONE if i == j else _R_ZERO for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular over the rational functions")
        a[c], a[piv] = a[piv], a[c]
        inv = a[c][c].inverse()
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def matmul(a, b, zero=_R_ZERO):
    inner = len(b)
    assert all(len(row) == inner for row in a)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = zero
            for k in range(inner):
                if row[k] and b[k][j]:
                    acc = acc + row[k] * b[k][j]
            new.append(acc)
        out.append(new)
    return out


class DenseMat:
    """Immutable dense matrix over one entry ring, stored as a tuple of row
    tuples.

    A subclass names its entry type `entry` (with a `coerce` constructor,
    `is_zero`, `derivative` and complex evaluation) and its ring tag
    `kind`, the tag of the `meromat/1` file format, and declares the slots
    `SLOTS` on itself, so that code reading `type(M).__slots__` sees the
    fields of a matrix. Matrices of different subclasses never compare
    equal, even with equal entries.
    """

    __slots__ = ()
    SLOTS = ("rows", "cols", "entries", "_dgrid")

    entry = None
    kind = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._zero = cls.entry.coerce(0)
        cls._one = cls.entry.coerce(1)

    def __init__(self, entries):
        coerce = self.entry.coerce
        grid = tuple(tuple(coerce(e) for e in row) for row in entries)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise InputError(f"ragged {self.kind} matrix")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)
        # derivative grid, built on the first eval_deriv
        object.__setattr__(self, "_dgrid", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, n: int):
        return cls([[cls._one if i == j else cls._zero for j in range(n)]
                    for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int):
        return cls([[cls._zero] * cols for _ in range(rows)])

    @classmethod
    def diag(cls, values, rows=None, cols=None):
        values = list(values)
        r = rows if rows is not None else len(values)
        c = cols if cols is not None else len(values)
        out = [[cls._zero] * c for _ in range(r)]
        for i, v in enumerate(values):
            out[i][i] = v
        return cls(out)

    @classmethod
    def from_polymat(cls, A):
        return cls(A.entries)

    # -- shape helpers ---------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def transpose(self):
        return type(self)(list(zip(*self.entries))) if self.entries else self

    def submatrix(self, row_slice, col_slice):
        rows = self.entries[row_slice]
        return type(self)([row[col_slice] for row in rows])

    def hstack(self, other):
        if self.rows != other.rows:
            raise InputError("hstack: row counts differ")
        return type(self)([a + b for a, b in zip(self.entries, other.entries)])

    def vstack(self, other):
        if self.cols != other.cols:
            raise InputError("vstack: column counts differ")
        return type(self)(self.entries + other.entries)

    @staticmethod
    def block(blocks):
        """Assemble from a 2-d grid of conformal blocks."""
        strips = []
        for brow in blocks:
            strip = brow[0]
            for b in brow[1:]:
                strip = strip.hstack(b)
            strips.append(strip)
        out = strips[0]
        for s in strips[1:]:
            out = out.vstack(s)
        return out

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError("matrix addition: shape mismatch")
        return type(self)([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)([[-e for e in row] for row in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise InputError("matrix product: shape mismatch")
        return type(self)(matmul(self.entries, other.entries, self._zero))

    # -- evaluation -------------------------------------------------------

    def eval(self, z: complex):
        return np.array([[e(z) for e in row] for row in self.entries],
                        dtype=complex)

    def eval_deriv(self, z: complex):
        dgrid = self._dgrid
        if dgrid is None:
            dgrid = tuple(tuple(e.derivative() for e in row)
                          for row in self.entries)
            object.__setattr__(self, "_dgrid", dgrid)
        return np.array([[e(z) for e in row] for row in dgrid],
                        dtype=complex)

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols})"
