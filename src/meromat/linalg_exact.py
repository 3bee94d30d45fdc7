"""Dense exact linear algebra: list-of-list grid kernels and the immutable
dense-matrix base that PolyMat, RatMat and QuasiPolyMat share, which
compiles each matrix once to numpy coefficient arrays and evaluates it on
vectors of nodes.

`rank`, `det` and `inverse` work on grids of RatFn; `matmul` works on
grids of any entry ring, given that ring's zero and the column count of
the product, which a grid with no rows cannot carry.
"""

from __future__ import annotations

import numpy as np

from .errors import AnalysisError, InputError, SingularMatrixError
from .exactalg import Poly, RatFn

_P_ZERO = Poly()
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


def matmul(a, b, zero, cols):
    inner = len(b)
    assert all(len(row) == inner for row in a)
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


# ---------------------------------------------------------------------------
# numeric form: coefficient arrays evaluated on node vectors
#
# Values are real arrays of shape (2, k, rows, cols): real parts, then
# imaginary parts. numpy's own complex multiply and divide round differently
# from CPython's (fused multiply-adds, another division formula), so the
# products and quotients below apply the formulas of CPython's
# complexobject.c to the parts. Each value then equals the entry's own
# __call__ at that node bit for bit.


def _coeff_array(polys, shape):
    """Parts of the coefficients of a grid of Poly, highest degree first,
    zero padded to the largest degree: shape (deg + 1, 2, 1, rows, cols),
    the 1 standing for the node axis."""
    deg = max(max((p.degree for row in polys for p in row), default=0), 0)
    out = np.zeros((deg + 1, 2, 1) + shape)
    for i, row in enumerate(polys):
        for j, p in enumerate(row):
            # int / int rounds once, as float(Fraction) does
            for d, x in enumerate(p.nums):
                out[deg - d, 0, 0, i, j] = x / p.den
    return out


def _multiplier(w):
    """(wa, wb) for a vector w, each of shape (2, k, 1, 1), such that
    a[0] * wa + a[1] * wb is a * w by CPython's (ac - bd) + (ad + bc)i:
    x - y is exactly x + (-y)."""
    m = np.empty((2, 2, len(w), 1, 1))
    m[0, 0, :, 0, 0] = m[1, 1, :, 0, 0] = w.real
    m[0, 1, :, 0, 0] = w.imag
    m[1, 0, :, 0, 0] = -w.imag
    return m


def _horner(coeffs, za, zb):
    """acc = acc * z + c from acc = 0j. At a finite node the first step
    gives the leading coefficient exactly, and a zero leading coefficient
    keeps acc at exactly 0j, so the zero padding changes no bit."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc[0] * za + acc[1] * zb + c
    return acc


def _quotient(a, b, zs):
    """a / b by Smith's algorithm, as CPython divides; a denominator
    exactly 0 at a node raises AnalysisError."""
    pole = (b[0] == 0) & (b[1] == 0)
    if pole.any():
        z = zs[np.argwhere(pole)[0][0]]
        raise AnalysisError(f"a denominator vanishes at z = {z}")
    # divide through by the part of larger magnitude: (s, t) is (br, bi)
    # when |br| >= |bi|, else (bi, br), and (u, v) swaps alike
    big = np.abs(b[0]) >= np.abs(b[1])
    s, t = np.where(big, b, b[::-1])
    u, v = np.where(big, a, a[::-1])
    out = np.empty(a.shape)
    with np.errstate(all="ignore"):  # CPython overflows to inf silently
        ratio = t / s
        out[0] = u + v * ratio
        out[1] = np.where(big, v - u * ratio, u * ratio - v)
        out /= s + t * ratio
    return out


class _Numeric:
    """A grid of entries sum_tau p_tau(z) e^{-tau z} / den(z), compiled to
    one coefficient array per delay tau and one for the denominator.

    `split(e)` gives an entry as (((p, tau), ...), den): tau None marks the
    one term without a factor, den None means no division. `delay(tau, zs)`
    gives the factors e^{-tau z} at a vector of nodes.
    """

    __slots__ = ("shape", "terms", "den", "delay")

    def __init__(self, grid, shape, split, delay):
        parts = [[split(e) for e in row] for row in grid]
        # all None (one term, no factor) or all exact delays
        taus = sorted({tau for row in parts for terms, _ in row
                       for _, tau in terms})
        self.shape = shape
        self.delay = delay
        self.terms = tuple(
            (tau, _coeff_array([[{t: p for p, t in terms}.get(tau, _P_ZERO)
                                 for terms, _ in row] for row in parts], shape))
            for tau in taus)
        dens = [[den for _, den in row] for row in parts]
        self.den = (_coeff_array(dens, shape)
                    if any(d is not None for row in dens for d in row)
                    else None)

    def at(self, zs):
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 1:
            raise InputError("evaluation nodes must form a vector")
        za, zb = _multiplier(zs)
        val = np.zeros((2,) + zs.shape + self.shape)
        for tau, coeffs in self.terms:
            term = _horner(coeffs, za, zb)
            if tau is not None:
                ea, eb = _multiplier(self.delay(tau, zs))
                term = term[0] * ea + term[1] * eb
            # acc = 0j, then acc += term, as the entries sum their terms
            val = val + term
        if self.den is not None:
            val = _quotient(val, _horner(self.den, za, zb), zs)
        out = np.empty(val.shape[1:], dtype=complex)
        out.real, out.imag = val
        return out


class DenseMat:
    """Immutable dense matrix over one entry ring, stored as a tuple of row
    tuples.

    A subclass names its entry type `entry` (with a `coerce` constructor,
    `is_zero`, `derivative` and complex evaluation) and its ring tag
    `kind`, the tag of the `meromat/1` file format, says how an entry
    splits for numeric evaluation (`_split`, and `_delay` when entries
    carry delays; see `_Numeric`), and declares the slots `SLOTS` on
    itself, so that code reading `type(M).__slots__` sees the fields of a
    matrix. Matrices of different subclasses never compare equal, even with
    equal entries. A matrix with no rows keeps the column count `cols` that
    its constructor is given. The constructor coerces every entry and
    checks the rows; `_of` builds a matrix from entries already of the
    ring, as sums, products and eliminations produce them.

    Forms derived from a matrix are built on first use and kept in one
    slot, `_kept`, through `_keep`: the numeric forms of M and of [M | M']
    (coefficient arrays that evaluate whole vectors of nodes), the Hermite
    echelon, the Smith or Smith-McMillan form, and the Smith-McMillan
    factors alone ("smith_mcmillan_factors", built with no E or F for
    the queries that read only the diagonal), each immutable.
    Equality, hashing and pickling ignore the slot: equal matrices built
    apart build their own forms, and a pickled or copied matrix starts
    with none.
    """

    __slots__ = ()
    SLOTS = ("rows", "cols", "entries", "_kept")

    entry = None
    kind = None
    _split = None
    _delay = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._zero = cls.entry.coerce(0)
        cls._one = cls.entry.coerce(1)

    def __init__(self, entries, cols=0):
        coerce = self.entry.coerce
        grid = tuple(tuple(coerce(e) for e in row) for row in entries)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise InputError(f"ragged {self.kind} matrix")
        self._fill(grid, cols)

    @classmethod
    def _of(cls, grid, cols=0):
        """The matrix of rows of entries already of the ring, all of one
        length, taken as they are: no coercion and no ragged-row check."""
        out = object.__new__(cls)
        out._fill(tuple(map(tuple, grid)), cols)
        return out

    def _fill(self, grid, cols):
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else cols)
        object.__setattr__(self, "_kept", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _keep(self, key, build):
        """build(self), built on the first call for `key` and then kept."""
        if self._kept is None:
            object.__setattr__(self, "_kept", {})
        if key not in self._kept:
            self._kept[key] = build(self)
        return self._kept[key]

    def __reduce__(self):
        return type(self), (self.entries, self.cols)

    def _like(self, other):
        """The constructor of a result built from self and other: `_of`
        when both are of this type, so every entry is of the ring, else
        the coercing constructor."""
        return type(self)._of if type(other) is type(self) else type(self)

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, n: int):
        return cls._of([[cls._one if i == j else cls._zero for j in range(n)]
                        for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int):
        return cls._of([[cls._zero] * cols for _ in range(rows)], cols)

    @classmethod
    def diag(cls, values, rows=None, cols=None):
        values = list(values)
        r = rows if rows is not None else len(values)
        c = cols if cols is not None else len(values)
        out = [[cls._zero] * c for _ in range(r)]
        for i, v in enumerate(values):
            out[i][i] = v
        return cls(out, c)

    @classmethod
    def from_polymat(cls, A):
        return cls(A.entries, A.cols)

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
        return self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def transpose(self):
        grid = zip(*self.entries) if self.rows else [()] * self.cols
        return type(self)._of(grid, self.rows)

    def submatrix(self, row_slice, col_slice):
        rows = self.entries[row_slice]
        cols = len(range(self.cols)[col_slice])
        return type(self)._of([row[col_slice] for row in rows], cols)

    def hstack(self, other):
        if self.rows != other.rows:
            raise InputError("hstack: row counts differ")
        return self._like(other)(
            [a + b for a, b in zip(self.entries, other.entries)],
            self.cols + other.cols)

    def vstack(self, other):
        if self.cols != other.cols:
            raise InputError("vstack: column counts differ")
        return self._like(other)(self.entries + other.entries, self.cols)

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
        return self._like(other)([[a + b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.entries,
                                                    other.entries)],
                                 self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)._of([[-e for e in row] for row in self.entries],
                              self.cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise InputError("matrix product: shape mismatch")
        return self._like(other)(matmul(self.entries, other.entries,
                                        self._zero, other.cols), other.cols)

    # -- evaluation -------------------------------------------------------

    def eval_many(self, zs):
        """Values at a vector of k nodes, shape (k, rows, cols); each equals
        the entry's own evaluation at that node bit for bit."""
        return self._keep("numeric", lambda m: _Numeric(
            m.entries, m.shape, m._split, m._delay)).at(zs)

    def eval_pair_many(self, zs):
        """(values, values of the exact entrywise derivative) at a vector of
        nodes, cut from one numeric form of the grid [M | M'] and equal bit
        for bit to each half's own form: padding to a common degree changes
        no bit (see `_horner`), nor does adding a delay term that is zero."""
        c = self.cols
        both = self._keep("numeric_pair", lambda m: _Numeric(
            [row + tuple(e.derivative() for e in row) for row in m.entries],
            (m.rows, 2 * c), m._split, m._delay)).at(zs)
        return both[..., :c], both[..., c:]

    def eval(self, z: complex):
        return self.eval_many([z])[0]

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols})"
