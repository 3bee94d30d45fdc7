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
    # Poly grids (a's ring is zero's) add each term normalising only the sum
    fused = type(zero) is Poly and all(type(e) is Poly
                                       for row in b for e in row)
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = zero
            for k in range(inner):
                if row[k] and b[k][j]:
                    acc = (acc._plus(row[k], 1, b[k][j]) if fused
                           else acc + row[k] * b[k][j])
            new.append(acc)
        out.append(new)
    return out


# ---------------------------------------------------------------------------
# numeric form: coefficient arrays evaluated on node vectors in numpy's
# complex arithmetic, within the rounding bound of DenseMat.eval_many

_EXP_LIMIT = 700.0  # beyond this |Re(z)|*tau, exp over/underflows badly


def _coeff_array(polys, shape):
    """Coefficients of a grid of Poly, highest degree first, zero padded to
    the largest degree: shape (deg + 1, 1, rows, cols), the 1 standing for
    the node axis."""
    deg = max(max((p.degree for row in polys for p in row), default=0), 0)
    out = np.zeros((deg + 1, 1) + shape)
    for i, row in enumerate(polys):
        for j, p in enumerate(row):
            # int / int rounds once, as float(Fraction) does
            for d, x in enumerate(p.nums):
                out[deg - d, 0, i, j] = x / p.den
    return out


def _horner(coeffs, zs):
    """acc = acc * z + c at nodes zs of shape (k, 1, 1). At a finite node
    a zero leading coefficient leaves acc at a zero whose sign the next
    coefficient's addition clears, so the zero padding changes no bit."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * zs + c
    return acc


def _delay_factors(tau, zs):
    """e^{-tau z} at a vector of nodes; AnalysisError where it would
    overflow."""
    t = -float(tau)
    over = t * zs.real > _EXP_LIMIT
    if over.any():
        raise AnalysisError(f"exponential overflow at Re(z) = "
                            f"{zs[over.argmax()].real:g}, tau = {tau}")
    return np.exp(t * zs)


class _Numeric:
    """A grid of entries sum_tau p_tau(z) e^{-tau z} / den(z), compiled to
    one coefficient array per delay tau and one for the denominator.

    `split(e)` gives an entry as (((p, tau), ...), den): tau None marks the
    one term without a factor, den None means no division.
    """

    __slots__ = ("shape", "terms", "den")

    def __init__(self, grid, shape, split):
        parts = [[split(e) for e in row] for row in grid]
        # all None (one term, no factor) or all exact delays
        taus = sorted({tau for row in parts for terms, _ in row
                       for _, tau in terms})
        self.shape = shape
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
        col = zs[:, None, None]
        val = np.zeros(zs.shape + self.shape, dtype=complex)
        for tau, coeffs in self.terms:
            term = _horner(coeffs, col)
            if tau is not None:
                term = term * _delay_factors(tau, zs)[:, None, None]
            val += term
        if self.den is None:
            return val
        den = _horner(self.den, col)
        if len(pole := np.argwhere(den == 0)):
            raise AnalysisError(
                f"a denominator vanishes at z = {zs[pole[0][0]]}")
        with np.errstate(all="ignore"):  # a quotient may overflow to inf
            return val / den


class DenseMat:
    """Immutable dense matrix over one entry ring, stored as a tuple of row
    tuples.

    A subclass names its entry type `entry` (with a `coerce` constructor,
    `is_zero` and `derivative`) and its ring tag `kind`, the tag of the
    `meromat/1` file format, says how an entry splits for numeric
    evaluation (`_split`; see `_Numeric`), and declares the slots `SLOTS`
    on itself, so that code reading `type(M).__slots__` sees the fields of
    a matrix. Matrices of different subclasses never compare equal, even with
    equal entries. A matrix with no rows keeps the column count `cols` that
    its constructor is given. The constructor coerces every entry (one it
    cannot take is an InputError naming its row and column) and checks the
    rows; `_of` builds a matrix from entries already of the ring, as sums,
    products and eliminations produce them.

    Forms derived from a matrix are built on first use and kept in one
    slot, `_kept`, through `_keep`: the numeric forms of M and of [M | M']
    (coefficient arrays that evaluate whole vectors of nodes), the Hermite
    echelon, the Smith or Smith-McMillan form, the Smith-McMillan factors
    alone ("smith_mcmillan_factors", built with no E or F for the index
    queries), and for a rational M its common denominator d with the
    Hermite form of [d M; d I] modulo d ("hermite_mod", which gives the
    right coprime MFD, the least order and the finite McMillan degree),
    each immutable.
    Equality, hashing and pickling ignore the slot: equal matrices built
    apart build their own forms, and a pickled or copied matrix starts
    with none.
    """

    __slots__ = ()
    SLOTS = ("rows", "cols", "entries", "_kept")

    entry = None
    kind = None
    _split = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._zero = cls.entry.coerce(0)
        cls._one = cls.entry.coerce(1)

    def __init__(self, entries, cols=0):
        coerce = self.entry.coerce
        grid = []
        for i, row in enumerate(entries):
            out = []
            for j, e in enumerate(row):
                try:
                    out.append(coerce(e))
                except (TypeError, ValueError) as exc:
                    raise InputError(
                        f"{self.kind} matrix row {i + 1} col {j + 1}: "
                        f"cannot take entry {e!r} ({exc})") from None
            grid.append(tuple(out))
        grid = tuple(grid)
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
        """`_of` for a result of two matrices of this type, else the coercing
        constructor of the wider ring: RatMat and QuasiPolyMat have none."""
        if type(other) is type(self):
            return type(self)._of
        if "polynomial" not in (self.kind, other.kind):
            raise InputError(f"cannot combine a {self.kind} matrix with a "
                             f"{other.kind} matrix")
        return type(other) if self.kind == "polynomial" else type(self)

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
        """Values at a vector of k nodes, shape (k, rows, cols), each within
        a small multiple of the unit roundoff times the entry evaluated with
        absolute coefficients at |z|, over |den(z)| for a quotient, of the
        exact value (Higham, Accuracy and Stability, section 5.1)."""
        return self._keep("numeric", lambda m: _Numeric(
            m.entries, m.shape, m._split)).at(zs)

    def eval_pair_many(self, zs):
        """(values, values of the exact entrywise derivative) at a vector of
        nodes, cut from one numeric form of the grid [M | M'] and equal bit
        for bit to each half's own form: padding to a common degree changes
        no bit (see `_horner`), nor does adding a delay term that is zero."""
        c = self.cols
        both = self._keep("numeric_pair", lambda m: _Numeric(
            [row + tuple(e.derivative() for e in row) for row in m.entries],
            (m.rows, 2 * c), m._split)).at(zs)
        return both[..., :c], both[..., c:]

    def eval(self, z: complex):
        return self.eval_many([z])[0]

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols})"
