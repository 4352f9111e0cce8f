"""Exact rational linear algebra substrate.

Dense matrices over Q (``fractions.Fraction`` entries), subspaces with
canonical bases, and finite cochain complexes with exact cohomology.  Every
higher-level check in the package reduces to operations here.

All elimination (``rank``, ``kernel``, ``solve``, ``solve_matrix``,
``inverse``) goes through ``Matrix.rref`` and its one routine,
:func:`_eliminate`, which works on sparse integer rows: each row is a
``{column: int}`` dict scaled by the lcm of its denominators and kept
gcd-normalised, and entries turn back into ``Fraction`` only when the result
matrix is built.  ``solve_matrix`` reduces ``[A | B]`` once for all columns of
B; on a consistent system every pivot lies in A's columns.

Two conventions make all downstream output bit-reproducible:

* reduced row-echelon form uses the "first nonzero row" pivot rule, and all
  derived bases (kernels, solutions, complements) follow the rref free/pivot
  column convention; solutions set every free variable to 0;
* :class:`Subspace` always stores the unique reduced column-echelon basis,
  so equal subspaces compare equal field-by-field.

No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like ``-3/7``, and Fractions; floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def _int_row(row: Sequence[Fraction]) -> dict[int, int]:
    """The nonzero entries of ``row`` as ``{column: int}``, scaled by the lcm of their denominators."""
    nz = {j: x for j, x in enumerate(row) if x}
    d = lcm(*(x.denominator for x in nz.values()))
    return {j: x.numerator * (d // x.denominator) for j, x in nz.items()}


def _eliminate(rows: list[dict[int, int]], n: int) -> list[int]:
    """Gauss-Jordan elimination of sparse integer rows with ``n`` columns, in place.

    Columns are taken in order; the pivot for column ``c`` is the first row at or after
    the current rank with a nonzero entry there.  Every other row with an entry in ``c``
    becomes ``row * a - pivot_row * b`` and is divided by the gcd of its entries, so rows
    stay primitive integer vectors.  Returns the pivot columns; row ``r`` is then the
    pivot row of the ``r``-th of them, and rows past the rank are empty.
    """
    m = len(rows)
    piv: list[int] = []
    for c in range(n):
        r = len(piv)
        if r == m:
            break
        p = next((i for i in range(r, m) if c in rows[i]), -1)
        if p < 0:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        pval = prow[c]
        for i in range(m):
            v = rows[i].get(c)
            if v is None or i == r:
                continue
            g = gcd(pval, v)
            a, b = pval // g, v // g
            row = {j: x * a for j, x in rows[i].items()}
            for j, y in prow.items():
                z = row.get(j, 0) - y * b
                if z:
                    row[j] = z
                else:
                    del row[j]
            g = gcd(*row.values())
            if g > 1:
                row = {j: x // g for j, x in row.items()}
            rows[i] = row
        piv.append(c)
    return piv


class Matrix:
    """Immutable dense matrix over Q, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple[tuple[Fraction, ...], ...]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"bad shape: want {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        data = tuple(tuple(frac(x) for x in r) for r in rows)
        if data:
            cols = len(data[0])
        elif cols is None:
            cols = 0
        return Matrix(len(data), cols, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence], rows: Optional[int] = None) -> "Matrix":
        if not cols:
            return Matrix(rows or 0, 0, tuple(() for _ in range(rows or 0)))
        n = len(cols[0])
        data = tuple(tuple(frac(c[i]) for c in cols) for i in range(n))
        return Matrix(n, len(cols), data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    def hstack(blocks: Sequence["Matrix"]) -> "Matrix":
        blocks = [b for b in blocks]
        if not blocks:
            return Matrix.zeros(0, 0)
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ValueError("hstack: row mismatch")
        data = tuple(tuple(x for b in blocks for x in b.data[i]) for i in range(rows))
        return Matrix(rows, sum(b.cols for b in blocks), data)

    @staticmethod
    def vstack(blocks: Sequence["Matrix"]) -> "Matrix":
        blocks = [b for b in blocks]
        if not blocks:
            return Matrix.zeros(0, 0)
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("vstack: col mismatch")
        data = tuple(row for b in blocks for row in b.data)
        return Matrix(sum(b.rows for b in blocks), cols, data)

    @staticmethod
    def block_diag(blocks: Sequence["Matrix"]) -> "Matrix":
        diagonal = {(i, i): b for i, b in enumerate(blocks)}
        return Matrix.block([b.rows for b in blocks], [b.cols for b in blocks], diagonal)

    @staticmethod
    def block(rows: Sequence[int], cols: Sequence[int], blocks: Mapping[tuple[int, int], Matrix]) -> Matrix:
        """The block matrix with block heights ``rows`` and block widths ``cols``.

        ``blocks`` maps a (block row, block column) position to its matrix; a block that
        is not given is zero, and a given block of the wrong shape raises ValueError.
        """
        r_off = [0, *accumulate(rows)]
        c_off = [0, *accumulate(cols)]
        out = [[ZERO] * c_off[-1] for _ in range(r_off[-1])]
        for (i, j), b in blocks.items():
            if (b.rows, b.cols) != (rows[i], cols[j]):
                raise ValueError(f"block ({i}, {j}): want {rows[i]}x{cols[j]}, got {b.rows}x{b.cols}")
            for k, brow in enumerate(b.data, r_off[i]):
                out[k][c_off[j] : c_off[j + 1]] = brow
        return Matrix(r_off[-1], c_off[-1], tuple(map(tuple, out)))

    # -- basics -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def __getitem__(self, rc: tuple[int, int]) -> Fraction:
        return self.data[rc[0]][rc[1]]

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(self.data[i][j] for i in range(self.rows))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("add: shape mismatch")
        return Matrix(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(tuple(-x for x in r) for r in self.data))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, tuple(tuple(c * x for x in r) for r in self.data))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # Skip zero entries: structure matrices downstream are mostly sparse.
        bdata = other.data
        out = []
        for i in range(self.rows):
            acc = [ZERO] * other.cols
            arow = self.data[i]
            for k in range(self.cols):
                a = arow[k]
                if a:
                    brow = bdata[k]
                    for j in range(other.cols):
                        b = brow[j]
                        if b:
                            acc[j] += a * b
                    # a == 1 fast path not worth special-casing with Fractions
            out.append(tuple(acc))
        return Matrix(self.rows, other.cols, tuple(out))

    def apply(self, v: Sequence) -> Vec:
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError("apply: length mismatch")
        out = []
        for i in range(self.rows):
            s = ZERO
            row = self.data[i]
            for k in range(self.cols):
                if row[k] and v[k]:
                    s += row[k] * v[k]
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols, self.rows, tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols))
        )

    def take_cols(self, idx: Sequence[int]) -> "Matrix":
        return Matrix(self.rows, len(idx), tuple(tuple(r[j] for j in idx) for r in self.data))

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        return Matrix(len(idx), self.cols, tuple(self.data[i] for i in idx))

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and pivot columns (exact, deterministic).

        The only elimination entry point: ``rank``, ``kernel``, ``solve``,
        ``solve_matrix`` and ``inverse`` all reduce through it.  Rows become sparse
        integer rows, :func:`_eliminate` reduces them once, and entries turn back
        into ``Fraction`` only here, when each pivot row is divided by its leading
        entry, which yields the unique RREF.
        """
        m, n = self.rows, self.cols
        rows = [_int_row(r) for r in self.data]
        piv = _eliminate(rows, n)
        data = []
        for r, c in enumerate(piv):
            lead = rows[r][c]
            out = [ZERO] * n
            for j, x in rows[r].items():
                out[j] = Fraction(x, lead)
            data.append(tuple(out))
        data.extend([(ZERO,) * n] * (m - len(piv)))
        return Matrix(m, n, tuple(data)), tuple(piv)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Matrix":
        """Null-space basis as columns (rref free-variable convention)."""
        R, piv = self.rref()
        n = self.cols
        pivset = set(piv)
        free = [c for c in range(n) if c not in pivset]
        out = [[ZERO] * len(free) for _ in range(n)]
        for k, f in enumerate(free):
            out[f][k] = ONE
            for r, c in enumerate(piv):
                x = R.data[r][f]
                if x:
                    out[c][k] = -x
        return Matrix(n, len(free), tuple(map(tuple, out)))

    def solve(self, b: Sequence) -> Optional[Vec]:
        """One solution of ``self @ x = b`` (free variables 0), or None."""
        b = vec(b)
        if len(b) != self.rows:
            raise ValueError("solve: length mismatch")
        x = self.solve_matrix(Matrix(self.rows, 1, tuple((y,) for y in b)))
        return None if x is None else x.col(0)

    def solve_matrix(self, B: "Matrix") -> Optional["Matrix"]:
        """Solve ``self @ X = B`` with free variables 0; None if any column is inconsistent.

        One ``rref`` of ``[self | B]`` serves every column of B.  Its pivots in the
        columns of ``self`` are those of ``self``'s own RREF, and a column of B is
        consistent exactly when it is zero in every row past that rank.  So all
        pivots lie in ``self``'s columns when every column is consistent, and a
        pivot in a column of B means some column is not.  Pivot variables are read
        off the reduced B entries.
        """
        n = self.cols
        R, piv = Matrix.hstack([self, B]).rref()
        if piv and piv[-1] >= n:
            return None
        out = [(ZERO,) * B.cols] * n
        for r, c in enumerate(piv):
            out[c] = R.data[r][n:]
        return Matrix(n, B.cols, tuple(out))

    @property
    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse: not square")
        n = self.rows
        R, piv = Matrix.hstack([self, Matrix.identity(n)]).rref()
        if piv[:n] != tuple(range(n)):
            raise ValueError("inverse: singular matrix")
        return R.take_cols(range(n, 2 * n))


# -- subspaces ---------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient, stored with its canonical reduced basis.

    The basis matrix has the subspace's unique reduced column-echelon basis as
    columns, so two equal subspaces are equal dataclasses.
    """

    ambient: int
    basis: Matrix

    @staticmethod
    def from_spanning(m: Matrix) -> "Subspace":
        R, piv = m.transpose().rref()
        cols = [R.row(i) for i in range(len(piv))]
        return Subspace(m.rows, Matrix.from_cols(cols, rows=m.rows))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, Matrix.zeros(n, 0))

    @property
    def dim(self) -> int:
        return self.basis.cols


def kernel_space(m: Matrix) -> Subspace:
    return Subspace.from_spanning(m.kernel())


def image_space(m: Matrix) -> Subspace:
    return Subspace.from_spanning(m)


def sum_spaces(spaces: Sequence[Subspace]) -> Subspace:
    if not spaces:
        raise ValueError("sum of no spaces")
    n = spaces[0].ambient
    if any(s.ambient != n for s in spaces):
        raise ValueError("ambient mismatch")
    return Subspace.from_spanning(Matrix.hstack([s.basis for s in spaces]))


def intersection_spaces(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient)
    ker = Matrix.hstack([a.basis, -b.basis]).kernel()
    part = a.basis * ker.take_rows(range(a.dim))
    return Subspace.from_spanning(part)


def complement_space(s: Subspace) -> Subspace:
    """Standard-basis completion: S + result = Q^n, S intersect result = 0."""
    aug = Matrix.hstack([s.basis, Matrix.identity(s.ambient)])
    _, piv = aug.rref()
    extra = [c - s.dim for c in piv if c >= s.dim]
    cols = []
    for e in extra:
        v = [ZERO] * s.ambient
        v[e] = ONE
        cols.append(v)
    return Subspace(s.ambient, Matrix.from_cols(cols, rows=s.ambient))


def preimage_space(f: Matrix, s: Subspace) -> Subspace:
    """{v : f(v) in s} as a subspace of the domain."""
    if f.rows != s.ambient:
        raise ValueError("ambient mismatch")
    if s.dim == 0:
        return kernel_space(f)
    ker = Matrix.hstack([f, -s.basis]).kernel()
    return Subspace.from_spanning(ker.take_rows(range(f.cols)))


# -- cochain complexes -------------------------------------------------------


@dataclass(frozen=True)
class CochainComplex:
    """Finite complex of Q-vector spaces; zero outside [p_min, p_max].

    ``diffs[i]`` maps degree ``p_min + i`` to ``p_min + i + 1`` and must
    compose to zero with its successor.
    """

    p_min: int
    p_max: int
    dims: tuple[int, ...]
    diffs: tuple[Matrix, ...]

    def __post_init__(self):
        n = self.p_max - self.p_min + 1
        if len(self.dims) != n or len(self.diffs) != n - 1:
            raise ValueError("complex: length mismatch")
        for i, d in enumerate(self.diffs):
            if d.cols != self.dims[i] or d.rows != self.dims[i + 1]:
                raise ValueError(f"complex: differential {self.p_min + i} has wrong shape")

    def degrees(self) -> range:
        return range(self.p_min, self.p_max + 1)

    def dim(self, p: int) -> int:
        if p < self.p_min or p > self.p_max:
            return 0
        return self.dims[p - self.p_min]

    def differential(self, p: int) -> Matrix:
        """d^p as a matrix; zero map outside the stored range."""
        if self.p_min <= p < self.p_max:
            return self.diffs[p - self.p_min]
        return Matrix.zeros(self.dim(p + 1), self.dim(p))

    def validate(self) -> list[int]:
        """Degrees p with d^{p+1} d^p != 0 (empty list means valid).

        D^2 is checked once per complex object: a complex that passes remembers it in a
        private attribute (not a field, so equality and hashing ignore it) and later calls
        return at once.  A failing complex is checked again, and its degrees found again,
        on every call.
        """
        if self.__dict__.get("_d_squared_zero"):
            return []
        bad = [p for p in range(self.p_min, self.p_max - 1) if not self.d_squared(p).is_zero]
        if not bad:
            object.__setattr__(self, "_d_squared_zero", True)
        return bad

    def d_squared(self, p: int) -> Matrix:
        """The product d^{p+1} d^p."""
        return self.differential(p + 1) * self.differential(p)

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * self.dim(p) for p in self.degrees())


@dataclass(frozen=True)
class CohomologyDegree:
    dim: int
    representatives: Matrix  # columns: kernel vectors completing the image


def _require_complex(c: CochainComplex) -> None:
    bad = c.validate()
    if bad:
        raise ValueError(f"not a complex: d o d != 0 at degree {bad[0]}")


def complex_cohomology(c: CochainComplex) -> dict[int, CohomologyDegree]:
    """Per-degree cohomology with deterministic representatives.

    Raises ValueError naming the first offending degree if d o d != 0.  D^2 is checked
    once per complex object (see :meth:`CochainComplex.validate`); a failing complex is
    checked again, and raises again, on every call.
    """
    _require_complex(c)
    out: dict[int, CohomologyDegree] = {}
    for p in c.degrees():
        ker = c.differential(p).kernel()
        im = c.differential(p - 1)
        aug = Matrix.hstack([im, ker])
        _, piv = aug.rref()
        reps_idx = [j - im.cols for j in piv if j >= im.cols]
        reps = ker.take_cols(reps_idx)
        out[p] = CohomologyDegree(dim=reps.cols, representatives=reps)
    return out


def betti_numbers(c: CochainComplex) -> dict[int, int]:
    """dim H^p = dim C^p - rk d^p - rk d^{p-1}, from one ``rank`` per differential.

    Validates ``c`` like :func:`complex_cohomology` (once per complex object; a failing
    complex is checked again, and raises again, on every call), but computes no kernels
    or representatives.
    """
    _require_complex(c)
    rank = {p: d.rank() for p, d in zip(c.degrees(), c.diffs)}
    return {p: c.dim(p) - rank.get(p, 0) - rank.get(p - 1, 0) for p in c.degrees()}


@dataclass(frozen=True)
class QuasiIsoCertificate:
    ok: bool
    degrees: dict[int, tuple[int, int, int]]  # p -> (dim H_p source, dim H_p target, induced rank)


def chain_map_is_quasi_iso(
    c: CochainComplex, cp: CochainComplex, f: dict[int, Matrix]
) -> QuasiIsoCertificate:
    """Whether f induces isomorphisms on all cohomology, with per-degree ranks.

    ``f[p]`` maps degree p of ``c`` to degree p of ``cp``; missing degrees are
    zero maps.  Raises ValueError if f fails to commute with differentials.
    """

    def fmat(p: int) -> Matrix:
        m = f.get(p)
        return m if m is not None else Matrix.zeros(cp.dim(p), c.dim(p))

    lo, hi = min(c.p_min, cp.p_min), max(c.p_max, cp.p_max)
    for p in range(lo, hi):
        lhs = fmat(p + 1) * c.differential(p)
        rhs = cp.differential(p) * fmat(p)
        if lhs != rhs:
            raise ValueError(f"not a chain map at degree {p}")
    h = complex_cohomology(c)
    hp = complex_cohomology(cp)
    degrees: dict[int, tuple[int, int, int]] = {}
    ok = True
    for p in range(lo, hi + 1):
        d1 = h[p].dim if p in h else 0
        d2 = hp[p].dim if p in hp else 0
        rank = 0
        if d1 and d2:
            reps = fmat(p) * h[p].representatives
            # coordinates of images modulo the image of d'^{p-1}
            basis = Matrix.hstack([cp.differential(p - 1), hp[p].representatives])
            coords = basis.solve_matrix(reps)
            if coords is None:
                raise AssertionError("image representative not a cocycle")
            induced = coords.take_rows(range(cp.differential(p - 1).cols, basis.cols))
            rank = induced.rank()
        elif d1 and not d2:
            rank = 0
        if not (d1 == d2 == rank):
            ok = False
        degrees[p] = (d1, d2, rank)
    return QuasiIsoCertificate(ok=ok, degrees=degrees)


def two_term_complex(anchor: Matrix) -> CochainComplex:
    """The complex (C -> E) in degrees 0, 1 for a core anchor C -> E."""
    return CochainComplex(0, 1, (anchor.cols, anchor.rows), (anchor,))
