"""Exact rational linear algebra substrate.

Sparse matrices over Q, subspaces with canonical bases, and finite cochain complexes
with exact cohomology.  Every higher-level check in the package reduces to operations
here.

A :class:`Matrix` stores each row as a ``{column: int}`` dict of its nonzero
numerators, over one positive denominator per matrix, in a canonical form; products,
sums, stacking, block assembly and slicing all work on these rows, and ``Fraction``
entries appear only when a caller reads them (``m[i, j]``, ``row``, ``col``, ``data``).
No module outside this one sees the storage.

All elimination, in ``rank``, ``kernel``, ``solve``, ``solve_matrix`` and ``inverse``,
goes through ``Matrix.rref`` and its one routine, :func:`_eliminate`, which reduces a copy
of the numerator rows, keeping each changed row a gcd-normalised integer vector.
``solve_matrix`` reduces ``[A | B]`` once for all columns of B; on a consistent system
every pivot lies in A's columns.  When A's rows include the unit row e_j for every
column j, as every ``kernel`` basis and identity do, ``solve_matrix`` eliminates
nothing: such an A has full column rank, so a solution is unique if it exists, and it
can only be B's rows at those unit rows; one product A X = B decides whether it is one.

Cohomology is counted from ranks, not constructed: dim H^p = dim C^p - rk d^p - rk d^{p-1},
and a chain map f induces on H^p a map of rank rk [A; T] - rk A - rk d'^{p-1}, where [A; T]
= [[d^p, 0], [f^p, d'^{p-1}]] is the mapping-cone differential.  It holds because
rk [A; T] - rk A = dim T(ker A), and T(ker A) = f(Z^p) + B'^p contains B'^p.

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
from itertools import accumulate, pairwise
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)


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


def _eliminate(rows: list[dict[int, int]], n: int) -> list[int]:
    """Gauss-Jordan elimination of sparse integer rows with ``n`` columns.

    ``rows`` is reordered and its entries replaced in place; the row dicts it held are
    never changed, so it may list the rows of a :class:`Matrix`.

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
    """Immutable matrix over Q: sparse integer rows over one common denominator.

    Row ``i`` is the dict ``{column: numerator}`` of its nonzero entries, and entry
    ``(i, j)`` is ``numerator / den``.  The form is canonical: no zero numerators,
    ``den > 0``, and ``den`` coprime to the numerators taken together; so equal matrices
    have equal fields, and equality and hashing are by value.  A stored row dict is never
    changed after construction, so results may share rows with their operands.
    """

    __slots__ = ("rows", "cols", "_num", "_den", "_hash")

    def __init__(self, rows: int, cols: int, num: Sequence[dict[int, int]], den: int = 1):
        """Internal: ``num`` holds ``rows`` dicts with no zero values, over ``den != 0``.

        Outside this module build matrices with the constructors below.
        """
        if den < 0:
            num = [{j: -x for j, x in r.items()} for r in num]
            den = -den
        g = den
        for r in num:
            if g == 1:
                break
            g = gcd(g, *r.values())
        if g > 1:
            num = [{j: x // g for j, x in r.items()} for r in num]
            den //= g
        self.rows = rows
        self.cols = cols
        self._num = tuple(num)
        self._den = den
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        ratios = [[frac(x).as_integer_ratio() for x in r] for r in rows]
        if ratios:
            cols = len(ratios[0])
        elif cols is None:
            cols = 0
        if any(len(r) != cols for r in ratios):
            raise ValueError(f"bad shape: want {len(ratios)}x{cols}")
        den = lcm(*(d for r in ratios for _, d in r))
        num = [{j: n * (den // d) for j, (n, d) in enumerate(r) if n} for r in ratios]
        return Matrix(len(ratios), cols, num, den)

    @staticmethod
    def from_cols(cols: Sequence[Sequence], rows: Optional[int] = None) -> "Matrix":
        return Matrix.from_rows(cols, rows or 0).transpose()

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [{}] * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [{i: 1} for i in range(n)])

    @staticmethod
    def hstack(blocks: Sequence["Matrix"]) -> "Matrix":
        if not blocks:
            return Matrix.zeros(0, 0)
        return Matrix.block([blocks[0].rows], [b.cols for b in blocks], [((0, j), b) for j, b in enumerate(blocks)])

    @staticmethod
    def vstack(blocks: Sequence["Matrix"]) -> "Matrix":
        if not blocks:
            return Matrix.zeros(0, 0)
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("vstack: col mismatch")
        den = lcm(*(b._den for b in blocks))
        num = [r if b._den == den else {j: x * (den // b._den) for j, x in r.items()} for b in blocks for r in b._num]
        return Matrix(sum(b.rows for b in blocks), cols, num, den)

    @staticmethod
    def block_diag(blocks: Sequence["Matrix"]) -> "Matrix":
        diagonal = [((i, i), b) for i, b in enumerate(blocks)]
        return Matrix.block([b.rows for b in blocks], [b.cols for b in blocks], diagonal)

    @staticmethod
    def block(
        rows: Sequence[int],
        cols: Sequence[int],
        blocks: dict[tuple[int, int], "Matrix"] | Iterable[tuple[tuple[int, int], "Matrix"]],
    ) -> "Matrix":
        """The block matrix with block heights ``rows`` and block widths ``cols``.

        ``blocks`` maps a (block row, block column) position to its matrix, or lists
        (position, matrix) pairs; blocks listed at the same position add up.  A position
        with no block is zero, and a block of the wrong shape raises ValueError.
        """
        pairs = list(blocks.items() if isinstance(blocks, dict) else blocks)
        r_off = [0, *accumulate(rows)]
        c_off = [0, *accumulate(cols)]
        den = lcm(*(b._den for _, b in pairs))
        out: list[dict[int, int]] = [{} for _ in range(r_off[-1])]
        for (i, j), b in pairs:
            if (b.rows, b.cols) != (rows[i], cols[j]):
                raise ValueError(f"block ({i}, {j}): want {rows[i]}x{cols[j]}, got {b.rows}x{b.cols}")
            f, c0 = den // b._den, c_off[j]
            for k, brow in enumerate(b._num, r_off[i]):
                row = out[k]
                for c, x in brow.items():
                    c += c0
                    row[c] = row.get(c, 0) + x * f
        if len({pos for pos, _ in pairs}) < len(pairs):
            out = [{c: x for c, x in row.items() if x} for row in out]
        return Matrix(r_off[-1], c_off[-1], out, den)

    # -- basics -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self._den, tuple(frozenset(r.items()) for r in self._num)))
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    def __getitem__(self, rc: tuple[int, int]) -> Fraction:
        i, j = rc
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {rc} of a {self.rows}x{self.cols} matrix")
        x = self._num[i].get(j)
        return Fraction(x, self._den) if x else ZERO

    def row(self, i: int) -> Vec:
        r, d = self._num[i], self._den
        return tuple(Fraction(r[j], d) if j in r else ZERO for j in range(self.cols))

    def col(self, j: int) -> Vec:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a {self.rows}x{self.cols} matrix")
        d = self._den
        return tuple(Fraction(r[j], d) if j in r else ZERO for r in self._num)

    @property
    def data(self) -> tuple[Vec, ...]:
        """The dense rows of ``Fraction`` entries (derived on each read)."""
        return tuple(self.row(i) for i in range(self.rows))

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("add: shape mismatch")
        den = lcm(self._den, other._den)
        f, g = den // self._den, den // other._den
        out = []
        for r1, r2 in zip(self._num, other._num):
            row = {j: x * f for j, x in r1.items()}
            for j, y in r2.items():
                z = row.get(j, 0) + y * g
                if z:
                    row[j] = z
                else:
                    del row[j]
            out.append(row)
        return Matrix(self.rows, self.cols, out, den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [{j: -x for j, x in r.items()} for r in self._num], self._den)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        a = c.numerator
        return Matrix(self.rows, self.cols, [{j: x * a for j, x in r.items()} for r in self._num], self._den * c.denominator)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        b_num = other._num
        out = []
        for arow in self._num:
            acc: dict[int, int] = {}
            for k, a in arow.items():
                for j, b in b_num[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return Matrix(self.rows, other.cols, out, self._den * other._den)

    def transpose(self) -> "Matrix":
        out: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._num):
            for j, x in r.items():
                out[j][i] = x
        return Matrix(self.cols, self.rows, out, self._den)

    def take_cols(self, idx: Sequence[int]) -> "Matrix":
        pos = {j: k for k, j in enumerate(idx)}
        if len(pos) != len(idx) or any(not 0 <= j < self.cols for j in pos):
            raise IndexError(f"take_cols: want distinct columns of {self.cols}, got {list(idx)}")
        return Matrix(self.rows, len(pos), [{pos[j]: x for j, x in r.items() if j in pos} for r in self._num], self._den)

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        return Matrix(len(idx), self.cols, [self._num[i] for i in idx], self._den)

    def split_rows(self, heights: Sequence[int]) -> list["Matrix"]:
        """The consecutive row blocks of the given heights: the inverse of ``vstack``."""
        if sum(heights) != self.rows:
            raise ValueError(f"split_rows: heights {list(heights)} do not sum to {self.rows} rows")
        return [self.take_rows(range(lo, hi)) for lo, hi in pairwise(accumulate(heights, initial=0))]

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and pivot columns (exact, deterministic).

        The only elimination entry point: ``rank``, ``kernel``, ``solve``,
        ``solve_matrix`` (off its read path) and ``inverse`` all reduce through it.
        :func:`_eliminate` reduces a copy of the numerator rows once; each pivot row is
        then divided by its leading entry over the lcm of the leading entries, which
        yields the unique RREF.
        """
        num = list(self._num)
        piv = _eliminate(num, self.cols)
        den = lcm(*(num[r][c] for r, c in enumerate(piv)))
        out = [{j: x * (den // num[r][c]) for j, x in num[r].items()} for r, c in enumerate(piv)]
        out += [{}] * (self.rows - len(piv))
        return Matrix(self.rows, self.cols, out, den), tuple(piv)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Matrix":
        """Null-space basis as columns (rref free-variable convention).

        Row f of the basis, for the k-th free column f, is the unit row e_k, so the free
        rows form the identity (and ``solve_matrix`` against a kernel basis only reads).
        """
        R, piv = self.rref()
        pivset = set(piv)
        free = {f: k for k, f in enumerate(c for c in range(self.cols) if c not in pivset)}
        out: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for f, k in free.items():
            out[f] = {k: R._den}
        for r, c in enumerate(piv):
            out[c] = {free[j]: -x for j, x in R._num[r].items() if j in free}
        return Matrix(self.cols, len(free), out, R._den)

    def solve(self, b: Sequence) -> Optional[Vec]:
        """One solution of ``self @ x = b`` (free variables 0), or None."""
        b = vec(b)
        if len(b) != self.rows:
            raise ValueError("solve: length mismatch")
        x = self.solve_matrix(Matrix.from_cols([b], rows=self.rows))
        return None if x is None else x.col(0)

    def solve_matrix(self, B: "Matrix") -> Optional["Matrix"]:
        """Solve ``self @ X = B`` with free variables 0; None if any column is inconsistent.

        Raises ValueError unless B has ``self``'s height.

        Read path: if ``self`` has a unit row e_j (one entry, equal to 1) for every
        column j, it has full column rank, so X is unique if it exists, and row j of X
        is B's row at the first e_j.  X is read off so, with no elimination, and
        returned when ``self @ X == B``.

        Otherwise one ``rref`` of ``[self | B]`` serves every column of B.  Its pivots in
        the columns of ``self`` are those of ``self``'s own RREF, and a column of B is
        consistent exactly when it is zero in every row past that rank.  So all
        pivots lie in ``self``'s columns when every column is consistent, and a
        pivot in a column of B means some column is not.  Pivot variables are read
        off the reduced B entries.
        """
        if B.rows != self.rows:
            raise ValueError(f"solve_matrix: {self.rows}x{self.cols} by {B.rows}x{B.cols}")
        n = self.cols
        unit: dict[int, int] = {}
        for i, r in enumerate(self._num):
            if len(r) == 1:
                ((j, x),) = r.items()
                if x == self._den:
                    unit.setdefault(j, i)
        if len(unit) == n:
            X = B.take_rows([unit[j] for j in range(n)])
            return X if self * X == B else None
        R, piv = Matrix.hstack([self, B]).rref()
        if piv and piv[-1] >= n:
            return None
        out: list[dict[int, int]] = [{}] * n
        for r, c in enumerate(piv):
            out[c] = {j - n: x for j, x in R._num[r].items() if j >= n}
        return Matrix(n, B.cols, out, R._den)

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
        return Subspace(m.rows, R.take_rows(range(len(piv))).transpose())

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
    return Subspace(s.ambient, Matrix.identity(s.ambient).take_cols(extra))


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


@dataclass(frozen=True)
class CohomologyDegree:
    dim: int
    representatives: Matrix  # columns: kernel vectors completing the image


def _require_complex(c: CochainComplex) -> dict[int, int]:
    """Raise ValueError at the first degree where d o d != 0 (see :meth:`CochainComplex.validate`),
    else return rk d^p for each stored differential d^p; a missing degree has rank 0."""
    bad = c.validate()
    if bad:
        raise ValueError(f"not a complex: d o d != 0 at degree {bad[0]}")
    return {p: d.rank() for p, d in zip(c.degrees(), c.diffs)}


def complex_cohomology(c: CochainComplex) -> dict[int, CohomologyDegree]:
    """Per-degree cohomology with deterministic representatives, from kernels.

    Nothing in the package calls it: the tests keep it as the kernel-based reference
    for :func:`betti_numbers` and :func:`chain_map_is_quasi_iso`, and the benchmark's
    tracer wraps it by name.  Validates ``c`` as :func:`betti_numbers` does.
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

    Raises ValueError naming the first degree where d o d != 0 (checked once per complex
    object; a failing complex is checked again, and raises again, on every call).  Computes
    no kernels or representatives.
    """
    rank = _require_complex(c)
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
    zero maps.  Raises ValueError if f fails to commute with differentials, or if either
    complex has d o d != 0.

    Every entry is a difference of ranks, with no kernel, representative or solve.  The
    induced map has rank dim (f(Z^p) + B'^p) / B'^p, and f(Z^p) + B'^p = T(ker A) for the
    mapping-cone differential [A; T] = [[d^p, 0], [f^p, d'^{p-1}]], whose rank exceeds
    rk A = rk d^p by dim T(ker A).
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
    rk, rkp = _require_complex(c), _require_complex(cp)
    degrees: dict[int, tuple[int, int, int]] = {}
    ok = True
    for p in range(lo, hi + 1):
        d1 = c.dim(p) - rk.get(p, 0) - rk.get(p - 1, 0)
        d2 = cp.dim(p) - rkp.get(p, 0) - rkp.get(p - 1, 0)
        rank = 0
        if d1 and d2:
            cone = Matrix.block(
                [c.dim(p + 1), cp.dim(p)],
                [c.dim(p), cp.dim(p - 1)],
                {(0, 0): c.differential(p), (1, 0): fmat(p), (1, 1): cp.differential(p - 1)},
            )
            rank = cone.rank() - rk.get(p, 0) - rkp.get(p - 1, 0)
        if not (d1 == d2 == rank):
            ok = False
        degrees[p] = (d1, d2, rank)
    return QuasiIsoCertificate(ok=ok, degrees=degrees)


def two_term_complex(anchor: Matrix) -> CochainComplex:
    """The complex (C -> E) in degrees 0, 1 for a core anchor C -> E."""
    return CochainComplex(0, 1, (anchor.cols, anchor.rows), (anchor,))
