"""Exact rational linear algebra substrate.

Sparse matrices over Q, subspaces with canonical bases, and finite cochain complexes
with exact cohomology.  Every higher-level check in the package reduces to operations
here.

A :class:`Matrix` stores each row as a ``{column: int}`` dict of its nonzero
numerators, over one positive denominator per matrix, in a canonical form; products,
sums, stacking, block assembly and slicing all work on these rows, and ``Fraction``
entries appear only when a caller reads them (``m[i, j]``, ``row``, ``col``, ``data``).
No module outside this one sees the storage, except ``cohomology``, which assembles its
cochain operators on numerator rows: :func:`_times` and :func:`_scaled` build face images,
:meth:`UnitRead.rows` reads Fib coordinates, and :func:`_place`, the helper
:meth:`Matrix.block` is built on, places the blocks.

All elimination goes through one row-wise echelon routine, :func:`_echelon`: each row
in turn is reduced against the rows kept so far, which are keyed by their leading column,
and each changed row stays a gcd-normalised integer vector.  ``rank`` counts the kept
rows and does nothing more; ``Matrix.rref``, which ``kernel``, ``solve``, ``solve_matrix``
and ``inverse`` use, also back-substitutes over them.  ``solve_matrix`` reduces
``[A | B]`` once for all columns of B; on a consistent system every pivot lies in A's
columns.  When A's rows include the unit row e_j for every column j, as every ``kernel``
basis and identity do, ``solve_matrix`` eliminates nothing (:class:`UnitRead`): such an A
has full column rank, so a solution is unique if it exists, and it can only be B's rows at
those unit rows.  A X equals B on the rows it was read from by construction, so only A's
other rows are multiplied and compared with B's to decide whether it is one; an identity
has no other rows, so solving against it only reads B.

The VB structure checks use :func:`fibered_product`, which glues a block-bidiagonal kernel
basis from smaller ones, and :func:`products_equal`, which compares products with no matrix built.

Cohomology is counted from ranks, not constructed: dim H^p = dim C^p - rk d^p - rk d^{p-1},
and a chain map f induces on H^p a map of rank rk [A; T] - rk A - rk d'^{p-1}, where [A; T]
= [[d^p, 0], [f^p, d'^{p-1}]] is the mapping-cone differential.  It holds because
rk [A; T] - rk A = dim T(ker A), and T(ker A) = f(Z^p) + B'^p contains B'^p.

Two conventions make all downstream output bit-reproducible:

* the reduced row-echelon form of a matrix is unique, so the order in which rows are
  eliminated cannot reach any output; all derived bases (kernels, solutions,
  complements) follow the rref free/pivot column convention, and solutions set every
  free variable to 0;
* :class:`Subspace` always stores the unique reduced column-echelon basis,
  so equal subspaces compare equal field-by-field.

No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

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


def _reduce(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """``row * a - prow * b`` with the least integers a, b that clear column ``c``, divided
    by the gcd of its entries, so a primitive integer vector.  Neither argument changes."""
    pval, v = prow[c], row[c]
    g = gcd(pval, v)
    a, b = pval // g, v // g
    out = {j: x * a for j, x in row.items()}
    for j, y in prow.items():
        z = out.get(j, 0) - y * b
        if z:
            out[j] = z
        else:
            del out[j]
    g = gcd(*out.values())
    if g > 1:
        out = {j: x // g for j, x in out.items()}
    return out


def _echelon(rows: Sequence[dict[int, int]]) -> dict[int, dict[int, int]]:
    """A row-echelon form of the sparse integer ``rows``, keyed by leading column.

    Each row in turn is reduced (:func:`_reduce`) against the kept row with its leading
    column, until its leading column is new, when it is kept, or it is empty, when it is
    dropped.  So the kept rows span the rows' span, their leading columns are distinct,
    and their number is the rank.  The row dicts given are never changed, so they may be
    the rows of a :class:`Matrix`.
    """
    kept: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            prow = kept.get(c)
            if prow is None:
                kept[c] = row
                break
            row = _reduce(row, prow, c)
    return kept


def _times(a_num: Sequence[dict[int, int]], b_num: Sequence[dict[int, int]]) -> list[dict[int, int]]:
    """The numerator rows of A B from those of A and B, with no zero entries.  A row may be one
    of B's own row dicts, so the result must not be changed in place."""
    out = []
    for arow in a_num:
        if len(arow) == 1:
            # one entry a at column k: the row is a times B's row k, with no zero to filter
            ((k, a),) = arow.items()
            brow = b_num[k]
            out.append(brow if a == 1 else {j: a * b for j, b in brow.items()})
            continue
        acc: dict[int, int] = {}
        for k, a in arow.items():
            for j, b in b_num[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append({j: x for j, x in acc.items() if x})
    return out


class Matrix:
    """Immutable matrix over Q: sparse integer rows over one common denominator.

    Row ``i`` is the dict ``{column: numerator}`` of its nonzero entries, and entry
    ``(i, j)`` is ``numerator / den``.  The form is canonical: no zero numerators,
    ``den > 0``, and ``den`` coprime to the numerators taken together; so equal matrices
    have equal fields, and equality and hashing are by value.  A stored row dict is never
    changed after construction, so results may share rows with their operands.

    ``__init__`` reaches the canonical form with a gcd pass over every row.  A result that
    is canonical by construction skips that pass through the private :meth:`_canonical`,
    whose caller must guarantee the invariant: ``den > 0``, no zero numerators, and ``den``
    coprime to the numerators.  Each such caller says in one line why it holds.
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

    @classmethod
    def _canonical(cls, rows: int, cols: int, num: Sequence[dict[int, int]], den: int = 1) -> "Matrix":
        """Internal: the matrix of ``num`` over ``den``, which must already be in canonical form."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._num = tuple(num)
        m._den = den
        m._hash = None
        return m

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        return Matrix.from_ratios([[frac(x).as_integer_ratio() for x in r] for r in rows], cols)

    @staticmethod
    def from_ratios(ratios: Sequence[Sequence[tuple[int, int]]], cols: Optional[int] = None) -> "Matrix":
        """The matrix with entry ``n / d`` at (i, j), where ``(n, d) = ratios[i][j]`` and ``d != 0``.

        The pairs need not be in lowest terms: the canonical form is reached in the
        constructor.  The width is the length of the first row, or ``cols`` when there is
        no row; a row of another length raises ValueError.
        """
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
        # canonical: denominator 1
        return Matrix._canonical(rows, cols, [{}] * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        # canonical: denominator 1
        return Matrix._canonical(n, n, [{i: 1} for i in range(n)])

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
        # canonical: for a prime p dividing den, the block whose denominator has p's full
        # power has a numerator prime to p, and its factor den // b._den is prime to p
        return Matrix._canonical(sum(b.rows for b in blocks), cols, num, den)

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
        r_off = [0, *accumulate(rows)]
        c_off = [0, *accumulate(cols)]
        placed = []
        for (i, j), b in blocks.items() if isinstance(blocks, dict) else blocks:
            if (b.rows, b.cols) != (rows[i], cols[j]):
                raise ValueError(f"block ({i}, {j}): want {rows[i]}x{cols[j]}, got {b.rows}x{b.cols}")
            placed.append((r_off[i], c_off[j], 1, b._num, b._den))
        return _place(r_off[-1], c_off[-1], placed, canonical=True)

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
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} of a {self.rows}x{self.cols} matrix")
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
        # canonical: the same numerators up to sign over the same denominator
        return Matrix._canonical(self.rows, self.cols, [{j: -x for j, x in r.items()} for r in self._num], self._den)

    def scale(self, c) -> "Matrix":
        if isinstance(c, (int, Fraction)) and c in (1, -1):
            return self if c == 1 else -self
        c = frac(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        a = c.numerator
        return Matrix(self.rows, self.cols, [{j: x * a for j, x in r.items()} for r in self._num], self._den * c.denominator)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Matrix(self.rows, other.cols, _times(self._num, other._num), self._den * other._den)

    def transpose(self) -> "Matrix":
        out: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._num):
            for j, x in r.items():
                out[j][i] = x
        # canonical: the same numerators over the same denominator
        return Matrix._canonical(self.cols, self.rows, out, self._den)

    def take_cols(self, idx: Sequence[int]) -> "Matrix":
        pos = {j: k for k, j in enumerate(idx)}
        if len(pos) != len(idx) or any(not 0 <= j < self.cols for j in pos):
            raise IndexError(f"take_cols: want distinct columns of {self.cols}, got {list(idx)}")
        return Matrix(self.rows, len(pos), [{pos[j]: x for j, x in r.items() if j in pos} for r in self._num], self._den)

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        """The rows at ``idx``, in that order; a row may be taken more than once."""
        if any(not 0 <= i < self.rows for i in idx):
            raise IndexError(f"take_rows: want rows of a {self.rows}x{self.cols} matrix, got {list(idx)}")
        return self._of_rows([self._num[i] for i in idx])

    def split_rows(self, heights: Sequence[int]) -> list["Matrix"]:
        """The consecutive row blocks of the given heights: the inverse of ``vstack``."""
        if sum(heights) != self.rows:
            raise ValueError(f"split_rows: heights {list(heights)} do not sum to {self.rows} rows")
        return [self._of_rows(self._num[lo:hi]) for lo, hi in pairwise(accumulate(heights, initial=0))]

    def _of_rows(self, num: Sequence[dict[int, int]]) -> "Matrix":
        """The matrix of some of this matrix's numerator rows, over its denominator."""
        if self._den == 1:
            # canonical: denominator 1
            return Matrix._canonical(len(num), self.cols, num)
        return Matrix(len(num), self.cols, num, self._den)

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and pivot columns (exact, deterministic).

        :func:`_echelon` gives a row-echelon form; its leading columns are the pivot
        columns, and each kept row, from the last leading column down, is then reduced
        against the later kept rows, which clears every other pivot column.  Each row is
        then divided by its leading entry over the lcm of the leading entries.  The
        reduced row-echelon form of a matrix is unique, so the order in which rows were
        eliminated cannot reach the result.
        """
        kept = _echelon(self._num)
        piv = sorted(kept)
        for c in reversed(piv):
            row = kept[c]
            for j in [j for j in row if j != c and j in kept]:
                row = _reduce(row, kept[j], j)
            kept[c] = row
        den = lcm(*(kept[c][c] for c in piv))
        out = [{j: x * (den // kept[c][c]) for j, x in kept[c].items()} for c in piv]
        out += [{}] * (self.rows - len(piv))
        return Matrix(self.rows, self.cols, out, den), tuple(piv)

    def rank(self) -> int:
        """The number of rows :func:`_echelon` keeps, with no back-substitution; a matrix
        taller than wide is ranked through its transpose, which has fewer rows to reduce."""
        rows = self.transpose()._num if self.rows > self.cols else self._num
        return len(_echelon(rows))

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
        column j, X is B's rows at those unit rows (:meth:`UnitRead.rows`), with no
        elimination; against an identity that is B itself.

        Otherwise one ``rref`` of ``[self | B]`` serves every column of B.  Its pivots in
        the columns of ``self`` are those of ``self``'s own RREF, and a column of B is
        consistent exactly when it is zero in every row past that rank.  So all
        pivots lie in ``self``'s columns when every column is consistent, and a
        pivot in a column of B means some column is not.  Pivot variables are read
        off the reduced B entries.
        """
        if B.rows != self.rows:
            raise ValueError(f"solve_matrix: {self.rows}x{self.cols} by {B.rows}x{B.cols}")
        read = UnitRead.of(self)
        if read is not None:
            x = read.rows(B._num, B._den)
            return None if x is None else Matrix(self.cols, B.cols, x, B._den)
        n = self.cols
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


# -- assembly on numerator rows ---------------------------------------------------

#: A placed block (row, column, sign, numerator rows, denominator): the matrix ``sign * num / den``
#: with its top left entry at (row, column) of the matrix being assembled.
Placed = tuple[int, int, int, Sequence[dict[int, int]], int]


def _place(rows: int, cols: int, blocks: Iterable[Placed], canonical: bool) -> Matrix:
    """The ``rows`` x ``cols`` sum of the placed ``blocks``, with one pass over their entries.

    Each block is brought to the lcm L of the denominators, so every entry is written as one
    integer over L; blocks that overlap add up.  ``canonical`` says that every block's
    numerators and denominator are in canonical form (as a :class:`Matrix`'s are).

    The result is canonical with no gcd pass when ``canonical`` holds and no entry was
    written twice (the entries written equal the entries kept).  L > 0.  Each kept numerator
    is sign * x * (L // den) with x != 0, so none is zero.  For a prime p dividing L, the
    block whose denominator holds p's full power in L has a numerator prime to p, as it is
    canonical, and its factor L // den is prime to p; that entry is kept as it was written.
    Otherwise zeros are dropped where entries met, and the constructor's gcd pass runs.
    """
    blocks = list(blocks)
    den = lcm(*{b[4] for b in blocks})
    out: list[dict[int, int]] = [{} for _ in range(rows)]
    written = 0
    for r0, c0, sign, num, bden in blocks:
        f = sign * (den // bden)
        for brow in num:
            row = out[r0]
            r0 += 1
            for c, x in brow.items():
                c += c0
                row[c] = row.get(c, 0) + x * f
            written += len(brow)
    if written > sum(map(len, out)):
        out = [{c: x for c, x in row.items() if x} for row in out]
    elif canonical:
        return Matrix._canonical(rows, cols, out, den)
    return Matrix(rows, cols, out, den)


class UnitRead(NamedTuple):
    """Solving A X = B by reading, for an A with a unit row e_j (one entry, equal to 1) for
    every column j, as every ``kernel`` basis and identity has.

    Such an A has full column rank, so X is unique if it exists, and row j of X is B's row
    at ``read[j]``, the first e_j.  A X equals B on those rows by construction, so X solves
    the system exactly when A X equals B on the ``rest`` of A's rows, repeated unit rows
    among them; those are the only rows multiplied and compared.  The plan is made once per
    A and serves every B.
    """

    read: list[int]
    rest: list[int]
    rest_num: list[dict[int, int]]  # A's numerators on those rows, over ``den``
    den: int

    @staticmethod
    def of(a: Matrix) -> Optional["UnitRead"]:
        """The read plan of ``a``, or None if some column has no unit row."""
        unit: dict[int, int] = {}
        for i, r in enumerate(a._num):
            if len(r) == 1:
                ((j, x),) = r.items()
                if x == a._den:
                    unit.setdefault(j, i)
        if len(unit) != a.cols:
            return None
        read = [unit[j] for j in range(a.cols)]
        rest = sorted(set(range(a.rows)).difference(read))
        return UnitRead(read, rest, [a._num[i] for i in rest], a._den)

    def rows(self, num: Sequence[dict[int, int]], den: int) -> Optional[list[dict[int, int]]]:
        """X's numerator rows over ``den`` for B = ``num`` / ``den``, or None if A X != B."""
        x = [num[i] for i in self.read]
        if self.rest and _times(self.rest_num, x) != list(_scaled([num[i] for i in self.rest], self.den)):
            return None
        return x


# -- glued kernels and stacked products ---------------------------------------


def fibered_product(first: Sequence[Matrix], rest: Sequence[Matrix]) -> Optional[tuple[Matrix, ...]]:
    """The row blocks of the rref kernel basis of M = [[X, -Y, 0], [0, N]], glued, or None.

    ``first`` is (A, B), the row blocks of the rref kernel basis of [X | -Y], and ``rest`` those,
    R_0, R_1, ..., of N, whose first block column is Y's.  If B = [0 | I], M's basis is
    (A_free | A_B R_0, 0 | R_0, 0 | R_1, ...), A = [A_free | A_B] cut like B; else None.  B = [0 | I]
    means ker [X | -Y] maps onto Y's coordinates, so Y's columns lie in X's span and none is a pivot
    (as when X is surjective).  So M's pivots are those of its block rows, and its free columns
    X's free columns, then N's.  The glued vectors lie in ker M ([A_B; I] R_0 in ker [X | -Y], R in
    ker N) and carry the unit pattern on those columns (A_B is zero on X's free columns), and a
    kernel vector is fixed by its free coordinates.
    """
    a, b = first
    n, k = b.rows, b.cols - b.rows
    if b._den != 1 or list(b._num) != [{k + i: 1} for i in range(n)]:
        return None
    r0, f = rest[0], rest[0]._den
    if r0.rows != n:
        raise ValueError(f"fibered_product: {n} rows in the shared block, {r0.rows} in the next")
    head = [{j: x * f for j, x in r.items() if j < k} for r in a._num]  # A_free, over A_B R_0's denominator
    for row, glued in zip(head, _times([{j - k: x for j, x in r.items() if j >= k} for r in a._num], r0._num)):
        row.update((k + j, x) for j, x in glued.items())
    out = [Matrix(a.rows, k + r0.cols, head, a._den * f)]
    for r in rest:
        # canonical: the numerators and denominator of a canonical matrix, moved k columns right
        out.append(Matrix._canonical(r.rows, k + r.cols, [{k + j: x for j, x in w.items()} for w in r._num], r._den))
    return tuple(out)


def _scaled(num: Sequence[dict[int, int]], f: int) -> Sequence[dict[int, int]]:
    return num if f == 1 else [{j: x * f for j, x in r.items()} for r in num]


def _evaluate(term, memo: Optional[dict]) -> tuple[Sequence[dict[int, int]], int, int]:
    """A term as (numerator rows, width, denominator), with no zero entries, not in lowest terms."""
    if isinstance(term, Matrix):
        return term._num, term.cols, term._den
    if memo is not None and id(term) in memo:
        return memo[id(term)][1]
    m = term[0]
    num, width, den = _evaluate(term[1], memo) if len(term) > 1 else ((), None, 1)
    for part in term[2:]:
        pnum, pwidth, pden = _evaluate(part, memo)
        if pwidth != width:
            raise ValueError(f"products_equal: parts of widths {width} and {pwidth}")
        common = den if pden == den else lcm(den, pden)
        num, den = [*_scaled(num, common // den), *_scaled(pnum, common // pden)], common
    if width is None or len(num) != m.cols:
        raise ValueError(f"products_equal: parts of {len(num)} rows under a {m.rows}x{m.cols} matrix")
    value = _times(m._num, num), width, m._den * den
    if memo is not None:
        memo[id(term)] = term, value  # kept with the term, whose id is then not reused
    return value


def products_equal(left, right, memo: Optional[dict] = None) -> bool:
    """Whether two products of stacked blocks are equal, as ``==`` on the built matrices says.

    A term is a :class:`Matrix` or a tuple ``(M, part, ...)``, meaning ``M * Matrix.vstack(parts)``;
    sides are evaluated on integer numerators, and their denominators cross-multiplied at the end.
    Parts that do not stack under M raise ValueError.  A ``memo`` dict passed to several calls
    keeps product terms' values by identity, so a term they share is evaluated once.
    """
    lnum, lcols, ld = _evaluate(left, memo)
    rnum, rcols, rd = _evaluate(right, memo)
    if len(lnum) != len(rnum) or lcols != rcols:
        return False
    g = gcd(ld, rd)
    return list(_scaled(lnum, rd // g)) == list(_scaled(rnum, ld // g))


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
    compose to zero with its successor.  A ``truncated`` complex is cut off at p_max:
    d^{p_max} is unknown, so its cohomology is known only in degrees p_min .. p_max - 1.
    """

    p_min: int
    p_max: int
    dims: tuple[int, ...]
    diffs: tuple[Matrix, ...]
    truncated: bool = False

    def __post_init__(self):
        n = self.p_max - self.p_min + 1
        if len(self.dims) != n or len(self.diffs) != n - 1:
            raise ValueError("complex: length mismatch")
        for i, d in enumerate(self.diffs):
            if d.cols != self.dims[i] or d.rows != self.dims[i + 1]:
                raise ValueError(f"complex: differential {self.p_min + i} has wrong shape")

    def degrees(self) -> range:
        return range(self.p_min, self.p_max + 1)

    def cohomology_degrees(self) -> range:
        """The degrees whose cohomology the complex determines."""
        return range(self.p_min, self.p_max if self.truncated else self.p_max + 1)

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
    """Cohomology in ``c.cohomology_degrees()`` with deterministic representatives, from kernels.

    Nothing in the package calls it: the tests keep it as the kernel-based reference
    for :func:`betti_numbers` and :func:`chain_map_is_quasi_iso`, and the benchmark's
    tracer wraps it by name.  Validates ``c`` as :func:`betti_numbers` does.
    """
    _require_complex(c)
    out: dict[int, CohomologyDegree] = {}
    for p in c.cohomology_degrees():
        ker = c.differential(p).kernel()
        im = c.differential(p - 1)
        aug = Matrix.hstack([im, ker])
        _, piv = aug.rref()
        reps_idx = [j - im.cols for j in piv if j >= im.cols]
        reps = ker.take_cols(reps_idx)
        out[p] = CohomologyDegree(dim=reps.cols, representatives=reps)
    return out


def betti_numbers(c: CochainComplex) -> dict[int, int]:
    """dim H^p = dim C^p - rk d^p - rk d^{p-1} for p in ``c.cohomology_degrees()``, from one
    ``rank`` per differential.

    Raises ValueError naming the first degree where d o d != 0 (checked once per complex
    object; a failing complex is checked again, and raises again, on every call).  Computes
    no kernels or representatives.
    """
    rank = _require_complex(c)
    return {p: c.dim(p) - rank.get(p, 0) - rank.get(p - 1, 0) for p in c.cohomology_degrees()}


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
    complex has d o d != 0.  Degrees from the p_max of a truncated complex up are not
    reported: their cohomology is unknown.  Commutation is checked in every degree.

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
    for p in range(lo, min([hi + 1] + [x.p_max for x in (c, cp) if x.truncated])):
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
