"""Exact linear algebra: frozen examples, properties, and the quasi-iso oracle."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import vbgroupoids.linalg as linalg
from vbgroupoids.linalg import (
    CochainComplex,
    Matrix,
    Subspace,
    betti_numbers,
    chain_map_is_quasi_iso,
    complement_space,
    complex_cohomology,
    image_space,
    intersection_spaces,
    kernel_space,
)

F = Fraction


def M(rows):
    return Matrix.from_rows(rows)


# -- rref ---------------------------------------------------------------------


def test_rref_identity():
    r, piv = Matrix.identity(2).rref()
    assert r == Matrix.identity(2)
    assert piv == (0, 1)


def test_rref_rank_one():
    r, piv = M([[1, 2], [2, 4]]).rref()
    assert r == M([[1, 2], [0, 0]])
    assert piv == (0,)


def test_rref_fractional():
    # hand Gaussian elimination: rows are parallel, leading entry normalizes
    r, piv = M([["1/2", "1/3"], ["1/4", "1/6"]]).rref()
    assert r == M([[1, "2/3"], [0, 0]])
    assert piv == (0,)


def test_rref_rejects_floats():
    with pytest.raises(TypeError):
        Matrix.from_rows([[0.5]])


# -- solve ---------------------------------------------------------------------


def test_solve_identity():
    assert Matrix.identity(2).solve([3, 5]) == (F(3), F(5))


def test_solve_pivot_convention():
    assert M([[1, 1]]).solve([2]) == (F(2), F(0))


def test_solve_inconsistent():
    assert M([[1], [1]]).solve([1, 2]) is None


# -- parity with the dense, per-column kernel ------------------------------------------
#
# The oracle is the dense elimination the sparse kernel replaced: integer-scaled list
# rows, every cell visited, and ``solve_matrix`` as one ``rref`` of ``[A | b]`` per column.


def _dense_rref(a):
    m, n = a.rows, a.cols
    work = []
    for r in a.data:
        d = 1
        for x in r:
            d = lcm(d, x.denominator)
        work.append([int(x * d) for x in r])
    piv = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if work[i][c]), -1)
        if p < 0:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        pval = prow[c]
        for i in range(m):
            v = work[i][c]
            if i == r or not v:
                continue
            row = work[i]
            for j in range(n):
                row[j] = row[j] * pval - prow[j] * v
            g = 0
            for x in row:
                g = gcd(g, abs(x))
            if g > 1:
                work[i] = [x // g for x in row]
        piv.append(c)
        r += 1
        if r == m:
            break
    data = [tuple(F(x, work[i][piv[i]]) for x in work[i]) for i in range(len(piv))]
    data += [(F(0),) * n] * (m - len(piv))
    return Matrix.from_rows(data, cols=n), tuple(piv)


def _old_eliminate(rows: list[dict[int, int]], n: int) -> list[int]:
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


def _old_rref(a):
    """``Matrix.rref`` as it was over :func:`_old_eliminate`, the column-wise sparse kernel
    the row-wise echelon replaced: a second oracle beside ``_dense_rref``."""
    num = list(a._num)
    piv = _old_eliminate(num, a.cols)
    den = lcm(*(num[r][c] for r, c in enumerate(piv)))
    out = [{j: x * (den // num[r][c]) for j, x in num[r].items()} for r, c in enumerate(piv)]
    out += [{}] * (a.rows - len(piv))
    return Matrix(a.rows, a.cols, out, den), tuple(piv)


def _dense_kernel(a, rref=_dense_rref):
    R, piv = rref(a)
    cols = []
    for f in (c for c in range(a.cols) if c not in piv):
        v = [F(0)] * a.cols
        v[f] = F(1)
        for r, c in enumerate(piv):
            v[c] = -R.data[r][f]
        cols.append(v)
    return Matrix.from_cols(cols, rows=a.cols)


def _dense_solve(a, b, rref=_dense_rref):
    R, piv = rref(Matrix.hstack([a, Matrix.from_cols([b], rows=a.rows)]))
    if piv and piv[-1] == a.cols:
        return None
    x = [F(0)] * a.cols
    for r, c in enumerate(piv):
        x[c] = R.data[r][a.cols]
    return tuple(x)


def _dense_solve_matrix(a, b, rref=_dense_rref):
    cols = []
    for j in range(b.cols):
        x = _dense_solve(a, b.col(j), rref)
        if x is None:
            return None
        cols.append(x)
    return Matrix.from_cols(cols, rows=a.cols)


def _dense_inverse(a):
    n = a.rows
    R, piv = _dense_rref(Matrix.hstack([a, Matrix.identity(n)]))
    if piv[:n] != tuple(range(n)):
        return None
    return R.take_cols(range(n, 2 * n))


@st.composite
def _grids(draw, rows, cols):
    """Random dense ``rows`` x ``cols`` lists of Fractions with a drawn zero share and denominator range."""
    zeros = draw(st.integers(0, 4))  # P(entry == 0) >= zeros / (zeros + 1)
    den = draw(st.sampled_from([1, 2, 6]))
    entry = st.one_of(
        *[st.just(F(0))] * zeros, st.builds(F, st.integers(-4, 4), st.integers(1, den))
    )
    return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]


@st.composite
def _matrices(draw, rows=None, cols=None):
    """Random rectangular matrices (see ``_grids``)."""
    m = draw(st.integers(0, 8)) if rows is None else rows
    n = draw(st.integers(0, 8)) if cols is None else cols
    return Matrix.from_rows(draw(_grids(m, n)), cols=n)


@st.composite
def _sparse_shapes(draw):
    """Tall or wide matrices up to 40 x 12 and 12 x 40, mostly zeros, with rows scaled by a
    common factor, rows zeroed and rows repeated."""
    long, short = draw(st.integers(0, 40)), draw(st.integers(0, 12))
    m, n = (long, short) if draw(st.booleans()) else (short, long)
    zeros = draw(st.integers(2, 12))  # P(entry == 0) >= zeros / (zeros + 1)
    den = draw(st.sampled_from([1, 2, 6]))
    entry = st.one_of(*[st.just(F(0))] * zeros, st.builds(F, st.integers(-4, 4), st.integers(1, den)))
    grid = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 6)) if m else 0):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        k = draw(st.sampled_from([F(0), F(1), F(2), F(-3), F(6), F(4, 3)]))
        grid[i] = [k * x for x in grid[j]]
    return Matrix.from_rows(grid, cols=n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_echelon_kernel_matches_both_oracles_on_sparse_shapes(data):
    a = data.draw(_sparse_shapes())
    R, piv = _dense_rref(a)
    assert _old_rref(a) == (R, piv)
    assert a.rref() == (R, piv)
    assert a.rank() == len(piv)
    assert a.kernel() == _dense_kernel(a) == _dense_kernel(a, _old_rref)
    k = data.draw(st.integers(0, 3))
    b = data.draw(_matrices(rows=a.rows, cols=k))
    if data.draw(st.booleans()):
        b = a * data.draw(_matrices(rows=a.cols, cols=k))
    x = a.solve_matrix(b)
    assert x == _dense_solve_matrix(a, b) == _dense_solve_matrix(a, b, _old_rref)
    if x is not None:
        assert a * x == b


@settings(max_examples=50, deadline=None)
@given(_sparse_shapes())
def test_echelon_keeps_given_rows_or_primitive_ones(a):
    """Each kept row is a given row, or a primitive integer vector; no given row changes."""
    rows = a._num
    before = [dict(r) for r in rows]
    kept = linalg._echelon(rows)
    assert len(kept) == a.rank()
    for c, row in kept.items():
        assert min(row) == c
        assert any(row is r for r in rows) or gcd(*row.values()) == 1
    assert list(rows) == before


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_kernel_matches_dense(data):
    a = data.draw(_matrices())
    R, piv = _dense_rref(a)
    assert a.rref() == (R, piv)
    assert a.rank() == len(piv)
    assert a.kernel() == _dense_kernel(a)
    if a.rows == a.cols:
        inv = _dense_inverse(a)
        if inv is None:
            with pytest.raises(ValueError, match="singular"):
                a.inverse()
        else:
            assert a.inverse() == inv
    # right-hand sides: random (often inconsistent), in the image, or both side by side
    k = data.draw(st.integers(0, 4))
    b = data.draw(_matrices(rows=a.rows, cols=k))
    if data.draw(st.booleans()):
        image = a * data.draw(_matrices(rows=a.cols, cols=k))
        b = Matrix.hstack([image, b]) if data.draw(st.booleans()) else image
    x = _dense_solve_matrix(a, b)
    assert a.solve_matrix(b) == x
    if x is not None:
        assert a * x == b
    for j in range(b.cols):
        assert a.solve(b.col(j)) == _dense_solve(a, b.col(j))


@pytest.mark.parametrize("m,n,k", [(0, 0, 0), (0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 2, 0)])
def test_solve_matrix_empty_shapes(m, n, k):
    a = Matrix.from_rows([[i + j for j in range(n)] for i in range(m)], cols=n)
    b = Matrix.from_rows([[1] * k for _ in range(m)], cols=k)
    x = a.solve_matrix(b)
    assert x == _dense_solve_matrix(a, b)
    if m and k and not n:
        assert x is None
    else:
        assert (x.rows, x.cols) == (n, k)


@pytest.mark.parametrize("a", [Matrix.identity(2), M([[1, 1], [2, 3]])], ids=["read", "eliminate"])
def test_solve_matrix_rejects_wrong_height(a):
    with pytest.raises(ValueError, match="2x2 by 3x3"):
        a.solve_matrix(Matrix.identity(3))


# -- the read path of solve_matrix against the elimination it bypasses ------------------
#
# A matrix whose rows include e_j for every column j has full column rank, and
# ``solve_matrix`` reads X off B's rows at those unit rows instead of eliminating.


def _has_unit_rows(a: Matrix) -> bool:
    unit_rows = set(a.data)
    return all(tuple(F(int(i == j)) for i in range(a.cols)) in unit_rows for j in range(a.cols))


@st.composite
def _unit_row_bases(draw):
    """Matrices holding a unit row for every column: kernels, identities, a row-permuted
    identity among other rows (some of them near misses: c e_j with c != 1, or e_j plus
    more entries), and zero-column bases."""
    kind = draw(st.sampled_from(["kernel", "embedded", "identity", "no-columns"]))
    if kind == "kernel":
        return draw(_matrices()).kernel()
    if kind == "identity":
        return Matrix.identity(draw(st.integers(0, 6)))
    if kind == "no-columns":
        return Matrix.zeros(draw(st.integers(0, 6)), 0)
    n = draw(st.integers(1, 5))
    unit = [[F(int(i == j)) for i in range(n)] for j in range(n)]
    fillers = []
    for _ in range(draw(st.integers(0, 5))):
        j, row = draw(st.integers(0, n - 1)), draw(_grids(1, n))[0]
        shape = draw(st.sampled_from(["random", "scaled", "unit-plus"]))
        if shape == "scaled":
            row = [draw(st.sampled_from([F(-1), F(2), F(1, 2)])) * x for x in unit[j]]
        elif shape == "unit-plus":
            row[j] = F(1)
        fillers.append(row)
    rows = draw(st.permutations(unit + fillers))
    return Matrix.from_rows(rows, cols=n)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_matrix_read_path_matches_elimination(data):
    a = data.draw(_unit_row_bases())
    assert _has_unit_rows(a)
    k = data.draw(st.integers(0, 4))
    b = a * data.draw(_matrices(rows=a.cols, cols=k))
    left_kernel = a.transpose().kernel()
    if k and left_kernel.cols and data.draw(st.booleans()):
        # w.w > 0 and w is orthogonal to the image of a, so adding w leaves the span
        j = data.draw(st.integers(0, k - 1))
        w = left_kernel.take_cols([data.draw(st.integers(0, left_kernel.cols - 1))])
        b = b + w * Matrix.from_rows([[int(c == j) for c in range(k)]], cols=k)
    x = a.solve_matrix(b)
    assert x == _dense_solve_matrix(a, b)
    if x is not None:
        assert a * x == b


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solve_matrix_read_path_checks_repeated_unit_rows(data):
    # X is read at the first e_j; a second e_j is among the rows the product is checked on
    n = data.draw(st.integers(1, 4))
    j = data.draw(st.integers(0, n - 1))
    rows = [[int(i == c) for c in range(n)] for i in range(n)] + [[int(j == c) for c in range(n)]]
    a = Matrix.from_rows(data.draw(st.permutations(rows)), cols=n)
    k = data.draw(st.integers(1, 3))
    b = a * data.draw(_matrices(rows=n, cols=k))
    x = a.solve_matrix(b)
    assert x is not None and x == _dense_solve_matrix(a, b)
    e_j = tuple(F(int(j == c)) for c in range(n))
    later = [i for i, r in enumerate(a.data) if r == e_j][1]
    # B changed in one column at the later copy of e_j only: no X fits both copies
    change = [[F(0)] * k for _ in range(a.rows)]
    change[later][data.draw(st.integers(0, k - 1))] = data.draw(st.sampled_from([F(1), F(-1, 2), F(3)]))
    bad = b + Matrix.from_rows(change, cols=k)
    assert a.solve_matrix(bad) is None
    assert _dense_solve_matrix(a, bad) is None


def _count_eliminations(monkeypatch) -> list:
    """Record the row count of every elimination from now on.  ``rank``, ``rref`` and so
    every caller of either reduce through ``_echelon``, so every route is counted."""
    calls = []
    real = linalg._echelon

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "_echelon", counting)
    return calls


def test_solve_matrix_against_unit_rows_runs_no_elimination(monkeypatch):
    basis = M([[1, 2, 0, -1], [0, 1, 1, 3]]).kernel()
    b = basis * M([[1, "1/2", 0], [-3, 0, 2]])
    w = basis.transpose().kernel().take_cols([0])
    near_misses = M([[1, 1], [0, 1], [2, 0]])  # e_0 + e_1 and 2 e_0 are not unit rows
    calls = _count_eliminations(monkeypatch)
    assert basis.solve_matrix(b) == M([[1, "1/2", 0], [-3, 0, 2]])
    assert basis.solve_matrix(b + w * M([[0, 1, 0]])) is None
    assert Matrix.identity(3).solve_matrix(M([[1], [2], [3]])) == M([[1], [2], [3]])
    assert calls == []
    assert near_misses.solve_matrix(M([[2], [1], [2]])) == M([[1], [1]])
    assert calls == [3]


def test_rank_reduces_the_shorter_side(monkeypatch):
    """A matrix taller than wide is ranked through its transpose, so at most
    min(rows, cols) rows are reduced; rref always reduces the rows themselves."""
    tall = Matrix.from_rows([[int((i * j) % 7 == 1) for j in range(12)] for i in range(40)])
    calls = _count_eliminations(monkeypatch)
    assert tall.rank() == tall.transpose().rank() == len(tall.rref()[1]) == 6
    assert calls == [12, 12, 40]
    assert Matrix.identity(5).rank() == 5 and Matrix.zeros(3, 3).rank() == 0
    assert calls[3:] == [5, 3]


# -- the sparse Matrix against a dense Fraction reference -------------------------------
#
# Each reference below works on plain lists of Fraction rows.  ``_same`` checks a result
# entry by entry through every read of the value API, and also that it equals, and hashes
# like, the matrix ``from_rows`` builds from the reference: a result left out of canonical
# form would break equality (``Subspace``, ``checked_once``) without any other error.


def _same(m: Matrix, ref: list, cols: int) -> None:
    assert (m.rows, m.cols) == (len(ref), cols)
    assert m.data == tuple(tuple(r) for r in ref)
    assert all(m.row(i) == tuple(r) for i, r in enumerate(ref))
    assert all(m.col(j) == tuple(r[j] for r in ref) for j in range(cols))
    assert all(m[i, j] == x for i, r in enumerate(ref) for j, x in enumerate(r))
    assert m.is_zero == all(x == 0 for r in ref for x in r)
    built = Matrix.from_rows(ref, cols=cols)
    assert m == built and hash(m) == hash(built)


def _ref_mul(a, b, inner, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), F(0)) for j in range(cols)] for i in range(len(a))]


def _ref_block(heights, widths, blocks):
    out = [[F(0)] * sum(widths) for _ in range(sum(heights))]
    for (bi, bj), grid in blocks:
        r0, c0 = sum(heights[:bi]), sum(widths[:bj])
        for i, row in enumerate(grid):
            for j, x in enumerate(row):
                out[r0 + i][c0 + j] += x
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matrix_ops_match_dense_reference(data):
    m, n, k = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, b = data.draw(_grids(m, n)), data.draw(_grids(m, n))
    c = data.draw(_grids(n, k))
    A, B, C = (Matrix.from_rows(g, cols=w) for g, w in ((a, n), (b, n), (c, k)))
    _same(A, a, n)
    a_t = [[r[j] for r in a] for j in range(n)]
    _same(Matrix.from_cols(a_t, rows=m), a, n)
    _same(Matrix.zeros(m, n), [[F(0)] * n for _ in range(m)], n)
    _same(Matrix.identity(n), [[F(int(i == j)) for j in range(n)] for i in range(n)], n)
    _same(A * C, _ref_mul(a, c, n, k), k)
    _same(A + B, [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)], n)
    _same(A - B, [[x - y for x, y in zip(r, q)] for r, q in zip(a, b)], n)
    _same(-A, [[-x for x in r] for r in a], n)
    s = data.draw(st.sampled_from([F(0), F(1), F(-1), F(2, 3), F(-6)]))
    _same(A.scale(s), [[s * x for x in r] for r in a], n)
    _same(A.transpose(), a_t, m)
    rows = data.draw(st.lists(st.integers(0, m - 1), max_size=6)) if m else []
    _same(A.take_rows(rows), [a[i] for i in rows], n)
    cols = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    _same(A.take_cols(cols), [[r[j] for j in cols] for r in a], len(cols))
    _same(Matrix.hstack([A, B]), [r + q for r, q in zip(a, b)], 2 * n)
    _same(Matrix.vstack([A, B]), a + b, n)
    cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=3)))
    heights = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, m])]
    parts = A.split_rows(heights)
    for i, part in enumerate(parts):
        lo = sum(heights[:i])
        _same(part, a[lo : lo + heights[i]], n)
    assert Matrix.vstack(parts) == A
    _same(Matrix.block_diag([A, C]), _ref_block([m, n], [n, k], [((0, 0), a), ((1, 1), c)]), n + k)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_adds_repeated_positions_like_dense_reference(data):
    heights = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    widths = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    position = st.tuples(st.integers(0, len(heights) - 1), st.integers(0, len(widths) - 1))
    positions = data.draw(st.lists(position, max_size=6))
    grids = [data.draw(_grids(heights[i], widths[j])) for i, j in positions]
    # a block and its negative at one more position cancel to zero there
    cancel = data.draw(position)
    g = data.draw(_grids(heights[cancel[0]], widths[cancel[1]]))
    pairs = [*zip(positions, grids), (cancel, g), (cancel, [[-x for x in r] for r in g])]
    got = Matrix.block(heights, widths, [(pos, Matrix.from_rows(grid, cols=widths[pos[1]])) for pos, grid in pairs])
    _same(got, _ref_block(heights, widths, pairs), sum(widths))


def _renormalized(m: Matrix) -> Matrix:
    """``m``'s rows passed through the normalizing constructor."""
    return Matrix(m.rows, m.cols, m._num, m._den)


@st.composite
def _shared_factor_grids(draw, rows, cols):
    """Grids whose denominators divide 36, so blocks share primes at different powers."""
    entry = st.one_of(st.just(F(0)), st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9, 12, 18, 36])))
    return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_results_built_without_normalization_are_canonical(data):
    m, n, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = (Matrix.from_rows(data.draw(_shared_factor_grids(m, n)), cols=n) for _ in range(2))
    c = Matrix.from_rows(data.draw(_shared_factor_grids(k, n)), cols=n)
    d = Matrix.from_rows(data.draw(_shared_factor_grids(m, k)), cols=k)
    integral = Matrix.from_rows([[x.numerator for x in r] for r in a.data], cols=n)
    rows = data.draw(st.lists(st.integers(0, m - 1), max_size=5)) if m else []
    results = [
        Matrix.vstack([a, b, c]),
        Matrix.hstack([a, d, b]),
        Matrix.block([m, k], [n, k], {(0, 0): a, (1, 0): c, (0, 1): d}),
        Matrix.block_diag([a, c, d]),
        a.transpose(),
        -a,
        a.scale(1),
        a.scale(-1),
        Matrix.identity(n),
        Matrix.zeros(m, n),
        integral.take_rows(rows),
        a.take_rows(rows),
        a * Matrix.identity(n),
        Matrix.identity(m) * a,
    ]
    for r in results:
        ref = _renormalized(r)
        assert (r.rows, r.cols, r._num, r._den) == (ref.rows, ref.cols, ref._num, ref._den)


def test_split_rows_rejects_heights_that_miss_the_row_count():
    a = M([[1, 2], [3, 4], [5, 6]])
    for heights in ([1, 1], [2, 2], []):
        with pytest.raises(ValueError, match="split_rows"):
            a.split_rows(heights)


def test_block_of_cancelling_blocks_is_zeros():
    a = M([["1/2", 0, -3], [0, 0, "2/3"]])
    got = Matrix.block([2, 1], [3], [((0, 0), a), ((1, 0), Matrix.zeros(1, 3)), ((0, 0), -a)])
    assert got == Matrix.zeros(3, 3) and hash(got) == hash(Matrix.zeros(3, 3))
    assert got.is_zero


def test_block_rejects_wrong_shape():
    with pytest.raises(ValueError, match="block \\(0, 1\\): want 2x1, got 2x2"):
        Matrix.block([2], [2, 1], {(0, 1): Matrix.identity(2)})
    with pytest.raises(ValueError, match="block \\(0, 0\\)"):
        Matrix.block([2], [2], [((0, 0), Matrix.identity(2)), ((0, 0), Matrix.zeros(2, 3))])
    with pytest.raises(ValueError):
        Matrix.hstack([Matrix.zeros(2, 1), Matrix.zeros(3, 1)])
    with pytest.raises(ValueError):
        Matrix.vstack([Matrix.zeros(1, 2), Matrix.zeros(1, 3)])
    with pytest.raises(ValueError, match="bad shape"):
        Matrix.from_rows([[1, 2], [3]])


def test_equal_values_built_differently_are_equal_and_hash_alike():
    a = M([[2, "1/3", 0], [0, -4, 6]])
    same = [
        a.scale(F(1, 2)).scale(2),
        a.scale(3).scale(F(1, 3)),
        a + a - a,
        -(-a),
        a * Matrix.identity(3),
        Matrix.identity(2) * a,
        a.transpose().transpose(),
        Matrix.from_cols([a.col(j) for j in range(3)], rows=2),
        Matrix.vstack([a.take_rows([0]), a.take_rows([1])]),
        Matrix.hstack([a.take_cols([0]), a.take_cols([1, 2])]),
        Matrix.block([2], [1, 2], [((0, 0), a.take_cols([0])), ((0, 1), a.take_cols([1, 2]))]),
    ]
    for b in same:
        assert b == a and hash(b) == hash(a)
    assert len({a, *same}) == 1
    # an entry of 1/3 taken away leaves an integer matrix, equal to one built from integers
    assert a.take_cols([0, 2]) == M([[2, 0], [0, 6]])
    assert hash(a.take_cols([0, 2])) == hash(M([[2, 0], [0, 6]]))
    assert a != a.scale(2) and a != M([[2, "1/3", 0], [0, -4, 7]])


# -- subspace calculus ------------------------------------------------------------


def test_kernel_of_zero_map():
    s = kernel_space(Matrix.zeros(2, 2))
    assert s.dim == 2


def test_image_of_injection():
    s = image_space(M([[1], [0]]))
    assert s == Subspace.from_spanning(M([[1], [0]]))
    assert s.dim == 1


def test_intersection_trivial():
    a = Subspace.from_spanning(M([[1], [0]]))
    b = Subspace.from_spanning(M([[1], [1]]))
    assert intersection_spaces(a, b).dim == 0


def test_sum_and_complement():
    a = Subspace.from_spanning(M([[1], [1]]))
    c = complement_space(a)
    assert Matrix.hstack([a.basis, c.basis]).rank() == 2
    assert complement_space(a).dim == 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.data(),
)
def test_rank_nullity_exact(rows, cols, data):
    entries = [
        [F(data.draw(st.integers(-3, 3))) for _ in range(cols)] for _ in range(rows)
    ]
    m = Matrix.from_rows(entries, cols=cols)
    assert m.rank() + m.kernel().cols == cols
    # complement of the image has complementary dimension
    im = image_space(m)
    comp = complement_space(im)
    assert im.dim + comp.dim == rows
    if rows:
        assert Matrix.hstack([im.basis, comp.basis]).rank() == rows


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_kernel_vectors_annihilate(n, data):
    m = Matrix.from_rows(
        [[F(data.draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(n)], cols=n
    )
    k = m.kernel()
    assert (m * k).is_zero


# -- cochain complexes -------------------------------------------------------------


def test_acyclic_two_term():
    c = CochainComplex(0, 1, (1, 1), (Matrix.identity(1),))
    assert betti_numbers(c) == {0: 0, 1: 0}


def test_zero_differential():
    c = CochainComplex(0, 1, (1, 1), (Matrix.zeros(1, 1),))
    assert betti_numbers(c) == {0: 1, 1: 1}


def test_rank_count_by_hand():
    c = CochainComplex(0, 1, (2, 1), (M([[1, 1]]),))
    assert betti_numbers(c) == {0: 1, 1: 0}


def test_dd_nonzero_reports_degree():
    c = CochainComplex(0, 2, (1, 1, 1), (Matrix.identity(1), Matrix.identity(1)))
    with pytest.raises(ValueError, match="degree 0"):
        complex_cohomology(c)


def test_euler_characteristic_matches_cohomology():
    c = CochainComplex(0, 2, (2, 3, 1), (M([[1, 0], [0, 0], [0, 0]]), M([[0, 1, 0]])))
    assert not c.validate()
    h = betti_numbers(c)
    assert sum((-1) ** p * h[p] for p in h) == sum((-1) ** p * c.dim(p) for p in c.degrees())


def _random_matrix(rng, rows, cols):
    return Matrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)], cols=cols)


def _bounded_rank_complex(rng, p_min, dims):
    """A complex with d^2 = 0: each d^p is a random product of random rank after the
    rows that annihilate the image of d^{p-1}."""
    diffs = []
    for n, m in zip(dims, dims[1:]):
        left = diffs[-1].transpose().kernel().transpose() if diffs else Matrix.identity(n)
        k = min(m, left.rows)
        inner = rng.randint(min(1, k), k)
        diffs.append(_random_matrix(rng, m, inner) * _random_matrix(rng, inner, left.rows) * left)
    return CochainComplex(p_min, p_min + len(dims) - 1, tuple(dims), tuple(diffs))


def test_betti_from_ranks_matches_cohomology_on_random_complexes():
    rng = random.Random(12)
    seen = set()
    for _ in range(60):
        dims = [rng.randint(0, 5) for _ in range(rng.randint(1, 5))]
        c = _bounded_rank_complex(rng, rng.randint(-1, 1), dims)
        assert not c.validate()
        betti = betti_numbers(c)
        assert betti == {p: h.dim for p, h in complex_cohomology(c).items()}
        seen.add(tuple(betti.values()))
    assert len(seen) > 20  # the complexes are not all alike


def _count_products(monkeypatch) -> list:
    """Record (left, right) of every Matrix product from now on."""
    products = []
    real = Matrix.__mul__

    def counting(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    return products


def _d_squared_products(c: CochainComplex, products: list) -> list[int]:
    """How often each d^{p+1} d^p of ``c`` was multiplied, by identity of the factors."""
    return [sum(a is d1 and b is d0 for a, b in products) for d0, d1 in zip(c.diffs, c.diffs[1:])]


def test_passing_complex_is_checked_once(monkeypatch):
    c = _bounded_rank_complex(random.Random(3), 0, [2, 3, 3, 2])
    assert all(not d.is_zero for d in c.diffs)
    products = _count_products(monkeypatch)
    assert c.validate() == []
    betti = betti_numbers(c)
    complex_cohomology(c)
    assert c.validate() == []
    assert _d_squared_products(c, products) == [1, 1]
    # the memo is on the object: an equal complex is checked again, and equality ignores it
    twin = CochainComplex(c.p_min, c.p_max, c.dims, c.diffs)
    assert twin == c and hash(twin) == hash(c)
    assert betti_numbers(twin) == betti
    assert _d_squared_products(c, products) == [2, 2]


def test_failing_complex_raises_same_degree_every_call(monkeypatch):
    one = Matrix.identity(1)
    c = CochainComplex(0, 3, (1, 1, 1, 1), (Matrix.zeros(1, 1), one, one))
    products = _count_products(monkeypatch)
    for rounds in range(1, 4):
        assert c.validate() == [1]
        with pytest.raises(ValueError, match="d o d != 0 at degree 1"):
            betti_numbers(c)
        with pytest.raises(ValueError, match="d o d != 0 at degree 1"):
            complex_cohomology(c)
        assert _d_squared_products(c, products) == [3 * rounds, 3 * rounds]


# -- quasi-isomorphism, checked against a brute-force oracle ----------------------------


def _oracle_quasi_iso(c, cp, f):
    """Independent rank-based test: equal dims, induced injective and surjective."""
    lo, hi = min(c.p_min, cp.p_min), max(c.p_max, cp.p_max)
    for p in range(lo, hi + 1):
        ker = c.differential(p).kernel()
        kerp = cp.differential(p).kernel()
        im = c.differential(p - 1)
        imp = cp.differential(p - 1)
        # dim H = dim ker - rank(d^{p-1}) since the image sits inside the kernel
        h_dim = ker.cols - im.rank()
        hp_dim = kerp.cols - imp.rank()
        if h_dim != hp_dim:
            return False
        fmat = f.get(p, Matrix.zeros(cp.dim(p), c.dim(p)))
        fk = fmat * ker
        # surjectivity of the induced map
        if Matrix.hstack([imp, fk]).rank() != Matrix.hstack([imp, kerp]).rank():
            return False
        # injectivity: kernel cocycles mapping into im' must be coboundaries
        if ker.cols:
            joint = Matrix.hstack([fk, -imp]).kernel()
            coeffs = joint.take_rows(range(ker.cols))
            cocycles = ker * coeffs
            for j in range(cocycles.cols):
                if im.solve(cocycles.col(j)) is None:
                    return False
    return True


def _random_complex(rng, dims, p_min=0):
    diffs = []
    prev = None
    for i in range(len(dims) - 1):
        if prev is None:
            d = Matrix.from_rows(
                [[F(rng.randint(-2, 2)) for _ in range(dims[i])] for _ in range(dims[i + 1])],
                cols=dims[i],
            )
        else:
            # compose with a projection annihilating the previous image
            k = prev.transpose().kernel()  # functionals vanishing on im(prev)
            r = Matrix.from_rows(
                [[F(rng.randint(-2, 2)) for _ in range(k.cols)] for _ in range(dims[i + 1])],
                cols=k.cols,
            )
            d = r * k.transpose()
        diffs.append(d)
        prev = d
    return CochainComplex(p_min, p_min + len(dims) - 1, tuple(dims), tuple(diffs))


def _random_chain_map(rng, c, cp):
    """A random solution f of f^{p+1} d^p = d'^p f^p over the union of the two degree ranges."""
    degrees = range(min(c.p_min, cp.p_min), max(c.p_max, cp.p_max) + 1)
    offsets = {}  # where the row-major entries of f^p start among the unknowns
    n = 0
    for p in degrees:
        offsets[p] = n
        n += cp.dim(p) * c.dim(p)
    rows = []
    for p in degrees[:-1]:
        d = c.differential(p)
        dp = cp.differential(p)
        for i in range(cp.dim(p + 1)):
            for j in range(c.dim(p)):
                row = [F(0)] * n
                for k in range(c.dim(p + 1)):
                    row[offsets[p + 1] + i * c.dim(p + 1) + k] += d.data[k][j]
                for k in range(cp.dim(p)):
                    row[offsets[p] + k * c.dim(p) + j] -= dp.data[i][k]
                rows.append(row)
    system = Matrix.from_rows(rows, cols=n) if rows else Matrix.zeros(0, n)
    sols = system.kernel()
    coeff = [F(rng.randint(-2, 2)) for _ in range(sols.cols)]
    flat = (sols * Matrix.from_cols([coeff], rows=sols.cols)).col(0)
    return {
        p: Matrix.from_rows(
            [[flat[offsets[p] + i * c.dim(p) + j] for j in range(c.dim(p))] for i in range(cp.dim(p))],
            cols=c.dim(p),
        )
        for p in degrees
    }


def test_quasi_iso_agrees_with_oracle():
    rng = random.Random(11)
    agree = 0
    for trial in range(25):
        dims1 = [rng.randint(0, 2) for _ in range(3)]
        dims2 = [rng.randint(0, 2) for _ in range(3)]
        if sum(dims1) + sum(dims2) > 12:
            continue
        c = _random_complex(rng, dims1)
        cp = _random_complex(rng, dims2)
        f = _random_chain_map(rng, c, cp)
        cert = chain_map_is_quasi_iso(c, cp, f)
        assert cert.ok == _oracle_quasi_iso(c, cp, f)
        agree += 1
    assert agree >= 15


def _reference_certificate(c, cp, f):
    """Per-degree (dim H source, dim H target, induced rank) from cohomology representatives.

    The induced rank is the rank of the coordinates of f(representatives) in a basis of
    B'^p completed by the target's representatives, read modulo B'^p.
    """
    h, hp = complex_cohomology(c), complex_cohomology(cp)
    degrees = {}
    for p in range(min(c.p_min, cp.p_min), max(c.p_max, cp.p_max) + 1):
        d1 = h[p].dim if p in h else 0
        d2 = hp[p].dim if p in hp else 0
        rank = 0
        if d1 and d2:
            image = f[p] * h[p].representatives
            basis = Matrix.hstack([cp.differential(p - 1), hp[p].representatives])
            coords = basis.solve_matrix(image)
            assert coords is not None  # images of cocycles are cocycles
            rank = coords.take_rows(range(cp.dim(p - 1), basis.cols)).rank()
        degrees[p] = (d1, d2, rank)
    return degrees


def test_quasi_iso_certificate_matches_representative_reference():
    rng = random.Random(17)
    shifted = short_of_iso = isos = 0
    for _ in range(120):
        c = _random_complex(rng, [rng.randint(0, 3) for _ in range(rng.randint(1, 4))], rng.randint(-1, 1))
        if rng.random() < 0.3:
            cp = c  # a random endomorphism: equal cohomology, often not an isomorphism on it
        else:
            cp = _random_complex(rng, [rng.randint(0, 3) for _ in range(rng.randint(1, 4))], rng.randint(-1, 1))
        f = _random_chain_map(rng, c, cp)
        cert = chain_map_is_quasi_iso(c, cp, f)
        reference = _reference_certificate(c, cp, f)
        assert cert.degrees == reference
        assert cert.ok == all(d1 == d2 == rank for d1, d2, rank in reference.values())
        shifted += (c.p_min, c.p_max) != (cp.p_min, cp.p_max)
        short_of_iso += any(d1 == d2 > rank for d1, d2, rank in reference.values())
        isos += cert.ok and any(d1 for d1, _, _ in reference.values())
    # the cases include differing ranges, maps that fall short of an isomorphism on
    # cohomology of equal dimension, and nontrivial quasi-isomorphisms
    assert shifted > 40 and short_of_iso > 5 and isos > 5


def test_chain_map_violation_raises():
    c = CochainComplex(0, 1, (1, 1), (Matrix.identity(1),))
    cp = CochainComplex(0, 1, (1, 1), (Matrix.zeros(1, 1),))
    with pytest.raises(ValueError, match="chain map"):
        chain_map_is_quasi_iso(c, cp, {0: Matrix.identity(1), 1: Matrix.identity(1)})


def test_quasi_iso_examples():
    acyclic = CochainComplex(0, 1, (1, 1), (Matrix.identity(1),))
    zero = CochainComplex(0, 1, (0, 0), (Matrix.zeros(0, 0),))
    stalled = CochainComplex(0, 1, (1, 1), (Matrix.zeros(1, 1),))
    ident = chain_map_is_quasi_iso(acyclic, acyclic, {0: Matrix.identity(1), 1: Matrix.identity(1)})
    assert ident.ok
    collapse = chain_map_is_quasi_iso(
        acyclic, zero, {0: Matrix.zeros(0, 1), 1: Matrix.zeros(0, 1)}
    )
    assert collapse.ok
    dead = chain_map_is_quasi_iso(stalled, zero, {0: Matrix.zeros(0, 1), 1: Matrix.zeros(0, 1)})
    assert not dead.ok


def test_truncated_complex_reports_no_top_degree():
    # the identity in degree 0 and zero in degree 1 between two complexes with d^0 = 0: a chain
    # map that fails to be a quasi-isomorphism only in the top degree
    stalled = CochainComplex(0, 1, (1, 1), (Matrix.zeros(1, 1),))
    cut = CochainComplex(0, 1, (1, 1), (Matrix.zeros(1, 1),), truncated=True)
    f = {0: Matrix.identity(1), 1: Matrix.zeros(1, 1)}
    assert list(stalled.cohomology_degrees()) == [0, 1] and list(cut.cohomology_degrees()) == [0]
    assert betti_numbers(stalled) == {0: 1, 1: 1} and betti_numbers(cut) == {0: 1}
    assert list(complex_cohomology(stalled)) == [0, 1] and list(complex_cohomology(cut)) == [0]
    full = chain_map_is_quasi_iso(stalled, stalled, f)
    assert not full.ok and full.degrees == {0: (1, 1, 1), 1: (1, 1, 0)}
    for c, cp in ((cut, cut), (cut, stalled), (stalled, cut)):
        cert = chain_map_is_quasi_iso(c, cp, f)
        assert cert.ok and cert.degrees == {0: (1, 1, 1)}
    # commutation is still checked into the top degree
    with pytest.raises(ValueError, match="chain map"):
        chain_map_is_quasi_iso(cut, CochainComplex(0, 1, (1, 1), (Matrix.identity(1),), truncated=True), f)
