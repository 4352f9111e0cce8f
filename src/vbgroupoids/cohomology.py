"""Cochain complexes over finite groupoids: ruth, linear, VB.

Bundle-valued cochains live on nerve strings, with the value of a degree-q
cochain at (g_1, ..., g_q) in the fiber over tgt(g_1).  Linear cochains on a
VB-groupoid are functionals on the fibered products Fib^p along base strings;
the VB-subcomplex consists of the projectable ones.  The ruth and linear differentials
are assembled on integer rows: every block is placed at its offsets over one common
denominator in one pass (``linalg._place``), with no matrix built per block; d o d = 0 is
a hard constructor check on every complex.  The other operators that evaluate linear
cochains on images in Fib (the homotopy operators, the displayed cancellation, the
zero-last two-term expression and the pullback f*) go through one reader,
:meth:`LinComplex.evaluation`, which places them the same way.

Every complex built here with ``p_max`` is ``truncated``: ``linalg`` reports its
cohomology only below p_max.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .groupoid import NerveStrings, nerve
from .linalg import CochainComplex, Matrix, Placed, UnitRead, betti_numbers, chain_map_is_quasi_iso
from .linalg import _place, _scaled, _times
from .report import violation_error
from .ruth import TwoTermRuth, check_ruth, dual_ruth
from .vb import (
    Cleavage,
    VBGroupoid,
    VBMap,
    check_cleavage,
    check_vbmap,
    choose_cleavage,
    fib_key,
    grothendieck,
)

#: Frozen sign assignment for the ruth differential components
#: (quasi-action on E, anchor insertion, quasi-action on C, curvature pairing).
#: Fixed by requiring D^2 = 0 on fixtures with nonzero anchor, quasi-actions
#: and curvature; see the sign-search test.
RUTH_DIFFERENTIAL_SIGNS = (1, 1, -1, 1)


class _Layout:
    """Cochain coordinates with one block per nerve string: ``sizes[q]`` lists the block size
    of each q-string, and the degree-q space is their direct sum in string order."""

    def __init__(self, nv: NerveStrings, sizes: list[list[int]]):
        self.nerve = nv
        self.sizes = sizes
        self.offsets = [list(accumulate(level, initial=0)) for level in sizes]

    def dim(self, q: int) -> int:
        return self.offsets[q][-1] if 0 <= q < len(self.offsets) else 0

    def string_at(self, q: int, row: int) -> tuple:
        """The degree-q string whose coordinate block holds ``row``."""
        return self.nerve.strings[q][bisect_right(self.offsets[q], row) - 1]


def _require_d_squared_zero(cx: CochainComplex, context: str, row_string: Callable[[int, int], object]) -> None:
    """Raise unless D^2 = 0, naming the first degree p where it fails.

    The witness is (p, the string of a nonzero row of d^{p+1} d^p, that entry's
    (row, col)); the entry is searched only when the check fails.
    """
    bad = cx.validate()
    if bad:
        p = bad[0]
        d2 = cx.d_squared(p)
        row, col = next((i, j) for i in range(d2.rows) for j, x in enumerate(d2.row(i)) if x)
        raise violation_error(
            f"{context} at degree {p}",
            "d-squared",
            (p, row_string(p + 2, row), (row, col)),
            "(degree p, string of the row in degree p + 2, nonzero entry (row, col) of d^{p+1} d^p)",
        )


# -- bundle-valued cochains -------------------------------------------------------


def _placed(r0: int, c0: int, sign: int, m: Matrix) -> Placed:
    return r0, c0, sign, m._num, m._den


def _quasi_action_differential(bc: _Layout, rho: Sequence[Matrix], q: int) -> list[Placed]:
    """The degree-1 operator of a (quasi-)action on bundle cochains ``bc``, C^q -> C^{q+1}, as
    blocks placed from (0, 0) (see ``linalg._place``): rho_{g_1} at face 0, +-I at the others.

    (D w)(g_1..g_{q+1}) = rho_{g_1} w(g_2..) + sum_i (-1)^i w(..g_i g_{i+1}..)
                          + (-1)^{q+1} w(g_1..g_q).
    """
    nv = bc.nerve
    rows, cols, sizes = bc.offsets[q + 1], bc.offsets[q], bc.sizes[q]
    eye = {n: Matrix.identity(n)._num for n in set(sizes)}
    faces = enumerate(zip(nv.strings[q + 1], nv.face(q + 1, 0)))
    blocks = [_placed(rows[si], cols[t], 1, rho[s[0]]) for si, (s, t) in faces]
    for i in range(1, q + 2):
        sign = (-1) ** i
        blocks += [(rows[si], cols[t], sign, eye[sizes[t]], 1) for si, t in enumerate(nv.face(q + 1, i))]
    return blocks


# -- ruth cochain complex -----------------------------------------------------------


def assemble_ruth_differential(
    r: TwoTermRuth, p_max: int, signs: tuple[int, int, int, int] = RUTH_DIFFERENTIAL_SIGNS
) -> CochainComplex:
    """C(G, E (+) C[1]) in degrees -1 .. p_max, with degree-p space C^p(G,E) (+) C^{p+1}(G,C),
    built with explicit component signs; D^2 = 0 is enforced.

    Each D^p is placed whole in one pass: the quasi-action on E (rho_e at face 0, +-I at the
    others) and the curvature pairing gamma in the columns of C^p(G,E), the anchor insertion
    and the quasi-action on C in those of C^{p+1}(G,C).
    """
    s_e, s_anchor, s_c, s_gamma = signs
    g = r.base
    nv = nerve(g, p_max + 1)
    # the object tgt(g_1) whose fibers hold the values at (g_1, ..., g_q), and x for a 0-string x
    objs = [[s if q == 0 else g.tgt[s[0]] for s in level] for q, level in enumerate(nv.strings)]
    bce = _Layout(nv, [[r.e_dims[x] for x in level] for level in objs])
    bcc = _Layout(nv, [[r.c_dims[x] for x in level] for level in objs])

    def shifted(blocks: list[Placed], r0: int, c0: int, sign: int) -> list[Placed]:
        return [(r0 + i, c0 + j, sign * k, num, den) for i, j, k, num, den in blocks]

    diffs = []
    for p in range(-1, p_max):
        # block rows: C^{p+1}(G,E), C^{p+2}(G,C); block columns: C^p(G,E), C^{p+1}(G,C)
        e_rows, e_cols = bce.dim(p + 1), bce.dim(p)
        blocks = []
        if p >= 0:
            blocks += shifted(_quasi_action_differential(bce, r.rho_e, p), 0, 0, s_e)
            # (gamma w)(g_1..g_{p+2}) = gamma_{g_1,g_2} w(g_3..)
            for si, s in enumerate(nv.strings[p + 2]):
                t_idx = nv.index[p][s[2:]] if p >= 1 else g.src[s[1]]
                blocks.append(
                    _placed(e_rows + bcc.offsets[p + 2][si], bce.offsets[p][t_idx], s_gamma, r.gamma[(s[0], s[1])])
                )
        for si, x in enumerate(objs[p + 1]):
            blocks.append(_placed(bce.offsets[p + 1][si], e_cols + bcc.offsets[p + 1][si], s_anchor, r.anchor[x]))
        blocks += shifted(_quasi_action_differential(bcc, r.rho_c, p + 1), e_rows, e_cols, s_c)
        diffs.append(_place(e_rows + bcc.dim(p + 2), e_cols + bcc.dim(p + 1), blocks, canonical=True))
    dims = tuple(bce.dim(p) + bcc.dim(p + 1) for p in range(-1, p_max + 1))
    cx = CochainComplex(-1, p_max, dims, tuple(diffs), truncated=True)

    def row_string(q: int, row: int) -> tuple:
        # degree q of the total complex is C^q(G,E) (+) C^{q+1}(G,C)
        de = bce.dim(q)
        return ("E", bce.string_at(q, row)) if row < de else ("C", bcc.string_at(q + 1, row - de))

    _require_d_squared_zero(cx, f"ruth differential for signs {signs}: D^2 != 0", row_string)
    return cx


def ruth_complex(r: TwoTermRuth, p_max: int) -> CochainComplex:
    check_ruth(r).require("ruth_complex: invalid ruth")
    return assemble_ruth_differential(r, p_max)


# -- linear cochains of a VB-groupoid --------------------------------------------------


@dataclass(frozen=True)
class LinComplex:
    """Duals of string-wise fibered products, with delta = alternating face sum."""

    vb: VBGroupoid
    p_max: int
    layout: _Layout  # block sizes dim Fib(s)
    fib_bases: tuple[tuple[Matrix, ...], ...]  # per degree, per string
    complex: CochainComplex  # degrees 0 .. p_max
    # per degree, per string: the fib_key of its Fib space (an object's is dim E_x), and the
    # read plan of its Fib basis, which is a kernel basis or an identity
    fib_keys: tuple[tuple[tuple, ...], ...] = field(compare=False, repr=False)
    fib_reads: tuple[tuple[UnitRead, ...], ...] = field(compare=False, repr=False)
    # _zero_last_vectors by (fib_key, zeros), shared by every projectable-condition call
    _zero_last: dict[tuple, Matrix] = field(default_factory=dict, init=False, compare=False, repr=False)

    def dim(self, p: int) -> int:
        return self.complex.dim(p)

    def zero_last(self, p: int, si: int, zeros: int = 1) -> Matrix:
        """_zero_last_vectors of the si-th degree-p string, once per (fib_key, zeros)."""
        key = (self.fib_keys[p][si], zeros)
        if key not in self._zero_last:
            s = self.layout.nerve.strings[p][si]
            self._zero_last[key] = _zero_last_vectors(self.vb, s, self.fib_bases[p][si], zeros)
        return self._zero_last[key]

    def evaluation(
        self, p: int, rows: int, terms: Iterable[tuple[int, tuple, tuple, Matrix, int]], where: tuple[str, str, str]
    ) -> Matrix:
        """The ``rows`` x dim C^p matrix that evaluates a degree-p cochain on the columns of each
        term's image: a term (row, s, string, image, sign) adds ``sign`` times the transposed
        coordinates of ``image`` in the Fib basis of the degree-p ``string``, from ``row`` down
        in the columns of ``string``.

        As delta in :func:`lin_complex`, the matrix is placed transposed in one pass and
        transposed once, and the coordinates are read at the basis's unit rows
        (``linalg.UnitRead``).  ``where`` is (context, check, role); at the first term whose
        image has a column outside Fib, the violation ``check`` is raised at (p, s, string)
        with the detail "(degree, string, <role> string)".
        """
        index, offsets, reads = self.layout.nerve.index[p], self.layout.offsets[p], self.fib_reads[p]
        blocks = []
        for row, s, string, image, sign in terms:
            t_idx = index[string]
            x = reads[t_idx].rows(image._num, image._den)
            if x is None:
                context, check, role = where
                raise violation_error(context, check, (p, s, string), f"(degree, string, {role} string)")
            blocks.append((offsets[t_idx], row, sign, x, image._den))
        return _place(self.dim(p), rows, blocks, canonical=False).transpose()


def _face_image(v: VBGroupoid, s: tuple[int, ...], i: int, fib: Matrix) -> tuple[Sequence[dict[int, int]], int]:
    """The i-th face applied to the basis ``fib`` of Fib(s), in face coordinates, as numerator
    rows over a denominator.  An outer face drops the first or the last slot's rows; the inner
    face i replaces the rows of slots i and i + 1 (from 1) by m_{g_i,g_{i+1}} times them."""
    num, den = fib._num, fib._den
    if i == 0:
        return num[v.gamma_dims[s[0]] :], den
    if i == len(s):
        return num[: len(num) - v.gamma_dims[s[-1]]], den
    lo = sum(v.gamma_dims[a] for a in s[: i - 1])
    hi = lo + v.gamma_dims[s[i - 1]] + v.gamma_dims[s[i]]
    m = v.m_maps[(s[i - 1], s[i])]
    merged = _times(m._num, num[lo:hi])
    return [*_scaled(num[:lo], m._den), *merged, *_scaled(num[hi:], m._den)], den * m._den


def lin_complex(v: VBGroupoid, p_max: int) -> LinComplex:
    """The linear complex of ``v`` in degrees 0 .. p_max; D^2 = 0 is checked.

    Each delta^p is assembled transposed, in one pass (``linalg._place``), and transposed once:
    the coordinates X of a face image in the Fib basis of the face string are placed at that
    string's rows of delta^T, with the face's sign.  Every Fib basis is a kernel basis or an
    identity, so it has a unit row e_j for each of its columns j, and X is exact when read off
    the image's rows at those unit rows (``linalg.UnitRead``, planned once per basis): the basis
    has full column rank, so the coordinates are unique if they exist, and they reproduce the
    rows they were read from.  Every other row of the image is still compared with the basis
    times X, and a face image that leaves Fib there raises ``face-in-fib``.  Face images are
    built on rows too (:func:`_face_image`); a 1-string's Fib basis is the identity, so its
    faces' coordinates are its s- and t-map.

    One Fib basis, with its read plan, is built per :func:`~vbgroupoids.vb.fib_key`, and every
    face of every string is read, so the first failing (string, face) in loop order is reported.
    """
    nv = nerve(v.base, p_max)
    fib_keys = [tuple((v.e_dims[x],) for x in nv.strings[0])]
    fib_bases: list[tuple[Matrix, ...]] = [tuple(Matrix.identity(v.e_dims[x]) for x in nv.strings[0])]
    by_key: dict[tuple, Matrix] = {}
    for p in range(1, p_max + 1):
        keys = tuple(fib_key(v, s) for s in nv.strings[p])
        for s, k in zip(nv.strings[p], keys):
            if k not in by_key:
                by_key[k] = v.fib_string_basis(s)
        fib_keys.append(keys)
        fib_bases.append(tuple(by_key[k] for k in keys))
    plans = {id(b): UnitRead.of(b) for level in fib_bases for b in level}
    fib_reads = tuple(tuple(plans[id(b)] for b in level) for level in fib_bases)
    layout = _Layout(nv, [[b.cols for b in level] for level in fib_bases])
    diffs = []
    for p in range(p_max):
        rows, cols = layout.offsets[p], layout.offsets[p + 1]
        faces = [nv.face(p + 1, i) for i in range(p + 2)]
        blocks = []
        for si, s in enumerate(nv.strings[p + 1]):
            for i in range(p + 2):
                t_idx = faces[i][si]
                if p == 0:
                    m = v.s_maps[s[0]] if i == 0 else v.t_maps[s[0]]
                    coords = m._num, m._den
                else:
                    num, den = _face_image(v, s, i, fib_bases[p + 1][si])
                    x = fib_reads[p][t_idx].rows(num, den)
                    if x is None:
                        raise violation_error(
                            f"lin_complex: face image leaves Fib at degree {p + 1}",
                            "face-in-fib",
                            (p + 1, s, i),
                            "(degree, string, face)",
                        )
                    coords = x, den
                blocks.append((rows[t_idx], cols[si], (-1) ** i, *coords))
        diffs.append(_place(layout.dim(p), layout.dim(p + 1), blocks, canonical=False).transpose())
    cx = CochainComplex(0, p_max, tuple(layout.dim(p) for p in range(p_max + 1)), tuple(diffs), truncated=True)
    _require_d_squared_zero(cx, "lin_complex: delta^2 != 0", layout.string_at)
    return LinComplex(
        vb=v,
        p_max=p_max,
        layout=layout,
        fib_bases=tuple(fib_bases),
        complex=cx,
        fib_keys=tuple(fib_keys),
        fib_reads=fib_reads,
    )


def _zero_last_vectors(v: VBGroupoid, s: tuple[int, ...], fib: Matrix, zeros: int = 1) -> Matrix:
    """Coordinates (in the Fib basis) of the subspace with trailing zero slots."""
    return Matrix.vstack(v.slots(s, fib)[-zeros:]).kernel()


def _projectable_blocks(lin: LinComplex, p: int, zeros: int = 1) -> list[tuple[tuple[int, tuple], Matrix]]:
    """Condition rows cutting out cochains vanishing on trailing-zero tuples, per string.

    Rows cover condition (i) at degree p and condition (ii') through the
    differential into degree p + 1; each block is labelled (degree, string).
    """
    nv = lin.layout.nerve
    rows: list[tuple[tuple[int, tuple], Matrix]] = []
    if p >= zeros:
        sizes = lin.layout.sizes[p]
        for si, s in enumerate(nv.strings[p]):
            z = lin.zero_last(p, si, zeros)
            if z.cols:
                rows.append(((p, s), Matrix.block([z.cols], sizes, {(0, si): z.transpose()})))
    if zeros <= p + 1 <= lin.p_max:
        delta_rows = lin.complex.differential(p).split_rows(lin.layout.sizes[p + 1])
        for si, s in enumerate(nv.strings[p + 1]):
            z = lin.zero_last(p + 1, si, zeros)
            if z.cols:
                rows.append(((p + 1, s), z.transpose() * delta_rows[si]))
    return rows


def _projectable_conditions(lin: LinComplex, p: int, zeros: int) -> Matrix:
    rows = [m for _, m in _projectable_blocks(lin, p, zeros)]
    return Matrix.vstack(rows) if rows else Matrix.zeros(0, lin.dim(p))


@dataclass(frozen=True)
class VBSubcomplex:
    """The projectable subcomplex of a linear complex truncated at p_max.

    ``bases[p]`` gives the subspace basis in linear coordinates for degrees 0 .. p_max (the
    identity at p_max, where the truncated complex imposes no condition); ``complex`` is the
    complex on these bases.
    """

    bases: tuple[Matrix, ...]
    complex: CochainComplex


def _subcomplex_from_bases(
    lin: LinComplex, bases: list[Matrix]
) -> tuple[Optional[CochainComplex], Optional[int]]:
    """The complex on ``bases`` and None, or None and the first degree whose basis
    delta maps out of the span of the next one."""
    diffs = []
    for p in range(lin.p_max):
        coords = bases[p + 1].solve_matrix(lin.complex.differential(p) * bases[p])
        if coords is None:
            return None, p
        diffs.append(coords)
    return CochainComplex(0, lin.p_max, tuple(b.cols for b in bases), tuple(diffs), truncated=True), None


def _filtration_bases(lin: LinComplex, level: int) -> list[Matrix]:
    """Bases of the filtration level F_level in degrees 0 .. p_max: the cochains that vanish,
    with their coboundaries, on tuples whose last ``level`` slots are zero.  Degree 0 has no
    such tuples and degree p_max no coboundaries, so both are the whole space."""
    return [
        _projectable_conditions(lin, p, level).kernel() if 0 < p < lin.p_max else Matrix.identity(lin.dim(p))
        for p in range(lin.p_max + 1)
    ]


def vb_subcomplex(lin: LinComplex) -> VBSubcomplex:
    """Projectable cochains: condition (i) plus (ii') as exact linear conditions."""
    bases = _filtration_bases(lin, 1)
    cx, p = _subcomplex_from_bases(lin, bases)
    if cx is None:
        image = lin.complex.differential(p) * bases[p]
        j = next(j for j in range(image.cols) if bases[p + 1].solve_matrix(image.take_cols([j])) is None)
        column = image.take_cols([j])
        violated = next((label for label, m in _projectable_blocks(lin, p + 1) if not (m * column).is_zero), None)
        raise violation_error(
            "vb_subcomplex: delta does not preserve the subcomplex",
            "subcomplex-closed",
            (p, j, violated),
            "(degree, basis column, (degree, string) of a condition its coboundary violates)",
        )
    return VBSubcomplex(bases=tuple(bases), complex=cx)


# -- the homotopy operator and the comparison of H_VB with H_lin ------------------------


def _append_lift_matrix(lin: LinComplex, c: Cleavage, s: tuple[int, ...], fib: Matrix) -> tuple[tuple[int, ...], Matrix]:
    """Append the inverted cleavage lift of the string product to a Fib basis.

    Returns the extended string and the matrix of (w, inv lift sigma(prod, s w))
    in ambient coordinates.
    """
    v = lin.vb
    g = v.base
    prod = g.compose_many(*s)
    src_rows = v.s_maps[s[-1]] * v.slots(s, fib)[-1]
    appended = v.inverse_matrix(prod) * (c.sigma[prod] * src_rows)
    return s + (g.inv[prod],), Matrix.vstack([fib, appended])


def homotopy_operator(lin: LinComplex, c: Cleavage, p: int) -> Matrix:
    """h: C^p_lin -> C^{p-1}_lin, (h phi)(w) = phi(w, sigma(w)^{-1}), for 2 <= p <= p_max."""
    if not 2 <= p <= lin.p_max:
        raise ValueError(f"homotopy_operator: degree {p} outside 2 .. {lin.p_max}")
    layout = lin.layout
    terms = []
    for si, s in enumerate(layout.nerve.strings[p - 1]):
        ext_string, ext = _append_lift_matrix(lin, c, s, lin.fib_bases[p - 1][si])
        terms.append((layout.offsets[p - 1][si], s, ext_string, ext, 1))
    where = ("homotopy_operator: extended tuple not in Fib", "lift-in-fib", "extended")
    return lin.evaluation(p, layout.dim(p - 1), terms, where)


def cancellation_operator(lin: LinComplex, p: int, h_here: Matrix, h_up: Matrix) -> Matrix:
    """I = id + (-1)^p (h delta - delta h) on degree p (needs p <= p_max - 1), from the homotopy
    operators h_here = h_p and h_up = h_{p+1} (at p = 0, h_here is the 0 x dim C^0 zero map)."""
    delta = lin.complex.differential
    return Matrix.identity(lin.dim(p)) + (h_up * delta(p) - delta(p - 1) * h_here).scale((-1) ** p)


def _displayed_cancellation(lin: LinComplex, c: Cleavage, p: int) -> Matrix:
    """The proof's four-term expression for I, assembled on full bases (p >= 2)."""
    v = lin.vb
    g = v.base
    layout = lin.layout
    terms = []

    def place_term(si: int, s: tuple[int, ...], string: tuple[int, ...], slots: list[Matrix], sign: int) -> None:
        terms.append((layout.offsets[p][si], s, string, Matrix.vstack(slots), sign))

    sgn_p = (-1) ** p
    for si, s in enumerate(layout.nerve.strings[p]):
        parts = v.slots(s, lin.fib_bases[p][si])
        head, last, tail = parts[:-1], parts[-1], parts[1:]
        prod_all = g.compose_many(*s)
        src_last = v.s_maps[s[-1]] * last
        lift_all = c.sigma[prod_all] * src_last
        inv_all = v.inverse_matrix(prod_all) * lift_all
        # term 1: last slot multiplied by the inverted total lift
        new_last = v.mult_of(s[-1], g.inv[prod_all], last, inv_all)
        place_term(si, s, s[:-1] + (g.compose(s[-1], g.inv[prod_all]),), [*head, new_last], 1)
        # term 2: drop first, append the inverted total lift
        place_term(si, s, s[1:] + (g.inv[prod_all],), [*tail, inv_all], sgn_p)
        # term 3: drop last, append the inverted lift of the shortened product
        prod_head = g.compose_many(*s[:-1])
        src_prev = v.s_maps[s[-2]] * parts[-2]
        inv_head = v.inverse_matrix(prod_head) * (c.sigma[prod_head] * src_prev)
        place_term(si, s, s[:-1] + (g.inv[prod_head],), [*head, inv_head], -1)
        # term 4: drop first, append the inverted lift of the shifted product
        prod_tail = g.compose_many(*s[1:])
        inv_tail = v.inverse_matrix(prod_tail) * (c.sigma[prod_tail] * src_last)
        place_term(si, s, s[1:] + (g.inv[prod_tail],), [*tail, inv_tail], -sgn_p)
    return lin.evaluation(p, layout.dim(p), terms, ("displayed cancellation: tuple not in Fib", "term-in-fib", "term"))


def _zero_last_two_term(lin: LinComplex, p: int, cancellation: Matrix) -> tuple[Matrix, Matrix]:
    """Evaluate I = ``cancellation`` on trailing-zero tuples and the proof's two-term expression.

    Returns (lhs, rhs) as maps from degree-p cochain coordinates to stacked
    values on all trailing-zero basis vectors; they must agree exactly.
    """
    v = lin.vb
    g = v.base
    eye_rows = cancellation.split_rows(lin.layout.sizes[p])
    lhs_rows = []
    terms = []
    row = 0
    sgn_p = (-1) ** p
    for si, s in enumerate(lin.layout.nerve.strings[p]):
        z = lin.zero_last(p, si)
        if z.cols == 0:
            continue
        lhs_rows.append(z.transpose() * eye_rows[si])
        # two-term expression on (v_1, .., v_{p-1}, 0_g): drop the first slot
        tail = Matrix.vstack(v.slots(s, lin.fib_bases[p][si] * z)[1:])
        for prod, sign in ((g.compose_many(*s), sgn_p), (g.compose_many(*s[1:]), -sgn_p)):
            ext = Matrix.vstack([tail, Matrix.zeros(v.gamma_dims[g.inv[prod]], z.cols)])
            terms.append((row, s, s[1:] + (g.inv[prod],), ext, sign))
        row += z.cols
    lhs = Matrix.vstack(lhs_rows) if lhs_rows else Matrix.zeros(0, lin.dim(p))
    where = ("zero-last evaluation: tuple not in Fib", "zero-last-in-fib", "extended")
    return lhs, lin.evaluation(p, row, terms, where)


def _filtration_quasi_iso(lin: LinComplex, sub: VBSubcomplex) -> bool:
    """Whether, from F_1 = ``sub`` up, each filtration level F_level for level = 2 .. p_max is a
    subcomplex into which F_{level-1} includes as a quasi-isomorphism below p_max, and the top
    level F_{p_max} is the whole linear complex in degrees 1 .. p_max - 1."""
    p_max = lin.p_max
    prev_bases, prev_cx = sub.bases, sub.complex
    for level in range(2, p_max + 1):
        bases = _filtration_bases(lin, level)
        cx, _ = _subcomplex_from_bases(lin, bases)
        if cx is None:
            return False
        fmap: dict[int, Matrix] = {}
        for p in range(p_max + 1):
            fmap[p] = bases[p].solve_matrix(prev_bases[p])
            if fmap[p] is None:
                return False
        if not chain_map_is_quasi_iso(prev_cx, cx, fmap).ok:
            return False
        prev_bases, prev_cx = bases, cx
    # kernel bases have unit rows at their free columns, so their column rank is full
    return all(prev_bases[p].cols == lin.dim(p) for p in range(1, p_max))


@dataclass(frozen=True)
class HvbHlinReport:
    """The verdicts of :func:`hvb_equals_hlin`.

    ``inclusion_iso`` and the cohomology cover degrees 0 .. p_max - 1.  ``homotopy_identity``
    and ``zero_last_identity`` are checked in degrees 2 .. p_max - 1, and
    ``filtration_quasi_iso`` at filtration levels 2 .. p_max.  For p_max <= 2 the two
    identities are true without checking anything, and so is the filtration for p_max = 1; at
    p_max = 2 its one level is the whole linear complex, so it repeats ``inclusion_iso``.
    """

    p_max: int
    dims_lin: tuple[int, ...]  # cochain dims, degrees 0 .. p_max
    dims_vb: tuple[int, ...]  # cochain dims, degrees 0 .. p_max - 1
    h_lin: tuple[int, ...]  # degrees 0 .. p_max - 1
    h_vb: tuple[int, ...]
    inclusion_iso: bool
    homotopy_identity: bool
    zero_last_identity: bool
    filtration_quasi_iso: bool

    @property
    def ok(self) -> bool:
        return (
            self.h_lin == self.h_vb
            and self.inclusion_iso
            and self.homotopy_identity
            and self.zero_last_identity
            and self.filtration_quasi_iso
        )


def hvb_equals_hlin(v: VBGroupoid, p_max: int, cleavage: Optional[Cleavage] = None) -> HvbHlinReport:
    """Compare VB- and linear cohomology in degrees <= p_max - 1.

    Also materializes the cleavage homotopy operator and verifies the proof's
    displayed cancellation identity on full bases and its specialization to
    trailing-zero tuples, both in degrees 2 .. p_max - 1, and that each filtration
    inclusion F_{i-1} in F_i, for the levels i = 2 .. p_max, is a quasi-isomorphism in
    the trusted range.  For p_max <= 2 the two identities are true without checking
    anything (see :class:`HvbHlinReport`).
    """
    if cleavage is None:
        cleavage = choose_cleavage(v)
    check_cleavage(v, cleavage).require("hvb_equals_hlin: invalid cleavage")
    lin = lin_complex(v, p_max)
    sub = vb_subcomplex(lin)
    # the inclusion's certificate carries both cohomologies: (dim H_VB, dim H_lin, rank)
    cert = chain_map_is_quasi_iso(sub.complex, lin.complex, dict(enumerate(sub.bases)))
    h_vb = tuple(d[0] for d in cert.degrees.values())
    h_lin = tuple(d[1] for d in cert.degrees.values())
    homotopy_identity = True
    zero_last_identity = True
    # h_p for p = 2 .. p_max and I_p for p = 2 .. p_max - 1, each built once; I_p reads h_p and h_{p+1}
    h: dict[int, Matrix] = {}
    cancellation: dict[int, Matrix] = {}
    for p in range(2, p_max):
        h[p + 1] = homotopy_operator(lin, cleavage, p + 1)
        if p not in h:
            h[p] = homotopy_operator(lin, cleavage, p)
        cancellation[p] = cancellation_operator(lin, p, h[p], h[p + 1])
        if cancellation[p] != _displayed_cancellation(lin, cleavage, p):
            homotopy_identity = False
    for p in range(2, p_max):
        lhs, rhs = _zero_last_two_term(lin, p, cancellation[p])
        if lhs != rhs:
            zero_last_identity = False
    return HvbHlinReport(
        p_max=p_max,
        dims_lin=tuple(lin.dim(p) for p in range(p_max + 1)),
        dims_vb=tuple(b.cols for b in sub.bases[:p_max]),
        h_lin=h_lin,
        h_vb=h_vb,
        inclusion_iso=cert.ok,
        homotopy_identity=homotopy_identity,
        zero_last_identity=zero_last_identity,
        filtration_quasi_iso=_filtration_quasi_iso(lin, sub),
    )


# -- induced maps in cohomology ----------------------------------------------------------


@dataclass(frozen=True)
class InducedMapReport:
    p_max: int
    chain_map_ok: bool
    preserves_projectable: bool
    h_vb_source: tuple[int, ...]  # degrees 0 .. p_max - 1 (of the map's source)
    h_vb_target: tuple[int, ...]
    ranks: tuple[int, ...]

    @property
    def is_isomorphism(self) -> bool:
        return self.chain_map_ok and self.preserves_projectable and all(
            a == b == r for a, b, r in zip(self.h_vb_source, self.h_vb_target, self.ranks)
        )


def pullback_lin(f: VBMap, lin_src: LinComplex, lin_tgt: LinComplex) -> dict[int, Matrix]:
    """The pullback chain map f*: C_lin(target of f) -> C_lin(source of f)."""
    v = f.source
    bm = f.base_map
    layout = lin_src.layout
    where = ("pullback_lin: image tuple not in Fib", "pullback-in-fib", "image")
    # an object's Fib basis is the identity, so its image is f on the fiber
    terms = [(layout.offsets[0][x], x, bm.obj_map[x], f.obj_maps[x], 1) for x in layout.nerve.strings[0]]
    out = {0: lin_tgt.evaluation(0, layout.dim(0), terms, where)}
    for p in range(1, lin_src.p_max + 1):
        terms = []
        for si, s in enumerate(layout.nerve.strings[p]):
            slots = v.slots(s, lin_src.fib_bases[p][si])
            mapped = Matrix.vstack([f.arr_maps[a] * w for a, w in zip(s, slots)])
            terms.append((layout.offsets[p][si], s, tuple(bm.arr_map[a] for a in s), mapped, 1))
        out[p] = lin_tgt.evaluation(p, layout.dim(p), terms, where)
    return out


def induced_map_vb(f: VBMap, p_max: int) -> InducedMapReport:
    """Assemble f* on linear and projectable cochains; verdict on H_VB.

    When f is VB-Morita the verdict must be an isomorphism in every degree
    <= p_max - 1; callers enforce that expectation.
    """
    check_vbmap(f).require("induced_map_vb: invalid map")
    lin_src = lin_complex(f.source, p_max)
    lin_tgt = lin_complex(f.target, p_max)
    pmat = pullback_lin(f, lin_src, lin_tgt)
    chain_ok = True
    for p in range(p_max):
        if pmat[p + 1] * lin_tgt.complex.differential(p) != lin_src.complex.differential(p) * pmat[p]:
            chain_ok = False
    sub_src = vb_subcomplex(lin_src)
    sub_tgt = vb_subcomplex(lin_tgt)
    preserves = True
    fmap: dict[int, Matrix] = {}
    for p in range(p_max + 1):
        coords = sub_src.bases[p].solve_matrix(pmat[p] * sub_tgt.bases[p])
        if coords is None:
            preserves = False
            coords = Matrix.zeros(sub_src.bases[p].cols, sub_tgt.bases[p].cols)
        fmap[p] = coords
    cert = chain_map_is_quasi_iso(sub_tgt.complex, sub_src.complex, fmap)
    return InducedMapReport(
        p_max=p_max,
        chain_map_ok=chain_ok,
        preserves_projectable=preserves,
        h_vb_source=tuple(d[1] for d in cert.degrees.values()),
        h_vb_target=tuple(d[0] for d in cert.degrees.values()),
        ranks=tuple(d[2] for d in cert.degrees.values()),
    )


# -- the shift isomorphism against the dual ------------------------------------------------


@dataclass(frozen=True)
class ShiftReport:
    degrees: tuple[int, ...]  # the degrees n compared
    ruth_dims: tuple[int, ...]  # dim H^n(G, E (+) C)
    vb_dims: tuple[int, ...]  # dim H^{n+1}_VB(dual Grothendieck)

    @property
    def ok(self) -> bool:
        return self.ruth_dims == self.vb_dims


def ruth_vs_dual_vb(r: TwoTermRuth, p_max: int, ruth_betti: Optional[Mapping[int, int]] = None) -> ShiftReport:
    """dim H^n(G, E (+) C) vs dim H^{n+1}_VB(Gamma*) for n <= p_max - 2.

    ``ruth_betti``, when given, must be ``betti_numbers(ruth_complex(r, p_max))``; a caller
    that already holds that table passes it so the complex is not built twice.  Gamma* is
    built as the Grothendieck construction of the dual ruth: ``dual_vb`` of grothendieck(r)
    would split it along its canonical cleavage, which gives back r.
    """
    if ruth_betti is None:
        ruth_betti = betti_numbers(ruth_complex(r, p_max))
    dual = grothendieck(dual_ruth(r))
    h_vb = betti_numbers(vb_subcomplex(lin_complex(dual, p_max)).complex)
    degrees = tuple(n for n in ruth_betti if n + 1 in h_vb)
    return ShiftReport(
        degrees=degrees,
        ruth_dims=tuple(ruth_betti[n] for n in degrees),
        vb_dims=tuple(h_vb[n + 1] for n in degrees),
    )
