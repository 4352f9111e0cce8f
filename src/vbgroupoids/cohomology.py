"""Cochain complexes over finite groupoids: ruth, linear, VB.

Bundle-valued cochains live on nerve strings, with the value of a degree-q
cochain at (g_1, ..., g_q) in the fiber over tgt(g_1).  Linear cochains on a
VB-groupoid are functionals on the fibered products Fib^p along base strings;
the VB-subcomplex consists of the projectable ones.  All differentials are
assembled as exact block matrices; d o d = 0 is a hard constructor check.

Every complex built here with ``p_max`` is ``truncated``: ``linalg`` reports its
cohomology only below p_max.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Mapping, Optional, Sequence

from .groupoid import NerveStrings, nerve
from .linalg import CochainComplex, Matrix, betti_numbers, chain_map_is_quasi_iso
from .report import violation_error
from .ruth import TwoTermRuth, check_ruth, dual_ruth
from .vb import (
    Cleavage,
    VBGroupoid,
    VBMap,
    check_cleavage,
    check_vbmap,
    choose_cleavage,
    coords_in,
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


def _quasi_action_differential(bc: _Layout, rho: Sequence[Matrix], q: int) -> Matrix:
    """The degree-1 operator of a (quasi-)action on bundle cochains ``bc``, C^q -> C^{q+1}.

    (D w)(g_1..g_{q+1}) = rho_{g_1} w(g_2..) + sum_i (-1)^i w(..g_i g_{i+1}..)
                          + (-1)^{q+1} w(g_1..g_q).
    """
    nv = bc.nerve
    blocks = []
    for si, s in enumerate(nv.strings[q + 1]):
        for i in range(q + 2):
            t_idx = nv.face(q + 1, i)[si]
            face = rho[s[0]] if i == 0 else Matrix.identity(bc.sizes[q][t_idx]).scale((-1) ** i)
            blocks.append(((si, t_idx), face))
    return Matrix.block(bc.sizes[q + 1], bc.sizes[q], blocks)


# -- ruth cochain complex -----------------------------------------------------------


def assemble_ruth_differential(
    r: TwoTermRuth, p_max: int, signs: tuple[int, int, int, int] = RUTH_DIFFERENTIAL_SIGNS
) -> CochainComplex:
    """C(G, E (+) C[1]) in degrees -1 .. p_max, with degree-p space C^p(G,E) (+) C^{p+1}(G,C),
    built with explicit component signs; D^2 = 0 is enforced."""
    s_e, s_anchor, s_c, s_gamma = signs
    g = r.base
    nv = nerve(g, p_max + 1)
    # the object tgt(g_1) whose fibers hold the values at (g_1, ..., g_q), and x for a 0-string x
    objs = [[s if q == 0 else g.tgt[s[0]] for s in level] for q, level in enumerate(nv.strings)]
    bce = _Layout(nv, [[r.e_dims[x] for x in level] for level in objs])
    bcc = _Layout(nv, [[r.c_dims[x] for x in level] for level in objs])

    def anchor_insertion(q: int) -> Matrix:
        return Matrix.block_diag([r.anchor[x] for x in objs[q]])

    def curvature_pairing(q: int) -> Matrix:
        # C^q(G,E) -> C^{q+2}(G,C): (gamma w)(g_1..g_{q+2}) = gamma_{g_1,g_2} w(g_3..)
        blocks = [
            ((si, nv.index[q][s[2:]] if q >= 1 else g.src[s[1]]), r.gamma[(s[0], s[1])])
            for si, s in enumerate(nv.strings[q + 2])
        ]
        return Matrix.block(bcc.sizes[q + 2], bce.sizes[q], blocks)

    diffs = []
    for p in range(-1, p_max):
        # block rows: C^{p+1}(G,E), C^{p+2}(G,C); block columns: C^p(G,E), C^{p+1}(G,C)
        blocks = {}
        if p >= 0:
            blocks[(0, 0)] = _quasi_action_differential(bce, r.rho_e, p).scale(s_e)
            blocks[(1, 0)] = curvature_pairing(p).scale(s_gamma)
        blocks[(0, 1)] = anchor_insertion(p + 1).scale(s_anchor)
        blocks[(1, 1)] = _quasi_action_differential(bcc, r.rho_c, p + 1).scale(s_c)
        diffs.append(Matrix.block([bce.dim(p + 1), bcc.dim(p + 2)], [bce.dim(p), bcc.dim(p + 1)], blocks))
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
    # per degree, per string: the fib_key of its Fib space (an object's is dim E_x)
    fib_keys: tuple[tuple[tuple, ...], ...] = field(compare=False, repr=False)
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

    def functional(
        self, p: int, s: tuple[int, ...], string: tuple[int, ...], image: Matrix, sign: int, where: tuple[str, str, str]
    ) -> tuple[int, Matrix]:
        """The index of the degree-p ``string`` and ``sign`` times the transposed coordinates of
        ``image`` in the Fib basis of ``string``: the block that sends a cochain on ``string`` to
        its values on the columns of ``image``, which a cochain operator places in the row of ``s``.

        ``where`` is (context, check, role); if a column of ``image`` leaves Fib, the violation
        ``check`` is raised at (p, s, string) with the detail "(degree, string, <role> string)".
        """
        t_idx = self.layout.nerve.index[p][string]
        context, check, role = where
        coords = coords_in(
            self.fib_bases[p][t_idx], image, context, check, (p, s, string), f"(degree, string, {role} string)"
        )
        return t_idx, coords.transpose().scale(sign)


def _face_image(v: VBGroupoid, s: tuple[int, ...], i: int, fib: Matrix) -> Matrix:
    """Rows of the i-th face applied to a basis of Fib(s); result in face coordinates."""
    parts = v.slots(s, fib)
    if 0 < i < len(s):
        parts[i - 1 : i + 1] = [v.mult_of(s[i - 1], s[i], parts[i - 1], parts[i])]
    else:
        del parts[0 if i == 0 else -1]
    return Matrix.vstack(parts)


def lin_complex(v: VBGroupoid, p_max: int) -> LinComplex:
    """The linear complex of ``v`` in degrees 0 .. p_max; D^2 = 0 is checked.

    Work is shared between strings with the same :func:`~vbgroupoids.vb.fib_key`: one Fib
    basis is built per key, and the coordinates of the first and the last face of a string
    of two or more arrows are computed once per key.  Those faces drop the first or the last
    slot, so they read only Fib(s) and the Fib spaces of s without its first or last arrow,
    whose keys are a suffix or a prefix of the key of s (or, for one arrow, the width of its
    key's last or first matrix).  Inner faces read m and are computed for every string.
    Only successes are kept, so the first failing (string, face) in loop order is reported.

    In a Grothendieck VB-groupoid whose s-maps are all one matrix, Fib(g_1, ..., g_p)
    depends only on (g_2, ..., g_p), so a key is shared by every choice of g_1.
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
    layout = _Layout(nv, [[b.cols for b in level] for level in fib_bases])
    diffs = []
    outer: dict[tuple[tuple, int], Matrix] = {}  # (key, face) -> signed coordinate block
    for p in range(p_max):
        blocks = []
        for si, s in enumerate(nv.strings[p + 1]):
            fib = fib_bases[p + 1][si]
            for i in range(p + 2):
                t_idx = nv.face(p + 1, i)[si]
                shared = (fib_keys[p + 1][si], i) if p and i in (0, p + 1) else None
                block = outer.get(shared)
                if block is None:
                    if p == 0:
                        coords = (v.s_maps[s[0]] if i == 0 else v.t_maps[s[0]]) * fib
                    else:
                        coords = coords_in(
                            fib_bases[p][t_idx],
                            _face_image(v, s, i, fib),
                            f"lin_complex: face image leaves Fib at degree {p + 1}",
                            "face-in-fib",
                            (p + 1, s, i),
                            "(degree, string, face)",
                        )
                    block = coords.transpose().scale((-1) ** i)
                    if shared:
                        outer[shared] = block
                blocks.append(((si, t_idx), block))
        diffs.append(Matrix.block(layout.sizes[p + 1], layout.sizes[p], blocks))
    cx = CochainComplex(0, p_max, tuple(layout.dim(p) for p in range(p_max + 1)), tuple(diffs), truncated=True)
    _require_d_squared_zero(cx, "lin_complex: delta^2 != 0", layout.string_at)
    return LinComplex(
        vb=v, p_max=p_max, layout=layout, fib_bases=tuple(fib_bases), complex=cx, fib_keys=tuple(fib_keys)
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
    """h: C^p_lin -> C^{p-1}_lin, (h phi)(w) = phi(w, sigma(w)^{-1})."""
    v = lin.vb
    g = v.base
    nv = lin.layout.nerve
    blocks = []
    if p == 1:
        # Fib of a 1-string is the whole fiber, with the identity as basis: the lift is its own coordinates
        for x in range(g.n_objects):
            ux = g.unit[x]
            appended = v.inverse_matrix(ux) * v.u_maps[x]
            blocks.append(((x, nv.index[1][(ux,)]), appended.transpose()))
        return Matrix.block(lin.layout.sizes[0], lin.layout.sizes[1], blocks)
    where = ("homotopy_operator: extended tuple not in Fib", "lift-in-fib", "extended")
    for si, s in enumerate(nv.strings[p - 1]):
        ext_string, ext = _append_lift_matrix(lin, c, s, lin.fib_bases[p - 1][si])
        t_idx, block = lin.functional(p, s, ext_string, ext, 1, where)
        blocks.append(((si, t_idx), block))
    return Matrix.block(lin.layout.sizes[p - 1], lin.layout.sizes[p], blocks)


def cancellation_operator(lin: LinComplex, p: int, h_here: Matrix, h_up: Matrix) -> Matrix:
    """I = id + (-1)^p (h delta - delta h) on degree p (needs p <= p_max - 1), from the homotopy
    operators h_here = h_p and h_up = h_{p+1} (at p = 0, h_here is the 0 x dim C^0 zero map)."""
    delta = lin.complex.differential
    return Matrix.identity(lin.dim(p)) + (h_up * delta(p) - delta(p - 1) * h_here).scale((-1) ** p)


def _displayed_cancellation(lin: LinComplex, c: Cleavage, p: int) -> Matrix:
    """The proof's four-term expression for I, assembled on full bases (p >= 2)."""
    v = lin.vb
    g = v.base
    nv = lin.layout.nerve
    blocks = []
    where = ("displayed cancellation: tuple not in Fib", "term-in-fib", "term")

    def place_term(si: int, s: tuple[int, ...], string: tuple[int, ...], slots: list[Matrix], sign: int) -> None:
        t_idx, block = lin.functional(p, s, string, Matrix.vstack(slots), sign, where)
        blocks.append(((si, t_idx), block))

    sgn_p = (-1) ** p
    for si, s in enumerate(nv.strings[p]):
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
    return Matrix.block(lin.layout.sizes[p], lin.layout.sizes[p], blocks)


def _zero_last_two_term(lin: LinComplex, p: int, cancellation: Matrix) -> tuple[Matrix, Matrix]:
    """Evaluate I = ``cancellation`` on trailing-zero tuples and the proof's two-term expression.

    Returns (lhs, rhs) as maps from degree-p cochain coordinates to stacked
    values on all trailing-zero basis vectors; they must agree exactly.
    """
    v = lin.vb
    g = v.base
    nv = lin.layout.nerve
    sizes = lin.layout.sizes[p]
    eye_rows = cancellation.split_rows(sizes)
    lhs_rows = []
    rhs_rows = []
    where = ("zero-last evaluation: tuple not in Fib", "zero-last-in-fib", "extended")
    sgn_p = (-1) ** p
    for si, s in enumerate(nv.strings[p]):
        fib = lin.fib_bases[p][si]
        z = lin.zero_last(p, si)
        if z.cols == 0:
            continue
        lhs_rows.append(z.transpose() * eye_rows[si])
        # two-term expression on (v_1, .., v_{p-1}, 0_g): drop the first slot
        tail = Matrix.vstack(v.slots(s, fib * z)[1:])
        terms = []
        for prod, sign in ((g.compose_many(*s), sgn_p), (g.compose_many(*s[1:]), -sgn_p)):
            ext_string = s[1:] + (g.inv[prod],)
            ext = Matrix.block([tail.rows, v.gamma_dims[g.inv[prod]]], [z.cols], {(0, 0): tail})
            t_idx, block = lin.functional(p, s, ext_string, ext, sign, where)
            terms.append(((0, t_idx), block))
        rhs_rows.append(Matrix.block([z.cols], sizes, terms))
    if not lhs_rows:
        zero = Matrix.zeros(0, lin.dim(p))
        return zero, zero
    return Matrix.vstack(lhs_rows), Matrix.vstack(rhs_rows)


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
    nv = lin_src.layout.nerve
    where = ("pullback_lin: image tuple not in Fib", "pullback-in-fib", "image")
    out: dict[int, Matrix] = {}
    p_max = lin_src.p_max
    blocks0 = [((x, bm.obj_map[x]), f.obj_maps[x].transpose()) for x in range(v.base.n_objects)]
    out[0] = Matrix.block(lin_src.layout.sizes[0], lin_tgt.layout.sizes[0], blocks0)
    for p in range(1, p_max + 1):
        blocks = []
        for si, s in enumerate(nv.strings[p]):
            image_string = tuple(bm.arr_map[a] for a in s)
            slots = v.slots(s, lin_src.fib_bases[p][si])
            mapped = Matrix.vstack([f.arr_maps[a] * w for a, w in zip(s, slots)])
            t_idx, block = lin_tgt.functional(p, s, image_string, mapped, 1, where)
            blocks.append(((si, t_idx), block))
        out[p] = Matrix.block(lin_src.layout.sizes[p], lin_tgt.layout.sizes[p], blocks)
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
        image = pmat[p] * sub_tgt.bases[p]
        coords = sub_src.bases[p].solve_matrix(image)
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
