"""Cochain complexes over finite groupoids: differentiable, ruth, linear, VB.

Bundle-valued cochains live on nerve strings, with the value of a degree-q
cochain at (g_1, ..., g_q) in the fiber over tgt(g_1).  Linear cochains on a
VB-groupoid are functionals on the fibered products Fib^p along base strings;
the VB-subcomplex consists of the projectable ones.  All differentials are
assembled as exact block matrices; d o d = 0 is a hard constructor check.

Degree truncation: a complex built with ``p_max`` carries trustworthy
cohomology only in degrees <= p_max - 1, and every report here respects that.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Mapping, Optional, Sequence

from .groupoid import NerveStrings, nerve
from .linalg import CochainComplex, Matrix, QuasiIsoCertificate, betti_numbers, chain_map_is_quasi_iso
from .report import InvalidStructureError, Report, Violation
from .ruth import TwoTermRuth, check_ruth
from .vb import (
    Cleavage,
    VBGroupoid,
    VBMap,
    check_cleavage,
    check_vbmap,
    choose_cleavage,
    dual_vb,
    grothendieck,
)

#: Frozen sign assignment for the ruth differential components
#: (quasi-action on E, anchor insertion, quasi-action on C, curvature pairing).
#: Fixed by requiring D^2 = 0 on fixtures with nonzero anchor, quasi-actions
#: and curvature; see the sign-search test.
RUTH_DIFFERENTIAL_SIGNS = (1, 1, -1, 1)


def _invalid(context: str, check: str, witness: tuple, detail: str) -> InvalidStructureError:
    return InvalidStructureError(context, Report([Violation(check, witness, detail)]))


def _fib_coords(basis: Matrix, image: Matrix, context: str, check: str, witness: tuple, detail: str) -> Matrix:
    """Coordinates of ``image``'s columns in the Fib basis ``basis``; raise the violation if they leave it."""
    coords = basis.solve_matrix(image)
    if coords is None:
        raise _invalid(context, check, witness, detail)
    return coords


def _string_at(nv: NerveStrings, offsets: Sequence[Sequence[int]], q: int, row: int) -> tuple:
    """The degree-q string whose coordinate block holds ``row``."""
    return nv.strings[q][bisect_right(offsets[q], row) - 1]


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
        raise _invalid(
            f"{context} at degree {p}",
            "d-squared",
            (p, row_string(p + 2, row), (row, col)),
            "(degree p, string of the row in degree p + 2, nonzero entry (row, col) of d^{p+1} d^p)",
        )


# -- bundle-valued cochains -------------------------------------------------------


class _BundleCochains:
    """Offsets for C^q(G, B) = (+) over q-strings of the fiber at tgt(g_1)."""

    def __init__(self, nv: NerveStrings, dims: Sequence[int]):
        self.nerve = nv
        g = nv.groupoid
        self.anchor_obj = [[s if q == 0 else g.tgt[s[0]] for s in nv.strings[q]] for q in range(nv.p_max + 1)]
        self.sizes = [[dims[x] for x in objs] for objs in self.anchor_obj]  # block size per q-string
        self.offsets = [list(accumulate(sizes, initial=0)) for sizes in self.sizes]

    def dim(self, q: int) -> int:
        return self.offsets[q][-1] if 0 <= q <= self.nerve.p_max else 0

    def string_at(self, q: int, row: int) -> tuple:
        return _string_at(self.nerve, self.offsets, q, row)


def _quasi_action_differential(
    nv: NerveStrings, bc: _BundleCochains, rho: Sequence[Matrix], q: int
) -> Matrix:
    """The degree-1 operator of a (quasi-)action on bundle cochains, C^q -> C^{q+1}.

    (D w)(g_1..g_{q+1}) = rho_{g_1} w(g_2..) + sum_i (-1)^i w(..g_i g_{i+1}..)
                          + (-1)^{q+1} w(g_1..g_q).
    """
    blocks = []
    for si, s in enumerate(nv.strings[q + 1]):
        for i in range(q + 2):
            t_idx = nv.face(q + 1, i)[si]
            face = rho[s[0]] if i == 0 else Matrix.identity(bc.sizes[q][t_idx]).scale((-1) ** i)
            blocks.append(((si, t_idx), face))
    return Matrix.block(bc.sizes[q + 1], bc.sizes[q], blocks)


def differentiable_complex(rep: TwoTermRuth, p_max: int) -> CochainComplex:
    """The complex C(G, E) of an honest representation (C = 0, gamma = 0)."""
    check_ruth(rep).require("differentiable_complex: invalid input")
    if any(d != 0 for d in rep.c_dims):
        raise ValueError("differentiable_complex: input must have trivial core (C = 0)")
    if any(not m.is_zero for m in rep.gamma.values()):
        raise ValueError("differentiable_complex: input must have zero curvature")
    nv = nerve(rep.base, p_max)
    bc = _BundleCochains(nv, rep.e_dims)
    diffs = tuple(_quasi_action_differential(nv, bc, rep.rho_e, q) for q in range(p_max))
    out = CochainComplex(0, p_max, tuple(bc.dim(q) for q in range(p_max + 1)), diffs)
    _require_d_squared_zero(out, "differentiable_complex: D^2 != 0", bc.string_at)
    return out


# -- ruth cochain complex -----------------------------------------------------------


@dataclass(frozen=True)
class RuthComplex:
    """C(G, E (+) C[1]) with degree-p space C^p(G,E) (+) C^{p+1}(G,C)."""

    ruth: TwoTermRuth
    p_max: int
    complex: CochainComplex  # degrees -1 .. p_max


def assemble_ruth_differential(
    r: TwoTermRuth, p_max: int, signs: tuple[int, int, int, int] = RUTH_DIFFERENTIAL_SIGNS
) -> RuthComplex:
    """Build the total complex with explicit component signs; D^2 = 0 is enforced."""
    s_e, s_anchor, s_c, s_gamma = signs
    nv = nerve(r.base, p_max + 1)
    bce = _BundleCochains(nv, r.e_dims)
    bcc = _BundleCochains(nv, r.c_dims)
    g = r.base

    def anchor_insertion(q: int) -> Matrix:
        return Matrix.block_diag([r.anchor[x] for x in bce.anchor_obj[q]])

    def curvature_pairing(q: int) -> Matrix:
        # C^q(G,E) -> C^{q+2}(G,C): (gamma w)(g_1..g_{q+2}) = gamma_{g_1,g_2} w(g_3..)
        blocks = [
            ((si, nv.index[q][s[2:]] if q >= 1 else g.src[s[1]]), r.gamma[(s[0], s[1])])
            for si, s in enumerate(nv.strings[q + 2])
        ]
        return Matrix.block(bcc.sizes[q + 2], bce.sizes[q], blocks)

    dims: list[int] = []
    e_dims_at: list[int] = []
    for p in range(-1, p_max + 1):
        de = bce.dim(p) if p >= 0 else 0
        dims.append(de + bcc.dim(p + 1))
        e_dims_at.append(de)
    diffs = []
    for p in range(-1, p_max):
        # block rows: C^{p+1}(G,E), C^{p+2}(G,C); block columns: C^p(G,E), C^{p+1}(G,C)
        blocks = {}
        if p >= 0:
            blocks[(0, 0)] = _quasi_action_differential(nv, bce, r.rho_e, p).scale(s_e)
            blocks[(1, 0)] = curvature_pairing(p).scale(s_gamma)
        blocks[(0, 1)] = anchor_insertion(p + 1).scale(s_anchor)
        blocks[(1, 1)] = _quasi_action_differential(nv, bcc, r.rho_c, p + 1).scale(s_c)
        heights = [e_dims_at[p + 2], dims[p + 2] - e_dims_at[p + 2]]
        diffs.append(Matrix.block(heights, [e_dims_at[p + 1], dims[p + 1] - e_dims_at[p + 1]], blocks))
    cx = CochainComplex(-1, p_max, tuple(dims), tuple(diffs))

    def row_string(q: int, row: int) -> tuple:
        # degree q of the total complex is C^q(G,E) (+) C^{q+1}(G,C)
        de = e_dims_at[q + 1]
        return ("E", bce.string_at(q, row)) if row < de else ("C", bcc.string_at(q + 1, row - de))

    _require_d_squared_zero(cx, f"ruth differential for signs {signs}: D^2 != 0", row_string)
    return RuthComplex(ruth=r, p_max=p_max, complex=cx)


def ruth_complex(r: TwoTermRuth, p_max: int) -> RuthComplex:
    check_ruth(r).require("ruth_complex: invalid ruth")
    return assemble_ruth_differential(r, p_max)


# -- linear cochains of a VB-groupoid --------------------------------------------------


@dataclass(frozen=True)
class LinComplex:
    """Duals of string-wise fibered products, with delta = alternating face sum."""

    vb: VBGroupoid
    p_max: int
    nerve: NerveStrings
    fib_bases: tuple[tuple[Matrix, ...], ...]  # per degree, per string
    offsets: tuple[tuple[int, ...], ...]
    complex: CochainComplex  # degrees 0 .. p_max

    def dim(self, p: int) -> int:
        return self.complex.dim(p)

    def sizes(self, p: int) -> list[int]:
        """The block size dim Fib(s) of each degree-p string s."""
        return [b.cols for b in self.fib_bases[p]]


def _face_image(v: VBGroupoid, s: tuple[int, ...], i: int, fib: Matrix) -> Matrix:
    """Rows of the i-th face applied to a basis of Fib(s); result in face coordinates."""
    parts = v.slots(s, fib)
    if 0 < i < len(s):
        parts[i - 1 : i + 1] = [v.mult_of(s[i - 1], s[i], parts[i - 1], parts[i])]
    else:
        del parts[0 if i == 0 else -1]
    return Matrix.vstack(parts)


def lin_complex(v: VBGroupoid, p_max: int) -> LinComplex:
    nv = nerve(v.base, p_max)
    g = v.base
    fib_bases: list[tuple[Matrix, ...]] = [tuple(Matrix.identity(v.e_dims[x]) for x in nv.strings[0])]
    for p in range(1, p_max + 1):
        fib_bases.append(tuple(v.fib_string_basis(s) for s in nv.strings[p]))
    sizes = [[b.cols for b in level] for level in fib_bases]
    offsets = [tuple(accumulate(level, initial=0)) for level in sizes]
    dims = tuple(offs[-1] for offs in offsets)
    diffs = []
    for p in range(p_max):
        blocks = []
        for si, s in enumerate(nv.strings[p + 1]):
            fib = fib_bases[p + 1][si]
            for i in range(p + 2):
                t_idx = nv.face(p + 1, i)[si]
                if p == 0:
                    coords = (v.s_maps[s[0]] if i == 0 else v.t_maps[s[0]]) * fib
                else:
                    coords = _fib_coords(
                        fib_bases[p][t_idx],
                        _face_image(v, s, i, fib),
                        f"lin_complex: face image leaves Fib at degree {p + 1}",
                        "face-in-fib",
                        (p + 1, s, i),
                        "(degree, string, face)",
                    )
                blocks.append(((si, t_idx), coords.transpose().scale((-1) ** i)))
        diffs.append(Matrix.block(sizes[p + 1], sizes[p], blocks))
    cx = CochainComplex(0, p_max, dims, tuple(diffs))
    _require_d_squared_zero(cx, "lin_complex: delta^2 != 0", lambda q, row: _string_at(nv, offsets, q, row))
    return LinComplex(vb=v, p_max=p_max, nerve=nv, fib_bases=tuple(fib_bases), offsets=tuple(offsets), complex=cx)


def _zero_last_vectors(v: VBGroupoid, s: tuple[int, ...], fib: Matrix, zeros: int = 1) -> Matrix:
    """Coordinates (in the Fib basis) of the subspace with trailing zero slots."""
    return Matrix.vstack(v.slots(s, fib)[-zeros:]).kernel()


def _projectable_blocks(lin: LinComplex, p: int, zeros: int = 1) -> list[tuple[tuple[int, tuple], Matrix]]:
    """Condition rows cutting out cochains vanishing on trailing-zero tuples, per string.

    Rows cover condition (i) at degree p and condition (ii') through the
    differential into degree p + 1; each block is labelled (degree, string).
    """
    v = lin.vb
    nv = lin.nerve
    rows: list[tuple[tuple[int, tuple], Matrix]] = []
    if p >= zeros:
        sizes = lin.sizes(p)
        for si, s in enumerate(nv.strings[p]):
            z = _zero_last_vectors(v, s, lin.fib_bases[p][si], zeros)
            if z.cols:
                rows.append(((p, s), Matrix.block([z.cols], sizes, {(0, si): z.transpose()})))
    if zeros <= p + 1 <= lin.p_max:
        delta_rows = lin.complex.differential(p).split_rows(lin.sizes(p + 1))
        for si, s in enumerate(nv.strings[p + 1]):
            z = _zero_last_vectors(v, s, lin.fib_bases[p + 1][si], zeros)
            if z.cols:
                rows.append(((p + 1, s), z.transpose() * delta_rows[si]))
    return rows


def _projectable_conditions(lin: LinComplex, p: int, zeros: int) -> Matrix:
    rows = [m for _, m in _projectable_blocks(lin, p, zeros)]
    return Matrix.vstack(rows) if rows else Matrix.zeros(0, lin.dim(p))


@dataclass(frozen=True)
class VBSubcomplex:
    """The projectable subcomplex, with a hybrid top degree for truncation.

    ``bases[p]`` gives the subspace basis in linear coordinates for degrees
    0 .. p_max - 1; the associated complex uses the full linear space in the
    top degree p_max so kernel computations at p_max - 1 stay honest.
    """

    lin: LinComplex
    bases: tuple[Matrix, ...]
    complex: CochainComplex


def _subcomplex_from_bases(
    lin: LinComplex, bases: list[Matrix]
) -> tuple[Optional[CochainComplex], Optional[int]]:
    """The complex on ``bases`` and None, or None and the first degree whose basis
    delta maps out of the span of the next one."""
    p_top = lin.p_max
    dims = tuple(b.cols for b in bases) + (lin.dim(p_top),)
    diffs = []
    for p in range(p_top):
        delta = lin.complex.differential(p)
        if p + 1 < p_top:
            coords = bases[p + 1].solve_matrix(delta * bases[p])
            if coords is None:
                return None, p
            diffs.append(coords)
        else:
            diffs.append(delta * bases[p])
    return CochainComplex(0, p_top, dims, tuple(diffs)), None


def _filtration_bases(lin: LinComplex, level: int) -> list[Matrix]:
    """Bases of the filtration level F_level in degrees 0 .. p_max - 1: the cochains that
    vanish, with their coboundaries, on tuples whose last ``level`` slots are zero."""
    return [
        _projectable_conditions(lin, p, level).kernel() if p else Matrix.identity(lin.dim(0))
        for p in range(lin.p_max)
    ]


def _iso_below(cert: QuasiIsoCertificate, p_max: int) -> bool:
    """Whether dim H_source = dim H_target = rank in every degree below ``p_max``."""
    return all(h_src == h_tgt == rank for h_src, h_tgt, rank in (cert.degrees[p] for p in range(p_max)))


def vb_subcomplex(lin: LinComplex) -> VBSubcomplex:
    """Projectable cochains: condition (i) plus (ii') as exact linear conditions."""
    bases = _filtration_bases(lin, 1)
    cx, p = _subcomplex_from_bases(lin, bases)
    if cx is None:
        image = lin.complex.differential(p) * bases[p]
        j = next(j for j in range(image.cols) if bases[p + 1].solve_matrix(image.take_cols([j])) is None)
        column = image.take_cols([j])
        violated = next((label for label, m in _projectable_blocks(lin, p + 1) if not (m * column).is_zero), None)
        raise _invalid(
            "vb_subcomplex: delta does not preserve the subcomplex",
            "subcomplex-closed",
            (p, j, violated),
            "(degree, basis column, (degree, string) of a condition its coboundary violates)",
        )
    return VBSubcomplex(lin=lin, bases=tuple(bases), complex=cx)


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
    nv = lin.nerve
    blocks = []
    if p == 1:
        # Fib of a 1-string is the whole fiber, with the identity as basis: the lift is its own coordinates
        for x in range(g.n_objects):
            ux = g.unit[x]
            appended = v.inverse_matrix(ux) * v.u_maps[x]
            blocks.append(((x, nv.index[1][(ux,)]), appended.transpose()))
        return Matrix.block(lin.sizes(0), lin.sizes(1), blocks)
    for si, s in enumerate(nv.strings[p - 1]):
        fib = lin.fib_bases[p - 1][si]
        ext_string, ext = _append_lift_matrix(lin, c, s, fib)
        t_idx = nv.index[p][ext_string]
        coords = _fib_coords(
            lin.fib_bases[p][t_idx],
            ext,
            "homotopy_operator: extended tuple not in Fib",
            "lift-in-fib",
            (p, s, ext_string),
            "(degree, string, extended string)",
        )
        blocks.append(((si, t_idx), coords.transpose()))
    return Matrix.block(lin.sizes(p - 1), lin.sizes(p), blocks)


def cancellation_operator(lin: LinComplex, c: Cleavage, p: int) -> Matrix:
    """I = id + (-1)^p (h delta - delta h) on degree p (needs p <= p_max - 1)."""
    h_up = homotopy_operator(lin, c, p + 1)
    h_here = homotopy_operator(lin, c, p) if p >= 1 else Matrix.zeros(0, lin.dim(0))
    delta_here = lin.complex.differential(p)
    delta_below = lin.complex.differential(p - 1)
    ident = Matrix.identity(lin.dim(p))
    hd = h_up * delta_here
    dh = (delta_below * h_here) if p >= 1 else Matrix.zeros(lin.dim(0), lin.dim(0))
    sign = 1 if p % 2 == 0 else -1
    comm = hd - dh
    return ident + (comm if sign == 1 else -comm)


def _displayed_cancellation(lin: LinComplex, c: Cleavage, p: int) -> Matrix:
    """The proof's four-term expression for I, assembled on full bases (p >= 2)."""
    v = lin.vb
    g = v.base
    nv = lin.nerve
    blocks = []

    def place_term(si: int, string: tuple[int, ...], mat: Matrix, sign: int) -> None:
        t_idx = nv.index[p][string]
        coords = _fib_coords(
            lin.fib_bases[p][t_idx],
            mat,
            "displayed cancellation: tuple not in Fib",
            "term-in-fib",
            (p, nv.strings[p][si], string),
            "(degree, string, term string)",
        )
        blocks.append(((si, t_idx), coords.transpose().scale(sign)))

    sgn_p = 1 if p % 2 == 0 else -1
    for si, s in enumerate(nv.strings[p]):
        parts = v.slots(s, lin.fib_bases[p][si])
        head, last, tail = parts[:-1], parts[-1], parts[1:]
        prod_all = g.compose_many(*s)
        src_last = v.s_maps[s[-1]] * last
        lift_all = c.sigma[prod_all] * src_last
        inv_all = v.inverse_matrix(prod_all) * lift_all
        # term 1: last slot multiplied by the inverted total lift
        new_last = v.mult_of(s[-1], g.inv[prod_all], last, inv_all)
        t1_string = s[:-1] + (g.compose(s[-1], g.inv[prod_all]),)
        place_term(si, t1_string, Matrix.vstack([*head, new_last]), 1)
        # term 2: drop first, append the inverted total lift
        t2_string = s[1:] + (g.inv[prod_all],)
        place_term(si, t2_string, Matrix.vstack([*tail, inv_all]), sgn_p)
        # term 3: drop last, append the inverted lift of the shortened product
        prod_head = g.compose_many(*s[:-1])
        src_prev = v.s_maps[s[-2]] * parts[-2]
        inv_head = v.inverse_matrix(prod_head) * (c.sigma[prod_head] * src_prev)
        t3_string = s[:-1] + (g.inv[prod_head],)
        place_term(si, t3_string, Matrix.vstack([*head, inv_head]), -1)
        # term 4: drop first, append the inverted lift of the shifted product
        prod_tail = g.compose_many(*s[1:])
        inv_tail = v.inverse_matrix(prod_tail) * (c.sigma[prod_tail] * src_last)
        t4_string = s[1:] + (g.inv[prod_tail],)
        place_term(si, t4_string, Matrix.vstack([*tail, inv_tail]), -sgn_p)
    return Matrix.block(lin.sizes(p), lin.sizes(p), blocks)


def _zero_last_two_term(lin: LinComplex, c: Cleavage, p: int) -> tuple[Matrix, Matrix]:
    """Evaluate I on trailing-zero tuples and the proof's two-term expression.

    Returns (lhs, rhs) as maps from degree-p cochain coordinates to stacked
    values on all trailing-zero basis vectors; they must agree exactly.
    """
    v = lin.vb
    g = v.base
    nv = lin.nerve
    sizes = lin.sizes(p)
    eye_rows = cancellation_operator(lin, c, p).split_rows(sizes)
    lhs_rows = []
    rhs_rows = []
    sgn_p = 1 if p % 2 == 0 else -1
    for si, s in enumerate(nv.strings[p]):
        fib = lin.fib_bases[p][si]
        z = _zero_last_vectors(v, s, fib, 1)
        if z.cols == 0:
            continue
        lhs_rows.append(z.transpose() * eye_rows[si])
        # two-term expression on (v_1, .., v_{p-1}, 0_g): drop the first slot
        tail = Matrix.vstack(v.slots(s, fib * z)[1:])
        prod_all = g.compose_many(*s)
        prod_tail = g.compose_many(*s[1:])
        terms = []
        for prod, sign in ((prod_all, sgn_p), (prod_tail, -sgn_p)):
            ext_string = s[1:] + (g.inv[prod],)
            ext = Matrix.block([tail.rows, v.gamma_dims[g.inv[prod]]], [z.cols], {(0, 0): tail})
            t_idx = nv.index[p][ext_string]
            coords = _fib_coords(
                lin.fib_bases[p][t_idx],
                ext,
                "zero-last evaluation: tuple not in Fib",
                "zero-last-in-fib",
                (p, s, ext_string),
                "(degree, string, extended string)",
            )
            terms.append(((0, t_idx), coords.transpose().scale(sign)))
        rhs_rows.append(Matrix.block([z.cols], sizes, terms))
    if not lhs_rows:
        zero = Matrix.zeros(0, lin.dim(p))
        return zero, zero
    return Matrix.vstack(lhs_rows), Matrix.vstack(rhs_rows)


@dataclass(frozen=True)
class HvbHlinReport:
    p_max: int
    dims_lin: tuple[int, ...]  # cochain dims, degrees 0 .. p_max
    dims_vb: tuple[int, ...]  # degrees 0 .. p_max - 1
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
    displayed cancellation identity on full bases, its specialization to
    trailing-zero tuples, and that each filtration inclusion F_i in F_{i+1} is a
    quasi-isomorphism in the trusted range.
    """
    if cleavage is None:
        cleavage = choose_cleavage(v)
    check_cleavage(v, cleavage).require("hvb_equals_hlin: invalid cleavage")
    lin = lin_complex(v, p_max)
    sub = vb_subcomplex(lin)
    fmap = {p: sub.bases[p] for p in range(p_max)}
    fmap[p_max] = Matrix.identity(lin.dim(p_max))
    # the inclusion's certificate carries both cohomologies: (dim H_VB, dim H_lin, rank)
    cert = chain_map_is_quasi_iso(sub.complex, lin.complex, fmap)
    h_vb = tuple(cert.degrees[p][0] for p in range(p_max))
    h_lin = tuple(cert.degrees[p][1] for p in range(p_max))
    inclusion_iso = _iso_below(cert, p_max)
    homotopy_identity = True
    zero_last_identity = True
    for p in range(2, p_max):
        if cancellation_operator(lin, cleavage, p) != _displayed_cancellation(lin, cleavage, p):
            homotopy_identity = False
    for p in range(2, p_max):
        lhs, rhs = _zero_last_two_term(lin, cleavage, p)
        if lhs != rhs:
            zero_last_identity = False
    filtration_ok = True
    prev_bases = list(sub.bases)
    prev_cx = sub.complex
    for level in range(2, p_max + 1):
        bases = _filtration_bases(lin, level)
        cx, _ = _subcomplex_from_bases(lin, bases)
        if cx is None:
            filtration_ok = False
            break
        fmap_lvl: dict[int, Matrix] = {}
        consistent = True
        for p in range(p_max):
            coords = bases[p].solve_matrix(prev_bases[p])
            if coords is None:
                consistent = False
                break
            fmap_lvl[p] = coords
        if not consistent:
            filtration_ok = False
            break
        fmap_lvl[p_max] = Matrix.identity(lin.dim(p_max))
        if not _iso_below(chain_map_is_quasi_iso(prev_cx, cx, fmap_lvl), p_max):
            filtration_ok = False
            break
        prev_bases = bases
        prev_cx = cx
    if filtration_ok:
        # top filtration level must reach the full linear complex
        for p in range(1, p_max):
            if prev_bases[p].rank() != lin.dim(p):
                filtration_ok = False
    return HvbHlinReport(
        p_max=p_max,
        dims_lin=tuple(lin.dim(p) for p in range(p_max + 1)),
        dims_vb=tuple(b.cols for b in sub.bases),
        h_lin=h_lin,
        h_vb=h_vb,
        inclusion_iso=inclusion_iso,
        homotopy_identity=homotopy_identity,
        zero_last_identity=zero_last_identity,
        filtration_quasi_iso=filtration_ok,
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
    nv = lin_src.nerve
    nv_t = lin_tgt.nerve
    out: dict[int, Matrix] = {}
    p_max = lin_src.p_max
    blocks0 = [((x, bm.obj_map[x]), f.obj_maps[x].transpose()) for x in range(v.base.n_objects)]
    out[0] = Matrix.block(lin_src.sizes(0), lin_tgt.sizes(0), blocks0)
    for p in range(1, p_max + 1):
        blocks = []
        for si, s in enumerate(nv.strings[p]):
            image_string = tuple(bm.arr_map[a] for a in s)
            t_idx = nv_t.index[p][image_string]
            slots = v.slots(s, lin_src.fib_bases[p][si])
            mapped = Matrix.vstack([f.arr_maps[a] * w for a, w in zip(s, slots)])
            coords = _fib_coords(
                lin_tgt.fib_bases[p][t_idx],
                mapped,
                "pullback_lin: image tuple not in Fib",
                "pullback-in-fib",
                (p, s, image_string),
                "(degree, string, image string)",
            )
            blocks.append(((si, t_idx), coords.transpose()))
        out[p] = Matrix.block(lin_src.sizes(p), lin_tgt.sizes(p), blocks)
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
    for p in range(p_max):
        image = pmat[p] * sub_tgt.bases[p]
        coords = sub_src.bases[p].solve_matrix(image)
        if coords is None:
            preserves = False
            coords = Matrix.zeros(sub_src.bases[p].cols, sub_tgt.bases[p].cols)
        fmap[p] = coords
    fmap[p_max] = pmat[p_max]
    cert = chain_map_is_quasi_iso(sub_tgt.complex, sub_src.complex, fmap)
    return InducedMapReport(
        p_max=p_max,
        chain_map_ok=chain_ok,
        preserves_projectable=preserves,
        h_vb_source=tuple(cert.degrees[p][1] for p in range(p_max)),
        h_vb_target=tuple(cert.degrees[p][0] for p in range(p_max)),
        ranks=tuple(cert.degrees[p][2] for p in range(p_max)),
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

    ``ruth_betti``, when given, must be ``betti_numbers(ruth_complex(r, p_max).complex)``;
    a caller that already holds that table passes it so the complex is not built twice.
    """
    if ruth_betti is None:
        ruth_betti = betti_numbers(ruth_complex(r, p_max).complex)
    dual = dual_vb(grothendieck(r))
    h_vb = betti_numbers(vb_subcomplex(lin_complex(dual, p_max)).complex)
    degrees = tuple(range(-1, p_max - 1))
    return ShiftReport(
        degrees=degrees,
        ruth_dims=tuple(ruth_betti[n] for n in degrees),
        vb_dims=tuple(h_vb[n + 1] for n in degrees),
    )
