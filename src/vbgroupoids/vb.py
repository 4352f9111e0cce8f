"""VB-groupoids as linear-groupoid presentations over a finite groupoid.

A :class:`VBGroupoid` assigns a fiber E_x to every object and Gamma_g to every
arrow, with linear source/target/unit/multiplication matrices.  The
multiplication m_{g,h} is stored as a full matrix on Gamma_g (+) Gamma_h whose
restriction to the fibered product Fib(g,h) = {(v,w) : s v = t w} is the
semantic product; all checks restrict to computed Fib bases.  Inversion is not
stored: it is recovered on demand by solving v w = unit(t v), t w = s v.

The module implements the Grothendieck construction and its inverse
(splitting along a cleavage), the correspondence for maps, VB-Morita
certification (Morita base + fiberwise core quasi-isomorphism), duals,
the arrow VB-groupoid, twists by core-valued data, quasi-inverses of
VB-Morita maps, and stable decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Optional, Sequence

from .groupoid import (
    ArrowGroupoid,
    FiniteGroupoid,
    GroupoidMap,
    arrow_groupoid,
    compose_maps,
    composable_strings,
    generating_arrows,
    identity_map,
    is_morita,
    MoritaCertificate,
    validate_groupoid,
    validate_map,
)
from .linalg import (
    Matrix,
    QuasiIsoCertificate,
    Subspace,
    chain_map_is_quasi_iso,
    complement_space,
    fibered_product,
    intersection_spaces,
    kernel_space,
    preimage_space,
    products_equal,
    two_term_complex,
)
from .report import InvalidStructureError, Report, checked_once, violation_error
from .ruth import (
    Bundle,
    RuthMorphism,
    TwoTermRuth,
    check_ruth,
    check_ruth_morphism,
    dual_morphism,
    dual_ruth,
    summand_projection,
)


class NotVBMoritaError(ValueError):
    """Raised when an operation requires a certified VB-Morita map."""


@dataclass(frozen=True)
class VBGroupoid:
    """A vector of Fib(g_1, ..., g_p) stacks one row block per arrow, in string order;
    :meth:`slots` is the one owner of that layout and cuts such vectors into their blocks."""

    base: FiniteGroupoid
    e_dims: Bundle
    gamma_dims: tuple[int, ...]  # fiber dim per arrow
    s_maps: tuple[Matrix, ...]  # per arrow: Gamma_g -> E_{src g}
    t_maps: tuple[Matrix, ...]  # per arrow: Gamma_g -> E_{tgt g}
    u_maps: tuple[Matrix, ...]  # per object: E_x -> Gamma_{unit x}
    m_maps: dict[tuple[int, int], Matrix] = field(hash=False)  # per composable pair, full matrix
    # inverse_matrix results by arrow: successes only, so a failing inversion raises on every call
    _inverses: dict[int, Matrix] = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def mult_blocks(self, g: int, h: int) -> tuple[Matrix, Matrix]:
        """Column blocks (M1, M2) of the full multiplication on Gamma_g (+) Gamma_h."""
        m = self.m_maps[(g, h)]
        dg = self.gamma_dims[g]
        return m.take_cols(range(dg)), m.take_cols(range(dg, m.cols))

    def mult_of(self, g: int, h: int, a: Matrix, b: Matrix) -> Matrix:
        """Full-matrix product of two column families over g and h.

        Valid wherever the pairs are composable; callers are responsible for
        only reading entries whose inputs satisfy s a = t b.  ``a`` must have
        ``gamma_dims[g]`` rows and ``b`` ``gamma_dims[h]`` rows (ValueError
        otherwise), so the product is one ``m_{g,h} [a; b]``.
        """
        if a.rows != self.gamma_dims[g] or b.rows != self.gamma_dims[h]:
            raise ValueError(
                f"mult_of: {a.rows}+{b.rows} rows over ({g}, {h}), want "
                f"{self.gamma_dims[g]}+{self.gamma_dims[h]}"
            )
        return self.m_maps[(g, h)] * Matrix.vstack([a, b])

    def conjugate(self, l: int, g: int, r: int, left: Matrix, mid: Matrix, right: Matrix) -> Matrix:
        """The product left . mid . right^{-1} over the arrow l g r^{-1}.

        ``left``, ``mid`` and ``right`` are column families over l, g and r; the inverse
        of ``right`` is taken with :meth:`inverse_matrix`.
        """
        first = self.mult_of(l, g, left, mid)
        return self.mult_of(self.base.compose(l, g), self.base.inv[r], first, self.inverse_matrix(r) * right)

    def slots(self, arrows: Sequence[int], m: Matrix) -> list[Matrix]:
        """The row block of ``m`` over each arrow of the string ``arrows``, in order."""
        return m.split_rows([self.gamma_dims[a] for a in arrows])

    def fib_string_basis(self, arrows: Sequence[int]) -> Matrix:
        """Basis of the p-fold fibered product along a composable string."""
        if not arrows:
            raise ValueError("empty string")
        if len(arrows) == 1:
            return Matrix.identity(self.gamma_dims[arrows[0]])
        blocks = {}
        for i, (a, b) in enumerate(zip(arrows, arrows[1:])):
            blocks[(i, i)] = self.s_maps[a]
            blocks[(i, i + 1)] = -self.t_maps[b]
        heights = [self.s_maps[a].rows for a in arrows[:-1]]
        return Matrix.block(heights, [self.gamma_dims[a] for a in arrows], blocks).kernel()

    def inverse_matrix(self, g: int) -> Matrix:
        """The linear inversion Gamma_g -> Gamma_{g inv}, solved from the axioms once per arrow."""
        w = self._inverses.get(g)
        if w is not None:
            return w
        base = self.base
        gi = base.inv[g]
        m1, m2 = self.mult_blocks(g, gi)
        # column k of the unknown W is w for basis vector v_k:  m(v, w) = u(t v)  and  t(w) = s(v)
        a = Matrix.vstack([m2, self.t_maps[gi]])
        b = Matrix.vstack([self.u_maps[base.tgt[g]] * self.t_maps[g] - m1, self.s_maps[g]])
        w = a.solve_matrix(b)
        if w is None:
            k = next(k for k in range(b.cols) if a.solve(b.col(k)) is None)
            raise violation_error(f"no inverse for basis vector {k} over arrow {g}", "inverse-missing", (g, k))
        self._inverses[g] = w
        return w


@dataclass(frozen=True)
class CoreData:
    """Core bundle of a VB-groupoid: kernel bases of s at units, with anchors."""

    basis: tuple[Matrix, ...]  # per object: Gamma_{unit x} x c_x
    anchor: tuple[Matrix, ...]  # per object: C_x -> E_x in the kernel basis

    @property
    def dims(self) -> Bundle:
        return tuple(k.cols for k in self.basis)


def core(v: VBGroupoid) -> CoreData:
    basis = []
    anchor = []
    for x in range(v.base.n_objects):
        u = v.base.unit[x]
        k = v.s_maps[u].kernel()
        basis.append(k)
        anchor.append(v.t_maps[u] * k)
    return CoreData(basis=tuple(basis), anchor=tuple(anchor))


def is_acyclic(v: VBGroupoid) -> bool:
    """Whether the core anchor is a fiberwise isomorphism."""
    return all(a.is_invertible for a in core(v).anchor)


def coords_in(basis: Matrix, image: Matrix, context: str, check: str, witness: tuple, detail: str = "") -> Matrix:
    """Coordinates of ``image``'s columns in ``basis``; raise the violation ``check`` at ``witness``
    if a column leaves its span."""
    coords = basis.solve_matrix(image)
    if coords is None:
        raise violation_error(context, check, witness, detail)
    return coords


def fib_key(v: VBGroupoid, arrows: Sequence[int]) -> tuple:
    """A key that determines ``v.fib_string_basis(arrows)`` and the heights of its slots.

    Fib(g_1, ..., g_p) for p >= 2 is the kernel of a block matrix built from s_{g_i} and
    t_{g_{i+1}} alone, so the key is those matrices by value, in string order; their shapes fix
    the block heights and widths.  Fib of one arrow is its whole fiber, keyed by its dimension.
    """
    if len(arrows) == 1:
        return (v.gamma_dims[arrows[0]],)
    return tuple(m for a, b in zip(arrows, arrows[1:]) for m in (v.s_maps[a], v.t_maps[b]))


def _call_memo(v: VBGroupoid) -> tuple[Callable[..., Any], Callable[[Sequence[int]], tuple]]:
    """``(once, fib)`` over one memo that lasts one checker call on ``v``.

    ``once(key, compute)`` is ``compute()``, computed once per distinct ``key``, where the
    matrices in a key are structure matrices of ``v`` and compare by value.  The structure
    matrices are numbered by value once, when the memo is made, and each is replaced by its
    number in the key, found by its id (any other element stands for itself), so a lookup
    compares integers, not matrices.  A checker's keys start with the identity's name, so they
    never equal a Fib key.  ``fib(arrows)`` is ``v.slots(arrows, v.fib_string_basis(arrows))``,
    computed once per distinct :func:`fib_key`, and glued for 3 or more arrows (see
    :func:`check_vbgroupoid`).
    """
    by_value: dict[Matrix, int] = {}
    # v holds every structure matrix until the call ends, so no other object has the id of one
    structure = (*v.s_maps, *v.t_maps, *v.u_maps, *v.m_maps.values())
    number = {id(m): by_value.setdefault(m, len(by_value)) for m in structure}
    memo: dict[tuple, Any] = {}

    def once(key: tuple, compute: Callable[[], Any]) -> Any:
        key = tuple(map(number.get, map(id, key), key))
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def fib(arrows: Sequence[int]) -> tuple[Matrix, ...]:
        def compute() -> tuple[Matrix, ...]:
            glued = fibered_product(fib(arrows[:2]), fib(arrows[1:])) if len(arrows) > 2 else None
            return tuple(v.slots(arrows, v.fib_string_basis(arrows))) if glued is None else glued

        return once(fib_key(v, arrows), compute)

    return once, fib


def _failing_strings(
    g: FiniteGroupoid, length: int, reduced: bool, law: Callable[..., bool]
) -> list[tuple[int, ...]]:
    """The composable strings of ``length`` arrows of ``g`` on which ``law`` fails, in order.

    With ``reduced``, ``law`` is first tried only on the strings whose first arrow lies in
    :func:`~vbgroupoids.groupoid.generating_arrows` of ``g``, and if it holds on all of them no
    other string is tried.  Otherwise every string is tried, so the failures are those of the
    full list, in its order.
    """
    if reduced:
        failed = [x for x in composable_strings(g, length, generating_arrows(g))[-1] if not law(*x)]
        if not failed:
            return failed
    return [x for x in composable_strings(g, length)[-1] if not law(*x)]


@checked_once
def check_vbgroupoid(v: VBGroupoid) -> Report:
    """Every VB-groupoid axiom of ``v``, one violation per failing arrow, pair or triple.

    A pullback built by reindexing (``base_change``, ``descend_object``) or read from a file
    repeats equal structure matrices over many arrows, pairs and triples.  So each identity
    past the shape checks is computed once per distinct tuple of the structure matrices it
    reads, and its result is then recorded for every arrow, pair or triple with that key; a
    Fib basis is computed once per :func:`fib_key` (:func:`_call_memo`).  The keys compare the
    matrices by value, through numbers given to them once per call, which is sound because a
    ``Matrix`` is immutable.  A Fib basis of 3 or more arrows is glued (``linalg.fibered_product``)
    from those of its first pair and of the rest, whose keys are a prefix and a suffix of its key;
    ``fib_string_basis`` computes it only where the glue does not apply, which needs an s that is
    not surjective.  The laws compare products with ``linalg.products_equal``, which builds no
    intermediate matrix.

    Associativity is first computed only on the triples whose first arrow lies in
    T = :func:`~vbgroupoids.groupoid.generating_arrows` of the base, and mult-source/target only
    on the pairs whose first arrow lies in T', the arrows of T and their inverses.  That reduced
    pass is taken only when the base passes ``validate_groupoid`` and every other law holds:
    s/t-surjective, unit sections, both unit laws and the inverse check at every arrow.  If
    the gate fails, or the reduced pass finds a failing pair or triple, every pair and triple
    is computed (the reduced pass's results are reused), so a failing report lists every
    witness in the usual order.  A passing reduced pass proves both laws on every pair and
    triple.  Write a(p, q, r) = m(m(p, q), r) - m(p, m(q, r)):

    1. For t in T and any g' with src t = tgt g', m maps Fib(t, g') onto Gamma_{tg'}.
       Given gamma, take w in Gamma_t with t w = t gamma (t-surjectivity) and
       x = m(inv w, gamma), defined since s(inv w) = s m(w, inv w) = s u(t w) = t w.
       Associativity at (t, t^-1, tg'), a reduced triple, gives
       m(w, x) = m(m(w, inv w), gamma) = m(u(t gamma), gamma) = gamma by the left unit
       law; and t x = t(inv w) = s w, s x = s gamma.  This reads mult-source/target only
       at (t, t^-1) and (t^-1, tg'), reduced pairs.
    2. Let S' be the arrows h with mult-source/target on every pair starting with h; S'
       contains T'.  For t in T, h in S' and (p, q) in Fib(th, g2), 1 gives p = m(w, x)
       with (w, x) in Fib(t, h) and s x = s p = t q.  Associativity at (t, h, g2) gives
       m(p, q) = m(w, m(x, q)), and mult-target at (h, g2) puts (w, m(x, q)) in
       Fib(t, hg2).  So s m(p, q) = s m(x, q) = s q and t m(p, q) = t w = t p, and th is
       in S'.  Every arrow is a nonempty product of T-arrows, so S' is every arrow.
    3. Each m is linear and the mult-source/target laws hold, so for (w, x, y, z) in
       Fib(g0, g1, g2, g3) both sides below are defined, and expanding them gives
       a(wx, y, z) + a(w, x, yz) = m(a(w, x, y), 0) + a(w, xy, z) + m(0, a(x, y, z)).
    4. Let S be the arrows h with a = 0 on every triple starting with h; S contains T.
       For t in T and h in S, every triple (p, y, z) over (th, g2, g3) has p = m(w, x)
       with (w, x, y, z) in Fib(t, h, g2, g3) by 1, and in 3 every term but
       a(wx, y, z) starts with t or h, so th is in S; so S is every arrow.
    """
    rep = Report()
    g = v.base
    if len(v.e_dims) != g.n_objects or len(v.gamma_dims) != g.n_arrows:
        rep.add("dims", (), "tables sized wrong")
        return rep
    for a in range(g.n_arrows):
        if (v.s_maps[a].rows, v.s_maps[a].cols) != (v.e_dims[g.src[a]], v.gamma_dims[a]):
            rep.add("s-shape", (a,))
        if (v.t_maps[a].rows, v.t_maps[a].cols) != (v.e_dims[g.tgt[a]], v.gamma_dims[a]):
            rep.add("t-shape", (a,))
    for x in range(g.n_objects):
        if (v.u_maps[x].rows, v.u_maps[x].cols) != (v.gamma_dims[g.unit[x]], v.e_dims[x]):
            rep.add("u-shape", (x,))
    if set(v.m_maps) != set(g.pairs):
        rep.add("m-domain", ())
    else:
        for (g1, g2), m in v.m_maps.items():
            g12 = g.compose(g1, g2)
            if (m.rows, m.cols) != (v.gamma_dims[g12], v.gamma_dims[g1] + v.gamma_dims[g2]):
                rep.add("m-shape", (g1, g2))
    if not rep.ok:
        return rep
    s, t, u, m = v.s_maps, v.t_maps, v.u_maps, v.m_maps
    once, fib = _call_memo(v)
    for a in range(g.n_arrows):
        if not once(("s-surjective", s[a]), lambda: s[a].rank() == s[a].rows):
            rep.add("s-surjective", (a,))
        if not once(("t-surjective", t[a]), lambda: t[a].rank() == t[a].rows):
            rep.add("t-surjective", (a,))
    for x in range(g.n_objects):
        unit, one = g.unit[x], Matrix.identity(v.e_dims[x])
        if not products_equal((s[unit], u[x]), one):
            rep.add("unit-section-s", (x,))
        if not products_equal((t[unit], u[x]), one):
            rep.add("unit-section-t", (x,))

    def mult_ends(g1: int, g2: int) -> tuple[bool, bool]:
        g12 = g.compose(g1, g2)

        def compute() -> tuple[bool, bool]:
            a, b = fib((g1, g2))
            prod, memo = (m[(g1, g2)], a, b), {}
            return products_equal((s[g12], prod), (s[g2], b), memo), products_equal((t[g12], prod), (t[g1], a), memo)

        return once(("mult-ends", s[g1], t[g2], m[(g1, g2)], s[g12], t[g12], s[g2], t[g1]), compute)

    unit_failures = []
    for a in range(g.n_arrows):
        one = Matrix.identity(v.gamma_dims[a])
        ly, rx = g.unit[g.tgt[a]], g.unit[g.src[a]]
        uy, ux = u[g.tgt[a]], u[g.src[a]]
        left, right = (m[(ly, a)], (uy, t[a]), one), (m[(a, rx)], one, (ux, s[a]))
        if not once(("unit-law-left", uy, t[a], m[(ly, a)]), lambda: products_equal(left, one)):
            unit_failures.append(("unit-law-left", a))
        if not once(("unit-law-right", ux, s[a], m[(a, rx)]), lambda: products_equal(right, one)):
            unit_failures.append(("unit-law-right", a))

    def inverse_law(a: int) -> Optional[tuple[str, str]]:
        """The failing check and its detail, or None when inv(v) exists and inv(v) v = unit(s v)."""
        try:
            inv = v.inverse_matrix(a)
        except InvalidStructureError:
            return "inverse-missing", ""
        lhs = (m[(g.inv[a], a)], inv, Matrix.identity(v.gamma_dims[a]))
        return None if products_equal(lhs, (u[g.src[a]], s[a])) else ("inverse-law", "inv(v) v != unit(s v)")

    inverse_failures = []
    for a in range(g.n_arrows):
        ai = g.inv[a]
        reads = (m[(a, ai)], t[ai], u[g.tgt[a]], t[a], s[a], m[(ai, a)], u[g.src[a]])
        failed = once(("inverse", *reads), lambda: inverse_law(a))
        if failed:
            inverse_failures.append((a, *failed))

    def associative(g1: int, g2: int, g3: int) -> bool:
        g12, g23 = g.compose(g1, g2), g.compose(g2, g3)

        def compute() -> bool:
            a, b, c = fib((g1, g2, g3))
            left = (m[(g12, g3)], (m[(g1, g2)], a, b), c)
            return products_equal(left, (m[(g1, g23)], a, (m[(g2, g3)], b, c)))

        reads = (s[g1], t[g2], s[g2], t[g3], m[(g1, g2)], m[(g12, g3)], m[(g2, g3)], m[(g1, g23)])
        return once(("associativity", *reads), compute)

    reduced = rep.ok and not unit_failures and not inverse_failures and validate_groupoid(g).ok
    if reduced:
        gens = generating_arrows(g)
        lead = {*gens, *(g.inv[a] for a in gens)}
        reduced = all(all(mult_ends(g1, g2)) for g1, g2 in g.pairs if g1 in lead)
    non_associative = _failing_strings(g, 3, reduced, associative)
    if not reduced or non_associative:
        for g1, g2 in g.pairs:
            source_ok, target_ok = mult_ends(g1, g2)
            if not source_ok:
                rep.add("mult-source", (g1, g2))
            if not target_ok:
                rep.add("mult-target", (g1, g2))
    for check, a in unit_failures:
        rep.add(check, (a,))
    for x in non_associative:
        rep.add("associativity", x)
    for a, check, detail in inverse_failures:
        rep.add(check, (a,), detail)
    return rep


# -- basic constructions -------------------------------------------------------


def zero_vb(base: FiniteGroupoid) -> VBGroupoid:
    return VBGroupoid(
        base=base,
        e_dims=(0,) * base.n_objects,
        gamma_dims=(0,) * base.n_arrows,
        s_maps=tuple(Matrix.zeros(0, 0) for _ in range(base.n_arrows)),
        t_maps=tuple(Matrix.zeros(0, 0) for _ in range(base.n_arrows)),
        u_maps=tuple(Matrix.zeros(0, 0) for _ in range(base.n_objects)),
        m_maps={p: Matrix.zeros(0, 0) for p in base.pairs},
    )


def acyclic_vb(base: FiniteGroupoid, e_dims: Sequence[int]) -> VBGroupoid:
    """The acyclic VB-groupoid on a bundle: one arrow (e', e) over every g."""
    e = tuple(e_dims)
    gdims = tuple(e[base.tgt[a]] + e[base.src[a]] for a in range(base.n_arrows))
    ends = [(e[base.tgt[a]], e[base.src[a]]) for a in range(base.n_arrows)]
    s_maps = tuple(Matrix.block([es], [et, es], {(0, 1): Matrix.identity(es)}) for et, es in ends)
    t_maps = tuple(Matrix.block([et], [et, es], {(0, 0): Matrix.identity(et)}) for et, es in ends)
    u_maps = tuple(Matrix.vstack([Matrix.identity(e[x]), Matrix.identity(e[x])]) for x in range(base.n_objects))
    m_maps = {}
    for g1, g2 in base.pairs:
        e3, e1 = ends[g1][0], ends[g2][1]
        blocks = {(0, 0): Matrix.identity(e3), (1, 3): Matrix.identity(e1)}
        m_maps[(g1, g2)] = Matrix.block([e3, e1], [*ends[g1], *ends[g2]], blocks)
    out = VBGroupoid(
        base=base, e_dims=e, gamma_dims=gdims, s_maps=s_maps, t_maps=t_maps, u_maps=u_maps, m_maps=m_maps
    )
    check_vbgroupoid(out).require("acyclic_vb: output invalid")
    return out


def direct_sum_vb(v1: VBGroupoid, v2: VBGroupoid) -> VBGroupoid:
    if v1.base != v2.base:
        raise ValueError("direct_sum_vb: different bases")
    g = v1.base
    m_maps = {}
    for g1, g2 in g.pairs:
        a1, b1 = v1.mult_blocks(g1, g2)
        a2, b2 = v2.mult_blocks(g1, g2)
        blocks = {(0, 0): a1, (1, 1): a2, (0, 2): b1, (1, 3): b2}
        m_maps[(g1, g2)] = Matrix.block([a1.rows, a2.rows], [a1.cols, a2.cols, b1.cols, b2.cols], blocks)
    return VBGroupoid(
        base=g,
        e_dims=tuple(a + b for a, b in zip(v1.e_dims, v2.e_dims)),
        gamma_dims=tuple(a + b for a, b in zip(v1.gamma_dims, v2.gamma_dims)),
        s_maps=tuple(map(Matrix.block_diag, zip(v1.s_maps, v2.s_maps))),
        t_maps=tuple(map(Matrix.block_diag, zip(v1.t_maps, v2.t_maps))),
        u_maps=tuple(map(Matrix.block_diag, zip(v1.u_maps, v2.u_maps))),
        m_maps=m_maps,
    )


# -- the Grothendieck construction ----------------------------------------------


def grothendieck(r: TwoTermRuth) -> VBGroupoid:
    """Semi-direct product VB-groupoid of a ruth: Gamma_g = C_{tgt g} (+) E_{src g}.

    Structure maps: s(c,e) = e, t(c,e) = anchor(c) + rho_e(e), u(e) = (0,e),
    (c1,e1)(c2,e2) = (c1 + rho_c_{g1} c2 - gamma_{g1,g2} e2, e2).
    """
    check_ruth(r).require("grothendieck: invalid ruth")
    g = r.base
    parts = [(r.c_dims[g.tgt[a]], r.e_dims[g.src[a]]) for a in range(g.n_arrows)]
    s_maps = tuple(Matrix.block([e], [c, e], {(0, 1): Matrix.identity(e)}) for c, e in parts)
    t_maps = tuple(Matrix.hstack([r.anchor[g.tgt[a]], r.rho_e[a]]) for a in range(g.n_arrows))
    # u(e) = (0, e) is the transpose of s at the unit
    u_maps = tuple(s_maps[g.unit[x]].transpose() for x in range(g.n_objects))
    m_maps = {}
    for g1, g2 in g.pairs:
        ct, e2 = parts[g1][0], parts[g2][1]
        blocks = {(0, 0): Matrix.identity(ct), (0, 2): r.rho_c[g1], (0, 3): -r.gamma[(g1, g2)]}
        blocks[(1, 3)] = Matrix.identity(e2)
        m_maps[(g1, g2)] = Matrix.block([ct, e2], [*parts[g1], *parts[g2]], blocks)
    out = VBGroupoid(
        base=g,
        e_dims=r.e_dims,
        gamma_dims=tuple(c + e for c, e in parts),
        s_maps=s_maps,
        t_maps=t_maps,
        u_maps=u_maps,
        m_maps=m_maps,
    )
    check_vbgroupoid(out).require("grothendieck: output invalid")
    return out


@dataclass(frozen=True)
class Cleavage:
    """A unital linear section of the source: s_g sigma_g = id, sigma at units = u."""

    sigma: tuple[Matrix, ...]  # per arrow: E_{src g} -> Gamma_g


def check_cleavage(v: VBGroupoid, c: Cleavage) -> Report:
    rep = Report()
    g = v.base
    for a in range(g.n_arrows):
        sg = c.sigma[a]
        if (sg.rows, sg.cols) != (v.gamma_dims[a], v.e_dims[g.src[a]]):
            rep.add("shape", (a,))
            continue
        if v.s_maps[a] * sg != Matrix.identity(v.e_dims[g.src[a]]):
            rep.add("section", (a,))
    for x in range(g.n_objects):
        if c.sigma[g.unit[x]] != v.u_maps[x]:
            rep.add("unital", (x,))
    return rep


def choose_cleavage(v: VBGroupoid) -> Cleavage:
    """Deterministic unital cleavage: canonical right inverse of each s_g."""
    g = v.base
    sigma = []
    for a in range(g.n_arrows):
        identity = Matrix.identity(v.e_dims[g.src[a]])
        context = f"choose_cleavage: s not surjective at arrow {a}"
        sigma.append(coords_in(v.s_maps[a], identity, context, "s-surjective", (a,)))
    sigma = [v.u_maps[x] if g.is_unit(a) else sigma[a] for a, x in ((a, g.src[a]) for a in range(g.n_arrows))]
    c = Cleavage(sigma=tuple(sigma))
    check_cleavage(v, c).require("choose_cleavage: output invalid")
    return c


def split(v: VBGroupoid, cleavage: Optional[Cleavage] = None) -> tuple[TwoTermRuth, "VBMap"]:
    """Break a VB-groupoid into a ruth along a cleavage.

    rho_e = t sigma; rho_c is the conjugation sigma(g, anchor c) . c . 0_{g inv};
    gamma is the vertical defect of sigma against multiplication.  Returns the
    ruth together with the isomorphism v -> grothendieck(ruth) sending an
    arrow to (vertical part, source).  Output is validated on every call.
    """
    if cleavage is None:
        cleavage = choose_cleavage(v)
    check_cleavage(v, cleavage).require("split: invalid cleavage")
    g = v.base
    cd = core(v)
    rho_e = tuple(v.t_maps[a] * cleavage.sigma[a] for a in range(g.n_arrows))
    rho_c = []
    for a in range(g.n_arrows):
        x = g.src[a]
        first = v.mult_of(a, g.unit[x], cleavage.sigma[a] * cd.anchor[x], cd.basis[x])
        m1, _ = v.mult_blocks(a, g.inv[a])
        context = f"split: rho_c not core-valued at arrow {a}"
        rho_c.append(coords_in(cd.basis[g.tgt[a]], m1 * first, context, "rho_c-core-valued", (a,)))
    gamma = {}
    for g1, g2 in g.pairs:
        g12 = g.compose(g1, g2)
        y = g.tgt[g1]
        p1 = v.mult_of(g1, g2, cleavage.sigma[g1] * rho_e[g2], cleavage.sigma[g2])
        inv_lift = v.inverse_matrix(g12) * cleavage.sigma[g12]
        p2 = v.mult_of(g12, g.inv[g12], p1, inv_lift)
        defect = p2 - v.u_maps[y] * rho_e[g12]
        context = f"split: curvature not core-valued at pair {(g1, g2)}"
        gamma[(g1, g2)] = -coords_in(cd.basis[y], defect, context, "gamma-core-valued", (g1, g2))
    r = TwoTermRuth(
        base=g,
        e_dims=v.e_dims,
        c_dims=cd.dims,
        anchor=cd.anchor,
        rho_e=rho_e,
        rho_c=tuple(rho_c),
        gamma=gamma,
    )
    check_ruth(r).require("split: extracted ruth invalid")
    target = grothendieck(r)
    arr = []
    for a in range(g.n_arrows):
        y = g.tgt[a]
        m1, m2 = v.mult_blocks(a, g.inv[a])
        vert = (
            m1
            + m2 * (v.inverse_matrix(a) * cleavage.sigma[a] * v.s_maps[a])
            - v.u_maps[y] * rho_e[a] * v.s_maps[a]
        )
        context = f"split: vertical part not core-valued at arrow {a}"
        coords = coords_in(cd.basis[y], vert, context, "vertical-core-valued", (a,))
        arr.append(Matrix.vstack([coords, v.s_maps[a]]))
    iso = VBMap(
        source=v,
        target=target,
        base_map=identity_map(g),
        obj_maps=tuple(Matrix.identity(d) for d in v.e_dims),
        arr_maps=tuple(arr),
    )
    check_vbmap(iso).require("split: comparison map invalid")
    for a in range(g.n_arrows):
        if not iso.arr_maps[a].is_invertible:
            raise violation_error(f"split: comparison not invertible at arrow {a}", "comparison-invertible", (a,))
    return r, iso


# -- VB-maps --------------------------------------------------------------------


@dataclass(frozen=True)
class VBMap:
    source: VBGroupoid
    target: VBGroupoid
    base_map: GroupoidMap
    obj_maps: tuple[Matrix, ...]  # per source object
    arr_maps: tuple[Matrix, ...]  # per source arrow

    @property
    def is_invertible(self) -> bool:
        bm = self.base_map
        if sorted(bm.obj_map) != list(range(bm.cod.n_objects)) or sorted(bm.arr_map) != list(
            range(bm.cod.n_arrows)
        ):
            return False
        return all(m.is_invertible for m in self.obj_maps) and all(m.is_invertible for m in self.arr_maps)


@checked_once
def check_vbmap(f: VBMap) -> Report:
    """Every VB-map law of ``f``, one violation per failing object, arrow or pair.

    mult-compat, F m(p, q) = m'(F p, F q) on Fib(g1, g2), is first computed only on the pairs
    whose first arrow lies in T = :func:`~vbgroupoids.groupoid.generating_arrows` of the source
    base.  That reduced pass is taken only when every earlier law holds, the source base passes
    ``validate_groupoid`` and both ends pass ``check_vbgroupoid`` (free through
    :func:`~vbgroupoids.report.checked_once` when they were checked already).  If the gate fails,
    or the reduced pass finds a failing pair, every pair is computed in ``g.pairs`` order, so a
    failing report lists every witness in the usual order.  A passing reduced pass proves every
    pair.  Let S be the arrows h with mult-compat on every pair starting with h; S contains T.
    Take t in T, h in S and (p, q) over (th, g2).  By step 1 of ``check_vbgroupoid``'s proof, m
    maps Fib(t, h) onto Gamma_{th}, so p = m(w, x) with (w, x, q) in Fib(t, h, g2).  Then
    F m(p, q) = F m(w, m(x, q)) by associativity in the source, = m'(F w, F m(x, q)) by the
    reduced pair (t, h g2), = m'(F w, m'(F x, F q)) as h is in S, = m'(m'(F w, F x), F q) by
    associativity in the target (source- and target-compat make the string composable), and
    = m'(F p, F q) by the reduced pair (t, h).  So th is in S, and since every arrow is a
    nonempty product of T-arrows, S is every arrow.
    """
    rep = Report()
    rep.extend(validate_map(f.base_map))
    if not rep.ok:
        return rep
    if f.base_map.dom != f.source.base or f.base_map.cod != f.target.base:
        rep.add("base", (), "base map endpoints do not match")
        return rep
    v, w = f.source, f.target
    bm = f.base_map
    g = v.base
    for x in range(g.n_objects):
        m = f.obj_maps[x]
        if (m.rows, m.cols) != (w.e_dims[bm.obj_map[x]], v.e_dims[x]):
            rep.add("obj-shape", (x,))
    for a in range(g.n_arrows):
        m = f.arr_maps[a]
        if (m.rows, m.cols) != (w.gamma_dims[bm.arr_map[a]], v.gamma_dims[a]):
            rep.add("arr-shape", (a,))
    if not rep.ok:
        return rep
    for a in range(g.n_arrows):
        fa = bm.arr_map[a]
        if not products_equal((w.s_maps[fa], f.arr_maps[a]), (f.obj_maps[g.src[a]], v.s_maps[a])):
            rep.add("source-compat", (a,))
        if not products_equal((w.t_maps[fa], f.arr_maps[a]), (f.obj_maps[g.tgt[a]], v.t_maps[a])):
            rep.add("target-compat", (a,))
    for x in range(g.n_objects):
        if not products_equal((f.arr_maps[g.unit[x]], v.u_maps[x]), (w.u_maps[bm.obj_map[x]], f.obj_maps[x])):
            rep.add("unit-compat", (x,))
    _, fib = _call_memo(v)

    def multiplicative(g1: int, g2: int) -> bool:
        a, b = fib((g1, g2))
        lhs = (f.arr_maps[g.compose(g1, g2)], (v.m_maps[(g1, g2)], a, b))
        rhs = (w.m_maps[(bm.arr_map[g1], bm.arr_map[g2])], (f.arr_maps[g1], a), (f.arr_maps[g2], b))
        return products_equal(lhs, rhs)

    reduced = rep.ok and validate_groupoid(g).ok and check_vbgroupoid(v).ok and check_vbgroupoid(w).ok
    for x in _failing_strings(g, 2, reduced, multiplicative):
        rep.add("mult-compat", x)
    return rep


def identity_vbmap(v: VBGroupoid) -> VBMap:
    return VBMap(
        source=v,
        target=v,
        base_map=identity_map(v.base),
        obj_maps=tuple(Matrix.identity(d) for d in v.e_dims),
        arr_maps=tuple(Matrix.identity(d) for d in v.gamma_dims),
    )


def compose_vbmap(f2: VBMap, f1: VBMap) -> VBMap:
    if f1.target != f2.source:
        raise ValueError("compose_vbmap: endpoints do not match")
    bm = compose_maps(f2.base_map, f1.base_map)
    g = f1.source.base
    return VBMap(
        source=f1.source,
        target=f2.target,
        base_map=bm,
        obj_maps=tuple(f2.obj_maps[f1.base_map.obj_map[x]] * f1.obj_maps[x] for x in range(g.n_objects)),
        arr_maps=tuple(f2.arr_maps[f1.base_map.arr_map[a]] * f1.arr_maps[a] for a in range(g.n_arrows)),
    )


def inverse_vbmap(f: VBMap) -> VBMap:
    if not f.is_invertible:
        raise ValueError("inverse_vbmap: map not invertible")
    bm = f.base_map
    obj_inv = {bm.obj_map[x]: x for x in range(bm.dom.n_objects)}
    arr_inv = {bm.arr_map[a]: a for a in range(bm.dom.n_arrows)}
    base_inv = GroupoidMap(
        bm.cod,
        bm.dom,
        tuple(obj_inv[y] for y in range(bm.cod.n_objects)),
        tuple(arr_inv[b] for b in range(bm.cod.n_arrows)),
    )
    out = VBMap(
        source=f.target,
        target=f.source,
        base_map=base_inv,
        obj_maps=tuple(f.obj_maps[obj_inv[y]].inverse() for y in range(bm.cod.n_objects)),
        arr_maps=tuple(f.arr_maps[arr_inv[b]].inverse() for b in range(bm.cod.n_arrows)),
    )
    check_vbmap(out).require("inverse_vbmap: inverse not a VB-map")
    return out


def zero_projection(v: VBGroupoid) -> VBMap:
    """The projection of v onto the zero VB-groupoid over the same base."""
    z = zero_vb(v.base)
    return VBMap(
        source=v,
        target=z,
        base_map=identity_map(v.base),
        obj_maps=tuple(Matrix.zeros(0, d) for d in v.e_dims),
        arr_maps=tuple(Matrix.zeros(0, d) for d in v.gamma_dims),
    )


def sum_projection_vb(v1: VBGroupoid, v2: VBGroupoid, side: int = 0) -> VBMap:
    return VBMap(
        source=direct_sum_vb(v1, v2),
        target=(v1, v2)[side],
        base_map=identity_map(v1.base),
        obj_maps=tuple(summand_projection(d1, d2, side) for d1, d2 in zip(v1.e_dims, v2.e_dims)),
        arr_maps=tuple(summand_projection(d1, d2, side) for d1, d2 in zip(v1.gamma_dims, v2.gamma_dims)),
    )


# -- the map correspondence ------------------------------------------------------


def grothendieck_map(m: RuthMorphism) -> VBMap:
    """VB-map between Grothendieck constructions: (c,e) -> (phi_c c + mu e, phi_e e)."""
    check_ruth_morphism(m).require("grothendieck_map: invalid morphism")
    g = m.source.base
    v = grothendieck(m.source)
    w = grothendieck(m.target)
    arr = []
    for a in range(g.n_arrows):
        y, x = g.tgt[a], g.src[a]
        rows, cols = [m.target.c_dims[y], m.target.e_dims[x]], [m.source.c_dims[y], m.source.e_dims[x]]
        arr.append(Matrix.block(rows, cols, {(0, 0): m.phi_c[y], (0, 1): m.mu[a], (1, 1): m.phi_e[x]}))
    out = VBMap(
        source=v, target=w, base_map=identity_map(g), obj_maps=tuple(m.phi_e), arr_maps=tuple(arr)
    )
    check_vbmap(out).require("grothendieck_map: output invalid")
    return out


def split_map(
    f: VBMap,
    cleav_src: Optional[Cleavage] = None,
    cleav_tgt: Optional[Cleavage] = None,
) -> RuthMorphism:
    """Extract the ruth morphism of an identity-base VB-map via cleavages.

    With canonical (Grothendieck) endpoints this is the exact inverse of
    grothendieck_map; in general both endpoints are first split.
    """
    if f.base_map != identity_map(f.source.base):
        raise ValueError("split_map: base map must be the identity")
    r_src, iso_src = split(f.source, cleav_src)
    r_tgt, iso_tgt = split(f.target, cleav_tgt)
    canon = compose_vbmap(compose_vbmap(iso_tgt, f), inverse_vbmap(iso_src))
    g = f.source.base
    phi_e = tuple(canon.obj_maps)
    phi_c = []
    for x in range(g.n_objects):
        c = r_src.c_dims[x]
        phi_c.append(canon.arr_maps[g.unit[x]].take_rows(range(r_tgt.c_dims[x])).take_cols(range(c)))
    mu = []
    for a in range(g.n_arrows):
        ct = r_tgt.c_dims[g.tgt[a]]
        cs = r_src.c_dims[g.tgt[a]]
        mu.append(canon.arr_maps[a].take_rows(range(ct)).take_cols(range(cs, canon.arr_maps[a].cols)))
    out = RuthMorphism(source=r_src, target=r_tgt, phi_e=phi_e, phi_c=tuple(phi_c), mu=tuple(mu))
    check_ruth_morphism(out).require("split_map: extracted morphism invalid")
    return out


def _reindex(f: GroupoidMap, v: VBGroupoid) -> VBGroupoid:
    """The fibers of ``v`` reindexed along ``f``, unchecked: f*v over ``f.dom``."""
    d = f.dom
    return VBGroupoid(
        base=d,
        e_dims=tuple(v.e_dims[f.obj_map[x]] for x in range(d.n_objects)),
        gamma_dims=tuple(v.gamma_dims[f.arr_map[a]] for a in range(d.n_arrows)),
        s_maps=tuple(v.s_maps[f.arr_map[a]] for a in range(d.n_arrows)),
        t_maps=tuple(v.t_maps[f.arr_map[a]] for a in range(d.n_arrows)),
        u_maps=tuple(v.u_maps[f.obj_map[x]] for x in range(d.n_objects)),
        m_maps={(g1, g2): v.m_maps[(f.arr_map[g1], f.arr_map[g2])] for (g1, g2) in d.pairs},
    )


def base_change(f: GroupoidMap, v: VBGroupoid) -> tuple[VBGroupoid, VBMap]:
    """Reindex fibers along a functor into the base; returns (pullback, canonical map)."""
    validate_map(f).require("base_change: invalid functor")
    if f.cod != v.base:
        raise ValueError("base_change: functor does not land in the base groupoid")
    d = f.dom
    out = _reindex(f, v)
    check_vbgroupoid(out).require("base_change: output invalid")
    canonical = VBMap(
        source=out,
        target=v,
        base_map=f,
        obj_maps=tuple(Matrix.identity(out.e_dims[x]) for x in range(d.n_objects)),
        arr_maps=tuple(Matrix.identity(out.gamma_dims[a]) for a in range(d.n_arrows)),
    )
    check_vbmap(canonical).require("base_change: canonical map invalid")
    return out, canonical


def base_change_map(f: GroupoidMap, phi: VBMap) -> VBMap:
    """f*phi: f*V -> f*W for a VB-map phi: V -> W over the identity of ``f.cod``.

    The endpoints are the reindexes that ``base_change`` builds and the matrices are
    reindexed the same way.  Nothing is checked beyond the base map: a caller that
    needs a certified map checks the result.
    """
    if phi.base_map != identity_map(f.cod):
        raise ValueError("base_change_map: phi must cover the identity of the functor's codomain")
    d = f.dom
    return VBMap(
        source=_reindex(f, phi.source),
        target=_reindex(f, phi.target),
        base_map=identity_map(d),
        obj_maps=tuple(phi.obj_maps[f.obj_map[x]] for x in range(d.n_objects)),
        arr_maps=tuple(phi.arr_maps[f.arr_map[a]] for a in range(d.n_arrows)),
    )


# -- VB-Morita certification ------------------------------------------------------


@dataclass(frozen=True)
class VBMoritaCertificate:
    ok: bool
    base: MoritaCertificate
    fibers: tuple[QuasiIsoCertificate, ...]  # per source object


def core_map(f: VBMap, cd_src: CoreData, cd_tgt: CoreData, x: int) -> Matrix:
    """The induced map C_x -> C'_{f x} in the kernel bases."""
    g = f.source.base
    y = f.base_map.obj_map[x]
    img = f.arr_maps[g.unit[x]] * cd_src.basis[x]
    return coords_in(cd_tgt.basis[y], img, f"core_map: image not in core at object {x}", "core-map", (x,))


def is_vb_morita(f: VBMap) -> VBMoritaCertificate:
    """Morita on the base plus quasi-isomorphism on every fiberwise core complex."""
    check_vbmap(f).require("is_vb_morita: invalid VB-map")
    base_cert = is_morita(f.base_map)
    cd_src = core(f.source)
    cd_tgt = core(f.target)
    fibers = []
    ok = base_cert.ok
    for x in range(f.source.base.n_objects):
        y = f.base_map.obj_map[x]
        cert = chain_map_is_quasi_iso(
            two_term_complex(cd_src.anchor[x]),
            two_term_complex(cd_tgt.anchor[y]),
            {0: core_map(f, cd_src, cd_tgt, x), 1: f.obj_maps[x]},
        )
        fibers.append(cert)
        ok = ok and cert.ok
    return VBMoritaCertificate(ok=ok, base=base_cert, fibers=tuple(fibers))


# -- duality ----------------------------------------------------------------------


def dual_vb(v: VBGroupoid) -> VBGroupoid:
    """Dual VB-groupoid, realized through the canonical split and the dual ruth."""
    r, _ = split(v, choose_cleavage(v))
    return grothendieck(dual_ruth(r))


def dual_vbmap(f: VBMap) -> VBMap:
    """Dual of an identity-base VB-map, in the canonical split coordinates."""
    if f.base_map != identity_map(f.source.base):
        raise ValueError("dual_vbmap: base map must be the identity")
    return grothendieck_map(dual_morphism(split_map(f)))


# -- isomorphisms of maps, twisting ------------------------------------------------


@dataclass(frozen=True)
class VBMapIso:
    """alpha: phi => psi for VB-maps with a common base map.

    alpha_x: E'_x -> Gamma_{unit(phi0 x)} with s alpha = phi0, t alpha = psi0,
    and psi(v) alpha(s v) = alpha(t v) phi(v) for all arrows v.
    """

    phi: VBMap
    psi: VBMap
    alpha: tuple[Matrix, ...]  # per source-base object


def check_vbmap_iso(iso: VBMapIso) -> Report:
    rep = Report()
    phi, psi = iso.phi, iso.psi
    if phi.source != psi.source or phi.target != psi.target:
        rep.add("endpoints", (), "phi and psi must be parallel")
        return rep
    if phi.base_map != psi.base_map:
        rep.add("base", (), "phi and psi must share the base map")
        return rep
    v, w = phi.source, phi.target
    g = v.base
    bm = phi.base_map
    for x in range(g.n_objects):
        ux = w.base.unit[bm.obj_map[x]]
        a = iso.alpha[x]
        if (a.rows, a.cols) != (w.gamma_dims[ux], v.e_dims[x]):
            rep.add("alpha-shape", (x,))
            continue
        if w.s_maps[ux] * a != phi.obj_maps[x]:
            rep.add("alpha-source", (x,))
        if w.t_maps[ux] * a != psi.obj_maps[x]:
            rep.add("alpha-target", (x,))
    if not rep.ok:
        return rep
    for a in range(g.n_arrows):
        fa = bm.arr_map[a]
        x, y = g.src[a], g.tgt[a]
        lhs = w.mult_of(fa, w.base.unit[bm.obj_map[x]], psi.arr_maps[a], iso.alpha[x] * v.s_maps[a])
        rhs = w.mult_of(w.base.unit[bm.obj_map[y]], fa, iso.alpha[y] * v.t_maps[a], phi.arr_maps[a])
        if lhs != rhs:
            rep.add("naturality", (a,))
    return rep


def trivial_iso(f: VBMap) -> VBMapIso:
    """The unit isomorphism f => f."""
    g = f.source.base
    alpha = tuple(
        f.target.u_maps[f.base_map.obj_map[x]] * f.obj_maps[x] for x in range(g.n_objects)
    )
    return VBMapIso(phi=f, psi=f, alpha=alpha)


def twist(f: VBMap, alpha: Sequence[Matrix]) -> tuple[VBMap, VBMapIso]:
    """Twist an identity-base VB-map by core-valued data alpha_x: E_x -> C'_x.

    Returns the twisted map f^alpha and the witnessing isomorphism f => f^alpha.
    """
    if f.base_map != identity_map(f.source.base):
        raise ValueError("twist: base map must be the identity")
    v, w = f.source, f.target
    g = v.base
    cd = core(w)
    lifted = tuple(
        cd.basis[x] * alpha[x] + w.u_maps[x] * f.obj_maps[x] for x in range(g.n_objects)
    )
    obj = tuple(f.obj_maps[x] + cd.anchor[x] * alpha[x] for x in range(g.n_objects))
    arr = []
    for a in range(g.n_arrows):
        x, y = g.src[a], g.tgt[a]
        lift_t, lift_s = lifted[y] * v.t_maps[a], lifted[x] * v.s_maps[a]
        arr.append(w.conjugate(g.unit[y], a, g.unit[x], lift_t, f.arr_maps[a], lift_s))
    out = VBMap(source=v, target=w, base_map=f.base_map, obj_maps=obj, arr_maps=tuple(arr))
    check_vbmap(out).require("twist: twisted map invalid")
    iso = VBMapIso(phi=f, psi=out, alpha=lifted)
    check_vbmap_iso(iso).require("twist: witnessing isomorphism invalid")
    return out, iso


def _kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product: block (i, k) is ``a[i, k] b``."""
    blocks = {(i, k): b.scale(x) for i in range(a.rows) for k, x in enumerate(a.row(i)) if x}
    return Matrix.block([b.rows] * a.rows, [b.cols] * a.cols, blocks)


def find_vbmap_iso(phi: VBMap, psi: VBMap) -> Optional[VBMapIso]:
    """Solve the linear isomorphism conditions for alpha: phi => psi.

    Returns the rref-deterministic solution, or None when the maps are not
    isomorphic.  Both maps must be parallel with the same base map.
    """
    if phi.source != psi.source or phi.target != psi.target or phi.base_map != psi.base_map:
        raise ValueError("find_vbmap_iso: maps not parallel")
    v, w = phi.source, phi.target
    g = v.base
    bm = phi.base_map
    units = [w.base.unit[bm.obj_map[x]] for x in range(g.n_objects)]
    # unknowns: alpha_x : E_x -> Gamma'_{u(f x)} per object, each flattened row-major
    shapes = [(w.gamma_dims[ux], v.e_dims[x]) for x, ux in enumerate(units)]
    widths = [r * c for r, c in shapes]
    # one block row per matrix equation, read through vec(L alpha S) = kron(L, S^T) vec(alpha)
    heights: list[int] = []
    blocks: list[tuple[tuple[int, int], Matrix]] = []
    rhs: list = []

    def equation(terms: Sequence[tuple[int, Matrix]], value: Matrix) -> None:
        blocks.extend(((len(heights), x), m) for x, m in terms)
        heights.append(value.rows * value.cols)
        rhs.extend(y for i in range(value.rows) for y in value.row(i))

    for x, ux in enumerate(units):
        eye = Matrix.identity(v.e_dims[x])
        equation([(x, _kron(w.s_maps[ux], eye))], phi.obj_maps[x])
        equation([(x, _kron(w.t_maps[ux], eye))], psi.obj_maps[x])
    for a in range(g.n_arrows):
        x, y = g.src[a], g.tgt[a]
        l1, l2 = w.mult_blocks(bm.arr_map[a], units[x])
        r1, r2 = w.mult_blocks(units[y], bm.arr_map[a])
        # l2 alpha_x s_a - r1 alpha_y t_a = r2 phi_a - l1 psi_a
        terms = [(x, _kron(l2, v.s_maps[a].transpose())), (y, -_kron(r1, v.t_maps[a].transpose()))]
        equation(terms, r2 * phi.arr_maps[a] - l1 * psi.arr_maps[a])
    sol = Matrix.block(heights, widths, blocks).solve(rhs)
    if sol is None:
        return None
    offsets = accumulate(widths, initial=0)
    alpha = [
        Matrix.from_rows([sol[off + i * c : off + (i + 1) * c] for i in range(r)], cols=c)
        for off, (r, c) in zip(offsets, shapes)
    ]
    iso = VBMapIso(phi=phi, psi=psi, alpha=tuple(alpha))
    check_vbmap_iso(iso).require("find_vbmap_iso: solved data fails the checker")
    return iso


# -- sub-VB-groupoids ---------------------------------------------------------------


def sub_vbgroupoid(
    v: VBGroupoid, obj_spaces: Sequence[Subspace], arr_spaces: Sequence[Subspace]
) -> tuple[VBGroupoid, VBMap]:
    """Present closed sub-bundles as a VB-groupoid in their own coordinates.

    The multiplication on the sub is the semantic product on the sub-fibered
    product, extended by zero along the canonical complement.
    """
    g = v.base
    o_basis = [s.basis for s in obj_spaces]
    a_basis = [s.basis for s in arr_spaces]
    e_dims = tuple(b.cols for b in o_basis)
    gdims = tuple(b.cols for b in a_basis)

    def coords(basis: Matrix, m: Matrix, what: str, at: Any) -> Matrix:
        context = f"sub_vbgroupoid: {what} at {at} leaves the subspace"
        return coords_in(basis, m, context, "sub-closed", (what, at))

    s_maps = tuple(coords(o_basis[g.src[a]], v.s_maps[a] * a_basis[a], "s", a) for a in range(g.n_arrows))
    t_maps = tuple(coords(o_basis[g.tgt[a]], v.t_maps[a] * a_basis[a], "t", a) for a in range(g.n_arrows))
    u_maps = tuple(coords(a_basis[g.unit[x]], v.u_maps[x] * o_basis[x], "u", x) for x in range(g.n_objects))
    m_maps = {}
    for g1, g2 in g.pairs:
        g12 = g.compose(g1, g2)
        sub_fib = Matrix.hstack([s_maps[g1], -t_maps[g2]]).kernel()
        top, bottom = sub_fib.split_rows([gdims[g1], gdims[g2]])
        a, b = a_basis[g1] * top, a_basis[g2] * bottom
        prod = coords(a_basis[g12], v.mult_of(g1, g2, a, b), "m", (g1, g2))
        comp = complement_space(Subspace.from_spanning(sub_fib))
        basis_full = Matrix.hstack([sub_fib, comp.basis])
        if not basis_full.is_invertible:
            raise violation_error("sub_vbgroupoid: fib complement degenerate", "fib-complement", ())
        ext = Matrix.block([prod.rows], [prod.cols, comp.dim], {(0, 0): prod})
        m_maps[(g1, g2)] = ext * basis_full.inverse()
    out = VBGroupoid(
        base=g, e_dims=e_dims, gamma_dims=gdims, s_maps=s_maps, t_maps=t_maps, u_maps=u_maps, m_maps=m_maps
    )
    check_vbgroupoid(out).require("sub_vbgroupoid: output invalid")
    incl = VBMap(
        source=out,
        target=v,
        base_map=identity_map(g),
        obj_maps=tuple(o_basis),
        arr_maps=tuple(a_basis),
    )
    check_vbmap(incl).require("sub_vbgroupoid: inclusion invalid")
    return out, incl


# -- arrow VB-groupoid ---------------------------------------------------------------


@dataclass(frozen=True)
class ArrowVB:
    vb: VBGroupoid
    sigma: VBMap
    tau: VBMap
    mu: VBMap
    universal_iso: VBMapIso


def arrow_vb(v: VBGroupoid) -> ArrowVB:
    """The VB-groupoid of squares of v, over the same base.

    Objects are vertical arrows (core (+) unit coordinates); the arrow fiber
    over g is C_{tgt g} (+) Gamma_g (+) C_{src g}.  sigma / tau evaluate a
    square at its source / target vertical arrow; they are isomorphic through
    the identity object map and this isomorphism is universal.
    """
    g = v.base
    cd = core(v)
    cdim = cd.dims
    e_dims = tuple(cdim[x] + v.e_dims[x] for x in range(g.n_objects))
    cols = [(cdim[g.tgt[a]], v.gamma_dims[a], cdim[g.src[a]]) for a in range(g.n_arrows)]
    s_maps = []
    t_maps = []
    for a, (ct, d, cs) in enumerate(cols):
        es, et = v.e_dims[g.src[a]], v.e_dims[g.tgt[a]]
        s_maps.append(Matrix.block([cs, es], cols[a], {(0, 2): Matrix.identity(cs), (1, 1): v.s_maps[a]}))
        t_maps.append(Matrix.block([ct, et], cols[a], {(0, 0): Matrix.identity(ct), (1, 1): v.t_maps[a]}))
    u_maps = []
    for x in range(g.n_objects):
        c, du = cdim[x], v.gamma_dims[g.unit[x]]
        blocks = {(0, 0): Matrix.identity(c), (1, 1): v.u_maps[x], (2, 0): Matrix.identity(c)}
        u_maps.append(Matrix.block([c, du, c], [c, v.e_dims[x]], blocks))
    m_maps = {}
    for g1, g2 in g.pairs:
        ct1, cs2 = cols[g1][0], cols[g2][2]
        m1, m2 = v.mult_blocks(g1, g2)
        blocks = {(0, 0): Matrix.identity(ct1), (1, 1): m1, (1, 4): m2, (2, 5): Matrix.identity(cs2)}
        m_maps[(g1, g2)] = Matrix.block([ct1, m1.rows, cs2], [*cols[g1], *cols[g2]], blocks)
    vb = VBGroupoid(
        base=g,
        e_dims=e_dims,
        gamma_dims=tuple(map(sum, cols)),
        s_maps=tuple(s_maps),
        t_maps=tuple(t_maps),
        u_maps=tuple(u_maps),
        m_maps=m_maps,
    )
    check_vbgroupoid(vb).require("arrow_vb: output invalid")
    # core of the squares object identifies with C (+) C -> C (+) E, (c',c) -> (c', anchor c)
    cd_i = core(vb)
    for x in range(g.n_objects):
        c, e = cdim[x], v.e_dims[x]
        blocks = {(0, 0): Matrix.identity(c), (1, 1): cd.basis[x]}
        inj = Matrix.block([c, v.gamma_dims[g.unit[x]], c], [c, c], blocks)
        if Subspace.from_spanning(cd_i.basis[x]) != Subspace.from_spanning(inj):
            raise violation_error(f"arrow_vb: core mismatch at object {x}", "core-mismatch", (x,))
        expected = Matrix.block([c, e], [c, c], {(0, 0): Matrix.identity(c), (1, 1): cd.anchor[x]})
        if vb.t_maps[g.unit[x]] * inj != expected:
            raise violation_error(f"arrow_vb: core anchor mismatch at object {x}", "core-anchor", (x,))
    sigma = VBMap(
        source=vb,
        target=v,
        base_map=identity_map(g),
        obj_maps=tuple(
            Matrix.block([e], [c, e], {(0, 1): Matrix.identity(e)}) for c, e in zip(cdim, v.e_dims)
        ),
        arr_maps=tuple(Matrix.block([col[1]], col, {(0, 1): Matrix.identity(col[1])}) for col in cols),
    )
    tau_obj = tuple(
        Matrix.hstack([cd.anchor[x], Matrix.identity(v.e_dims[x])]) for x in range(g.n_objects)
    )
    tau_arr = []
    for a in range(g.n_arrows):
        x, y = g.src[a], g.tgt[a]
        at_tgt = {(0, 0): cd.basis[y], (0, 1): v.u_maps[y] * v.t_maps[a]}
        at_src = {(0, 1): v.u_maps[x] * v.s_maps[a], (0, 2): cd.basis[x]}
        wprime = Matrix.block([v.gamma_dims[g.unit[y]]], cols[a], at_tgt)
        wsrc = Matrix.block([v.gamma_dims[g.unit[x]]], cols[a], at_src)
        tau_arr.append(v.conjugate(g.unit[y], a, g.unit[x], wprime, sigma.arr_maps[a], wsrc))
    tau = VBMap(
        source=vb, target=v, base_map=identity_map(g), obj_maps=tau_obj, arr_maps=tuple(tau_arr)
    )
    # mu embeds v as the squares with zero core parts: the transpose of sigma
    mu = VBMap(
        source=v,
        target=vb,
        base_map=identity_map(g),
        obj_maps=tuple(m.transpose() for m in sigma.obj_maps),
        arr_maps=tuple(m.transpose() for m in sigma.arr_maps),
    )
    for name, f in (("sigma", sigma), ("tau", tau), ("mu", mu)):
        check_vbmap(f).require(f"arrow_vb: {name} invalid")
    if compose_vbmap(sigma, mu) != identity_vbmap(v) or compose_vbmap(tau, mu) != identity_vbmap(v):
        raise violation_error("arrow_vb: sigma mu = tau mu = id fails", "sigma-tau-retraction", ())
    alpha = tuple(Matrix.hstack([cd.basis[x], v.u_maps[x]]) for x in range(g.n_objects))
    universal = VBMapIso(phi=sigma, psi=tau, alpha=alpha)
    check_vbmap_iso(universal).require("arrow_vb: universal isomorphism invalid")
    return ArrowVB(vb=vb, sigma=sigma, tau=tau, mu=mu, universal_iso=universal)


# -- cleavages as maps over the arrow groupoid -----------------------------------------


@dataclass(frozen=True)
class CleavageMap:
    arrow_data: ArrowGroupoid
    sigma_star: VBGroupoid
    tau_star: VBGroupoid
    rho: VBMap  # sigma* v -> tau* v over the arrow groupoid


def cleavage_to_vbmap(v: VBGroupoid, c: Cleavage) -> CleavageMap:
    """Encode a unital cleavage as the conjugation map sigma* v -> tau* v.

    Over a square (g', h, g) the map sends w over hg to
    Sigma(g', t w) . w . Sigma(g, s w)^{-1}; pulling back along the identity
    squares gives the identity, and the cleavage is recovered by evaluating
    at (g, id, id) on unit vectors.
    """
    check_cleavage(v, c).require("cleavage_to_vbmap: invalid cleavage")
    g = v.base
    ag = arrow_groupoid(g)
    sigma_star, _ = base_change(ag.sigma, v)
    tau_star, _ = base_change(ag.tau, v)
    obj_maps = tuple(v.t_maps[a] * c.sigma[a] for a in range(g.n_arrows))
    arr_maps = []
    for (gp, h, gg) in ag.triples:
        top = g.compose(h, gg)
        lift_t, lift_s = c.sigma[gp] * v.t_maps[top], c.sigma[gg] * v.s_maps[top]
        arr_maps.append(v.conjugate(gp, top, gg, lift_t, Matrix.identity(v.gamma_dims[top]), lift_s))
    rho = VBMap(
        source=sigma_star,
        target=tau_star,
        base_map=identity_map(ag.gi),
        obj_maps=obj_maps,
        arr_maps=tuple(arr_maps),
    )
    check_vbmap(rho).require("cleavage_to_vbmap: rho invalid")
    # mu* rho = id and the inverse correspondence recovers the cleavage
    for a in range(g.n_arrows):
        k = ag.mu.arr_map[a]
        if rho.arr_maps[k] != Matrix.identity(v.gamma_dims[a]):
            raise violation_error(f"cleavage_to_vbmap: mu* rho != id at arrow {a}", "mu-rho-identity", (a,))
    tindex = {t: i for i, t in enumerate(ag.triples)}
    for a in range(g.n_arrows):
        x = g.src[a]
        k = tindex[(a, g.unit[x], g.unit[x])]
        if rho.arr_maps[k] * v.u_maps[x] != c.sigma[a]:
            raise violation_error(f"cleavage_to_vbmap: recovery fails at arrow {a}", "cleavage-recovery", (a,))
    return CleavageMap(arrow_data=ag, sigma_star=sigma_star, tau_star=tau_star, rho=rho)


# -- quasi-inverses and stable decomposition -------------------------------------------


@dataclass(frozen=True)
class _Factorization:
    path: VBGroupoid  # P = source (+) acyclic_vb on the core of target
    incl: VBMap  # source -> P, an equivalence
    proj: VBMap  # P -> source, the sum projection, retraction of incl
    fib: VBMap  # P -> target, the fibration factor
    h0: tuple[Subspace, ...]
    h1: tuple[Subspace, ...]
    k0: tuple[Subspace, ...]
    k1: tuple[Subspace, ...]
    section: VBMap  # target -> P, inverse of fib on the complement H


def _canonical_factorization(f: VBMap) -> _Factorization:
    v1, v2 = f.source, f.target
    g = v1.base
    cd2 = core(v2)
    proj = sum_projection_vb(v1, acyclic_vb(g, cd2.dims), side=0)
    path = proj.source
    check_vbgroupoid(path).require("canonical factorization: path object invalid")
    cols = [(v1.gamma_dims[a], cd2.dims[g.tgt[a]], cd2.dims[g.src[a]]) for a in range(g.n_arrows)]
    # incl is the transpose of proj: it pads with zero core parts
    incl = VBMap(
        source=v1,
        target=path,
        base_map=identity_map(g),
        obj_maps=tuple(m.transpose() for m in proj.obj_maps),
        arr_maps=tuple(m.transpose() for m in proj.arr_maps),
    )
    fib_obj = tuple(
        Matrix.hstack([f.obj_maps[x], cd2.anchor[x]]) for x in range(g.n_objects)
    )
    fib_arr = []
    for a in range(g.n_arrows):
        x, y = g.src[a], g.tgt[a]
        phi_a = f.arr_maps[a]
        at_tgt = {(0, 0): v2.u_maps[y] * v2.t_maps[a] * phi_a, (0, 1): cd2.basis[y]}
        at_src = {(0, 0): v2.u_maps[x] * v2.s_maps[a] * phi_a, (0, 2): cd2.basis[x]}
        a_mat = Matrix.block([v2.gamma_dims[g.unit[y]]], cols[a], at_tgt)
        b_mat = Matrix.block([v2.gamma_dims[g.unit[x]]], cols[a], at_src)
        phi_proj = Matrix.block([v2.gamma_dims[a]], cols[a], {(0, 0): phi_a})
        fib_arr.append(v2.conjugate(g.unit[y], a, g.unit[x], a_mat, phi_proj, b_mat))
    fib = VBMap(
        source=path, target=v2, base_map=identity_map(g), obj_maps=fib_obj, arr_maps=tuple(fib_arr)
    )
    for name, m in (("incl", incl), ("proj", proj), ("fib", fib)):
        check_vbmap(m).require(f"canonical factorization: {name} invalid")
    if compose_vbmap(fib, incl) != f:
        raise violation_error("canonical factorization: fib incl != f", "factorization", ())
    k0 = tuple(kernel_space(fib.obj_maps[x]) for x in range(g.n_objects))
    k1 = tuple(kernel_space(fib.arr_maps[a]) for a in range(g.n_arrows))
    for x in range(g.n_objects):
        if fib.obj_maps[x].rank() != v2.e_dims[x]:
            raise NotVBMoritaError(f"fibration factor not surjective on objects at {x}")
    for a in range(g.n_arrows):
        if fib.arr_maps[a].rank() != v2.gamma_dims[a]:
            raise NotVBMoritaError(f"fibration factor not surjective on arrows at {a}")
    h0 = tuple(complement_space(k0[x]) for x in range(g.n_objects))
    h1 = []
    for a in range(g.n_arrows):
        x, y = g.src[a], g.tgt[a]
        h1.append(
            intersection_spaces(
                preimage_space(path.s_maps[a], h0[x]), preimage_space(path.t_maps[a], h0[y])
            )
        )
    sec_obj = []
    for x in range(g.n_objects):
        t0 = fib.obj_maps[x] * h0[x].basis
        if not t0.is_invertible:
            raise NotVBMoritaError(f"complement not transverse on objects at {x}")
        sec_obj.append(h0[x].basis * t0.inverse())
    sec_arr = []
    for a in range(g.n_arrows):
        t1 = fib.arr_maps[a] * h1[a].basis
        if not t1.is_invertible:
            raise NotVBMoritaError(f"complement not transverse on arrows at {a}")
        sec_arr.append(h1[a].basis * t1.inverse())
    section = VBMap(
        source=v2,
        target=path,
        base_map=identity_map(g),
        obj_maps=tuple(sec_obj),
        arr_maps=tuple(sec_arr),
    )
    check_vbmap(section).require("canonical factorization: section invalid")
    return _Factorization(
        path=path, incl=incl, proj=proj, fib=fib, h0=tuple(h0), h1=tuple(h1), k0=k0, k1=k1, section=section
    )


@dataclass(frozen=True)
class QuasiInverse:
    psi: VBMap
    iso_source: VBMapIso  # psi o phi => id on the source
    iso_target: VBMapIso  # phi o psi => id on the target


def quasi_inverse(f: VBMap) -> QuasiInverse:
    """A quasi-inverse of an identity-base VB-Morita map with checked isomorphisms."""
    if f.base_map != identity_map(f.source.base):
        raise ValueError("quasi_inverse: base map must be the identity")
    cert = is_vb_morita(f)
    if not cert.ok:
        raise NotVBMoritaError("quasi_inverse: map is not VB-Morita")
    if f.is_invertible:
        psi = inverse_vbmap(f)
        return QuasiInverse(
            psi=psi,
            iso_source=trivial_iso(identity_vbmap(f.source)),
            iso_target=trivial_iso(identity_vbmap(f.target)),
        )
    fact = _canonical_factorization(f)
    psi = compose_vbmap(fact.proj, fact.section)
    check_vbmap(psi).require("quasi_inverse: candidate invalid")
    iso1 = find_vbmap_iso(compose_vbmap(psi, f), identity_vbmap(f.source))
    iso2 = find_vbmap_iso(compose_vbmap(f, psi), identity_vbmap(f.target))
    if iso1 is None or iso2 is None:
        raise NotVBMoritaError("quasi_inverse: isomorphism solve failed (theorem violation)")
    return QuasiInverse(psi=psi, iso_source=iso1, iso_target=iso2)


@dataclass(frozen=True)
class StableDecomposition:
    omega: VBGroupoid  # acyclic, added on the target side
    omega_prime: VBGroupoid  # acyclic, added on the source side
    iso: VBMap  # invertible: source (+) omega_prime -> target (+) omega


def stable_decompose(f: VBMap) -> StableDecomposition:
    """Realize a VB-Morita map as an isomorphism after acyclic padding."""
    if f.base_map != identity_map(f.source.base):
        raise ValueError("stable_decompose: base map must be the identity")
    if not is_vb_morita(f).ok:
        raise NotVBMoritaError("stable_decompose: map is not VB-Morita")
    g = f.source.base
    if f.is_invertible:
        z = zero_vb(g)
        return StableDecomposition(omega=z, omega_prime=z, iso=f)
    fact = _canonical_factorization(f)
    omega, _ = sub_vbgroupoid(fact.path, list(fact.k0), list(fact.k1))
    kp0 = tuple(kernel_space(fact.proj.obj_maps[x]) for x in range(g.n_objects))
    kp1 = tuple(kernel_space(fact.proj.arr_maps[a]) for a in range(g.n_arrows))
    omega_prime, _ = sub_vbgroupoid(fact.path, list(kp0), list(kp1))
    if not is_acyclic(omega) or not is_acyclic(omega_prime):
        raise NotVBMoritaError("stable_decompose: kernel not acyclic (theorem violation)")
    f1 = VBMap(
        source=direct_sum_vb(f.source, omega_prime),
        target=fact.path,
        base_map=identity_map(g),
        obj_maps=tuple(
            Matrix.hstack([fact.incl.obj_maps[x], kp0[x].basis]) for x in range(g.n_objects)
        ),
        arr_maps=tuple(
            Matrix.hstack([fact.incl.arr_maps[a], kp1[a].basis]) for a in range(g.n_arrows)
        ),
    )
    f2 = VBMap(
        source=direct_sum_vb(f.target, omega),
        target=fact.path,
        base_map=identity_map(g),
        obj_maps=tuple(
            Matrix.hstack([fact.section.obj_maps[x], fact.k0[x].basis]) for x in range(g.n_objects)
        ),
        arr_maps=tuple(
            Matrix.hstack([fact.section.arr_maps[a], fact.k1[a].basis]) for a in range(g.n_arrows)
        ),
    )
    for name, m in (("f1", f1), ("f2", f2)):
        check_vbmap(m).require(f"stable_decompose: {name} invalid")
        if not m.is_invertible:
            raise NotVBMoritaError(f"stable_decompose: {name} not invertible")
    iso = compose_vbmap(inverse_vbmap(f2), f1)
    check_vbmap(iso).require("stable_decompose: composite invalid")
    return StableDecomposition(omega=omega, omega_prime=omega_prime, iso=iso)
