"""2-term representations up to homotopy over a finite groupoid.

A :class:`TwoTermRuth` stores the tuple (anchor, rho_e, rho_c, gamma): an
object-wise anchor C_x -> E_x, quasi-actions on E and C, and a curvature
tensor gamma_{g,h}: E_{src h} -> C_{tgt g} on composable pairs, subject to the
four coupled equations checked by :func:`check_ruth`:

    rho_e_g  anchor           = anchor  rho_c_g
    rho_c_g1 rho_c_g2 - rho_c_{g1 g2} + gamma_{g1,g2} anchor  = 0
    rho_e_g1 rho_e_g2 - rho_e_{g1 g2} + anchor gamma_{g1,g2}  = 0
    rho_c_g1 gamma_{g2,g3} - gamma_{g1 g2,g3} + gamma_{g1,g2 g3}
                                       - gamma_{g1,g2} rho_e_g3 = 0

Everything is normalized to be unital: quasi-actions at unit arrows are the
identity and gamma vanishes whenever an argument is a unit.  Morphisms are
triples (phi_e, phi_c, mu) with mu vanishing at units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .groupoid import (
    FiniteGroupoid,
    GroupoidMap,
    composable_strings,
    generating_arrows,
    validate_groupoid,
    validate_map,
)
from .linalg import Matrix, chain_map_is_quasi_iso, two_term_complex
from .report import Report, checked_once

Bundle = tuple[int, ...]  # fiber dimension per object id


@dataclass(frozen=True)
class TwoTermRuth:
    base: FiniteGroupoid
    e_dims: Bundle
    c_dims: Bundle
    anchor: tuple[Matrix, ...]  # per object: C_x -> E_x
    rho_e: tuple[Matrix, ...]  # per arrow g: E_{src g} -> E_{tgt g}
    rho_c: tuple[Matrix, ...]  # per arrow g: C_{src g} -> C_{tgt g}
    gamma: dict[tuple[int, int], Matrix] = field(hash=False)  # per composable pair

    def core_complex(self, x: int):
        return two_term_complex(self.anchor[x])


def _dims_ok(r: TwoTermRuth, rep: Report) -> bool:
    g = r.base
    ok = True
    if len(r.e_dims) != g.n_objects or len(r.c_dims) != g.n_objects:
        rep.add("dims", (), "bundle tables sized wrong")
        return False
    for x in range(g.n_objects):
        a = r.anchor[x]
        if (a.rows, a.cols) != (r.e_dims[x], r.c_dims[x]):
            rep.add("anchor-shape", (x,))
            ok = False
    for a in range(g.n_arrows):
        re, rc = r.rho_e[a], r.rho_c[a]
        if (re.rows, re.cols) != (r.e_dims[g.tgt[a]], r.e_dims[g.src[a]]):
            rep.add("rho_e-shape", (a,))
            ok = False
        if (rc.rows, rc.cols) != (r.c_dims[g.tgt[a]], r.c_dims[g.src[a]]):
            rep.add("rho_c-shape", (a,))
            ok = False
    if set(r.gamma) != set(g.pairs):
        rep.add("gamma-domain", (), "gamma must be indexed by the composable pairs")
        return False
    for (g1, g2), m in r.gamma.items():
        if (m.rows, m.cols) != (r.c_dims[g.tgt[g1]], r.e_dims[g.src[g2]]):
            rep.add("gamma-shape", (g1, g2))
            ok = False
    return ok


@checked_once
def check_ruth(r: TwoTermRuth) -> Report:
    """All four structure equations plus the unitality normalization.

    eq4-cocycle is first computed only on the triples whose first arrow lies in
    T = :func:`~vbgroupoids.groupoid.generating_arrows` of the base.  That reduced pass is taken
    only when the base passes ``validate_groupoid`` and eq2 and eq3 hold on every pair.  If the
    gate fails, or the reduced pass finds a failing triple, every triple is computed, so a
    failing report lists every witness in the usual order.  A passing reduced pass proves every
    triple.  Write c(g1, g2, g3) for the left side of eq4, and R_c(g1, g2) and R_e(g1, g2) for
    those of eq2 and eq3.  Expanding each term gives, for every composable (g0, g1, g2, g3),

        c(g0 g1, g2, g3) = rho_c(g0) c(g1, g2, g3) + c(g0, g1 g2, g3) - c(g0, g1, g2 g3)
                           + c(g0, g1, g2) rho_e(g3) - R_c(g0, g1) gamma(g2, g3)
                           + gamma(g0, g1) R_e(g2, g3).

    Let S be the arrows h with c = 0 on every triple starting with h; S contains T.  With R_c
    and R_e zero, for t in T and h in S every term on the right starts with t or h, so th is
    in S; and every arrow is a nonempty product of T-arrows, so S is every arrow.
    """
    rep = Report()
    if not _dims_ok(r, rep):
        return rep
    g = r.base
    for x in range(g.n_objects):
        u = g.unit[x]
        if r.rho_e[u] != Matrix.identity(r.e_dims[x]):
            rep.add("unital-rho_e", (x,))
        if r.rho_c[u] != Matrix.identity(r.c_dims[x]):
            rep.add("unital-rho_c", (x,))
    for (g1, g2), m in r.gamma.items():
        if (g.is_unit(g1) or g.is_unit(g2)) and not m.is_zero:
            rep.add("unital-gamma", (g1, g2))
    for a in range(g.n_arrows):
        if r.rho_e[a] * r.anchor[g.src[a]] != r.anchor[g.tgt[a]] * r.rho_c[a]:
            rep.add("eq1-anchor", (a,))
    earlier = len(rep.violations)
    for g1, g2 in g.pairs:
        g12 = g.compose(g1, g2)
        gam = r.gamma[(g1, g2)]
        if r.rho_c[g1] * r.rho_c[g2] - r.rho_c[g12] + gam * r.anchor[g.src[g2]] != Matrix.zeros(
            r.c_dims[g.tgt[g1]], r.c_dims[g.src[g2]]
        ):
            rep.add("eq2-rho_c", (g1, g2))
        if r.rho_e[g1] * r.rho_e[g2] - r.rho_e[g12] + r.anchor[g.tgt[g1]] * gam != Matrix.zeros(
            r.e_dims[g.tgt[g1]], r.e_dims[g.src[g2]]
        ):
            rep.add("eq3-rho_e", (g1, g2))
    flat = len(rep.violations) == earlier  # eq2 and eq3 hold on every pair

    def cocycle(g1: int, g2: int, g3: int) -> bool:
        return (
            r.rho_c[g1] * r.gamma[(g2, g3)]
            - r.gamma[(g.compose(g1, g2), g3)]
            + r.gamma[(g1, g.compose(g2, g3))]
            - r.gamma[(g1, g2)] * r.rho_e[g3]
        ).is_zero

    if flat and validate_groupoid(g).ok:
        if all(cocycle(*x) for x in composable_strings(g, 3, generating_arrows(g))[-1]):
            return rep
    for x in g.triples():
        if not cocycle(*x):
            rep.add("eq4-cocycle", x)
    return rep


@dataclass(frozen=True)
class RuthMorphism:
    source: TwoTermRuth
    target: TwoTermRuth
    phi_e: tuple[Matrix, ...]  # per object
    phi_c: tuple[Matrix, ...]  # per object
    mu: tuple[Matrix, ...]  # per arrow g: E_{src g} -> C'_{tgt g}, zero at units


def check_ruth_morphism(m: RuthMorphism) -> Report:
    rep = Report()
    r, rp = m.source, m.target
    if r.base != rp.base:
        rep.add("base", (), "source and target over different groupoids")
        return rep
    g = r.base
    ok = True
    for x in range(g.n_objects):
        if (m.phi_e[x].rows, m.phi_e[x].cols) != (rp.e_dims[x], r.e_dims[x]):
            rep.add("phi_e-shape", (x,))
            ok = False
        if (m.phi_c[x].rows, m.phi_c[x].cols) != (rp.c_dims[x], r.c_dims[x]):
            rep.add("phi_c-shape", (x,))
            ok = False
    for a in range(g.n_arrows):
        if (m.mu[a].rows, m.mu[a].cols) != (rp.c_dims[g.tgt[a]], r.e_dims[g.src[a]]):
            rep.add("mu-shape", (a,))
            ok = False
    if not ok:
        return rep
    for x in range(g.n_objects):
        if rp.anchor[x] * m.phi_c[x] != m.phi_e[x] * r.anchor[x]:
            rep.add("meq1-anchor", (x,))
        if not m.mu[g.unit[x]].is_zero:
            rep.add("unital-mu", (x,))
    for a in range(g.n_arrows):
        x, y = g.src[a], g.tgt[a]
        if rp.rho_e[a] * m.phi_e[x] + rp.anchor[y] * m.mu[a] - m.phi_e[y] * r.rho_e[a] != Matrix.zeros(
            rp.e_dims[y], r.e_dims[x]
        ):
            rep.add("meq2-rho_e", (a,))
        if m.phi_c[y] * r.rho_c[a] - m.mu[a] * r.anchor[x] - rp.rho_c[a] * m.phi_c[x] != Matrix.zeros(
            rp.c_dims[y], r.c_dims[x]
        ):
            rep.add("meq3-rho_c", (a,))
    for g1, g2 in g.pairs:
        y = g.tgt[g1]
        x = g.src[g2]
        lhs = (
            m.phi_c[y] * r.gamma[(g1, g2)]
            + m.mu[g1] * r.rho_e[g2]
            + rp.rho_c[g1] * m.mu[g2]
            - m.mu[g.compose(g1, g2)]
            - rp.gamma[(g1, g2)] * m.phi_e[x]
        )
        if not lhs.is_zero:
            rep.add("meq4-curvature", (g1, g2))
    return rep


# -- constructions ------------------------------------------------------------


def zero_ruth(base: FiniteGroupoid) -> TwoTermRuth:
    return make_ruth(base, (0,) * base.n_objects, (0,) * base.n_objects)


def make_ruth(
    base: FiniteGroupoid,
    e_dims: Sequence[int],
    c_dims: Sequence[int],
    anchor: Optional[dict[int, Matrix]] = None,
    rho_e: Optional[dict[int, Matrix]] = None,
    rho_c: Optional[dict[int, Matrix]] = None,
    gamma: Optional[dict[tuple[int, int], Matrix]] = None,
) -> TwoTermRuth:
    """Assemble a ruth, filling unspecified entries with identity/zero defaults."""
    e = tuple(e_dims)
    c = tuple(c_dims)
    anchor = anchor or {}
    rho_e = rho_e or {}
    rho_c = rho_c or {}
    gamma = gamma or {}
    anc = tuple(anchor.get(x, Matrix.zeros(e[x], c[x])) for x in range(base.n_objects))

    def default_rho(a: int, dims: Bundle) -> Matrix:
        if base.is_unit(a) or dims[base.src[a]] == dims[base.tgt[a]]:
            return Matrix.identity(dims[base.src[a]])
        return Matrix.zeros(dims[base.tgt[a]], dims[base.src[a]])

    re = tuple(rho_e.get(a, default_rho(a, e)) for a in range(base.n_arrows))
    rc = tuple(rho_c.get(a, default_rho(a, c)) for a in range(base.n_arrows))
    gam = {
        (g1, g2): gamma.get((g1, g2), Matrix.zeros(c[base.tgt[g1]], e[base.src[g2]]))
        for (g1, g2) in base.pairs
    }
    return TwoTermRuth(base=base, e_dims=e, c_dims=c, anchor=anc, rho_e=re, rho_c=rc, gamma=gam)


def identity_morphism(r: TwoTermRuth) -> RuthMorphism:
    g = r.base
    return RuthMorphism(
        source=r,
        target=r,
        phi_e=tuple(Matrix.identity(d) for d in r.e_dims),
        phi_c=tuple(Matrix.identity(d) for d in r.c_dims),
        mu=tuple(Matrix.zeros(r.c_dims[g.tgt[a]], r.e_dims[g.src[a]]) for a in range(g.n_arrows)),
    )


def zero_morphism(r: TwoTermRuth, rp: TwoTermRuth) -> RuthMorphism:
    g = r.base
    return RuthMorphism(
        source=r,
        target=rp,
        phi_e=tuple(Matrix.zeros(rp.e_dims[x], r.e_dims[x]) for x in range(g.n_objects)),
        phi_c=tuple(Matrix.zeros(rp.c_dims[x], r.c_dims[x]) for x in range(g.n_objects)),
        mu=tuple(Matrix.zeros(rp.c_dims[g.tgt[a]], r.e_dims[g.src[a]]) for a in range(g.n_arrows)),
    )


def compose_ruth_morphisms(m2: RuthMorphism, m1: RuthMorphism) -> RuthMorphism:
    """Composite with mu'' = phi_c' mu + mu' phi_e; validated on every call."""
    if m1.target != m2.source:
        raise ValueError("morphisms not composable")
    g = m1.source.base
    out = RuthMorphism(
        source=m1.source,
        target=m2.target,
        phi_e=tuple(m2.phi_e[x] * m1.phi_e[x] for x in range(g.n_objects)),
        phi_c=tuple(m2.phi_c[x] * m1.phi_c[x] for x in range(g.n_objects)),
        mu=tuple(
            m2.phi_c[g.tgt[a]] * m1.mu[a] + m2.mu[a] * m1.phi_e[g.src[a]] for a in range(g.n_arrows)
        ),
    )
    check_ruth_morphism(out).require("compose_ruth_morphisms: composite invalid")
    return out


def is_quasi_iso(m: RuthMorphism) -> tuple[bool, dict[int, object]]:
    """Object-wise quasi-isomorphism test on the core complexes (C_x -> E_x)."""
    check_ruth_morphism(m).require("is_quasi_iso: invalid morphism")
    certs: dict[int, object] = {}
    ok = True
    for x in range(m.source.base.n_objects):
        cert = chain_map_is_quasi_iso(
            m.source.core_complex(x),
            m.target.core_complex(x),
            {0: m.phi_c[x], 1: m.phi_e[x]},
        )
        certs[x] = cert
        ok = ok and cert.ok
    return ok, certs


def direct_sum(r1: TwoTermRuth, r2: TwoTermRuth) -> TwoTermRuth:
    if r1.base != r2.base:
        raise ValueError("direct_sum: different base groupoids")
    g = r1.base
    out = TwoTermRuth(
        base=g,
        e_dims=tuple(a + b for a, b in zip(r1.e_dims, r2.e_dims)),
        c_dims=tuple(a + b for a, b in zip(r1.c_dims, r2.c_dims)),
        anchor=tuple(Matrix.block_diag([r1.anchor[x], r2.anchor[x]]) for x in range(g.n_objects)),
        rho_e=tuple(Matrix.block_diag([r1.rho_e[a], r2.rho_e[a]]) for a in range(g.n_arrows)),
        rho_c=tuple(Matrix.block_diag([r1.rho_c[a], r2.rho_c[a]]) for a in range(g.n_arrows)),
        gamma={p: Matrix.block_diag([r1.gamma[p], r2.gamma[p]]) for p in g.pairs},
    )
    check_ruth(out).require("direct_sum: output invalid")
    return out


def summand_projection(d1: int, d2: int, side: int) -> Matrix:
    """The projection of Q^d1 (+) Q^d2 onto its summand number ``side`` (0 or 1)."""
    d = (d1, d2)[side]
    return Matrix.block([d], [d1, d2], {(0, side): Matrix.identity(d)})


def sum_projection(r1: TwoTermRuth, r2: TwoTermRuth, side: int = 0) -> RuthMorphism:
    s = direct_sum(r1, r2)
    ri = (r1, r2)[side]
    g = r1.base
    phi_e = tuple(summand_projection(d1, d2, side) for d1, d2 in zip(r1.e_dims, r2.e_dims))
    phi_c = tuple(summand_projection(d1, d2, side) for d1, d2 in zip(r1.c_dims, r2.c_dims))
    mu = tuple(Matrix.zeros(ri.c_dims[g.tgt[a]], s.e_dims[g.src[a]]) for a in range(g.n_arrows))
    out = RuthMorphism(source=s, target=ri, phi_e=phi_e, phi_c=phi_c, mu=mu)
    check_ruth_morphism(out).require("sum_projection: invalid")
    return out


def pullback_ruth(f: GroupoidMap, r: TwoTermRuth) -> TwoTermRuth:
    """Base-change along a functor into the base: pure reindexing of fibers."""
    validate_map(f).require("pullback_ruth: invalid functor")
    if f.cod != r.base:
        raise ValueError("pullback_ruth: functor does not land in the base")
    check_ruth(r).require("pullback_ruth: invalid ruth")
    d = f.dom
    out = TwoTermRuth(
        base=d,
        e_dims=tuple(r.e_dims[f.obj_map[x]] for x in range(d.n_objects)),
        c_dims=tuple(r.c_dims[f.obj_map[x]] for x in range(d.n_objects)),
        anchor=tuple(r.anchor[f.obj_map[x]] for x in range(d.n_objects)),
        rho_e=tuple(r.rho_e[f.arr_map[a]] for a in range(d.n_arrows)),
        rho_c=tuple(r.rho_c[f.arr_map[a]] for a in range(d.n_arrows)),
        gamma={(g1, g2): r.gamma[(f.arr_map[g1], f.arr_map[g2])] for (g1, g2) in d.pairs},
    )
    check_ruth(out).require("pullback_ruth: output invalid")
    return out


def gauge_transform(
    r: TwoTermRuth,
    phi_e: Sequence[Matrix],
    phi_c: Sequence[Matrix],
    mu: Sequence[Matrix],
) -> tuple[TwoTermRuth, RuthMorphism]:
    """Transport r along invertible (phi_e, phi_c) and arbitrary unital mu.

    Returns the transported ruth r' and the connecting morphism r -> r',
    which is invertible and in particular a quasi-isomorphism.  The primed
    data is obtained by solving the morphism equations for r'.
    """
    check_ruth(r).require("gauge_transform: invalid input")
    g = r.base
    phi_e = tuple(phi_e)
    phi_c = tuple(phi_c)
    mu = tuple(mu)
    for x in range(g.n_objects):
        if not phi_e[x].is_invertible or not phi_c[x].is_invertible:
            raise ValueError(f"gauge_transform: phi not invertible at object {x}")
    for x in range(g.n_objects):
        if not mu[g.unit[x]].is_zero:
            raise ValueError("gauge_transform: mu must vanish at units")
    phi_e_inv = tuple(p.inverse() for p in phi_e)
    phi_c_inv = tuple(p.inverse() for p in phi_c)
    anchor = tuple(phi_e[x] * r.anchor[x] * phi_c_inv[x] for x in range(g.n_objects))
    rho_e = tuple(
        (phi_e[g.tgt[a]] * r.rho_e[a] - anchor[g.tgt[a]] * mu[a]) * phi_e_inv[g.src[a]]
        for a in range(g.n_arrows)
    )
    rho_c = tuple(
        (phi_c[g.tgt[a]] * r.rho_c[a] - mu[a] * r.anchor[g.src[a]]) * phi_c_inv[g.src[a]]
        for a in range(g.n_arrows)
    )
    gamma = {}
    for g1, g2 in g.pairs:
        y = g.tgt[g1]
        x = g.src[g2]
        gamma[(g1, g2)] = (
            phi_c[y] * r.gamma[(g1, g2)]
            + mu[g1] * r.rho_e[g2]
            + rho_c[g1] * mu[g2]
            - mu[g.compose(g1, g2)]
        ) * phi_e_inv[x]
    rp = TwoTermRuth(
        base=g,
        e_dims=r.e_dims,
        c_dims=r.c_dims,
        anchor=anchor,
        rho_e=rho_e,
        rho_c=rho_c,
        gamma=gamma,
    )
    check_ruth(rp).require("gauge_transform: output ruth invalid")
    mor = RuthMorphism(source=r, target=rp, phi_e=phi_e, phi_c=phi_c, mu=mu)
    check_ruth_morphism(mor).require("gauge_transform: connecting morphism invalid")
    return rp, mor


def dual_ruth(r: TwoTermRuth) -> TwoTermRuth:
    """Dual ruth on (C*, E*): transposes along inverse arrows.

    Convention (frozen; the choice is an implementation artifact pinned by
    ``tests/test_ruth.py::test_dual_sign_convention_search``): anchor* = anchor^T,
    rho_e* at g = rho_c at g^{-1} transposed, rho_c* at g = rho_e at g^{-1} transposed, and
    gamma*_{g,h} = gamma_{h^{-1},g^{-1}} transposed with sign +1.
    """
    check_ruth(r).require("dual_ruth: invalid input")
    g = r.base
    out = TwoTermRuth(
        base=g,
        e_dims=r.c_dims,
        c_dims=r.e_dims,
        anchor=tuple(r.anchor[x].transpose() for x in range(g.n_objects)),
        rho_e=tuple(r.rho_c[g.inv[a]].transpose() for a in range(g.n_arrows)),
        rho_c=tuple(r.rho_e[g.inv[a]].transpose() for a in range(g.n_arrows)),
        gamma={
            (g1, g2): r.gamma[(g.inv[g2], g.inv[g1])].transpose() for (g1, g2) in g.pairs
        },
    )
    check_ruth(out).require("dual_ruth: output invalid")
    return out


def dual_morphism(m: RuthMorphism) -> RuthMorphism:
    """Dual of a morphism: direction reverses; mu* at g = -mu at g^{-1} transposed."""
    check_ruth_morphism(m).require("dual_morphism: invalid input")
    g = m.source.base
    out = RuthMorphism(
        source=dual_ruth(m.target),
        target=dual_ruth(m.source),
        phi_e=tuple(m.phi_c[x].transpose() for x in range(g.n_objects)),
        phi_c=tuple(m.phi_e[x].transpose() for x in range(g.n_objects)),
        mu=tuple(-m.mu[g.inv[a]].transpose() for a in range(g.n_arrows)),
    )
    check_ruth_morphism(out).require("dual_morphism: output invalid")
    return out
