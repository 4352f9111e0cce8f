"""Deterministic fixture and instance generators.

Unconstrained random tuples essentially never satisfy the coupled ruth
equations, so generation works by gauge-transporting structured seeds:
honest representations built from isotropy homomorphisms and orbit
transports, acyclic ruths, zero ruths, shifted (core-only) ruths, and their
direct sums.  Everything is driven by ``random.Random(seed)`` and every
emitted object passes its validator, so fixtures double as regression
baselines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .descent import DescentProblem, make_descent_problem
from .groupoid import (
    FiniteGroupoid,
    cyclic_groupoid,
    disjoint_union,
    orbit_transports,
    pair_groupoid,
    point_groupoid,
)
from .linalg import Matrix
from .ruth import (
    RuthMorphism,
    TwoTermRuth,
    check_ruth,
    direct_sum,
    gauge_transform,
    identity_morphism,
    make_ruth,
    pullback_ruth,
    sum_projection,
    zero_ruth,
)
from .vb import (
    VBGroupoid,
    VBMap,
    acyclic_vb,
    base_change_map,
    core,
    direct_sum_vb,
    grothendieck,
    grothendieck_map,
    twist,
)


def base_groupoids() -> dict[str, FiniteGroupoid]:
    """The named base zoo used across fixtures."""
    return {
        "pt": point_groupoid(),
        "z2": cyclic_groupoid(2),
        "z3": cyclic_groupoid(3),
        "pair2": pair_groupoid(2),
        "pt+z2": disjoint_union(point_groupoid(), cyclic_groupoid(2)),
    }


# -- honest representations -------------------------------------------------------


def honest_rep(g: FiniteGroupoid, isotropy_rep: Callable[[int, int], Matrix], dim_at_base: Callable[[int], int]) -> TwoTermRuth:
    """Build a genuine representation from isotropy data and orbit transport.

    ``isotropy_rep(x0, h)`` gives the matrix of the isotropy arrow h at the
    basepoint x0, the root of its orbit; ``dim_at_base(x0)`` its dimension.
    Transport along the arrows of :func:`~vbgroupoids.groupoid.orbit_transports`
    makes the result multiplicative on the nose.
    """
    root, transport = orbit_transports(g)
    dims = tuple(dim_at_base(root[x]) for x in range(g.n_objects))
    rho = {}
    for a in range(g.n_arrows):
        x, y = g.src[a], g.tgt[a]
        h = g.compose(g.inv[transport[y]], g.compose(a, transport[x]))
        rho[a] = isotropy_rep(root[x], h)
    out = make_ruth(g, dims, (0,) * g.n_objects, rho_e=rho)
    check_ruth(out).require("honest_rep: output invalid")
    return out


def _cyclic_rep_matrix(n: int, kind: str, h: int) -> Matrix:
    """Rational representations of Z_n: trivial, sign (n even), rotation block."""
    if kind == "trivial":
        return Matrix.identity(1)
    if kind == "sign":
        return Matrix.identity(1) if h % 2 == 0 else Matrix.from_rows([[-1]])
    if kind == "rotation":
        # companion matrix of 1 + x + ... + x^{n-1}, an (n-1)-dim rational rep
        m = n - 1
        comp = [[Fraction(0)] * m for _ in range(m)]
        for i in range(1, m):
            comp[i][i - 1] = Fraction(1)
        for i in range(m):
            comp[i][m - 1] = Fraction(-1)
        c = Matrix.from_rows(comp)
        out = Matrix.identity(m)
        for _ in range(h % n):
            out = c * out
        return out
    raise ValueError(f"unknown cyclic rep kind {kind!r}")


def named_reps(name: str, g: FiniteGroupoid) -> list[TwoTermRuth]:
    """A small library of honest representations per named base."""
    if name == "pt":
        return [honest_rep(g, lambda x0, h: Matrix.identity(d), lambda x0: d) for d in (1, 2)]
    if name == "z2":
        kinds = ["trivial", "sign"]
        return [
            honest_rep(g, lambda x0, h, k=k: _cyclic_rep_matrix(2, k, h), lambda x0: 1)
            for k in kinds
        ]
    if name == "z3":
        return [
            honest_rep(g, lambda x0, h: _cyclic_rep_matrix(3, "trivial", h), lambda x0: 1),
            honest_rep(g, lambda x0, h: _cyclic_rep_matrix(3, "rotation", h), lambda x0: 2),
        ]
    if name == "pair2":
        return [honest_rep(g, lambda x0, h: Matrix.identity(1), lambda x0: 1)]
    if name == "pt+z2":
        def rep(x0: int, h: int) -> Matrix:
            if x0 == 0:
                return Matrix.identity(1)
            return _cyclic_rep_matrix(2, "sign", h - 1)  # arrows of the z2 part are offset by 1

        return [honest_rep(g, rep, lambda x0: 1)]
    raise ValueError(f"no named reps for base {name!r}")


def shifted_ruth(rep: TwoTermRuth) -> TwoTermRuth:
    """Move an honest representation into the core slot (E = 0)."""
    g = rep.base
    out = TwoTermRuth(
        base=g,
        e_dims=(0,) * g.n_objects,
        c_dims=rep.e_dims,
        anchor=tuple(Matrix.zeros(0, d) for d in rep.e_dims),
        rho_e=tuple(Matrix.zeros(0, 0) for _ in range(g.n_arrows)),
        rho_c=rep.rho_e,
        gamma={p: Matrix.zeros(rep.e_dims[g.tgt[p[0]]], 0) for p in g.pairs},
    )
    check_ruth(out).require("shifted_ruth: output invalid")
    return out


def acyclic_ruth(rep: TwoTermRuth) -> TwoTermRuth:
    """C = E with the identity anchor: quasi-isomorphic to zero."""
    g = rep.base
    out = TwoTermRuth(
        base=g,
        e_dims=rep.e_dims,
        c_dims=rep.e_dims,
        anchor=tuple(Matrix.identity(d) for d in rep.e_dims),
        rho_e=rep.rho_e,
        rho_c=rep.rho_e,
        gamma={p: Matrix.zeros(rep.e_dims[g.tgt[p[0]]], rep.e_dims[g.src[p[1]]]) for p in g.pairs},
    )
    check_ruth(out).require("acyclic_ruth: output invalid")
    return out


# -- randomized gauge transport -----------------------------------------------------


def random_matrix(rng: random.Random, rows: int, cols: int, lo: int = -2, hi: int = 2) -> Matrix:
    return Matrix.from_rows(
        [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_invertible(rng: random.Random, n: int) -> Matrix:
    if n == 0:
        return Matrix.identity(0)
    while True:
        m = random_matrix(rng, n, n)
        if m.is_invertible:
            return m


def random_gauge(r: TwoTermRuth, rng: random.Random) -> tuple[TwoTermRuth, RuthMorphism]:
    g = r.base
    phi_e = [random_invertible(rng, d) for d in r.e_dims]
    phi_c = [random_invertible(rng, d) for d in r.c_dims]
    mu = [
        Matrix.zeros(r.c_dims[g.tgt[a]], r.e_dims[g.src[a]])
        if g.is_unit(a)
        else random_matrix(rng, r.c_dims[g.tgt[a]], r.e_dims[g.src[a]])
        for a in range(g.n_arrows)
    ]
    return gauge_transform(r, phi_e, phi_c, mu)


def seed_ruths(name: str, g: FiniteGroupoid) -> list[TwoTermRuth]:
    """Structured seeds per base: reps, shifts, acyclics, and mixed sums."""
    reps = named_reps(name, g)
    seeds: list[TwoTermRuth] = list(reps)
    seeds += [shifted_ruth(r) for r in reps[:1]]
    seeds += [acyclic_ruth(r) for r in reps[:1]]
    seeds.append(direct_sum(reps[0], acyclic_ruth(reps[0])))
    if len(reps) > 1:
        seeds.append(direct_sum(reps[1], shifted_ruth(reps[0])))
    seeds.append(zero_ruth(g))
    return seeds


# -- descent fixtures ------------------------------------------------------------------


@dataclass(frozen=True)
class DescentFixture:
    problem: DescentProblem
    gamma: VBGroupoid  # over the base
    gamma_prime: VBGroupoid  # over the base
    psi: VBMap  # over the Cech groupoid, between the pullbacks
    base_phi: VBMap  # the map psi was manufactured from


def named_covers(name: str, g: FiniteGroupoid) -> list[list[list[int]]]:
    objs = list(range(g.n_objects))
    covers = [[objs, objs]]
    if g.n_objects == 1:
        covers.append([objs, objs, objs])
    else:
        covers.append([objs[:1], objs] )
    return covers


def make_map_descent_fixture(
    seed: int, base_name: str = "z2", cover_index: int = 0, twist_data: bool = True, with_core: bool = False
) -> DescentFixture:
    """psi := (pullback of a known map) twisted by random vertical data.

    The known map is built from an honest representation rep, so its target has core 0 and
    the twist changes nothing, unless ``with_core``: then it is the gauge map of
    rep (+) acyclic(rep), whose target has a core as large as rep.
    """
    rng = random.Random(seed)
    zoo = base_groupoids()
    g = zoo[base_name]
    problem = make_descent_problem(g, named_covers(base_name, g)[cover_index])
    reps = named_reps(base_name, g)
    rep = reps[seed % len(reps)]
    choice = seed % 3
    if with_core:
        _, mor = random_gauge(direct_sum(rep, acyclic_ruth(rep)), rng)
    elif choice == 0:
        mor = sum_projection(rep, acyclic_ruth(rep), side=0)
    elif choice == 1:
        _, mor = random_gauge(rep, rng)
    else:
        mor = identity_morphism(rep)
    base_phi = grothendieck_map(mor)
    cech = problem.cech
    psi = base_change_map(cech.pi, base_phi)
    if twist_data:
        cd = core(psi.target)
        alpha = [
            random_matrix(rng, cd.dims[k], psi.source.e_dims[k])
            for k in range(cech.gu.n_objects)
        ]
        psi, _ = twist(psi, alpha)
    return DescentFixture(
        problem=problem, gamma=base_phi.source, gamma_prime=base_phi.target, psi=psi, base_phi=base_phi
    )


def make_object_descent_fixture(
    seed: int, base_name: str = "pt", cover_index: int = 1, pad: bool = False
) -> tuple[DescentProblem, VBGroupoid]:
    """A gauge-perturbed pullback over the Cech groupoid (optionally rank-uneven)."""
    rng = random.Random(seed)
    zoo = base_groupoids()
    g = zoo[base_name]
    problem = make_descent_problem(g, named_covers(base_name, g)[cover_index])
    reps = named_reps(base_name, g)
    rep = reps[seed % len(reps)]
    seed_ruth = direct_sum(rep, acyclic_ruth(rep)) if seed % 2 else acyclic_ruth(rep)
    r_pull = pullback_ruth(problem.cech.pi, seed_ruth)
    perturbed, _ = random_gauge(r_pull, rng)
    v = grothendieck(perturbed)
    if pad:
        gu = problem.gu
        dims = tuple(1 if k % 2 == 0 else 0 for k in range(gu.n_objects))
        v = direct_sum_vb(v, acyclic_vb(gu, dims))
    return problem, v


def rank_drop_fixture(seed: int = 0) -> tuple[DescentProblem, VBGroupoid]:
    """A perturbed pullback whose canonical kernel transport drops rank.

    The gauge data is chosen so that phi_e - anchor mu is singular on a
    kernel arrow, exercising the section-correction branch of
    make_invertible.  The fixture is fixed: ``seed`` does not change it.
    """
    zoo = base_groupoids()
    g = zoo["pt"]
    problem = make_descent_problem(g, [[0], [0]])
    rep = named_reps("pt", g)[0]
    r_pull = pullback_ruth(problem.cech.pi, acyclic_ruth(rep))
    gu = problem.gu
    phi_e = [Matrix.identity(d) for d in r_pull.e_dims]
    phi_c = [Matrix.identity(d) for d in r_pull.c_dims]
    mu = []
    for a in range(gu.n_arrows):
        if gu.is_unit(a):
            mu.append(Matrix.zeros(r_pull.c_dims[gu.tgt[a]], r_pull.e_dims[gu.src[a]]))
        else:
            mu.append(Matrix.identity(r_pull.e_dims[gu.src[a]]))  # makes rho' = 1 - 1 = 0
    perturbed, _ = gauge_transform(r_pull, phi_e, phi_c, mu)
    return problem, grothendieck(perturbed)
