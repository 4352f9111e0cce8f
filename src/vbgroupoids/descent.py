"""Cech descent for VB-groupoids over a finite base.

Given a cover of the objects of G, the pullback groupoid G_U carries the
descent data.  This module implements the two constructive halves:

* ``descend_map``: a VB-map between pullbacks is isomorphic, after twisting by
  the integrated vertical obstruction cocycle, to one that kills the Cech
  kernel and therefore descends to the base: the descended map is
  ``base_change_map`` along ``CechGroupoid.section``, and its
  ``base_change_map`` along ``CechGroupoid.pi`` is the twisted map again.
* ``make_invertible`` / ``symmetrize_cleavage`` / ``flatten_cleavage`` /
  ``descend_object``: an arbitrary VB-groupoid over G_U is stabilized by an
  acyclic summand until its kernel quasi-action can be made invertible, the
  kernel lifts are made mutually inverse and then flat, and the result is
  identified with the pullback of its restriction to least-index lifts: the
  descended object is ``base_change`` along ``CechGroupoid.section``.

All identities (the beta cocycle law, the post-twist cancellation, the
flatness equation) are checked to exact equality; failures raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .groupoid import CechGroupoid, FiniteGroupoid, cech_groupoid, identity_map
from .linalg import Matrix, complement_space, image_space, preimage_space
from .report import Report
from .vb import (
    Cleavage,
    CoreData,
    VBGroupoid,
    VBMap,
    VBMapIso,
    acyclic_vb,
    base_change,
    base_change_map,
    check_cleavage,
    check_vbgroupoid,
    check_vbmap,
    choose_cleavage,
    core,
    identity_vbmap,
    is_vb_morita,
    sum_projection_vb,
    twist,
    zero_vb,
)


class DescentError(ValueError):
    """A descent identity failed exactly; carries the offending witness."""


class CoverMismatchError(ValueError):
    """A partition of unity over another cover than the descent problem's."""


@dataclass(frozen=True)
class PartitionOfUnity:
    """Rational weights lambda_i(x), subordinate to the cover, summing to 1."""

    cover: tuple[tuple[int, ...], ...]
    weights: dict[tuple[int, int], Fraction]  # (i, x) -> weight, only for x in U_i

    def weight(self, i: int, x: int) -> Fraction:
        return self.weights.get((i, x), Fraction(0))

    def validate(self, n_objects: int) -> Report:
        rep = Report()
        for (i, x), w in self.weights.items():
            if x not in self.cover[i]:
                rep.add("subordinate", (i, x), "weight outside its cover set")
            if w < 0:
                rep.add("nonnegative", (i, x))
        for x in range(n_objects):
            total = sum(self.weight(i, x) for i in range(len(self.cover)))
            if total != 1:
                rep.add("sum-to-one", (x,), f"total {total}")
        return rep


def uniform_partition(cech: CechGroupoid) -> PartitionOfUnity:
    """lambda_i(x) = 1 / #{j : x in U_j}."""
    weights = {}
    for x in range(cech.base.n_objects):
        idx = cech.indices_containing(x)
        for i in idx:
            weights[(i, x)] = Fraction(1, len(idx))
    return PartitionOfUnity(cover=cech.cover, weights=weights)


def min_index_partition(cech: CechGroupoid) -> PartitionOfUnity:
    """The partition concentrated on the least cover index containing each object."""
    weights = {}
    for x in range(cech.base.n_objects):
        weights[(cech.min_index(x), x)] = Fraction(1)
    return PartitionOfUnity(cover=cech.cover, weights=weights)


@dataclass(frozen=True)
class DescentProblem:
    """A Cech fibration with a chosen partition of unity."""

    cech: CechGroupoid
    partition: PartitionOfUnity

    @property
    def base(self) -> FiniteGroupoid:
        return self.cech.base

    @property
    def gu(self) -> FiniteGroupoid:
        return self.cech.gu


def make_descent_problem(
    base: FiniteGroupoid,
    cover: Sequence[Sequence[int]],
    partition: Optional[PartitionOfUnity] = None,
) -> DescentProblem:
    cech = cech_groupoid(base, cover)
    if partition is not None and tuple(tuple(sorted(set(u))) for u in partition.cover) != cech.cover:
        raise CoverMismatchError(f"make_descent_problem: partition over cover {partition.cover}, not {cech.cover}")
    part = partition if partition is not None else uniform_partition(cech)
    part.validate(base.n_objects).require("make_descent_problem: invalid partition")
    return DescentProblem(cech=cech, partition=part)


# -- step 2: descending maps -----------------------------------------------------


@dataclass(frozen=True)
class DescendedMap:
    phi: VBMap  # the descended map over the base
    twisted: VBMap  # psi twisted by the integrated cocycle; equals pullback of phi
    iso: VBMapIso  # psi => twisted
    beta: dict[int, Matrix]  # vertical obstruction per kernel arrow


def _vertical_obstruction(
    problem: DescentProblem, psi: VBMap, cd_tgt: CoreData
) -> dict[int, Matrix]:
    """beta per kernel arrow, in core coordinates of the target."""
    gu = problem.gu
    beta = {}
    for k in problem.cech.kernel_arrows:
        src_obj, tgt_obj = gu.src[k], gu.tgt[k]
        raw = psi.arr_maps[k] * psi.source.u_maps[src_obj] - psi.target.u_maps[tgt_obj] * psi.obj_maps[src_obj]
        coords = cd_tgt.basis[tgt_obj].solve_matrix(raw)
        if coords is None:
            raise DescentError(f"vertical obstruction not core-valued at kernel arrow {k}")
        beta[k] = coords
    return beta


def descend_map(problem: DescentProblem, gamma: VBGroupoid, gamma_p: VBGroupoid, psi: VBMap) -> DescendedMap:
    """Descend psi: pullback(gamma) -> pullback(gamma') to a map gamma -> gamma'.

    Computes the vertical obstruction beta on the Cech kernel, asserts its
    cocycle law exactly, integrates it against the partition of unity, twists
    psi, verifies the twisted map kills the kernel, and reads the descended
    map off the least-index lifts.
    """
    cech = problem.cech
    gu = cech.gu
    pull_src, _ = base_change(cech.pi, gamma)
    pull_tgt, _ = base_change(cech.pi, gamma_p)
    if psi.source != pull_src or psi.target != pull_tgt:
        raise ValueError("descend_map: psi endpoints are not the given pullbacks")
    if psi.base_map != identity_map(gu):
        raise ValueError("descend_map: psi must cover the identity of the Cech groupoid")
    check_vbmap(psi).require("descend_map: psi invalid")
    cd_tgt = core(pull_tgt)
    beta = _vertical_obstruction(problem, psi, cd_tgt)
    # cocycle law, exactly
    for kkj, kji in cech.kernel_pairs:
        if beta[kkj] + beta[kji] != beta[gu.compose(kkj, kji)]:
            x = cech.obj_pairs[gu.src[kji]][0]
            (_, k, j), (_, _, i) = cech.arrow_triples[kkj], cech.arrow_triples[kji]
            raise DescentError(f"beta cocycle law fails at x={x}, (k,j,i)=({k},{j},{i})")
    # integrate: alpha at (x, i) = sum_j lambda_j(x) beta_{ji}
    alpha = [Matrix.zeros(cd_tgt.dims[o], pull_src.e_dims[o]) for o in range(gu.n_objects)]
    for k, b in beta.items():
        x, j = cech.obj_pairs[gu.tgt[k]]
        w = problem.partition.weight(j, x)
        if w:
            alpha[gu.src[k]] = alpha[gu.src[k]] + b.scale(w)
    twisted, iso = twist(psi, alpha)
    # post-twist cancellation: the kernel obstruction of the twisted map vanishes
    beta_after = _vertical_obstruction(problem, twisted, cd_tgt)
    for k, b in beta_after.items():
        if not b.is_zero:
            raise DescentError(f"kernel not killed after twist at kernel arrow {k}")
    # lift-independence and quotient
    lift = cech.section
    for ka, (a, j, i) in enumerate(cech.arrow_triples):
        if twisted.arr_maps[ka] != twisted.arr_maps[lift.arr_map[a]]:
            raise DescentError(f"twisted map differs across lifts of base arrow {a}")
    phi = base_change_map(lift, twisted)
    check_vbmap(phi).require("descend_map: descended map invalid")
    # the pullback of phi is exactly the twisted map
    if base_change_map(cech.pi, phi) != twisted:
        raise DescentError("pullback of the descended map differs from the twisted map")
    return DescendedMap(phi=phi, twisted=twisted, iso=iso, beta=beta)


# -- step 3: cleavage surgery ------------------------------------------------------


def kernel_transport(v: VBGroupoid, c: Cleavage, k: int) -> Matrix:
    return v.t_maps[k] * c.sigma[k]


def is_kernel_invertible(v: VBGroupoid, problem: DescentProblem, c: Cleavage) -> bool:
    return all(kernel_transport(v, c, k).is_invertible for k in problem.cech.kernel_arrows)


def _lift_product(v: VBGroupoid, c: Cleavage, k1: int, k2: int) -> Matrix:
    """sigma_{k1}(rho_{k2} e) . sigma_{k2}(e) as a matrix in e."""
    return v.mult_of(k1, k2, c.sigma[k1] * kernel_transport(v, c, k2), c.sigma[k2])


def symmetrize_cleavage(v: VBGroupoid, problem: DescentProblem, c: Cleavage) -> Cleavage:
    """Make kernel lifts mutually inverse: sigma_{ij} = sigma_{ji}^{-1} as arrows.

    Keeps the lift with target index >= source index and replaces the mirror
    by its arrow inverse; there is no ambiguity at units because the cleavage
    is unital.  Requires the kernel quasi-action to be invertible.
    """
    check_cleavage(v, c).require("symmetrize_cleavage: invalid cleavage")
    cech, gu = problem.cech, problem.gu
    if not is_kernel_invertible(v, problem, c):
        raise DescentError("symmetrize_cleavage: kernel quasi-action not invertible")
    sigma = list(c.sigma)
    for k in cech.kernel_arrows:
        _, j, i = cech.arrow_triples[k]
        if j < i:
            km = gu.inv[k]
            sigma[k] = v.inverse_matrix(km) * sigma[km] * (v.t_maps[km] * sigma[km]).inverse()
    out = Cleavage(sigma=tuple(sigma))
    check_cleavage(v, out).require("symmetrize_cleavage: output invalid")
    for k in cech.kernel_arrows:
        km = gu.inv[k]
        if kernel_transport(v, out, k) * kernel_transport(v, out, km) != Matrix.identity(v.e_dims[gu.tgt[km]]):
            raise DescentError(f"symmetrize_cleavage: rho_ji rho_ij != id at kernel arrow {k}")
    return out


def is_u_flat(v: VBGroupoid, problem: DescentProblem, c: Cleavage) -> bool:
    """Whether sigma_{kj} sigma_{ji} = sigma_{ki} exactly on kernel pairs."""
    gu = problem.gu
    return all(_lift_product(v, c, k1, k2) == c.sigma[gu.compose(k1, k2)] for k1, k2 in problem.cech.kernel_pairs)


def flatten_cleavage(v: VBGroupoid, problem: DescentProblem, c: Cleavage, partition: PartitionOfUnity) -> Cleavage:
    """Average kernel lifts against ``partition`` and verify flatness.

    New lift over (x: j <- i) is sum_r lambda_r(x) sigma_{jr} sigma_{ri}.
    Averaging a flat family is idempotent.  The output must satisfy the
    flatness identity exactly; otherwise a DescentError is raised (for deep
    covers the quasi-action correction terms obstruct one-shot averaging for
    spread-out partitions, while the least-index partition always flattens a
    symmetric cleavage, which is why ``descend_pipeline`` passes
    ``min_index_partition(problem.cech)`` rather than ``problem.partition``).
    """
    check_cleavage(v, c).require("flatten_cleavage: invalid cleavage")
    cech, gu = problem.cech, problem.gu
    sigma = list(c.sigma)
    for k in cech.kernel_arrows:
        sigma[k] = Matrix.zeros(v.gamma_dims[k], v.e_dims[gu.src[k]])
    for kjr, kri in cech.kernel_pairs:
        x, r = cech.obj_pairs[gu.src[kjr]]
        w = partition.weight(r, x)
        if w:
            k = gu.compose(kjr, kri)
            sigma[k] = sigma[k] + _lift_product(v, c, kjr, kri).scale(w)
    out = Cleavage(sigma=tuple(sigma))
    check_cleavage(v, out).require("flatten_cleavage: output not a unital cleavage")
    if not is_u_flat(v, problem, out):
        raise DescentError("flatten_cleavage: flatness identity fails exactly")
    return out


# -- stabilization -------------------------------------------------------------------


@dataclass(frozen=True)
class Stabilization:
    stabilized: VBGroupoid  # v (+) omega
    omega: VBGroupoid  # acyclic padding over the Cech groupoid
    cleavage: Cleavage  # invertible over the kernel
    projection: VBMap  # stabilized -> v, VB-Morita


def _adjust_section(v: VBGroupoid, cd: CoreData, k: int, sigma_k: Matrix) -> Matrix:
    """Correct a kernel lift by core-valued data so its transport is invertible.

    Achievable transports differ from t sigma by anchor composed with an
    arbitrary map into the core; when fiber dimensions agree along the kernel
    orbit the correction always exists.
    """
    g = v.base
    xj, xi = g.tgt[k], g.src[k]
    t0 = v.t_maps[k] * sigma_k
    if t0.is_invertible:
        return sigma_k
    if v.e_dims[xi] != v.e_dims[xj]:
        raise DescentError(f"kernel arrow {k}: fiber dimensions differ, padding required")
    im_d = image_space(cd.anchor[xj])
    ker_t = preimage_space(t0, im_d)
    if ker_t.dim != im_d.dim:
        raise DescentError(f"kernel arrow {k}: transport not correctable (rank defect)")
    comp = complement_space(ker_t)
    w_ker = cd.anchor[xj].solve_matrix(im_d.basis - t0 * ker_t.basis)
    if w_ker is None:
        raise DescentError(f"kernel arrow {k}: correction not solvable")
    basis_full = Matrix.hstack([ker_t.basis, comp.basis])
    proj_ker = basis_full.inverse().take_rows(range(ker_t.dim))
    w_full = w_ker * proj_ker
    m1, _ = v.mult_blocks(g.unit[xj], k)
    iota = m1 * cd.basis[xj]  # core lift c -> c . 0_k into ker(s_k)
    adjusted = sigma_k + iota * w_full
    if not (v.t_maps[k] * adjusted).is_invertible:
        raise DescentError(f"kernel arrow {k}: transport still singular after correction")
    return adjusted


def make_invertible(v: VBGroupoid, problem: DescentProblem) -> Stabilization:
    """Stabilize by an acyclic summand and choose a kernel-invertible cleavage.

    Acyclic padding equalizes fiber ranks along kernel orbits (the finite
    analog of the good-cover trivialization); the cleavage sections over
    kernel arrows are then corrected by core-valued data until every kernel
    transport is invertible.  The projection back to v witnesses equivalence.
    """
    check_vbgroupoid(v).require("make_invertible: invalid input")
    cech = problem.cech
    gu = cech.gu
    if v.base != gu:
        raise ValueError("make_invertible: input not over the Cech groupoid")
    pad = [0] * gu.n_objects
    for x in range(cech.base.n_objects):
        idx = cech.indices_containing(x)
        top = max(v.e_dims[cech.obj_id(x, i)] for i in idx)
        for i in idx:
            pad[cech.obj_id(x, i)] = top - v.e_dims[cech.obj_id(x, i)]
    omega = acyclic_vb(gu, tuple(pad)) if any(pad) else zero_vb(gu)
    # with no padding, v (+) 0 and its projection onto v are v and its identity, by value
    projection = sum_projection_vb(v, omega, side=0) if any(pad) else identity_vbmap(v)
    stab = projection.source
    check_vbgroupoid(stab).require("make_invertible: stabilized object invalid")
    cd = core(stab)
    sigma = list(choose_cleavage(stab).sigma)
    for k in cech.kernel_arrows:
        if not gu.is_unit(k):
            sigma[k] = _adjust_section(stab, cd, k, sigma[k])
    cleav = Cleavage(sigma=tuple(sigma))
    check_cleavage(stab, cleav).require("make_invertible: output cleavage invalid")
    if not is_kernel_invertible(stab, problem, cleav):
        raise DescentError("make_invertible: kernel transport not invertible after stabilization")
    if not is_vb_morita(projection).ok:
        raise DescentError("make_invertible: projection not VB-Morita")
    return Stabilization(stabilized=stab, omega=omega, cleavage=cleav, projection=projection)


# -- descending objects ----------------------------------------------------------------


@dataclass(frozen=True)
class DescendedObject:
    descended: VBGroupoid  # over the base groupoid
    comparison: VBMap  # pullback(descended) -> v, invertible


def descend_object(v: VBGroupoid, problem: DescentProblem, c: Cleavage) -> DescendedObject:
    """Quotient a VB-groupoid with a U-flat cleavage to the base.

    The descended object is ``base_change`` along ``CechGroupoid.section``: fibers
    over x are taken at the least cover index.  The comparison map transports along
    the flat kernel lifts and is an isomorphism of VB-groupoids over the Cech groupoid.
    """
    check_cleavage(v, c).require("descend_object: invalid cleavage")
    cech = problem.cech
    gu = cech.gu
    if v.base != gu:
        raise ValueError("descend_object: input not over the Cech groupoid")
    if not is_u_flat(v, problem, c):
        raise DescentError("descend_object: cleavage is not U-flat")
    descended, _ = base_change(cech.section, v)
    pull, _ = base_change(cech.pi, descended)
    # per object (x, i) of the Cech groupoid: the kernel arrow (x, min_index x) -> (x, i)
    from_low = [cech.kernel_arrow(x, i, cech.min_index(x)) for (x, i) in cech.obj_pairs]
    obj_maps = [kernel_transport(v, c, k) for k in from_low]
    arr_maps = []
    for ka, (a, _, _) in enumerate(cech.arrow_triples):
        la = cech.section.arr_map[a]
        k_t, k_s = from_low[gu.tgt[ka]], from_low[gu.src[ka]]
        lift_t, lift_s = c.sigma[k_t] * v.t_maps[la], c.sigma[k_s] * v.s_maps[la]
        arr_maps.append(v.conjugate(k_t, la, k_s, lift_t, Matrix.identity(v.gamma_dims[la]), lift_s))
    comparison = VBMap(
        source=pull,
        target=v,
        base_map=identity_map(gu),
        obj_maps=tuple(obj_maps),
        arr_maps=tuple(arr_maps),
    )
    check_vbmap(comparison).require("descend_object: comparison map invalid")
    if not comparison.is_invertible:
        raise DescentError("descend_object: comparison map not invertible")
    return DescendedObject(descended=descended, comparison=comparison)


@dataclass(frozen=True)
class DescentResult:
    stabilization: Stabilization
    symmetric: Cleavage
    flat: Cleavage
    descended: VBGroupoid
    comparison: VBMap  # pullback(descended) -> v (+) omega


def descend_pipeline(v: VBGroupoid, problem: DescentProblem) -> DescentResult:
    """make_invertible -> symmetrize -> flatten -> descend_object, fully checked.

    Flattening uses the least-index partition, for which the averaged
    cleavage of a symmetric one is flat on the nose.
    """
    stab = make_invertible(v, problem)
    sym = symmetrize_cleavage(stab.stabilized, problem, stab.cleavage)
    flat = flatten_cleavage(stab.stabilized, problem, sym, min_index_partition(problem.cech))
    obj = descend_object(stab.stabilized, problem, flat)
    return DescentResult(
        stabilization=stab,
        symmetric=sym,
        flat=flat,
        descended=obj.descended,
        comparison=obj.comparison,
    )
