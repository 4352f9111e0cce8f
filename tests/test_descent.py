"""Cech descent: the cocycle law, cleavage surgery, both round trips."""

import random
from fractions import Fraction

import pytest

from vbgroupoids.descent import (
    DescentError,
    PartitionOfUnity,
    descend_map,
    descend_object,
    descend_pipeline,
    flatten_cleavage,
    is_kernel_invertible,
    is_u_flat,
    make_descent_problem,
    make_invertible,
    min_index_partition,
    symmetrize_cleavage,
    uniform_partition,
)
from vbgroupoids.generators import (
    make_map_descent_fixture,
    make_object_descent_fixture,
    named_reps,
    random_gauge,
    rank_drop_fixture,
)
from vbgroupoids.groupoid import cyclic_groupoid, identity_map, pair_groupoid, point_groupoid
from vbgroupoids.linalg import Matrix
from vbgroupoids.ruth import make_ruth
from vbgroupoids.vb import (
    VBGroupoid,
    VBMap,
    base_change,
    check_vbmap,
    check_vbmap_iso,
    choose_cleavage,
    core,
    find_vbmap_iso,
    grothendieck,
    is_vb_morita,
    split,
    twist,
)

F = Fraction


def test_partition_validation():
    prob = make_descent_problem(point_groupoid(), [[0], [0]])
    assert prob.partition.validate(1).ok
    bad = PartitionOfUnity(cover=prob.cech.cover, weights={(0, 0): F(1, 3), (1, 0): F(1, 3)})
    assert not bad.validate(1).ok


def test_partition_over_another_cover_is_rejected():
    # valid over its own three sets, but the problem's cover has two
    other = make_descent_problem(point_groupoid(), [[0], [0], [0]]).partition
    with pytest.raises(ValueError, match="partition over cover"):
        make_descent_problem(point_groupoid(), [[0], [0]], other)
    # covers compare as sorted sets: order and repeats inside a set do not matter
    same = PartitionOfUnity(cover=((1, 0, 1), (1,)), weights={(0, 0): F(1), (1, 1): F(1)})
    assert make_descent_problem(pair_groupoid(2), [[0, 1], [1]], same).partition is same


def test_min_index_partition_is_valid():
    prob = make_descent_problem(cyclic_groupoid(2), [[0], [0], [0]])
    p = min_index_partition(prob.cech)
    assert p.validate(1).ok
    assert p.weight(0, 0) == 1 and p.weight(1, 0) == 0


def test_descend_map_of_actual_pullback_is_exact():
    fx = make_map_descent_fixture(1, "z2", 0, twist_data=False)
    res = descend_map(fx.problem, fx.gamma, fx.gamma_prime, fx.psi)
    assert all(b.is_zero for b in res.beta.values())
    assert res.phi == fx.base_phi


def test_descend_map_single_set_cover():
    prob = make_descent_problem(cyclic_groupoid(2), [[0]])
    rep = named_reps("z2", cyclic_groupoid(2))[0]
    v = grothendieck(rep)
    pull, _ = base_change(prob.cech.pi, v)
    psi = VBMap(
        source=pull,
        target=pull,
        base_map=identity_map(prob.gu),
        obj_maps=tuple(Matrix.identity(d) for d in pull.e_dims),
        arr_maps=tuple(Matrix.identity(d) for d in pull.gamma_dims),
    )
    res = descend_map(prob, v, v, psi)
    assert res.phi.obj_maps == tuple(Matrix.identity(d) for d in v.e_dims)


def test_descend_map_twisted_round_trip():
    for seed in (0, 1, 2, 5):
        fx = make_map_descent_fixture(seed, "z2", 0)
        res = descend_map(fx.problem, fx.gamma, fx.gamma_prime, fx.psi)
        assert check_vbmap(res.phi).ok
        assert check_vbmap_iso(res.iso).ok
        # recovered map is isomorphic to the one we started from
        iso = find_vbmap_iso(fx.base_phi, res.phi)
        assert iso is not None


def test_descend_map_cocycle_violation_detected():
    fx = make_map_descent_fixture(3, "z2", 0, twist_data=False)
    cech = fx.problem.cech
    # corrupt psi at one kernel arrow: breaks either multiplicativity (caught
    # by the VB-map checker) or the cocycle law
    k = cech.kernel_arrows[1]
    arr = list(fx.psi.arr_maps)
    arr[k] = arr[k] + fx.psi.target.u_maps[fx.psi.source.base.tgt[k]] * random_matrix_like(
        fx.psi, k
    )
    bad = VBMap(
        source=fx.psi.source,
        target=fx.psi.target,
        base_map=fx.psi.base_map,
        obj_maps=fx.psi.obj_maps,
        arr_maps=tuple(arr),
    )
    with pytest.raises(Exception):
        descend_map(fx.problem, fx.gamma, fx.gamma_prime, bad)


def random_matrix_like(psi, k):
    rng = random.Random(0)
    rows = psi.target.u_maps[psi.source.base.tgt[k]].cols
    cols = psi.source.gamma_dims[k]
    return Matrix.from_rows(
        [[F(rng.randint(1, 2)) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def _perturbed_pullback(seed, base_name="pt", cover_index=1):
    return make_object_descent_fixture(seed, base_name, cover_index)


def test_symmetrize_idempotent_on_pullback_cleavage():
    prob = make_descent_problem(cyclic_groupoid(2), [[0], [0]])
    rep = named_reps("z2", cyclic_groupoid(2))[0]
    pull, _ = base_change(prob.cech.pi, grothendieck(rep))
    c = choose_cleavage(pull)
    sym = symmetrize_cleavage(pull, prob, c)
    assert sym.sigma == c.sigma  # kernel lifts of a pullback are already mutual inverses
    assert is_u_flat(pull, prob, sym)


def test_flatten_idempotent_on_flat_cleavage():
    prob = make_descent_problem(cyclic_groupoid(2), [[0], [0]])
    rep = named_reps("z2", cyclic_groupoid(2))[0]
    pull, _ = base_change(prob.cech.pi, grothendieck(rep))
    c = choose_cleavage(pull)
    flat = flatten_cleavage(pull, prob, c, uniform_partition(prob.cech))
    assert flat.sigma == c.sigma


def test_pipeline_two_fold_cover_uniform_partition_flattens():
    # on two-set covers a symmetric cleavage is already flat, so uniform works
    prob, v = _perturbed_pullback(3, "z2", 0)
    stab = make_invertible(v, prob)
    sym = symmetrize_cleavage(stab.stabilized, prob, stab.cleavage)
    flat = flatten_cleavage(stab.stabilized, prob, sym, uniform_partition(prob.cech))
    assert is_u_flat(stab.stabilized, prob, flat)


def test_uniform_partition_fails_exact_flatness_on_triple_cover():
    """Spread-out partitions leave quasi-action corrections on deep covers.

    This documents why the pipeline flattens with the least-index partition;
    the averaging formula itself is the paper's.
    """
    prob, v = _perturbed_pullback(7, "pt", 1)
    assert len(prob.cech.cover) == 3
    stab = make_invertible(v, prob)
    sym = symmetrize_cleavage(stab.stabilized, prob, stab.cleavage)
    with pytest.raises(DescentError, match="flatness"):
        flatten_cleavage(stab.stabilized, prob, sym, uniform_partition(prob.cech))
    flat = flatten_cleavage(stab.stabilized, prob, sym, min_index_partition(prob.cech))
    assert is_u_flat(stab.stabilized, prob, flat)


def test_make_invertible_pullback_needs_nothing():
    prob = make_descent_problem(cyclic_groupoid(2), [[0], [0]])
    rep = named_reps("z2", cyclic_groupoid(2))[0]
    pull, _ = base_change(prob.cech.pi, grothendieck(rep))
    stab = make_invertible(pull, prob)
    assert stab.omega.e_dims == (0,) * prob.gu.n_objects
    assert is_kernel_invertible(stab.stabilized, prob, stab.cleavage)


def test_make_invertible_rank_drop():
    prob, v = rank_drop_fixture(0)
    c = choose_cleavage(v)
    assert not is_kernel_invertible(v, prob, c)
    stab = make_invertible(v, prob)
    assert is_kernel_invertible(stab.stabilized, prob, stab.cleavage)
    assert is_vb_morita(stab.projection).ok


def test_make_invertible_padding_branch():
    from vbgroupoids.vb import acyclic_vb, direct_sum_vb

    prob, v = _perturbed_pullback(9, "pt", 0)
    gu = prob.gu
    uneven = direct_sum_vb(v, acyclic_vb(gu, tuple(1 if k == 0 else 0 for k in range(gu.n_objects))))
    stab = make_invertible(uneven, prob)
    assert any(d > 0 for d in stab.omega.e_dims)
    assert is_kernel_invertible(stab.stabilized, prob, stab.cleavage)
    assert is_vb_morita(stab.projection).ok
    # v + omega is built once: the projection starts at the stabilized object itself
    assert stab.projection.source is stab.stabilized


def test_descend_object_round_trip_on_pullback():
    prob = make_descent_problem(cyclic_groupoid(2), [[0], [0]])
    rep = named_reps("z2", cyclic_groupoid(2))[1]
    v0 = grothendieck(rep)
    pull, _ = base_change(prob.cech.pi, v0)
    out = descend_object(pull, prob, choose_cleavage(pull))
    assert out.descended == v0
    assert out.comparison.is_invertible


def _reindexed_at_least_lifts(v, cech):
    """v restricted to the lifts of base objects and arrows at their least cover indices, reindexed
    by hand; the reference for ``base_change`` along ``CechGroupoid.section``."""
    g = cech.base
    lift_obj = [cech.obj_id(x, cech.min_index(x)) for x in range(g.n_objects)]
    lift_arr = [
        cech.arrow_id(a, cech.min_index(g.tgt[a]), cech.min_index(g.src[a])) for a in range(g.n_arrows)
    ]
    return VBGroupoid(
        base=g,
        e_dims=tuple(v.e_dims[lift_obj[x]] for x in range(g.n_objects)),
        gamma_dims=tuple(v.gamma_dims[lift_arr[a]] for a in range(g.n_arrows)),
        s_maps=tuple(v.s_maps[lift_arr[a]] for a in range(g.n_arrows)),
        t_maps=tuple(v.t_maps[lift_arr[a]] for a in range(g.n_arrows)),
        u_maps=tuple(v.u_maps[lift_obj[x]] for x in range(g.n_objects)),
        m_maps={(g1, g2): v.m_maps[(lift_arr[g1], lift_arr[g2])] for (g1, g2) in g.pairs},
    )


@pytest.mark.parametrize(
    "seed,base_name,pad",
    [
        *((seed, "pt", pad) for seed in range(4) for pad in (False, True)),
        (0, "z2", True),
        (1, "pair2", True),
        (None, "pt", False),
    ],
)
def test_descended_object_is_the_least_index_reindex(seed, base_name, pad):
    """Seed None is the rank-drop fixture."""
    problem, v = rank_drop_fixture(0) if seed is None else make_object_descent_fixture(seed, base_name, 1, pad)
    res = descend_pipeline(v, problem)
    assert res.descended == _reindexed_at_least_lifts(res.stabilization.stabilized, problem.cech)


def test_descend_object_requires_flatness():
    prob, v = _perturbed_pullback(11, "pt", 1)
    stab = make_invertible(v, prob)
    with pytest.raises(DescentError, match="U-flat"):
        descend_object(stab.stabilized, prob, stab.cleavage)


def test_full_pipeline_round_trips():
    for seed, base_name, cover_index in ((0, "pt", 0), (1, "pt", 1), (2, "z2", 0), (4, "z2", 1)):
        prob, v = _perturbed_pullback(seed, base_name, cover_index)
        res = descend_pipeline(v, prob)
        assert res.comparison.is_invertible
        assert check_vbmap(res.comparison).ok
        # pullback of the descended object is isomorphic to v (+) omega
        assert res.comparison.source == base_change(prob.cech.pi, res.descended)[0]
        from vbgroupoids.vb import direct_sum_vb

        assert res.comparison.target == direct_sum_vb(v, res.stabilization.omega)
