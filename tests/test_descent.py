"""Cech descent: the cocycle law, cleavage surgery, both round trips."""

import random
from fractions import Fraction

import pytest

from vbgroupoids import descent
from vbgroupoids.descent import (
    DescentError,
    PartitionOfUnity,
    descend_map,
    descend_object,
    descend_pipeline,
    flatten_cleavage,
    is_kernel_invertible,
    is_u_flat,
    kernel_transport,
    make_descent_problem,
    make_invertible,
    min_index_partition,
    symmetrize_cleavage,
    uniform_partition,
)
from vbgroupoids.generators import (
    acyclic_ruth,
    base_groupoids,
    make_map_descent_fixture,
    make_object_descent_fixture,
    named_covers,
    named_reps,
    random_gauge,
    rank_drop_fixture,
)
from vbgroupoids.groupoid import cyclic_groupoid, identity_map, pair_groupoid, point_groupoid
from vbgroupoids.linalg import Matrix
from vbgroupoids.report import InvalidStructureError
from vbgroupoids.ruth import direct_sum, identity_morphism, make_ruth
from vbgroupoids.vb import (
    Cleavage,
    VBGroupoid,
    VBMap,
    base_change,
    base_change_map,
    check_vbmap,
    check_vbmap_iso,
    choose_cleavage,
    core,
    find_vbmap_iso,
    grothendieck,
    grothendieck_map,
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


@pytest.mark.parametrize("base_name", ["pt", "z2", "pair2", "pt+z2"])
@pytest.mark.parametrize("cover_index", [0, 1])
def test_descend_map_with_core_meets_nonzero_beta(base_name, cover_index):
    """A fixture target with a core: the twist moves psi, beta is nonzero on some kernel arrow,
    and the descended map still recovers the one psi was made from."""
    fx = make_map_descent_fixture(0, base_name, cover_index, with_core=True)
    assert any(core(fx.psi.target).dims)
    untwisted = make_map_descent_fixture(0, base_name, cover_index, twist_data=False, with_core=True)
    assert fx.psi != untwisted.psi
    res = descend_map(fx.problem, fx.gamma, fx.gamma_prime, fx.psi)
    assert any(not b.is_zero for b in res.beta.values())
    assert check_vbmap_iso(res.iso).ok
    assert find_vbmap_iso(fx.base_phi, res.phi) is not None


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
    with pytest.raises((InvalidStructureError, DescentError)):
        descend_map(fx.problem, fx.gamma, fx.gamma_prime, bad)


def _old_cocycle_failure(cech, beta):
    """The first (x, k, j, i) where beta_kj + beta_ji != beta_ki, in the order of the old nested
    loop; None when the cocycle law holds."""
    for x in range(cech.base.n_objects):
        idx = cech.indices_containing(x)
        for i in idx:
            for j in idx:
                for k in idx:
                    kji = cech.kernel_arrow(x, j, i)
                    kkj = cech.kernel_arrow(x, k, j)
                    kki = cech.kernel_arrow(x, k, i)
                    if beta[kkj] + beta[kji] != beta[kki]:
                        return x, k, j, i
    return None


@pytest.mark.parametrize("cover", [[[0], [0]], [[0], [0], [0]]])
def test_descend_map_cocycle_break_names_the_failing_triple(monkeypatch, cover):
    """A vertical obstruction broken at one non-unit kernel arrow fails the cocycle law, and the
    error names the first failing x and (k,j,i) in the old loop order."""
    g = cyclic_groupoid(2)
    prob = make_descent_problem(g, cover)
    rep = named_reps("z2", g)[0]
    base_phi = grothendieck_map(identity_morphism(direct_sum(rep, acyclic_ruth(rep))))  # nonzero core
    psi = base_change_map(prob.cech.pi, base_phi)
    broken_at = next(k for k in prob.cech.kernel_arrows if not prob.gu.is_unit(k))
    seen = []
    real = descent._vertical_obstruction

    def broken(problem, f, cd_tgt):
        beta = real(problem, f, cd_tgt)
        if not seen:
            b = beta[broken_at]
            beta[broken_at] = b + Matrix.from_rows([[F(1)] * b.cols] * b.rows, cols=b.cols)
            seen.append(beta)
        return beta

    monkeypatch.setattr(descent, "_vertical_obstruction", broken)
    with pytest.raises(DescentError) as info:
        descend_map(prob, base_phi.source, base_phi.target, psi)
    x, k, j, i = _old_cocycle_failure(prob.cech, seen[0])
    assert str(info.value) == f"beta cocycle law fails at x={x}, (k,j,i)=({k},{j},{i})"


def _hand_pulled_along_pi(cech, phi, pull_src, pull_tgt):
    """The pullback of ``phi`` along ``cech.pi``, built by hand as ``descend_map`` and
    ``make_map_descent_fixture`` used to build it; the reference for ``base_change_map``."""
    return VBMap(
        source=pull_src,
        target=pull_tgt,
        base_map=identity_map(cech.gu),
        obj_maps=tuple(phi.obj_maps[p[0]] for p in cech.obj_pairs),
        arr_maps=tuple(phi.arr_maps[t[0]] for t in cech.arrow_triples),
    )


def _hand_pulled_along_section(cech, twisted, gamma, gamma_p):
    """The restriction of ``twisted`` to least-index lifts, built by hand as ``descend_map`` used
    to build the descended map; the reference for ``base_change_map`` along ``cech.section``."""
    g = cech.base
    lift = cech.section
    return VBMap(
        source=gamma,
        target=gamma_p,
        base_map=identity_map(g),
        obj_maps=tuple(twisted.obj_maps[lift.obj_map[x]] for x in range(g.n_objects)),
        arr_maps=tuple(twisted.arr_maps[lift.arr_map[a]] for a in range(g.n_arrows)),
    )


@pytest.mark.parametrize("base_name", ["z2", "pair2", "pt+z2"])
def test_base_change_map_is_the_hand_built_reindex(base_name):
    for seed in range(6):
        fx = make_map_descent_fixture(seed, base_name)
        cech = fx.problem.cech
        pull_src, _ = base_change(cech.pi, fx.gamma)
        pull_tgt, _ = base_change(cech.pi, fx.gamma_prime)
        pulled = base_change_map(cech.pi, fx.base_phi)
        assert pulled == _hand_pulled_along_pi(cech, fx.base_phi, pull_src, pull_tgt)
        assert (pulled.source, pulled.target) == (fx.psi.source, fx.psi.target)
        restricted = base_change_map(cech.section, fx.psi)
        assert restricted == _hand_pulled_along_section(cech, fx.psi, fx.gamma, fx.gamma_prime)


def test_base_change_map_requires_an_identity_base():
    fx = make_map_descent_fixture(0, "z2")
    cech = fx.problem.cech
    _, canonical = base_change(cech.pi, fx.gamma)  # covers pi, not an identity
    with pytest.raises(ValueError, match="identity"):
        base_change_map(identity_map(cech.gu), canonical)
    # an identity-base map over the Cech groupoid, not over the codomain of pi
    with pytest.raises(ValueError, match="identity"):
        base_change_map(cech.pi, fx.psi)


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


# -- parity with the old x * idx^3 loops over kernel arrows ------------------------------------

PARITY_COVERS = [("pt", 1), ("z2", 0), ("pair2", 1), ("pt+z2", 1)]  # pt three-fold, pt+z2 [[0], [0, 1]]


def _old_kernel_pairs(cech):
    out = []
    for x in range(cech.base.n_objects):
        idx = cech.indices_containing(x)
        for i in idx:
            for j in idx:
                for k in idx:
                    out.append((cech.kernel_arrow(x, k, j), cech.kernel_arrow(x, j, i)))
    return out


def _old_symmetrize(v, cech, c):
    sigma = list(c.sigma)
    for k in cech.kernel_arrows:
        _, j, i = cech.arrow_triples[k]
        if j < i:
            x = cech.obj_pairs[v.base.src[k]][0]
            km = cech.kernel_arrow(x, i, j)
            sigma[k] = v.inverse_matrix(km) * sigma[km] * kernel_transport(v, Cleavage(tuple(sigma)), km).inverse()
    return Cleavage(sigma=tuple(sigma))


def _old_is_u_flat(v, cech, c):
    for x in range(cech.base.n_objects):
        idx = cech.indices_containing(x)
        for kk in idx:
            for j in idx:
                for i in idx:
                    k1 = cech.kernel_arrow(x, kk, j)
                    k2 = cech.kernel_arrow(x, j, i)
                    k3 = cech.kernel_arrow(x, kk, i)
                    if v.mult_of(k1, k2, c.sigma[k1] * kernel_transport(v, c, k2), c.sigma[k2]) != c.sigma[k3]:
                        return False
    return True


def _old_average(v, cech, c, partition):
    """The averaged cleavage of the old ``flatten_cleavage``, before its flatness check."""
    sigma = list(c.sigma)
    for k in cech.kernel_arrows:
        _, j, i = cech.arrow_triples[k]
        x = cech.obj_pairs[v.base.src[k]][0]
        acc = Matrix.zeros(v.gamma_dims[k], v.e_dims[v.base.src[k]])
        for r in cech.indices_containing(x):
            w = partition.weight(r, x)
            if w:
                kjr = cech.kernel_arrow(x, j, r)
                kri = cech.kernel_arrow(x, r, i)
                lift = v.mult_of(kjr, kri, c.sigma[kjr] * kernel_transport(v, c, kri), c.sigma[kri])
                acc = acc + lift.scale(w)
        sigma[k] = acc
    return Cleavage(sigma=tuple(sigma))


def _old_comparison(v, cech, c, pull):
    g = cech.base
    obj_maps = []
    for oid, (x, i) in enumerate(cech.obj_pairs):
        k = cech.kernel_arrow(x, i, cech.min_index(x))
        obj_maps.append(kernel_transport(v, c, k))
    arr_maps = []
    for (a, j, i) in cech.arrow_triples:
        x, y = g.src[a], g.tgt[a]
        la = cech.section.arr_map[a]
        k_t = cech.kernel_arrow(y, j, cech.min_index(y))
        k_s = cech.kernel_arrow(x, i, cech.min_index(x))
        lift_t, lift_s = c.sigma[k_t] * v.t_maps[la], c.sigma[k_s] * v.s_maps[la]
        arr_maps.append(v.conjugate(k_t, la, k_s, lift_t, Matrix.identity(v.gamma_dims[la]), lift_s))
    return VBMap(
        source=pull,
        target=v,
        base_map=identity_map(cech.gu),
        obj_maps=tuple(obj_maps),
        arr_maps=tuple(arr_maps),
    )


@pytest.mark.parametrize("base_name,cover_index", PARITY_COVERS)
def test_kernel_pairs_and_inverses_match_the_old_enumeration(base_name, cover_index):
    g = base_groupoids()[base_name]
    cech = make_descent_problem(g, named_covers(base_name, g)[cover_index]).cech
    assert cech.kernel_pairs == tuple(_old_kernel_pairs(cech))
    for x in range(g.n_objects):
        for i in cech.indices_containing(x):
            for j in cech.indices_containing(x):
                assert cech.gu.inv[cech.kernel_arrow(x, j, i)] == cech.kernel_arrow(x, i, j)


@pytest.mark.parametrize(
    "base_name,cover_index,pad",
    [(b, ci, pad) for b, ci in PARITY_COVERS for pad in (False, True)] + [(None, None, False)],
)
def test_cleavage_surgery_and_descent_match_the_old_loops(base_name, cover_index, pad):
    """base_name None is the rank-drop fixture."""
    refused = []
    for seed in range(4):
        if base_name is None:
            problem, v = rank_drop_fixture(seed)
        else:
            problem, v = make_object_descent_fixture(seed, base_name, cover_index, pad)
        cech = problem.cech
        stab = make_invertible(v, problem)
        w = stab.stabilized
        sym = symmetrize_cleavage(w, problem, stab.cleavage)
        assert sym == _old_symmetrize(w, cech, stab.cleavage)
        flat = flatten_cleavage(w, problem, sym, min_index_partition(cech))
        assert flat == _old_average(w, cech, sym, min_index_partition(cech))
        assert is_u_flat(w, problem, flat) and _old_is_u_flat(w, cech, flat)
        assert is_u_flat(w, problem, stab.cleavage) == _old_is_u_flat(w, cech, stab.cleavage)
        # spread-out averaging: the same cleavage where it is flat, the same refusal where not
        uniform = uniform_partition(cech)
        averaged = _old_average(w, cech, sym, uniform)
        if _old_is_u_flat(w, cech, averaged):
            assert flatten_cleavage(w, problem, sym, uniform) == averaged
        else:
            refused.append((base_name, seed))
            with pytest.raises(DescentError, match="flatness"):
                flatten_cleavage(w, problem, sym, uniform)
        out = descend_object(w, problem, flat)
        assert out.descended == _reindexed_at_least_lifts(w, cech)
        assert out.comparison == _old_comparison(w, cech, flat, base_change(cech.pi, out.descended)[0])
    if (base_name, pad) == ("pt", False):
        assert refused  # the three-fold cover exercises the refusal


@pytest.mark.parametrize("seed,base_name,cover_index", [(3, "z2", 0), (7, "pt", 1), (4, "pair2", 0)])
def test_make_invertible_without_padding_projects_by_the_identity(monkeypatch, seed, base_name, cover_index):
    # equal fiber ranks need no padding: v (+) 0 and its projection onto v are v and its identity
    from vbgroupoids.vb import sum_projection_vb, zero_vb

    prob, v = _perturbed_pullback(seed, base_name, cover_index)
    certified = []
    is_vb_morita_ = descent.is_vb_morita
    monkeypatch.setattr(descent, "is_vb_morita", lambda f: certified.append(f) or is_vb_morita_(f))
    stab = make_invertible(v, prob)
    assert stab.omega == zero_vb(prob.gu)
    assert stab.projection == sum_projection_vb(v, zero_vb(prob.gu))
    assert stab.stabilized == v and stab.projection.source is stab.stabilized
    assert certified == [stab.projection] and is_vb_morita(stab.projection).ok
