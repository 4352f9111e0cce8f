"""VB-groupoids: axioms, Grothendieck round trips, Morita, duals, squares."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from vbgroupoids.generators import (
    acyclic_ruth,
    base_groupoids,
    named_covers,
    named_reps,
    random_gauge,
    random_matrix,
    seed_ruths,
)
from vbgroupoids.groupoid import GroupoidMap, cech_groupoid, cyclic_groupoid, identity_map, point_groupoid
from vbgroupoids.linalg import Matrix, Subspace
from vbgroupoids.report import InvalidStructureError, Violation
from vbgroupoids.ruth import (
    check_ruth_morphism,
    compose_ruth_morphisms,
    direct_sum,
    dual_ruth,
    identity_morphism,
    is_quasi_iso,
    make_ruth,
    pullback_ruth,
    sum_projection,
    zero_morphism,
    zero_ruth,
)
from vbgroupoids.vb import (
    NotVBMoritaError,
    VBGroupoid,
    VBMap,
    _canonical_factorization,
    acyclic_vb,
    arrow_vb,
    base_change,
    check_cleavage,
    check_vbgroupoid,
    check_vbmap,
    check_vbmap_iso,
    choose_cleavage,
    cleavage_to_vbmap,
    compose_vbmap,
    core,
    direct_sum_vb,
    dual_vb,
    dual_vbmap,
    find_vbmap_iso,
    grothendieck,
    grothendieck_map,
    identity_vbmap,
    inverse_vbmap,
    is_acyclic,
    is_vb_morita,
    quasi_inverse,
    split,
    split_map,
    stable_decompose,
    sub_vbgroupoid,
    sum_projection_vb,
    twist,
    zero_projection,
    zero_vb,
)

F = Fraction


@pytest.fixture
def z2():
    return cyclic_groupoid(2)


@pytest.fixture
def sign(z2):
    return make_ruth(z2, (1,), (0,), rho_e={1: Matrix.from_rows([[-1]])})


@pytest.fixture
def gauged(z2):
    base = make_ruth(
        z2,
        (1,),
        (1,),
        anchor={0: Matrix.identity(1)},
        rho_e={1: Matrix.from_rows([[-1]])},
        rho_c={1: Matrix.from_rows([[-1]])},
    )
    rng = random.Random(42)
    r, _ = random_gauge(base, rng)
    return r


def test_zero_vb_valid(z2):
    assert check_vbgroupoid(zero_vb(z2)).ok


def test_grothendieck_valid_and_corrupting_mult_breaks_associativity(sign):
    v = grothendieck(sign)
    assert check_vbgroupoid(v).ok
    m_maps = dict(v.m_maps)
    m_maps[(1, 1)] = -m_maps[(1, 1)]
    bad = VBGroupoid(
        base=v.base,
        e_dims=v.e_dims,
        gamma_dims=v.gamma_dims,
        s_maps=v.s_maps,
        t_maps=v.t_maps,
        u_maps=v.u_maps,
        m_maps=m_maps,
    )
    rep = check_vbgroupoid(bad)
    assert not rep.ok
    assert any(v_.check == "associativity" for v_ in rep.violations)


def test_core_examples(z2, sign, gauged):
    # action groupoid of a representation has trivial core
    assert core(grothendieck(sign)).dims == (0,)
    # grothendieck core recovers the ruth anchor in canonical bases
    cd = core(grothendieck(gauged))
    assert cd.dims == gauged.c_dims
    assert cd.anchor == gauged.anchor
    # acyclic_vb has an isomorphism as anchor
    assert is_acyclic(acyclic_vb(z2, (2,)))


def test_grothendieck_action_case_mult(z2, sign):
    # with C = 0 the multiplication is (g1,e1)(g2,e2) = (g1 g2, e2)
    v = grothendieck(sign)
    m1, m2 = v.mult_blocks(1, 1)
    assert m1 == Matrix.zeros(1, 1)
    assert m2 == Matrix.identity(1)


def test_grothendieck_mult_formula_with_curvature(z2, gauged):
    v = grothendieck(gauged)
    m = v.m_maps[(1, 1)]
    rc = gauged.rho_c[1]
    gm = gauged.gamma[(1, 1)]
    expected = Matrix.block(
        [1, 1], [1, 1, 1, 1], {(0, 0): Matrix.identity(1), (0, 2): rc, (0, 3): -gm, (1, 3): Matrix.identity(1)}
    )
    assert m == expected


def test_choose_cleavage_canonical_section(gauged):
    v = grothendieck(gauged)
    c = choose_cleavage(v)
    g = v.base
    for a in range(g.n_arrows):
        e = gauged.e_dims[g.src[a]]
        cdim = gauged.c_dims[g.tgt[a]]
        assert c.sigma[a] == Matrix.vstack([Matrix.zeros(cdim, e), Matrix.identity(e)])


def test_inverse_matrix_failure_names_arrow_and_vector(sign):
    v = grothendieck(sign)
    m = v.m_maps[(1, 1)]
    bad = replace(v, m_maps={**v.m_maps, (1, 1): Matrix.zeros(m.rows, m.cols)})
    with pytest.raises(InvalidStructureError, match="no inverse for basis vector 0 over arrow 1") as exc:
        bad.inverse_matrix(1)
    assert exc.value.report.violations == [Violation("inverse-missing", (1, 0))]


def test_choose_cleavage_failure_names_arrow(sign):
    v = grothendieck(sign)
    bad = replace(v, s_maps=(v.s_maps[0], Matrix.zeros(1, 1)))
    with pytest.raises(InvalidStructureError, match="s not surjective at arrow 1") as exc:
        choose_cleavage(bad)
    assert exc.value.report.violations == [Violation("s-surjective", (1,))]


def test_split_round_trip_exact(z2, sign, gauged):
    for r in (sign, gauged):
        v = grothendieck(r)
        r2, iso = split(v, choose_cleavage(v))
        assert r2 == r
        assert check_vbmap(iso).ok
        # canonical form: the comparison is the identity
        assert all(m == Matrix.identity(m.rows) for m in iso.arr_maps)


def test_split_of_action_groupoid_is_flat(sign):
    r, _ = split(grothendieck(sign))
    assert all(m.is_zero for m in r.gamma.values())
    assert r.c_dims == (0,)


def test_split_with_other_cleavage_gauge_equivalent(gauged):
    v = grothendieck(gauged)
    c = choose_cleavage(v)
    # perturb the cleavage at the non-unit arrow by a vertical term
    cd = core(v)
    sigma = list(c.sigma)
    m1, _ = v.mult_blocks(v.base.unit[0], 1)
    iota = m1 * cd.basis[0]
    sigma[1] = sigma[1] + iota * Matrix.from_rows([[3]])
    from vbgroupoids.vb import Cleavage

    c2 = Cleavage(tuple(sigma))
    assert check_cleavage(v, c2).ok
    r2, iso2 = split(v, c2)
    assert r2 != gauged
    # both splits are isomorphic through the comparison maps
    _, iso1 = split(v, c)
    comp = compose_vbmap(iso2, inverse_vbmap(iso1))
    m = split_map(comp)
    assert check_ruth_morphism(m).ok
    assert is_quasi_iso(m)[0]


def test_map_round_trip_and_functoriality(z2):
    rng = random.Random(3)
    rep = named_reps("z2", z2)[1]
    base = direct_sum(rep, acyclic_ruth(rep))
    r1, m1 = random_gauge(base, rng)
    r2, m2 = random_gauge(r1, rng)
    f1 = grothendieck_map(m1)
    f2 = grothendieck_map(m2)
    assert split_map(f1) == m1
    assert grothendieck_map(compose_ruth_morphisms(m2, m1)) == compose_vbmap(f2, f1)
    assert split_map(identity_vbmap(grothendieck(base))) == identity_morphism(base)


def test_base_change_examples(z2, sign):
    v = grothendieck(sign)
    same, canon = base_change(identity_map(z2), v)
    assert same == v
    assert check_vbmap(canon).ok
    # base-change along a Morita map gives a VB-Morita canonical map
    from vbgroupoids.groupoid import cech_groupoid

    cech = cech_groupoid(z2, [[0], [0]])
    pulled, canon2 = base_change(cech.pi, v)
    assert is_vb_morita(canon2).ok
    # base-change along a non-Morita map is not VB-Morita
    inc = GroupoidMap(point_groupoid(), z2, (0,), (0,))
    _, canon3 = base_change(inc, v)
    assert not is_vb_morita(canon3).ok


def test_vb_morita_examples(z2, sign):
    av = acyclic_vb(z2, (1,))
    assert is_vb_morita(identity_vbmap(av)).ok
    assert is_vb_morita(zero_projection(av)).ok
    assert not is_vb_morita(zero_projection(grothendieck(sign))).ok


def test_cor_acyclic_on_fixtures(z2, gauged):
    for v in (grothendieck(gauged), acyclic_vb(z2, (2,)), zero_vb(z2)):
        assert is_vb_morita(zero_projection(v)).ok == is_acyclic(v)


def test_dual_vb_swaps_ranks(z2, gauged):
    v = grothendieck(gauged)
    d = dual_vb(v)
    assert check_vbgroupoid(d).ok
    assert core(d).dims == v.e_dims
    assert d.e_dims == core(v).dims
    assert is_acyclic(dual_vb(acyclic_vb(z2, (1,))))
    zd = dual_vb(zero_vb(z2))
    assert zd.e_dims == (0,)


def test_dual_vbmap_preserves_morita_verdict(z2):
    rng = random.Random(8)
    rep = named_reps("z2", z2)[0]
    fixtures = []
    base = direct_sum(rep, acyclic_ruth(rep))
    r1, m1 = random_gauge(base, rng)
    fixtures.append(grothendieck_map(m1))  # invertible: VB-Morita
    fixtures.append(grothendieck_map(sum_projection(rep, acyclic_ruth(rep))))  # VB-Morita
    fixtures.append(grothendieck_map(zero_morphism(rep, zero_ruth(z2))))  # not
    fixtures.append(grothendieck_map(sum_projection(rep, dual_ruth_of_rep(z2), side=0)))
    for f in fixtures:
        d = dual_vbmap(f)
        assert check_vbmap(d).ok
        assert is_vb_morita(f).ok == is_vb_morita(d).ok


def dual_ruth_of_rep(z2):
    from vbgroupoids.generators import shifted_ruth

    return shifted_ruth(named_reps("z2", z2)[1])


def test_dual_of_identity_is_identity(z2, gauged):
    v = grothendieck(gauged)
    d = dual_vbmap(identity_vbmap(v))
    assert d.obj_maps == tuple(Matrix.identity(x) for x in dual_vb(v).e_dims)
    assert is_vb_morita(d).ok


def test_acyclic_vb_over_point():
    pt = point_groupoid()
    av = acyclic_vb(pt, (1,))
    assert av.gamma_dims == (2,)
    cd = core(av)
    # core = kernel of the second projection; anchor is an isomorphism
    assert cd.dims == (1,)
    assert cd.anchor[0].is_invertible
    assert is_vb_morita(zero_projection(av)).ok


def test_arrow_vb_zero_and_core(z2, gauged):
    assert arrow_vb(zero_vb(z2)).vb.e_dims == (0,)
    av = arrow_vb(grothendieck(gauged))
    assert check_vbgroupoid(av.vb).ok
    assert is_vb_morita(av.sigma).ok
    assert is_vb_morita(av.tau).ok
    assert compose_vbmap(av.sigma, av.mu) == identity_vbmap(grothendieck(gauged))
    assert check_vbmap_iso(av.universal_iso).ok


def test_twist_by_zero_is_identity(z2, gauged):
    v = grothendieck(gauged)
    f = identity_vbmap(v)
    alpha = [Matrix.zeros(core(v).dims[x], v.e_dims[x]) for x in range(z2.n_objects)]
    tw, iso = twist(f, alpha)
    assert tw == f
    assert check_vbmap_iso(iso).ok


def test_twist_random_property(z2, gauged):
    rng = random.Random(13)
    v = grothendieck(gauged)
    cd = core(v)
    f = identity_vbmap(v)
    for _ in range(5):
        alpha = [random_matrix(rng, cd.dims[x], v.e_dims[x]) for x in range(z2.n_objects)]
        tw, iso = twist(f, alpha)
        assert check_vbmap(tw).ok
        assert check_vbmap_iso(iso).ok


def test_find_vbmap_iso_roundtrip(z2, gauged):
    rng = random.Random(17)
    v = grothendieck(gauged)
    cd = core(v)
    f = identity_vbmap(v)
    alpha = [random_matrix(rng, cd.dims[x], v.e_dims[x]) for x in range(z2.n_objects)]
    tw, _ = twist(f, alpha)
    iso = find_vbmap_iso(f, tw)
    assert iso is not None
    assert check_vbmap_iso(iso).ok
    # maps with different core ranks cannot be isomorphic
    other = zero_projection(v)
    with pytest.raises(ValueError):
        find_vbmap_iso(f, other)


def test_quasi_inverse_invertible_case(z2, gauged):
    rng = random.Random(19)
    v = grothendieck(gauged)
    r2, mor = random_gauge(gauged, rng)
    f = grothendieck_map(mor)
    qi = quasi_inverse(f)
    assert compose_vbmap(qi.psi, f) == identity_vbmap(f.source)
    assert check_vbmap_iso(qi.iso_source).ok
    assert check_vbmap_iso(qi.iso_target).ok


def test_quasi_inverse_projection_case(z2):
    rep = named_reps("z2", z2)[1]
    acy = acyclic_ruth(rep)
    f = grothendieck_map(sum_projection(rep, acy, side=0))
    qi = quasi_inverse(f)
    assert check_vbmap(qi.psi).ok
    assert check_vbmap_iso(qi.iso_source).ok
    assert check_vbmap_iso(qi.iso_target).ok


def test_quasi_inverse_acyclic_to_zero(z2):
    av = acyclic_vb(z2, (1,))
    qi = quasi_inverse(zero_projection(av))
    assert check_vbmap_iso(qi.iso_source).ok
    assert check_vbmap_iso(qi.iso_target).ok


def test_quasi_inverse_rejects_non_morita(z2, sign):
    with pytest.raises(NotVBMoritaError):
        quasi_inverse(zero_projection(grothendieck(sign)))


def test_stable_decompose_invertible(z2, gauged):
    rng = random.Random(23)
    _, mor = random_gauge(gauged, rng)
    f = grothendieck_map(mor)
    sd = stable_decompose(f)
    assert sd.omega.e_dims == (0,) and sd.omega_prime.e_dims == (0,)
    assert sd.iso == f


def test_stable_decompose_projection(z2):
    rep = named_reps("z2", z2)[0]
    acy = acyclic_ruth(rep)
    f = grothendieck_map(sum_projection(rep, acy, side=0))
    sd = stable_decompose(f)
    assert is_acyclic(sd.omega) and is_acyclic(sd.omega_prime)
    assert sd.iso.is_invertible
    assert check_vbmap(sd.iso).ok
    # ranks: gamma' + omega' = gamma + omega arrowwise
    src = sd.iso.source
    tgt = sd.iso.target
    assert src.gamma_dims == tgt.gamma_dims


def test_cleavage_to_vbmap_roundtrip(z2, gauged):
    v = grothendieck(gauged)
    c = choose_cleavage(v)
    cm = cleavage_to_vbmap(v, c)
    assert check_vbmap(cm.rho).ok
    assert is_vb_morita(cm.rho).ok
    # flat on action groupoids: rho strictly multiplicative there
    sign = make_ruth(z2, (1,), (0,), rho_e={1: Matrix.from_rows([[-1]])})
    va = grothendieck(sign)
    cma = cleavage_to_vbmap(va, choose_cleavage(va))
    assert check_vbmap(cma.rho).ok


def test_direct_sum_vb_matches_ruth_sum(z2, sign):
    trivial = named_reps("z2", z2)[0]
    lhs = direct_sum_vb(grothendieck(sign), grothendieck(trivial))
    rhs = grothendieck(direct_sum(sign, trivial))
    assert lhs.gamma_dims == rhs.gamma_dims
    assert check_vbgroupoid(lhs).ok


def _hand_built_path_and_proj(f):
    """The path object and its projection as once assembled block by block; the reference for
    building them as ``sum_projection_vb(source, acyclic_vb(base, core(target).dims))``."""
    v1, v2 = f.source, f.target
    g = v1.base
    cd2 = core(v2)
    c2 = cd2.dims
    e_dims = tuple(v1.e_dims[x] + c2[x] for x in range(g.n_objects))
    cols = [(v1.gamma_dims[a], c2[g.tgt[a]], c2[g.src[a]]) for a in range(g.n_arrows)]
    s_maps = []
    t_maps = []
    for a, (d, cy, cx) in enumerate(cols):
        ex, ey = v1.e_dims[g.src[a]], v1.e_dims[g.tgt[a]]
        s_maps.append(Matrix.block([ex, cx], cols[a], {(0, 0): v1.s_maps[a], (1, 2): Matrix.identity(cx)}))
        t_maps.append(Matrix.block([ey, cy], cols[a], {(0, 0): v1.t_maps[a], (1, 1): Matrix.identity(cy)}))
    u_maps = []
    for x in range(g.n_objects):
        blocks = {(0, 0): v1.u_maps[x], (1, 1): Matrix.identity(c2[x]), (2, 1): Matrix.identity(c2[x])}
        u_maps.append(Matrix.block([v1.gamma_dims[g.unit[x]], c2[x], c2[x]], [v1.e_dims[x], c2[x]], blocks))
    m_maps = {}
    for g1, g2 in g.pairs:
        m1, m2 = v1.mult_blocks(g1, g2)
        ct, cs = cols[g1][1], cols[g2][2]
        blocks = {(0, 0): m1, (0, 3): m2, (1, 1): Matrix.identity(ct), (2, 5): Matrix.identity(cs)}
        m_maps[(g1, g2)] = Matrix.block([m1.rows, ct, cs], [*cols[g1], *cols[g2]], blocks)
    path = VBGroupoid(
        base=g,
        e_dims=e_dims,
        gamma_dims=tuple(map(sum, cols)),
        s_maps=tuple(s_maps),
        t_maps=tuple(t_maps),
        u_maps=tuple(u_maps),
        m_maps=m_maps,
    )
    proj = VBMap(
        source=path,
        target=v1,
        base_map=identity_map(g),
        obj_maps=tuple(
            Matrix.block([e], [e, c], {(0, 0): Matrix.identity(e)}) for e, c in zip(v1.e_dims, c2)
        ),
        arr_maps=tuple(Matrix.block([col[0]], col, {(0, 0): Matrix.identity(col[0])}) for col in cols),
    )
    return path, proj


def test_path_object_from_constructors_equals_hand_built_one():
    """Sum projections and gauge maps over every named base, targets with and without core."""
    maps = []
    for name, g in base_groupoids().items():
        for rep in named_reps(name, g):
            maps.append(grothendieck_map(sum_projection(rep, acyclic_ruth(rep), side=0)))
        for i, r in enumerate(seed_ruths(name, g)):
            maps.append(grothendieck_map(random_gauge(r, random.Random(i))[1]))
    core_dims = [sum(core(f.target).dims) for f in maps]
    assert 0 in core_dims and max(core_dims) > 0
    for f in maps:
        fact = _canonical_factorization(f)
        path, proj = _hand_built_path_and_proj(f)
        assert fact.path == path
        assert fact.proj == proj


def test_sub_vbgroupoid_not_closed_names_map_and_arrow(sign):
    v = grothendieck(sign)
    zero = [Subspace.zero(d) for d in v.e_dims]
    full = [Subspace.from_spanning(Matrix.identity(d)) for d in v.gamma_dims]
    with pytest.raises(InvalidStructureError, match="sub_vbgroupoid: s at 0 leaves the subspace") as exc:
        sub_vbgroupoid(v, zero, full)
    assert exc.value.report.violations == [Violation("sub-closed", ("s", 0))]


def _gauged_seeds(name: str, g, gauges: int = 3) -> list:
    """``gauges`` random gauges of each seed ruth of a named base."""
    rng = random.Random(name)
    return [random_gauge(r, rng)[0] for r in seed_ruths(name, g) for _ in range(gauges)]


@pytest.mark.parametrize("name", sorted(base_groupoids()))
def test_split_inverts_grothendieck_and_dual_commutes_with_it(name):
    g = base_groupoids()[name]
    for r in _gauged_seeds(name, g):
        v = grothendieck(r)
        assert split(v)[0] == r
        assert dual_vb(v) == grothendieck(dual_ruth(r))


@pytest.mark.parametrize("name", sorted(base_groupoids()))
def test_split_of_a_cech_base_change_is_the_pulled_back_ruth(name):
    g = base_groupoids()[name]
    for cover in named_covers(name, g):
        pi = cech_groupoid(g, cover).pi
        for r in _gauged_seeds(name, g, gauges=1):
            pulled, _ = base_change(pi, grothendieck(r))
            assert split(pulled)[0] == pullback_ruth(pi, r)
