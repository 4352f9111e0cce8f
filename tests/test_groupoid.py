"""Finite groupoids: axioms, Morita criterion, nerves, squares, covers."""

from dataclasses import replace
from itertools import product

import pytest

from vbgroupoids import groupoid
from vbgroupoids.generators import base_groupoids, honest_rep
from vbgroupoids.groupoid import (
    GroupoidMap,
    arrow_groupoid,
    cech_groupoid,
    compose_maps,
    composable_strings,
    cyclic_groupoid,
    disjoint_union,
    generating_arrows,
    identity_map,
    is_morita,
    make_groupoid,
    nerve,
    orbit_transports,
    orbits_and_isotropy,
    pair_groupoid,
    point_groupoid,
    validate_groupoid,
    validate_map,
)
from vbgroupoids.linalg import Matrix
from vbgroupoids.report import InvalidStructureError, Violation
from vbgroupoids.ruth import check_ruth


def test_point_and_z2_valid():
    assert validate_groupoid(point_groupoid()).ok
    assert validate_groupoid(cyclic_groupoid(2)).ok
    assert validate_groupoid(pair_groupoid(2)).ok
    assert validate_groupoid(disjoint_union(point_groupoid(), cyclic_groupoid(2))).ok


def test_broken_inverse_reported_with_witness():
    # z2 with tau^2 redefined to tau breaks the inverse law at tau
    z2 = cyclic_groupoid(2)
    comp = dict(z2.comp)
    comp[(1, 1)] = 1
    bad = make_groupoid(1, [(0, 0), (0, 0)], comp, [0], [0, 1])
    rep = validate_groupoid(bad)
    assert not rep.ok
    assert any(v.check == "inverse-law" and 1 in v.witness for v in rep.violations)


def test_orbits_and_isotropy():
    orbits, iso = orbits_and_isotropy(pair_groupoid(2))
    assert orbits == ((0, 1),)
    assert all(len(i) == 1 for i in iso)
    orbits, iso = orbits_and_isotropy(cyclic_groupoid(2))
    assert orbits == ((0,),)
    assert len(iso[0]) == 2
    orbits, _ = orbits_and_isotropy(disjoint_union(point_groupoid(), cyclic_groupoid(2)))
    assert len(orbits) == 2


GENERATED = {
    "pair3": pair_groupoid(3),
    "z3": cyclic_groupoid(3),
    "pt+z2": disjoint_union(point_groupoid(), cyclic_groupoid(2)),
    "cech-z2-3": cech_groupoid(cyclic_groupoid(2), [[0]] * 3).gu,
    "pair2+pair2": disjoint_union(pair_groupoid(2), pair_groupoid(2)),
}


def test_generating_arrows_of_pair_and_cyclic():
    # pair(3): the cycle 0 -> 1 -> 2 -> 0 (ids 3, 7, 2); Z_3: sigma, which generates the isotropy
    assert generating_arrows(pair_groupoid(3)) == (2, 3, 7)
    assert generating_arrows(cyclic_groupoid(3)) == (1,)
    # a lone object with trivial isotropy keeps its unit; next to Z_2 (arrows 1, 2) as well
    assert generating_arrows(point_groupoid()) == (0,)
    assert generating_arrows(disjoint_union(point_groupoid(), cyclic_groupoid(2))) == (0, 2)


def _spanning_transports(g):
    """Per object: a basepoint and an arrow basepoint -> object, found by a depth-first search;
    the reference for :func:`orbit_transports`."""
    base_of = [-1] * g.n_objects
    arrow_to = [-1] * g.n_objects
    for x in range(g.n_objects):
        if base_of[x] >= 0:
            continue
        base_of[x] = x
        arrow_to[x] = g.unit[x]
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for a in range(g.n_arrows):
                if g.src[a] == y and base_of[g.tgt[a]] < 0:
                    z = g.tgt[a]
                    base_of[z] = x
                    arrow_to[z] = g.compose(a, arrow_to[y])
                    frontier.append(z)
                elif g.tgt[a] == y and base_of[g.src[a]] < 0:
                    z = g.src[a]
                    base_of[z] = x
                    arrow_to[z] = g.compose(g.inv[a], arrow_to[y])
                    frontier.append(z)
    return base_of, arrow_to


ZOO = {**base_groupoids(), **GENERATED}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_orbit_transports_match_the_spanning_search(name):
    g = ZOO[name]
    root, transport = orbit_transports(g)
    base_of, arrow_to = _spanning_transports(g)
    assert list(root) == base_of
    others = [x for x in range(g.n_objects) if x != root[x]]
    if name in base_groupoids() or name == "pair3":
        assert all(len(g.hom(root[x], x)) == 1 for x in others)
    for x in range(g.n_objects):
        assert g.src[transport[x]] == root[x] and g.tgt[transport[x]] == x
        if x not in others or len(g.hom(root[x], x)) == 1:
            assert transport[x] == arrow_to[x]


def _subgroup(g, r, loops):
    """The loops at ``r`` that are products of ``loops``, and the unit: the subgroup they generate."""
    span = {g.unit[r]}
    while more := {g.compose(a, h) for a in loops for h in span} - span:
        span |= more
    return span


def _cycle_generators(g):
    """The generating set built from hom-sets over the orbits of the spanning search; the
    reference for :func:`generating_arrows`."""
    base_of, _ = _spanning_transports(g)
    gens = set()
    for r in set(base_of):
        orbit = sorted(x for x in range(g.n_objects) if base_of[x] == r)
        loops = []
        if len(orbit) > 1:
            steps = [min(g.hom(x, y)) for x, y in zip(orbit, orbit[1:])]
            path = g.compose_many(*reversed(steps))  # r -> the orbit's last object
            closing = g.hom(orbit[-1], r)
            last = max(closing, key=lambda a: (len(_subgroup(g, r, [g.compose(a, path)])), -a))
            gens |= {*steps, last}
            loops.append(g.compose(last, path))
        for a in g.isotropy(r):
            if a not in _subgroup(g, r, loops):
                gens.add(a)
                loops.append(a)
        if len(orbit) == 1 and len(g.isotropy(r)) == 1:
            gens.add(g.unit[r])
    return tuple(sorted(gens))


def _is_generating(g, gens):
    """Whether every arrow is a nonempty word in ``gens``: close them under left multiplication
    by a generator."""
    words, grown = set(gens), True
    while grown:
        more = {g.compose(t, w) for t in gens for w in words if (t, w) in g.comp}
        grown = not more <= words
        words |= more
    return words == set(range(g.n_arrows))


@pytest.mark.parametrize("name", sorted(ZOO))
def test_every_arrow_is_a_word_in_the_generators(name):
    g = ZOO[name]
    gens = generating_arrows(g)
    assert gens == _cycle_generators(g)
    orbits, iso = orbits_and_isotropy(g)
    # per orbit: the cycle when there are n > 1 objects, else one arrow; every isotropy here is
    # cyclic, generated by the cycle's loop, which the closing arrow can make any isotropy arrow
    assert all(any(len(_subgroup(g, orb[0], [a])) == len(iso[orb[0]]) for a in iso[orb[0]]) for orb in orbits)
    sizes = [len(orb) if len(orb) > 1 else 1 for orb in orbits]
    assert [sum(g.src[a] in orb for a in gens) for orb in orbits] == sizes
    assert _is_generating(g, gens)


def _klein_four(n_objects):
    """The Klein four group times pair(n_objects): arrow k + 4 (x + n y) is (k, x -> y), composed
    by XOR of k."""
    n = n_objects
    arrows = [(x, y) for y in range(n) for x in range(n) for _ in range(4)]
    ids = {(k, x, y): k + 4 * (x + n * y) for k in range(4) for x in range(n) for y in range(n)}
    comp = {
        (ids[k1, y, z], ids[k2, x, y]): ids[k1 ^ k2, x, z]
        for k1, k2 in product(range(4), repeat=2)
        for x, y, z in product(range(n), repeat=3)
    }
    unit = [ids[0, x, x] for x in range(n)]
    inv = [ids[k, y, x] for k, x, y in sorted(ids, key=ids.get)]
    return make_groupoid(n, arrows, comp, unit, inv)


def test_klein_four_isotropy_needs_two_loops():
    # no single loop generates Z_2 x Z_2: alone, a and b (ids 1, 2) and not ab; over pair(2), the
    # step 0 -> 1 (id 8), the closing arrow 1 -> 0 of lowest id whose loop is a (id 5), and b (id 2)
    for n, expected in ((1, (1, 2)), (2, (2, 5, 8))):
        g = _klein_four(n)
        assert validate_groupoid(g).ok
        gens = generating_arrows(g)
        assert gens == expected == _cycle_generators(g)
        assert _is_generating(g, gens)
        assert not _is_generating(g, gens[1:]) and not _is_generating(g, gens[:-1])


def test_orbit_transports_take_the_lowest_arrow_when_there_are_two():
    cech = cech_groupoid(cyclic_groupoid(2), [[0], [0]])
    g = cech.gu
    root, transport = orbit_transports(g)
    assert root == (0, 0)
    assert transport[0] == g.unit[0]
    assert len(g.hom(0, 1)) == 2
    assert transport[1] == min(g.hom(0, 1))
    sign = honest_rep(g, lambda x0, h: Matrix.from_rows([[(-1) ** cech.arrow_triples[h][0]]]), lambda x0: 1)
    assert check_ruth(sign).ok
    assert sign.rho_e[transport[1]] == Matrix.identity(1)


def _collapse_to_point(g):
    pt = point_groupoid()
    return GroupoidMap(g, pt, (0,) * g.n_objects, (0,) * g.n_arrows)


def test_morita_examples():
    assert is_morita(_collapse_to_point(pair_groupoid(2))).ok
    assert not is_morita(_collapse_to_point(cyclic_groupoid(2))).ok
    assert is_morita(identity_map(cyclic_groupoid(3))).ok


def test_morita_criteria_agree_across_zoo():
    maps = [
        _collapse_to_point(pair_groupoid(2)),
        _collapse_to_point(cyclic_groupoid(2)),
        identity_map(pair_groupoid(3)),
        identity_map(disjoint_union(point_groupoid(), cyclic_groupoid(2))),
    ]
    # inclusion of the point into z2 (not essentially different orbit-wise, isotropy fails)
    z2 = cyclic_groupoid(2)
    maps.append(GroupoidMap(point_groupoid(), z2, (0,), (0,)))
    # inclusion of a point into pair(2): fully faithful and essentially surjective
    p2 = pair_groupoid(2)
    maps.append(GroupoidMap(point_groupoid(), p2, (0,), (p2.unit[0],)))
    for f in maps:
        assert validate_map(f).ok
        cert = is_morita(f)
        assert cert.criteria_agree
    assert is_morita(maps[-1]).ok


def test_nerve_counts():
    assert len(nerve(point_groupoid(), 3).strings[3]) == 1
    assert len(nerve(cyclic_groupoid(2), 2).strings[2]) == 4
    assert len(nerve(pair_groupoid(2), 2).strings[2]) == 8


STRING_BASES = {
    "pt": point_groupoid(),
    "z3": cyclic_groupoid(3),
    "pair3": pair_groupoid(3),
    "pt+z2": disjoint_union(point_groupoid(), cyclic_groupoid(2)),
    "cech3-z2": cech_groupoid(cyclic_groupoid(2), [[0]] * 3).gu,
    "arrow-z2": arrow_groupoid(cyclic_groupoid(2)).gi,
}


@pytest.mark.parametrize("name", sorted(STRING_BASES))
def test_composable_strings_match_brute_force(name):
    g = STRING_BASES[name]
    full = composable_strings(g, 4)
    reduced = composable_strings(g, 4, first=generating_arrows(g))
    assert len(full) == len(reduced) == 4
    gens = set(generating_arrows(g))
    for p in range(1, 5):
        brute = [
            s for s in product(range(g.n_arrows), repeat=p) if all(g.src[a] == g.tgt[b] for a, b in zip(s, s[1:]))
        ]
        assert list(full[p - 1]) == brute
        assert list(reduced[p - 1]) == [s for s in brute if s[0] in gens]
    assert g.pairs == full[1] and g.triples() == list(full[2])
    assert composable_strings(g, 0) == []


def test_composable_strings_join_by_table_values():
    # tables that validate_groupoid rejects: a target value 7 that is no object, and a source value -1
    shape = replace(point_groupoid(), n_arrows=3, src=(0, -1, 7), tgt=(7, 0, -1), comp={})
    brute = [(a, b) for a, b in product(range(3), repeat=2) if shape.src[a] == shape.tgt[b]]
    assert shape.pairs == tuple(brute) == ((0, 1), (1, 2), (2, 0))


def _reference_comp(gi, compose):
    """The composition table of ``gi`` from a scan over all n^2 pairs of its arrows."""
    return {
        (k1, k2): compose(k1, k2)
        for k1 in range(gi.n_arrows)
        for k2 in range(gi.n_arrows)
        if gi.src[k1] == gi.tgt[k2]
    }


@pytest.mark.parametrize("g,cover", [(cyclic_groupoid(2), [[0]] * 3), (pair_groupoid(2), [[0, 1], [1]])])
def test_cech_composition_table_equals_quadratic_reference(g, cover):
    cech = cech_groupoid(g, cover)
    triples = cech.arrow_triples

    def compose(k1, k2):
        (a1, j1, _), (a2, _, i2) = triples[k1], triples[k2]
        return cech.arrow_id(g.compose(a1, a2), j1, i2)

    reference = _reference_comp(cech.gu, compose)
    assert cech.gu.comp == reference and list(cech.gu.comp) == list(reference)


@pytest.mark.parametrize(
    "g", [cyclic_groupoid(2), pair_groupoid(2), disjoint_union(point_groupoid(), cyclic_groupoid(2))]
)
def test_arrow_composition_table_equals_quadratic_reference(g):
    ag = arrow_groupoid(g)
    triples = list(ag.triples)

    def compose(i1, i2):
        (gpp, hp, gp), (_, h, gg) = triples[i1], triples[i2]
        return triples.index((gpp, g.compose_many(hp, gp, h), gg))

    reference = _reference_comp(ag.gi, compose)
    assert ag.gi.comp == reference and list(ag.gi.comp) == list(reference)


def test_pairs_is_derived_only():
    with pytest.raises(TypeError):
        groupoid.FiniteGroupoid(1, 1, (0,), (0,), (0,), (0,), {(0, 0): 0}, pairs=())


def test_nerve_simplicial_identities():
    for g in (cyclic_groupoid(2), pair_groupoid(2)):
        nv = nerve(g, 3)
        for p in (2, 3):
            for i in range(p + 1):
                for j in range(i + 1, p + 1):
                    lhs = [nv.face(p - 1, i)[k] for k in nv.face(p, j)]
                    rhs = [nv.face(p - 1, j - 1)[k] for k in nv.face(p, i)]
                    assert lhs == rhs, (p, i, j)


def test_arrow_groupoid_point():
    ag = arrow_groupoid(point_groupoid())
    assert ag.gi.n_objects == 1 and ag.gi.n_arrows == 1


def test_arrow_groupoid_z2():
    ag = arrow_groupoid(cyclic_groupoid(2))
    assert ag.gi.n_objects == 2
    assert ag.gi.n_arrows == 8
    # sigma mu = tau mu = id holds by construction; re-check equality of maps
    g = cyclic_groupoid(2)
    assert compose_maps(ag.sigma, ag.mu) == identity_map(g)
    assert compose_maps(ag.tau, ag.mu) == identity_map(g)
    assert is_morita(ag.sigma).ok and is_morita(ag.tau).ok


def test_cech_double_cover_of_point_is_pair():
    cech = cech_groupoid(point_groupoid(), [[0], [0]])
    assert cech.gu.n_objects == 2
    assert cech.gu.n_arrows == 4
    assert is_morita(cech.pi).ok
    orbits, iso = orbits_and_isotropy(cech.gu)
    assert orbits == ((0, 1),)
    assert all(len(i) == 1 for i in iso)


def test_cech_single_set_cover_is_identity():
    g = cyclic_groupoid(2)
    cech = cech_groupoid(g, [[0]])
    assert cech.gu.n_objects == g.n_objects
    assert cech.gu.n_arrows == g.n_arrows
    assert is_morita(cech.pi).ok


def test_cech_double_cover_of_z2():
    cech = cech_groupoid(cyclic_groupoid(2), [[0], [0]])
    assert cech.gu.n_objects == 2
    assert cech.gu.n_arrows == 8
    assert is_morita(cech.pi).ok
    assert len(cech.kernel_arrows) == 4


@pytest.mark.parametrize(
    "base,cover",
    [
        (point_groupoid(), [[0], [0]]),
        (point_groupoid(), [[0], [0], [0]]),
        (cyclic_groupoid(2), [[0]] * 4),
        (pair_groupoid(2), [[0], [0, 1]]),
    ],
)
def test_cech_section_is_the_least_index_lift(base, cover):
    cech = cech_groupoid(base, cover)
    section = cech.section
    assert validate_map(section).ok
    assert compose_maps(cech.pi, section) == identity_map(base)
    for x in range(base.n_objects):
        assert cech.obj_pairs[section.obj_map[x]] == (x, cech.min_index(x))
    for a in range(base.n_arrows):
        lift = (a, cech.min_index(base.tgt[a]), cech.min_index(base.src[a]))
        assert cech.arrow_triples[section.arr_map[a]] == lift


def test_cech_rejects_non_cover():
    with pytest.raises(ValueError, match="not a cover"):
        cech_groupoid(pair_groupoid(2), [[0]])


def test_cech_morita_for_overlapping_cover():
    g = pair_groupoid(2)
    cech = cech_groupoid(g, [[0], [0, 1]])
    assert is_morita(cech.pi).ok


def _fail_call(monkeypatch, name: str, n: int, wrong):
    """Make the ``n``-th call (from 0) of ``groupoid.<name>`` return ``wrong(*args)``."""
    real = getattr(groupoid, name)
    calls = []

    def patched(*args):
        calls.append(args)
        return wrong(*args) if len(calls) == n + 1 else real(*args)

    monkeypatch.setattr(groupoid, name, patched)


@pytest.mark.parametrize("n,name", [(0, "sigma"), (1, "tau")])
def test_arrow_groupoid_retraction_failure_names_the_map(monkeypatch, n, name):
    _fail_call(monkeypatch, "compose_maps", n, lambda f2, f1: f2)
    with pytest.raises(InvalidStructureError, match="sigma mu = tau mu = id fails") as exc:
        arrow_groupoid(cyclic_groupoid(2))
    assert exc.value.report.violations == [Violation("retraction", (name,))]


# a real certificate of a map that is not Morita: Z_2 collapsed to the point is not faithful
NOT_MORITA = is_morita(_collapse_to_point(cyclic_groupoid(2)))


@pytest.mark.parametrize("n,name", [(0, "sigma"), (1, "tau")])
def test_arrow_groupoid_not_morita_carries_certificate_witnesses(monkeypatch, n, name):
    _fail_call(monkeypatch, "is_morita", n, lambda f: NOT_MORITA)
    with pytest.raises(InvalidStructureError, match=f"arrow_groupoid: {name} not Morita") as exc:
        arrow_groupoid(cyclic_groupoid(2))
    [violation] = exc.value.report.violations
    assert violation.check == "morita"
    assert violation.witness == (name, NOT_MORITA.ff_witness, NOT_MORITA.es_witness) == (name, (0, 0), None)


def test_cech_projection_not_morita_carries_certificate_witnesses(monkeypatch):
    cert = is_morita(GroupoidMap(point_groupoid(), disjoint_union(point_groupoid(), point_groupoid()), (0,), (0,)))
    assert cert.es_witness == (1,)
    _fail_call(monkeypatch, "is_morita", 0, lambda f: cert)
    with pytest.raises(InvalidStructureError, match="cech_groupoid: projection not Morita") as exc:
        cech_groupoid(cyclic_groupoid(2), [[0], [0]])
    [violation] = exc.value.report.violations
    assert (violation.check, violation.witness) == ("morita", ("pi", None, (1,)))


def test_nerve_faces_match_uncached_recomputation():
    g = pair_groupoid(3)
    nv = nerve(g, 4)

    def face(p, i):
        out = []
        for s in nv.strings[p]:
            if p == 1:
                t = g.src[s[0]] if i == 0 else g.tgt[s[0]]
            elif i == 0:
                t = s[1:]
            elif i == p:
                t = s[:-1]
            else:
                t = s[: i - 1] + (g.comp[(s[i - 1], s[i])],) + s[i + 1 :]
            out.append(nv.strings[p - 1].index(t))
        return tuple(out)

    for p in range(1, 5):
        for i in range(p + 1):
            first = nv.face(p, i)
            assert first == face(p, i)
            assert nv.face(p, i) == first
            assert nv.face(p, i) is first  # built once, then kept
    with pytest.raises(ValueError, match="face out of range"):
        nv.face(5, 0)
    with pytest.raises(ValueError, match="face out of range"):
        nv.face(2, 3)
