"""2-term ruths: the four equations, morphisms, gauges, duals."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vbgroupoids.generators import (
    acyclic_ruth,
    base_groupoids,
    honest_rep,
    named_reps,
    random_gauge,
    random_invertible,
    random_matrix,
    seed_ruths,
    shifted_ruth,
)
from vbgroupoids.groupoid import (
    FiniteGroupoid,
    cech_groupoid,
    composable_strings,
    cyclic_groupoid,
    generating_arrows,
    identity_map,
    pair_groupoid,
    point_groupoid,
    validate_groupoid,
)
from vbgroupoids.linalg import Matrix
from vbgroupoids.report import InvalidStructureError
from vbgroupoids.ruth import (
    TwoTermRuth,
    check_ruth,
    check_ruth_morphism,
    compose_ruth_morphisms,
    direct_sum,
    dual_morphism,
    dual_ruth,
    gauge_transform,
    identity_morphism,
    is_quasi_iso,
    make_ruth,
    pullback_ruth,
    sum_projection,
    zero_morphism,
    zero_ruth,
)

F = Fraction


@pytest.fixture
def z2():
    return cyclic_groupoid(2)


@pytest.fixture
def sign(z2):
    return make_ruth(z2, (1,), (0,), rho_e={1: Matrix.from_rows([[-1]])})


@pytest.fixture
def trivial(z2):
    return make_ruth(z2, (1,), (0,))


def test_trivial_and_sign_valid(sign, trivial):
    assert check_ruth(trivial).ok
    assert check_ruth(sign).ok


def test_gamma_needs_core(z2):
    # forcing a nonzero gamma with C = 0 cannot typecheck
    bad_gamma = {(1, 1): Matrix.from_rows([[1]])}
    r = TwoTermRuth(
        base=z2,
        e_dims=(1,),
        c_dims=(0,),
        anchor=(Matrix.zeros(1, 0),),
        rho_e=(Matrix.identity(1), Matrix.from_rows([[-1]])),
        rho_c=(Matrix.identity(0), Matrix.identity(0)),
        gamma={(0, 0): Matrix.zeros(0, 1), (0, 1): Matrix.zeros(0, 1), (1, 0): Matrix.zeros(0, 1), **bad_gamma},
    )
    rep = check_ruth(r)
    assert not rep.ok
    assert any(v.check == "gamma-shape" for v in rep.violations)


def test_identity_and_zero_morphisms(sign, z2):
    assert check_ruth_morphism(identity_morphism(sign)).ok
    assert check_ruth_morphism(zero_morphism(sign, zero_ruth(z2))).ok


def test_composition_unital_and_associative(sign):
    ident = identity_morphism(sign)
    rng = random.Random(0)
    _, m = random_gauge(sign, rng)
    assert compose_ruth_morphisms(ident, m) == m
    assert compose_ruth_morphisms(m, identity_morphism(sign)) == m


def test_composition_of_gauges_is_gauge(z2):
    rng = random.Random(1)
    base = make_ruth(
        z2,
        (1,),
        (1,),
        anchor={0: Matrix.identity(1)},
        rho_e={1: Matrix.from_rows([[-1]])},
        rho_c={1: Matrix.from_rows([[-1]])},
    )
    r1, m1 = random_gauge(base, rng)
    r2, m2 = random_gauge(r1, rng)
    comp = compose_ruth_morphisms(m2, m1)
    assert comp.source == base and comp.target == r2
    assert check_ruth_morphism(comp).ok
    ok, _ = is_quasi_iso(comp)
    assert ok


def test_zero_compose(sign, z2):
    z = zero_morphism(sign, zero_ruth(z2))
    again = compose_ruth_morphisms(z, identity_morphism(sign))
    assert again == z


def test_quasi_iso_examples(z2, sign):
    pt = point_groupoid()
    acyclic = make_ruth(pt, (1,), (1,), anchor={0: Matrix.identity(1)})
    assert is_quasi_iso(identity_morphism(sign))[0]
    assert is_quasi_iso(zero_morphism(acyclic, zero_ruth(pt)))[0]
    assert not is_quasi_iso(zero_morphism(sign, zero_ruth(z2)))[0]


def test_direct_sum_blocks(z2, sign, trivial):
    s = direct_sum(sign, trivial)
    assert s.rho_e[1] == Matrix.from_rows([[-1, 0], [0, 1]])
    assert check_ruth(s).ok
    # acyclic (+) acyclic has invertible anchor
    a = acyclic_ruth(trivial)
    aa = direct_sum(a, a)
    assert all(m.is_invertible for m in aa.anchor)


def test_pullback_examples(z2, sign, trivial):
    assert pullback_ruth(identity_map(z2), sign) == sign
    pt = point_groupoid()
    collapse = pullback_ruth(
        __import__("vbgroupoids.groupoid", fromlist=["GroupoidMap"]).GroupoidMap(z2, pt, (0,), (0, 0)),
        make_ruth(pt, (1,), (0,)),
    )
    assert collapse.e_dims == (1,)
    assert check_ruth(collapse).ok
    assert collapse.rho_e[1] == Matrix.identity(1)


def test_gauge_identity_and_scaling(sign):
    r, m = gauge_transform(
        sign,
        [Matrix.identity(1)],
        [Matrix.identity(0)],
        [Matrix.zeros(0, 1), Matrix.zeros(0, 1)],
    )
    assert r == sign
    r2, _ = gauge_transform(
        sign,
        [Matrix.from_rows([[2]])],
        [Matrix.identity(0)],
        [Matrix.zeros(0, 1), Matrix.zeros(0, 1)],
    )
    assert r2.rho_e[1] == Matrix.from_rows([[-1]])  # conjugation by a scalar


def test_gauge_requires_invertible(sign):
    with pytest.raises(ValueError, match="invertible"):
        gauge_transform(
            sign,
            [Matrix.zeros(1, 1)],
            [Matrix.identity(0)],
            [Matrix.zeros(0, 1), Matrix.zeros(0, 1)],
        )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["pt", "z2", "z3", "pair2", "pt+z2"]))
def test_random_gauges_stay_valid(seed, name):
    g = base_groupoids()[name]
    rng = random.Random(seed)
    seeds = seed_ruths(name, g)
    base = seeds[seed % len(seeds)]
    gauged, mor = random_gauge(base, rng)
    assert check_ruth(gauged).ok
    assert check_ruth_morphism(mor).ok
    assert is_quasi_iso(mor)[0]


def test_quasi_iso_closed_under_composition(z2):
    rng = random.Random(5)
    rep = named_reps("z2", cyclic_groupoid(2))[1]
    r1, m1 = random_gauge(rep, rng)
    r2, m2 = random_gauge(r1, rng)
    assert is_quasi_iso(compose_ruth_morphisms(m2, m1))[0]


# -- duals -------------------------------------------------------------------------


def test_dual_of_trivial_and_sign(z2, sign, trivial):
    dt = dual_ruth(trivial)
    assert dt.e_dims == (0,) and dt.c_dims == (1,)
    assert dt.rho_c[1] == Matrix.identity(1)
    ds = dual_ruth(sign)
    assert ds.rho_c[1] == Matrix.from_rows([[-1]])


def test_dual_of_acyclic_is_acyclic(trivial):
    d = dual_ruth(acyclic_ruth(trivial))
    assert all(m.is_invertible for m in d.anchor)


def test_double_dual_is_identity_on_the_nose(z2):
    rng = random.Random(7)
    base = seed_ruths("z2", z2)[-2]
    gauged, _ = random_gauge(base, rng)
    assert dual_ruth(dual_ruth(gauged)) == gauged


def test_dual_morphism_valid_and_direction(z2):
    rng = random.Random(9)
    rep = named_reps("z2", z2)[0]
    gauged, mor = random_gauge(direct_sum(rep, acyclic_ruth(rep)), rng)
    dm = dual_morphism(mor)
    assert dm.source == dual_ruth(mor.target)
    assert dm.target == dual_ruth(mor.source)
    assert check_ruth_morphism(dm).ok


def test_dual_sign_convention_search(z2):
    """Of the four (anchor, gamma) sign choices only those with product +1 are ruths.

    The frozen convention (+, +) is one of them; this pins the documented
    choice and shows the mixed signs genuinely fail.
    """
    rng = random.Random(3)
    base = direct_sum(named_reps("z2", z2)[1], acyclic_ruth(named_reps("z2", z2)[0]))
    gauged, _ = random_gauge(base, rng)
    g = z2
    survivors = []
    for s_anchor in (1, -1):
        for s_gamma in (1, -1):
            cand = TwoTermRuth(
                base=g,
                e_dims=gauged.c_dims,
                c_dims=gauged.e_dims,
                anchor=tuple(gauged.anchor[x].transpose().scale(s_anchor) for x in range(1)),
                rho_e=tuple(gauged.rho_c[g.inv[a]].transpose() for a in range(g.n_arrows)),
                rho_c=tuple(gauged.rho_e[g.inv[a]].transpose() for a in range(g.n_arrows)),
                gamma={
                    p: gauged.gamma[(g.inv[p[1]], g.inv[p[0]])].transpose().scale(s_gamma)
                    for p in g.pairs
                },
            )
            if check_ruth(cand).ok:
                survivors.append((s_anchor, s_gamma))
    assert (1, 1) in survivors
    assert survivors == [(1, 1), (-1, -1)]
    assert dual_ruth(gauged).anchor[0] == gauged.anchor[0].transpose()


def test_shifted_ruth_is_dual_of_rep(z2):
    rep = named_reps("z2", z2)[1]
    assert dual_ruth(rep) == shifted_ruth(rep)


# -- eq4-cocycle from the generating arrows ----------------------------------------------


def _c(r, g1, g2, g3):
    """The left side of eq4 at (g1, g2, g3)."""
    g = r.base
    return (
        r.rho_c[g1] * r.gamma[(g2, g3)]
        - r.gamma[(g.compose(g1, g2), g3)]
        + r.gamma[(g1, g.compose(g2, g3))]
        - r.gamma[(g1, g2)] * r.rho_e[g3]
    )


def _curvatures(r, g1, g2):
    """The left sides (R_c, R_e) of eq2 and eq3 at (g1, g2)."""
    g = r.base
    g12, gam = g.compose(g1, g2), r.gamma[(g1, g2)]
    r_c = r.rho_c[g1] * r.rho_c[g2] - r.rho_c[g12] + gam * r.anchor[g.src[g2]]
    r_e = r.rho_e[g1] * r.rho_e[g2] - r.rho_e[g12] + r.anchor[g.tgt[g1]] * gam
    return r_c, r_e


def _eq4_failures(r):
    """The triples at which eq4 fails, every triple computed: the loop before the reduced pass."""
    return [x for x in r.base.triples() if not _c(r, *x).is_zero]


EQ4_BASES = {
    "z3": cyclic_groupoid(3),
    "pair3": pair_groupoid(3),
    "cech-z2-3": cech_groupoid(cyclic_groupoid(2), [[0]] * 3).gu,
}


def _arbitrary(g: FiniteGroupoid, rng: random.Random) -> TwoTermRuth:
    """Random matrices of the right shapes, with E = 2 and C = 1 or 2: no ruth equation holds."""
    e = (2,) * g.n_objects
    c = tuple(rng.choice((1, 2)) for _ in range(g.n_objects))
    return TwoTermRuth(
        base=g,
        e_dims=e,
        c_dims=c,
        anchor=tuple(random_matrix(rng, e[x], c[x]) for x in range(g.n_objects)),
        rho_e=tuple(random_matrix(rng, e[g.tgt[a]], e[g.src[a]]) for a in range(g.n_arrows)),
        rho_c=tuple(random_matrix(rng, c[g.tgt[a]], c[g.src[a]]) for a in range(g.n_arrows)),
        gamma={(g1, g2): random_matrix(rng, c[g.tgt[g1]], e[g.src[g2]]) for g1, g2 in g.pairs},
    )


@pytest.mark.parametrize("name", sorted(EQ4_BASES))
def test_eq4_identity_holds_on_arbitrary_data(name):
    # the identity behind the reduced pass of check_ruth, on data that satisfies no equation
    g = EQ4_BASES[name]
    r = _arbitrary(g, random.Random(len(name)))
    strings = composable_strings(g, 4)[-1]
    for g0, g1, g2, g3 in strings:
        r_c, _ = _curvatures(r, g0, g1)
        _, r_e = _curvatures(r, g2, g3)
        rhs = (
            r.rho_c[g0] * _c(r, g1, g2, g3)
            + _c(r, g0, g.compose(g1, g2), g3)
            - _c(r, g0, g1, g.compose(g2, g3))
            + _c(r, g0, g1, g2) * r.rho_e[g3]
            - r_c * r.gamma[(g2, g3)]
            + r.gamma[(g0, g1)] * r_e
        )
        assert _c(r, g.compose(g0, g1), g2, g3) == rhs
    assert strings and not check_ruth(r).ok


def _cored(g: FiniteGroupoid, seed: int) -> TwoTermRuth:
    """A gauge-randomized ``rep (+) shifted(rep) (+) acyclic(rep)``: its anchor has a kernel and a
    cokernel at every object, so gamma can change without breaking eq2 or eq3."""
    rep = honest_rep(g, lambda x0, h: Matrix.identity(1), lambda x0: 1)
    r, _ = random_gauge(direct_sum(direct_sum(rep, shifted_ruth(rep)), acyclic_ruth(rep)), random.Random(seed))
    return r


def _eq4_mutant(r: TwoTermRuth, seed: int, flat: bool) -> TwoTermRuth:
    """``r`` with gamma changed at one or two non-unit pairs whose first arrow is not in
    T = generating_arrows, by K R L with R random and nonzero: with ``flat``, K a basis of ker anchor over
    the target and L one of the left kernel of anchor over the source, so eq2 and eq3 still hold
    and only eq4 can fail; else K and L identities."""
    rng = random.Random(seed)
    g = r.base
    gens = set(generating_arrows(g))
    pairs = [(g1, g2) for g1, g2 in g.pairs if g1 not in gens and not g.is_unit(g1) and not g.is_unit(g2)]
    gamma = dict(r.gamma)
    for g1, g2 in rng.sample(pairs, rng.choice((1, 2))):
        old = gamma[(g1, g2)]
        k, l = Matrix.identity(old.rows), Matrix.identity(old.cols)
        if flat:
            k, l = r.anchor[g.tgt[g1]].kernel(), r.anchor[g.src[g2]].transpose().kernel().transpose()
        gamma[(g1, g2)] = old + k * random_matrix(rng, k.cols, l.rows, 1, 2) * l
    return replace(r, gamma=gamma)


EQ4_MUTANTS = [(name, seed, flat) for name in sorted(EQ4_BASES) for seed in range(6) for flat in (True, False)]


@pytest.mark.parametrize("name,seed,flat", EQ4_MUTANTS)
def test_eq4_mutant_matches_the_full_loop(name, seed, flat):
    bad = _eq4_mutant(_cored(EQ4_BASES[name], seed), seed, flat)
    expected = _eq4_failures(bad)
    rep = check_ruth.__wrapped__(bad)
    eq4 = [x.witness for x in rep.violations if x.check == "eq4-cocycle"]
    assert eq4 == expected and rep.violations[len(rep.violations) - len(eq4) :] == [
        x for x in rep.violations if x.check == "eq4-cocycle"
    ]
    if flat:
        assert expected and {x.check for x in rep.violations} == {"eq4-cocycle"}
    else:
        assert {"eq2-rho_c", "eq3-rho_e"} & {x.check for x in rep.violations}


@pytest.mark.parametrize("name,seed", [(name, seed) for name in sorted(EQ4_BASES) for seed in range(3)])
def test_rho_c_mutant_off_the_generators_takes_the_full_loop(name, seed):
    # eq4 reads rho_c only at its first arrow, so a rho_c changed at an arrow outside T breaks
    # eq4 only on triples the reduced pass does not compute; eq2 fails too, which closes the gate
    g = EQ4_BASES[name]
    r = _cored(g, seed)
    rng = random.Random(seed)
    gens = set(generating_arrows(g))
    a = rng.choice([a for a in range(g.n_arrows) if a not in gens and not g.is_unit(a)])
    shift = random_matrix(rng, r.rho_c[a].rows, r.rho_c[a].cols, 1, 2)
    bad = replace(r, rho_c=tuple(m + shift if b == a else m for b, m in enumerate(r.rho_c)))
    expected = _eq4_failures(bad)
    assert expected and {x[0] for x in expected} == {a}
    rep = check_ruth.__wrapped__(bad)
    assert [x.witness for x in rep.violations if x.check == "eq4-cocycle"] == expected
    assert "eq2-rho_c" in {x.check for x in rep.violations}


def test_eq4_mutants_fail_on_and_off_the_generating_arrows():
    # the reduced pass sees a failing triple led by T, and the full loop adds those led outside it
    firsts = set()
    for name, seed, flat in EQ4_MUTANTS:
        g = EQ4_BASES[name]
        gens = set(generating_arrows(g))
        firsts |= {x[0] in gens for x in _eq4_failures(_eq4_mutant(_cored(g, seed), seed, flat))}
    assert firsts == {True, False}


def test_valid_ruth_computes_eq4_only_from_generators(monkeypatch):
    g = EQ4_BASES["cech-z2-3"]
    r = _cored(g, 1)
    assert validate_groupoid(g).ok  # passed once, so not run again below
    full = []
    monkeypatch.setattr(FiniteGroupoid, "triples", lambda self: full.append(self) or [])
    assert check_ruth.__wrapped__(r).ok and full == []
