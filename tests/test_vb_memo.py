"""The per-call memos of check_vbgroupoid and check_vbmap, the stacked mult_of, the
batched inverse_matrix, and the associativity and VB-map multiplicativity passes over
generating arrows.

The oracle is a copy of the checkers as they were before the memos: every arrow, pair and
triple is computed afresh, the product is the two-block form ``m1 a + m2 b`` and the
inversion is solved one basis vector at a time.  Reindexed and loaded objects repeat equal
structure matrices over many arrows, pairs and triples, and the memo keys identities and Fib
bases by the values of the matrices they read, which is where it could go wrong: a structure
matrix swapped for a different one of the same shape must not be taken for the one it
replaced, and strings whose s and t maps agree in some places and not in others must not
share a Fib basis.  Equal matrices held as distinct objects must share every result.
Associativity is first computed only on triples that start with a generating arrow; on
mutants that break associativity alone the report must still equal the oracle's, and every
case outside the reduced pass's gate must compute every triple.  mult-source/target are first
computed only on pairs that start with a generating arrow or its inverse, and a mutant that
breaks them only at other pairs must still get the oracle's report.  The same holds for a
VB-map's multiplicativity, computed first only on pairs that start with a generating arrow.
"""

import random
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from vbgroupoids import io as vio
from vbgroupoids import groupoid, linalg, vb
from vbgroupoids.descent import descend_pipeline, make_descent_problem
from vbgroupoids.generators import (
    acyclic_ruth,
    base_groupoids,
    honest_rep,
    make_map_descent_fixture,
    named_reps,
    random_gauge,
    random_matrix,
    seed_ruths,
    shifted_ruth,
)
from vbgroupoids.groupoid import (
    FiniteGroupoid,
    GroupoidMap,
    arrow_groupoid,
    cech_groupoid,
    composable_strings,
    cyclic_groupoid,
    generating_arrows,
    pair_groupoid,
    validate_groupoid,
)
from vbgroupoids.linalg import Matrix
from vbgroupoids.report import InvalidStructureError, Report, Violation
from vbgroupoids.ruth import direct_sum, make_ruth, pullback_ruth
from vbgroupoids.vb import (
    VBGroupoid,
    VBMap,
    acyclic_vb,
    base_change,
    check_vbgroupoid,
    check_vbmap,
    core,
    direct_sum_vb,
    grothendieck,
    identity_vbmap,
    twist,
)

raw_check = check_vbgroupoid.__wrapped__


# -- the oracle: the checker without memo, two-block products, per-vector inverse ----------


def _mult(v: VBGroupoid, g: int, h: int, a: Matrix, b: Matrix) -> Matrix:
    m1, m2 = v.mult_blocks(g, h)
    return m1 * a + m2 * b


def _fib(v: VBGroupoid, g: int, h: int) -> Matrix:
    """Basis of Fib(g, h) = ker [s_g | -t_h], in Gamma_g (+) Gamma_h."""
    return Matrix.hstack([v.s_maps[g], -v.t_maps[h]]).kernel()


def _inverse(v: VBGroupoid, g: int) -> Matrix:
    base = v.base
    gi = base.inv[g]
    m1, m2 = v.mult_blocks(g, gi)
    a = Matrix.vstack([m2, v.t_maps[gi]])
    cols = []
    ut = v.u_maps[base.tgt[g]] * v.t_maps[g]
    for k in range(v.gamma_dims[g]):
        e = Matrix.from_cols([[1 if i == k else 0 for i in range(v.gamma_dims[g])]])
        rhs = (ut * e).col(0) + (v.s_maps[g] * e).col(0)
        shift = (m1 * e).col(0)
        w = a.solve(tuple(x - y for x, y in zip(rhs[: m2.rows], shift)) + rhs[m2.rows :])
        if w is None:
            raise InvalidStructureError(f"no inverse for basis vector {k} over arrow {g}", Report())
        cols.append(w)
    return Matrix.from_cols(cols, rows=v.gamma_dims[gi])


def reference_check(v: VBGroupoid) -> Report:
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
    for a in range(g.n_arrows):
        if v.s_maps[a].rank() != v.e_dims[g.src[a]]:
            rep.add("s-surjective", (a,))
        if v.t_maps[a].rank() != v.e_dims[g.tgt[a]]:
            rep.add("t-surjective", (a,))
    for x in range(g.n_objects):
        u = g.unit[x]
        if v.s_maps[u] * v.u_maps[x] != Matrix.identity(v.e_dims[x]):
            rep.add("unit-section-s", (x,))
        if v.t_maps[u] * v.u_maps[x] != Matrix.identity(v.e_dims[x]):
            rep.add("unit-section-t", (x,))
    for g1, g2 in g.pairs:
        g12 = g.compose(g1, g2)
        fib = _fib(v, g1, g2)
        a = fib.take_rows(range(v.gamma_dims[g1]))
        b = fib.take_rows(range(v.gamma_dims[g1], fib.rows))
        prod = _mult(v, g1, g2, a, b)
        if v.s_maps[g12] * prod != v.s_maps[g2] * b:
            rep.add("mult-source", (g1, g2))
        if v.t_maps[g12] * prod != v.t_maps[g1] * a:
            rep.add("mult-target", (g1, g2))
    for a in range(g.n_arrows):
        d = v.gamma_dims[a]
        ut = v.u_maps[g.tgt[a]] * v.t_maps[a]
        us = v.u_maps[g.src[a]] * v.s_maps[a]
        if _mult(v, g.unit[g.tgt[a]], a, ut, Matrix.identity(d)) != Matrix.identity(d):
            rep.add("unit-law-left", (a,))
        if _mult(v, a, g.unit[g.src[a]], Matrix.identity(d), us) != Matrix.identity(d):
            rep.add("unit-law-right", (a,))
    for g1, g2, g3 in g.triples():
        fib = v.fib_string_basis((g1, g2, g3))
        d1, d2, d3 = (v.gamma_dims[x] for x in (g1, g2, g3))
        a = fib.take_rows(range(d1))
        b = fib.take_rows(range(d1, d1 + d2))
        c = fib.take_rows(range(d1 + d2, d1 + d2 + d3))
        left = _mult(v, g.compose(g1, g2), g3, _mult(v, g1, g2, a, b), c)
        right = _mult(v, g1, g.compose(g2, g3), a, _mult(v, g2, g3, b, c))
        if left != right:
            rep.add("associativity", (g1, g2, g3))
    for a in range(g.n_arrows):
        try:
            inv = _inverse(v, a)
        except InvalidStructureError:
            rep.add("inverse-missing", (a,))
            continue
        d = v.gamma_dims[a]
        lhs = _mult(v, g.inv[a], a, inv, Matrix.identity(d))
        if lhs != v.u_maps[g.src[a]] * v.s_maps[a]:
            rep.add("inverse-law", (a,), "inv(v) v != unit(s v)")
    return rep


def reference_mult_compat(f: VBMap) -> list[tuple[int, int]]:
    """The pairs at which ``f`` does not commute with the multiplication, each Fib afresh."""
    v, w, bm = f.source, f.target, f.base_map
    failed = []
    for g1, g2 in v.base.pairs:
        fib = _fib(v, g1, g2)
        a = fib.take_rows(range(v.gamma_dims[g1]))
        b = fib.take_rows(range(v.gamma_dims[g1], fib.rows))
        lhs = f.arr_maps[v.base.compose(g1, g2)] * _mult(v, g1, g2, a, b)
        rhs = _mult(w, bm.arr_map[g1], bm.arr_map[g2], f.arr_maps[g1] * a, f.arr_maps[g2] * b)
        if lhs != rhs:
            failed.append((g1, g2))
    return failed


# -- instances ---------------------------------------------------------------------------


Z2 = cyclic_groupoid(2)


def _gauged() -> VBGroupoid:
    """Grothendieck of a gauge-randomized ruth on Z_2 with nonzero curvature, m moved off Fib."""
    base = make_ruth(
        Z2,
        (1,),
        (1,),
        anchor={0: Matrix.identity(1)},
        rho_e={1: Matrix.from_rows([[-1]])},
        rho_c={1: Matrix.from_rows([[-1]])},
    )
    rng = random.Random(42)
    r, _ = random_gauge(base, rng)
    return _off_fib(grothendieck(r), rng)


def _off_fib(v: VBGroupoid, rng: random.Random) -> VBGroupoid:
    """``v`` with m changed off the fibered products: m + Z [s_g, -t_h] has the same products on
    every Fib(g, h), but now a product reads every coordinate, so a wrong s, t or u changes it."""
    off = {}
    for (g1, g2), m in v.m_maps.items():
        z = random_matrix(rng, m.rows, v.s_maps[g1].rows)
        off[(g1, g2)] = m + z * Matrix.hstack([v.s_maps[g1], -v.t_maps[g2]])
    return replace(v, m_maps=off)


def _maps() -> dict[str, GroupoidMap]:
    ag = arrow_groupoid(Z2)
    return {
        "cech-2": cech_groupoid(Z2, [[0], [0]]).pi,
        "cech-3": cech_groupoid(Z2, [[0], [0], [0]]).pi,
        "sigma": ag.sigma,
        "tau": ag.tau,
    }


MAPS = _maps()
V = _gauged()


def _reindex(f: GroupoidMap, v: VBGroupoid) -> VBGroupoid:
    """The object ``base_change`` builds, without its validation: every matrix shared with ``v``."""
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


def _bump(m: Matrix) -> Matrix:
    """``m`` with 1 added to its (0, 0) entry: a different matrix of the same shape."""
    return m + Matrix.block([1, m.rows - 1], [1, m.cols - 1], {(0, 0): Matrix.identity(1)})


def _preimage(f: GroupoidMap, check: str, witness: tuple) -> set[tuple]:
    """The witnesses of the pullback along ``f`` that lie over ``witness`` of the base."""
    d = f.dom
    if check.startswith("unit-section"):
        return {(x,) for x in range(d.n_objects) if (f.obj_map[x],) == witness}
    cells = {1: [(a,) for a in range(d.n_arrows)], 2: list(d.pairs), 3: d.triples()}[len(witness)]
    return {w for w in cells if tuple(f.arr_map[a] for a in w) == witness}


def _entries(rep: Report) -> list[tuple]:
    return [(x.check, x.witness, x.detail) for x in rep.violations]


# -- parity on pullbacks ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAPS))
def test_pullback_of_valid_object_matches_oracle(name):
    pulled, _ = base_change(MAPS[name], V)
    assert raw_check(pulled).violations == reference_check(pulled).violations == []


CORRUPT_PAIRS = [(1, 1), (0, 1), (1, 0)]


@pytest.mark.parametrize("pair", CORRUPT_PAIRS)
@pytest.mark.parametrize("name", sorted(MAPS))
def test_pullback_of_corrupted_base_fails_at_every_pulled_pair_and_triple(name, pair):
    f = MAPS[name]
    bad = replace(V, m_maps={**V.m_maps, pair: _bump(V.m_maps[pair])})
    base_rep = reference_check(bad)
    kinds = {len(x.witness) for x in base_rep.violations}
    assert {2, 3} <= kinds, "the corruption must break identities at pairs and at triples"
    pulled = _reindex(f, bad)
    expected = reference_check(pulled)
    assert _entries(raw_check(pulled)) == _entries(expected)
    with pytest.raises(InvalidStructureError) as exc:
        base_change(f, bad)
    assert exc.value.report.violations == expected.violations
    # the pullback fails exactly over the base's failures, at every arrow, pair and triple above them
    over = {(x.check, w) for x in base_rep.violations for w in _preimage(f, x.check, x.witness)}
    assert {(x.check, x.witness) for x in expected.violations} == over
    assert len(expected.violations) > len(base_rep.violations)


def _swap(v: VBGroupoid, table: str, key, new: Matrix) -> VBGroupoid:
    if table == "m_maps":
        return replace(v, m_maps={**v.m_maps, key: new})
    entries = list(getattr(v, table))
    entries[key] = new
    return replace(v, **{table: tuple(entries)})


def _swaps() -> list[tuple[str, str, object, str]]:
    """(map, table, key, corruption): one structure matrix of a pullback replaced by another."""
    cases = []
    for name in ("cech-2", "sigma"):
        d = MAPS[name].dom
        non_unit = [a for a in range(d.n_arrows) if not d.is_unit(a)]
        units = [d.unit[x] for x in range(d.n_objects)]
        pairs = [p for p in d.pairs if not d.is_unit(p[0]) and not d.is_unit(p[1])]
        # (unit, g) and (g, unit): read by the left and by the right unit law
        unit_pairs = [
            next(p for p in d.pairs if d.is_unit(p[i]) and not d.is_unit(p[1 - i])) for i in (0, 1)
        ]
        for corruption in ("bump", "zero"):
            for table in ("s_maps", "t_maps"):
                cases += [(name, table, non_unit[0], corruption), (name, table, units[-1], corruption)]
            cases.append((name, "u_maps", d.n_objects - 1, corruption))
            inverse_pair = (non_unit[0], d.inv[non_unit[0]])
            cases += [(name, "m_maps", p, corruption) for p in (pairs[-1], *unit_pairs, inverse_pair)]
    return cases


@pytest.mark.parametrize("name,table,key,corruption", _swaps())
def test_swapped_structure_matrix_matches_oracle(name, table, key, corruption):
    pulled = _reindex(MAPS[name], V)
    old = getattr(pulled, table)[key]
    new = _bump(old) if corruption == "bump" else Matrix.zeros(old.rows, old.cols)
    bad = _swap(pulled, table, key, new)
    expected = reference_check(bad)
    assert not expected.ok
    assert _entries(raw_check(bad)) == _entries(expected)


def test_swapped_source_map_is_not_taken_for_its_siblings():
    # every m_maps entry is shared with the valid pullback: only s tells the arrows apart
    pulled = _reindex(MAPS["cech-2"], V)
    d = pulled.base
    a = next(a for a in range(d.n_arrows) if not d.is_unit(a))
    bad = _swap(pulled, "s_maps", a, _bump(pulled.s_maps[a]))
    assert bad.m_maps == pulled.m_maps and raw_check(pulled).ok
    rep = raw_check(bad)
    assert rep.violations == reference_check(bad).violations
    assert any(x.check == "mult-source" for x in rep.violations)


# -- mult_of and inverse_matrix -------------------------------------------------------------


def test_mult_of_matches_two_block_form():
    g = V.base
    for g1, g2 in g.pairs:
        fib = _fib(V, g1, g2)
        a = fib.take_rows(range(V.gamma_dims[g1]))
        b = fib.take_rows(range(V.gamma_dims[g1], fib.rows))
        assert V.mult_of(g1, g2, a, b) == _mult(V, g1, g2, a, b)


def test_mult_of_rejects_a_wrong_split():
    g1, g2 = 1, 1
    d1, d2 = V.gamma_dims[g1], V.gamma_dims[g2]
    assert d2 >= 1
    stacked = Matrix.identity(d1 + d2)
    a = stacked.take_rows(range(d1 + 1))
    b = stacked.take_rows(range(d1 + 1, d1 + d2))
    assert a.rows + b.rows == V.m_maps[(g1, g2)].cols
    with pytest.raises(ValueError, match="mult_of"):
        V.mult_of(g1, g2, a, b)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_batched_inverse_matches_per_vector_solve(name):
    pulled, _ = base_change(MAPS[name], V)
    for v in (V, pulled):
        for a in range(v.base.n_arrows):
            assert v.inverse_matrix(a) == _inverse(v, a)


def test_inverse_matrix_witness_is_first_inconsistent_vector():
    # 1 added at entry (0, 1) of m_{1,1}: basis vector 0 keeps an inverse, vector 1 has none
    m = V.m_maps[(1, 1)]
    shift = Matrix.block([1, m.rows - 1], [1, 1, m.cols - 2], {(0, 1): Matrix.identity(1)})
    bad = replace(V, m_maps={**V.m_maps, (1, 1): m + shift})
    with pytest.raises(InvalidStructureError, match="basis vector 1 over arrow 1"):
        _inverse(bad, 1)
    with pytest.raises(InvalidStructureError, match="basis vector 1 over arrow 1") as exc:
        bad.inverse_matrix(1)
    assert exc.value.report.violations == [Violation("inverse-missing", (1, 1))]


def test_inverse_matrix_is_kept_per_object_and_failures_raise_again():
    v = replace(V)
    first = v.inverse_matrix(1)
    assert v.inverse_matrix(1) is first
    # the kept inverses are not part of the value, and a replaced object starts without them
    assert v == V and hash(v) == hash(V) and "_inverses" not in repr(v)
    assert replace(v).inverse_matrix(1) is not first
    m = V.m_maps[(1, 1)]
    shift = Matrix.block([1, m.rows - 1], [1, 1, m.cols - 2], {(0, 1): Matrix.identity(1)})
    bad = replace(V, m_maps={**V.m_maps, (1, 1): m + shift})
    for _ in range(2):
        with pytest.raises(InvalidStructureError, match="basis vector 1 over arrow 1"):
            bad.inverse_matrix(1)


# -- Fib bases shared by value ---------------------------------------------------------------


def _loaded(v: VBGroupoid) -> VBGroupoid:
    """``v`` written to an instance file and read back: one ``Matrix`` object per entry."""
    text = vio.dumps_instance({"g": vio.groupoid_to_json(v.base), "v": vio.vbgroupoid_to_json(v, "g")})
    return vio.loads_instance(text).get("v", "vbgroupoid")


def _transport(v: VBGroupoid, psi: list[Matrix]) -> VBGroupoid:
    """The isomorphic VB-groupoid in the coordinates w of Gamma_g with old vector ``psi[g] w``."""
    g = v.base
    inv = [p.inverse() for p in psi]
    return VBGroupoid(
        base=g,
        e_dims=v.e_dims,
        gamma_dims=v.gamma_dims,
        s_maps=tuple(s * p for s, p in zip(v.s_maps, psi)),
        t_maps=tuple(t * p for t, p in zip(v.t_maps, psi)),
        u_maps=tuple(inv[g.unit[x]] * u for x, u in enumerate(v.u_maps)),
        m_maps={
            (g1, g2): inv[g.compose(g1, g2)] * m * Matrix.block_diag([psi[g1], psi[g2]])
            for (g1, g2), m in v.m_maps.items()
        },
    )


def _moved(v: VBGroupoid) -> VBGroupoid:
    """``v`` transported along a random invertible map on every Gamma_g: s and t differ by value
    from arrow to arrow."""
    rng = random.Random(7)
    psi = []
    for d in v.gamma_dims:
        while not (p := random_matrix(rng, d, d, -9, 9)).is_invertible:
            pass
        psi.append(p)
    return _transport(v, psi)


def _aligned(v: VBGroupoid) -> VBGroupoid:
    """``v`` transported so that every t map is the same matrix while s still differs by value
    from arrow to arrow: strings then share their t maps and differ only in their s maps.

    Needs [s_g; t_g] invertible on every Gamma_g, as for the acyclic ``V`` (anchor 1).
    """
    rng = random.Random(8)
    common = v.t_maps[0]
    psi = []
    for s, t in zip(v.s_maps, v.t_maps):
        while True:
            target = Matrix.vstack([random_matrix(rng, s.rows, s.cols), common])
            if target.is_invertible:
                break
        psi.append(Matrix.vstack([s, t]).inverse() * target)
    return _transport(v, psi)


PULLED = _reindex(MAPS["cech-2"], V)
SHARED = {
    "loaded": _loaded(PULLED),
    "moved": _moved(PULLED),
    "aligned": _aligned(PULLED),
}


def test_shared_objects_have_the_intended_sharing():
    loaded, moved, aligned = SHARED["loaded"], SHARED["moved"], SHARED["aligned"]
    n = PULLED.base.n_arrows
    # equal by value, distinct as objects: an id() key would never hit
    assert len(set(loaded.s_maps)) == 1 and len({id(m) for m in loaded.s_maps}) == n
    assert len(set(moved.s_maps)) == len(set(moved.t_maps)) == n
    assert len(set(aligned.t_maps)) == 1 and len(set(aligned.s_maps)) == n


@pytest.mark.parametrize("name", sorted(SHARED))
def test_shared_valid_object_matches_oracle(name):
    assert raw_check(SHARED[name]).violations == reference_check(SHARED[name]).violations == []


def _bumped(v: VBGroupoid, table: str) -> VBGroupoid:
    """``v`` with the entry of ``table`` at the first non-unit arrow, or at the first pair that
    holds it, bumped."""
    d = v.base
    a = next(a for a in range(d.n_arrows) if not d.is_unit(a))
    key = next(p for p in d.pairs if a in p) if table == "m_maps" else a
    return _swap(v, table, key, _bump(getattr(v, table)[key]))


@pytest.mark.parametrize("table", ["s_maps", "t_maps", "m_maps"])
@pytest.mark.parametrize("name", sorted(SHARED))
def test_shared_object_with_bumped_entry_matches_oracle(name, table):
    bad = _bumped(SHARED[name], table)
    expected = reference_check(bad)
    assert not expected.ok
    assert _entries(raw_check(bad)) == _entries(expected)


@pytest.mark.parametrize("table", [None, "s_maps", "t_maps", "m_maps"])
def test_equal_matrices_held_apart_are_computed_once(monkeypatch, table):
    # the pullback holds one Matrix object per distinct value, the loaded copy one per entry
    computed = Counter()
    call_memo = vb._call_memo

    def counting(v):
        once, fib = call_memo(v)
        return lambda key, compute: once(key, lambda: computed.update([key[0]]) or compute()), fib

    monkeypatch.setattr(vb, "_call_memo", counting)
    counts = {}
    for name, v in (("pulled", PULLED), ("loaded", SHARED["loaded"])):
        bad = v if table is None else _bumped(v, table)
        computed.clear()
        assert _entries(raw_check(bad)) == _entries(reference_check(bad))
        counts[name] = Counter(computed)
    assert counts["loaded"] == counts["pulled"]
    assert counts["loaded"]["s-surjective"] < PULLED.base.n_arrows


@pytest.mark.parametrize("name", sorted(SHARED))
def test_vbmap_with_corrupted_arrow_map_fails_at_the_pairs_reading_it(name):
    w = SHARED[name]
    d = w.base
    rng = random.Random(3)
    cd = core(w)
    f, _ = twist(identity_vbmap(w), [random_matrix(rng, cd.dims[x], w.e_dims[x]) for x in range(d.n_objects)])
    assert check_vbmap.__wrapped__(f).ok and reference_mult_compat(f) == []
    for a in range(d.n_arrows):
        if d.is_unit(a):
            continue
        # a random change, so that no pair reading the map can miss it by accident
        shift = random_matrix(random.Random(a), f.arr_maps[a].rows, f.arr_maps[a].cols)
        bad = replace(f, arr_maps=tuple(m + shift if k == a else m for k, m in enumerate(f.arr_maps)))
        compat = [x.witness for x in check_vbmap.__wrapped__(bad).violations if x.check == "mult-compat"]
        reading = [(g1, g2) for g1, g2 in d.pairs if a in (g1, g2, d.compose(g1, g2))]
        assert compat == reference_mult_compat(bad) == reading


# -- associativity from the generating arrows --------------------------------------------


def _with_core(rep, seed: int) -> VBGroupoid:
    """Grothendieck of a gauge-randomized ``rep (+) shifted(rep) (+) acyclic(rep)``, m moved off
    Fib: the shifted summand gives every Gamma_g a nonzero ker s cap ker t."""
    rng = random.Random(seed)
    r, _ = random_gauge(direct_sum(direct_sum(rep, shifted_ruth(rep)), acyclic_ruth(rep)), rng)
    return _off_fib(grothendieck(r), rng)


PAIR3 = pair_groupoid(3)
CECH3 = cech_groupoid(Z2, [[0]] * 3)
CORED = {
    "pair3": _with_core(honest_rep(PAIR3, lambda x0, h: Matrix.identity(1), lambda x0: 1), 11),
    "cech3": _with_core(pullback_ruth(CECH3.pi, named_reps("z2", Z2)[1]), 12),
}


def _associativity_mutant(v: VBGroupoid, seed: int) -> VBGroupoid:
    """``v`` with K R added to m at one or two pairs that involve no unit and are not inverse
    pairs, K a basis of ker [s; t] over the product arrow and R random.

    The change lies in ker s cap ker t, so mult-source/target still hold; the unit laws and
    the inverse check read no changed pair.  Only associativity can fail."""
    rng = random.Random(seed)
    g = v.base
    free = [(g1, g2) for g1, g2 in g.pairs if not g.is_unit(g1) and not g.is_unit(g2) and g2 != g.inv[g1]]
    m_maps = dict(v.m_maps)
    for pair in rng.sample(free, rng.choice((1, 2))):
        g12 = g.compose(*pair)
        k = Matrix.vstack([v.s_maps[g12], v.t_maps[g12]]).kernel()
        m_maps[pair] = m_maps[pair] + k * random_matrix(rng, k.cols, m_maps[pair].cols)
    return replace(v, m_maps=m_maps)


MUTANTS = [(name, seed) for name, count in (("pair3", 40), ("cech3", 12)) for seed in range(count)]


@pytest.mark.parametrize("name,seed", MUTANTS)
def test_associativity_mutant_matches_full_loop(name, seed):
    bad = _associativity_mutant(CORED[name], seed)
    expected = reference_check(bad)
    assert expected.violations and {x.check for x in expected.violations} == {"associativity"}
    assert _entries(raw_check(bad)) == _entries(expected)


def test_mutant_fails_on_and_off_the_generating_arrows():
    # the reduced pass finds the triples that start with a generator; the full loop adds the rest
    bad = _associativity_mutant(CORED["pair3"], 0)
    gens = set(generating_arrows(PAIR3))
    firsts = {x.witness[0] in gens for x in reference_check(bad).violations}
    assert firsts == {True, False}
    assert _entries(raw_check(bad)) == _entries(reference_check(bad))


def _computed(monkeypatch, length: int = 3, checker: str = "check_vbgroupoid") -> list[tuple[int, ...]]:
    """The strings of ``length`` arrows at which ``checker`` computes an identity from now on:
    each computation reads the Fib basis of its string once.  A checker that calls another
    builds its own memo, so only the ones ``checker`` builds are counted."""
    computed = []
    call_memo = vb._call_memo

    def counting(v):
        once, fib = call_memo(v)
        if sys._getframe(1).f_code.co_name != checker:
            return once, fib

        def counted(arrows):
            if len(arrows) == length:
                computed.append(tuple(arrows))
            return fib(arrows)

        return once, counted

    monkeypatch.setattr(vb, "_call_memo", counting)
    return computed


def _tried(monkeypatch) -> list[tuple[int, ...]]:
    """The strings at which a checker tries a law from now on, computed or found in its memo."""
    tried = []
    failing_strings = vb.failing_strings

    def counting(g, length, reduced, law):
        return failing_strings(g, length, reduced, lambda *x: tried.append(x) or law(*x))

    monkeypatch.setattr(vb, "failing_strings", counting)
    return tried


def _z2_k4(seed: int = 5) -> VBGroupoid:
    """A gauge-randomized pullback to the Cech groupoid of Z_2 by 4 copies: 4 objects, 32 arrows,
    and no two triples read equal structure matrices, so none shares a memo key."""
    cech = cech_groupoid(Z2, [[0]] * 4)
    trivial = named_reps("z2", Z2)[0]
    r, _ = random_gauge(pullback_ruth(cech.pi, direct_sum(trivial, acyclic_ruth(trivial))), random.Random(seed))
    return grothendieck(r)


def test_valid_object_computes_associativity_only_from_generators(monkeypatch):
    v = _z2_k4()
    gens = generating_arrows(v.base)
    triples = v.base.triples()
    assert (v.base.n_arrows, len(gens), len(triples)) == (32, 4, 2048)
    computed = _computed(monkeypatch)
    firsts = []
    strings = groupoid.composable_strings
    monkeypatch.setattr(
        groupoid, "composable_strings", lambda g, n, first=None: firsts.append(first) or strings(g, n, first)
    )
    assert raw_check(v).ok
    assert len(computed) == 256
    # built from the generators in the order of the full list, which is never enumerated
    assert computed == [x for x in triples if x[0] in set(gens)]
    assert firsts == [gens]


def _flipped_cech() -> FiniteGroupoid:
    """The Cech groupoid of Z_2 by 2 copies with one composite replaced by the other arrow between
    the same objects: the endpoints are right, the composition is not."""
    g = cech_groupoid(Z2, [[0]] * 2).gu
    g1, g2 = next(p for p in g.pairs if not g.is_unit(p[0]) and not g.is_unit(p[1]))
    g12 = g.compose(g1, g2)
    other = next(a for a in g.hom(g.src[g12], g.tgt[g12]) if a != g12)
    return replace(g, comp={**g.comp, (g1, g2): other})


def test_invalid_base_takes_the_full_loop(monkeypatch):
    # the acyclic VB-groupoid reads only the endpoints of arrows, so it passes every law over the
    # broken base; the reduced pass is not proven there
    base = _flipped_cech()
    assert not validate_groupoid(base).ok
    v = acyclic_vb(base, [1] * base.n_objects)
    tried = _tried(monkeypatch)
    assert raw_check(v).ok
    # tried, not computed: the equal matrices of the acyclic VB-groupoid share their memo keys
    assert sorted(tried) == sorted(base.triples())


def _bare_bundle(base: FiniteGroupoid, x: int) -> VBGroupoid:
    """E_x = 1 and every other fiber 0: s is not surjective at the arrows out of x and the unit
    section fails at x, while associativity and the inverse check hold trivially."""
    return VBGroupoid(
        base=base,
        e_dims=tuple(int(y == x) for y in range(base.n_objects)),
        gamma_dims=(0,) * base.n_arrows,
        s_maps=tuple(Matrix.zeros(int(base.src[a] == x), 0) for a in range(base.n_arrows)),
        t_maps=tuple(Matrix.zeros(int(base.tgt[a] == x), 0) for a in range(base.n_arrows)),
        u_maps=tuple(Matrix.zeros(0, int(y == x)) for y in range(base.n_objects)),
        m_maps={p: Matrix.zeros(0, 0) for p in base.pairs},
    )


def test_earlier_failure_takes_the_full_loop(monkeypatch):
    v = direct_sum_vb(CORED["pair3"], _bare_bundle(PAIR3, 2))
    expected = reference_check(v)
    assert {x.check for x in expected.violations} == {"s-surjective", "t-surjective", "unit-section-s", "unit-section-t"}
    computed = _computed(monkeypatch)
    assert _entries(raw_check(v)) == _entries(expected)
    assert len(computed) == len(PAIR3.triples())


def test_inverse_failure_takes_the_full_loop(monkeypatch):
    # an inverse that cannot be solved at one arrow, and nothing else changed
    v = CORED["pair3"]
    solved = VBGroupoid.inverse_matrix

    def missing_at_1(self, g):
        if g == 1:
            raise InvalidStructureError("no inverse", Report())
        return solved(self, g)

    monkeypatch.setattr(VBGroupoid, "inverse_matrix", missing_at_1)
    computed = _computed(monkeypatch)
    assert _entries(raw_check(v)) == [("inverse-missing", (1,), "")]
    assert len(computed) == len(PAIR3.triples())


# -- mult-source/target from the generating arrows and their inverses ---------------------


def _lead(g: FiniteGroupoid) -> set[int]:
    """T' = the generating arrows and their inverses, the first arrows of the reduced pairs."""
    gens = generating_arrows(g)
    return {*gens, *(g.inv[a] for a in gens)}


def _ends_mutant(v: VBGroupoid, seed: int, kind: str, free: bool = False) -> VBGroupoid:
    """``v`` with K R added to m at one or two pairs whose first arrow is not in T', R random and
    K a basis of ker t ("ker-t") or of ker s ("ker-s") over the product arrow, or the identity
    ("any").  With ``free``, the pairs involve no unit and are no inverse pair, so the unit laws
    and the inverse check read no changed pair.

    The reduced pass computes neither mult-source nor mult-target at a changed pair: with K in
    ker t only mult-source can fail there, with K in ker s only mult-target, so associativity
    on the reduced triples has to catch the change."""
    rng = random.Random(seed)
    g = v.base
    lead = _lead(g)
    pairs = [(g1, g2) for g1, g2 in g.pairs if g1 not in lead]
    if free:
        pairs = [(g1, g2) for g1, g2 in pairs if not g.is_unit(g1) and not g.is_unit(g2) and g2 != g.inv[g1]]
    m_maps = dict(v.m_maps)
    for pair in rng.sample(pairs, rng.choice((1, 2))):
        g12 = g.compose(*pair)
        k = {"ker-t": v.t_maps[g12].kernel(), "ker-s": v.s_maps[g12].kernel()}.get(kind)
        k = Matrix.identity(v.gamma_dims[g12]) if k is None else k
        m_maps[pair] = m_maps[pair] + k * random_matrix(rng, k.cols, m_maps[pair].cols)
    return replace(v, m_maps=m_maps)


ENDS_BASES = {**CORED, "z2-k4": _z2_k4()}
ENDS_MUTANTS = [
    (name, seed, kind, free)
    for name, count in (("pair3", 4), ("cech3", 4), ("z2-k4", 2))
    for seed in range(count)
    for kind in ("ker-t", "ker-s", "any")
    for free in ((False, True) if name != "pair3" else (False,))  # pair(3): every non-unit arrow is in T'
]


@pytest.mark.parametrize("name,seed,kind,free", ENDS_MUTANTS)
def test_mutant_outside_the_reduced_pairs_matches_full_loop(name, seed, kind, free):
    bad = _ends_mutant(ENDS_BASES[name], seed, kind, free)
    expected = reference_check(bad)
    assert expected.violations
    if free:
        assert {x.check for x in expected.violations} <= {"mult-source", "mult-target", "associativity"}
    assert _entries(raw_check(bad)) == _entries(expected)


def test_ker_t_mutant_breaks_mult_source_off_the_reduced_pairs():
    # the changed pair fails mult-source, and no pair the reduced pass reads fails either law
    v = ENDS_BASES["cech3"]
    bad = _ends_mutant(v, 0, "ker-t", free=True)
    ends = [x for x in reference_check(bad).violations if x.check.startswith("mult-")]
    assert ends and {x.check for x in ends} == {"mult-source"}
    assert all(x.witness[0] not in _lead(v.base) for x in ends)


def test_valid_object_computes_mult_ends_only_from_generators_and_inverses(monkeypatch):
    v = _z2_k4()
    g = v.base
    lead = _lead(g)
    computed = _computed(monkeypatch, 2)
    assert raw_check(v).ok
    assert (len(g.pairs), len(computed)) == (256, 64)
    assert computed == [p for p in g.pairs if p[0] in lead]


# -- VB-map multiplicativity from the generating arrows ----------------------------------


def _twisted(v: VBGroupoid, seed: int) -> VBMap:
    """The identity of ``v`` twisted by random core-valued data: a valid map with nonzero
    vertical parts."""
    rng = random.Random(seed)
    cd = core(v)
    alpha = [random_matrix(rng, cd.dims[x], v.e_dims[x]) for x in range(v.base.n_objects)]
    return twist(identity_vbmap(v), alpha)[0]


TWISTED = {name: _twisted(v, 20) for name, v in CORED.items()}


def _multiplicativity_mutant(f: VBMap, seed: int) -> VBMap:
    """``f`` with K R added to its matrix at one or two non-unit arrows, K a basis of
    ker [s'; t'] over the image arrow and R random.

    The change lies in ker s' cap ker t', so source- and target-compat still hold, and
    unit-compat reads no changed arrow.  Only mult-compat can fail."""
    rng = random.Random(seed)
    g, w = f.source.base, f.target
    arr_maps = list(f.arr_maps)
    for a in rng.sample([a for a in range(g.n_arrows) if not g.is_unit(a)], rng.choice((1, 2))):
        fa = f.base_map.arr_map[a]
        k = Matrix.vstack([w.s_maps[fa], w.t_maps[fa]]).kernel()
        arr_maps[a] = arr_maps[a] + k * random_matrix(rng, k.cols, arr_maps[a].cols)
    return replace(f, arr_maps=tuple(arr_maps))


MAP_MUTANTS = [(name, seed) for name, count in (("pair3", 30), ("cech3", 10)) for seed in range(count)]


@pytest.mark.parametrize("name,seed", MAP_MUTANTS)
def test_multiplicativity_mutant_matches_full_loop(name, seed):
    bad = _multiplicativity_mutant(TWISTED[name], seed)
    expected = reference_mult_compat(bad)
    assert expected
    assert _entries(check_vbmap.__wrapped__(bad)) == [("mult-compat", x, "") for x in expected]


@pytest.mark.parametrize("name", sorted(TWISTED))
def test_map_mutant_fails_on_and_off_the_generating_arrows(name):
    # the reduced pass finds the pairs that start with a generator; the full loop adds the rest
    gens = set(generating_arrows(CORED[name].base))
    bad = _multiplicativity_mutant(TWISTED[name], 0)
    assert {x[0] in gens for x in reference_mult_compat(bad)} == {True, False}


def test_valid_map_computes_multiplicativity_only_from_generators(monkeypatch):
    f = _twisted(_z2_k4(), 21)
    g = f.source.base
    gens = set(generating_arrows(g))
    computed = _computed(monkeypatch, 2, "check_vbmap")
    assert check_vbmap.__wrapped__(f).ok
    assert (len(g.pairs), len(computed)) == (256, 32)
    assert computed == [p for p in g.pairs if p[0] in gens]


def test_invalid_map_computes_every_pair(monkeypatch):
    g = CECH3.gu
    bad = _multiplicativity_mutant(TWISTED["cech3"], 1)
    expected = reference_mult_compat(bad)
    computed = _computed(monkeypatch, 2, "check_vbmap")
    assert _entries(check_vbmap.__wrapped__(bad)) == [("mult-compat", x, "") for x in expected] != []
    # the reduced pass, which fails, then every pair
    assert computed == [p for p in g.pairs if p[0] in set(generating_arrows(g))] + list(g.pairs)


def test_earlier_map_failure_computes_every_pair(monkeypatch):
    f = TWISTED["pair3"]
    shift = Matrix.identity(f.obj_maps[1].rows).scale(2)
    bad = replace(f, obj_maps=tuple(m + shift if x == 1 else m for x, m in enumerate(f.obj_maps)))
    computed = _computed(monkeypatch, 2, "check_vbmap")
    assert "source-compat" in {x.check for x in check_vbmap.__wrapped__(bad).violations}
    assert computed == list(PAIR3.pairs)


def test_map_over_an_invalid_source_computes_every_pair(monkeypatch):
    # the identity of a non-associative VB-groupoid passes every VB-map law, but the reduced
    # pass is not proven over it
    bad = _associativity_mutant(CORED["pair3"], 0)
    assert not check_vbgroupoid(bad).ok
    computed = _computed(monkeypatch, 2, "check_vbmap")
    assert check_vbmap.__wrapped__(identity_vbmap(bad)).ok
    assert computed == list(PAIR3.pairs)


def test_descend_pipeline_makes_no_extra_raw_object_check(monkeypatch):
    # one raw run where the object is built and two inside the pipeline: the gate of every
    # check_vbmap call finds both ends already checked
    runs = []
    call_memo = vb._call_memo
    monkeypatch.setattr(vb, "_call_memo", lambda v: runs.append(sys._getframe(1).f_code.co_name) or call_memo(v))
    v = _z2_k4(6)
    descend_pipeline(v, make_descent_problem(Z2, [[0]] * 4))
    assert runs.count("check_vbgroupoid") == 3


# -- Fib bases of 3 or more arrows glued from a pair and a suffix ---------------------------


@st.composite
def _generated(draw) -> VBGroupoid:
    """A generated VB-groupoid, moved along random invertible maps on every Gamma_g or not:
    gauge (the Grothendieck construction of a gauge-randomized seed ruth), cech-pullback (the
    source of a descent fixture's twisted map, a pullback to a Cech groupoid), or twisted (the
    target of a twisted map whose target has a core)."""
    kind, seed = draw(st.sampled_from(("gauge", "cech-pullback", "twisted"))), draw(st.integers(0, 30))
    if kind == "gauge":
        name = draw(st.sampled_from(sorted(base_groupoids())))
        ruths = seed_ruths(name, base_groupoids()[name])
        v = grothendieck(random_gauge(ruths[seed % len(ruths)], random.Random(seed))[0])
    else:
        fx = make_map_descent_fixture(seed, draw(st.sampled_from(("pt", "z2", "pair2"))), with_core=kind == "twisted")
        v = fx.psi.source if kind == "cech-pullback" else fx.psi.target
    return _moved(v) if draw(st.booleans()) else v


def _slots(v: VBGroupoid, arrows: tuple[int, ...]) -> tuple[Matrix, ...]:
    return tuple(v.slots(arrows, v.fib_string_basis(arrows)))


@settings(max_examples=15, deadline=None)
@given(_generated())
def test_glued_fib_bases_equal_the_kernels(v):
    # s is surjective on every arrow, so every string glues, through the memo as well
    _, fib = vb._call_memo(v)
    for length in (3, 4):
        for x in composable_strings(v.base, length)[-1]:
            full = _slots(v, x)
            assert linalg.fibered_product(_slots(v, x[:2]), _slots(v, x[1:])) == full
            assert fib(x) == full


def _zero_source(base: FiniteGroupoid) -> VBGroupoid:
    """Like ``_bare_bundle``, s is not surjective, but every fiber has dimension 1 (the zero fibers
    of ``_bare_bundle`` glue trivially): s = 0 and t = 1, so the column of t_h is a pivot of
    [s_g | -t_h] and no Fib basis glues."""
    n, m = base.n_objects, base.n_arrows
    return VBGroupoid(
        base=base,
        e_dims=(1,) * n,
        gamma_dims=(1,) * m,
        s_maps=(Matrix.zeros(1, 1),) * m,
        t_maps=(Matrix.identity(1),) * m,
        u_maps=(Matrix.identity(1),) * n,
        m_maps={p: Matrix.from_rows([[1, 1]]) for p in base.pairs},
    )


def test_fib_basis_that_does_not_glue_is_the_kernel(monkeypatch):
    v = _zero_source(PAIR3)
    triples = composable_strings(PAIR3, 3)[-1]
    assert all(linalg.fibered_product(_slots(v, x[:2]), _slots(v, x[1:])) is None for x in triples)
    expected = [_slots(v, x) for x in triples]
    kernels = []
    fib_string_basis = VBGroupoid.fib_string_basis
    monkeypatch.setattr(VBGroupoid, "fib_string_basis", lambda self, x: kernels.append(x) or fib_string_basis(self, x))
    _, fib = vb._call_memo(v)
    assert [fib(x) for x in triples] == expected
    # every string shares its s and t maps, so one key per length: the pair's kernel, then the triple's
    assert [len(x) for x in kernels] == [2, 3]
    assert _entries(raw_check(v)) == _entries(reference_check(v))
