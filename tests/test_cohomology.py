"""Complexes and cohomology: oracles, sign conventions, comparison theorems."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from vbgroupoids import cohomology
from vbgroupoids.cohomology import (
    RUTH_DIFFERENTIAL_SIGNS,
    _displayed_cancellation,
    _zero_last_two_term,
    assemble_ruth_differential,
    cancellation_operator,
    homotopy_operator,
    hvb_equals_hlin,
    induced_map_vb,
    lin_complex,
    pullback_lin,
    ruth_complex,
    ruth_vs_dual_vb,
    vb_subcomplex,
)
from vbgroupoids.generators import acyclic_ruth, named_reps, random_gauge, random_matrix
from vbgroupoids.groupoid import arrow_groupoid, cech_groupoid, cyclic_groupoid, nerve, pair_groupoid, point_groupoid
from vbgroupoids.linalg import CochainComplex, Matrix, betti_numbers, chain_map_is_quasi_iso, complex_cohomology
from vbgroupoids.report import InvalidStructureError
from vbgroupoids.ruth import TwoTermRuth, check_ruth, direct_sum, make_ruth, zero_ruth
from vbgroupoids.vb import (
    Cleavage,
    VBGroupoid,
    acyclic_vb,
    base_change,
    choose_cleavage,
    core,
    dual_vb,
    fib_key,
    grothendieck,
    identity_vbmap,
    is_vb_morita,
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
def trivial(z2):
    return make_ruth(z2, (1,), (0,))


def _brute_force_rep_betti(rep, p_max):
    """Independent oracle: assemble the coboundaries by direct enumeration."""
    g = rep.base
    nv = nerve(g, p_max)
    dims = []
    for q in range(p_max + 1):
        dims.append(sum(rep.e_dims[s if q == 0 else g.tgt[s[0]]] for s in nv.strings[q]))
    # basis bookkeeping
    def offset(q, si):
        off = 0
        for k in range(si):
            s = nv.strings[q][k]
            off += rep.e_dims[s if q == 0 else g.tgt[s[0]]]
        return off

    mats = []
    for q in range(p_max):
        rows = [[F(0)] * dims[q] for _ in range(dims[q + 1])]
        for si, s in enumerate(nv.strings[q + 1]):
            r0 = offset(q + 1, si)
            # face 0 with the action
            t0 = nv.face(q + 1, 0)[si]
            rho = rep.rho_e[s[0]]
            for i in range(rho.rows):
                for j in range(rho.cols):
                    rows[r0 + i][offset(q, t0) + j] += rho.data[i][j]
            for i in range(1, q + 2):
                ti = nv.face(q + 1, i)[si]
                d = rep.e_dims[nv.strings[q][ti] if q == 0 else g.tgt[nv.strings[q][ti][0]]]
                for k in range(d):
                    rows[r0 + k][offset(q, ti) + k] += F(1) if i % 2 == 0 else F(-1)
        mats.append(Matrix.from_rows(rows, cols=dims[q]))
    betti = {}
    for q in range(p_max + 1):
        dq = mats[q] if q < p_max else Matrix.zeros(0, dims[q])
        dprev = mats[q - 1] if q >= 1 else Matrix.zeros(dims[q], 0)
        betti[q] = (dims[q] - dq.rank()) - dprev.rank()
    return betti


def differentiable_complex(rep: TwoTermRuth, p_max: int) -> CochainComplex:
    """The complex C(G, E) of an honest representation (C = 0, gamma = 0): the quasi-action
    differential alone, an independent reference for ``ruth_complex`` in degrees >= 0."""
    check_ruth(rep).require("differentiable_complex: invalid input")
    if any(d != 0 for d in rep.c_dims):
        raise ValueError("differentiable_complex: input must have trivial core (C = 0)")
    if any(not m.is_zero for m in rep.gamma.values()):
        raise ValueError("differentiable_complex: input must have zero curvature")
    nv = nerve(rep.base, p_max)
    g = rep.base
    # the value at (g_1, ..., g_q) lies in the fiber over tgt(g_1)
    sizes = [[rep.e_dims[s if q == 0 else g.tgt[s[0]]] for s in level] for q, level in enumerate(nv.strings)]
    bc = cohomology._Layout(nv, sizes)
    diffs = tuple(cohomology._quasi_action_differential(bc, rep.rho_e, q) for q in range(p_max))
    out = CochainComplex(0, p_max, tuple(bc.dim(q) for q in range(p_max + 1)), diffs)
    cohomology._require_d_squared_zero(out, "differentiable_complex: D^2 != 0", bc.string_at)
    return out


def test_differentiable_point():
    # degrees up to p_max - 1 are trustworthy on a truncated complex
    pt = point_groupoid()
    c = differentiable_complex(make_ruth(pt, (1,), (0,)), 3)
    b = betti_numbers(c)
    assert (b[0], b[1], b[2]) == (1, 0, 0)


def test_differentiable_z2_against_oracle(z2, sign, trivial):
    for rep, expected_h0 in ((trivial, 1), (sign, 0)):
        c = differentiable_complex(rep, 3)
        b = betti_numbers(c)
        oracle = _brute_force_rep_betti(rep, 3)
        for p in range(3):
            assert b[p] == oracle[p]
        assert b[0] == expected_h0
        assert b[1] == 0 and b[2] == 0


def test_differentiable_rejects_curved_input(z2):
    r = make_ruth(z2, (1,), (1,), anchor={0: Matrix.identity(1)})
    with pytest.raises(ValueError, match="trivial core"):
        differentiable_complex(r, 2)


def test_ruth_complex_degenerates_to_differentiable(z2, sign):
    rc = ruth_complex(sign, 3)
    c = differentiable_complex(sign, 3)
    for p in range(0, 3):
        assert rc.dim(p) == c.dim(p)
        assert rc.differential(p) == c.differential(p)
    assert rc.dim(-1) == 0


def test_ruth_sign_search(z2):
    """Exactly two sign assignments give a square-zero differential; ours is frozen."""
    base = make_ruth(
        z2,
        (1,),
        (1,),
        anchor={0: Matrix.identity(1)},
        rho_e={1: Matrix.from_rows([[-1]])},
        rho_c={1: Matrix.from_rows([[-1]])},
    )
    rng = random.Random(2)
    curved, _ = random_gauge(base, rng)
    assert not curved.gamma[(1, 1)].is_zero
    survivors = []
    for s2 in (1, -1):
        for s3 in (1, -1):
            for s4 in (1, -1):
                try:
                    assemble_ruth_differential(curved, 2, (1, s2, s3, s4))
                    survivors.append((1, s2, s3, s4))
                except InvalidStructureError:
                    pass
    assert RUTH_DIFFERENTIAL_SIGNS in survivors
    assert survivors == [(1, 1, -1, 1), (1, -1, -1, -1)]


def test_acyclic_ruth_cohomology_vanishes(z2):
    rep = named_reps("z2", z2)[0]
    rc = ruth_complex(acyclic_ruth(rep), 3)
    b = betti_numbers(rc)
    assert all(b[p] == 0 for p in range(-1, 3))


def test_gauge_invariance_of_ruth_betti(z2):
    rng = random.Random(4)
    base = direct_sum(named_reps("z2", z2)[1], acyclic_ruth(named_reps("z2", z2)[0]))
    gauged, _ = random_gauge(base, rng)
    b1 = betti_numbers(ruth_complex(base, 3))
    b2 = betti_numbers(ruth_complex(gauged, 3))
    for p in range(-1, 3):
        assert b1[p] == b2[p]


def test_lin_complex_zero_vb(z2):
    lc = lin_complex(zero_vb(z2), 3)
    assert all(lc.dim(p) == 0 for p in range(4))


def test_lin_complex_acyclic_point_degree0():
    pt = point_groupoid()
    lc = lin_complex(acyclic_vb(pt, (1,)), 3)
    assert lc.dim(0) == 1
    assert lc.dim(1) == 2  # Fib over the unit arrow is the whole 2-dim fiber


def test_lin_complex_degree1_is_total_fiber_sum(z2, sign):
    # over each arrow the one-string fibered product is the full fiber
    v = grothendieck(sign)
    lc = lin_complex(v, 2)
    assert lc.dim(1) == sum(v.gamma_dims)


def test_vb_subcomplex_action_groupoid_matches_rep_complex(z2, sign, trivial):
    # projectable cochains of an action groupoid = the representation complex
    for rep in (sign, trivial):
        v = grothendieck(rep)
        sub = vb_subcomplex(lin_complex(v, 3))
        c = differentiable_complex(rep, 3)
        for p in range(3):
            assert sub.bases[p].cols == c.dim(p)


def test_vb_subcomplex_zero(z2):
    sub = vb_subcomplex(lin_complex(zero_vb(z2), 3))
    assert all(b.cols == 0 for b in sub.bases[1:])


def test_hvb_equals_hlin_fixtures(z2, sign):
    fixtures = [
        zero_vb(z2),
        grothendieck(sign),
        acyclic_vb(point_groupoid(), (1,)),
        acyclic_vb(z2, (1,)),
    ]
    for v in fixtures:
        rep = hvb_equals_hlin(v, 3)
        assert rep.ok, rep
    rep = hvb_equals_hlin(acyclic_vb(point_groupoid(), (1,)), 3)
    assert rep.h_vb == (0, 0, 0)


def test_hvb_dimensions_independent_of_cleavage(z2):
    rng = random.Random(6)
    base = direct_sum(named_reps("z2", z2)[1], acyclic_ruth(named_reps("z2", z2)[0]))
    gauged, _ = random_gauge(base, rng)
    v = grothendieck(gauged)
    c1 = choose_cleavage(v)
    cd = core(v)
    sigma = list(c1.sigma)
    m1, _ = v.mult_blocks(z2.unit[0], 1)
    sigma[1] = sigma[1] + (m1 * cd.basis[0]) * random_matrix(rng, cd.dims[0], v.e_dims[0])
    c2 = Cleavage(tuple(sigma))
    r1 = hvb_equals_hlin(v, 3, cleavage=c1)
    r2 = hvb_equals_hlin(v, 3, cleavage=c2)
    assert r1.ok and r2.ok
    assert r1.h_vb == r2.h_vb and r1.h_lin == r2.h_lin


def test_induced_map_identity(z2, sign):
    rep = induced_map_vb(identity_vbmap(grothendieck(sign)), 3)
    assert rep.chain_map_ok and rep.preserves_projectable and rep.is_isomorphism


def test_induced_map_cech_base_change(z2, sign):
    v = grothendieck(sign)
    cech = cech_groupoid(z2, [[0], [0]])
    _, canon = base_change(cech.pi, v)
    assert is_vb_morita(canon).ok
    rep = induced_map_vb(canon, 3)
    assert rep.is_isomorphism


@pytest.mark.parametrize("side", ["sigma", "tau"])
def test_induced_map_arrow_groupoid_projections(z2, side):
    # sigma and tau of the arrow groupoid are Morita, so pulling back along them is VB-Morita
    base = make_ruth(
        z2,
        (1,),
        (1,),
        anchor={0: Matrix.identity(1)},
        rho_e={1: Matrix.from_rows([[-1]])},
        rho_c={1: Matrix.from_rows([[-1]])},
    )
    gauged, _ = random_gauge(base, random.Random(42))
    _, canon = base_change(getattr(arrow_groupoid(z2), side), grothendieck(gauged))
    assert is_vb_morita(canon).ok
    rep = induced_map_vb(canon, 3)
    assert rep.is_isomorphism


def test_induced_map_negative(z2, trivial):
    # the trivial representation has nonvanishing H_VB in degree 1
    v = grothendieck(trivial)
    rep = induced_map_vb(zero_projection(v), 3)
    assert rep.chain_map_ok and rep.preserves_projectable
    assert not rep.is_isomorphism
    assert rep.h_vb_source != rep.h_vb_target


def test_shift_isomorphism_examples(z2, sign, trivial):
    pt = point_groupoid()
    for r in (zero_ruth(z2), make_ruth(pt, (1,), (0,)), sign, trivial):
        rep = ruth_vs_dual_vb(r, 3)
        assert rep.ok, (r.e_dims, rep)
    rep = ruth_vs_dual_vb(acyclic_ruth(trivial), 3)
    assert rep.ok
    assert rep.ruth_dims == (0, 0, 0)


def test_shift_report_reuses_given_ruth_betti(z2, sign, monkeypatch):
    betti = betti_numbers(ruth_complex(sign, 3))
    expected = ruth_vs_dual_vb(sign, 3)
    monkeypatch.setattr(cohomology, "ruth_complex", lambda r, p_max: pytest.fail("ruth complex built again"))
    assert ruth_vs_dual_vb(sign, 3, betti) == expected


def test_truncated_complexes_report_cohomology_below_p_max(trivial):
    # ruth, linear and VB complexes are cut off at p_max, so their tables and certificates stop
    # one degree short of it; the same complexes untruncated keep every degree
    lin = lin_complex(grothendieck(trivial), 3)
    sub = vb_subcomplex(lin)
    for cx in (ruth_complex(trivial, 3), lin.complex, sub.complex):
        below = list(range(cx.p_min, 3))
        assert cx.truncated and list(betti_numbers(cx)) == list(complex_cohomology(cx)) == below
        whole = replace(cx, truncated=False)
        assert list(betti_numbers(whole)) == list(complex_cohomology(whole)) == below + [3]
    inclusion = dict(enumerate(sub.bases))
    assert list(chain_map_is_quasi_iso(sub.complex, lin.complex, inclusion).degrees) == [0, 1, 2]
    untruncated = [replace(cx, truncated=False) for cx in (sub.complex, lin.complex)]
    assert list(chain_map_is_quasi_iso(*untruncated, inclusion).degrees) == [0, 1, 2, 3]


# -- rank-only Betti numbers, check-once, and the witnesses of failed constructions -------


@pytest.fixture
def curved(z2):
    """A gauge-randomized ruth with anchor, quasi-actions and curvature all nonzero."""
    base = make_ruth(
        z2,
        (1,),
        (1,),
        anchor={0: Matrix.identity(1)},
        rho_e={1: Matrix.from_rows([[-1]])},
        rho_c={1: Matrix.from_rows([[-1]])},
    )
    r, _ = random_gauge(base, random.Random(2))
    assert not r.gamma[(1, 1)].is_zero
    return r


def test_betti_from_ranks_matches_cohomology_on_fixtures(z2, sign, trivial, curved):
    lin = lin_complex(grothendieck(curved), 3)
    complexes = [
        differentiable_complex(sign, 3),
        ruth_complex(sign, 3),
        ruth_complex(trivial, 3),
        ruth_complex(curved, 3),
        ruth_complex(acyclic_ruth(trivial), 3),
        lin.complex,
        vb_subcomplex(lin).complex,
        lin_complex(grothendieck(trivial), 3).complex,
        vb_subcomplex(lin_complex(acyclic_vb(z2, (1,)), 3)).complex,
    ]
    for c in complexes:
        assert betti_numbers(c) == {p: h.dim for p, h in complex_cohomology(c).items()}


def test_constructed_complex_runs_d_squared_once(monkeypatch, curved):
    products = []
    real = Matrix.__mul__

    def counting(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    c = ruth_complex(curved, 3)
    betti_numbers(c)
    complex_cohomology(c)
    betti_numbers(c)
    counts = [sum(a is d1 and b is d0 for a, b in products) for d0, d1 in zip(c.diffs, c.diffs[1:])]
    assert counts == [1] * (len(c.diffs) - 1)


def _fail_call(monkeypatch, owner, name: str, n: int, wrong):
    """Make the ``n``-th call (from 0) of ``owner.<name>`` return ``wrong(real, *args)``."""
    real = getattr(owner, name)
    calls = []

    def patched(*args):
        calls.append(args)
        return wrong(real, *args) if len(calls) == n + 1 else real(*args)

    monkeypatch.setattr(owner, name, patched)


def _bump(real, *args):
    """The real result with 1 added to its (0, 0) entry."""
    m = real(*args)
    return m + Matrix.block([1, m.rows - 1], [1, m.cols - 1], {(0, 0): Matrix.identity(1)})


def test_differentiable_complex_d_squared_witness(monkeypatch, sign):
    _fail_call(monkeypatch, cohomology, "_quasi_action_differential", 0, _bump)
    with pytest.raises(InvalidStructureError, match="differentiable_complex: D\\^2 != 0 at degree 0") as exc:
        differentiable_complex(sign, 3)
    [violation] = exc.value.report.violations
    assert (violation.check, violation.witness) == ("d-squared", (0, (0, 0), (0, 0)))
    assert violation.detail == "(degree p, string of the row in degree p + 2, nonzero entry (row, col) of d^{p+1} d^p)"


def test_ruth_complex_d_squared_witness(monkeypatch, curved):
    # call 2 is rho_c on C^1(G, C), a block of d^0
    _fail_call(monkeypatch, cohomology, "_quasi_action_differential", 2, _bump)
    with pytest.raises(InvalidStructureError, match="ruth differential for signs") as exc:
        ruth_complex(curved, 3)
    assert "(1, 1, -1, 1): D^2 != 0 at degree 0" in exc.value.context
    [violation] = exc.value.report.violations
    assert violation.check == "d-squared"
    # degree 2 starts with the E-values on 2-strings; column 1 of degree 0 is the C-value on (0,)
    assert violation.witness == (0, ("E", (0, 0)), (0, 1))


def _double_first_slot(real, v, s, i, fib):
    """The real face image with its first slot doubled, which breaks s(w_1) = t(w_2)."""
    img = real(v, s, i, fib)
    k = v.gamma_dims[s[1] if i == 0 else s[0]]
    return Matrix.vstack([img.take_rows(range(k)).scale(2), img.take_rows(range(k, img.rows))])


def test_lin_complex_d_squared_witness(monkeypatch, curved):
    # faces from degree 2 land in 1-strings, where Fib is the whole fiber: only D^2 notices
    _fail_call(monkeypatch, cohomology, "_face_image", 0, _double_first_slot)
    with pytest.raises(InvalidStructureError, match="lin_complex: delta\\^2 != 0 at degree 0") as exc:
        lin_complex(grothendieck(curved), 3)
    [violation] = exc.value.report.violations
    assert (violation.check, violation.witness) == ("d-squared", (0, (0, 0), (1, 0)))


def _fail_faces(monkeypatch, bad) -> list:
    """Make ``_face_image`` return ``_double_first_slot`` on every (string, face) that ``bad``
    accepts; return the list of (string, face) pairs it is called on."""
    real = cohomology._face_image
    calls = []

    def patched(v, s, i, fib):
        calls.append((s, i))
        return _double_first_slot(real, v, s, i, fib) if bad(s, i) else real(v, s, i, fib)

    monkeypatch.setattr(cohomology, "_face_image", patched)
    return calls


def test_lin_complex_face_leaves_fib_witness(monkeypatch, curved):
    # the first face image from degree 3
    _fail_faces(monkeypatch, lambda s, i: (s, i) == ((0, 0, 0), 0))
    with pytest.raises(InvalidStructureError, match="lin_complex: face image leaves Fib at degree 3") as exc:
        lin_complex(grothendieck(curved), 3)
    [violation] = exc.value.report.violations
    assert (violation.check, violation.witness, violation.detail) == (
        "face-in-fib",
        (3, (0, 0, 0), 0),
        "(degree, string, face)",
    )


def test_lin_complex_shared_outer_face_fault_is_reported_at_first_string(monkeypatch, curved):
    v = grothendieck(curved)
    # one s-map value: Fib(g1, g2, g3) depends on (g2, g3) alone, so (0, 1, 1) and (1, 1, 1) share
    # their outer faces, and a fault there is met at the first of them in loop order
    assert fib_key(v, (0, 1, 1)) == fib_key(v, (1, 1, 1))
    _fail_faces(monkeypatch, lambda s, i: i == 0 and s[1:] == (1, 1))
    with pytest.raises(InvalidStructureError, match="lin_complex: face image leaves Fib at degree 3") as exc:
        lin_complex(v, 3)
    [violation] = exc.value.report.violations
    assert (violation.check, violation.witness) == ("face-in-fib", (3, (0, 1, 1), 0))


def _unshared_lin_diffs(v, p_max: int) -> list[Matrix]:
    """The differentials of ``lin_complex`` with one Fib basis and one face per string."""
    nv = nerve(v.base, p_max)
    bases = [[Matrix.identity(v.e_dims[x]) for x in nv.strings[0]]]
    bases += [[v.fib_string_basis(s) for s in nv.strings[p]] for p in range(1, p_max + 1)]
    diffs = []
    for p in range(p_max):
        blocks = []
        for si, s in enumerate(nv.strings[p + 1]):
            fib = bases[p + 1][si]
            for i in range(p + 2):
                t_idx = nv.face(p + 1, i)[si]
                if p == 0:
                    coords = (v.s_maps[s[0]] if i == 0 else v.t_maps[s[0]]) * fib
                else:
                    coords = bases[p][t_idx].solve_matrix(cohomology._face_image(v, s, i, fib))
                blocks.append(((si, t_idx), coords.transpose().scale((-1) ** i)))
        diffs.append(Matrix.block([b.cols for b in bases[p + 1]], [b.cols for b in bases[p]], blocks))
    return diffs


def test_lin_complex_equals_unshared_construction(sign, curved):
    pair2 = pair_groupoid(2)
    objects = [
        grothendieck(curved),
        dual_vb(grothendieck(curved)),
        grothendieck(direct_sum(sign, acyclic_ruth(sign))),
        acyclic_vb(pair2, (1, 2)),
        grothendieck(random_gauge(acyclic_ruth(named_reps("pair2", pair2)[0]), random.Random(5))[0]),
    ]
    for v in objects:
        assert list(lin_complex(v, 3).complex.diffs) == _unshared_lin_diffs(v, 3)


def test_lin_complex_computes_outer_faces_once_per_key(monkeypatch, curved):
    v = grothendieck(curved)
    calls = _fail_faces(monkeypatch, lambda s, i: False)
    lin_complex(v, 3)
    # each degree-3 key is shared by the strings (0, g2, g3) and (1, g2, g3): the second reads
    # its first and last face from the first, and computes only the inner faces
    for s in nerve(v.base, 3).strings[3]:
        assert sorted(i for t, i in calls if t == s) == ([0, 1, 2, 3] if s[0] == 0 else [1, 2])


def test_vb_subcomplex_closure_witness(monkeypatch, curved):
    lin = lin_complex(grothendieck(curved), 3)
    # no projectability conditions in degree 1: its coboundaries leave the degree-2 subspace
    _fail_call(
        monkeypatch, cohomology, "_projectable_conditions", 0, lambda real, lin, p, level: Matrix.zeros(0, lin.dim(p))
    )
    with pytest.raises(InvalidStructureError, match="vb_subcomplex: delta does not preserve") as exc:
        vb_subcomplex(lin)
    [violation] = exc.value.report.violations
    assert (violation.check, violation.witness) == ("subcomplex-closed", (1, 0, (2, (0, 1))))


def test_homotopy_operator_witness(monkeypatch, curved):
    # the degree-1 raise ("lift not in Fib") cannot be forced: Fib of a 1-string is the whole fiber
    v = grothendieck(curved)
    lin = lin_complex(v, 3)

    def doubled_lift(real, lin, c, s, fib):
        ext_string, ext = real(lin, c, s, fib)
        return ext_string, Matrix.vstack([fib, ext.take_rows(range(fib.rows, ext.rows)).scale(2)])

    _fail_call(monkeypatch, cohomology, "_append_lift_matrix", 1, doubled_lift)
    with pytest.raises(InvalidStructureError, match="homotopy_operator: extended tuple not in Fib") as exc:
        homotopy_operator(lin, choose_cleavage(v), 2)
    [violation] = exc.value.report.violations
    assert (violation.check, violation.witness) == ("lift-in-fib", (2, (1,), (1, 1)))


def test_displayed_cancellation_witness(monkeypatch, curved):
    v = grothendieck(curved)
    lin = lin_complex(v, 3)
    c = choose_cleavage(v)
    _fail_call(monkeypatch, VBGroupoid, "inverse_matrix", 0, lambda real, v, g: real(v, g).scale(2))
    with pytest.raises(InvalidStructureError, match="displayed cancellation: tuple not in Fib") as exc:
        _displayed_cancellation(lin, c, 2)
    [violation] = exc.value.report.violations
    assert (violation.check, violation.witness) == ("term-in-fib", (2, (0, 0), (0, 0)))


def test_zero_last_witness(monkeypatch, curved):
    v = grothendieck(curved)
    lin = lin_complex(v, 3)

    def all_of_fib(real, v, s, fib, zeros):
        return Matrix.identity(fib.cols)

    c = choose_cleavage(v)
    cancellation = cancellation_operator(lin, 2, homotopy_operator(lin, c, 2), homotopy_operator(lin, c, 3))
    # all of Fib instead of the vectors with a zero last slot, for the second 2-string
    _fail_call(monkeypatch, cohomology, "_zero_last_vectors", 1, all_of_fib)
    with pytest.raises(InvalidStructureError, match="zero-last evaluation: tuple not in Fib") as exc:
        _zero_last_two_term(lin, 2, cancellation)
    [violation] = exc.value.report.violations
    assert (violation.check, violation.witness) == ("zero-last-in-fib", (2, (0, 1), (1, 1)))


def test_hvb_equals_hlin_builds_each_operator_once(monkeypatch, curved):
    calls = []
    h, cancel = cohomology.homotopy_operator, cohomology.cancellation_operator
    monkeypatch.setattr(cohomology, "homotopy_operator", lambda lin, c, p: calls.append(("h", p)) or h(lin, c, p))
    monkeypatch.setattr(
        cohomology, "cancellation_operator", lambda lin, p, *hs: calls.append(("I", p)) or cancel(lin, p, *hs)
    )
    assert hvb_equals_hlin(grothendieck(curved), 4).ok
    # h_3 and h_2 for I_2, then h_4 for I_3; the zero-last check reads I_2 and I_3 again
    assert calls == [("h", 3), ("h", 2), ("I", 2), ("h", 4), ("I", 3)]


def _verdicts(rep) -> tuple[bool, ...]:
    return (rep.inclusion_iso, rep.homotopy_identity, rep.zero_last_identity, rep.filtration_quasi_iso, rep.ok)


def test_hvb_equals_hlin_reports_a_broken_displayed_cancellation(monkeypatch, curved):
    # I_2 is checked against the displayed expression with one entry off
    _fail_call(monkeypatch, cohomology, "_displayed_cancellation", 0, _bump)
    assert _verdicts(hvb_equals_hlin(grothendieck(curved), 4)) == (True, False, True, True, False)


def test_hvb_equals_hlin_reports_a_broken_zero_last_identity(monkeypatch, curved):
    def rhs_off(real, lin, p, cancellation):
        lhs, rhs = real(lin, p, cancellation)
        return lhs, _bump(lambda: rhs)

    _fail_call(monkeypatch, cohomology, "_zero_last_two_term", 1, rhs_off)
    assert _verdicts(hvb_equals_hlin(grothendieck(curved), 4)) == (True, True, False, True, False)


def _rank_zero_in_degree_0(cert):
    # a certificate's ok agrees with its degrees, so a faked degree fails it too
    return replace(cert, ok=False, degrees={**cert.degrees, 0: (1, 1, 0)})


# call 0 of _filtration_bases, _subcomplex_from_bases and chain_map_is_quasi_iso builds F_1 (the
# VB-subcomplex) or its inclusion into the linear complex; call 1 is filtration level 2
FILTRATION_FAULTS = {
    "level-not-closed": ("_subcomplex_from_bases", 1, lambda real, lin, bases: (None, 0)),
    "inclusion-not-solvable": (
        "_filtration_bases",
        1,
        lambda real, lin, level: [Matrix.zeros(lin.dim(p), 0) for p in range(lin.p_max + 1)],
    ),
    "inclusion-not-quasi-iso": ("chain_map_is_quasi_iso", 1, lambda real, *args: _rank_zero_in_degree_0(real(*args))),
    # F_3 replaced by F_2, which is closed and includes into itself, but is not all of degree 2
    "top-level-short": ("_filtration_bases", 2, lambda real, lin, level: real(lin, 2)),
}


@pytest.mark.parametrize("fault", sorted(FILTRATION_FAULTS))
def test_hvb_equals_hlin_reports_a_broken_filtration(monkeypatch, curved, fault):
    name, n, wrong = FILTRATION_FAULTS[fault]
    _fail_call(monkeypatch, cohomology, name, n, wrong)
    assert _verdicts(hvb_equals_hlin(grothendieck(curved), 3)) == (True, True, True, False, False)


def test_pullback_lin_witness(curved):
    v = grothendieck(curved)
    lin = lin_complex(v, 2)
    f = identity_vbmap(v)
    # doubling one arrow's map breaks s(f w_1) = t(f w_2) on strings that pair it with another
    bad = replace(f, arr_maps=tuple(m.scale(2) if a == 1 else m for a, m in enumerate(f.arr_maps)))
    with pytest.raises(InvalidStructureError, match="pullback_lin: image tuple not in Fib") as exc:
        pullback_lin(bad, lin, lin)
    [violation] = exc.value.report.violations
    assert (violation.check, violation.witness) == ("pullback-in-fib", (2, (0, 1), (0, 1)))
