"""CLI output bytes and constructed objects against golden files.

The first eight files under ``tests/golden/`` were written by the dense, per-column
elimination kernel; the ``groth``/``dual`` outputs and the ``api-*`` files were written
by the hand-padded block builders that ``Matrix.block(rows, cols, blocks)`` replaced;
``cohomology-ruth-gauge-pair2-3.jsonl`` was written while Betti numbers still came from
kernels and cohomology representatives rather than from ranks;
``cohomology-vb-gauge-pair2-3.jsonl`` was written while every ``solve_matrix`` still
eliminated, before it read solutions off bases that contain the identity.
Verdicts, Betti tables, the canonical bases inside written instance files and every
constructed structure matrix must come out byte-identical from any later code.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from vbgroupoids import io as vio
from vbgroupoids.cli import main
from vbgroupoids.generators import random_gauge, random_matrix
from vbgroupoids.ruth import sum_projection
from vbgroupoids.vb import (
    acyclic_vb,
    arrow_vb,
    choose_cleavage,
    cleavage_to_vbmap,
    core,
    direct_sum_vb,
    grothendieck,
    grothendieck_map,
    identity_vbmap,
    quasi_inverse,
    stable_decompose,
    sum_projection_vb,
    twist,
)

GOLDEN = Path(__file__).parent / "golden"

# (golden file, vbg arguments; "{d}" is the directory holding the generated instances)
STDOUT_CASES = [
    ("cohomology-ruth-gauge-z3-4.jsonl", "cohomology {d}/gen-gauge-z3-4.json gauged0 --pmax 3"),
    ("cohomology-ruth-gauge-pair2-3.jsonl", "cohomology {d}/gen-gauge-pair2-3.json gauged0 --pmax 3"),
    ("cohomology-vb-gauge-z3-4.jsonl", "cohomology {d}/groth-gauged0.json gauged0.groth --pmax 2"),
    ("cohomology-vb-gauge-pair2-3.jsonl", "cohomology {d}/pair2/groth-gauged0.json gauged0.groth --pmax 3"),
    ("cohomology-vb-sum-z2-0.jsonl", "cohomology {d}/groth-sum0.json sum0.groth --pmax 3"),
    ("cohomology-map-cech-pullback-z2-0.jsonl", "cohomology {d}/gen-cech-pullback-z2-0.json psi --pmax 2"),
    # p_max = 1, the smallest trusted range: degree 0 alone (degrees -1 .. 0 for the ruth)
    ("cohomology-ruth-gauge-pair2-3-pmax1.jsonl", "cohomology {d}/gen-gauge-pair2-3.json gauged0 --pmax 1"),
    ("cohomology-vb-gauge-pair2-3-pmax1.jsonl", "cohomology {d}/pair2/groth-gauged0.json gauged0.groth --pmax 1"),
    ("cohomology-map-cech-pullback-z2-0-pmax1.jsonl", "cohomology {d}/gen-cech-pullback-z2-0.json psi --pmax 1"),
    ("morita-cech-pullback-z2-0.jsonl", "morita {d}/gen-cech-pullback-z2-0.json psi"),
    (
        "descend-map-cech-pullback-core-z2-0.jsonl",
        "descend {d}/gen-cech-pullback-core-z2-0.json --cover cover --map psi --gamma gamma --gamma-prime gamma_prime",
    ),
]

# (golden file, vbg arguments that write it into "{o}")
WRITTEN_CASES = [
    ("split-gauged0.groth.json", "split {d}/groth-gauged0.json gauged0.groth --out {o}"),
    (
        "descend-psi.json",
        "descend {d}/gen-cech-pullback-z2-0.json --cover cover --map psi --gamma gamma"
        " --gamma-prime gamma_prime --out {o}",
    ),
    ("descend-object.json", "descend {d}/gen-perturbed-pullback-pt-2.json --cover cover --object object --out {o}"),
    ("groth-gauged0.json", "groth {d}/gen-gauge-z3-4.json gauged0 --out {o}"),
    ("dual-gauged0.json", "dual {d}/gen-gauge-z3-4.json gauged0 --out {o}"),
    ("dual-gauged0.groth.json", "dual {d}/groth-gauged0.json gauged0.groth --out {o}"),
]

SETUP = [
    "gen --recipe gauge:z3 --seed 4 --out {d}",
    "gen --recipe sum:z2 --seed 0 --out {d}",
    "gen --recipe cech-pullback:z2 --seed 0 --out {d}",
    "gen --recipe cech-pullback-core:z2 --seed 0 --out {d}",
    "gen --recipe perturbed-pullback:pt --seed 2 --out {d}",
    "gen --recipe gauge:z2 --seed 4 --out {d}",
    "gen --recipe gauge:pair2 --seed 3 --out {d}",
    "groth {d}/gen-gauge-z3-4.json gauged0 --out {d}",
    "groth {d}/gen-sum-z2-0.json sum0 --out {d}",
    # its own directory: groth names its output after the ruth, like the z3 one above
    "groth {d}/gen-gauge-pair2-3.json gauged0 --out {d}/pair2",
]


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    d = tmp_path_factory.mktemp("instances")
    for cmd in SETUP:
        assert main(cmd.format(d=d).split()) == 0
    return d


@pytest.mark.parametrize("golden,cmd", STDOUT_CASES, ids=[c[0] for c in STDOUT_CASES])
def test_stdout_matches_golden(golden, cmd, instances, capsys):
    capsys.readouterr()
    assert main(cmd.format(d=instances).split()) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden,cmd", WRITTEN_CASES, ids=[c[0] for c in WRITTEN_CASES])
def test_written_file_matches_golden(golden, cmd, instances, tmp_path):
    assert main(cmd.format(d=instances, o=tmp_path).split()) == 0
    assert (tmp_path / golden).read_bytes() == (GOLDEN / golden).read_bytes()


# -- constructions without a CLI command, serialized with the io writers ---------------


def _load(d: Path, name: str) -> vio.Instance:
    return vio.loads_instance((d / name).read_text(encoding="utf-8"))


def _vb(v, base: str) -> dict:
    return vio.vbgroupoid_to_json(v, base)


def _map(f, source: str, target: str) -> dict:
    return vio.vbmap_to_json(f, source, target)


def _iso(iso) -> dict:
    return {"type": "vbmap_iso", "alpha": {str(x): vio.matrix_to_json(a) for x, a in enumerate(iso.alpha)}}


def _gauged(d: Path, name: str):
    r = _load(d, name).get("gauged0", "ruth")
    return r, grothendieck(r)


def _psi(d: Path):
    return _load(d, "gen-cech-pullback-z2-0.json").get("psi", "vbmap")


def api_arrow_vb(d: Path) -> dict:
    r, v = _gauged(d, "gen-gauge-z2-4.json")
    av = arrow_vb(v)
    return {
        "base": vio.groupoid_to_json(r.base),
        "v": _vb(v, "base"),
        "squares": _vb(av.vb, "base"),
        "sigma": _map(av.sigma, "squares", "v"),
        "tau": _map(av.tau, "squares", "v"),
        "mu": _map(av.mu, "v", "squares"),
        "universal": _iso(av.universal_iso),
    }


def api_cleavage_to_vbmap(d: Path) -> dict:
    _, v = _gauged(d, "gen-gauge-z2-4.json")
    cm = cleavage_to_vbmap(v, choose_cleavage(v))
    return {
        "squares": vio.groupoid_to_json(cm.arrow_data.gi),
        "sigma_star": _vb(cm.sigma_star, "squares"),
        "tau_star": _vb(cm.tau_star, "squares"),
        "rho": _map(cm.rho, "sigma_star", "tau_star"),
    }


def api_quasi_inverse(d: Path) -> dict:
    psi = _psi(d)
    qi = quasi_inverse(psi)
    return {
        "gu": vio.groupoid_to_json(psi.source.base),
        "source": _vb(psi.source, "gu"),
        "target": _vb(psi.target, "gu"),
        "psi": _map(qi.psi, "target", "source"),
        "iso_source": _iso(qi.iso_source),
        "iso_target": _iso(qi.iso_target),
    }


def api_stable_decompose(d: Path) -> dict:
    psi = _psi(d)
    sd = stable_decompose(psi)
    return {
        "gu": vio.groupoid_to_json(psi.source.base),
        "omega": _vb(sd.omega, "gu"),
        "omega_prime": _vb(sd.omega_prime, "gu"),
        "padded_source": _vb(sd.iso.source, "gu"),
        "padded_target": _vb(sd.iso.target, "gu"),
        "iso": _map(sd.iso, "padded_source", "padded_target"),
    }


def api_acyclic_vb(d: Path) -> dict:
    psi = _psi(d)
    z3 = _load(d, "gen-gauge-z3-4.json").get("z3", "groupoid")
    return {
        "z3": vio.groupoid_to_json(z3),
        "gu": vio.groupoid_to_json(psi.source.base),
        "acyclic_z3": _vb(acyclic_vb(z3, (2,)), "z3"),
        "acyclic_gu": _vb(acyclic_vb(psi.source.base, (1, 2)), "gu"),
    }


def api_direct_sum_vb(d: Path) -> dict:
    r, v = _gauged(d, "gen-gauge-z3-4.json")
    av = acyclic_vb(r.base, (1,))
    psi = _psi(d)
    return {
        "z3": vio.groupoid_to_json(r.base),
        "gu": vio.groupoid_to_json(psi.source.base),
        "v": _vb(v, "z3"),
        "acyclic": _vb(av, "z3"),
        "sum": _vb(direct_sum_vb(v, av), "z3"),
        "projection0": _map(sum_projection_vb(v, av, side=0), "sum", "v"),
        "projection1": _map(sum_projection_vb(v, av, side=1), "sum", "acyclic"),
        "pulled_sum": _vb(direct_sum_vb(psi.source, psi.target), "gu"),
    }


def api_grothendieck_map(d: Path) -> dict:
    r, _ = _gauged(d, "gen-gauge-z3-4.json")
    r2, mor = random_gauge(r, random.Random(5))
    proj = sum_projection(r, r2, side=1)
    f = grothendieck_map(mor)
    p = grothendieck_map(proj)
    return {
        "z3": vio.groupoid_to_json(r.base),
        "source": _vb(f.source, "z3"),
        "target": _vb(f.target, "z3"),
        "gauge": _map(f, "source", "target"),
        "sum": _vb(p.source, "z3"),
        "projection": _map(p, "sum", "target"),
    }


def api_twist(d: Path) -> dict:
    rng = random.Random(11)
    r, v = _gauged(d, "gen-gauge-z3-4.json")
    cd = core(v)
    tw, iso = twist(identity_vbmap(v), [random_matrix(rng, cd.dims[x], v.e_dims[x]) for x in range(r.base.n_objects)])
    psi = _psi(d)
    cdp = core(psi.target)
    twp, isop = twist(psi, [random_matrix(rng, cdp.dims[x], psi.source.e_dims[x]) for x in range(len(cdp.dims))])
    return {
        "z3": vio.groupoid_to_json(r.base),
        "gu": vio.groupoid_to_json(psi.source.base),
        "v": _vb(v, "z3"),
        "twisted_identity": _map(tw, "v", "v"),
        "identity_iso": _iso(iso),
        "source": _vb(psi.source, "gu"),
        "target": _vb(psi.target, "gu"),
        "twisted_psi": _map(twp, "source", "target"),
        "psi_iso": _iso(isop),
    }


API_CASES = {
    "api-arrow-vb.json": api_arrow_vb,
    "api-cleavage-to-vbmap.json": api_cleavage_to_vbmap,
    "api-quasi-inverse.json": api_quasi_inverse,
    "api-stable-decompose.json": api_stable_decompose,
    "api-acyclic-vb.json": api_acyclic_vb,
    "api-direct-sum-vb.json": api_direct_sum_vb,
    "api-grothendieck-map.json": api_grothendieck_map,
    "api-twist.json": api_twist,
}


@pytest.mark.parametrize("golden", sorted(API_CASES))
def test_construction_matches_golden(golden, instances):
    text = vio.dumps_instance(API_CASES[golden](instances))
    assert text.encode("utf-8") == (GOLDEN / golden).read_bytes()


# -- value equality of the frozen structures the comparisons above rely on --------------


def test_structures_hash_and_compare_by_value(instances):
    def structures(d: Path):
        psi = _psi(d)
        r, _ = _gauged(d, "gen-gauge-z3-4.json")
        mor = random_gauge(r, random.Random(5))[1]
        return [psi.source.base, psi.base_map, r, mor, psi.source, psi]

    first, second = structures(instances), structures(instances)
    for a, b in zip(first, second):
        assert a is not b
        assert a == b and hash(a) == hash(b)
    gu, base_map, r, mor, v, psi = first
    key = next(k for k, m in v.m_maps.items() if not m.is_zero)
    changed_v = replace(v, m_maps={**v.m_maps, key: -v.m_maps[key]})
    assert changed_v != v and replace(psi, source=changed_v) != psi
    key = next(k for k, m in r.gamma.items() if not m.is_zero)
    changed_r = replace(r, gamma={**r.gamma, key: -r.gamma[key]})
    assert changed_r != r and replace(mor, source=changed_r) != mor
    key, g12 = next(iter(gu.comp.items()))
    changed_gu = replace(gu, comp={**gu.comp, key: (g12 + 1) % gu.n_arrows})
    assert changed_gu != gu and replace(base_map, dom=changed_gu) != base_map
    for x in (changed_v, changed_r, changed_gu):
        hash(x)
