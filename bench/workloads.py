"""The benchmark's workloads: instance files built from a seed, the `vbg` commands run on them,
and the known answer each command must print.

Every input is a gauge transform (``random.Random(seed)``) of a fixed structured ruth, so the
seed changes the numbers in the files but not the shapes, and the cost of a workload stays
comparable across seeds.  See README.md for why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from vbgroupoids import (
    VBMap,
    base_change,
    cyclic_groupoid,
    direct_sum,
    grothendieck,
    identity_map,
    make_descent_problem,
    pair_groupoid,
    point_groupoid,
    pullback_ruth,
    twist,
)
from vbgroupoids import io as vio
from vbgroupoids.generators import (
    acyclic_ruth,
    honest_rep,
    named_reps,
    random_gauge,
    random_matrix,
    shifted_ruth,
)
from vbgroupoids.linalg import Matrix
from vbgroupoids.ruth import sum_projection
from vbgroupoids.vb import core, grothendieck_map

import oracle


@dataclass
class Command:
    """One `vbg` invocation and the answer it must give."""

    label: str
    argv: list[str]
    kind: str  # key of oracle.CHECKERS
    expect: dict
    top: bool = False


@dataclass
class Workload:
    commands: list[Command] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)  # every generated instance file


class _Builder:
    def __init__(self, seed: int, root: Path, inputs: Path):
        self.rng = random.Random(seed)
        self.root = root
        self.inputs = inputs
        self.workload = Workload()

    def write(self, filename: str, objects: dict) -> str:
        path = self.inputs / filename
        path.write_text(vio.dumps_instance(objects), encoding="utf-8")
        rel = path.relative_to(self.root)
        self.workload.files.append(rel)
        return str(rel)

    def add(self, label: str, argv: list[str], kind: str, expect: dict, top: bool = False) -> None:
        self.workload.commands.append(Command(label, argv, kind, expect, top))


def _rep(g, matrix, dim: int):
    return honest_rep(g, lambda x0, h: matrix(h), lambda x0: dim)


def _summands(g, honest=(), shifted=(), acyclic=()):
    """Direct sum of the given summands and the expected (H^{-1}, H^0)."""
    parts = list(honest) + [shifted_ruth(r) for r in shifted] + [acyclic_ruth(r) for r in acyclic]
    out = parts[0]
    for r in parts[1:]:
        out = direct_sum(out, r)
    h0 = sum(oracle.invariant_dim(g, r.rho_e) for r in honest)
    h_minus1 = sum(oracle.invariant_dim(g, r.rho_e) for r in shifted)
    return out, h_minus1, h0


def _bases():
    z2, z3 = cyclic_groupoid(2), cyclic_groupoid(3)
    trivial2, sign2 = named_reps("z2", z2)
    trivial3, rotation3 = named_reps("z3", z3)
    pt = point_groupoid()
    return {
        "pt": (pt, _rep(pt, lambda h: Matrix.identity(1), 1)),
        "z2": (z2, trivial2, sign2),
        "z3": (z3, trivial3, rotation3),
        "pair2": (pair_groupoid(2), _rep(pair_groupoid(2), lambda h: Matrix.identity(1), 1)),
        "pair3": (pair_groupoid(3), _rep(pair_groupoid(3), lambda h: Matrix.identity(1), 1)),
    }


def _vb_verdict(b: _Builder, label: str, g, ruth, h_minus1: int, h0: int, p_max: int, top=False) -> None:
    gauged, _ = random_gauge(ruth, b.rng)
    path = b.write(f"{label}.json", {"base": vio.groupoid_to_json(g), "vb": vio.vbgroupoid_to_json(grothendieck(gauged), "base")})
    h = [h0, h_minus1] + [0] * (p_max - 2)
    b.add(label, ["cohomology", path, "vb", "--pmax", str(p_max)], "vb-cohomology", {"p_max": p_max, "h": h[:p_max]}, top)


def build_verdicts(b: _Builder) -> None:
    bases = _bases()
    z2, trivial2, _ = bases["z2"]
    z3, trivial3, _ = bases["z3"]
    pt, rep_pt = bases["pt"]
    pair2, rep_pair2 = bases["pair2"]
    _vb_verdict(b, "z2-vb", z2, *_summands(z2, honest=[trivial2], acyclic=[trivial2]), p_max=3)
    _vb_verdict(b, "z3-vb", z3, *_summands(z3, honest=[trivial3], acyclic=[trivial3]), p_max=2)
    # the Cech base-change map of the point along a 2-fold cover is VB-Morita
    ruth, h_minus1, h0 = _summands(pt, honest=[rep_pt], acyclic=[rep_pt])
    v = grothendieck(random_gauge(ruth, b.rng)[0])
    problem = make_descent_problem(pt, [[0], [0]])
    pulled, canonical = base_change(problem.cech.pi, v)
    path = b.write(
        "pt-cech-map.json",
        {
            "pt": vio.groupoid_to_json(pt),
            "gu": vio.groupoid_to_json(problem.gu),
            "vb": vio.vbgroupoid_to_json(v, "pt"),
            "pulled": vio.vbgroupoid_to_json(pulled, "gu"),
            "map": vio.vbmap_to_json(canonical, "pulled", "vb"),
        },
    )
    b.add("pt-cech-map.induced", ["cohomology", path, "map", "--pmax", "3"], "induced-map", {"h": [h0, h_minus1, 0]})
    b.add("pt-cech-map.morita", ["morita", path, "map"], "vb-morita", {"n_fibers": problem.gu.n_objects})
    _vb_verdict(b, "pair2-vb", pair2, *_summands(pair2, honest=[rep_pair2], acyclic=[rep_pair2]), p_max=3, top=True)
    _tables(b, bases)


def _ruth_table(b: _Builder, label: str, g, ruth, h_minus1: int, h0: int, p_max: int) -> None:
    gauged, _ = random_gauge(ruth, b.rng)
    path = b.write(f"{label}.json", {"base": vio.groupoid_to_json(g), "ruth": vio.ruth_to_json(gauged, "base")})
    expect = {
        "p_max": p_max,
        "dims": oracle.ruth_cochain_dims(g, ruth.e_dims, ruth.c_dims, p_max),
        "h": oracle.table(h_minus1, h0, range(-1, p_max)),
    }
    b.add(label, ["cohomology", path, "ruth", "--pmax", str(p_max)], "ruth-cohomology", expect)


def _tables(b: _Builder, bases: dict) -> None:
    """Ruth Betti tables: a few large sparse eliminations and nerve growth, little `solve_matrix`."""
    z2, _, sign2 = bases["z2"]
    z3, trivial3, _ = bases["z3"]
    pair3, rep_pair3 = bases["pair3"]
    _ruth_table(b, "z2-ruth", z2, *_summands(z2, honest=[sign2], acyclic=[sign2]), p_max=4)
    # the core-only summand makes H^{-1} nonzero
    _ruth_table(b, "z3-ruth", z3, *_summands(z3, honest=[trivial3], shifted=[trivial3], acyclic=[trivial3]), p_max=3)
    _ruth_table(b, "pair3-ruth", pair3, *_summands(pair3, honest=[rep_pair3], acyclic=[rep_pair3]), p_max=3)


def _descent_instance(b: _Builder, label: str, g, rep, k: int, commands, top: str | None = None) -> None:
    """A cover of ``g`` by k copies of all objects; a perturbed pullback and a twisted pulled-back map."""
    problem = make_descent_problem(g, [list(range(g.n_objects))] * k)
    cech = problem.cech
    cover = {"type": "cover", "base": "base", "sets": [list(s) for s in cech.cover]}
    acyclic = acyclic_ruth(rep)
    commands = set(commands)
    if commands & {"check", "split", "dual", "descend-object"}:
        v = grothendieck(random_gauge(pullback_ruth(cech.pi, direct_sum(rep, acyclic)), b.rng)[0])
        path = b.write(
            f"{label}.object.json",
            {"base": vio.groupoid_to_json(g), "cover": cover, "gu": vio.groupoid_to_json(cech.gu), "object": vio.vbgroupoid_to_json(v, "gu")},
        )
        n = cech.gu.n_objects
        e, c = 2 * rep.e_dims[0], rep.e_dims[0]
        if "check" in commands:
            b.add(f"{label}.check", ["check", path], "check", {"names": ["base", "cover", "gu", "object"]}, top == "check")
        if "split" in commands:
            b.add(f"{label}.split", ["split", path, "object"], "split", {"e_dims": [e] * n, "c_dims": [c] * n}, top == "split")
        if "dual" in commands:
            out = str(b.inputs.relative_to(b.root) / f"{label}.dual")
            b.add(
                f"{label}.dual",
                ["dual", path, "object", "--out", out],
                "dual",
                {"gamma_dims": [e + c] * cech.gu.n_arrows, "written_name": "object.dual"},
                top == "dual",
            )
        if "descend-object" in commands:
            b.add(
                f"{label}.descend-object",
                ["descend", path, "--cover", "cover", "--object", "object"],
                "descend-object",
                {"n_cech_objects": n, "e_dims": [e] * g.n_objects},
                top == "descend-object",
            )
    if "descend-map" in commands:
        phi = grothendieck_map(sum_projection(rep, acyclic, side=0))
        src, _ = base_change(cech.pi, phi.source)
        tgt, _ = base_change(cech.pi, phi.target)
        psi = VBMap(
            source=src,
            target=tgt,
            base_map=identity_map(cech.gu),
            obj_maps=tuple(phi.obj_maps[p[0]] for p in cech.obj_pairs),
            arr_maps=tuple(phi.arr_maps[t[0]] for t in cech.arrow_triples),
        )
        dims = core(tgt).dims
        psi, _ = twist(psi, [random_matrix(b.rng, dims[x], src.e_dims[x]) for x in range(cech.gu.n_objects)])
        path = b.write(
            f"{label}.map.json",
            {
                "base": vio.groupoid_to_json(g),
                "cover": cover,
                "gu": vio.groupoid_to_json(cech.gu),
                "gamma": vio.vbgroupoid_to_json(phi.source, "base"),
                "gamma_prime": vio.vbgroupoid_to_json(phi.target, "base"),
                "gamma.pulled": vio.vbgroupoid_to_json(src, "gu"),
                "gamma_prime.pulled": vio.vbgroupoid_to_json(tgt, "gu"),
                "psi": vio.vbmap_to_json(psi, "gamma.pulled", "gamma_prime.pulled"),
            },
        )
        argv = ["descend", path, "--cover", "cover", "--map", "psi", "--gamma", "gamma", "--gamma-prime", "gamma_prime"]
        b.add(f"{label}.descend-map", argv, "descend-map", {}, top == "descend-map")


ALL_DESCENT = ("check", "split", "dual", "descend-object", "descend-map")


def build_descent(b: _Builder) -> None:
    bases = _bases()
    pt, rep_pt = bases["pt"]
    z2, trivial2, _ = bases["z2"]
    _descent_instance(b, "pt-k2", pt, rep_pt, 2, ALL_DESCENT)
    _descent_instance(b, "pt-k3", pt, rep_pt, 3, ALL_DESCENT)
    _descent_instance(b, "pt-k4", pt, rep_pt, 4, ["descend-object", "descend-map"])
    _descent_instance(b, "z2-k4", z2, trivial2, 4, ["descend-object"], top="descend-object")


BUILDERS = {"verdicts": build_verdicts, "descent": build_descent}


def build(name: str, seed: int, root: Path, inputs: Path) -> Workload:
    """Write the instance files of workload ``name`` for ``seed`` under ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    b = _Builder(seed, root, inputs)
    BUILDERS[name](b)
    return b.workload
