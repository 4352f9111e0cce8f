"""Command-line interface: check, construct, certify, compute, descend, generate.

Reports stream as JSON lines on stdout so long verification suites can be
monitored; the final line is a summary with the exit status.  Exit codes:
0 = all checks passed, 1 = a mathematical check failed, 2 = input or usage
error.  Usage errors (a malformed option value, an unknown command, a missing
required option, ``gen`` without ``--out``, ``descend`` with both or neither of
``--map`` and ``--object``, ``descend --map`` without ``--gamma`` and
``--gamma-prime``) are JSON events too: an ``{"event": "error", "kind": "usage"}``
line, then the summary, then exit code 2.  Identical inputs and seeds produce
byte-identical output; wall-clock timing is printed to stderr only when
--timings is given.  The options --pmax, --seed, --out and --timings may come
before or after the command; a value given after the command wins.

A plain command line is read without argparse: a known command with its
positionals and required options, long options spelt out in full, each value in
its own token and not starting with ``-``, integers for --pmax and --seed, and
command options only after the command.  Anything else, help and every usage
error included, goes to the argparse parser, which gives the same namespace for
a plain line.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import io as vio
from .cohomology import hvb_equals_hlin, induced_map_vb, ruth_complex, ruth_vs_dual_vb
from .descent import (
    CoverMismatchError,
    DescentProblem,
    descend_map,
    descend_pipeline,
    make_descent_problem,
)
from .groupoid import FiniteGroupoid, is_morita
from .linalg import betti_numbers
from .report import InvalidStructureError
from .ruth import direct_sum, dual_ruth
from .vb import check_vbmap, choose_cleavage, dual_vb, grothendieck, is_vb_morita, split


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


class UsageError(Exception):
    """A bad command line or environment setting (exit 2)."""


# option -> (environment variable, default), read only when the option is not given
_INT_ENV = {"pmax": ("VBG_PMAX", 3), "seed": ("VBG_SEED", 0)}


def _fill_env_defaults(args) -> None:
    for opt, (name, default) in _INT_ENV.items():
        if getattr(args, opt) is not None:
            continue
        val = os.environ.get(name)
        try:
            setattr(args, opt, default if val is None else int(val))
        except ValueError:
            raise UsageError(f"{name}={val!r} is not an integer") from None


def _load(path: str) -> vio.Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise vio.ParseError(f"cannot read {path}: {e}") from None
    return vio.loads_instance(text)


def _groupoid_name(inst: vio.Instance, obj) -> str:
    for name, val in inst.objects.items():
        if val is obj:
            return name
    return "base"


def _write_out(args, inst: vio.Instance, base: FiniteGroupoid, stem: str, objects) -> None:
    """With ``--out``, write the base groupoid and ``objects(base_name)`` to ``<command>-<stem>.json``."""
    if not args.out:
        return
    base_name = _groupoid_name(inst, base)
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{args.command}-{stem}.json"
    text = vio.dumps_instance({base_name: vio.groupoid_to_json(base), **objects(base_name)})
    target.write_text(text, encoding="utf-8")
    _emit({"event": "written", "path": str(target)})


def cmd_check(args) -> int:
    inst = _load(args.file)
    names = args.names.split(",") if args.names else sorted(inst.objects)
    if not names:
        raise vio.ParseError(f"{args.file} has no objects to check")
    failed = 0
    for name in names:
        obj = inst.get(name)
        kind = inst.kinds[name]
        check = vio.KINDS[kind].check
        if check is None:
            _emit({"event": "check", "name": name, "type": kind, "ok": True, "note": "no checker"})
            continue
        rep = check(obj)
        _emit(
            {
                "event": "check",
                "name": name,
                "type": kind,
                "ok": rep.ok,
                "violations": rep.to_json(),
            }
        )
        if not rep.ok:
            failed += 1
    return 1 if failed else 0


def cmd_groth(args) -> int:
    inst = _load(args.file)
    r = inst.get(args.name, "ruth")
    v = grothendieck(r)
    _emit({"event": "groth", "name": args.name, "gamma_dims": list(v.gamma_dims)})
    name = f"{args.name}.groth"
    _write_out(args, inst, r.base, args.name, lambda b: {name: vio.vbgroupoid_to_json(v, b)})
    return 0


def cmd_split(args) -> int:
    inst = _load(args.file)
    v = inst.get(args.name, "vbgroupoid")
    r, iso = split(v, choose_cleavage(v))
    _emit(
        {
            "event": "split",
            "name": args.name,
            "e_dims": list(r.e_dims),
            "c_dims": list(r.c_dims),
            "iso_ok": check_vbmap(iso).ok,
        }
    )
    name = f"{args.name}.split"
    _write_out(args, inst, v.base, args.name, lambda b: {name: vio.ruth_to_json(r, b)})
    return 0


def cmd_morita(args) -> int:
    inst = _load(args.file)
    obj = inst.get(args.name)
    kind = inst.kinds[args.name]
    if kind == "groupoid_map":
        cert = is_morita(obj)
        _emit(
            {
                "event": "morita",
                "name": args.name,
                "ok": cert.ok,
                "orbit_bijective": cert.orbit_bijective,
                "isotropy_iso": list(cert.isotropy_iso),
                "fully_faithful": cert.fully_faithful,
                "essentially_surjective": cert.essentially_surjective,
                "criteria_agree": cert.criteria_agree,
            }
        )
        return 0 if cert.ok else 1
    if kind == "vbmap":
        cert = is_vb_morita(obj)
        _emit(
            {
                "event": "vb-morita",
                "name": args.name,
                "ok": cert.ok,
                "base_ok": cert.base.ok,
                "fibers": [
                    {"object": x, "ok": c.ok, "degrees": {str(p): list(v) for p, v in c.degrees.items()}}
                    for x, c in enumerate(cert.fibers)
                ],
            }
        )
        return 0 if cert.ok else 1
    raise vio.ParseError(f"morita: object {args.name!r} is neither a groupoid map nor a VB-map")


def cmd_dual(args) -> int:
    inst = _load(args.file)
    obj = inst.get(args.name)
    kind = inst.kinds[args.name]
    if kind == "ruth":
        d = dual_ruth(obj)
        _emit({"event": "dual", "name": args.name, "e_dims": list(d.e_dims), "c_dims": list(d.c_dims)})
        to_json = vio.ruth_to_json
    elif kind == "vbgroupoid":
        d = dual_vb(obj)
        _emit({"event": "dual", "name": args.name, "gamma_dims": list(d.gamma_dims)})
        to_json = vio.vbgroupoid_to_json
    else:
        raise vio.ParseError(f"dual: object {args.name!r} is neither a ruth nor a VB-groupoid")
    name = f"{args.name}.dual"
    _write_out(args, inst, obj.base, args.name, lambda b: {name: to_json(d, b)})
    return 0


def cmd_cohomology(args) -> int:
    inst = _load(args.file)
    obj = inst.get(args.name)
    kind = inst.kinds[args.name]
    p_max = args.pmax
    if p_max < 1:
        raise UsageError(f"--pmax must be at least 1, got {p_max}")
    if kind == "ruth":
        rc = ruth_complex(obj, p_max)
        betti = betti_numbers(rc.complex)
        _emit(
            {
                "event": "cohomology",
                "name": args.name,
                "kind": "ruth",
                "degrees": [
                    {"p": p, "dim": rc.complex.dim(p), "dim_H": betti[p]} for p in range(-1, p_max)
                ],
            }
        )
        shift = ruth_vs_dual_vb(obj, p_max, betti)
        _emit(
            {
                "event": "shift-isomorphism",
                "name": args.name,
                "degrees": list(shift.degrees),
                "ruth_dims": list(shift.ruth_dims),
                "vb_dims": list(shift.vb_dims),
                "ok": shift.ok,
            }
        )
        return 0 if shift.ok else 1
    if kind == "vbgroupoid":
        rep = hvb_equals_hlin(obj, p_max)
        _emit(
            {
                "event": "cohomology",
                "name": args.name,
                "kind": "vbgroupoid",
                "degrees": [
                    {
                        "p": p,
                        "dim_lin": rep.dims_lin[p],
                        "dim_vb": rep.dims_vb[p],
                        "dim_H_lin": rep.h_lin[p],
                        "dim_H_vb": rep.h_vb[p],
                    }
                    for p in range(p_max)
                ],
                "verdicts": {
                    "equal_dims": rep.h_lin == rep.h_vb,
                    "inclusion_iso": rep.inclusion_iso,
                    "homotopy_identity": rep.homotopy_identity,
                    "zero_last_identity": rep.zero_last_identity,
                    "filtration_quasi_iso": rep.filtration_quasi_iso,
                },
            }
        )
        return 0 if rep.ok else 1
    if kind == "vbmap":
        rep = induced_map_vb(obj, p_max)
        _emit(
            {
                "event": "induced-map",
                "name": args.name,
                "chain_map_ok": rep.chain_map_ok,
                "preserves_projectable": rep.preserves_projectable,
                "h_vb_source": list(rep.h_vb_source),
                "h_vb_target": list(rep.h_vb_target),
                "ranks": list(rep.ranks),
                "is_isomorphism": rep.is_isomorphism,
            }
        )
        return 0 if rep.chain_map_ok and rep.preserves_projectable else 1
    raise vio.ParseError(f"cohomology: unsupported object type {kind!r}")


def cmd_descend(args) -> int:
    if bool(args.map) == bool(args.object):
        raise UsageError("descend needs either --map or --object")
    missing = [opt for opt, name in (("--gamma", args.gamma), ("--gamma-prime", args.gamma_prime)) if not name]
    if args.map and missing:
        raise UsageError(f"descend --map needs {' and '.join(missing)}")
    inst = _load(args.file)
    base, sets = inst.get(args.cover, "cover")
    partition = inst.get(args.partition, "partition") if args.partition else None
    try:
        problem = make_descent_problem(base, [list(s) for s in sets], partition)
    except CoverMismatchError as e:
        raise UsageError(f"--partition {args.partition} does not match --cover {args.cover}: {e}") from None
    if args.map:
        psi = inst.get(args.map, "vbmap")
        gamma = inst.get(args.gamma, "vbgroupoid")
        gamma_prime = inst.get(args.gamma_prime, "vbgroupoid")
        result = descend_map(problem, gamma, gamma_prime, psi)
        _emit(
            {
                "event": "descend-map",
                "map": args.map,
                "beta_nonzero": sorted(k for k, b in result.beta.items() if not b.is_zero),
                "descended_ok": check_vbmap(result.phi).ok,
            }
        )
        _write_out(
            args,
            inst,
            base,
            args.map,
            lambda b: {
                args.gamma: vio.vbgroupoid_to_json(gamma, b),
                args.gamma_prime: vio.vbgroupoid_to_json(gamma_prime, b),
                f"{args.map}.descended": vio.vbmap_to_json(result.phi, args.gamma, args.gamma_prime),
            },
        )
        return 0
    v = inst.get(args.object, "vbgroupoid")
    result = descend_pipeline(v, problem)
    _emit(
        {
            "event": "descend-object",
            "object": args.object,
            "omega_dims": list(result.stabilization.omega.e_dims),
            "descended_e_dims": list(result.descended.e_dims),
            "comparison_invertible": result.comparison.is_invertible,
        }
    )
    name, descended = f"{args.object}.descended", result.descended
    _write_out(args, inst, base, args.object, lambda b: {name: vio.vbgroupoid_to_json(descended, b)})
    return 0


def _cech_objects(problem: DescentProblem) -> dict[str, dict]:
    """The base groupoid, the cover and the Cech groupoid of a descent problem."""
    return {
        "base": vio.groupoid_to_json(problem.base),
        "cover": {"type": "cover", "base": "base", "sets": [list(s) for s in problem.cech.cover]},
        "gu": vio.groupoid_to_json(problem.gu),
    }


def _gen_objects(recipe: str, seed: int) -> dict[str, dict]:
    # only gen needs these, so no other command pays for importing them
    import random

    from .generators import (
        acyclic_ruth,
        base_groupoids,
        make_map_descent_fixture,
        make_object_descent_fixture,
        named_reps,
        rank_drop_fixture,
        random_gauge,
        seed_ruths,
    )

    rng = random.Random(seed)
    parts = recipe.split(":")
    kind = parts[0]
    base_name = parts[1] if len(parts) > 1 else "z2"
    zoo = base_groupoids()
    ruth_recipes = ("honest", "gauge", "acyclic", "sum")
    if kind not in (*ruth_recipes, "cech-pullback", "cech-pullback-core", "perturbed-pullback", "rank-drop"):
        raise vio.ParseError(f"gen: unknown recipe {recipe!r}")
    if kind == "rank-drop" and len(parts) > 1:
        raise vio.ParseError(f"gen: rank-drop takes no base, got {base_name!r}")
    if base_name not in zoo:
        raise vio.ParseError(f"gen: unknown base {base_name!r}")
    if kind in ruth_recipes:
        g = zoo[base_name]
        out = {base_name: vio.groupoid_to_json(g)}
        seeds = seed_ruths(base_name, g)
        if kind == "honest":
            for i, r in enumerate(named_reps(base_name, g)):
                out[f"rep{i}"] = vio.ruth_to_json(r, base_name)
        elif kind == "acyclic":
            out["acyclic0"] = vio.ruth_to_json(acyclic_ruth(named_reps(base_name, g)[0]), base_name)
        elif kind == "sum":
            reps = named_reps(base_name, g)
            out["sum0"] = vio.ruth_to_json(direct_sum(reps[0], acyclic_ruth(reps[0])), base_name)
        else:
            base_r = seeds[seed % len(seeds)]
            gauged, _ = random_gauge(base_r, rng)
            out["gauged0"] = vio.ruth_to_json(gauged, base_name)
        return out
    if kind in ("cech-pullback", "cech-pullback-core"):
        fx = make_map_descent_fixture(seed, base_name, 0, with_core=kind == "cech-pullback-core")
        return {
            **_cech_objects(fx.problem),
            "gamma": vio.vbgroupoid_to_json(fx.gamma, "base"),
            "gamma_prime": vio.vbgroupoid_to_json(fx.gamma_prime, "base"),
            "psi": vio.vbmap_to_json(fx.psi, "gamma.pulled", "gamma_prime.pulled"),
            "gamma.pulled": vio.vbgroupoid_to_json(fx.psi.source, "gu"),
            "gamma_prime.pulled": vio.vbgroupoid_to_json(fx.psi.target, "gu"),
        }
    if kind == "perturbed-pullback":
        problem, v = make_object_descent_fixture(seed, base_name, 1)
        return {**_cech_objects(problem), "object": vio.vbgroupoid_to_json(v, "gu")}
    problem, v = rank_drop_fixture(seed)
    return {**_cech_objects(problem), "object": vio.vbgroupoid_to_json(v, "gu")}


def cmd_gen(args) -> int:
    # stdout carries the JSON events, so the instance itself must go to a file
    if not args.out:
        raise UsageError("gen writes the instance to a file: give --out (or set $VBG_OUT)")
    objects = _gen_objects(args.recipe, args.seed)
    text = vio.dumps_instance(objects)
    # every emitted object must load and validate
    vio.loads_instance(text)
    path = Path(args.out)
    if path.suffix != ".json":
        path.mkdir(parents=True, exist_ok=True)
        path = path / f"gen-{args.recipe.replace(':', '-')}-{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    _emit({"event": "written", "path": str(path)})
    return 0


# command -> (function, help, positionals, options, required options), where options maps
# each command option, a long option with one value, to its help text or None; every
# command also takes _COMMON and --timings
COMMANDS = {
    "check": (
        cmd_check,
        "validate named objects in an instance file",
        ("file",),
        {"names": "comma-separated object names (default: all)"},
        (),
    ),
    "groth": (cmd_groth, "Grothendieck construction of a ruth", ("file", "name"), {}, ()),
    "split": (cmd_split, "split a VB-groupoid along the canonical cleavage", ("file", "name"), {}, ()),
    "morita": (cmd_morita, "Morita / VB-Morita certification", ("file", "name"), {}, ()),
    "dual": (cmd_dual, "dual ruth or dual VB-groupoid", ("file", "name"), {}, ()),
    "cohomology": (cmd_cohomology, "cohomology tables and verdicts", ("file", "name"), {}, ()),
    "descend": (
        cmd_descend,
        "Cech descent of maps or objects",
        ("file",),
        dict.fromkeys(("cover", "partition", "map", "gamma", "gamma-prime", "object")),
        ("cover",),
    ),
    "gen": (cmd_gen, "generate a deterministic instance file", (), {"recipe": None}, ("recipe",)),
}

# the options of vbg and of every command besides --timings, with their help; those in
# _INT_ENV take integers
_COMMON = {
    "pmax": "max cochain degree, at least 1 (default: $VBG_PMAX or 3)",
    "seed": "default: $VBG_SEED or 0",
    "out": "default: $VBG_OUT",
}


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser`` gives for a plain ``argv`` (see the module docstring), else None."""
    values = {**dict.fromkeys(_COMMON), "out": os.environ.get("VBG_OUT"), "timings": False}
    command, positionals, options = None, [], _COMMON
    tokens = iter(argv)
    for token in tokens:
        if token == "--timings":
            values["timings"] = True
        elif token.startswith("--") and token[2:] in options:
            value = next(tokens, "")
            if not value or value.startswith("-"):
                return None
            dest = token[2:].replace("-", "_")
            if dest in _INT_ENV:
                try:
                    value = int(value)
                except ValueError:
                    return None
            values[dest] = value
        elif not token or token.startswith("-"):
            return None
        elif command is None:
            if token not in COMMANDS:
                return None
            command, options = token, {**_COMMON, **COMMANDS[token][3]}
        else:
            positionals.append(token)
    if command is None:
        return None
    func, _, names, command_options, required = COMMANDS[command]
    if len(positionals) != len(names) or any(opt.replace("-", "_") not in values for opt in required):
        return None
    for opt in command_options:
        values.setdefault(opt.replace("-", "_"), None)
    return SimpleNamespace(**values, command=command, func=func, **dict(zip(names, positionals)))


def build_parser():
    """The argparse parser of ``vbg``; it reports a bad command line as a UsageError."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):
            raise UsageError(message)

    def common_options(argument_default=None) -> Parser:
        common = Parser(add_help=False, argument_default=argument_default)
        for opt, help_text in _COMMON.items():
            common.add_argument(f"--{opt}", type=int if opt in _INT_ENV else None, help=help_text)
        common.add_argument("--timings", action="store_true", help="print elapsed time to stderr")
        return common

    # --help shows the docstring without its last paragraph, which is about parsing
    p = Parser(prog="vbg", description=__doc__.rsplit("\n\n", 1)[0], parents=[common_options()])
    p.set_defaults(out=os.environ.get("VBG_OUT"))
    # a command's copies set nothing unless given, so a value given before the command
    # survives the command's parser, and one given after the command replaces it
    command_options = common_options(argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, help_text, positionals, options, required) in COMMANDS.items():
        c = sub.add_parser(name, help=help_text, parents=[command_options])
        c.set_defaults(func=func)
        for arg in positionals:
            c.add_argument(arg)
        for opt, opt_help in options.items():
            c.add_argument(f"--{opt}", required=opt in required, help=opt_help)
    return p


def _run(argv: list[str]) -> int:
    start = time.monotonic()
    # argparse sets ``command`` here before it parses the command's own arguments, so after a
    # failed parse it names the command chosen, or stays None when none was
    args, timings = SimpleNamespace(command=None), False
    try:
        args = _parse_plain(argv) or build_parser().parse_args(argv, args)
        timings = args.timings
        _fill_env_defaults(args)
        code = args.func(args)
    except UsageError as e:
        _emit({"event": "error", "kind": "usage", "message": str(e)})
        code = 2
    except vio.ParseError as e:
        _emit({"event": "error", "kind": "parse", "message": str(e)})
        code = 2
    except InvalidStructureError as e:
        _emit({"event": "error", "kind": "invalid-structure", "message": str(e)})
        code = 1
    except ValueError as e:
        _emit({"event": "error", "kind": "value", "message": str(e)})
        code = 1
    _emit({"event": "summary", "command": args.command, "exit": code, "ok": code == 0})
    if timings:
        sys.stderr.write(f"elapsed: {time.monotonic() - start:.3f}s\n")
    return code


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away.  Point stdout at devnull, so that flushing what is
        # still buffered at exit cannot fail again and print a traceback.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
