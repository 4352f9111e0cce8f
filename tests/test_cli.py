"""CLI behavior: exit codes, determinism, command round trips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from vbgroupoids import io as vio
from vbgroupoids.cli import main
from vbgroupoids.groupoid import cyclic_groupoid
from vbgroupoids.linalg import Matrix
from vbgroupoids.ruth import make_ruth


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


@pytest.fixture
def sign_file(tmp_path):
    z2 = cyclic_groupoid(2)
    sign = make_ruth(z2, (1,), (0,), rho_e={1: Matrix.from_rows([[-1]])})
    path = tmp_path / "sign.json"
    path.write_text(
        vio.dumps_instance({"z2": vio.groupoid_to_json(z2), "sign": vio.ruth_to_json(sign, "z2")})
    )
    return path


def test_check_pass_exit_zero(sign_file, capsys):
    code, events = run_cli(["check", str(sign_file)], capsys)
    assert code == 0
    assert events[-1]["exit"] == 0
    assert all(e["ok"] for e in events if e["event"] == "check")


def test_check_corrupted_exit_one(tmp_path, capsys):
    z2 = cyclic_groupoid(2)
    sign = make_ruth(z2, (1,), (0,), rho_e={1: Matrix.from_rows([[-1]])})
    data = vio.ruth_to_json(sign, "z2")
    data["rhoE"]["1"] = [["2"]]
    payload = json.loads(vio.dumps_instance({"z2": vio.groupoid_to_json(z2), "bad": data}))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, events = run_cli(["check", str(path)], capsys)
    assert code == 1


def test_missing_reference_exit_two(tmp_path, capsys):
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps({"format": 1, "objects": {"r": {"type": "ruth", "base": "nope"}}}))
    code, events = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert events[0]["kind"] == "parse"


def test_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _ = run_cli(["check", str(path)], capsys)
    assert code == 2


def test_file_that_is_not_utf8_is_parse_error(sign_file, tmp_path, capsys):
    # a Latin-1 object name: the bytes are not UTF-8, so the file cannot be read as text
    path = tmp_path / "latin1.json"
    path.write_bytes(sign_file.read_text().replace('"sign"', '"sign\u00e9"').encode("latin-1"))
    code, events = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert [e["event"] for e in events] == ["error", "summary"]
    assert events[0]["kind"] == "parse" and str(path) in events[0]["message"]
    assert events[1] == {"command": "check", "event": "summary", "exit": 2, "ok": False}


def test_check_with_nothing_to_check_is_parse_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(vio.dumps_instance({}))
    code, events = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert [e["event"] for e in events] == ["error", "summary"]
    assert events[0]["kind"] == "parse" and "no objects" in events[0]["message"]
    assert events[1] == {"command": "check", "event": "summary", "exit": 2, "ok": False}


def test_groth_split_round_trip_bytes(sign_file, tmp_path, capsys):
    out1 = tmp_path / "o1"
    code, _ = run_cli(["groth", str(sign_file), "sign", "--out", str(out1)], capsys)
    assert code == 0
    groth_path = out1 / "groth-sign.json"
    code, _ = run_cli(["split", str(groth_path), "sign.groth", "--out", str(out1)], capsys)
    assert code == 0
    split_payload = json.loads((out1 / "split-sign.groth.json").read_text())
    original = json.loads(sign_file.read_text())
    recovered = dict(split_payload["objects"]["sign.groth.split"])
    recovered["base"] = "z2"
    assert recovered == original["objects"]["sign"]


def test_gen_deterministic_bytes(tmp_path, capsys):
    code1 = main(["gen", "--recipe", "gauge:z3", "--seed", "7", "--out", str(tmp_path / "a.json")])
    first = (tmp_path / "a.json").read_bytes()
    code2 = main(["gen", "--recipe", "gauge:z3", "--seed", "7", "--out", str(tmp_path / "b.json")])
    assert code1 == code2 == 0
    assert first == (tmp_path / "b.json").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("base", ["z2", "pair2"])
def test_descend_map_on_a_core_recipe_reports_nonzero_beta(base, tmp_path, capsys):
    path = tmp_path / "core.json"
    assert main(["gen", "--recipe", f"cech-pullback-core:{base}", "--seed", "0", "--out", str(path)]) == 0
    argv = ["descend", str(path), "--cover", "cover", "--map", "psi", "--gamma", "gamma", "--gamma-prime", "gamma_prime"]
    capsys.readouterr()
    code, events = run_cli(argv, capsys)
    assert code == 0
    assert events[0]["event"] == "descend-map" and events[0]["beta_nonzero"] and events[0]["descended_ok"]


def test_gen_unknown_recipe_exit_two(capsys):
    code, events = run_cli(["gen", "--recipe", "nope"], capsys)
    assert code == 2


def test_report_bytes_deterministic(sign_file, capsys):
    code, _ = run_cli(["cohomology", str(sign_file), "sign"], capsys)
    out1 = subprocess.run(
        [sys.executable, "-m", "vbgroupoids.cli", "cohomology", str(sign_file), "sign"],
        capture_output=True,
    )
    out2 = subprocess.run(
        [sys.executable, "-m", "vbgroupoids.cli", "cohomology", str(sign_file), "sign"],
        capture_output=True,
    )
    assert out1.stdout == out2.stdout
    assert out1.returncode == 0


def test_ruth_cohomology_builds_the_complex_once(sign_file, capsys, monkeypatch):
    # the Betti table and the shift isomorphism share one ruth complex
    from vbgroupoids import cohomology

    built = []
    real = cohomology.assemble_ruth_differential
    monkeypatch.setattr(cohomology, "assemble_ruth_differential", lambda *a: built.append(a) or real(*a))
    code, events = run_cli(["cohomology", str(sign_file), "sign", "--pmax", "3"], capsys)
    assert code == 0 and events[1]["ok"]
    assert len(built) == 1


def test_morita_verdict_exit(sign_file, capsys, tmp_path):
    # a VB-Morita certificate on a generated cech pullback map
    code, _ = run_cli(["gen", "--recipe", "cech-pullback:z2", "--seed", "0", "--out", str(tmp_path)], capsys)
    assert code == 0
    gen_path = tmp_path / "gen-cech-pullback-z2-0.json"
    code, events = run_cli(["morita", str(gen_path), "psi"], capsys)
    assert code in (0, 1)
    assert events[0]["event"] == "vb-morita"


def test_descend_cli(tmp_path, capsys):
    code, _ = run_cli(
        ["gen", "--recipe", "perturbed-pullback:pt", "--seed", "2", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    path = tmp_path / "gen-perturbed-pullback-pt-2.json"
    code, events = run_cli(
        ["descend", str(path), "--cover", "cover", "--object", "object", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert events[0]["comparison_invertible"] is True
    written = [e for e in events if e["event"] == "written"]
    assert written


def test_pmax_env_override(sign_file, capsys, monkeypatch):
    monkeypatch.setenv("VBG_PMAX", "2")
    code, events = run_cli(["cohomology", str(sign_file), "sign"], capsys)
    assert code == 0
    degrees = [d["p"] for d in events[0]["degrees"]]
    assert max(degrees) == 1


def test_pmax_before_the_command_is_kept(sign_file, capsys):
    _, events = run_cli(["--pmax", "2", "cohomology", str(sign_file), "sign"], capsys)
    assert max(d["p"] for d in events[0]["degrees"]) == 1
    # a value after the command wins
    _, events = run_cli(["--pmax", "2", "cohomology", str(sign_file), "sign", "--pmax", "4"], capsys)
    assert max(d["p"] for d in events[0]["degrees"]) == 3


def test_seed_before_the_command_is_kept(tmp_path, capsys):
    assert main(["--seed", "4", "gen", "--recipe", "gauge:z3", "--out", str(tmp_path / "before")]) == 0
    assert main(["gen", "--recipe", "gauge:z3", "--seed", "4", "--out", str(tmp_path / "after")]) == 0
    assert main(["--seed", "0", "gen", "--recipe", "gauge:z3", "--seed", "4", "--out", str(tmp_path / "both")]) == 0
    capsys.readouterr()
    written = [(tmp_path / d / "gen-gauge-z3-4.json").read_bytes() for d in ("before", "after", "both")]
    assert written[0] == written[1] == written[2]


def test_out_before_the_command_is_kept(sign_file, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("VBG_OUT", raising=False)
    code, events = run_cli(["--out", str(tmp_path / "before"), "dual", str(sign_file), "sign"], capsys)
    assert code == 0
    assert [e["path"] for e in events if e["event"] == "written"] == [str(tmp_path / "before" / "dual-sign.json")]
    assert (tmp_path / "before" / "dual-sign.json").is_file()
    args = ["--out", str(tmp_path / "before"), "dual", str(sign_file), "sign", "--out", str(tmp_path / "after")]
    _, events = run_cli(args, capsys)
    assert [e["path"] for e in events if e["event"] == "written"] == [str(tmp_path / "after" / "dual-sign.json")]


def test_timings_before_the_command_is_kept(sign_file, capsys):
    assert main(["--timings", "check", str(sign_file)]) == 0
    assert capsys.readouterr().err.startswith("elapsed: ")
    assert main(["check", str(sign_file)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("pmax", ["0", "-1"])
def test_pmax_below_one_is_usage_error(sign_file, tmp_path, capsys, pmax):
    code, _ = run_cli(["groth", str(sign_file), "sign", "--out", str(tmp_path)], capsys)
    assert code == 0
    for args in (
        ["cohomology", str(sign_file), "sign"],
        ["cohomology", str(tmp_path / "groth-sign.json"), "sign.groth"],
    ):
        code, events = run_cli(args + ["--pmax", pmax], capsys)
        assert code == 2
        assert [e["event"] for e in events] == ["error", "summary"]
        assert events[0]["kind"] == "usage"
        assert events[1] == {"command": "cohomology", "event": "summary", "exit": 2, "ok": False}


@pytest.mark.parametrize("var", ["VBG_PMAX", "VBG_SEED"])
def test_non_integer_env_is_usage_error(sign_file, capsys, monkeypatch, var):
    monkeypatch.setenv(var, "abc")
    code, events = run_cli(["check", str(sign_file)], capsys)
    assert code == 2
    assert [e["event"] for e in events] == ["error", "summary"]
    assert events[0]["kind"] == "usage" and var in events[0]["message"]
    assert events[1]["exit"] == 2


@pytest.mark.parametrize(
    "args,command",
    [
        (["cohomology", "F", "psi", "--pmax", "abc"], "cohomology"),
        (["nope"], None),
        (["gen"], "gen"),
        (["gen", "--recipe", "gauge:z3"], "gen"),
        # the summary names the command the parser chose, not an option value spelt like one
        (["--out", "check", "gen"], "gen"),
        (["--seed", "x", "gen"], None),
        (["check", "F", "extra"], "check"),
    ],
    ids=[
        "bad-pmax",
        "unknown-command",
        "gen-without-recipe",
        "gen-without-out",
        "option-value-named-like-a-command",
        "bad-option-before-the-command",
        "extra-argument-after-the-command",
    ],
)
def test_bad_command_line_is_usage_event(capsys, monkeypatch, args, command):
    monkeypatch.delenv("VBG_OUT", raising=False)
    code = main(args)
    captured = capsys.readouterr()
    events = [json.loads(line) for line in captured.out.splitlines()]
    assert code == 2
    assert [e["event"] for e in events] == ["error", "summary"]
    assert events[0]["kind"] == "usage"
    assert events[1] == {"command": command, "event": "summary", "exit": 2, "ok": False}
    assert captured.err == ""


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: vbg")


def test_closed_stdout_exits_two_without_traceback(sign_file, tmp_path, capsys, monkeypatch):
    class ClosedPipe:
        """A stdout whose reader went away; its descriptor is a temporary file."""

        def __init__(self, file):
            self.file = file

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.file.fileno()

    with open(tmp_path / "stdout", "w") as file:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(file))
        assert main(["groth", str(sign_file), "sign"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _mutate(objects, case):
    group, ruth = objects["z3"], objects["gauged0"]
    if case == "groupoid-without-arrows":
        del group["arrows"]
    elif case == "rhoE-key-out-of-range":
        ruth["rhoE"]["7"] = ruth["rhoE"]["1"]
    elif case == "unit-object-out-of-range":
        group["unit"][0] = [5, 0]
    elif case == "compose-entry-not-an-id":
        group["compose"][0] = [0, 0, "a"]
    elif case == "object-is-a-list":
        objects["gauged0"] = [ruth]
    elif case == "rhoE-key-negative":
        ruth["rhoE"]["-1"] = ruth["rhoE"]["1"]
    elif case == "E-key-out-of-range":
        ruth["E"]["1"] = ruth["E"]["0"]


@pytest.mark.parametrize(
    "case",
    [
        "groupoid-without-arrows",
        "rhoE-key-out-of-range",
        "unit-object-out-of-range",
        "compose-entry-not-an-id",
        "object-is-a-list",
        "rhoE-key-negative",
        "E-key-out-of-range",
    ],
)
def test_malformed_instance_is_parse_error(tmp_path, capsys, case):
    path = tmp_path / "gen.json"
    assert main(["gen", "--recipe", "gauge:z3", "--seed", "4", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    _mutate(payload["objects"], case)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    events = [json.loads(line) for line in captured.out.splitlines()]
    assert code == 2
    assert events[0]["event"] == "error" and events[0]["kind"] == "parse"
    assert events[-1] == {"command": "check", "event": "summary", "exit": 2, "ok": False}
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", [str, dict], ids=["string", "object"])
def test_matrix_row_that_is_not_a_list_is_parse_error(descent_files, tmp_path, capsys, kind):
    payload = json.loads(descent_files["object"].read_text())
    s0 = payload["objects"]["object"]["s"]["0"]
    s0[0] = "".join(s0[0]) if kind is str else {str(j): x for j, x in enumerate(s0[0])}
    path = tmp_path / "row.json"
    path.write_text(json.dumps(payload))
    code, events = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert events[0]["kind"] == "parse" and "matrix row 0 is not a list" in events[0]["message"]


@pytest.fixture(scope="module")
def descent_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("gen")
    for recipe, seed in (("perturbed-pullback:pt", "2"), ("cech-pullback:z2", "0")):
        assert main(["gen", "--recipe", recipe, "--seed", seed, "--out", str(d)]) == 0
    return {"object": d / "gen-perturbed-pullback-pt-2.json", "psi": d / "gen-cech-pullback-z2-0.json"}


@pytest.mark.parametrize(
    "name,table,key",
    [
        ("object", "E", "99"),
        ("object", "E", "00"),
        ("object", "Gamma", "9"),
        ("object", "s", "99"),
        ("object", "t", "-1"),
        ("object", "u", "3"),
        ("object", "m", "7,99"),
        ("object", "m", "0,3"),
        ("psi", "obj", "99"),
        ("psi", "arr", "8"),
    ],
)
def test_bad_table_key_is_parse_error(descent_files, tmp_path, capsys, name, table, key):
    payload = json.loads(descent_files[name].read_text())
    entries = payload["objects"][name][table]
    entries[key] = next(iter(entries.values()))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code, events = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert events[0]["kind"] == "parse" and name in events[0]["message"]
    assert events[-1] == {"command": "check", "event": "summary", "exit": 2, "ok": False}


def test_partition_over_another_cover_is_usage_error(descent_files, tmp_path, capsys):
    payload = json.loads(descent_files["psi"].read_text())
    payload["objects"]["cover2"] = {"type": "cover", "base": "base", "sets": [[0], [0], [0]]}
    payload["objects"]["part"] = {"type": "partition", "cover": "cover2", "weights": {"2,0": "1"}}
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    argv = ["descend", str(path), "--cover", "cover", "--partition", "part"]
    code, events = run_cli([*argv, "--map", "psi", "--gamma", "gamma", "--gamma-prime", "gamma_prime"], capsys)
    assert code == 2
    assert [e["event"] for e in events] == ["error", "summary"]
    assert events[0]["kind"] == "usage" and "--partition part" in events[0]["message"]
    assert events[1] == {"command": "descend", "event": "summary", "exit": 2, "ok": False}


@pytest.mark.parametrize(
    "given,missing",
    [([], "--gamma and --gamma-prime"), (["--gamma", "gamma"], "--gamma-prime"), (["--gamma-prime", "gamma_prime"], "--gamma")],
    ids=["neither", "gamma-only", "gamma-prime-only"],
)
def test_descend_map_without_its_vb_groupoids_is_usage_error(descent_files, capsys, given, missing):
    argv = ["descend", str(descent_files["psi"]), "--cover", "cover", "--map", "psi", *given]
    code, events = run_cli(argv, capsys)
    assert code == 2
    assert events == [
        {"event": "error", "kind": "usage", "message": f"descend --map needs {missing}"},
        {"command": "descend", "event": "summary", "exit": 2, "ok": False},
    ]


def test_cover_leaving_an_object_uncovered_is_parse_error(descent_files, tmp_path, capsys):
    payload = json.loads(descent_files["psi"].read_text())
    payload["objects"]["cover"]["sets"] = [[]]
    path = tmp_path / "uncovered.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    argv = ["descend", str(path), "--cover", "cover"]
    code, events = run_cli([*argv, "--map", "psi", "--gamma", "gamma", "--gamma-prime", "gamma_prime"], capsys)
    assert code == 2
    assert [e["event"] for e in events] == ["error", "summary"]
    assert events[0]["kind"] == "parse" and "cover" in events[0]["message"] and "[0]" in events[0]["message"]
    assert events[1] == {"command": "descend", "event": "summary", "exit": 2, "ok": False}


def test_check_reports_every_kind(tmp_path, capsys):
    from test_io import every_kind

    path = tmp_path / "kinds.json"
    path.write_text(vio.dumps_instance(every_kind()))
    code, events = run_cli(["check", str(path)], capsys)
    assert code == 0
    checked = {"ok": True, "violations": []}
    unchecked = {"ok": True, "note": "no checker"}
    assert events == [
        {"event": "check", "name": "c", "type": "cover", **unchecked},
        {"event": "check", "name": "f", "type": "groupoid_map", **checked},
        {"event": "check", "name": "g", "type": "groupoid", **checked},
        {"event": "check", "name": "m", "type": "vbmap", **checked},
        {"event": "check", "name": "p", "type": "partition", **unchecked},
        {"event": "check", "name": "r", "type": "ruth", **checked},
        {"event": "check", "name": "v", "type": "vbgroupoid", **checked},
        {"command": "check", "event": "summary", "exit": 0, "ok": True},
    ]


@pytest.mark.parametrize(
    "given",
    [[], ["--object", "object", "--map", "psi", "--gamma", "gamma", "--gamma-prime", "gamma_prime"]],
    ids=["neither", "both"],
)
def test_descend_needs_either_map_or_object(tmp_path, capsys, given):
    # raised before the file is read: the file does not exist
    code, events = run_cli(["descend", str(tmp_path / "absent.json"), "--cover", "cover", *given], capsys)
    assert code == 2
    assert events == [
        {"event": "error", "kind": "usage", "message": "descend needs either --map or --object"},
        {"command": "descend", "event": "summary", "exit": 2, "ok": False},
    ]


@pytest.mark.parametrize(
    "recipe,message",
    [
        ("cech-pullback:nosuch", "gen: unknown base 'nosuch'"),
        ("cech-pullback-core:nosuch", "gen: unknown base 'nosuch'"),
        ("perturbed-pullback:zz", "gen: unknown base 'zz'"),
        ("gauge:zz", "gen: unknown base 'zz'"),
        ("rank-drop:z2", "gen: rank-drop takes no base, got 'z2'"),
        ("nosuch:zz", "gen: unknown recipe 'nosuch:zz'"),
    ],
)
def test_gen_rejects_a_base_it_cannot_use(tmp_path, capsys, recipe, message):
    code, events = run_cli(["gen", "--recipe", recipe, "--seed", "0", "--out", str(tmp_path / "g")], capsys)
    assert code == 2
    assert events == [
        {"event": "error", "kind": "parse", "message": message},
        {"command": "gen", "event": "summary", "exit": 2, "ok": False},
    ]
    assert not (tmp_path / "g").exists()
