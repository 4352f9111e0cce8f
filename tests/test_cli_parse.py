"""Reading `vbg` command lines: the plain routine against the argparse parser.

``cli._parse_plain`` reads plain command lines without argparse; everything else goes to
``cli.build_parser``.  The two must agree wherever the routine accepts, every command line
the tests, the CI script and the benchmark run must be plain, and a plain run must not load
argparse or the generators.
"""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import vbgroupoids
from vbgroupoids import io as vio
from vbgroupoids.cli import COMMANDS, UsageError, _parse_plain, build_parser
from vbgroupoids.groupoid import cyclic_groupoid

from test_bench_names import tracing
from test_golden import SETUP, STDOUT_CASES, WRITTEN_CASES

ROOT = Path(__file__).parents[1]

# good and bad tokens: exact, abbreviated and "=" options, help, negative and non-integer values
TOKENS = (
    *COMMANDS, "nope", "F", "x", "psi", "3", "0", "-2", " 3", "+4", "1_0", "abc", "1.5", "", "a b", "٣",
    "--pmax", "--seed", "--out", "--timings", "--names", "--cover", "--partition", "--map", "--gamma",
    "--gamma-prime", "--gamma_prime", "--object", "--recipe", "--pm", "--gam", "--nam", "--o",
    "--pmax=2", "--out=x", "-h", "--help", "--", "-", "-1", "--bogus",
)


def _argparse_vars(argv: list[str]):
    """vars() of the argparse namespace, or None on a usage error or help."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(build_parser().parse_args(argv))
    except (UsageError, SystemExit):
        return None


@st.composite
def _argvs(draw):
    """A well-formed command line in shuffled order, then up to three random edits."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, _, positionals, options, _ = COMMANDS[command]
    value = st.sampled_from(("F", "x", "3", "7", "+4", " 3", "gamma", "-2", "-h"))

    def given_options(names, max_size):
        drawn = draw(st.lists(st.sampled_from(["pmax", "seed", "out", "timings", *names]), max_size=max_size))
        return [["--timings"] if o == "timings" else [f"--{o}", draw(value)] for o in drawn]

    before = given_options((), 2)
    after = draw(st.permutations([[draw(value)] for _ in positionals] + given_options(options, 4)))
    argv = [t for group in before for t in group] + [command] + [t for group in after for t in group]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            argv.insert(i, draw(st.sampled_from(TOKENS)))
        elif i < len(argv):
            if edit == "replace":
                argv[i] = draw(st.sampled_from(TOKENS))
            else:
                del argv[i]
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=_argvs())
def test_plain_routine_agrees_with_argparse(argv):
    # accepted: argparse accepts with the same namespace; argparse errors or prints help: declined
    plain = _parse_plain(argv)
    if plain is not None:
        assert vars(plain) == _argparse_vars(argv)


def _ci_argvs() -> list[list[str]]:
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    return [shlex.split(m) for m in re.findall(r"^\s*(?:code=0; )?vbg ([^|>;\n]+)", text, re.M)]


# the CI lines that run a command line through argparse on purpose
CI_FALLBACK = [
    ["--pm", "2", "cohomology", "g/gen-gauge-pair2-3.json", "gauged0"],
    ["--pmax=2", "cohomology", "g/gen-gauge-pair2-3.json", "gauged0"],
    ["check", "-h"],
    ["--out", "check", "gen"],
]


def _bench_argvs(tmp_path, monkeypatch) -> list[list[str]]:
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    argvs = []
    for name in workloads.BUILDERS:
        wl = workloads.build(name, 1, tmp_path, tmp_path / name)
        argvs += [c.argv for c in wl.commands] + [["check", str(wl.files[0])]]  # the warm-up command
    return argvs


def test_every_command_line_the_project_runs_is_plain(tmp_path, monkeypatch):
    golden = [cmd.format(d="D", o="O").split() for cmd in SETUP + [c for _, c in STDOUT_CASES + WRITTEN_CASES]]
    ci = [argv for argv in _ci_argvs() if argv not in CI_FALLBACK]
    assert len(ci) + len(CI_FALLBACK) == len(_ci_argvs())
    for argv in golden + ci + _bench_argvs(tmp_path, monkeypatch):
        plain = _parse_plain(argv)
        assert plain is not None, argv
        assert vars(plain) == _argparse_vars(argv)
    for argv in CI_FALLBACK:
        assert _parse_plain(argv) is None


def test_plain_run_loads_the_traced_modules_and_not_argparse(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(vio.dumps_instance({"z2": vio.groupoid_to_json(cyclic_groupoid(2))}))
    script = (
        "import contextlib, io, json, sys\n"
        "bare = sorted(sys.modules)\n"
        "import vbgroupoids.cli\n"
        "imported = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = vbgroupoids.cli.main(['check', {str(path)!r}])\n"
        "print(json.dumps([code, bare, imported, sorted(sys.modules)]))\n"
    )
    src = str(Path(vbgroupoids.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    code, bare, imported, after = json.loads(done.stdout)
    assert code == 0
    # tracing.install() looks every traced module up in sys.modules
    traced = {f"vbgroupoids.{mod}" for mod, *_ in tracing.FUNCTIONS + tracing.METHODS}
    assert traced <= set(imported)
    for name in ("argparse", "vbgroupoids.generators"):
        assert name in bare or name not in after
