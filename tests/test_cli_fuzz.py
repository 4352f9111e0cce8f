"""Fuzzing `vbg` with mutated `vbg gen` files: every run ends in a summary, never a traceback.

Each example takes one generated instance file, breaks it in one place (a ragged matrix
row, a float or non-numeric entry, a wrong row count, a matrix that is not a list, a
missing key or a junk value) and runs one of ``check``, ``split``, ``groth`` or ``dual``
on it in process.  The examples are derandomized and bounded, so the test is a fixed
regression guard.  A second test gives one id or dimension another JSON type and requires
the parse error that names it.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vbgroupoids.cli import main

RECIPES = (("gauge:pair2", 3), ("cech-pullback:z2", 0), ("perturbed-pullback:pt", 2))
JUNK = ("x", "", "1/0", "1.5e3", None, True, 7, 0.5, [], {}, ["1"], {"0": "1"})


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def gen_files(tmp_path_factory) -> list[dict]:
    root = tmp_path_factory.mktemp("gen")
    files = []
    for recipe, seed in RECIPES:
        code, stdout, _ = _run(["gen", "--recipe", recipe, "--seed", str(seed), "--out", str(root)])
        assert code == 0
        files.append(json.loads(Path(json.loads(stdout.splitlines()[0])["path"]).read_text()))
    return files


def _paths(node, path=()):
    """Every (path, value) below ``node``; a path is the keys and indices leading to the value."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _is_matrix(value) -> bool:
    return isinstance(value, list) and value != [] and all(isinstance(r, list) and all(isinstance(x, str) for x in r) for r in value)


def _set(doc, path, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _mutate(doc: dict, kind: str, pick, junk) -> None:
    """Break ``doc`` in place; ``pick(n)`` chooses an index below n."""
    objects = doc["objects"]
    if kind in ("drop-key", "junk-value"):
        paths = [p for p, _ in _paths(objects) if p]
        path = paths[pick(len(paths))]
        if kind == "drop-key" and isinstance(path[-1], str):
            parent = objects
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
        else:
            _set(objects, path, junk)
        return
    matrices = [(p, m) for p, m in _paths(objects) if _is_matrix(m)]
    path, m = matrices[pick(len(matrices))]
    i = pick(len(m))
    if kind == "ragged":
        m[i] = m[i][:-1] if m[i] else ["1"]
    elif kind == "extra-entry":
        m[i].append("0")
    elif kind == "float-entry" and m[i]:
        m[i][pick(len(m[i]))] = 0.5
    elif kind == "bad-entry" and m[i]:
        m[i][pick(len(m[i]))] = junk
    elif kind == "drop-row":
        del m[i]
    elif kind == "extra-row":
        m.insert(i, list(m[i]))
    else:  # "not-a-matrix", or an entry mutation on an empty row
        _set(objects, path, junk)


KINDS = ("ragged", "extra-entry", "float-entry", "bad-entry", "drop-row", "extra-row", "not-a-matrix", "drop-key", "junk-value")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    file=st.integers(0, len(RECIPES) - 1),
    kind=st.sampled_from(KINDS),
    picks=st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
    junk=st.sampled_from(JUNK),
    command=st.sampled_from(("check", "split", "groth", "dual")),
    name_pick=st.integers(0, 10**6),
)
def test_mutated_gen_file_ends_in_summary_without_traceback(gen_files, tmp_path_factory, file, kind, picks, junk, command, name_pick):
    doc = copy.deepcopy(gen_files[file])
    draws = iter(picks)
    _mutate(doc, kind, lambda n: next(draws) % n, junk)
    path = tmp_path_factory.mktemp("fuzz") / "mutated.json"
    path.write_text(json.dumps(doc))
    names = sorted(doc["objects"]) if isinstance(doc.get("objects"), dict) else ["missing"]
    argv = ["check", str(path)] if command == "check" else [command, str(path), names[name_pick % len(names)]]
    code, stdout, stderr = _run(argv)
    assert code in (0, 1, 2)
    summary = json.loads(stdout.splitlines()[-1])
    assert summary == {"event": "summary", "command": command, "exit": code, "ok": code == 0}
    assert "Traceback" not in stderr


# the fields whose values are ids or dimensions; object keys are not values, and may hold ids as decimal strings
INT_FIELDS = ("objects", "arrows", "unit", "inverse", "compose", "sets", "E", "C", "Gamma")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(file=st.integers(0, len(RECIPES) - 1), pick=st.integers(0, 10**6), value=st.sampled_from((True, 1.0, "1")))
def test_integer_field_of_another_json_type_is_a_parse_error(gen_files, tmp_path_factory, file, pick, value):
    # true == 1 and 1.0 == 1, and int("1") == 1, so each would pass for the integer 1 if compared or converted
    doc = copy.deepcopy(gen_files[file])
    fields = [p for p, x in _paths(doc["objects"]) if type(x) is int and p[1] in INT_FIELDS]
    _set(doc["objects"], fields[pick % len(fields)], value)
    path = tmp_path_factory.mktemp("fuzz") / "retyped.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = _run(["check", str(path)])
    error, summary = map(json.loads, stdout.splitlines()[-2:])
    assert code == 2 and summary["exit"] == 2
    assert error["event"] == "error" and error["kind"] == "parse"
    assert repr(value) in error["message"]
