"""Reports: the expensive checkers run once per passing value, with the same reports, and
errors carrying a report are built only in ``report.py``."""

import ast
import gc
import json
from dataclasses import replace
from pathlib import Path

import pytest

import vbgroupoids
from vbgroupoids import io as vio
from vbgroupoids.cli import main
from vbgroupoids.report import Report, Violation, checked_once
from vbgroupoids.ruth import TwoTermRuth, check_ruth
from vbgroupoids.vb import VBGroupoid, VBMap, check_vbgroupoid, check_vbmap, direct_sum_vb, zero_vb

GOLDEN = Path(__file__).parent / "golden"
RECIPES = [
    ("gauge:z3", 4),
    ("gauge:z2", 4),
    ("honest:pair2", 0),
    ("acyclic:pt+z2", 0),
    ("sum:z2", 0),
    ("cech-pullback:z2", 0),
    ("perturbed-pullback:pt", 2),
    ("rank-drop", 0),
]
CHECKERS = {TwoTermRuth: check_ruth, VBGroupoid: check_vbgroupoid, VBMap: check_vbmap}


def _load(text: str) -> vio.Instance:
    """The checkable objects of an instance file, decoded without validation."""
    payload = json.loads(text)
    objects = payload["objects"]
    payload["objects"] = {k: o for k, o in objects.items() if o["type"] != "vbmap_iso"}
    return vio.loads_instance(json.dumps(payload), validate=False)


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    d = tmp_path_factory.mktemp("gen")
    for recipe, seed in RECIPES:
        assert main(["gen", "--recipe", recipe, "--seed", str(seed), "--out", str(d)]) == 0
    files = sorted(d.glob("gen-*.json")) + sorted(GOLDEN.glob("*.json"))
    return {f.name: _load(f.read_text(encoding="utf-8")) for f in files}


@pytest.fixture(scope="module")
def objects(instances):
    return {
        f"{file}:{name}": obj
        for file, inst in instances.items()
        for name, obj in sorted(inst.objects.items())
        if type(obj) in CHECKERS
    }


def test_decorated_and_raw_checkers_agree(objects):
    assert len(objects) > 40
    for key, obj in objects.items():
        check = CHECKERS[type(obj)]
        raw = check.__wrapped__(obj).violations
        assert check(obj).violations == raw, key
        assert check(obj).violations == raw, key


def _first(objects, kind, pick):
    return next(obj for obj in objects.values() if type(obj) is kind and pick(obj))


def _assert_fails_like_raw(check, bad):
    raw = check.__wrapped__(bad)
    assert not raw.ok
    assert check(bad).violations == raw.violations
    # a failing value is never remembered: the second call finds the same witnesses
    assert check(bad).violations == raw.violations


def test_changed_m_maps_entry_still_fails(objects):
    v = _first(objects, VBGroupoid, lambda v: any(not m.is_zero for m in v.m_maps.values()))
    assert check_vbgroupoid(v).ok
    pair = next(p for p, m in v.m_maps.items() if not m.is_zero)
    bad = replace(v, m_maps={**v.m_maps, pair: -v.m_maps[pair]})
    assert bad != v and hash(bad) == hash(v)
    _assert_fails_like_raw(check_vbgroupoid, bad)


def test_changed_gamma_entry_still_fails(objects):
    r = _first(objects, TwoTermRuth, lambda r: any(not m.is_zero for m in r.gamma.values()))
    assert check_ruth(r).ok
    pair = next(p for p, m in r.gamma.items() if not m.is_zero)
    _assert_fails_like_raw(check_ruth, replace(r, gamma={**r.gamma, pair: -r.gamma[pair]}))


def test_changed_arr_maps_entry_still_fails(objects):
    f = _first(objects, VBMap, lambda f: any(not m.is_zero for m in f.arr_maps))
    assert check_vbmap(f).ok
    a = next(a for a, m in enumerate(f.arr_maps) if not m.is_zero)
    arr = list(f.arr_maps)
    arr[a] = arr[a] + arr[a]
    _assert_fails_like_raw(check_vbmap, replace(f, arr_maps=tuple(arr)))


def test_equal_value_skips_the_check(objects, monkeypatch):
    v = _first(objects, VBGroupoid, lambda v: v.base.n_arrows > 1 and any(v.gamma_dims))
    assert check_vbgroupoid(v).ok
    same = direct_sum_vb(v, zero_vb(v.base))
    assert same == v and same is not v
    calls = []
    original = VBGroupoid.fib_string_basis

    def counted(self, arrows):
        calls.append(arrows)
        return original(self, arrows)

    monkeypatch.setattr(VBGroupoid, "fib_string_basis", counted)
    assert check_vbgroupoid(same) == Report()
    assert calls == []
    check_vbgroupoid.__wrapped__(same)
    assert calls


def test_checked_once_remembers_passing_values_weakly():
    runs = []

    class Value:
        def __init__(self, n):
            self.n = n

        def __eq__(self, other):
            return self.n == other.n

        def __hash__(self):
            return hash(self.n)

    @checked_once
    def check(value):
        runs.append(value.n)
        rep = Report()
        if value.n < 0:
            rep.add("negative", (value.n,))
        return rep

    good = Value(1)
    assert check(good).ok and check(Value(1)).ok
    assert runs == [1]
    first, second = check(Value(-1)), check(Value(-1))
    assert first.violations == second.violations == [Violation("negative", (-1,))]
    assert runs == [1, -1, -1]
    # each hit is a fresh report, so a caller adding to it changes no later result
    check(good).add("caller", ())
    assert check(good).ok
    del good
    gc.collect()
    assert check(Value(1)).ok
    assert runs == [1, -1, -1, 1]


def test_errors_with_a_report_are_built_only_in_the_report_module():
    """Elsewhere a failed precondition raises through ``Report.require`` or ``violation_error``,
    never ``InvalidStructureError(..., Report([Violation(...)]))`` written out by hand."""
    built = []
    for path in sorted(Path(vbgroupoids.__file__).parent.glob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("InvalidStructureError", "Violation"):
                    built.append(f"{path.name}:{node.lineno} {name}")
    assert built == []
