"""Serialization round trips and the instance-file format."""

import random
import re

import pytest

from vbgroupoids import io as vio
from vbgroupoids.generators import named_reps, random_gauge, seed_ruths
from vbgroupoids.groupoid import cyclic_groupoid, pair_groupoid
from vbgroupoids.linalg import Matrix
from vbgroupoids.ruth import make_ruth
from vbgroupoids.vb import grothendieck, grothendieck_map, identity_vbmap


def test_rational_strings():
    from fractions import Fraction

    assert vio.frac_to_str(Fraction(-3, 7)) == "-3/7"
    assert vio.frac_to_str(Fraction(0)) == "0"
    assert vio.frac_to_str(Fraction(5)) == "5"
    assert vio.frac_from_str("-3/7") == Fraction(-3, 7)
    with pytest.raises(vio.ParseError):
        vio.frac_from_str("1/0")


@pytest.mark.parametrize("entry", [0.5, 1.0, None, True, [], {}])
def test_matrix_entries_must_be_rational_strings(entry):
    # a float would be read as its binary approximation: only strings and integers pass
    with pytest.raises(vio.ParseError, match="bad rational"):
        vio.frac_from_str(entry)
    with pytest.raises(vio.ParseError, match="bad rational"):
        vio.matrix_from_json([["1", entry]], 1, 2, "m")
    assert vio.matrix_from_json([["1", 2]], 1, 2, "m") == Matrix.from_rows([[1, 2]])


def test_ragged_matrix_rows_are_parse_errors():
    with pytest.raises(vio.ParseError, match="bad shape"):
        vio.matrix_from_json([["1", "2"], ["3"]], 2, 2, "m")
    with pytest.raises(vio.ParseError, match="expected 2 matrix rows"):
        vio.matrix_from_json([["1", "2"]], 2, 2, "m")
    with pytest.raises(vio.ParseError, match="expected 3 matrix columns"):
        vio.matrix_from_json([["1", "2"], ["3", "4"]], 2, 3, "m")


def test_groupoid_round_trip():
    g = pair_groupoid(2)
    data = vio.groupoid_to_json(g)
    g2 = vio.groupoid_from_json(data)
    assert g2 == g


def test_ruth_round_trip_with_unit_omission():
    z2 = cyclic_groupoid(2)
    rng = random.Random(0)
    r, _ = random_gauge(seed_ruths("z2", z2)[-2], rng)
    data = vio.ruth_to_json(r, "z2")
    assert "0" not in data["rhoE"]  # unit arrow omitted
    r2 = vio.ruth_from_json(data, z2)
    assert r2 == r


def test_vbgroupoid_and_vbmap_round_trip():
    z2 = cyclic_groupoid(2)
    rng = random.Random(1)
    r, mor = random_gauge(seed_ruths("z2", z2)[-2], rng)
    v = grothendieck(r)
    data = vio.vbgroupoid_to_json(v, "z2")
    assert vio.vbgroupoid_from_json(data, z2) == v
    f = grothendieck_map(mor)
    fdata = vio.vbmap_to_json(f, "a", "b")
    f2 = vio.vbmap_from_json(fdata, f.source, f.target)
    assert f2 == f


def test_instance_file_round_trip_and_validation():
    z2 = cyclic_groupoid(2)
    sign = make_ruth(z2, (1,), (0,), rho_e={1: Matrix.from_rows([[-1]])})
    text = vio.dumps_instance(
        {"z2": vio.groupoid_to_json(z2), "sign": vio.ruth_to_json(sign, "z2")}
    )
    inst = vio.loads_instance(text)
    assert inst.get("sign", "ruth") == sign


def test_instance_unresolved_reference():
    text = vio.dumps_instance({"r": {"type": "ruth", "base": "missing", "E": {}, "C": {}}})
    with pytest.raises(vio.ParseError, match="unresolvable"):
        vio.loads_instance(text)


def test_instance_bad_format_version():
    with pytest.raises(vio.ParseError, match="format"):
        vio.loads_instance('{"format": 99, "objects": {}}')


def test_instance_validation_catches_corruption():
    z2 = cyclic_groupoid(2)
    sign = make_ruth(z2, (1,), (0,), rho_e={1: Matrix.from_rows([[-1]])})
    data = vio.ruth_to_json(sign, "z2")
    data["rhoE"]["1"] = [["2"]]  # breaks multiplicativity: 2*2 != 1
    text = vio.dumps_instance({"z2": vio.groupoid_to_json(z2), "sign": data})
    from vbgroupoids.report import InvalidStructureError

    with pytest.raises(InvalidStructureError):
        vio.loads_instance(text)


def test_dumps_deterministic():
    z2 = cyclic_groupoid(2)
    a = vio.dumps_instance({"z2": vio.groupoid_to_json(z2)})
    b = vio.dumps_instance({"z2": vio.groupoid_to_json(cyclic_groupoid(2))})
    assert a == b


def test_instance_reference_cycle():
    text = vio.dumps_instance({"f": {"type": "groupoid_map", "dom": "f", "cod": "f"}})
    with pytest.raises(vio.ParseError, match="unresolvable references among"):
        vio.loads_instance(text)


@pytest.mark.parametrize("sets,missing", [([[]], "[0, 1]"), ([[1], [1]], "[0]"), ([], "[0, 1]")])
def test_cover_must_cover_every_object(sets, missing):
    objects = {"g": vio.groupoid_to_json(pair_groupoid(2)), "c": {"type": "cover", "base": "g", "sets": sets}}
    with pytest.raises(vio.ParseError, match=re.escape(f"c: not a cover: objects {missing} uncovered")):
        vio.loads_instance(vio.dumps_instance(objects))
    objects["c"]["sets"] = [[0], [0, 1]]
    assert vio.loads_instance(vio.dumps_instance(objects)).get("c", "cover")[1] == ((0,), (0, 1))
