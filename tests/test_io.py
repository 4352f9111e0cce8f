"""Serialization round trips and the instance-file format."""

import random
import re

import pytest

from vbgroupoids import io as vio
from vbgroupoids.generators import named_reps, random_gauge, seed_ruths
from vbgroupoids.groupoid import cech_groupoid, cyclic_groupoid, pair_groupoid
from vbgroupoids.linalg import Matrix
from vbgroupoids.ruth import make_ruth
from vbgroupoids.vb import base_change, check_vbgroupoid, grothendieck, grothendieck_map, identity_vbmap

from test_vb_memo import reference_check


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


_LONG = "7" * 5000  # more digits than int() converts by default

# the writers' form -?[0-9]+(/[0-9]+)? read with int() alone, its edge cases, and entries
# in every other form, which go through frac_from_str
ENTRY_CORPUS = [
    "0", "-0", "00", "-00/3", "1", "-1", "12", "3/07", "6/4", "-6/4", "0/5", "-3/7",
    "1/0", "1/00", "-0/0", "+3", " 3", "3 ", "3\n", "1_0", "1/1_0", "٣", "3/٣", "²",
    "0.5", "1e3", "3/-7", "3/+7", "--3", "-", "", "/3", "3/", "3/7/2", "0x10", "inf", "nan",
    True, False, 0.5, 1.0, None, [], {}, 3, -2, 10**40,
    _LONG, "-" + _LONG, "1/" + _LONG, _LONG + "/" + _LONG, "7" * 4300, "1/" + "7" * 4300,
]


def _read(x):
    try:
        return vio.matrix_from_json([[x]], 1, 1, "m")
    except vio.ParseError as e:
        return str(e)


def _reference(x):
    """The reader before int() parsing: every entry through frac_from_str."""
    try:
        return Matrix.from_rows([[vio.frac_from_str(x)]])
    except vio.ParseError as e:
        return f"m: {e}"


@pytest.mark.parametrize("entry", ENTRY_CORPUS, ids=lambda x: repr(x)[:24])
def test_entry_reader_matches_frac_from_str(entry):
    assert _read(entry) == _reference(entry)


def test_entry_corpus_covers_both_outcomes():
    read = [_read(x) for x in ENTRY_CORPUS]
    assert sum(isinstance(r, Matrix) for r in read) >= 20
    assert sum(isinstance(r, str) for r in read) >= 20


def test_matrix_reader_matches_frac_from_str_on_written_forms():
    rng = random.Random(3)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        data = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                n, d = rng.randint(-30, 30), rng.randint(1, 12)
                # unreduced "6/4", bare integers, and a zero or sign written oddly
                row.append(rng.choice([f"{n}/{d}", str(n), f"{n * d}/{d * d}", f"-0/{d}", f"{n}/0{d}"]))
            data.append(row)
        expected = Matrix.from_rows([[vio.frac_from_str(x) for x in row] for row in data])
        assert vio.matrix_from_json(data, rows, cols, "m") == expected


def test_ragged_matrix_rows_are_parse_errors():
    with pytest.raises(vio.ParseError, match="bad shape"):
        vio.matrix_from_json([["1", "2"], ["3"]], 2, 2, "m")
    with pytest.raises(vio.ParseError, match="expected 2 matrix rows"):
        vio.matrix_from_json([["1", "2"]], 2, 2, "m")
    with pytest.raises(vio.ParseError, match="expected 3 matrix columns"):
        vio.matrix_from_json([["1", "2"], ["3", "4"]], 2, 3, "m")


@pytest.mark.parametrize("row", ["12", {"1": 0, "2": 1}], ids=["string", "object"])
def test_matrix_row_must_be_a_list(row):
    # a string or an object would otherwise be read by its characters or keys, as ["1", "2"]
    with pytest.raises(vio.ParseError, match="m: matrix row 1 is not a list"):
        vio.matrix_from_json([["3", "4"], row], 2, 2, "m")


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


# -- a loaded pullback ---------------------------------------------------------------------


def test_loaded_cech_pullback_equals_the_built_one_and_checks_as_the_oracle():
    z2 = cyclic_groupoid(2)
    r, _ = random_gauge(seed_ruths("z2", z2)[-2], random.Random(5))
    cech = cech_groupoid(z2, [[0], [0], [0]])
    pulled, _ = base_change(cech.pi, grothendieck(r))
    text = vio.dumps_instance({"gu": vio.groupoid_to_json(cech.gu), "v": vio.vbgroupoid_to_json(pulled, "gu")})
    loaded = vio.loads_instance(text).get("v", "vbgroupoid")
    assert loaded == pulled
    assert len(set(loaded.s_maps)) < cech.gu.n_arrows
    assert check_vbgroupoid.__wrapped__(loaded).violations == reference_check(loaded).violations == []


@pytest.mark.parametrize("bad", [True, 1.0])
def test_entry_equal_to_an_earlier_valid_one_is_still_rejected(bad):
    # true == 1 and 1.0 == 1, but a matrix entry must be a rational: the second entry is rejected
    # although it compares equal to the first
    z2 = cyclic_groupoid(2)
    objects = {"g": vio.groupoid_to_json(z2), "v": vio.vbgroupoid_to_json(grothendieck(named_reps("z2", z2)[0]), "g")}
    objects["v"]["s"]["0"] = [[1]]
    objects["v"]["s"]["1"] = [[bad]]
    with pytest.raises(vio.ParseError) as err:
        vio.loads_instance(vio.dumps_instance(objects))
    assert str(err.value) == f"v.s[1]: bad rational {bad!r}: want a string like '-3/7'"


# -- what the loader reports -----------------------------------------------------------


def every_kind() -> dict[str, dict]:
    """One valid object of each of the seven types, over Z_2."""
    z2 = cyclic_groupoid(2)
    v = grothendieck(named_reps("z2", z2)[1])
    return {
        "g": vio.groupoid_to_json(z2),
        "f": {"type": "groupoid_map", "dom": "g", "cod": "g", "object_map": [[0, 0]], "arrow_map": [[0, 0], [1, 1]]},
        "r": vio.ruth_to_json(named_reps("z2", z2)[1], "g"),
        "v": vio.vbgroupoid_to_json(v, "g"),
        "m": vio.vbmap_to_json(identity_vbmap(v), "v", "v"),
        "c": {"type": "cover", "base": "g", "sets": [[0], [0]]},
        "p": {"type": "partition", "cover": "c", "weights": {"0,0": "1/3", "1,0": "2/3"}},
    }


def test_every_kind_loads():
    inst = vio.loads_instance(vio.dumps_instance(every_kind()))
    assert inst.kinds == {
        "c": "cover", "f": "groupoid_map", "g": "groupoid", "m": "vbmap", "p": "partition", "r": "ruth", "v": "vbgroupoid"
    }


@pytest.mark.parametrize(
    "name,field,value,message",
    [
        ("f", "dom", "r", "object 'r' has type ruth, wanted groupoid"),
        ("f", "cod", "v", "object 'v' has type vbgroupoid, wanted groupoid"),
        ("r", "base", "c", "object 'c' has type cover, wanted groupoid"),
        ("v", "base", "f", "object 'f' has type groupoid_map, wanted groupoid"),
        ("m", "source", "r", "object 'r' has type ruth, wanted vbgroupoid"),
        ("m", "target", "g", "object 'g' has type groupoid, wanted vbgroupoid"),
        ("c", "base", "m", "object 'm' has type vbmap, wanted groupoid"),
        ("p", "cover", "p", "unresolvable references among: ['p']"),
        ("p", "cover", "g", "object 'g' has type groupoid, wanted cover"),
        ("r", "base", "nosuch", "r: unresolvable reference base='nosuch'"),
        ("r", "base", 3, "r: unresolvable reference base=3"),
    ],
)
def test_reference_errors_name_the_reference(name, field, value, message):
    objects = every_kind()
    objects[name][field] = value
    with pytest.raises(vio.ParseError) as err:
        vio.loads_instance(vio.dumps_instance(objects))
    assert str(err.value) == message


def test_references_resolve_before_any_is_type_checked():
    # dom has the wrong type and cod is missing: resolving cod fails first
    objects = every_kind()
    objects["f"].update(dom="r", cod="nosuch")
    with pytest.raises(vio.ParseError, match=re.escape("f: unresolvable reference cod='nosuch'")):
        vio.loads_instance(vio.dumps_instance(objects))
    # both have the wrong type: dom is reported
    objects["f"].update(dom="r", cod="v")
    with pytest.raises(vio.ParseError, match=re.escape("object 'r' has type ruth, wanted groupoid")):
        vio.loads_instance(vio.dumps_instance(objects))


def test_unknown_type_is_named():
    objects = every_kind()
    objects["x"] = {"type": "nosuch"}
    with pytest.raises(vio.ParseError) as err:
        vio.loads_instance(vio.dumps_instance(objects))
    assert str(err.value) == "x: unknown type 'nosuch'"


def _break(objects: dict, name: str) -> None:
    if name == "g":
        objects["g"]["compose"] = [[g1, g2, 0] for g1, g2, _ in objects["g"]["compose"]]
    elif name == "f":
        objects["f"]["arrow_map"] = [[0, 1], [1, 1]]
    elif name == "r":
        objects["r"]["rhoE"]["1"] = [["2"]]
    elif name == "v":
        objects["v"]["t"]["1"] = [["2"]]
    elif name == "m":
        objects["m"]["obj"]["0"] = [["2"]]
    else:
        objects["p"]["weights"]["1,0"] = "1/3"


@pytest.mark.parametrize(
    "name,context",
    [
        ("g", "g: invalid groupoid"),
        ("f", "f: invalid groupoid map"),
        ("r", "r: invalid ruth"),
        ("v", "v: invalid VB-groupoid"),
        ("m", "m: invalid VB-map"),
        ("p", "p: invalid partition"),
    ],
)
def test_invalid_object_is_reported_in_its_context(name, context):
    from vbgroupoids.report import InvalidStructureError

    objects = every_kind()
    _break(objects, name)
    with pytest.raises(InvalidStructureError) as err:
        vio.loads_instance(vio.dumps_instance(objects))
    assert err.value.context == context
    assert not err.value.report.ok
