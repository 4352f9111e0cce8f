"""JSON serialization of instances.

One self-describing container per file::

    {"format": 1, "objects": {name: {"type": ..., ...}}}

Rationals serialize as strings like ``-3/7`` (denominator omitted when 1),
matrices as row-major nested arrays of such strings.  Ruths omit unit-arrow
entries (implied identity/zero).  Object and arrow ids are the contiguous
integers 0..n-1.  Loading validates every object before use unless disabled.

A matrix entry in the writers' form (ASCII ``-?[0-9]+(/[0-9]+)?`` with a nonzero
denominator) is read with ``int`` alone; every other entry goes through
:func:`frac_from_str`, so the reader accepts exactly the entries ``Fraction`` parsing
accepts, with the same values and the same ParseError texts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .descent import PartitionOfUnity
from .groupoid import FiniteGroupoid, GroupoidMap, make_groupoid, validate_groupoid, validate_map
from .linalg import Matrix
from .report import InvalidStructureError
from .ruth import TwoTermRuth, check_ruth, make_ruth
from .vb import VBGroupoid, VBMap, check_vbgroupoid, check_vbmap

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed instance data or unresolved references (CLI exit code 2)."""


def frac_to_str(x: Fraction) -> str:
    return str(x)


def frac_from_str(s: str) -> Fraction:
    """A rational written as a string like ``-3/7`` (a JSON integer also passes); else a ParseError.

    Floats are rejected: ``Fraction(0.5)`` would read a binary approximation as exact.
    """
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ParseError(f"bad rational {s!r}: want a string like '-3/7'")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {s!r}: {e}") from None


def _id(value: Any, size: int, where: str) -> int:
    """``value`` (an int, or a JSON key holding one) as an id in 0..size-1, else a ParseError.

    A key must be an id written the way the writers write it: ``"03"`` is not key 3.
    """
    if isinstance(value, str) and value.lstrip("-").isdigit() and str(int(value)) == value:
        value = int(value)
    if type(value) is not int or not 0 <= value < size:
        raise ParseError(f"{where}: id {value!r} is not in 0..{size - 1}")
    return value


def _table(data: dict, key: str, size: int, where: str) -> dict[int, Any]:
    """The table ``data[key]`` by id; a key that is not an id in 0..size-1 is a ParseError."""
    return {_id(k, size, f"{where}.{key}"): v for k, v in data.get(key, {}).items()}


def _pair_table(data: dict, key: str, g: FiniteGroupoid, where: str) -> dict[tuple[int, int], Any]:
    """The table ``data[key]`` by ``"g1,g2"`` keys, each a composable pair of ``g``, else a ParseError."""
    out = {}
    for k, v in data.get(key, {}).items():
        pair = tuple(_id(x, g.n_arrows, f"{where}.{key}") for x in k.split(","))
        if pair not in g.comp:
            raise ParseError(f"{where}.{key}: {k!r} is not a composable pair")
        out[pair] = v
    return out


_WRITTEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


def _ratio(x: Any) -> tuple[int, int]:
    """A matrix entry as a (numerator, nonzero denominator) pair, not always in lowest terms."""
    m = _WRITTEN(x) if type(x) is str else None
    if m is not None:
        num, den = m.groups()
        try:
            n, d = int(num), int(den or 1)
        except ValueError:  # more digits than int() converts: frac_from_str reports it
            pass
        else:
            if d:
                return n, d
    return frac_from_str(x).as_integer_ratio()


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[frac_to_str(x) for x in m.row(i)] for i in range(m.rows)]


def matrix_from_json(data: Any, rows: int, cols: int, where: str = "") -> Matrix:
    """The ``rows`` x ``cols`` matrix ``data``, a list of rows that are lists, else a ParseError."""
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"{where}: expected {rows} matrix rows")
    bad = next((i for i, row in enumerate(data) if not isinstance(row, list)), None)
    if bad is not None:
        raise ParseError(f"{where}: matrix row {bad} is not a list")
    try:
        out = Matrix.from_ratios([[_ratio(x) for x in row] for row in data], cols=cols)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{where}: {e}") from None
    if out.cols != cols:
        raise ParseError(f"{where}: expected {cols} matrix columns")
    return out


def groupoid_to_json(g: FiniteGroupoid) -> dict:
    return {
        "type": "groupoid",
        "objects": list(range(g.n_objects)),
        "arrows": [{"id": a, "src": g.src[a], "tgt": g.tgt[a]} for a in range(g.n_arrows)],
        "compose": [[g1, g2, g.comp[(g1, g2)]] for (g1, g2) in sorted(g.comp)],
        "unit": [[x, g.unit[x]] for x in range(g.n_objects)],
        "inverse": [[a, g.inv[a]] for a in range(g.n_arrows)],
    }


def groupoid_from_json(data: dict, where: str = "groupoid") -> FiniteGroupoid:
    objs = data.get("objects")
    arrows = data.get("arrows")
    if not isinstance(objs, list) or objs != list(range(len(objs))):
        raise ParseError(f"{where}: object ids must be 0..n-1 in order")
    ids = [a.get("id") for a in arrows] if isinstance(arrows, list) else None
    if ids != list(range(len(ids or []))):
        raise ParseError(f"{where}: arrow ids must be 0..m-1 in order")
    n, m = len(objs), len(arrows)
    unit = [-1] * n
    for x, u in data.get("unit", []):
        unit[_id(x, n, where)] = _id(u, m, where)
    inv = [-1] * m
    for a, b in data.get("inverse", []):
        inv[_id(a, m, where)] = _id(b, m, where)
    comp = {}
    for g1, g2, g12 in data.get("compose", []):
        comp[(_id(g1, m, where), _id(g2, m, where))] = _id(g12, m, where)
    ends = [(_id(a["src"], n, where), _id(a["tgt"], n, where)) for a in arrows]
    return make_groupoid(n, ends, comp, unit, inv)


def _pairs_to_table(pairs: Any, size: int, cod_size: int, where: str) -> tuple[int, ...]:
    table = [-1] * size
    for p in pairs:
        table[_id(p[0], size, where)] = _id(p[1], cod_size, where)
    if any(v < 0 for v in table):
        raise ParseError(f"{where}: incomplete id-pair table")
    return tuple(table)


def ruth_to_json(r: TwoTermRuth, base: str) -> dict:
    g = r.base
    out: dict[str, Any] = {
        "type": "ruth",
        "base": base,
        "E": {str(x): r.e_dims[x] for x in range(g.n_objects)},
        "C": {str(x): r.c_dims[x] for x in range(g.n_objects)},
        "anchor": {str(x): matrix_to_json(r.anchor[x]) for x in range(g.n_objects)},
        "rhoE": {str(a): matrix_to_json(r.rho_e[a]) for a in range(g.n_arrows) if not g.is_unit(a)},
        "rhoC": {str(a): matrix_to_json(r.rho_c[a]) for a in range(g.n_arrows) if not g.is_unit(a)},
        "gamma": {
            f"{g1},{g2}": matrix_to_json(r.gamma[(g1, g2)])
            for (g1, g2) in sorted(r.gamma)
            if not (g.is_unit(g1) or g.is_unit(g2))
        },
    }
    return out


def ruth_from_json(data: dict, base: FiniteGroupoid, where: str = "ruth") -> TwoTermRuth:
    g = base
    e_tab, c_tab = _table(data, "E", g.n_objects, where), _table(data, "C", g.n_objects, where)
    try:
        e = tuple(int(e_tab[x]) for x in range(g.n_objects))
        c = tuple(int(c_tab[x]) for x in range(g.n_objects))
    except KeyError as k:
        raise ParseError(f"{where}: missing dimension entry {k}") from None
    anchor = {
        x: matrix_from_json(m, e[x], c[x], f"{where}.anchor[{x}]")
        for x, m in _table(data, "anchor", g.n_objects, where).items()
    }
    rho_e = {
        a: matrix_from_json(m, e[g.tgt[a]], e[g.src[a]], f"{where}.rhoE[{a}]")
        for a, m in _table(data, "rhoE", g.n_arrows, where).items()
    }
    rho_c = {
        a: matrix_from_json(m, c[g.tgt[a]], c[g.src[a]], f"{where}.rhoC[{a}]")
        for a, m in _table(data, "rhoC", g.n_arrows, where).items()
    }
    gamma = {
        (g1, g2): matrix_from_json(m, c[g.tgt[g1]], e[g.src[g2]], f"{where}.gamma[{g1},{g2}]")
        for (g1, g2), m in _pair_table(data, "gamma", g, where).items()
    }
    return make_ruth(g, e, c, anchor=anchor, rho_e=rho_e, rho_c=rho_c, gamma=gamma)


def vbgroupoid_to_json(v: VBGroupoid, base: str) -> dict:
    g = v.base
    return {
        "type": "vbgroupoid",
        "base": base,
        "E": {str(x): v.e_dims[x] for x in range(g.n_objects)},
        "Gamma": {str(a): v.gamma_dims[a] for a in range(g.n_arrows)},
        "s": {str(a): matrix_to_json(v.s_maps[a]) for a in range(g.n_arrows)},
        "t": {str(a): matrix_to_json(v.t_maps[a]) for a in range(g.n_arrows)},
        "u": {str(x): matrix_to_json(v.u_maps[x]) for x in range(g.n_objects)},
        "m": {f"{g1},{g2}": matrix_to_json(v.m_maps[(g1, g2)]) for (g1, g2) in sorted(v.m_maps)},
    }


def vbgroupoid_from_json(data: dict, base: FiniteGroupoid, where: str = "vbgroupoid") -> VBGroupoid:
    g = base
    n, m = g.n_objects, g.n_arrows
    e_tab, gd_tab = _table(data, "E", n, where), _table(data, "Gamma", m, where)
    try:
        e = tuple(int(e_tab[x]) for x in range(n))
        gd = tuple(int(gd_tab[a]) for a in range(m))
    except KeyError as k:
        raise ParseError(f"{where}: missing dimension entry {k}") from None
    s, t, u = _table(data, "s", m, where), _table(data, "t", m, where), _table(data, "u", n, where)
    s_maps = tuple(matrix_from_json(s[a], e[g.src[a]], gd[a], f"{where}.s[{a}]") for a in range(m))
    t_maps = tuple(matrix_from_json(t[a], e[g.tgt[a]], gd[a], f"{where}.t[{a}]") for a in range(m))
    u_maps = tuple(matrix_from_json(u[x], gd[g.unit[x]], e[x], f"{where}.u[{x}]") for x in range(n))
    mult = _pair_table(data, "m", g, where)
    m_maps = {}
    for g1, g2 in g.pairs:
        if (g1, g2) not in mult:
            raise ParseError(f"{where}: missing multiplication entry {g1},{g2}")
        g12 = g.compose(g1, g2)
        m_maps[(g1, g2)] = matrix_from_json(mult[(g1, g2)], gd[g12], gd[g1] + gd[g2], f"{where}.m[{g1},{g2}]")
    return VBGroupoid(
        base=g, e_dims=e, gamma_dims=gd, s_maps=s_maps, t_maps=t_maps, u_maps=u_maps, m_maps=m_maps
    )


def vbmap_to_json(f: VBMap, source: str, target: str) -> dict:
    g = f.source.base
    return {
        "type": "vbmap",
        "source": source,
        "target": target,
        "base_map": {
            "object_map": [[x, f.base_map.obj_map[x]] for x in range(g.n_objects)],
            "arrow_map": [[a, f.base_map.arr_map[a]] for a in range(g.n_arrows)],
        },
        "obj": {str(x): matrix_to_json(f.obj_maps[x]) for x in range(g.n_objects)},
        "arr": {str(a): matrix_to_json(f.arr_maps[a]) for a in range(g.n_arrows)},
    }


def vbmap_from_json(data: dict, source: VBGroupoid, target: VBGroupoid, where: str = "vbmap") -> VBMap:
    g = source.base
    bm_data = data.get("base_map", {})
    cod, at = target.base, f"{where}.base_map"
    obj_map = _pairs_to_table(bm_data.get("object_map", []), g.n_objects, cod.n_objects, at)
    arr_map = _pairs_to_table(bm_data.get("arrow_map", []), g.n_arrows, cod.n_arrows, at)
    bm = GroupoidMap(g, target.base, obj_map, arr_map)
    obj, arr = _table(data, "obj", g.n_objects, where), _table(data, "arr", g.n_arrows, where)
    obj_maps = tuple(
        matrix_from_json(obj[x], target.e_dims[obj_map[x]], source.e_dims[x], f"{where}.obj[{x}]")
        for x in range(g.n_objects)
    )
    arr_maps = tuple(
        matrix_from_json(arr[a], target.gamma_dims[arr_map[a]], source.gamma_dims[a], f"{where}.arr[{a}]")
        for a in range(g.n_arrows)
    )
    return VBMap(source=source, target=target, base_map=bm, obj_maps=obj_maps, arr_maps=arr_maps)


# -- instance files -----------------------------------------------------------------


@dataclass
class Instance:
    """A loaded instance file: named, validated objects with resolved references."""

    objects: dict[str, Any]
    kinds: dict[str, str]

    def get(self, name: str, kind: Optional[str] = None):
        if name not in self.objects:
            raise ParseError(f"unresolved reference {name!r}")
        if kind is not None and self.kinds[name] != kind:
            raise ParseError(f"object {name!r} has type {self.kinds[name]}, wanted {kind}")
        return self.objects[name]


def dumps_instance(objects: dict[str, dict]) -> str:
    payload = {"format": FORMAT_VERSION, "objects": objects}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


# the names each object type refers to; they load first
_REFERENCES = {
    "groupoid_map": ("dom", "cod"),
    "ruth": ("base",),
    "vbgroupoid": ("base",),
    "vbmap": ("source", "target"),
    "cover": ("base",),
    "partition": ("cover",),
}


def loads_instance(text: str, validate: bool = True) -> Instance:
    """Decode and validate every object, each after the objects it refers to.

    Any malformed object ends in a ParseError that names it; a failed validation
    raises InvalidStructureError.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_VERSION:
        raise ParseError(f"missing or unsupported format version (want {FORMAT_VERSION})")
    raw = payload.get("objects")
    if not isinstance(raw, dict):
        raise ParseError("missing objects table")
    for name, data in raw.items():
        if not isinstance(data, dict) or not isinstance(data.get("type"), str):
            raise ParseError(f"{name}: an object must be a JSON object with a string 'type'")
    inst = Instance(objects={}, kinds={})
    loading: list[str] = []

    def load(name: str) -> None:
        if name in loading:
            raise ParseError(f"unresolvable references among: {sorted(loading[loading.index(name):])}")
        data = raw[name]
        loading.append(name)
        for key in _REFERENCES.get(data["type"], ()):
            ref = data.get(key)
            if not isinstance(ref, str) or ref not in raw:
                raise ParseError(f"{name}: unresolvable reference {key}={ref!r}")
            if ref not in inst.objects:
                load(ref)
        try:
            inst.objects[name] = _load_one(inst, name, data, validate)
        except (InvalidStructureError, ParseError):
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{name}: malformed {data['type']}: {type(e).__name__}: {e}") from None
        inst.kinds[name] = data["type"]
        loading.pop()

    for name in sorted(raw):
        if name not in inst.objects:
            load(name)
    return inst


def _load_one(inst: Instance, name: str, data: dict, validate: bool):
    kind = data["type"]
    if kind == "groupoid":
        g = groupoid_from_json(data, name)
        if validate:
            validate_groupoid(g).require(f"{name}: invalid groupoid")
        return g
    if kind == "groupoid_map":
        dom = inst.get(data["dom"], "groupoid")
        cod = inst.get(data["cod"], "groupoid")
        f = GroupoidMap(
            dom,
            cod,
            _pairs_to_table(data.get("object_map", []), dom.n_objects, cod.n_objects, name),
            _pairs_to_table(data.get("arrow_map", []), dom.n_arrows, cod.n_arrows, name),
        )
        if validate:
            validate_map(f).require(f"{name}: invalid groupoid map")
        return f
    if kind == "ruth":
        base = inst.get(data["base"], "groupoid")
        r = ruth_from_json(data, base, name)
        if validate:
            check_ruth(r).require(f"{name}: invalid ruth")
        return r
    if kind == "vbgroupoid":
        base = inst.get(data["base"], "groupoid")
        v = vbgroupoid_from_json(data, base, name)
        if validate:
            check_vbgroupoid(v).require(f"{name}: invalid VB-groupoid")
        return v
    if kind == "vbmap":
        source = inst.get(data["source"], "vbgroupoid")
        target = inst.get(data["target"], "vbgroupoid")
        f = vbmap_from_json(data, source, target, name)
        if validate:
            check_vbmap(f).require(f"{name}: invalid VB-map")
        return f
    if kind == "cover":
        base = inst.get(data["base"], "groupoid")
        sets = data.get("sets")
        if not isinstance(sets, list):
            raise ParseError(f"{name}: cover needs a list of sets")
        cover = tuple(tuple(sorted({_id(x, base.n_objects, name) for x in s})) for s in sets)
        missing = sorted(set(range(base.n_objects)).difference(*cover))
        if missing:
            raise ParseError(f"{name}: not a cover: objects {missing} uncovered")
        return (base, cover)
    if kind == "partition":
        base, sets = inst.get(data["cover"], "cover")
        weights = {}
        for key, w in data.get("weights", {}).items():
            i, x = key.split(",")
            weights[(_id(i, len(sets), name), _id(x, base.n_objects, name))] = frac_from_str(w)
        p = PartitionOfUnity(cover=sets, weights=weights)
        if validate:
            p.validate(base.n_objects).require(f"{name}: invalid partition")
        return p
    raise ParseError(f"{name}: unknown type {kind!r}")
