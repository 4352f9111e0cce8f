"""JSON serialization of instances.

One self-describing container per file::

    {"format": 1, "objects": {name: {"type": ..., ...}}}

Rationals serialize as strings like ``-3/7`` (denominator omitted when 1),
matrices as row-major nested arrays of such strings.  Ruths omit unit-arrow
entries (implied identity/zero).  Object and arrow ids are the contiguous
integers 0..n-1: JSON integers, or decimal strings only as JSON object keys.
Dimensions are non-negative JSON integers.  Loading validates every object
before use unless disabled; covers and partitions are validated as they are
read, always.  The table :data:`KINDS` is the one place that says, for each
object type, which objects it refers to and how it is read and validated.

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
from functools import lru_cache
from typing import Any, Callable, Optional

from .descent import PartitionOfUnity
from .groupoid import FiniteGroupoid, GroupoidMap, make_groupoid, validate_groupoid, validate_map
from .linalg import Matrix
from .report import InvalidStructureError, Report
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
    """``value``, a JSON integer, as an id in 0..size-1, else a ParseError."""
    if type(value) is not int or not 0 <= value < size:
        raise ParseError(f"{where}: id {value!r} is not in 0..{size - 1}")
    return value


def _key(key: str, size: int, where: str) -> int:
    """A JSON object key as an id in 0..size-1, written the way the writers write it: ``"03"``
    is not key 3.  Only keys may hold ids as strings."""
    return _id(int(key) if key.lstrip("-").isdigit() and str(int(key)) == key else key, size, where)


def _table(data: dict, key: str, size: int, where: str) -> dict[int, Any]:
    """The table ``data[key]`` by id; a key that is not an id in 0..size-1 is a ParseError."""
    return {_key(k, size, f"{where}.{key}"): v for k, v in data.get(key, {}).items()}


def _dims(data: dict, key: str, size: int, where: str) -> tuple[int, ...]:
    """The dimension table ``data[key]`` by id; each entry must be a non-negative JSON integer."""
    tab = _table(data, key, size, where)
    for x in range(size):
        if x not in tab:
            raise ParseError(f"{where}: missing dimension entry {x}")
        if type(tab[x]) is not int or tab[x] < 0:
            raise ParseError(f"{where}.{key}[{x}]: dimension {tab[x]!r} is not a non-negative integer")
    return tuple(tab[x] for x in range(size))


def _pair_table(data: dict, key: str, g: FiniteGroupoid, where: str) -> dict[tuple[int, int], Any]:
    """The table ``data[key]`` by ``"g1,g2"`` keys, each a composable pair of ``g``, else a ParseError."""
    out = {}
    for k, v in data.get(key, {}).items():
        pair = tuple(_key(x, g.n_arrows, f"{where}.{key}") for x in k.split(","))
        if pair not in g.comp:
            raise ParseError(f"{where}.{key}: {k!r} is not a composable pair")
        out[pair] = v
    return out


_WRITTEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


@lru_cache(maxsize=4096)
def _written(x: str) -> Optional[tuple[int, int]]:
    """``x`` as a (numerator, nonzero denominator) pair if written like ``-3/7``, else None.

    Cached, because an instance file repeats few distinct entries in many matrices."""
    m = _WRITTEN(x)
    if m is None:
        return None
    num, den = m.groups()
    try:
        n, d = int(num), int(den or 1)
    except ValueError:  # more digits than int() converts: frac_from_str reports it
        return None
    return (n, d) if d else None


def _ratio(x: Any) -> tuple[int, int]:
    """A matrix entry as a (numerator, nonzero denominator) pair, not always in lowest terms."""
    written = _written(x) if type(x) is str else None
    return frac_from_str(x).as_integer_ratio() if written is None else written


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
    if not isinstance(objs, list) or not isinstance(arrows, list):
        raise ParseError(f"{where}: objects and arrows must be lists, with ids 0..n-1 in order")
    # entry i must be the id i as a JSON integer: compared with ==, false would pass for 0 and 1.0 for 1
    for key, ids in (("objects", objs), ("arrows", [a.get("id") for a in arrows])):
        for i, x in enumerate(ids):
            if _id(x, len(ids), f"{where}.{key}[{i}]") != i:
                raise ParseError(f"{where}.{key}[{i}]: id {x} is out of order")
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
    e, c = _dims(data, "E", g.n_objects, where), _dims(data, "C", g.n_objects, where)
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
    e, gd = _dims(data, "E", n, where), _dims(data, "Gamma", m, where)
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


def groupoid_map_from_json(data: dict, dom: FiniteGroupoid, cod: FiniteGroupoid, where: str) -> GroupoidMap:
    obj_map = _pairs_to_table(data.get("object_map", []), dom.n_objects, cod.n_objects, where)
    arr_map = _pairs_to_table(data.get("arrow_map", []), dom.n_arrows, cod.n_arrows, where)
    return GroupoidMap(dom, cod, obj_map, arr_map)


def cover_from_json(data: dict, base: FiniteGroupoid, where: str) -> tuple[FiniteGroupoid, tuple]:
    """``(base, sets)``; sets that are not a list of id lists covering every object are a ParseError."""
    sets = data.get("sets")
    if not isinstance(sets, list):
        raise ParseError(f"{where}: cover needs a list of sets")
    cover = tuple(tuple(sorted({_id(x, base.n_objects, where) for x in s})) for s in sets)
    missing = sorted(set(range(base.n_objects)).difference(*cover))
    if missing:
        raise ParseError(f"{where}: not a cover: objects {missing} uncovered")
    return (base, cover)


def partition_from_json(data: dict, cover: tuple, where: str) -> PartitionOfUnity:
    """A partition of unity on the ``(base, sets)`` of :func:`cover_from_json`, validated as it is read."""
    base, sets = cover
    weights = {}
    for key, w in data.get("weights", {}).items():
        i, x = key.split(",")
        weights[(_key(i, len(sets), where), _key(x, base.n_objects, where))] = frac_from_str(w)
    p = PartitionOfUnity(cover=sets, weights=weights)
    p.validate(base.n_objects).require(f"{where}: invalid partition")
    return p


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


@dataclass(frozen=True)
class Kind:
    """How an object type loads.

    Each field of ``refs`` names an object of the type paired with it; ``read(data, *those
    objects, name)`` builds the object; ``check``, None where the reader validates, reports
    as ``"<name>: invalid <label>"``.
    """

    refs: tuple[tuple[str, str], ...]
    read: Callable[..., Any]
    check: Optional[Callable[[Any], Report]]
    label: str


# Each checker is looked up by its module-level name when it runs, so that rebinding the
# name (bench/tracing.py wraps checkers this way) reaches the checks made here too.
KINDS = {
    "groupoid": Kind((), groupoid_from_json, lambda g: validate_groupoid(g), "groupoid"),
    "groupoid_map": Kind(
        (("dom", "groupoid"), ("cod", "groupoid")), groupoid_map_from_json, lambda f: validate_map(f), "groupoid map"
    ),
    "ruth": Kind((("base", "groupoid"),), ruth_from_json, lambda r: check_ruth(r), "ruth"),
    "vbgroupoid": Kind((("base", "groupoid"),), vbgroupoid_from_json, lambda v: check_vbgroupoid(v), "VB-groupoid"),
    "vbmap": Kind(
        (("source", "vbgroupoid"), ("target", "vbgroupoid")), vbmap_from_json, lambda f: check_vbmap(f), "VB-map"
    ),
    "cover": Kind((("base", "groupoid"),), cover_from_json, None, "cover"),
    "partition": Kind((("cover", "cover"),), partition_from_json, None, "partition"),
}


def loads_instance(text: str, validate: bool = True) -> Instance:
    """Decode and validate every object, each after the objects it refers to, as :data:`KINDS` says.

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
        kind = KINDS.get(data["type"])
        if kind is None:
            raise ParseError(f"{name}: unknown type {data['type']!r}")
        loading.append(name)
        for key, _ in kind.refs:
            ref = data.get(key)
            if not isinstance(ref, str) or ref not in raw:
                raise ParseError(f"{name}: unresolvable reference {key}={ref!r}")
            if ref not in inst.objects:
                load(ref)
        try:
            obj = kind.read(data, *(inst.get(data[key], want) for key, want in kind.refs), name)
            if validate and kind.check is not None:
                kind.check(obj).require(f"{name}: invalid {kind.label}")
        except (InvalidStructureError, ParseError):
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{name}: malformed {data['type']}: {type(e).__name__}: {e}") from None
        inst.objects[name] = obj
        inst.kinds[name] = data["type"]
        loading.pop()

    for name in sorted(raw):
        if name not in inst.objects:
            load(name)
    return inst
