"""Finite groupoids, functors, orbits, Morita tests, nerves, and covers.

Objects and arrows are integer ids.  The composition convention follows the
usual "strings of composable arrows" one: ``compose(g1, g2)`` is defined when
``src(g1) == tgt(g2)`` and represents g1 after g2, so a p-string
(g_1, ..., g_p) has ``src(g_i) == tgt(g_{i+1})``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import product
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .report import Report, checked_once, violation_error


@dataclass(frozen=True)
class FiniteGroupoid:
    n_objects: int
    n_arrows: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    unit: tuple[int, ...]
    inv: tuple[int, ...]
    comp: dict[tuple[int, int], int] = field(hash=False)
    # derived, filled in __post_init__
    pairs: tuple[tuple[int, int], ...] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pairs", composable_strings(self, 2)[-1])

    def compose(self, g1: int, g2: int) -> int:
        try:
            return self.comp[(g1, g2)]
        except KeyError:
            raise ValueError(f"arrows not composable: {g1}, {g2}") from None

    def compose_many(self, *gs: int) -> int:
        out = gs[0]
        for g in gs[1:]:
            out = self.compose(out, g)
        return out

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        """Arrows from x to y (src = x, tgt = y)."""
        return tuple(g for g in range(self.n_arrows) if self.src[g] == x and self.tgt[g] == y)

    def isotropy(self, x: int) -> tuple[int, ...]:
        return self.hom(x, x)

    def is_unit(self, g: int) -> bool:
        return g == self.unit[self.src[g]] and self.src[g] == self.tgt[g]

    def triples(self) -> list[tuple[int, int, int]]:
        """Composable triples (g1, g2, g3) with src g_i = tgt g_{i+1}."""
        return list(composable_strings(self, 3)[-1])


def composable_strings(
    g: FiniteGroupoid, length: int, first: Optional[Iterable[int]] = None
) -> list[tuple[tuple[int, ...], ...]]:
    """The composable strings (g_1, ..., g_p) of ``g``, src g_i = tgt g_{i+1}, for p = 1 .. length.

    Entry p - 1 lists the strings of p arrows in lexicographic order, each extending a string
    of entry p - 2 by one arrow.  With ``first``, only the strings whose first arrow is in
    ``first`` are listed, in its order, so a sorted ``first`` gives a subsequence of the full
    lists.  Arrows are joined by the values of the src and tgt tables, which need not be
    valid object ids: a table that ``validate_groupoid`` rejects still gets its strings.
    """
    into: dict[int, list[int]] = {}  # tgt value -> the arrows with that target, ascending
    for h in range(g.n_arrows):
        into.setdefault(g.tgt[h], []).append(h)
    levels = [tuple((a,) for a in (range(g.n_arrows) if first is None else first))] if length >= 1 else []
    while len(levels) < length:
        levels.append(tuple(s + (h,) for s in levels[-1] for h in into.get(g.src[s[-1]], ())))
    return levels


def make_groupoid(
    n_objects: int,
    arrows: Sequence[tuple[int, int]],
    comp: Mapping[tuple[int, int], int],
    unit: Sequence[int],
    inv: Sequence[int],
) -> FiniteGroupoid:
    src = tuple(a[0] for a in arrows)
    tgt = tuple(a[1] for a in arrows)
    return FiniteGroupoid(
        n_objects=n_objects,
        n_arrows=len(arrows),
        src=src,
        tgt=tgt,
        unit=tuple(unit),
        inv=tuple(inv),
        comp=dict(comp),
    )


@checked_once
def validate_groupoid(g: FiniteGroupoid) -> Report:
    """Check every groupoid axiom, reporting violations with witnesses."""
    rep = Report()
    n, m = g.n_objects, g.n_arrows
    if len(g.src) != m or len(g.tgt) != m or len(g.inv) != m or len(g.unit) != n:
        rep.add("tables", (), "src/tgt/inv/unit table sizes do not match")
        return rep
    for x in range(n):
        u = g.unit[x]
        if not (0 <= u < m):
            rep.add("unit-range", (x,))
            continue
        if g.src[u] != x or g.tgt[u] != x:
            rep.add("unit-endpoints", (x, u), "src(unit) = tgt(unit) = x fails")
    for gg in range(m):
        iv = g.inv[gg]
        if not (0 <= iv < m):
            rep.add("inverse-range", (gg,))
            continue
        if g.src[iv] != g.tgt[gg] or g.tgt[iv] != g.src[gg]:
            rep.add("inverse-endpoints", (gg,))
    # composition domain is exactly the composable pairs
    pairset = set(g.pairs)
    for key in g.comp:
        if key not in pairset:
            rep.add("compose-domain", key, "defined on a non-composable pair")
    for g1, g2 in g.pairs:
        if (g1, g2) not in g.comp:
            rep.add("compose-missing", (g1, g2))
            continue
        g12 = g.comp[(g1, g2)]
        if not (0 <= g12 < m) or g.src[g12] != g.src[g2] or g.tgt[g12] != g.tgt[g1]:
            rep.add("compose-endpoints", (g1, g2, g12))
    if not rep.ok:
        return rep
    for gg in range(m):
        if g.compose(gg, g.unit[g.src[gg]]) != gg or g.compose(g.unit[g.tgt[gg]], gg) != gg:
            rep.add("unit-law", (gg,))
        iv = g.inv[gg]
        if g.compose(iv, gg) != g.unit[g.src[gg]]:
            rep.add("inverse-law", (gg,), "inv(g) g != unit(src g)")
        if g.compose(gg, iv) != g.unit[g.tgt[gg]]:
            rep.add("inverse-law", (gg,), "g inv(g) != unit(tgt g)")
    for g1, g2, g3 in g.triples():
        if g.compose(g.compose(g1, g2), g3) != g.compose(g1, g.compose(g2, g3)):
            rep.add("associativity", (g1, g2, g3))
    return rep


@dataclass(frozen=True)
class GroupoidMap:
    dom: FiniteGroupoid
    cod: FiniteGroupoid
    obj_map: tuple[int, ...]
    arr_map: tuple[int, ...]


def identity_map(g: FiniteGroupoid) -> GroupoidMap:
    return GroupoidMap(g, g, tuple(range(g.n_objects)), tuple(range(g.n_arrows)))


def compose_maps(f2: GroupoidMap, f1: GroupoidMap) -> GroupoidMap:
    if f1.cod != f2.dom:
        raise ValueError("maps not composable")
    return GroupoidMap(
        f1.dom,
        f2.cod,
        tuple(f2.obj_map[x] for x in f1.obj_map),
        tuple(f2.arr_map[a] for a in f1.arr_map),
    )


def validate_map(f: GroupoidMap) -> Report:
    rep = Report()
    d, c = f.dom, f.cod
    if len(f.obj_map) != d.n_objects or len(f.arr_map) != d.n_arrows:
        rep.add("tables", (), "map table sizes wrong")
        return rep
    for g in range(d.n_arrows):
        fg = f.arr_map[g]
        if c.src[fg] != f.obj_map[d.src[g]] or c.tgt[fg] != f.obj_map[d.tgt[g]]:
            rep.add("endpoints", (g,))
        if f.arr_map[d.inv[g]] != c.inv[fg]:
            rep.add("inverse", (g,))
    for x in range(d.n_objects):
        if f.arr_map[d.unit[x]] != c.unit[f.obj_map[x]]:
            rep.add("unit", (x,))
    for g1, g2 in d.pairs:
        if f.arr_map[d.compose(g1, g2)] != c.compose(f.arr_map[g1], f.arr_map[g2]):
            rep.add("composition", (g1, g2))
    return rep


# -- orbits, isotropy, Morita --------------------------------------------------


def orbits_and_isotropy(g: FiniteGroupoid) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    validate_groupoid(g).require("orbits_and_isotropy: invalid groupoid")
    parent = list(range(g.n_objects))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(g.n_arrows):
        rx, ry = find(g.src[a]), find(g.tgt[a])
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    groups: dict[int, list[int]] = {}
    for x in range(g.n_objects):
        groups.setdefault(find(x), []).append(x)
    orbits = tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))
    isotropy = tuple(g.isotropy(x) for x in range(g.n_objects))
    return orbits, isotropy


def orbit_transports(g: FiniteGroupoid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per object x: the root r of its orbit, which is the orbit's least object, and an arrow c_x: r -> x.

    c_r is the unit at r; for any other x, c_x is the lowest-id arrow r -> x.
    """
    orbits, _ = orbits_and_isotropy(g)
    root = [0] * g.n_objects
    for orb in orbits:
        for x in orb:
            root[x] = orb[0]
    transport = list(g.unit)
    reached = {orb[0] for orb in orbits}
    for a in range(g.n_arrows):
        x = g.tgt[a]
        if g.src[a] == root[x] and x not in reached:
            reached.add(x)
            transport[x] = a
    return tuple(root), tuple(transport)


def generating_arrows(g: FiniteGroupoid) -> tuple[int, ...]:
    """Arrows T, sorted, such that every arrow is a nonempty product of arrows in T.

    Per orbit, with root r its least object: if the orbit has more objects r < x_1 < ... < x_k,
    the cycle r -> x_1 -> ... -> x_k -> r, each step but the last the lowest-id arrow between
    its two objects, and the last the arrow x_k -> r whose loop l, the composite of the cycle at
    r, generates the largest subgroup of the isotropy at r (the lowest id on a tie); then each
    isotropy arrow at r, in id order, that is not yet in the subgroup generated by l and the
    isotropy arrows taken before it; and if r is alone with trivial isotropy, its unit.

    An arrow g: x -> y is p_y h p_x, with p_x: x -> r and p_y: r -> y along the cycle (empty at
    r) and h = p_y^-1 g p_x^-1 in the isotropy at r.  The isotropy is finite, so the semigroup
    generated by l and the isotropy arrows in T is the group they generate, which is the whole
    isotropy; and l is a product of the cycle's arrows.  So h, the unit included, is a nonempty
    product of arrows in T, unless r is alone with trivial isotropy, where its unit is in T.
    """
    orbits, isotropy = orbits_and_isotropy(g)
    gens = []
    for orb in orbits:
        r = orb[0]
        loops = []
        if len(orb) > 1:
            cycle = [next(a for a in range(g.n_arrows) if (g.src[a], g.tgt[a]) == step) for step in zip(orb, orb[1:])]
            path = reduce(lambda p, a: g.compose(a, p), cycle, g.unit[r])  # r -> x_k
            closing = [a for a in range(g.n_arrows) if (g.src[a], g.tgt[a]) == (orb[-1], r)]
            last = max(closing, key=lambda a: (len(_generated(g, r, [g.compose(a, path)])), -a))
            gens += [*cycle, last]
            loops.append(g.compose(last, path))
        span = _generated(g, r, loops)
        for a in isotropy[r]:
            if a not in span:
                gens.append(a)
                loops.append(a)
                span = _generated(g, r, loops)
        if len(orb) == 1 and len(isotropy[r]) == 1:
            gens.append(g.unit[r])
    return tuple(sorted(gens))


def _generated(g: FiniteGroupoid, r: int, loops: Sequence[int]) -> set[int]:
    """The subgroup of the isotropy at ``r`` generated by the loops at ``r`` in ``loops``."""
    span, frontier = {g.unit[r]}, [g.unit[r]]
    while frontier:
        h = frontier.pop()
        for ah in (g.compose(a, h) for a in loops):
            if ah not in span:
                span.add(ah)
                frontier.append(ah)
    return span


def failing_strings(
    g: FiniteGroupoid, length: int, reduced: bool, law: Callable[..., bool]
) -> list[tuple[int, ...]]:
    """The composable strings of ``length`` arrows of ``g`` on which ``law`` fails, in order.

    With ``reduced``, ``law`` is first tried only on the strings whose first arrow lies in
    :func:`generating_arrows` of ``g``, and if it holds on all of them no other string is
    tried.  Otherwise every string is tried, so the failures are those of the full list, in
    its order.  The caller proves that ``law`` holding on the strings led by generating arrows
    implies it on all of them, and passes ``reduced`` only when that proof's premises hold.
    """
    if reduced:
        failed = [x for x in composable_strings(g, length, generating_arrows(g))[-1] if not law(*x)]
        if not failed:
            return failed
    return [x for x in composable_strings(g, length)[-1] if not law(*x)]


def orbit_index(g: FiniteGroupoid) -> list[int]:
    orbits, _ = orbits_and_isotropy(g)
    idx = [0] * g.n_objects
    for i, orb in enumerate(orbits):
        for x in orb:
            idx[x] = i
    return idx


@dataclass(frozen=True)
class MoritaCertificate:
    ok: bool
    orbit_map: tuple[int, ...]  # orbit of dom -> orbit of cod
    orbit_bijective: bool
    isotropy_iso: tuple[bool, ...]  # per object of dom
    fully_faithful: bool
    essentially_surjective: bool
    ff_witness: Optional[tuple] = None
    es_witness: Optional[tuple] = None

    @property
    def criteria_agree(self) -> bool:
        return self.ok == (self.fully_faithful and self.essentially_surjective)


def is_morita(f: GroupoidMap) -> MoritaCertificate:
    """Discrete Morita test: orbit bijection plus isotropy isomorphisms.

    The equivalent fully-faithful / essentially-surjective characterization is
    computed independently and returned alongside as a cross-check.
    """
    validate_map(f).require("is_morita: invalid functor")
    d, c = f.dom, f.cod
    dorb = orbit_index(d)
    corb = orbit_index(c)
    n_dorb = max(dorb) + 1 if dorb else 0
    n_corb = max(corb) + 1 if corb else 0

    omap = [-1] * n_dorb
    for x in range(d.n_objects):
        omap[dorb[x]] = corb[f.obj_map[x]]
    orbit_bijective = sorted(omap) == list(range(n_corb)) and len(omap) == n_corb

    iso_flags = []
    for x in range(d.n_objects):
        ix = d.isotropy(x)
        iy = c.isotropy(f.obj_map[x])
        images = [f.arr_map[a] for a in ix]
        iso_flags.append(len(set(images)) == len(ix) and set(images) == set(iy))

    # independent characterization
    fully_faithful = True
    ff_witness = None
    for x in range(d.n_objects):
        for y in range(d.n_objects):
            hom = d.hom(x, y)
            hom2 = c.hom(f.obj_map[x], f.obj_map[y])
            images = [f.arr_map[a] for a in hom]
            if len(set(images)) != len(hom) or set(images) != set(hom2):
                fully_faithful = False
                ff_witness = (x, y)
                break
        if not fully_faithful:
            break
    image_orbits = {corb[f.obj_map[x]] for x in range(d.n_objects)}
    essentially_surjective = image_orbits == set(range(n_corb))
    es_witness = None
    if not essentially_surjective:
        es_witness = tuple(sorted(set(range(n_corb)) - image_orbits))

    ok = orbit_bijective and all(iso_flags)
    return MoritaCertificate(
        ok=ok,
        orbit_map=tuple(omap),
        orbit_bijective=orbit_bijective,
        isotropy_iso=tuple(iso_flags),
        fully_faithful=fully_faithful,
        essentially_surjective=essentially_surjective,
        ff_witness=ff_witness,
        es_witness=es_witness,
    )


# -- nerve ---------------------------------------------------------------------


@dataclass(frozen=True)
class NerveStrings:
    """Composable strings per degree with lexicographic ordering.

    ``strings[0]`` lists object ids; ``strings[p]`` for p >= 1 lists p-tuples
    of arrow ids.  ``face(p, i)`` gives the index map of the i-th face from
    degree p to degree p-1; each map is built on its first use and then kept.
    """

    groupoid: FiniteGroupoid
    p_max: int
    strings: tuple[tuple, ...]
    index: tuple[dict, ...]
    _faces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def face(self, p: int, i: int) -> tuple[int, ...]:
        out = self._faces.get((p, i))
        if out is None:
            out = self._faces[(p, i)] = self._build_face(p, i)
        return out

    def _build_face(self, p: int, i: int) -> tuple[int, ...]:
        if not (1 <= p <= self.p_max) or not (0 <= i <= p):
            raise ValueError("face out of range")
        g = self.groupoid
        out = []
        for s in self.strings[p]:
            if p == 1:
                target = g.src[s[0]] if i == 0 else g.tgt[s[0]]
                out.append(self.index[0][target])
                continue
            if i == 0:
                t = s[1:]
            elif i == p:
                t = s[:-1]
            else:
                t = s[: i - 1] + (g.compose(s[i - 1], s[i]),) + s[i + 1 :]
            out.append(self.index[p - 1][t])
        return tuple(out)


def nerve(g: FiniteGroupoid, p_max: int) -> NerveStrings:
    validate_groupoid(g).require("nerve: invalid groupoid")
    levels = [tuple(range(g.n_objects)), *composable_strings(g, p_max)]
    index = tuple({s: i for i, s in enumerate(lv)} for lv in levels)
    return NerveStrings(groupoid=g, p_max=p_max, strings=tuple(levels), index=index)


# -- arrow groupoid --------------------------------------------------------------


@dataclass(frozen=True)
class ArrowGroupoid:
    """The groupoid of commutative squares of g, with its projections.

    Objects are the arrows of g.  An arrow from g to g' is a composable
    triple (g', h, g); composition is (g'', h', g')(g', h, g) = (g'', h'g'h, g).
    sigma / tau evaluate a square at its source / target corner and mu embeds
    g as identity squares; sigma(mu) = tau(mu) = id.
    """

    gi: FiniteGroupoid
    triples: tuple[tuple[int, int, int], ...]
    sigma: GroupoidMap
    tau: GroupoidMap
    mu: GroupoidMap


def arrow_groupoid(g: FiniteGroupoid) -> ArrowGroupoid:
    validate_groupoid(g).require("arrow_groupoid: invalid groupoid")
    triples = composable_strings(g, 3)[-1]
    tindex = {t: i for i, t in enumerate(triples)}
    src = tuple(t[2] for t in triples)
    tgt = tuple(t[0] for t in triples)
    unit = tuple(tindex[(gg, g.inv[gg], gg)] for gg in range(g.n_arrows))
    inv = tuple(
        tindex[(t[2], g.compose_many(g.inv[t[2]], g.inv[t[1]], g.inv[t[0]]), t[0])] for t in triples
    )
    # the tables alone give the composable pairs (t1, t2), those with src t1 = t1[2] = t2[0] = tgt t2
    shape = FiniteGroupoid(
        n_objects=g.n_arrows, n_arrows=len(triples), src=src, tgt=tgt, unit=unit, inv=inv, comp={}
    )
    comp = {}
    for i1, i2 in shape.pairs:
        (gpp, hp, gp), (_, h, gg) = triples[i1], triples[i2]
        comp[(i1, i2)] = tindex[(gpp, g.compose_many(hp, gp, h), gg)]
    gi = replace(shape, comp=comp)
    validate_groupoid(gi).require("arrow_groupoid: constructed groupoid invalid")
    sigma = GroupoidMap(gi, g, tuple(g.src), tuple(g.compose(t[1], t[2]) for t in triples))
    tau = GroupoidMap(gi, g, tuple(g.tgt), tuple(g.compose(t[0], t[1]) for t in triples))
    mu = GroupoidMap(
        g,
        gi,
        tuple(g.unit),
        tuple(tindex[(g.unit[g.tgt[a]], a, g.unit[g.src[a]])] for a in range(g.n_arrows)),
    )
    for name, f in (("sigma", sigma), ("tau", tau), ("mu", mu)):
        validate_map(f).require(f"arrow_groupoid: {name} not a functor")
    for name, f in (("sigma", sigma), ("tau", tau)):
        if compose_maps(f, mu) != identity_map(g):
            raise violation_error("arrow_groupoid: sigma mu = tau mu = id fails", "retraction", (name,))
        cert = is_morita(f)
        if not cert.ok:
            raise violation_error(
                f"arrow_groupoid: {name} not Morita",
                "morita",
                (name, cert.ff_witness, cert.es_witness),
                "(map, ff_witness, es_witness)",
            )
    return ArrowGroupoid(gi=gi, triples=triples, sigma=sigma, tau=tau, mu=mu)


# -- Cech groupoid of a cover -----------------------------------------------------


@dataclass(frozen=True)
class CechGroupoid:
    """Pullback groupoid of a cover, its projection, and the Cech kernel.

    Objects are pairs (x, i) with x in U_i, arrows are triples (g, j, i) with
    src(g) in U_i and tgt(g) in U_j.  The kernel consists of the arrows
    (unit(x), j, i); the projection pi drops cover indices and is Morita.
    ``section`` is the least-index lift, a functor with pi section = id.

    Composition and inversion act on the indices alone over a unit, so descent
    walks the kernel with ``gu.inv`` and ``gu.compose``: the inverse of
    (u_x, j, i) is (u_x, i, j), and (u_x, k, j)(u_x, j, i) = (u_x, k, i).
    """

    base: FiniteGroupoid
    cover: tuple[tuple[int, ...], ...]
    gu: FiniteGroupoid
    pi: GroupoidMap
    obj_pairs: tuple[tuple[int, int], ...]  # (x, i)
    arrow_triples: tuple[tuple[int, int, int], ...]  # (g, j, i)
    kernel_arrows: tuple[int, ...]

    def obj_id(self, x: int, i: int) -> int:
        return self._obj_index[(x, i)]

    def arrow_id(self, g: int, j: int, i: int) -> int:
        return self._arr_index[(g, j, i)]

    def kernel_arrow(self, x: int, j: int, i: int) -> int:
        """The kernel arrow (unit(x), j, i) from (x, i) to (x, j)."""
        return self.arrow_id(self.base.unit[x], j, i)

    def indices_containing(self, x: int) -> tuple[int, ...]:
        return tuple(i for i, u in enumerate(self.cover) if x in u)

    def min_index(self, x: int) -> int:
        return self.indices_containing(x)[0]

    @cached_property
    def section(self) -> GroupoidMap:
        """The least-index lift: x to (x, min_index x), a: x -> y to (a, min_index y, min_index x)."""
        g, low = self.base, self.min_index
        return GroupoidMap(
            g,
            self.gu,
            tuple(self.obj_id(x, low(x)) for x in range(g.n_objects)),
            tuple(self.arrow_id(a, low(g.tgt[a]), low(g.src[a])) for a in range(g.n_arrows)),
        )

    @cached_property
    def kernel_pairs(self) -> tuple[tuple[int, int], ...]:
        """The composable kernel pairs (x: k <- j, x: j <- i), whose composite is x: k <- i;
        listed by x, then i, j, k over the cover indices containing x."""
        return tuple(
            (self.kernel_arrow(x, k, j), self.kernel_arrow(x, j, i))
            for x in range(self.base.n_objects)
            for i, j, k in product(self.indices_containing(x), repeat=3)
        )

    @cached_property
    def _obj_index(self) -> dict:
        return {p: k for k, p in enumerate(self.obj_pairs)}

    @cached_property
    def _arr_index(self) -> dict:
        return {t: k for k, t in enumerate(self.arrow_triples)}


def cech_groupoid(g: FiniteGroupoid, cover: Sequence[Sequence[int]]) -> CechGroupoid:
    validate_groupoid(g).require("cech_groupoid: invalid groupoid")
    cov = tuple(tuple(sorted(set(u))) for u in cover)
    covered = {x for u in cov for x in u}
    if covered != set(range(g.n_objects)):
        missing = sorted(set(range(g.n_objects)) - covered)
        raise ValueError(f"not a cover: objects {missing} uncovered")
    obj_pairs = tuple((x, i) for i, u in enumerate(cov) for x in u)
    oidx = {p: k for k, p in enumerate(obj_pairs)}
    arrow_triples = tuple(
        (a, j, i)
        for j, uj in enumerate(cov)
        for i, ui in enumerate(cov)
        for a in range(g.n_arrows)
        if g.src[a] in ui and g.tgt[a] in uj
    )
    aidx = {t: k for k, t in enumerate(arrow_triples)}
    src = tuple(oidx[(g.src[a], i)] for (a, j, i) in arrow_triples)
    tgt = tuple(oidx[(g.tgt[a], j)] for (a, j, i) in arrow_triples)
    unit = tuple(aidx[(g.unit[x], i, i)] for (x, i) in obj_pairs)
    inv = tuple(aidx[(g.inv[a], i, j)] for (a, j, i) in arrow_triples)
    # the tables alone give the composable pairs: (a1, j1, i1)(a2, j2, i2) with (src a1, i1) = (tgt a2, j2)
    shape = FiniteGroupoid(
        n_objects=len(obj_pairs), n_arrows=len(arrow_triples), src=src, tgt=tgt, unit=unit, inv=inv, comp={}
    )
    comp = {}
    for k1, k2 in shape.pairs:
        (a1, j1, _), (a2, _, i2) = arrow_triples[k1], arrow_triples[k2]
        comp[(k1, k2)] = aidx[(g.compose(a1, a2), j1, i2)]
    gu = replace(shape, comp=comp)
    validate_groupoid(gu).require("cech_groupoid: constructed groupoid invalid")
    pi = GroupoidMap(gu, g, tuple(p[0] for p in obj_pairs), tuple(t[0] for t in arrow_triples))
    validate_map(pi).require("cech_groupoid: projection not a functor")
    cert = is_morita(pi)
    if not cert.ok:
        raise violation_error(
            "cech_groupoid: projection not Morita",
            "morita",
            ("pi", cert.ff_witness, cert.es_witness),
            "(map, ff_witness, es_witness)",
        )
    kernel = tuple(k for k, (a, j, i) in enumerate(arrow_triples) if g.is_unit(a))
    return CechGroupoid(
        base=g, cover=cov, gu=gu, pi=pi, obj_pairs=obj_pairs, arrow_triples=arrow_triples, kernel_arrows=kernel
    )


# -- small constructions -----------------------------------------------------------


def point_groupoid() -> FiniteGroupoid:
    return make_groupoid(1, [(0, 0)], {(0, 0): 0}, [0], [0])


def cyclic_groupoid(n: int) -> FiniteGroupoid:
    """The cyclic group Z_n as a one-object groupoid; arrow k is the class k."""
    comp = {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    return make_groupoid(1, [(0, 0)] * n, comp, [0], [(-a) % n for a in range(n)])


def pair_groupoid(n: int) -> FiniteGroupoid:
    """The pair groupoid on n objects; arrow (y, x) goes from x to y, id = y*n + x."""
    arrows = [(x, y) for y in range(n) for x in range(n)]  # id y*n+x : x -> y
    comp = {}
    for y in range(n):
        for x in range(n):
            for z in range(n):
                comp[(z * n + y, y * n + x)] = z * n + x
    unit = [x * n + x for x in range(n)]
    inv = [x * n + y for y in range(n) for x in range(n)]
    return make_groupoid(n, arrows, comp, unit, inv)


def disjoint_union(a: FiniteGroupoid, b: FiniteGroupoid) -> FiniteGroupoid:
    no, na = a.n_objects, a.n_arrows
    arrows = [(a.src[g], a.tgt[g]) for g in range(na)] + [
        (b.src[g] + no, b.tgt[g] + no) for g in range(b.n_arrows)
    ]
    comp = dict(a.comp)
    comp.update({(g1 + na, g2 + na): g + na for (g1, g2), g in b.comp.items()})
    unit = list(a.unit) + [u + na for u in b.unit]
    inv = list(a.inv) + [i + na for i in b.inv]
    return make_groupoid(no + b.n_objects, arrows, comp, unit, inv)
