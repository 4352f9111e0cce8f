"""Spans and counters around the layer functions of `vbgroupoids`, installed from outside.

Nothing under ``src/`` knows about this module.  ``install()`` replaces each listed function
with a wrapper in every `vbgroupoids` module that binds it (``cli``, ``cohomology`` and
``descent`` import by name), and each listed method on its class.  A wrapper records one span
(name, parent span, start, end) and updates the counters of its layer.  Spans stay in memory;
``finish()`` writes them out and returns per-name aggregates, where a name's ``time_s`` counts
only its outermost spans and ``self_s`` is span time not covered by child spans.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, function, span name) for module-level functions
FUNCTIONS = [
    ("linalg", "complex_cohomology", "linalg.complex_cohomology"),
    ("linalg", "chain_map_is_quasi_iso", "linalg.chain_map_is_quasi_iso"),
    ("groupoid", "nerve", "groupoid.nerve"),
    ("groupoid", "validate_groupoid", "groupoid.validate_groupoid"),
    ("groupoid", "cech_groupoid", "groupoid.cech_groupoid"),
    ("groupoid", "is_morita", "groupoid.is_morita"),
    ("ruth", "check_ruth", "ruth.check_ruth"),
    ("ruth", "check_ruth_morphism", "ruth.check_ruth_morphism"),
    ("vb", "check_vbgroupoid", "vb.check_vbgroupoid"),
    ("vb", "check_vbmap", "vb.check_vbmap"),
    ("vb", "core", "vb.core"),
    ("vb", "grothendieck", "vb.grothendieck"),
    ("vb", "split", "vb.split"),
    ("vb", "base_change", "vb.base_change"),
    ("vb", "dual_vb", "vb.dual_vb"),
    ("vb", "is_vb_morita", "vb.is_vb_morita"),
    ("cohomology", "lin_complex", "cohomology.lin_complex"),
    ("cohomology", "vb_subcomplex", "cohomology.vb_subcomplex"),
    ("cohomology", "ruth_complex", "cohomology.ruth_complex"),
    ("cohomology", "homotopy_operator", "cohomology.homotopy_operator"),
    ("cohomology", "cancellation_operator", "cohomology.cancellation_operator"),
    ("cohomology", "hvb_equals_hlin", "cohomology.hvb_equals_hlin"),
    ("cohomology", "induced_map_vb", "cohomology.induced_map_vb"),
    ("cohomology", "pullback_lin", "cohomology.pullback_lin"),
    ("cohomology", "ruth_vs_dual_vb", "cohomology.ruth_vs_dual_vb"),
    ("descent", "make_invertible", "descent.make_invertible"),
    ("descent", "symmetrize_cleavage", "descent.symmetrize_cleavage"),
    ("descent", "flatten_cleavage", "descent.flatten_cleavage"),
    ("descent", "descend_object", "descent.descend_object"),
    ("descent", "descend_map", "descent.descend_map"),
    ("descent", "descend_pipeline", "descent.descend_pipeline"),
    ("io", "loads_instance", "io.loads_instance"),
    ("io", "dumps_instance", "io.dumps_instance"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("linalg", "Matrix", "rref", "linalg.rref"),
    ("linalg", "Matrix", "solve", "linalg.solve"),
    ("linalg", "Matrix", "solve_matrix", "linalg.solve_matrix"),
    ("linalg", "Matrix", "kernel", "linalg.kernel"),
    ("linalg", "Matrix", "__mul__", "linalg.mul"),
    ("linalg", "CochainComplex", "validate", "linalg.validate"),
    ("groupoid", "NerveStrings", "face", "groupoid.face"),
    ("vb", "VBGroupoid", "inverse_matrix", "vb.inverse_matrix"),
    ("vb", "VBGroupoid", "mult_of", "vb.mult_of"),
    ("vb", "VBGroupoid", "fib_string_basis", "vb.fib_string_basis"),
]


SUMS = (
    "linalg.rref.cells",
    "linalg.rref.nnz",
    "linalg.rref.outside_solve_matrix_s",
    "linalg.solve_matrix.columns",
    "linalg.mul.cells",
    "groupoid.nerve.strings",
    "groupoid.validate_groupoid.repeats",
    "vb.inverse_matrix.repeats",
    "io.loads_instance.bytes",
    "io.dumps_instance.bytes",
)
MAXIMA = ("linalg.rref.max_cells", "linalg.rref.max_bits", "cohomology.lin_complex.max_dim")


def _bits(m) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for row in m.data for x in row),
        default=0,
    )


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_outer: list[bool] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack = [-1]
        self.active: list[int] = []  # open spans per name
        self.sums: dict[str, float] = dict.fromkeys(SUMS, 0)
        self.maxima: dict[str, float] = dict.fromkeys(MAXIMA, 0)
        self._seen_groupoids: set = set()
        self._seen_inverses: set = set()
        self._kept: list = []  # keeps objects alive so their ids stay unique
        self.hooks = {
            "linalg.rref": self._rref,
            "linalg.solve_matrix": self._solve_matrix,
            "linalg.mul": self._mul,
            "groupoid.nerve": self._nerve,
            "groupoid.validate_groupoid": self._validate_groupoid,
            "vb.inverse_matrix": self._inverse_matrix,
            "cohomology.lin_complex": self._lin_complex,
            "io.loads_instance": self._loads,
            "io.dumps_instance": self._dumps,
        }

    # -- counters --------------------------------------------------------------------

    def _rref(self, args, out, dur) -> None:
        m = args[0]
        cells = m.rows * m.cols
        self.sums["linalg.rref.cells"] += cells
        self.sums["linalg.rref.nnz"] += sum(1 for row in m.data for x in row if x)
        self.maxima["linalg.rref.max_cells"] = max(self.maxima["linalg.rref.max_cells"], cells)
        self.maxima["linalg.rref.max_bits"] = max(self.maxima["linalg.rref.max_bits"], _bits(out[0]))
        if not self.active[self.name_ids["linalg.solve_matrix"]]:
            self.sums["linalg.rref.outside_solve_matrix_s"] += dur

    def _solve_matrix(self, args, out, dur) -> None:
        self.sums["linalg.solve_matrix.columns"] += args[1].cols

    def _mul(self, args, out, dur) -> None:
        a, b = args
        self.sums["linalg.mul.cells"] += a.rows * a.cols * b.cols

    def _nerve(self, args, out, dur) -> None:
        self.sums["groupoid.nerve.strings"] += sum(len(level) for level in out.strings)

    def _validate_groupoid(self, args, out, dur) -> None:
        g = args[0]
        key = (g.n_objects, g.src, g.tgt, g.unit, g.inv, tuple(sorted(g.comp.items())))
        if key in self._seen_groupoids:
            self.sums["groupoid.validate_groupoid.repeats"] += 1
        self._seen_groupoids.add(key)

    def _inverse_matrix(self, args, out, dur) -> None:
        v, arrow = args
        key = (id(v), arrow)
        if key in self._seen_inverses:
            self.sums["vb.inverse_matrix.repeats"] += 1
        else:
            self._kept.append(v)
        self._seen_inverses.add(key)

    def _lin_complex(self, args, out, dur) -> None:
        self.maxima["cohomology.lin_complex.max_dim"] = max(
            self.maxima["cohomology.lin_complex.max_dim"], max(out.complex.dims)
        )

    def _loads(self, args, out, dur) -> None:
        self.sums["io.loads_instance.bytes"] += len(args[0].encode("utf-8"))

    def _dumps(self, args, out, dur) -> None:
        self.sums["io.dumps_instance.bytes"] += len(out.encode("utf-8"))

    # -- spans -----------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = self.hooks.get(name)
        clock = time.perf_counter
        span_name, span_parent, span_outer = self.span_name, self.span_parent, self.span_outer
        span_start, span_end, stack, active = self.span_start, self.span_end, self.stack, self.active

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_outer.append(not active[nid])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(i)
            active[nid] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[nid] -= 1
                stack.pop()
                span_start[i] = t0
                span_end[i] = t1
            if hook is not None:
                hook(args, out, t1 - t0)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def finish(self, spans_path: str) -> dict:
        """Write the spans to ``spans_path`` and return per-name calls, time_s and self_s plus counters."""
        n = len(self.span_name)
        covered = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += self.span_end[i] - self.span_start[i]
        stats = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            s = stats[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            s["calls"] += 1
            s["self_s"] += dur - covered[i]
            if self.span_outer[i]:
                s["time_s"] += dur
        spans = {
            "command": Path(spans_path).stem,
            "names": self.names,
            "fields": ["name", "parent", "start", "end"],
            "spans": [
                [self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i]] for i in range(n)
            ],
        }
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(spans, f, separators=(",", ":"))
        return {"spans": stats, "sums": dict(self.sums), "maxima": dict(self.maxima)}


def install() -> Tracer:
    """Wrap every listed function and method of the already imported `vbgroupoids` modules."""
    tracer = Tracer()
    modules = [m for name, m in sorted(sys.modules.items()) if name == "vbgroupoids" or name.startswith("vbgroupoids.")]
    for mod, fname, span in FUNCTIONS:
        original = getattr(sys.modules[f"vbgroupoids.{mod}"], fname)
        wrapped = tracer.wrap(span, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
    for mod, cls_name, meth, span in METHODS:
        cls = getattr(sys.modules[f"vbgroupoids.{mod}"], cls_name)
        setattr(cls, meth, tracer.wrap(span, getattr(cls, meth)))
    return tracer
