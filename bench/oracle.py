"""Known answers for the benchmark's `vbg` commands, derived from how each input was built.

Over Q a finite groupoid has no cohomology above degree 0, so a ruth E (+) C[1]
with anchor d has H^{-1} = (ker d)^G, H^0 = (coker d)^G and nothing else.  The
benchmark builds every ruth as a gauge transform of a direct sum of honest
representations (E only), shifted representations (C only) and acyclic
summands (d = id), so

* H^{-1} = sum of dim V^G over the shifted summands,
* H^0 = sum of dim V^G over the honest summands,

and the VB-groupoid of such a ruth has H_VB^0 = H_lin^0 = H^0 and
H_VB^1 = H_lin^1 = H^{-1}.  ``dim V^G`` is summed over orbits and computed with
the character formula (1/|G_x|) sum_h tr rho(h) at one basepoint per orbit.
Nothing here reads output of the program under test.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path


def orbit_basepoints(n_objects: int, src, tgt) -> list[int]:
    """The least object of each orbit, found by union-find over the arrows."""
    parent = list(range(n_objects))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, t in zip(src, tgt):
        a, b = find(s), find(t)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return sorted({find(x) for x in range(n_objects)})


def invariant_dim(g, rho) -> int:
    """dim of the G-invariants of an honest representation with arrow matrices ``rho``."""
    total = Fraction(0)
    for x in orbit_basepoints(g.n_objects, g.src, g.tgt):
        iso = [a for a in range(g.n_arrows) if g.src[a] == x and g.tgt[a] == x]
        trace = sum((sum(rho[h].data[i][i] for i in range(rho[h].rows)) for h in iso), Fraction(0))
        total += trace / len(iso)
    if total.denominator != 1:
        raise ValueError(f"character average {total} is not an integer")
    return int(total)


def strings_into(g, p_max: int) -> list[list[int]]:
    """``out[p][x]``: number of composable p-strings (g_1..g_p) with tgt(g_1) = x."""
    out = [[1] * g.n_objects]
    for _ in range(p_max):
        prev = out[-1]
        cur = [0] * g.n_objects
        for a in range(g.n_arrows):
            cur[g.tgt[a]] += prev[g.src[a]]
        out.append(cur)
    return out


def ruth_cochain_dims(g, e_dims, c_dims, p_max: int) -> list[int]:
    """dim of C^p(G, E) (+) C^{p+1}(G, C) for p = -1 .. p_max - 1."""
    m = strings_into(g, p_max + 1)
    dims = []
    for p in range(-1, p_max):
        e_part = sum(m[p][x] * e_dims[x] for x in range(g.n_objects)) if p >= 0 else 0
        dims.append(e_part + sum(m[p + 1][x] * c_dims[x] for x in range(g.n_objects)))
    return dims


def table(h_minus1: int, h0: int, degrees) -> list[int]:
    """Expected ruth Betti numbers over ``degrees``: H^{-1}, H^0, then zeros."""
    return [h_minus1 if p == -1 else h0 if p == 0 else 0 for p in degrees]


# -- checking the JSON-lines output of one command -------------------------------------


def parse_events(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _one(events: list[dict], kind: str) -> dict:
    found = [e for e in events if e.get("event") == kind]
    if len(found) != 1:
        raise AssertionError(f"expected one {kind!r} event, got {len(found)}")
    return found[0]


def _eq(what: str, got, want) -> None:
    if got != want:
        raise AssertionError(f"{what}: got {got!r}, want {want!r}")


def check_vb_cohomology(events, expect, root: Path) -> None:
    ev = _one(events, "cohomology")
    degrees = ev["degrees"]
    _eq("degrees", [d["p"] for d in degrees], list(range(expect["p_max"])))
    _eq("H_lin", [d["dim_H_lin"] for d in degrees], expect["h"])
    _eq("H_VB", [d["dim_H_vb"] for d in degrees], expect["h"])
    for name, ok in ev["verdicts"].items():
        _eq(f"verdict {name}", ok, True)


def check_induced_map(events, expect, root: Path) -> None:
    ev = _one(events, "induced-map")
    for key in ("chain_map_ok", "preserves_projectable", "is_isomorphism"):
        _eq(key, ev[key], True)
    for key in ("h_vb_source", "h_vb_target", "ranks"):
        _eq(key, ev[key], expect["h"])


def check_vb_morita(events, expect, root: Path) -> None:
    ev = _one(events, "vb-morita")
    _eq("ok", ev["ok"], True)
    _eq("base_ok", ev["base_ok"], True)
    _eq("fibers", [f["ok"] for f in ev["fibers"]], [True] * expect["n_fibers"])


def check_ruth_cohomology(events, expect, root: Path) -> None:
    ev = _one(events, "cohomology")
    degrees = ev["degrees"]
    _eq("degrees", [d["p"] for d in degrees], list(range(-1, expect["p_max"])))
    _eq("cochain dims", [d["dim"] for d in degrees], expect["dims"])
    _eq("H", [d["dim_H"] for d in degrees], expect["h"])
    shift = _one(events, "shift-isomorphism")
    _eq("shift ok", shift["ok"], True)
    _eq("shift degrees", shift["degrees"], list(range(-1, expect["p_max"] - 1)))
    _eq("shift ruth_dims", shift["ruth_dims"], expect["h"][:-1])
    _eq("shift vb_dims", shift["vb_dims"], expect["h"][:-1])


def check_all_valid(events, expect, root: Path) -> None:
    checks = [e for e in events if e.get("event") == "check"]
    _eq("checked objects", sorted(e["name"] for e in checks), sorted(expect["names"]))
    for e in checks:
        _eq(f"check {e['name']}", e["ok"], True)


def check_split(events, expect, root: Path) -> None:
    ev = _one(events, "split")
    _eq("e_dims", ev["e_dims"], expect["e_dims"])
    _eq("c_dims", ev["c_dims"], expect["c_dims"])
    _eq("iso_ok", ev["iso_ok"], True)


def check_dual(events, expect, root: Path) -> None:
    ev = _one(events, "dual")
    _eq("gamma_dims", ev["gamma_dims"], expect["gamma_dims"])
    path = root / _one(events, "written")["path"]
    written = json.loads(path.read_text(encoding="utf-8"))["objects"][expect["written_name"]]
    _eq("written type", written["type"], "vbgroupoid")
    _eq("written Gamma", [written["Gamma"][str(a)] for a in range(len(expect["gamma_dims"]))], expect["gamma_dims"])


def check_descend_object(events, expect, root: Path) -> None:
    ev = _one(events, "descend-object")
    _eq("omega_dims", ev["omega_dims"], [0] * expect["n_cech_objects"])
    _eq("descended_e_dims", ev["descended_e_dims"], expect["e_dims"])
    _eq("comparison_invertible", ev["comparison_invertible"], True)


def check_descend_map(events, expect, root: Path) -> None:
    ev = _one(events, "descend-map")
    _eq("descended_ok", ev["descended_ok"], True)
    if not isinstance(ev["beta_nonzero"], list):
        raise AssertionError("beta_nonzero is not a list")


CHECKERS = {
    "vb-cohomology": check_vb_cohomology,
    "induced-map": check_induced_map,
    "vb-morita": check_vb_morita,
    "ruth-cohomology": check_ruth_cohomology,
    "check": check_all_valid,
    "split": check_split,
    "dual": check_dual,
    "descend-object": check_descend_object,
    "descend-map": check_descend_map,
}


def verify(kind: str, expect: dict, returncode: int, stdout: str, stderr: str, root: Path) -> str | None:
    """None when the command's output matches its known answer, else the first problem."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        events = parse_events(stdout)
    except json.JSONDecodeError as e:
        return f"stdout is not JSON lines: {e}"
    if not events or events[-1].get("event") != "summary":
        return "last line is not a summary"
    summary = events[-1]
    if returncode != 0 or summary.get("exit") != 0 or summary.get("ok") is not True:
        errors = [e.get("message") for e in events if e.get("event") == "error"]
        return f"exit code {returncode}, summary {summary}, errors {errors}"
    try:
        CHECKERS[kind](events, expect, root)
    except (AssertionError, KeyError, TypeError, ValueError, OSError) as e:
        return f"{type(e).__name__}: {e}"
    return None
