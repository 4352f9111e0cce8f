"""Benchmark of the `vbg` command line: time to verdict on two workloads, with per-layer counters.

Usage (from anywhere inside a checkout):

    python3 bench/run.py --workload {verdicts,descent} --seed N --seconds S --trace {0,1}
                         [--save FILE]
    python3 bench/run.py --self-test [--seed N]

Each `vbg` command runs in its own fresh child process (bench/child.py), one at a time.  Every
output is checked against a known answer (oracle.py).  After one discarded warm-up command the
run goes through the workload's commands in turn, pass after pass, for S seconds (at least two
whole passes), and prints, as the last stdout line, one JSON object with the end-to-end metrics
of BENCHMARK.json.  Those times are scaled by the median time of a fixed standard-library task
(probe.py) run in fresh processes between the commands, which removes the host's speed drift
(see README.md).  With --trace 1 it runs one untraced pass and two traced passes instead,
checks that the traced counters repeat exactly and prints the per-layer metrics.  The line
before the result holds run metadata: seed, input digests, `src/` line count, failures.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 2
PROBE_EVERY_S = 1.5  # time the host probe again before the next command after this long
PROBE_REFERENCE_S = 0.1  # times are scaled to a host on which probe.py takes this long
RUN_LIMIT_S = 170.0  # a run must end well within 180 s
DETERMINISTIC = (".calls", ".cells", ".nnz", ".columns", ".strings", ".max_bits", ".max_cells", ".max_dim", ".repeat_share", ".bytes")


def fail_setup(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


class Runner:
    def __init__(self, workload, out_dir: Path, started: float):
        self.workload = workload
        self.out_dir = out_dir
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.failures: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, argv: list[str], trace: bool, tag: str) -> dict:
        """Run one `vbg` command in a fresh child; returns its timings, output and layer aggregates."""
        record = self.out_dir / f"{tag}.record.json"
        spans = self.out_dir / f"{tag}.spans.json"
        record.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), str(record), str(spans), "1" if trace else "0", *argv]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            elapsed = time.monotonic() - spawned
            return {"error": "timeout", "verdict_s": elapsed, "child_s": elapsed}
        elapsed = time.monotonic() - spawned
        out = {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "child_s": elapsed}
        if not record.exists():
            out.update(error="no timing record (child died)", verdict_s=elapsed)
            return out
        rec = json.loads(record.read_text(encoding="utf-8"))
        out.update(
            setup_s=rec["enter"] - spawned,
            verdict_s=rec["exit"] - rec["enter"],
            rss_mb=rec["maxrss_kb"] / 1024.0,
            layers=rec.get("layers"),
        )
        return out

    def run_command(self, i: int, trace: bool, pass_id: str) -> dict:
        """Run command ``i`` of the workload in a fresh child and check its output."""
        import oracle

        c = self.workload.commands[i]
        r = self.spawn(c.argv, trace, f"{pass_id}-{i:02d}-{c.label}")
        problem = r.get("error") or oracle.verify(c.kind, c.expect, r["returncode"], r["stdout"], r["stderr"], ROOT)
        if problem:
            self.failures.append(f"{pass_id} {c.label}: {problem}")
        r.update(command=c, failed=bool(problem))
        return r

    def run_pass(self, trace: bool, pass_id: str) -> list[dict]:
        return [self.run_command(i, trace, pass_id) for i in range(len(self.workload.commands))]

    def warmup(self) -> None:
        """One discarded command and probe before timing starts.

        Every command runs in a fresh process, so nothing warms up inside the program; what a
        first command pays for is bytecode compilation and cold OS file caches, and one
        `vbg check` on the first input pays for both.
        """
        self.spawn(["check", str(self.workload.files[0])], False, "warmup")
        self.probe()

    def probe(self) -> float:
        """Seconds the fixed task of probe.py takes in a fresh process now."""
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py")], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        return float(proc.stdout)


def pass_wall(results: list[dict]) -> float:
    return sum(r["verdict_s"] for r in results)


def raw_times(runs: list[list[dict]]) -> dict[str, float]:
    """Measured times from the runs of each command (``runs[i]``: all runs of command i)."""
    flat = [r for rs in runs for r in rs]
    medians = [statistics.median(r["verdict_s"] for r in rs) for rs in runs]
    return {
        "wall_s": sum(medians),
        "top_verdict_s": next(m for m, rs in zip(medians, runs) if rs[0]["command"].top),
        "setup_s": statistics.median(r["setup_s"] for r in flat if "setup_s" in r),
    }


def end_to_end(runs: list[list[dict]], probes: list[float]) -> dict[str, float]:
    """The end-to-end metrics: measured times scaled to the reference host speed, and peak RSS."""
    host_factor = statistics.median(probes) / PROBE_REFERENCE_S
    values = {k: v / host_factor for k, v in raw_times(runs).items()}
    values["peak_rss_mb"] = max(r["rss_mb"] for rs in runs for r in rs if "rss_mb" in r)
    return values


def layer_totals(results: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed (maxima: maxed) over its commands."""
    calls: dict[str, float] = {}
    out: dict[str, float] = {}
    for r in results:
        layers = r.get("layers")
        if not layers:
            continue
        for name, s in layers["spans"].items():
            calls[name] = calls.get(name, 0) + s["calls"]
            for key in ("calls", "time_s", "self_s"):
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + s[key]
        for key, v in layers["sums"].items():
            out[key] = out.get(key, 0) + v
        for key, v in layers["maxima"].items():
            out[key] = max(out.get(key, 0), v)
    for name in ("groupoid.validate_groupoid", "vb.inverse_matrix"):
        n = calls.get(name, 0)
        out[f"{name}.repeat_share"] = out.get(f"{name}.repeats", 0) / n if n else 0.0
    return out


def time_shares(results: list[dict]) -> dict[str, dict[str, float]]:
    """Per command: where its time went, as shares of its `cli.main` span."""
    out = {}
    for r in results:
        layers = r.get("layers")
        if not layers:
            continue
        spans = layers["spans"]
        main = spans["cli.main"]["time_s"]
        out[r["command"].label] = {
            "solve_matrix": spans.get("linalg.solve_matrix", {}).get("time_s", 0.0) / main,
            "rref_outside_solve_matrix": layers["sums"].get("linalg.rref.outside_solve_matrix_s", 0.0) / main,
            "rref_self": spans.get("linalg.rref", {}).get("self_s", 0.0) / main,
        }
    return out


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def digests(files: list[Path]) -> dict[str, str]:
    return {str(f): hashlib.sha256((ROOT / f).read_bytes()).hexdigest() for f in files}


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail_setup(f"{spec_path.name} not found at the checkout root")
    return json.loads(spec_path.read_text(encoding="utf-8"))


def import_program():
    """Put this checkout's `src/` first on the path and check the package comes from there."""
    if not (SRC / "vbgroupoids" / "cli.py").is_file():
        fail_setup(f"no program to measure: {SRC / 'vbgroupoids' / 'cli.py'} is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import vbgroupoids

    if SRC.resolve() not in Path(vbgroupoids.__file__).resolve().parents:
        fail_setup(f"vbgroupoids imported from {vbgroupoids.__file__}, not from {SRC}")


def timed_runs(runner: Runner, seconds: float) -> tuple[list[list[dict]], list[float], float]:
    """Untraced runs of the commands in turn, pass after pass, until none of them would end
    before ``seconds``; at least MIN_PASSES whole passes.  Returns the runs of each command.

    After the whole passes a command that would overrun is skipped and the shorter ones after it
    still run, so the whole time budget is measured: the host's speed drifts over tens of
    seconds, so every measured second narrows the spread between runs.  Each pass starts with
    the top instance, so a partial last pass adds a sample of it when it fits.  The host probe
    runs before a command whenever PROBE_EVERY_S have passed since it last ran; its times are
    returned too.
    """
    commands = runner.workload.commands
    n_commands = len(commands)
    order = sorted(range(n_commands), key=lambda i: not commands[i].top)
    runs: list[list[dict]] = [[] for _ in range(n_commands)]
    probes: list[float] = []
    t0 = time.monotonic()
    probed = t0 - PROBE_EVERY_S
    skipped = 0
    for n in itertools.count():
        i = order[n % n_commands]
        expected = runs[i][-1]["child_s"] if runs[i] else 0.0
        if n >= MIN_PASSES * n_commands and time.monotonic() - t0 + expected > seconds:
            skipped += 1
            if skipped == n_commands:
                break
            continue
        if expected > runner.remaining():
            break
        skipped = 0
        if time.monotonic() - probed >= PROBE_EVERY_S:
            probes.append(runner.probe())
            probed = time.monotonic()
        runs[i].append(runner.run_command(i, False, f"pass{n // n_commands}"))
    return runs, probes, time.monotonic() - t0


def traced_passes(runner: Runner) -> tuple[list[list[dict]], dict[str, float], dict[str, dict[str, float]]]:
    """One untraced and two traced passes; per-layer values and each command's time shares.

    The two traced passes must give identical counters, else the run fails.
    """
    plain = runner.run_pass(False, "plain")
    traced = [runner.run_pass(True, f"traced{i}") for i in (1, 2)]
    counters = [layer_totals(p) for p in traced]
    unequal = sorted(k for k in counters[0] if k.endswith(DETERMINISTIC) and counters[0][k] != counters[1].get(k))
    if unequal:
        runner.failures.append(f"traced counters differ between two traced passes: {unequal}")
    values = {k: (counters[0][k] + counters[1].get(k, 0)) / 2 for k in counters[0]}
    values["trace_overhead"] = statistics.mean(pass_wall(p) for p in traced) / pass_wall(plain)
    return [plain] + traced, values, time_shares(traced[1])


def measure(args, spec: dict) -> tuple[dict, dict]:
    import workloads

    started = time.monotonic()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, ROOT, work / "inputs")
    runner = Runner(wl, work / "out", started)
    runner.warmup()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": digests(wl.files),
        "src_lines": src_lines(),
        "python": sys.version.split()[0],
    }
    meta["inputs_digest"] = hashlib.sha256(json.dumps(meta["inputs"], sort_keys=True).encode()).hexdigest()
    if args.trace:
        all_results, values, meta["time_shares"] = traced_passes(runner)
        wanted = spec["per_layer"]
    else:
        all_results, probes, meta["measured_s"] = timed_runs(runner, args.seconds)
        values = end_to_end(all_results, probes)
        meta["probe_s"] = {"median": statistics.median(probes), "count": len(probes)}
        meta["raw"] = raw_times(all_results)
        meta["runs_per_command"] = {c.label: len(rs) for c, rs in zip(wl.commands, all_results)}
        meta["raw_median_verdict_s"] = {
            c.label: statistics.median(r["verdict_s"] for r in rs) for c, rs in zip(wl.commands, all_results)
        }
        wanted = spec["end_to_end"]
    attempted = sum(len(p) for p in all_results)
    failed = sum(r["failed"] for p in all_results for r in p)
    meta["failed_share"] = failed / attempted
    meta["failures"] = runner.failures[:10]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    result = {
        "correct": not runner.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return meta, result


def self_test(seed: int) -> int:
    """Plant one wrong expectation and check that the benchmark reports it as a failure."""
    import workloads

    work = WORK / "self-test"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    wl = workloads.build("verdicts", seed, ROOT, work / "inputs")
    planted = next(c for c in wl.commands if c.label == "z3-vb")
    control = next(c for c in wl.commands if c.label == "pt-cech-map.morita")
    planted.expect["h"] = [planted.expect["h"][0] + 1] + planted.expect["h"][1:]
    wl.commands = [control, planted]
    runner = Runner(wl, work / "out", time.monotonic())
    results = runner.run_pass(False, "self-test")
    failed = [r["command"].label for r in results if r["failed"]]
    print(json.dumps({"failed_share": len(failed) / len(results), "failed": failed, "failures": runner.failures}))
    ok = failed == ["z3-vb"]
    print("self-test " + ("passed: the planted wrong answer was reported" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("verdicts", "descent"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="append the metadata and result as one JSON line to this file")
    p.add_argument("--self-test", action="store_true", help="check that a planted wrong answer is reported")
    args = p.parse_args()
    spec = load_spec()
    import_program()
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None:
        p.error("--workload is required")
    meta, result = measure(args, spec)
    if args.save:
        with open(args.save, "a", encoding="utf-8") as f:
            f.write(json.dumps({"meta": meta, "result": result}, sort_keys=True) + "\n")
    for failure in meta["failures"]:
        sys.stderr.write(f"bench: FAILED {failure}\n")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
