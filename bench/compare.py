"""Summarize and compare runs saved with ``run.py --save FILE``.

Usage:
    python3 bench/compare.py RUNS.jsonl              # per workload: median, quartiles, spread
    python3 bench/compare.py BEFORE.jsonl AFTER.jsonl  # adds AFTER/BEFORE median ratios

Spread is the distance between the first and third quartile over the median.  Two runs of the
same workload and seed must have been measured on identical inputs; every pair whose input
digests differ is flagged, because its timings are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for r in records:
        out[r["meta"]["workload"]].append(r)
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def digest_mismatches(runs: list[dict]) -> list[str]:
    seen: dict[tuple, str] = {}
    flagged = []
    for r in runs:
        key = (r["meta"]["workload"], r["meta"]["seed"])
        digest = r["meta"]["inputs_digest"]
        if key in seen and seen[key] != digest:
            flagged.append(f"{key[0]} seed {key[1]}: input digests differ ({seen[key][:12]} vs {digest[:12]})")
        seen.setdefault(key, digest)
    return flagged


def main(paths: list[str]) -> int:
    sets = [load(p) for p in paths]
    flagged = digest_mismatches([r for s in sets for r in s])
    for workload in sorted({r["meta"]["workload"] for s in sets for r in s}):
        groups = [by_workload(s)[workload] for s in sets]
        print(f"== {workload}: runs {[len(g) for g in groups]}, failed {[sum(r['result']['failed'] for r in g) for g in groups]}")
        metrics = groups[0][0]["result"]["metrics"] if groups[0] else {}
        for name, m in metrics.items():
            cols = []
            medians = []
            for g in groups:
                vals = [r["result"]["metrics"][name]["value"] for r in g if name in r["result"]["metrics"]]
                if not vals:
                    cols.append("-")
                    continue
                med, q1, q3, spread = summary(vals)
                medians.append(med)
                cols.append(f"median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}")
            ratio = f"  ratio {medians[1] / medians[0]:.3f}" if len(medians) == 2 and medians[0] else ""
            print(f"  {name} ({m['unit']}): " + " | ".join(cols) + ratio)
    for line in flagged:
        print(f"FLAG {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
