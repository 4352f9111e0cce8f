"""A fixed, program-independent task that measures how fast the host is right now.

Usage: python3 probe.py    (prints the seconds the task took, from before its imports)

The host's speed drifts by tens of percent over minutes (see README.md, Host noise), and a task
timed inside the long-lived driver does not follow it; a fresh process doing the kind of work
`vbg` does (imports, dataclasses, exact `Fraction` elimination with fresh allocations) does.
run.py scales its times by this task's median time in the same run.  Only the standard library
is used, so no change to the program can move it.
"""

import time

STARTED = time.perf_counter()

# the imports are part of the measured work
import argparse
import dataclasses
import json
from fractions import Fraction


@dataclasses.dataclass(frozen=True)
class Snapshot:
    step: int
    rows: tuple


def eliminate(n: int) -> list[Snapshot]:
    """Gauss-Jordan elimination of a fixed n x n rational matrix, keeping every step."""
    a = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] += n
    steps = []
    for col in range(n):
        pivot = a[col][col]
        row = [x / pivot for x in a[col]]
        a[col] = row
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], row)]
        steps.append(Snapshot(col, tuple(tuple(r) for r in a)))
    return steps


if __name__ == "__main__":
    steps = eliminate(24)
    assert all(steps[-1].rows[i][i] == 1 for i in range(24))
    print(time.perf_counter() - STARTED)
