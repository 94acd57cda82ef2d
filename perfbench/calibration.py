"""A fixed kernel that measures how fast the machine runs right now.

On a shared machine the speed of the same pure-Python code drifts by +-20 %
or more over tens of seconds, so raw times from two runs a few minutes apart
differ by more than most changes worth measuring.  The kernel below does the
same kinds of work as the subset loop (sorting tuples, building sets and
index dicts, integer row elimination on lists), is timed next to the program,
and converts the program's times to seconds at the speed the kernel had
when ``REFERENCE_S`` was measured.  It is part of the benchmark and never
calls the package, so a change to the package does not move it.
"""

from __future__ import annotations

import random
from itertools import combinations
from time import perf_counter

# kernel seconds on the machine named in README.md (0.04-0.07 s there as its
# load changes); it only fixes the unit of the scaled times
REFERENCE_S = 0.05


def kernel() -> int:
    rng = random.Random(7)
    total = 0
    for _ in range(40):
        faces = sorted({tuple(sorted(rng.sample(range(12), 3))) for _ in range(60)})
        edges = sorted({e for f in faces for e in combinations(f, 2)})
        index = {e: i for i, e in enumerate(edges)}
        rows = [[0] * len(faces) for _ in edges]
        for j, f in enumerate(faces):
            for pos in range(3):
                rows[index[f[:pos] + f[pos + 1:]]][j] += -1 if pos % 2 else 1
        for t in range(min(len(rows), len(faces))):
            pivot = next((i for i in range(t, len(rows)) if rows[i][t]), None)
            if pivot is None:
                continue
            rows[t], rows[pivot] = rows[pivot], rows[t]
            p = rows[t][t]
            for i in range(t + 1, len(rows)):
                q = rows[i][t] // p
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[t])]
        total += len(rows)
    return total


def speed() -> float:
    """Reference kernel seconds per second of kernel time now; > 1 means faster."""
    start = perf_counter()
    kernel()
    return REFERENCE_S / (perf_counter() - start)
