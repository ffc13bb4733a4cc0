"""A fixed reference kernel that measures how fast the host runs Python now.

The shared host runs the same code 1.3x to 2x slower in spells that last
from seconds to minutes, so two runs of identical code minutes apart can
differ by a quarter. ``batch.py`` times this kernel between the workload's
operations, and ``run.py`` scales each batch's operation times by
``NOMINAL_S`` over the mean kernel time of that batch. A time then reads
as seconds on a host where the kernel takes ``NOMINAL_S``: the host's
spells cancel out, while a change to the package moves the scaled times
as much as the raw ones, since the kernel does not use the package.

The kernel is plain interpreted Python like the package: it counts the
proper 4-colourings of a fixed 11-vertex graph by backtracking over dicts
and sets. It imports nothing from ``stereograph``.
"""

from __future__ import annotations

import time

# Seconds one sample takes on a 2-vCPU Xeon at 2.0 GHz with CPython 3.11
# at its usual speed; the scale only fixes the unit of the scaled times.
NOMINAL_S = 0.05
REPEATS = 18
VERTICES = 11
COLOURINGS = 432


def _neighbours() -> dict[int, frozenset[int]]:
    n = VERTICES
    return {
        v: frozenset(w for w in range(n) if w != v and (v * v + w * w + v * w) % 3 != 0)
        for v in range(n)
    }


def _extend(adjacent: dict[int, frozenset[int]], colour: dict[int, int], v: int) -> int:
    """Proper 4-colourings of vertices v.. that extend ``colour``. A plain
    recursive function, so a sample leaves no reference cycles for the
    garbage collector of the batch it runs in."""
    if v == VERTICES:
        return 1
    used = {colour[w] for w in adjacent[v] if w < v}
    found = 0
    for c in range(4):
        if c not in used:
            colour[v] = c
            found += _extend(adjacent, colour, v + 1)
    colour.pop(v, None)
    return found


def sample() -> float:
    """Seconds for one sample of the kernel; checks its answer."""
    adjacent = _neighbours()
    start = time.perf_counter()
    counts = [_extend(adjacent, {}, 0) for _ in range(REPEATS)]
    elapsed = time.perf_counter() - start
    if counts != [COLOURINGS] * REPEATS:
        raise RuntimeError(f"reference kernel counted {counts[0]} colourings, not {COLOURINGS}")
    return elapsed
