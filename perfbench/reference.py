"""A fixed reference kernel that tracks the host's CPU speed during a run.

The benchmark's hosts are small shared virtual machines whose speed for the
same pure-Python work drifts by 2-4x over minutes, with no steal time and no
descheduling gaps visible from inside (perfbench/README.md, "Steadiness").
The benchmark therefore times a fixed kernel between every two inputs and
reports each timed window scaled to the speed at which the kernel takes
NOMINAL_MS:

    scaled = raw * NOMINAL_MS / local kernel time

The kernel does not call treeburn, so a change to the program never changes
it.  It mixes an integer loop with a breadth-first search over lists, dicts
and a deque, the kind of interpreter work treeburn does.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

clock = time.perf_counter

# Kernel time, in ms, at the speed every timing metric is scaled to.  It is
# a fixed constant, about what the kernel takes when the fixed calibration
# loop of run.py takes 10 ms.
NOMINAL_MS = 1.0
# A block of kernel samples lasts at least MIN_BLOCK_S, and at least
# BLOCK_SHARE of the timed work it follows, so long inputs get more samples
# around them.
MIN_BLOCK_S = 0.003
BLOCK_SHARE = 0.5

_ORDER = 600
_SOURCES = (0, 7, 13, 21)


def _tree(order: int) -> list[list[int]]:
    """A fixed tree: vertex v hangs below a vertex picked by an LCG."""
    adj: list[list[int]] = [[] for _ in range(order)]
    state = 12345
    for v in range(1, order):
        state = (state * 1103515245 + 12345) % 2**31
        u = state % v
        adj[u].append(v)
        adj[v].append(u)
    return adj


_ADJ = _tree(_ORDER)


def kernel() -> int:
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    for s in _SOURCES:
        dist = [-1] * _ORDER
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in _ADJ[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        depth = {v: d for v, d in enumerate(dist)}
        acc += max(depth.values())
    return acc


class Speedometer:
    """Blocks of kernel samples, and the scale factor they give."""

    def __init__(self):
        self.kernel_ms: list[float] = []  # every sample, for the detail line

    def block(self, after_s: float = 0.0) -> float:
        """Run kernel samples for the block's length; their median in ms."""
        target = max(MIN_BLOCK_S, BLOCK_SHARE * after_s)
        samples = []
        start = clock()
        while True:
            t0 = clock()
            kernel()
            t1 = clock()
            samples.append((t1 - t0) * 1e3)
            if t1 - start >= target:
                break
        self.kernel_ms.extend(samples)
        return statistics.median(samples)

    @staticmethod
    def factor(before_ms: float, after_ms: float) -> float:
        """Scale for a window between two blocks."""
        return NOMINAL_MS / ((before_ms + after_ms) / 2.0)
