"""Exact burning numbers for small graphs.

Two independent routes are kept deliberately separate: burning_number() is a
pruned depth-first search over the ball-cover view of burning, while
burning_number_naive() enumerates source sequences outright and judges each
one purely by simulation.  The naive route is the arbiter in every
cross-check; the search is never trusted on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from .engine import BurningSequence, validate_sequence
from .errors import NotConnected, TooLarge
from .graphs import Graph, as_tree, bfs_distances, build_graph

NAIVE_MAX_N = 12
SPANNING_MAX_N = 8


@dataclass(frozen=True)
class ExactResult:
    burning_number: int
    witness: BurningSequence
    nodes_explored: int


def _require_connected(graph: Graph) -> None:
    if graph.n == 0 or not graph.is_connected():
        raise NotConnected("exact solving requires a connected graph")


class _Search:
    """Shared per-solve state: distance matrix, candidate order, ball masks."""

    def __init__(self, graph: Graph):
        self.n = graph.n
        self.dist = [bfs_distances(graph, v) for v in range(graph.n)]
        ecc = [max(row) for row in self.dist]
        self.order = sorted(range(graph.n), key=lambda v: (-ecc[v], v))
        self.full = (1 << graph.n) - 1
        self._ball_cache: dict[int, list[int]] = {}
        self.nodes = 0

    def balls(self, radius: int) -> list[int]:
        """Bitmask of the closed radius-ball around each vertex."""
        if radius < 0:
            return [0] * self.n
        cached = self._ball_cache.get(radius)
        if cached is not None:
            return cached
        masks = []
        for v in range(self.n):
            mask = 0
            row = self.dist[v]
            for u in range(self.n):
                if row[u] <= radius:
                    mask |= 1 << u
            masks.append(mask)
        self._ball_cache[radius] = masks
        return masks

    def find(self, k: int) -> Optional[tuple[int, ...]]:
        """A length-k source tuple whose process terminates in exactly k
        rounds, or None.

        Position i (1-based) contributes the radius-(k-i) ball to the final
        burned set and the radius-(k-1-i) ball to the set burned one round
        earlier.  A prefix is pruned when its balls plus the largest balls
        any remaining positions could contribute cannot cover the graph, or
        when the graph is already covered one round early (the process would
        terminate before round k).
        """
        ball_now = [self.balls(k - i) for i in range(1, k + 1)]
        ball_prev = [self.balls(k - 1 - i) for i in range(1, k + 1)]
        max_gain = [max(m.bit_count() for m in masks) for masks in ball_now]
        # Suffix sums: best possible coverage from positions i+1..k.
        rest = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            rest[i] = rest[i + 1] + max_gain[i]

        chosen: list[int] = []

        def extend(covered: int, covered_prev: int) -> Optional[tuple[int, ...]]:
            i = len(chosen)
            if i == k:
                self.nodes += 1
                if covered == self.full and covered_prev != self.full:
                    return tuple(chosen)
                return None
            if covered.bit_count() + rest[i] < self.n:
                return None
            if covered_prev == self.full:
                # Already fully burned one round early; no extension is valid.
                return None
            for v in self.order:
                ok = True
                for j, x in enumerate(chosen):
                    if self.dist[x][v] < i - j:  # burned before round i+1
                        ok = False
                        break
                if not ok:
                    continue
                self.nodes += 1
                chosen.append(v)
                found = extend(covered | ball_now[i][v], covered_prev | ball_prev[i][v])
                chosen.pop()
                if found is not None:
                    return found
            return None

        return extend(0, 0)


def burnable_within(g: Graph, k: int) -> Optional[BurningSequence]:
    """A valid burning sequence of length exactly k, or None if none exists."""
    _require_connected(g)
    if k < 1:
        raise ValueError("k must be positive")
    found = _Search(g).find(k)
    if found is None:
        return None
    seq = BurningSequence(found)
    validate_sequence(g, seq)  # the search result is never trusted blindly
    return seq


def burning_number(g: Graph) -> ExactResult:
    """Exact burning number with a validated witness sequence."""
    _require_connected(g)
    search = _Search(g)  # distances and ball masks shared across all k
    k = 1
    while True:
        found = search.find(k)
        if found is not None:
            seq = BurningSequence(found)
            validate_sequence(g, seq)
            return ExactResult(k, seq, search.nodes)
        k += 1


def burning_number_naive(g: Graph) -> ExactResult:
    """Burning number by enumerating every source sequence and simulating.

    No pruning beyond the definition itself; this is the independent oracle
    the clever search is compared against.  Guarded to n <= 12.
    """
    _require_connected(g)
    if g.n > NAIVE_MAX_N:
        raise TooLarge(f"naive enumeration guarded to n <= {NAIVE_MAX_N}")
    tried = 0
    for k in range(1, g.n + 1):
        for sources in permutations(range(g.n), k):
            tried += 1
            seq = BurningSequence(sources)
            try:
                validate_sequence(g, seq)
            except ValueError:
                continue
            return ExactResult(k, seq, tried)
    raise AssertionError("a connected graph is always burnable")  # pragma: no cover


def _spanning_trees(graph: Graph):
    n = graph.n
    for subset in combinations(graph.edges(), n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            yield as_tree(build_graph(n, subset))


def spanning_tree_min(g: Graph) -> int:
    """Minimum burning number over all spanning trees.  Guarded to n <= 8."""
    _require_connected(g)
    if g.n > SPANNING_MAX_N:
        raise TooLarge(f"spanning-tree enumeration guarded to n <= {SPANNING_MAX_N}")
    if g.n == 1:
        return 1
    return min(burning_number(t).burning_number for t in _spanning_trees(g))
