"""The brute-force arbiters: every labeled tree, the burning number by
enumerating every source sequence, and the least burning number over all
spanning trees.  No pipeline runs them; tests compare the exact searches
and construct against them, and never trust the clever paths on their own.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator

from treeburn.engine import BurningSequence, validate_sequence
from treeburn.errors import TooLarge
from treeburn.exact import ExactResult, _require_connected, burning_number
from treeburn.graphs import Graph, Tree, _tree, prufer_decode

NAIVE_MAX_N = 12
SPANNING_MAX_N = 8


def labeled_trees(n: int) -> Iterator[Tree]:
    """Every labeled tree on n vertices, in Prufer-code order."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return iter([_tree(1, [])])
    return map(prufer_decode, product(range(n), repeat=n - 2))


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
    """Every spanning tree: each n - 1 edges that graphs._tree proves a tree."""
    n = graph.n
    for subset in combinations(graph.edges(), n - 1):
        if (tree := _tree(n, subset)) is not None:
            yield tree


def spanning_tree_min(g: Graph) -> int:
    """Minimum burning number over all spanning trees.  Guarded to n <= 8."""
    _require_connected(g)
    if g.n > SPANNING_MAX_N:
        raise TooLarge(f"spanning-tree enumeration guarded to n <= {SPANNING_MAX_N}")
    if g.n == 1:
        return 1
    return min(burning_number(t).burning_number for t in _spanning_trees(g))
