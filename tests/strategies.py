"""Shared hypothesis strategies and seeded helpers for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from treeburn import Tree, as_tree, build_graph, gen_path, prufer_decode
from treeburn.rng import SplitMix64


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 24) -> Tree:
    n = draw(st.integers(min_n, max_n))
    if n <= 2:
        return gen_path(n)
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(code)


def random_valid_schedule(tree: Tree, seed: int) -> tuple[int | None, ...]:
    """A schedule that never violates source eligibility: at each round,
    either skip or pick a vertex that is unburned at the round's start."""
    rng = SplitMix64(seed)
    n = tree.n
    labels = [0] * n
    frontier: list[int] = []
    rounds: list[int | None] = []
    burned = 0
    r = 0
    while burned < n:
        r += 1
        newly = []
        for u in frontier:
            for w in tree.neighbors(u):
                if labels[w] == 0:
                    labels[w] = r
                    newly.append(w)
        candidates = [v for v in range(n) if labels[v] == 0 or labels[v] == r]
        if r == 1 or (candidates and rng.below(2) == 0):
            src = candidates[rng.below(len(candidates))]
            if labels[src] == 0:
                labels[src] = r
                newly.append(src)
            rounds.append(src)
        else:
            rounds.append(None)
        burned += len(newly)
        frontier = newly
    return tuple(rounds)


def _shape(edges: list[tuple[int, int]], n: int, seed: int | None) -> Tree:
    """The tree on range(n) with these edges; with a seed, under a seeded
    permutation of the ids, so tie-breaks by id fall differently."""
    ids = list(range(n))
    if seed is not None:
        rng = SplitMix64(seed)
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            ids[i], ids[j] = ids[j], ids[i]
    return as_tree(build_graph(n, [(ids[a], ids[b]) for a, b in edges]))


def caterpillar(spine: int, legs: int, seed: int, shuffle: bool = False) -> Tree:
    """A path of spine vertices, each with 0..legs seeded leaves."""
    rng = SplitMix64(seed)
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(rng.below(legs + 1)):
            edges.append((i, n))
            n += 1
    return _shape(edges, n, seed if shuffle else None)


def broom(handle: int, bristles: int, shuffle_seed: int | None = None) -> Tree:
    """A path of handle vertices with bristles leaves on its last one."""
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(bristles)]
    return _shape(edges, handle + bristles, shuffle_seed)


def spider(lengths: list[int], shuffle_seed: int | None = None) -> Tree:
    """A centre 0 with one path of each length hanging from it."""
    edges, n = [], 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return _shape(edges, n, shuffle_seed)


def bushy_path(spine: int, bushes: int, bush_max: int, seed: int,
               shuffle: bool = False) -> Tree:
    """A path of spine vertices with bushes seeded random trees of up to
    bush_max vertices, each hung from a seeded spine vertex."""
    rng = SplitMix64(seed)
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for _ in range(bushes):
        size = 1 + rng.below(bush_max)
        edges.append((rng.below(spine), n))
        for j in range(1, size):  # each vertex hangs from an earlier one
            edges.append((n + rng.below(j), n + j))
        n += size
    return _shape(edges, n, seed if shuffle else None)
