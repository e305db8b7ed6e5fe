"""Shared hypothesis strategies and seeded helpers for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from treeburn import Tree, gen_path, prufer_decode
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
