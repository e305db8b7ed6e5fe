"""construct_no_deg2 as a fresh Tree per level, for differential tests.

This is the per-level rebuild that construct ran before it kept one
working tree: every level is its own dense-id Tree, the separator and the
heavy branch come from find_separator, the smoothed branch from
induced_subtree + smooth, and the small-tree witness from the general
search's first cover at k = 1, 2, ...  Each level also keeps its map to
t's ids, in which the trace rows name vertices, and lifts by a greedy burn
of its whole tree (engine._burn) with its own part-first fill of the empty
rounds, from each round's vertices read off the burn's labels (lift).
Tests compare its certificates with construct_no_deg2's, field for field.
"""

from __future__ import annotations

from fractions import Fraction

from treeburn import BurningSequence, ceil_sqrt, validate_sequence
from treeburn.construct import (
    EXACT_FALLBACK_N,
    BoundCertificate,
    find_separator,
    smooth,
)
from treeburn.engine import _burn
from treeburn.exact import _Search
from treeburn.graphs import induced_subtree


_WITNESSES: dict = {}


def exact_witness(tree) -> BurningSequence:
    """The general search's witness at the least k, remembered per tree:
    the exhaustive tests meet the same small trees many times."""
    seq = _WITNESSES.get(tree.adjacency)
    if seq is None:
        search, k = _Search(tree), 1
        while (found := search.find(k)) is None:
            k += 1
        seq = BurningSequence(found)
        validate_sequence(tree, seq)
        _WITNESSES[tree.adjacency] = seq
    return seq


def lift(adjacency, proposals, bound, in_part):
    """The greedy burn of proposals over a connected adjacency, and its
    round count.  The part, the burned vertices in_part holds for, must
    burn within bound rounds.  Each empty round gets the lowest-id vertex
    burning in it: from the part up to the round that burns the last of
    the part, from every burned vertex after that."""
    kept, labels = _burn(adjacency, proposals, False)
    layers = [[] for _ in kept]
    for x, r in enumerate(labels):
        layers[r - 1].append(x)
    part_rounds = max(
        r for r, layer in enumerate(layers, 1) if any(map(in_part, layer))
    )
    assert part_rounds <= bound
    seq = [
        s if s is not None
        else min(layer) if r > part_rounds
        else min(filter(in_part, layer))
        for r, (s, layer) in enumerate(zip(kept, layers), 1)
    ]
    return BurningSequence(tuple(seq)), len(layers)


def reference_construct_no_deg2(t, m: int) -> BoundCertificate:
    """construct_no_deg2(t, m) without its precondition checks."""
    rows = []
    frames = []  # (level tree, v, to_parent, light marks, row), outermost first
    level, level_m = t, m
    to_input = list(range(t.n))  # the level's ids -> t's ids
    while True:
        n = level.n
        target = ceil_sqrt(n - level_m)
        row = {
            "step": "exact",
            "order": n,
            "m": level_m,
            "target": target,
            "separator": None,
            "heavy": None,
            "drop_margin": False,
        }
        rows.append(row)
        if n <= EXACT_FALLBACK_N:
            seq = exact_witness(level)
            assert len(seq) <= target
            row["length"] = len(seq)
            break
        m_eff = level_m
        if level_m >= 1 and n == level_m * (level_m + 1) + 1:
            m_eff = 0
        v, heavy, branch = find_separator(level, Fraction(4 * target - 3, 2))
        row.update(
            separator=to_input[v], heavy=to_input[heavy], drop_margin=m_eff != level_m
        )
        part = {*branch, v}
        light = [0 if x in part else 1 for x in range(n)]
        if len(branch) == 1:
            row["step"] = "pendant"
            frames.append((level, v, branch, light, row))
            seq = BurningSequence((0,))
            break
        row["step"] = "smooth"
        sub, to_level = induced_subtree(level, branch)
        smoothed, to_sub = smooth(sub, to_level.index(heavy))
        to_parent = [to_level[x] for x in to_sub]
        frames.append((level, v, to_parent, light, row))
        to_input = [to_input[x] for x in to_parent]
        level = smoothed
        level_m = m_eff - 1 if m_eff >= 1 and level.n > m_eff * m_eff else 0

    for level, v, to_parent, light, row in reversed(frames):
        assert len(seq) <= row["target"] - 1
        proposals = [v] + [to_parent[s] for s in seq.sources]
        seq, total_rounds = lift(
            level.adjacency, proposals, len(seq) + 1,
            lambda x: light[x] == 0,
        )
        assert total_rounds <= row["target"]
        row["length"] = len(seq)

    labeling = validate_sequence(t, seq)
    return BoundCertificate(t, t.n, 0, m, rows[0]["target"], seq, labeling, tuple(rows))
