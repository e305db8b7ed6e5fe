"""The exact searches' results on a fixed corpus, compared with
tests/golden_exact.json.

Each record holds (burning number, witness sources, nodes_explored) of
_burning_number_general and of burning_number.  The general search's
witness feeds construct's small-tree fallback and its node count is part of
the result, so a rewrite of either search must leave every record
unchanged.  Cycles and trees plus chords are stored record by record; the
labeled trees, about 20000 of them, as one sha256 per order.  Rewrite the
file only for a change to the searches' choices that is documented in
CHANGES.md:

    PYTHONPATH=src python -m tests.test_golden_exact
"""

import hashlib
import json
from pathlib import Path

from treeburn import build_graph, burning_number, gen_cycle, gen_random_tree
from treeburn.exact import _burning_number_general
from treeburn.rng import SplitMix64

from .oracles import labeled_trees

GOLDEN = Path(__file__).with_name("golden_exact.json")
LABELED_MAX_N = 7


def tree_plus_chords(seed: int):
    """gen_random_tree(12 + seed % 20, seed) plus 1 + seed % 4 chords, each
    drawn as two SplitMix64(seed).below(n) ends until it is a new edge."""
    n = 12 + seed % 20
    edges = set(gen_random_tree(n, seed).edges())
    rng = SplitMix64(seed)
    for _ in range(1 + seed % 4):
        while True:
            u, v = rng.below(n), rng.below(n)
            if u != v and (min(u, v), max(u, v)) not in edges:
                edges.add((min(u, v), max(u, v)))
                break
    return build_graph(n, sorted(edges))


def record(g) -> dict:
    row = {}
    for name, solve in (("general", _burning_number_general), ("search", burning_number)):
        res = solve(g)
        row[name] = [res.burning_number, list(res.witness.sources), res.nodes_explored]
    return row


def graph_records() -> list[dict]:
    rows = [{"cycle": n, **record(gen_cycle(n))} for n in range(3, 22)]
    rows += [{"chords_seed": s, **record(tree_plus_chords(s))} for s in range(200)]
    return rows


def labeled_hashes() -> dict:
    return {
        str(n): hashlib.sha256(
            json.dumps([record(t) for t in labeled_trees(n)]).encode()
        ).hexdigest()
        for n in range(1, LABELED_MAX_N + 1)
    }


def test_graphs_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert graph_records() == golden["graphs"]


def test_labeled_trees_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert labeled_hashes() == golden["labeled_trees_sha256"]


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in graph_records())
    hashes = json.dumps(labeled_hashes(), indent=1)
    GOLDEN.write_text(
        f'{{"labeled_trees_sha256": {hashes},\n"graphs": [\n{rows}\n]}}\n',
        encoding="utf-8",
    )
