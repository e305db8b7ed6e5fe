"""construct_general's burning sequences on a fixed seeded corpus, compared
entry for entry with tests/golden_sequences.json.

A refactor of construct must leave every sequence unchanged.  The golden
file holds the sequences of the construct that stored the nested vertex-list
trace; rewrite it only for a tie-break change that is documented in
CHANGES.md:

    PYTHONPATH=src python -m tests.test_golden
"""

import json
from pathlib import Path

from treeburn import construct_general, gen_path, gen_random_no_deg2, gen_random_tree

GOLDEN = Path(__file__).with_name("golden_sequences.json")

GENERATORS = {
    "random-tree": gen_random_tree,
    "random-no-deg2": gen_random_no_deg2,
    "path": lambda n, seed: gen_path(n),
}


def corpus() -> list[tuple[str, int, int]]:
    """(kind, n, seed) triples: orders spread over 6..400, plus two large trees."""
    items = []
    for i in range(40):
        n = 6 + (i * 67) % 395
        items += [("random-tree", n, 7300 + i), ("random-no-deg2", n, 7400 + i), ("path", n, 0)]
    items += [("random-tree", 1600, 7500), ("random-tree", 3200, 7501)]
    return items


def sequences() -> list[dict]:
    return [
        {
            "kind": kind,
            "n": n,
            "seed": seed,
            "sequence": list(construct_general(GENERATORS[kind](n, seed)).sequence.sources),
        }
        for kind, n, seed in corpus()
    ]


def test_sequences_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sequences() == golden


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in sequences())
    GOLDEN.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
