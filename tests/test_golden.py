"""construct_general's burning sequences and traces on a fixed seeded corpus,
compared entry for entry with tests/golden_sequences.json and
tests/golden_traces.json.

A refactor of construct must leave every sequence and every trace row
unchanged.  The sequence file holds the sequences of the construct that
stored the nested vertex-list trace; the trace file holds the sha256 of
json.dumps(trace, sort_keys=True) from the recursive construct that ran one
burn per level.  Rewrite them only for a tie-break or trace change that is
documented in CHANGES.md:

    PYTHONPATH=src python -m tests.test_golden
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from treeburn import construct_general, gen_path, gen_random_no_deg2, gen_random_tree

GOLDEN = Path(__file__).with_name("golden_sequences.json")
GOLDEN_TRACES = Path(__file__).with_name("golden_traces.json")

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


@lru_cache(maxsize=None)
def certificates() -> tuple:
    return tuple(
        construct_general(GENERATORS[kind](n, seed)) for kind, n, seed in corpus()
    )


def sequences() -> list[dict]:
    return [
        {"kind": kind, "n": n, "seed": seed, "sequence": list(cert.sequence.sources)}
        for (kind, n, seed), cert in zip(corpus(), certificates())
    ]


def traces() -> list[dict]:
    return [
        {
            "kind": kind,
            "n": n,
            "seed": seed,
            "trace_sha256": hashlib.sha256(
                json.dumps(cert.trace, sort_keys=True).encode()
            ).hexdigest(),
        }
        for (kind, n, seed), cert in zip(corpus(), certificates())
    ]


def test_sequences_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sequences() == golden


def test_traces_match_golden_file():
    golden = json.loads(GOLDEN_TRACES.read_text(encoding="utf-8"))
    assert traces() == golden


def test_level_rows_name_distinct_vertices_of_the_grafted_tree():
    # a cut separator never comes back, so no inner level meets it again
    for cert in certificates():
        order = cert.trace[0]["order"]
        separators = []
        for row in cert.trace:
            if row["step"] in ("smooth", "pendant"):
                assert 0 <= row["separator"] < order and 0 <= row["heavy"] < order
                assert row["separator"] not in separators
                assert row["heavy"] not in separators
                separators.append(row["separator"])


def test_corpus_covers_pendant_levels():
    steps = [row["step"] for cert in certificates() for row in cert.trace]
    assert steps.count("pendant") >= 10


if __name__ == "__main__":
    for path, records in ((GOLDEN, sequences()), (GOLDEN_TRACES, traces())):
        rows = ",\n".join(json.dumps(row) for row in records)
        path.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
