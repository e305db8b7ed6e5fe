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

PINNED holds, for full binary trees and double stars, where the lift lowers
a label many times per vertex, the sha256 of json.dumps([sequence, trace],
sort_keys=True).  It is written by hand, not by the command above.
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from treeburn import (
    construct_general,
    gen_double_star,
    gen_full_binary,
    gen_path,
    gen_random_no_deg2,
    gen_random_tree,
)

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


PINNED = {
    ("full-binary", 1): "bf2efdae16a40737f53d63280de6364fce6798e48b27fe517ecb1f84dd80f199",
    ("full-binary", 2): "87d040ae085fe1ad3edda0b06c7b30f807b3ecaf894fad3a5d806c6791571d3e",
    ("full-binary", 3): "450511e6f749aa031428cdb972e75e91267cf44f04cee560e57c64db7a462dd4",
    ("full-binary", 4): "d4add70132bec8b4ee5c01e8716aa7d57934abc6814302f94acb24f6c0cc6aef",
    ("full-binary", 5): "047f1c862bead88f2d29a9e79c8a3b8df0c53b248a78ac23b16115453a6ad918",
    ("full-binary", 6): "bf415c3ce0e5d8656627af308fdb790960e02e5466afbedcd91e44ceeebc8cad",
    ("full-binary", 7): "4fa00ee07ba85bb0f9fc6cd0d8fae09f15d24013c402f7c7096be7e6bae56910",
    ("full-binary", 8): "d6ab3836a8fa825d6814ba5e55bd13961c4c596c4e86e47bdcb5e9abcabe8683",
    ("full-binary", 9): "28eae1689a02074c8f625c6d3e3e59070690cb8dc98f81e30e3c74cfddba8558",
    ("full-binary", 10): "8e328d2dcd7ccc12abc34b3e7ce93348e17f3a2fa5aff9e57fcee34efdeae111",
    ("full-binary", 11): "a9964e8251afa3a8d2692d15377f25966b518fb761e734f3e5ef25c507b9d5cd",
    ("full-binary", 12): "1fd234f3937c2a784cfea36f36a254b333d9577b4d331d9852e52762bbce1503",
    ("full-binary", 13): "bd453bb9be6872b149ed53a85a48b205b13a7740be788c3405c7d0a03d4e6856",
    ("full-binary", 14): "ca0cc127004009c5ce9a5528057dacc6228f8760653cf59cb3ad3f761156434f",
    ("double-star", 0, 0): "66e96b267e259c32cf4cfc8a6b77dd20f575d10b125815518a617a0d0d643e4f",
    ("double-star", 1, 1): "813fcfd1e929a86fe57bc4285592bd15b549bb89deae40e5e0418fca79406376",
    ("double-star", 2, 7): "5b3c469e112e7d82228208e0c96fa9170c7c00ec51cb4781c543160dbb14becd",
    ("double-star", 40, 60): "0ff5eac0e84fd216970713be2e10b0b36cbdb2e0f0883ed15fff74f187aa838a",
    ("double-star", 100, 3): "1d7647d53b505e426991d6b0401f72dfc053d70625973be9125d2312ff12f933",
    ("double-star", 250, 250): "3e6c31d750def80d46ce03d5a29b53e06e4efe53fccfd0f524c04c271ef2c1f2",
}


@pytest.mark.parametrize("key", PINNED, ids=lambda key: "-".join(map(str, key)))
def test_full_binary_and_double_star_sequences_and_traces_are_pinned(key):
    kind, *args = key
    tree = (gen_full_binary if kind == "full-binary" else gen_double_star)(*args)
    cert = construct_general(tree)
    text = json.dumps([list(cert.sequence.sources), cert.trace], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[key]


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
