import json
import tracemalloc

import pytest

from treeburn import construct_general, gen_random_tree
from treeburn.certs import (
    VerificationFailure,
    document_from_certificate,
    dump_document,
    verify_document,
)


def json_depth(value) -> int:
    depth, level = 0, [value]
    while level:
        depth += 1
        level = [
            child
            for node in level
            if isinstance(node, (dict, list))
            for child in (node.values() if isinstance(node, dict) else node)
        ]
    return depth


def certificate(n: int, seed: int) -> dict:
    doc = document_from_certificate(construct_general(gen_random_tree(n, seed)))
    return json.loads(dump_document(doc))


class TestFlatTrace:
    def test_rows_hold_scalars_only_and_depth_is_constant(self):
        small, large = certificate(100, 11), certificate(3200, 12)
        for doc in (small, large):
            assert doc["schema_version"] == "2"
            steps = [row["step"] for row in doc["trace"]]
            assert steps[0] == "augment" and steps[-1] == "project"
            assert set(steps[1:-1]) <= {"exact", "pendant", "smooth"}
            for row in doc["trace"]:
                assert not any(isinstance(x, (list, dict)) for x in row.values())
        assert len(large["trace"]) > len(small["trace"])
        assert json_depth(small) == json_depth(large)

    def test_trace_is_not_checked(self):
        doc = certificate(40, 3)
        doc["schema_version"] = "1"
        doc["trace"] = [{"step": "separator", "trace": [{"light_components": [[0, 1]]}]}]
        assert verify_document(doc)["ok"] is True


class TestUntrustedTree:
    def test_claimed_order_is_not_allocated_before_checking(self):
        doc = {"tree": {"n": 2_000_000, "edges": []}}
        tracemalloc.start()
        try:
            with pytest.raises(VerificationFailure, match="^malformed tree: "):
                verify_document(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("n", ["3", 3.0, True, None])
    def test_order_must_be_an_integer(self, n):
        doc = {"tree": {"n": n, "edges": [[0, 1], [1, 2]]}}
        with pytest.raises(VerificationFailure, match="^malformed tree: "):
            verify_document(doc)
