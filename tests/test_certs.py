import contextlib
import copy
import gc
import hashlib
import io
import json
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeburn import (
    as_tree,
    bfs_distances,
    certs,
    cli,
    construct,
    construct_general,
    engine,
    exact,
    gen_double_star,
    gen_full_binary,
    gen_path,
    gen_random_no_deg2,
    gen_random_tree,
    graphs,
)
from treeburn.bounds import bound_table
from treeburn.certs import (
    VerificationFailure,
    document_from_certificate,
    dump_document,
    verify_document,
)
from treeburn.cli import format_edge_list, main, parse_edge_list
from treeburn.graphs import _bfs_tree
from treeburn.rng import SplitMix64

from .reference_verify import reference_verify_document
from .strategies import random_valid_schedule, trees


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


def certificate(n: int, seed: int, generator=gen_random_tree) -> dict:
    doc = document_from_certificate(construct_general(generator(n, seed)))
    return json.loads(dump_document(doc))


def edges_layout(doc: dict) -> dict:
    """A schema-4 certificate rewritten in the schema-3 layout: the tree as
    its edge list in Graph.edges() order instead of a parent array."""
    doc = copy.deepcopy(doc)
    parent = doc["tree"].pop("parent")
    doc["tree"]["edges"] = sorted(sorted([v, p]) for v, p in enumerate(parent) if v)
    doc["schema_version"] = "3"
    return doc


def path9_edges() -> dict:
    return edges_layout(certificate(9, 0, lambda n, seed: gen_path(n)))


class TestFlatTrace:
    def test_rows_hold_scalars_only_and_depth_is_constant(self):
        small, large = certificate(100, 11), certificate(3200, 12)
        for doc in (small, large):
            assert doc["schema_version"] == "4"
            steps = [row["step"] for row in doc["trace"]]
            assert steps[0] == "augment" and steps[-1] == "project"
            assert set(steps[1:-1]) <= {"exact", "pendant", "smooth"}
            for row in doc["trace"]:
                assert not any(isinstance(x, (list, dict)) for x in row.values())
        assert len(large["trace"]) > len(small["trace"])
        assert json_depth(small) == json_depth(large)

    @pytest.mark.parametrize("version", ["1", "2"])
    def test_trace_is_not_checked(self, version):
        doc = certificate(40, 3)
        doc["schema_version"] = version
        doc["trace"] = [{"step": "separator", "trace": [{"light_components": [[0, 1]]}]}]
        assert verify_document(doc)["ok"] is True


class TestCompactDump:
    """dump_document writes one line; the parsed document is the one the
    indented layout of earlier releases held."""

    DOCS = [
        document_from_certificate(construct_general(gen_random_tree(200, 7)), seed=7),
        document_from_certificate(construct_general(gen_path(50))),
    ]

    @pytest.mark.parametrize("doc", DOCS)
    def test_one_line_that_parses_to_the_document(self, doc):
        text = dump_document(doc)
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == doc

    @pytest.mark.parametrize("doc", DOCS)
    def test_keys_are_sorted(self, doc):
        orders = []

        def record(pairs):
            orders.append([k for k, _ in pairs])
            return dict(pairs)

        json.loads(dump_document(doc), object_pairs_hook=record)
        # the root, tree, labels, bound_table and every trace row
        assert len(orders) == 4 + len(doc["trace"])
        assert all(keys == sorted(keys) for keys in orders)

    def test_indented_layout_still_verifies(self, tmp_path):
        doc = json.loads(dump_document(self.DOCS[0]))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", str(cert)]) == 0
        assert json.loads(out.getvalue())["ok"] is True

    def test_edited_label_fails(self):
        doc = json.loads(dump_document(self.DOCS[0]))
        doc["labels"]["0"] += 1
        with pytest.raises(VerificationFailure) as failure:
            verify_document(json.loads(dump_document(doc)))
        assert failure.value.reason == "labels mismatch"


def labels_edited(edit: str) -> dict:
    """certificate(40, 3) with its labels edited one way."""
    doc = certificate(40, 3)
    labels, source = doc["labels"], str(doc["sequence"][0])
    assert labels[source] == 1 and labels["1"] != 1
    if edit == "list":
        doc["labels"] = list(labels.values())
    elif edit == "null":
        doc["labels"] = None
    elif edit == "missing":
        del labels["39"]
    elif edit == "extra":
        labels["40"] = 1
    elif edit == "leading-zero":
        labels["01"] = labels.pop("1")
    elif edit == "float":
        labels["1"] = float(labels["1"])
    elif edit == "true-at-source":
        labels[source] = True
    return doc


class TestLabels:
    """verify_document looks each stored label up by its key str(v), from
    one shared list of keys, instead of building a dict to compare."""

    @pytest.mark.parametrize(
        "edit",
        ["list", "null", "missing", "extra", "leading-zero", "float", "true-at-source"],
    )
    def test_edited_labels_mismatch(self, edit):
        doc = labels_edited(edit)
        with pytest.raises(VerificationFailure) as failure:
            verify_document(doc)
        assert failure.value.reason == "labels mismatch"
        assert_same_outcome(doc)

    @pytest.mark.parametrize(
        "orders, lengths",
        [((10, 3000, 10), (10, 3000, 3000)), ((3000, 10, 4000), (3000, 3000, 6000))],
        ids=["small-first", "large-first"],
    )
    def test_keys_grow_with_the_order(self, monkeypatch, orders, lengths):
        """The key list grows to n, or to twice its length when n is less."""
        monkeypatch.setattr(certs, "_KEYS", [])
        for n, length in zip(orders, lengths):
            cert = construct_general(gen_random_tree(n, 1))
            doc = document_from_certificate(cert)
            assert doc["labels"] == {str(v): r for v, r in enumerate(cert.labeling.labels)}
            assert certs._KEYS == list(map(str, range(length)))
            loaded = json.loads(dump_document(doc))
            assert verify_document(loaded) == reference_verify_document(loaded)
            loaded["labels"][str(n - 1)] += 1
            with pytest.raises(VerificationFailure, match="^labels mismatch$"):
                verify_document(loaded)


@pytest.mark.parametrize("layout", [str, lambda text: "# a comment\n" + text])
def test_the_input_tree_is_rooted_once(monkeypatch, layout):
    """From the edge list to the document, one BFS runs over the input
    tree: the parse's tree proof, whose parent array the document writes
    and whose order roots construct's working tree.  Every other BFS stays
    inside the exact fallback's few vertices."""
    tree = gen_random_tree(1600, 5)
    text = layout(format_edge_list(tree))
    visited = []

    def counted(adjacency, root):
        order, parent = _bfs_tree(adjacency, root)
        visited.append(len(order))
        return order, parent

    for module in (graphs, construct, certs, cli, engine, exact):
        if hasattr(module, "_bfs_tree"):
            monkeypatch.setattr(module, "_bfs_tree", counted)
    doc = document_from_certificate(construct_general(as_tree(parse_edge_list(text))))
    assert [k for k in visited if k > construct.EXACT_FALLBACK_N] == [tree.n]
    assert doc["tree"]["parent"] == _bfs_tree(tree.adjacency, 0)[1]


class TestUntrustedTree:
    @staticmethod
    def assert_not_allocated(doc):
        tracemalloc.start()
        try:
            with pytest.raises(VerificationFailure, match="^malformed tree: "):
                verify_document(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_claimed_order_is_not_allocated_before_checking(self):
        self.assert_not_allocated({"tree": {"n": 2_000_000, "edges": []}})

    def test_claimed_order_is_not_allocated_before_checking_parent(self):
        self.assert_not_allocated({"tree": {"n": 2_000_000, "parent": []}})

    @pytest.mark.parametrize("n", ["3", 3.0, True, None])
    def test_order_must_be_an_integer(self, n):
        doc = {"tree": {"n": n, "edges": [[0, 1], [1, 2]]}}
        with pytest.raises(VerificationFailure, match="^malformed tree: "):
            verify_document(doc)

    @pytest.mark.parametrize(
        "edge", [[False, True], [0], [0, 1, 2], (0, 1), "01", [0.0, 1], None]
    )
    def test_edges_must_be_integer_pairs(self, edge):
        doc = path9_edges()
        assert doc["tree"]["edges"][0] == [0, 1]  # [False, True] would equal it
        doc["tree"]["edges"][0] = edge
        with pytest.raises(VerificationFailure, match="^malformed tree: "):
            verify_document(doc)

    @pytest.mark.parametrize(
        "edge, reason",
        [
            ([1, 2], "edge (1, 2) given twice"),
            ([0, 0], "loop edge at vertex 0"),
            ([0, 9], "edge (0, 9) outside 0..8"),
            # n - 1 edges, closing the cycle 1..8 and leaving 0 isolated
            ([1, 8], "graph with 9 vertices is not connected"),
        ],
        ids=["duplicate", "loop", "out-of-range", "cycle"],
    )
    def test_edges_must_form_a_tree(self, edge, reason):
        doc = path9_edges()
        assert doc["tree"]["edges"][:2] == [[0, 1], [1, 2]]
        doc["tree"]["edges"][0] = edge
        with pytest.raises(VerificationFailure) as failure:
            verify_document(doc)
        assert failure.value.reason == f"malformed tree: {reason}"

    @staticmethod
    def split_document(tree: dict) -> dict:
        bounds = bound_table(4, 3)
        return {
            "tree": tree,
            "n": 4,
            "n2": 3,
            "m": bounds.m,
            "target": bounds.refined,
            "sequence": [1, 0],
            "labels": {"0": 2, "1": 1, "2": 2, "3": 2},
            "total_rounds": 2,
            "bound_table": bounds.as_dict(),
        }

    def test_a_burn_that_ends_does_not_prove_connectivity(self):
        """A triangle and an isolated vertex: n - 1 loop-free edges, every
        vertex burned in two rounds and every claim right, but no tree."""
        doc = self.split_document({"n": 4, "edges": [[1, 2], [1, 3], [2, 3]]})
        adj = [[], [2, 3], [1, 3], [1, 2]]
        kept, labels = engine._burn(adj, doc["sequence"], True)
        assert (labels, len(kept)) == ([2, 1, 2, 2], 2)
        with pytest.raises(VerificationFailure) as failure:
            verify_document(doc)
        assert failure.value.reason == (
            "malformed tree: graph with 4 vertices is not connected"
        )

    def test_a_burn_that_ends_does_not_prove_a_parent_array(self):
        """The same triangle as parents: 1 -> 3 -> 2 -> 1, and 0 alone."""
        doc = self.split_document({"n": 4, "parent": [-1, 3, 1, 2]})
        with pytest.raises(VerificationFailure) as failure:
            verify_document(doc)
        assert failure.value.reason == (
            "malformed tree: graph with 4 vertices is not connected"
        )

    @pytest.mark.parametrize(
        "faults, reason",
        [
            ({0: [0, 9], 3: [3, 4.0]}, "edge [3, 4.0] is not a pair of integers"),
            ({1: [0, 1], 4: [4, 4]}, "edge (0, 1) given twice"),
        ],
        ids=["range-then-type", "duplicate-then-loop"],
    )
    def test_the_fault_named_among_several(self, faults, reason):
        doc = path9_edges()
        for i, edge in faults.items():
            doc["tree"]["edges"][i] = edge
        with pytest.raises(VerificationFailure) as failure:
            verify_document(doc)
        assert failure.value.reason == f"malformed tree: {reason}"

    def test_one_vertex_verifies(self):
        doc = certificate(1, 0, lambda n, seed: gen_path(n))
        assert doc["tree"] == {"n": 1, "parent": [-1]}
        assert edges_layout(doc)["tree"] == {"n": 1, "edges": []}
        for layout in (doc, edges_layout(doc)):
            summary = verify_document(layout)
            assert summary == {
                "ok": True, "n": 1, "n2": 0, "length": 1, "target": 1, "total_rounds": 1,
            }


PATH9_PARENT = [-1, 0, 1, 2, 3, 4, 5, 6, 7]
LAYOUT_TREES = {
    "path": gen_path(9),
    "random": gen_random_tree(40, 3),
    "binary": gen_full_binary(4),
    "double-star": gen_double_star(3, 5),
}


def parent_with(v: int, p) -> list:
    parent = list(PATH9_PARENT)
    parent[v] = p
    return parent


class TestParentTree:
    """Every malformed parent array (schema 4) is a malformed tree, worded
    as the edge list's faults are, and `treeburn verify` exits 1 on it."""

    @pytest.mark.parametrize(
        "tree, reason",
        [
            ({"n": 0, "parent": []}, "tree order 0 is not a positive integer"),
            ({"n": True, "parent": PATH9_PARENT}, "tree order True is not a positive integer"),
            ({"n": 2.0, "parent": [-1, 0]}, "tree order 2.0 is not a positive integer"),
            ({"n": 9, "parent": PATH9_PARENT + [7]}, "10 parent entries for 9 vertices"),
            ({"n": 9, "parent": PATH9_PARENT[:-1]}, "8 parent entries for 9 vertices"),
            ({"n": 9, "parent": dict(enumerate(PATH9_PARENT))}, "parent is a dict, not a list"),
            ({"n": 9, "parent": parent_with(2, True)}, "parent True of vertex 2 is not an integer"),
            ({"n": 9, "parent": parent_with(2, 1.0)}, "parent 1.0 of vertex 2 is not an integer"),
            ({"n": 9, "parent": parent_with(2, "1")}, "parent '1' of vertex 2 is not an integer"),
            ({"n": 9, "parent": parent_with(2, None)}, "parent None of vertex 2 is not an integer"),
            ({"n": 9, "parent": parent_with(0, 0)}, "parent 0 of vertex 0 is not -1"),
            ({"n": 9, "parent": parent_with(0, 1)}, "parent 1 of vertex 0 is not -1"),
            ({"n": 9, "parent": parent_with(4, -1)}, "edge (4, -1) outside 0..8"),
            ({"n": 9, "parent": parent_with(4, 9)}, "edge (4, 9) outside 0..8"),
            ({"n": 9, "parent": parent_with(4, 4)}, "loop edge at vertex 4"),
            ({"n": 9, "parent": parent_with(3, 4)}, "edge (3, 4) given twice"),
            (
                # 600 -> 601 -> ... -> 1199 -> 600, a cycle that avoids 0
                {"n": 1200, "parent": [-1, *range(599), *range(601, 1200), 600]},
                "graph with 1200 vertices is not connected",
            ),
            (
                {"n": 9, "parent": PATH9_PARENT, "edges": [[v, v + 1] for v in range(8)]},
                "tree holds both edges and parent",
            ),
        ],
        ids=[
            "order-0", "order-bool", "order-float", "long", "short", "not-a-list",
            "entry-bool", "entry-float", "entry-str", "entry-null", "root-0",
            "root-1", "minus-1", "n", "loop", "duplicate", "long-cycle", "both-layouts",
        ],
    )
    def test_malformed_parent_arrays_fail(self, tmp_path, tree, reason):
        doc = certificate(9, 0, lambda n, seed: gen_path(n))
        assert doc["tree"] == {"n": 9, "parent": PATH9_PARENT}
        doc["tree"] = tree
        with pytest.raises(VerificationFailure) as failure:
            verify_document(doc)
        assert failure.value.reason == f"malformed tree: {reason}"
        assert_same_outcome(doc)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", str(cert)]) == 1
        assert json.loads(out.getvalue()) == {
            "ok": False, "reason": f"malformed tree: {reason}",
        }

    @pytest.mark.parametrize("name", LAYOUT_TREES)
    def test_parent_is_the_neighbor_towards_vertex_0(self, name):
        tree = LAYOUT_TREES[name]
        parent = document_from_certificate(construct_general(tree))["tree"]["parent"]
        dist = bfs_distances(tree, 0)
        assert parent[0] == -1
        for v in range(1, tree.n):
            assert parent[v] in tree.neighbors(v) and dist[parent[v]] == dist[v] - 1


SCHEMA3_CERT = Path(__file__).with_name("cert_schema3.json")

# sha256 of dump_document's text for each of LAYOUT_TREES, pinning the
# schema-4 layout
SCHEMA4_SHA256 = {
    "path": "04ff03e70e9b9f77732308f8aabdce9103e286aa71e821b811ae0b6324804b04",
    "random": "3767d0a5f7edda15f3195571c601f8f07e439b3d5ee4b8675628d749c19987f4",
    "binary": "103c3ddc89bf03e70474d6a673ef89676525bca0d6d60855c2ff9e8c9ccd687a",
    "double-star": "703d28a288d8e2b93e13829a00e90a21eb71991f409bdc4111efb39edca08244",
}


class TestLayouts:
    def test_committed_schema3_certificate_verifies(self):
        doc = json.loads(SCHEMA3_CERT.read_text(encoding="utf-8"))
        assert doc["schema_version"] == "3" and "edges" in doc["tree"]
        assert verify_document(doc) == reference_verify_document(doc)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", str(SCHEMA3_CERT)]) == 0
        assert json.loads(out.getvalue())["ok"] is True

    def test_edges_layout_is_the_schema3_certificate(self):
        """edges_layout turns this release's certificate of the committed
        tree into the committed one, tool version aside."""
        committed = json.loads(SCHEMA3_CERT.read_text(encoding="utf-8"))
        converted = edges_layout(certificate(40, 3))
        del committed["tool_version"], converted["tool_version"]
        assert converted == committed

    @pytest.mark.parametrize("name", LAYOUT_TREES)
    def test_schema4_bytes(self, name):
        text = dump_document(document_from_certificate(construct_general(LAYOUT_TREES[name])))
        assert hashlib.sha256(text.encode()).hexdigest() == SCHEMA4_SHA256[name]


# ---------------------------------------------------------------------------
# Fuzzing: mutated certificates fail with VerificationFailure, never another
# exception, with the reason (or summary) of the checked tree build of
# earlier releases (tests/reference_verify.py), and `treeburn verify` exits
# 1 on them.
# ---------------------------------------------------------------------------

PARENT_BASES = (
    certificate(12, 4),
    certificate(9, 0, lambda n, seed: gen_path(n)),
    certificate(8, 5, gen_random_no_deg2),
)
BASES = PARENT_BASES + tuple(map(edges_layout, PARENT_BASES))

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def locations(value, prefix=()):
    """Every path of keys and indices into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from locations(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(locations(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]] if path else doc
        op = draw(st.sampled_from(["replace", "delete", "nudge", "append"]))
        if op == "nudge" and type(target) is int:
            nudged = [target - 1, target + 1, bool(target), float(target)]
            new = draw(st.sampled_from(nudged))
        elif op == "append" and isinstance(target, list):
            extra = draw(st.sampled_from(target) if target else JSON_VALUES)
            new = target + [copy.deepcopy(extra)]
        elif op == "delete" and path:
            del parent[path[-1]]
            continue
        else:
            new = draw(JSON_VALUES)
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    return doc


def verdict(doc) -> bool:
    try:
        return verify_document(doc)["ok"]
    except VerificationFailure:
        return False


def outcome(verify, doc):
    try:
        return verify(doc)
    except VerificationFailure as failure:
        return failure.reason


class Needed(Exception):
    """Raised by a stand-in for a function verify_document never needs."""


def needed(*args, **kwargs):
    raise Needed


@contextlib.contextmanager
def no_burn():
    """engine._burn raises Needed while it is open, also under any name
    certs holds it by."""
    names = [name for name, value in vars(certs).items() if value is engine._burn]
    with contextlib.ExitStack() as stack:
        for module, name in [(engine, "_burn"), *((certs, name) for name in names)]:
            stack.enter_context(mock.patch.object(module, name, needed))
        yield


@contextlib.contextmanager
def neither_burn_nor_lists():
    """no_burn, and certs._tree_lists raises Needed too."""
    with no_burn(), mock.patch.object(certs, "_tree_lists", needed):
        yield


def proved_by_labels(doc):
    """verify_document's summary when it accepts doc with neither a burn
    nor neighbor lists, else None."""
    with neither_burn_nor_lists():
        try:
            return verify_document(doc)
        except (Needed, VerificationFailure):
            return None


def assert_same_outcome(doc):
    """verify_document, with engine._burn raising, and the reference give
    the same reason or summary, and where verify_document accepts with
    neither a burn nor neighbor lists, its summary is theirs.  The
    reference runs first: it burns, through validate_sequence."""
    expected = outcome(reference_verify_document, doc)
    with no_burn():
        assert outcome(verify_document, doc) == expected
    summary = proved_by_labels(doc)
    assert summary is None or summary == expected


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_mutated_documents_fail_only_with_verification_failure(doc):
    assert_same_outcome(doc)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=40, deadline=None)
@given(mutated_documents())
def test_cli_verify_exits_1_on_mutated_documents(fuzz_dir, doc):
    accepted = verdict(doc)
    path = fuzz_dir / "cert.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(path)])
    assert code == (0 if accepted else 1)
    assert json.loads(out.getvalue())["ok"] is accepted


TREE_BASES = PARENT_BASES + (certificate(60, 2), certificate(40, 6, gen_random_no_deg2))
EDGE_BASES = tuple(map(edges_layout, TREE_BASES))


@st.composite
def edge_mutated_documents(draw):
    """One to three edits of the edge list: an endpoint moved (also out of
    range or onto the other end), an edge replaced by a copy of another
    (either way round), or an edge replaced by a chord."""
    doc = copy.deepcopy(draw(st.sampled_from(EDGE_BASES)))
    n, edges = doc["tree"]["n"], doc["tree"]["edges"]
    index = st.integers(0, len(edges) - 1)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(index)
        op = draw(st.sampled_from(["move", "duplicate", "chord"]))
        if op == "move":
            edges[i][draw(st.integers(0, 1))] = draw(st.integers(-1, n))
        elif op == "duplicate":
            edges[i] = list(edges[draw(index)])[:: draw(st.sampled_from([1, -1]))]
        else:
            u = draw(st.integers(0, n - 1))
            v = draw(st.integers(0, n - 1).filter(lambda v: v != u))
            edges[i] = [u, v]
    return doc


@settings(max_examples=400, deadline=None)
@given(edge_mutated_documents())
def test_edge_mutations_match_the_reference(doc):
    assert_same_outcome(doc)


@st.composite
def parent_mutated_documents(draw):
    """One to three parent entries moved to any value from -1 to n: a root
    moved, an entry out of range, a loop, a 2-cycle or a longer cycle."""
    doc = copy.deepcopy(draw(st.sampled_from(TREE_BASES)))
    parent = doc["tree"]["parent"]
    n = len(parent)
    for _ in range(draw(st.integers(1, 3))):
        parent[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n))
    return doc


@settings(max_examples=400, deadline=None)
@given(parent_mutated_documents())
def test_parent_mutations_match_the_reference(doc):
    assert_same_outcome(doc)


def test_seeded_valid_certificates_match_the_reference():
    rng = SplitMix64(2024)
    generators = (gen_random_tree, gen_random_no_deg2, lambda n, seed: gen_path(n))
    for i in range(200):
        n = 1 + rng.below(400)
        doc = certificate(n, i, generators[i % 3])
        for layout in (doc, edges_layout(doc)):
            summary = verify_document(layout)
            assert summary["ok"] is True
            assert summary == reference_verify_document(layout)


# ---------------------------------------------------------------------------
# Booleans and floats are not integers: True == 1, False == 0 and 2.0 == 2
# under ==, so every integer claim is checked for its type as well.
# ---------------------------------------------------------------------------

CHECKED_KEYS = {
    "tree", "n", "n2", "m", "target", "sequence", "labels", "total_rounds",
    "bound_table",
}
BOOL_PARENT_BASES = PARENT_BASES + (
    certificate(30, 1, gen_random_no_deg2),
    certificate(1, 0, lambda n, seed: gen_path(n)),
)
# the edges layout first, so each base keeps its index in the test ids
BOOL_BASES = tuple(map(edges_layout, BOOL_PARENT_BASES)) + BOOL_PARENT_BASES


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def type_swaps():
    """(base, path, value equal to but not of the type of the stored one)."""
    for i, base in enumerate(BOOL_BASES):
        for path in locations(base):
            value = value_at(base, path)
            checked = path and path[0] in CHECKED_KEYS
            if checked and type(value) is int and value in (0, 1):
                yield i, path, bool(value)
        flag = ("bound_table", "conjecture_guaranteed")
        yield i, flag, int(value_at(base, flag))
        labels = base["labels"]
        last = max(labels, key=labels.get)  # not the round-1 source when n > 1
        yield i, ("labels", last), float(labels[last])


@pytest.mark.parametrize(
    "base, path, new",
    list(type_swaps()),
    ids=lambda x: "/".join(map(str, x)) if isinstance(x, tuple) else repr(x),
)
def test_equal_value_of_another_type_fails(tmp_path, base, path, new):
    doc = copy.deepcopy(BOOL_BASES[base])
    value_at(doc, path[:-1])[path[-1]] = new
    assert doc == BOOL_BASES[base]  # == cannot tell them apart
    with pytest.raises(VerificationFailure):
        verify_document(doc)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", str(cert)]) == 1
    assert json.loads(out.getvalue())["ok"] is False


# ---------------------------------------------------------------------------
# verify_document computes the process labels by two passes over the tree's
# rooting and reads the sequence's reason from them: no certificate of any
# schema and order, accepted or refused, is burned, and a parent array builds
# no neighbor lists either (proved_by_labels).  assert_same_outcome above
# compares verify_document, with engine._burn raising, with the reference
# on every fuzzed, malformed and edited document.
# ---------------------------------------------------------------------------

SHAPES = {
    "random": gen_random_tree,
    "no-deg2": gen_random_no_deg2,
    "path": lambda n, seed: gen_path(n),
    "binary": lambda n, seed: gen_full_binary(max(1, n.bit_length() - 2)),
    "double-star": lambda n, seed: gen_double_star(n // 3, n - n // 3 - 2),
}


def test_seeded_valid_certificates_are_accepted_in_bulk():
    rng = SplitMix64(2025)
    generators = (gen_random_tree, gen_random_no_deg2, lambda n, seed: gen_path(n))
    for i in range(150):
        doc = certificate(3 + rng.below(400), i, generators[i % 3])
        summary = proved_by_labels(doc)
        assert summary is not None and summary["ok"] is True
        assert summary == reference_verify_document(doc)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", [3, 4, 9, 100, 1600])
def test_valid_certificates_neither_burn_nor_build_lists(monkeypatch, shape, n):
    """A valid certificate, and the same one with a label raised, are
    decided with no burn, no Tree and, as a parent array, no neighbor
    lists; as an edge list, with the one _tree_lists of its proof."""
    doc = certificate(n, n, SHAPES[shape])
    raised = copy.deepcopy(doc)
    edit_label(raised)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in [
        (certs, "_tree_lists"), (graphs, "_tree_lists"),
        (certs, "build_graph"), (graphs, "build_graph"), (certs, "as_tree"),
    ]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for layout, lists in [(dict, []), (edges_layout, ["_tree_lists"])]:
        with no_burn():
            assert verify_document(layout(doc))["ok"] is True
            assert calls == lists
            calls.clear()
            with pytest.raises(VerificationFailure, match="^labels mismatch$"):
                verify_document(layout(raised))
            assert calls == lists
            calls.clear()


def test_verify_builds_nothing_per_vertex():
    """Proving a parent array of order 3200 and computing its labels
    allocates no container per vertex, so it never wakes the cyclic
    garbage collector, whose youngest generation runs every few hundred
    net container allocations."""
    doc = certificate(3200, 1)
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        assert verify_document(doc)["ok"] is True
    finally:
        gc.callbacks.remove(record)
    assert collections == []


def true_labels(tree, seq) -> list[int]:
    """min over i of i + d(x, s_i): the process's labels when seq is valid."""
    rows = [bfs_distances(tree, s) for s in seq]
    return [min(i + row[x] for i, row in enumerate(rows, 1)) for x in range(tree.n)]


def claimed_document(tree, seq, labels) -> dict:
    """A certificate of tree with every claim right for seq, labels claimed."""
    n2 = sum(1 for a in tree.adjacency if len(a) == 2)
    bounds = bound_table(tree.n, n2)
    return {
        "schema_version": "4",
        "tree": {"n": tree.n, "parent": list(tree.parent)},
        "n": tree.n,
        "n2": n2,
        "m": bounds.m,
        "target": bounds.refined,
        "sequence": list(seq),
        "labels": {str(v): r for v, r in enumerate(labels)},
        "total_rounds": len(seq),
        "bound_table": bounds.as_dict(),
    }


@settings(max_examples=300, deadline=None)
@given(
    trees(min_n=1, max_n=40),
    st.sampled_from(["construct", "schedule", "random"]),
    st.sampled_from(["true", "plus-one", "minus-one", "subtree"]),
    st.randoms(use_true_random=False),
)
def test_bulk_accepts_exactly_the_true_labels_of_valid_sequences(tree, origin, edit, rnd):
    n = tree.n
    if origin == "construct":
        seq = construct_general(tree).sequence.sources
    elif origin == "schedule":
        seq = engine.canonicalize(tree, random_valid_schedule(tree, rnd.randrange(2**32))).sources
    else:
        seq = [rnd.randrange(n) for _ in range(rnd.randint(1, 8))]
    labels = true_labels(tree, seq)
    v = rnd.randrange(n)
    if edit == "plus-one":
        labels[v] += 1
    elif edit == "minus-one":
        labels[v] -= 1
    elif edit == "subtree":  # v and every vertex whose path to 0 passes v
        for x in range(n):
            y = x
            while y not in (v, -1):
                y = tree.parent[y]
            labels[x] += y == v
    doc = claimed_document(tree, seq, labels)
    try:
        labeling = engine.validate_sequence(tree, engine.BurningSequence(tuple(seq)))
    except ValueError:
        labeling = None
    accepted = (
        labeling is not None
        and list(labeling.labels) == labels
        and len(seq) <= doc["target"]
    )
    summary = proved_by_labels(doc)
    assert (summary is not None) == accepted
    assert_same_outcome(doc)


DEPTHS = sorted({d for j in range(1, 12) for d in (2**j - 1, 2**j, 2**j + 1)})


@pytest.mark.parametrize("depth", DEPTHS)
def test_paths_rooted_at_an_end_are_accepted(depth):
    """The deepest trees of their order: one child per BFS step.  These
    depths sit on either side of each power of two, where an earlier
    proof by pointer doubling changed its number of rounds."""
    doc = certificate(depth + 1, 0, lambda n, seed: gen_path(n))
    assert doc["tree"]["parent"] == [-1, *range(depth)]
    summary = proved_by_labels(doc)
    assert summary is not None
    assert summary == reference_verify_document(doc)


@pytest.mark.parametrize("leaves", [(48, 0), (0, 48)], ids=["at-the-center", "at-a-leaf"])
def test_stars_are_accepted(leaves):
    """gen_double_star(48, 0) is a star centred at vertex 0, and
    gen_double_star(0, 48) one centred at vertex 1, a leaf's neighbor."""
    doc = certificate(50, 0, lambda n, seed: gen_double_star(*leaves))
    summary = proved_by_labels(doc)
    assert summary is not None
    assert summary == reference_verify_document(doc)


@pytest.mark.parametrize("n", [1, 2])
def test_orders_below_3_are_proved_by_labels(n):
    """The leaf peel proves these parent arrays, one of which has no
    entry below the root, and the computed labels accept theirs."""
    doc = certificate(n, 0, lambda n, seed: gen_path(n))
    summary = proved_by_labels(doc)
    assert summary is not None and summary["ok"] is True
    assert summary == reference_verify_document(doc)


def schema3_edge_documents():
    yield "schema3-file", json.loads(SCHEMA3_CERT.read_text(encoding="utf-8"))
    for i, doc in enumerate(TREE_BASES + (certificate(1, 0), certificate(2, 0))):
        yield f"base-{i}", edges_layout(doc)
    rng = SplitMix64(2026)
    generators = (gen_random_tree, gen_random_no_deg2, lambda n, seed: gen_path(n))
    for i in range(30):
        yield f"seeded-{i}", edges_layout(certificate(1 + rng.below(400), i, generators[i % 3]))


@pytest.mark.parametrize(
    "doc", [pytest.param(doc, id=name) for name, doc in schema3_edge_documents()]
)
def test_edge_lists_are_accepted_without_a_burn(doc):
    """The order and parent array of graphs._tree_lists' BFS carry an edge
    list to the labels' two passes, so a valid schema 1-3 certificate is
    never burned."""
    assert "edges" in doc["tree"]
    expected = reference_verify_document(doc)  # it burns
    with no_burn():
        summary = verify_document(doc)
    assert summary["ok"] is True
    assert summary == expected


BULK_BASES = {
    "path": certificate(300, 0, lambda n, seed: gen_path(n)),
    "random": certificate(300, 0),  # vertex 25's parent is 299
}


def cycle(parent, length):
    """Make the last `length` vertices a cycle that avoids vertex 0: each
    takes the next as its parent, and the last takes the first."""
    vs = range(len(parent) - length, len(parent))
    for v, w in zip(vs, [*vs[1:], vs[0]]):
        parent[v] = w


def cycle_with_tail(parent):
    """297 and 298 each other's parent, and 296 -> 299 -> 298 a tail off
    them: the peel takes the tail (and whatever hangs below it), then
    stalls on the cycle."""
    parent[297], parent[298], parent[299], parent[296] = 298, 297, 298, 299


def self_parent_with_child(parent):
    """298 its own parent, with 299 its child."""
    parent[298], parent[299] = 298, 298


def set_parent(v, p):
    return lambda parent: parent.__setitem__(v, p)


@pytest.mark.parametrize("base", BULK_BASES)
@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda p: cycle(p, 2), "edge (298, 299) given twice"),
        (lambda p: cycle(p, 3), "graph with 300 vertices is not connected"),
        (lambda p: cycle(p, 299), "graph with 300 vertices is not connected"),
        (cycle_with_tail, "edge (297, 298) given twice"),
        (set_parent(250, 250), "loop edge at vertex 250"),
        (self_parent_with_child, "loop edge at vertex 298"),
        (set_parent(250, -1), "edge (250, -1) outside 0..299"),
        # parent[-1] is parent[299]: on the random base, an index that
        # wraps reads the true parent's entry
        (set_parent(25, -1), "edge (25, -1) outside 0..299"),
        (set_parent(250, 300), "edge (250, 300) outside 0..299"),
        (set_parent(250, True), "parent True of vertex 250 is not an integer"),
        (set_parent(250, 1.0), "parent 1.0 of vertex 250 is not an integer"),
    ],
    ids=[
        "2-cycle", "3-cycle", "(n-1)-cycle", "2-cycle-tail", "self", "self-child",
        "minus-1", "minus-1-wraps", "n",
        "true", "float",
    ],
)
def test_malformed_parents_far_from_0_keep_their_reasons(base, edit, reason):
    doc = copy.deepcopy(BULK_BASES[base])
    assert proved_by_labels(doc) is not None
    edit(doc["tree"]["parent"])
    assert proved_by_labels(doc) is None
    with pytest.raises(VerificationFailure) as failure:
        verify_document(doc)
    assert failure.value.reason == f"malformed tree: {reason}"
    assert_same_outcome(doc)


# ---------------------------------------------------------------------------
# One route: the tree's shape is checked once, the bound table built once
# and each claim read once, and every check after the labels runs whether
# the labels are stored right or not.
# ---------------------------------------------------------------------------


def lines_run(fn, text: str) -> int:
    """How many times lines of treeburn/certs.py holding text run in fn()."""
    path = certs.__file__
    source = Path(path).read_text(encoding="utf-8").splitlines()
    lines = {i for i, line in enumerate(source, 1) if text in line}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno in lines
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == path else None)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def edit_label(doc):
    doc["labels"][str(doc["n"] - 1)] += 1


def edit_rounds(doc):
    doc["total_rounds"] += 1


class ReadCounted(dict):
    """A document that records every key read from it."""

    def __init__(self, doc):
        super().__init__(doc)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


@pytest.mark.parametrize(
    "edit, reason",
    [(edit_label, "labels mismatch"), (edit_rounds, "round count mismatch")],
    ids=["label", "total-rounds"],
)
def test_a_refused_certificate_is_read_once(monkeypatch, edit, reason):
    doc = certificate(300, 4)
    edit(doc)
    doc = ReadCounted(doc)
    tables = []

    def counted(n, n2):
        tables.append((n, n2))
        return bound_table(n, n2)

    monkeypatch.setattr(certs, "bound_table", counted)

    def refuse():
        with pytest.raises(VerificationFailure, match=f"^{reason}$"):
            verify_document(doc)

    assert lines_run(refuse, "len(parent) != n") == 1
    assert tables == [(300, dict.get(doc, "n2"))]
    assert sorted(doc.reads) == sorted(set(doc.reads))


def invalid_sequence(doc):
    """The first source alone: the process outlives it."""
    doc["sequence"] = doc["sequence"][:1]


@pytest.mark.parametrize("layout", [dict, edges_layout], ids=["parent", "edges"])
@pytest.mark.parametrize(
    "edit, reason",
    [(edit_label, "labels mismatch"), (invalid_sequence, "invalid sequence: process terminated in ")],
    ids=["raised-label", "invalid-sequence"],
)
def test_a_refusal_is_worded_without_a_burn(layout, edit, reason):
    doc = layout(certificate(60, 2))
    edit(doc)
    with no_burn(), pytest.raises(VerificationFailure) as failure:
        verify_document(doc)
    assert failure.value.reason.startswith(reason)
    assert_same_outcome(doc)


def test_a_refused_edge_list_builds_its_lists_once(monkeypatch):
    doc = edges_layout(certificate(60, 2))
    edit_label(doc)
    calls = []

    def counted(*args):
        calls.append(args[0])
        return graphs._tree_lists(*args)

    monkeypatch.setattr(certs, "_tree_lists", counted)
    with pytest.raises(VerificationFailure, match="^labels mismatch$"):
        verify_document(doc)
    assert calls == [60]


def sequence_edited(edit):
    """certificate(60, 2), sequence [57, 6, 33, 39, 8, 11, 5, 43] of
    target 9, with edit(sequence, parent) applied."""

    def edited():
        doc = certificate(60, 2)
        edit(doc["sequence"], doc["tree"]["parent"])
        return doc

    return edited


@pytest.mark.parametrize("layout", [dict, edges_layout], ids=["parent", "edges"])
@pytest.mark.parametrize(
    "edited, reason",
    [
        (sequence_edited(lambda s, p: s.__setitem__(-1, 60)), "source 60 is not a vertex"),
        (sequence_edited(lambda s, p: s.__setitem__(-1, -1)), "source -1 is not a vertex"),
        # the process still runs in round 2 of [57, 60]
        (sequence_edited(lambda s, p: s.__setitem__(slice(1, None), [60])), "source 60 is not a vertex"),
        (sequence_edited(lambda s, p: s.append(60)), "source 60 already burned at start of round 9"),
        (sequence_edited(lambda s, p: s.append(-1)), "source -1 already burned at start of round 9"),
        (sequence_edited(lambda s, p: s.append(0)), "source 0 already burned at start of round 9"),
        # 13 is the first source's parent, burned in round 2
        (sequence_edited(lambda s, p: s.__setitem__(2, p[s[0]])), "source 13 already burned at start of round 3"),
        # the first fault wins, even when it is an in-range source
        (sequence_edited(lambda s, p: s.__setitem__(slice(2, None), [p[s[0]], 60])), "source 13 already burned at start of round 3"),
        (sequence_edited(lambda s, p: s.__setitem__(slice(2, None), [60, p[s[0]]])), "source 60 is not a vertex"),
        (sequence_edited(lambda s, p: s.__delitem__(slice(1, None))), "process terminated in 14 rounds"),
    ],
    ids=[
        "n-running", "minus-1-running", "n-in-round-2", "n-after-the-end", "minus-1-after-the-end",
        "vertex-after-the-end", "burned-by-adjacency", "burned-before-n", "n-before-burned",
        "first-source-only",
    ],
)
def test_every_sequence_fault_is_worded_as_the_strict_burn_words_it(layout, edited, reason):
    doc = layout(edited())
    assert outcome(reference_verify_document, doc) == f"invalid sequence: {reason}"
    assert_same_outcome(doc)


@pytest.mark.parametrize("layout", [dict, edges_layout], ids=["parent", "edges"])
@pytest.mark.parametrize(
    "n, sequence, reason",
    [
        (1, [1], "source 1 is not a vertex"),
        (2, [0], "process terminated in 2 rounds"),
        (9, [0], "process terminated in 9 rounds"),
    ],
    ids=["one-vertex", "path-2", "path-9"],
)
def test_a_label_may_equal_the_order(layout, n, sequence, reason):
    """Burned from vertex 0, one end of gen_path(n), the other end burns in
    round n, the largest label of n vertices; with no source counted, the
    process still runs in round 1."""
    doc = certificate(n, 0, lambda n, seed: gen_path(n))
    doc["sequence"] = sequence
    doc = layout(doc)
    assert outcome(reference_verify_document, doc) == f"invalid sequence: {reason}"
    assert_same_outcome(doc)


def claim_edited(key, value) -> dict:
    doc = certificate(200, 9)
    assert proved_by_labels(doc) is not None
    doc[key] = value(doc[key])
    return doc


@pytest.mark.parametrize(
    "doc, reason",
    [
        (claim_edited("total_rounds", lambda k: k - 1), "round count mismatch"),
        (claim_edited("total_rounds", float), "round count mismatch"),
        (claim_edited("total_rounds", lambda k: None), "round count mismatch"),
        (claim_edited("bound_table", lambda t: {**t, "refined": t["refined"] + 1}), "bound table mismatch"),
        (claim_edited("bound_table", lambda t: {**t, "m": float(t["m"])}), "bound table mismatch"),
        (claim_edited("bound_table", lambda t: None), "bound table mismatch"),
    ],
    ids=["rounds-minus-1", "rounds-float", "rounds-null", "refined", "m-float", "table-null"],
)
def test_claims_after_the_labels_proof_are_checked(doc, reason):
    """The labels prove the sequence, and the claims after them still
    refuse it, with neither a burn nor neighbor lists."""
    assert proved_by_labels(doc) is None
    with neither_burn_nor_lists(), pytest.raises(VerificationFailure) as failure:
        verify_document(doc)
    assert failure.value.reason == reason
    assert_same_outcome(doc)


@pytest.mark.parametrize("key", ["n", "n2", "m", "target", "total_rounds", "bound_table"])
def test_a_tree_the_doubling_refuses_is_refused_before_the_claims(key):
    """A cycle that avoids vertex 0, which the leaf peel never reaches, is
    worded before any claim is read."""
    doc = copy.deepcopy(BULK_BASES["random"])
    cycle(doc["tree"]["parent"], 3)
    doc[key] = None
    with pytest.raises(VerificationFailure) as failure:
        verify_document(doc)
    assert failure.value.reason == "malformed tree: graph with 300 vertices is not connected"
    assert_same_outcome(doc)


@pytest.mark.parametrize("key, reason", [("n2", "degree-2 count mismatch"), ("total_rounds", "round count mismatch")])
def test_order_2_arrays_check_their_claims(key, reason):
    doc = certificate(2, 0, lambda n, seed: gen_path(n))
    doc[key] += 1
    with pytest.raises(VerificationFailure) as failure:
        verify_document(doc)
    assert failure.value.reason == reason
    assert_same_outcome(doc)


@pytest.mark.parametrize("sequence", [[], None, "0", [0, 0]], ids=["empty", "null", "string", "repeat"])
def test_a_malformed_sequence_on_a_parent_array(sequence):
    doc = certificate(50, 2)
    doc["sequence"] = sequence
    with pytest.raises(VerificationFailure, match="^malformed sequence: "):
        verify_document(doc)
    assert_same_outcome(doc)
