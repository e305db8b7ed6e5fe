"""verify_document as it was before the one-pass tree check and the
labels lemma, for differential tests.

The tree is built the checked way: every edge's type, then build_graph
(edge-key set, sorted neighbor tuples) and as_tree (connectivity BFS, edge
count), and the sequence is replayed by validate_sequence on that Tree.  A
parent array (schema 4) gets the same first checks as verify_document's,
one entry at a time, then the same build on the edges (v, parent[v]) for
v in 1..n-1: no pointer doubling.  The stored labels are compared with a
dict of the replay's, never proved from themselves.  Every claim is
checked here, by its own _check_claim, so that a fault in the package's
claim check cannot pass on both sides.  Tests compare its reasons and
summaries with verify_document's, document for document.
"""

from __future__ import annotations

from treeburn.bounds import bound_table
from treeburn.certs import VerificationFailure
from treeburn.engine import BurningSequence, validate_sequence
from treeburn.graphs import Tree, as_tree, build_graph, degree2_census


def _tree_from_doc(doc: dict) -> Tree:
    tree_obj = doc["tree"]
    n = tree_obj["n"]
    if "parent" in tree_obj:
        return _parent_tree(n, tree_obj)
    edges = tree_obj["edges"]
    if type(n) is not int:
        raise TypeError(f"tree order {n!r} is not an integer")
    if len(edges) != n - 1:
        raise ValueError(f"{len(edges)} edges for {n} vertices")
    for e in edges:
        pair = type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int
        if not pair:
            raise TypeError(f"edge {e!r} is not a pair of integers")
    return as_tree(build_graph(n, edges))


def _parent_tree(n, tree_obj: dict) -> Tree:
    if "edges" in tree_obj:
        raise ValueError("tree holds both edges and parent")
    parent = tree_obj["parent"]
    if type(n) is not int or n < 1:
        raise ValueError(f"tree order {n!r} is not a positive integer")
    if type(parent) is not list:
        raise TypeError(f"parent is a {type(parent).__name__}, not a list")
    if len(parent) != n:
        raise ValueError(f"{len(parent)} parent entries for {n} vertices")
    for v, p in enumerate(parent):
        if type(p) is not int:
            raise TypeError(f"parent {p!r} of vertex {v} is not an integer")
    if parent[0] != -1:
        raise ValueError(f"parent {parent[0]} of vertex 0 is not -1")
    return as_tree(build_graph(n, [(v, parent[v]) for v in range(1, n)]))


def _check_claim(doc: dict, key: str, value: int, what: str) -> None:
    if doc.get(key) != value or type(doc.get(key)) is not int:
        raise VerificationFailure(f"{what} mismatch")


def reference_verify_document(doc: dict) -> dict:
    try:
        tree = _tree_from_doc(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise VerificationFailure(f"malformed tree: {exc}") from exc
    n = tree.n
    n2, _ = degree2_census(tree)
    bounds = bound_table(n, n2)
    target = bounds.refined
    _check_claim(doc, "n", n, "order")
    _check_claim(doc, "n2", n2, "degree-2 count")
    _check_claim(doc, "m", bounds.m, "margin")
    _check_claim(doc, "target", target, "target")
    try:
        entries = tuple(doc["sequence"])
        if not all(type(x) is int for x in entries):
            raise ValueError("sequence entries must be integers")
        seq = BurningSequence(entries)
    except (KeyError, ValueError, TypeError) as exc:
        raise VerificationFailure(f"malformed sequence: {exc}") from exc
    if len(seq) > target:
        raise VerificationFailure("sequence longer than target")
    try:
        labeling = validate_sequence(tree, seq)
    except ValueError as exc:
        raise VerificationFailure(f"invalid sequence: {exc}") from exc
    stored = doc.get("labels")
    recomputed = {str(v): r for v, r in enumerate(labeling.labels)}
    if (
        stored != recomputed
        or type(stored[str(seq.sources[0])]) is not int
        or type(sum(stored.values())) is not int
    ):
        raise VerificationFailure("labels mismatch")
    _check_claim(doc, "total_rounds", labeling.total_rounds, "round count")
    expected = bounds.as_dict()
    table = doc.get("bound_table")
    if table != expected or any(
        type(table[k]) is not type(v) for k, v in expected.items()
    ):
        raise VerificationFailure("bound table mismatch")
    return {
        "ok": True,
        "n": n,
        "n2": n2,
        "length": len(seq),
        "target": target,
        "total_rounds": labeling.total_rounds,
    }
