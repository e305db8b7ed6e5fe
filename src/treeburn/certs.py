"""Certificate documents: JSON serialization and self-contained verification.

A certificate embeds the tree (as a parent array rooted at vertex 0 since
schema 4, as an edge list before), the burning sequence, the claimed labeling,
and the bound values.  verify_document() derives everything from the
embedded tree and sequence alone, so a certificate stands or falls
regardless of who produced it.  It takes one route: the tree is proved
once, a parent array by peeling it from the leaves up, the process labels
are computed by two passes over that order, and each claim is checked once
against what was computed.  Nothing is burned: the verifier shares no
round loop with the producer it checks.
"""

from __future__ import annotations

import json
from itertools import takewhile
from typing import Optional

from . import __version__
from .bounds import bound_table
from .construct import BoundCertificate
from .engine import BurningSequence
from .errors import LengthMismatch, SourceAlreadyBurned, VertexOutOfRange
from .graphs import _tree_lists, as_tree, build_graph

SCHEMA_VERSION = "4"

_KEYS: list[str] = []


def _keys(n: int) -> list[str]:
    """str(v) at index v, for at least n vertices: one list, grown
    geometrically, whose strings every document and every check shares."""
    if len(_KEYS) < n:
        _KEYS.extend(map(str, range(len(_KEYS), max(n, 2 * len(_KEYS)))))
    return _KEYS


def document_from_certificate(
    cert: BoundCertificate, seed: Optional[int] = None
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        # parent[v] is v's neighbor towards vertex 0, -1 at 0: one encoding per tree
        "tree": {"n": cert.tree.n, "parent": list(cert.tree.parent)},
        "n": cert.n,
        "n2": cert.n2,
        "m": cert.m,
        "target": cert.target,
        "sequence": list(cert.sequence.sources),
        "labels": dict(zip(_keys(cert.n), cert.labeling.labels)),
        "total_rounds": cert.labeling.total_rounds,
        "bound_table": bound_table(cert.n, cert.n2).as_dict(),
        "trace": list(cert.trace),
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def dump_document(doc: dict) -> str:
    """One line with sorted keys and no spaces, plus a newline.  Without an
    indent json.dumps runs its C encoder; parsing gives the same document as
    the indented layout of earlier releases, which still verifies."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class VerificationFailure(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _tree_from_doc(doc: dict) -> tuple[int, list[int], list[int]]:
    """The embedded tree's degree-2 count, its vertices but 0 leaves up
    (each after its children) and its parent array towards vertex 0.  A
    parent array is a tree iff peeling it from the leaves up (Kahn's order,
    one counter per vertex) reaches every vertex but 0: no vertex on a
    cycle is ever peeled.  An edge list is proved by graphs._tree_lists, as
    parse_edge_list proves one, its BFS order read backwards.  build_graph
    and as_tree word a fault from the tree's edges, alike for both layouts."""
    tree_obj = doc["tree"]
    n = tree_obj["n"]
    if "parent" in tree_obj:
        if "edges" in tree_obj:
            raise ValueError("tree holds both edges and parent")
        parent = tree_obj["parent"]
        # Checked before parent[0] is read or anything of size n allocated.
        if type(n) is not int or n < 1:
            raise ValueError(f"tree order {n!r} is not a positive integer")
        if type(parent) is not list:
            raise TypeError(f"parent is a {type(parent).__name__}, not a list")
        if len(parent) != n:
            raise ValueError(f"{len(parent)} parent entries for {n} vertices")
        if set(map(type, parent)) != {int}:
            v = next(v for v, p in enumerate(parent) if type(p) is not int)
            raise TypeError(f"parent {parent[v]!r} of vertex {v} is not an integer")
        if parent[0] != -1:
            raise ValueError(f"parent {parent[0]} of vertex 0 is not -1")
        up = parent[1:]
        if min(up, default=0) >= 0 and max(up, default=0) < n:  # a -1 would index from the end
            left = [0] * n  # children not yet peeled
            for p in up:
                left[p] += 1
            left[0] -= 1  # each now one less than its vertex's degree
            n2 = left.count(1)
            left[0] = n  # more than its children: 0 is never peeled
            below = [v for v, c in enumerate(left) if not c]
            for x in below:
                p = parent[x]
                left[p] -= 1
                if not left[p]:
                    below.append(p)
            if len(below) == n - 1:
                return n2, below, parent
        edges = list(zip(range(1, n), up))
    else:
        edges = tree_obj["edges"]
        # Checked before anything is allocated in proportion to n.
        if type(n) is not int:
            raise TypeError(f"tree order {n!r} is not an integer")
        if len(edges) != n - 1:
            raise ValueError(f"{len(edges)} edges for {n} vertices")
        for e in edges:
            pair = type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int
            if not pair:
                raise TypeError(f"edge {e!r} is not a pair of integers")
        if proof := _tree_lists(n, edges):
            adj, order, parent = proof
            return list(map(len, adj)).count(2), order[:0:-1], parent
    as_tree(build_graph(n, edges))  # raises: these n - 1 edges are no tree
    raise AssertionError("as_tree accepted edges its BFS refused")


def _labels(below: list[int], parent: list[int], seq: tuple[int, ...]) -> list[int]:
    """The process labels L(x) = min over i of (i + d(x, s_i)) on the tree
    parent roots at 0, over seq's sources before its first one outside
    0..n-1 (n + 1 everywhere if none): one pass over below, each vertex but
    0 after its children, from the leaves up, one over it reversed, down."""
    n = len(parent)
    labels = [n + 1] * n
    for i, s in enumerate(takewhile(range(n).__contains__, seq), 1):
        labels[s] = i
    for x in below:
        p = parent[x]
        if labels[x] < labels[p] - 1:
            labels[p] = labels[x] + 1
    for x in reversed(below):
        above = labels[parent[x]] + 1
        if above < labels[x]:
            labels[x] = above
    return labels


def _check_claim(doc: dict, key: str, value: int, what: str) -> None:
    claimed = doc.get(key)
    if type(claimed) is not int or claimed != value:
        raise VerificationFailure(f"{what} mismatch")


def verify_document(doc: dict) -> dict:
    """Re-derive every claim from the embedded tree and sequence, on one
    route that reads each part of the document once, in this order.

    The tree (_tree_from_doc): its shape, then its proof, which gives n2, a
    leaves-up order and the parent array.  The claims n, n2, m and target,
    then the sequence and its length.  Then the process labels, computed by
    two passes over that order (_labels): the sequence is read from them in
    the strict burn's words (engine._burn, which no route here calls), and
    the stored labels must equal them.  Then total_rounds and the bound
    table.  No Tree is built for a valid certificate.  Returns a summary
    dict on success; raises VerificationFailure with a machine-readable
    reason, worded where the fault is found, otherwise.  Stored labels and
    bound values are treated as claims to check, never as inputs, and a bool
    never passes for an integer claim.
    """
    try:
        n2, below, parent = _tree_from_doc(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise VerificationFailure(f"malformed tree: {exc}") from exc
    n = len(parent)
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
        seq = BurningSequence(entries).sources
    except (KeyError, ValueError, TypeError) as exc:
        raise VerificationFailure(f"malformed sequence: {exc}") from exc
    k = len(seq)
    if k > target:
        raise VerificationFailure("sequence longer than target")
    labels = _labels(below, parent, seq)
    last = max(labels)  # the round the counted sources' process ends in
    try:
        for i, s in enumerate(seq, 1):
            if not 0 <= s < n:  # _labels counted only the sources before it
                if last >= i:
                    raise VertexOutOfRange(f"source {s} is not a vertex")
                raise SourceAlreadyBurned(i, s)
            if labels[s] < i:
                raise SourceAlreadyBurned(i, s)
        if last != k:
            raise LengthMismatch(last)
    except ValueError as exc:
        raise VerificationFailure(f"invalid sequence: {exc}") from exc
    stored = doc.get("labels")
    if (
        type(stored) is not dict
        or len(stored) != n
        or list(map(stored.get, _keys(n)[:n])) != labels
        or set(map(type, stored.values())) != {int}
    ):
        raise VerificationFailure("labels mismatch")
    # The process ends in its last source's round.
    _check_claim(doc, "total_rounds", k, "round count")
    expected = bounds.as_dict()
    table = doc.get("bound_table")
    if table != expected or any(type(table[key]) is not type(v) for key, v in expected.items()):
        raise VerificationFailure("bound table mismatch")
    return {"ok": True, "n": n, "n2": n2, "length": k, "target": target, "total_rounds": k}
