"""Certificate documents: JSON serialization and self-contained verification.

A certificate embeds the tree (as a parent array rooted at vertex 0 since
schema 4, as an edge list before), the burning sequence, the claimed labeling,
and the bound values.  verify_document() recomputes everything from the
embedded tree and sequence alone, so a certificate stands or falls on pure
simulation regardless of who produced it.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from . import __version__
from .bounds import bound_table
from .construct import BoundCertificate
from .engine import BurningSequence, _burn
from .errors import LengthMismatch
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


def _tree_from_doc(doc: dict) -> Sequence[Sequence[int]]:
    """The embedded tree's neighbor lists, unsorted.  After the type checks,
    graphs._tree_lists, the one tree check cli.parse_edge_list also runs,
    proves the n - 1 edges a tree by one loop and one BFS: a schema 1-3
    edge list, or the edges (v, parent[v]) of a schema-4 parent array.  On
    a fault, build_graph and as_tree raise, so a reason names the first
    fault they meet."""
    tree_obj = doc["tree"]
    n = tree_obj["n"]
    if "parent" in tree_obj:
        return _parent_tree(n, tree_obj)
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
    proof = _tree_lists(n, edges)
    if proof is not None:
        return proof[0]
    return as_tree(build_graph(n, edges)).adjacency


def _parent_tree(n, tree_obj: dict) -> Sequence[Sequence[int]]:
    """_tree_from_doc for a parent array: parent[0] is -1 and parent[v] is
    v's neighbor towards vertex 0."""
    if "edges" in tree_obj:
        raise ValueError("tree holds both edges and parent")
    parent = tree_obj["parent"]
    # Checked before anything is allocated in proportion to n, and before
    # parent[0] is read.
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
    proof = _tree_lists(n, zip(range(1, n), parent[1:]))
    if proof is not None:
        return proof[0]
    return as_tree(build_graph(n, list(zip(range(1, n), parent[1:])))).adjacency


def _check_claim(doc: dict, key: str, value: int, what: str) -> None:
    claimed = doc.get(key)
    if type(claimed) is not int or claimed != value:
        raise VerificationFailure(f"{what} mismatch")


def verify_document(doc: dict) -> dict:
    """Re-derive every claim from the embedded tree and sequence.

    The tree is checked on plain neighbor lists by one BFS, and the
    sequence is burned, strictly, on those lists (_tree_from_doc); no Tree
    is built for a valid certificate.
    Returns a summary dict on success; raises VerificationFailure with a
    machine-readable reason otherwise.  Stored labels and bound values are
    treated as claims to check, never as inputs, and a bool never passes
    for an integer claim.
    """
    try:
        adj = _tree_from_doc(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise VerificationFailure(f"malformed tree: {exc}") from exc
    n = len(adj)
    n2 = sum(1 for a in adj if len(a) == 2)
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
        _, labels, layers = _burn(adj, seq.sources, strict=True)
        total_rounds = len(layers)
        if total_rounds != len(seq):
            raise LengthMismatch(total_rounds)
    except ValueError as exc:
        raise VerificationFailure(f"invalid sequence: {exc}") from exc
    stored = doc.get("labels")
    keys = _keys(n)
    # n entries, one at each key str(v), hold exactly the keys 0..n-1.  Only
    # the first source burns in round 1, so once the values are equal a
    # bool (True == 1) can sit nowhere else; one float (2.0 == 2) anywhere
    # makes the sum a float.
    if (
        type(stored) is not dict
        or len(stored) != n
        or list(map(stored.get, keys[:n])) != labels
        or type(stored[keys[seq.sources[0]]]) is not int
        or type(sum(stored.values())) is not int
    ):
        raise VerificationFailure("labels mismatch")
    _check_claim(doc, "total_rounds", total_rounds, "round count")
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
        "total_rounds": total_rounds,
    }
