"""Certificate documents: JSON serialization and self-contained verification.

A certificate embeds the tree (as a parent array rooted at vertex 0 since
schema 4, as an edge list before), the burning sequence, the claimed labeling,
and the bound values.  verify_document() derives everything from the
embedded tree and sequence alone, so a certificate stands or falls
regardless of who produced it.  It takes one route: the tree is proved
once, as a parent array rooted at vertex 0, each claim is checked once,
and one check, the labels lemma (_labels_proved), accepts the claimed
labels for every schema and order.  A sequence is burned only to word why
a certificate is refused.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import compress
from operator import gt, itemgetter, lt, sub
from typing import Optional

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


def _tree_from_doc(doc: dict) -> tuple[int, list[int]]:
    """The embedded tree's degree-2 count and a parent array rooting it at
    vertex 0: the stored one when pointer doubling (_child_counts) proves
    it a tree, else the parent array of graphs._tree_lists' BFS, the one
    tree check cli.parse_edge_list also runs, which proves n - 1 edges a
    tree by one loop and one BFS: a schema 1-3 edge list, or the edges (v,
    parent[v]) of an array the doubling refuses.  On a fault, build_graph
    and as_tree raise, so a reason names the first fault they meet."""
    tree_obj = doc["tree"]
    n = tree_obj["n"]
    if "parent" in tree_obj:
        if "edges" in tree_obj:
            raise ValueError("tree holds both edges and parent")
        parent = tree_obj["parent"]
        # Checked before anything is allocated in proportion to n, and
        # before parent[0] is read.
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
        children = _child_counts(parent)
        if children is None:
            edges = list(zip(range(1, n), parent[1:]))
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
        children = None
    if children is None:
        proof = _tree_lists(n, edges)
        parent = proof[2] if proof is not None else as_tree(build_graph(n, edges)).parent
        children = Counter(parent[1:])
    # a vertex other than 0 has degree 2 with one child, 0 with two
    ones = list(children.values()).count(1)
    return ones - (children[0] == 1) + (children[0] == 2), parent


def _child_counts(parent: list[int]) -> Optional[Counter]:
    """Every vertex's child count when the parent array, of integer entries
    with parent[0] == -1, is a tree rooted at 0, else None.  With P(0) :=
    0, it is one iff P^(2^r) maps every vertex to 0 for 2^r >= n; pointer
    doubling computes P^2, P^4, ... by C-level passes."""
    up = parent[1:]
    children = Counter(up)
    if min(children, default=0) < 0 or max(children, default=0) >= len(parent):
        return None  # a -1 would index from the end
    anc = [0, *up]
    for _ in range(len(parent).bit_length()):
        if not any(anc):
            return children
        anc = itemgetter(*anc)(anc)
    return None if any(anc) else children  # a cycle that avoids vertex 0


def _labels_proved(parent: list[int], stored, seq: tuple[int, ...]) -> bool:
    """Whether the claimed labels stored are the process's labels for seq,
    a nonempty sequence of distinct integers, on the tree parent roots at
    vertex 0 (_tree_from_doc), of any order, with seq valid.  Every check
    is a C-level pass: no neighbor lists, no burn.

    Claimed labels C are the process labels L(x) = min_i (i + d(x, s_i))
    iff C(s_i) = i, |C(x) - C(parent[x])| <= 1 on every edge, and every
    vertex but a source has a neighbor labelled C - 1 (C <= L by the first
    two; following neighbors labelled one less from x ends at some s_i
    after C(x) - i steps, so C >= L).  The sequence is then valid iff
    max C = k: each s_i burns in round i, so it was unburned at the start
    of that round, and the last vertex burns in round k.  So this is the
    one check that accepts labels: a valid sequence's true labels, all of
    type int, always pass it, and nothing else does.
    """
    n = len(parent)
    if type(stored) is not dict or len(stored) != n or min(seq) < 0 or max(seq) >= n:
        return False
    labels = list(map(stored.get, _keys(n)[:n]))
    if set(map(type, labels)) != {int}:
        return False
    k = len(seq)
    up = parent[1:]
    # each edge's two ends; itemgetter of one index would return the item,
    # not a tuple, but below 3 vertices every parent is 0
    below = labels[1:]
    above = itemgetter(*up)(labels) if n > 2 else labels[:1] * len(up)
    if (
        list(map(labels.__getitem__, seq)) != list(range(1, k + 1))
        or max(labels) != k
        or not set(map(sub, below, above)) <= {-1, 0, 1}
    ):
        return False
    down = set(seq)  # the vertices with a neighbor labelled one less
    down.update(compress(range(1, n), map(gt, below, above)))
    down.update(compress(up, map(lt, below, above)))
    return len(down) == n


def _check_claim(doc: dict, key: str, value: int, what: str) -> None:
    claimed = doc.get(key)
    if type(claimed) is not int or claimed != value:
        raise VerificationFailure(f"{what} mismatch")


def verify_document(doc: dict) -> dict:
    """Re-derive every claim from the embedded tree and sequence, on one
    route that reads each part of the document once, in this order.

    The tree (_tree_from_doc): its shape, then its proof, which gives a
    parent array and n2.  The claims n, n2, m and target, then the
    sequence and its length.  The labels: _labels_proved alone accepts
    them, for every layout and order.  When it refuses, the sequence is
    burned, strictly, only to word the refusal: an invalid sequence, or
    else labels that are not its labels.  Then total_rounds and the bound
    table.  No Tree is built and nothing is burned for a valid
    certificate.
    Returns a summary dict on success; raises VerificationFailure with a
    machine-readable reason, worded where the fault is found, otherwise.
    Stored labels and bound values are treated as claims to check, never
    as inputs, and a bool never passes for an integer claim.
    """
    try:
        n2, parent = _tree_from_doc(doc)
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
    if not _labels_proved(parent, doc.get("labels"), seq):
        try:
            kept, _ = _burn(_tree_lists(n, zip(range(1, n), parent[1:]))[0], seq, strict=True)
            if len(kept) != k:
                raise LengthMismatch(len(kept))
        except ValueError as exc:
            raise VerificationFailure(f"invalid sequence: {exc}") from exc
        # the sequence is valid, so its true labels would have passed
        raise VerificationFailure("labels mismatch")
    # The process ends in its last source's round.
    _check_claim(doc, "total_rounds", k, "round count")
    expected = bounds.as_dict()
    table = doc.get("bound_table")
    if table != expected or any(type(table[key]) is not type(v) for key, v in expected.items()):
        raise VerificationFailure("bound table mismatch")
    return {"ok": True, "n": n, "n2": n2, "length": k, "target": target, "total_rounds": k}
