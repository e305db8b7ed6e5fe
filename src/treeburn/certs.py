"""Certificate documents: JSON serialization and self-contained verification.

A certificate embeds the tree (as a parent array rooted at vertex 0 since
schema 4, as an edge list before), the burning sequence, the claimed labeling,
and the bound values.  verify_document() derives everything from the
embedded tree and sequence alone, so a certificate stands or falls
regardless of who produced it: a parent array is accepted when its claimed
labels provably equal the process's, and otherwise it and an edge list are
re-simulated.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import compress
from operator import gt, itemgetter, lt, sub
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


def _claimed(doc: dict, key: str, value: int) -> bool:
    claimed = doc.get(key)
    return type(claimed) is int and claimed == value


def _check_claim(doc: dict, key: str, value: int, what: str) -> None:
    if not _claimed(doc, key, value):
        raise VerificationFailure(f"{what} mismatch")


def _table_matches(doc: dict, expected: dict) -> bool:
    table = doc.get("bound_table")
    return table == expected and all(
        type(table[k]) is type(v) for k, v in expected.items()
    )


def _proved_by_labels(doc) -> Optional[dict]:
    """The summary of a parent-array certificate that its claimed labels
    prove valid, else None.  Every check is a C-level pass over the arrays,
    and nothing is rebuilt: no neighbor lists, no burn.  It reads every
    claim verify_document's checked route reads, with the same type checks,
    and leaves every refusal to that route.

    Tree: with P(0) := 0, the parent array is a tree rooted at 0 iff
    P^(2^r) maps every vertex to 0 for 2^r >= n, by pointer doubling.
    Labels: claimed labels C are the process labels L(x) = min_i (i +
    d(x, s_i)) iff C(s_i) = i, |C(x) - C(parent[x])| <= 1 on every edge,
    and every vertex but a source has a neighbor labelled C - 1 (C <= L by
    the first two; following neighbors labelled one less from x ends at
    some s_i after C(x) - i steps, so C >= L).  The sequence is then valid
    iff max C = k: each s_i burns in round i, so it was unburned at the
    start of that round, and the last vertex burns in round k.
    """
    tree = doc.get("tree") if type(doc) is dict else None
    if type(tree) is not dict or "edges" in tree:
        return None
    n, parent = tree.get("n"), tree.get("parent")
    # itemgetter of one index returns the item, not a tuple
    if type(n) is not int or n < 3 or type(parent) is not list or len(parent) != n:
        return None
    stored, seq = doc.get("labels"), doc.get("sequence")
    if type(stored) is not dict or len(stored) != n or type(seq) is not list or not seq:
        return None
    up = parent[1:]
    labels = list(map(stored.get, _keys(n)[:n]))
    if (
        parent[0] != -1
        or set(map(type, parent)) != {int}
        or set(map(type, labels)) != {int}
        or set(map(type, seq)) != {int}
        or min(seq) < 0
        or max(seq) >= n
    ):
        return None
    children = Counter(up)
    if min(children) < 0 or max(children) >= n:
        return None
    anc = [0, *up]
    for _ in range(n.bit_length()):
        if not any(anc):
            break
        anc = itemgetter(*anc)(anc)
    else:
        if any(anc):
            return None  # a cycle that avoids vertex 0
    k = len(seq)
    below, above = labels[1:], itemgetter(*up)(labels)  # each edge's two ends
    if (
        list(map(labels.__getitem__, seq)) != list(range(1, k + 1))
        or max(labels) != k
        or not set(map(sub, below, above)) <= {-1, 0, 1}
    ):
        return None
    down = set(seq)  # the vertices with a neighbor labelled one less
    down.update(compress(range(1, n), map(gt, below, above)))
    down.update(compress(up, map(lt, below, above)))
    if len(down) != n:
        return None
    n2 = list(children.values()).count(1) - (children[0] == 1) + (children[0] == 2)
    bounds = bound_table(n, n2)
    target = bounds.refined
    claims = (("n", n), ("n2", n2), ("m", bounds.m), ("target", target), ("total_rounds", k))
    if k > target or not all(_claimed(doc, *claim) for claim in claims):
        return None
    if not _table_matches(doc, bounds.as_dict()):
        return None
    return _summary(n, n2, k, target)


def _summary(n: int, n2: int, length: int, target: int) -> dict:
    """A valid certificate's summary: its process ends in its last
    source's round."""
    return {
        "ok": True, "n": n, "n2": n2, "length": length, "target": target,
        "total_rounds": length,
    }


def verify_document(doc: dict) -> dict:
    """Re-derive every claim from the embedded tree and sequence.

    A parent array whose claimed labels prove it valid is accepted by
    _proved_by_labels.  Every other document takes the checked route, the
    only one that words a refusal: the tree is checked on plain neighbor
    lists by one BFS, and the sequence is burned, strictly, on those lists
    (_tree_from_doc); no Tree is built for a valid certificate.
    Returns a summary dict on success; raises VerificationFailure with a
    machine-readable reason otherwise.  Stored labels and bound values are
    treated as claims to check, never as inputs, and a bool never passes
    for an integer claim.
    """
    summary = _proved_by_labels(doc)
    if summary is not None:
        return summary
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
        kept, labels = _burn(adj, seq.sources, strict=True)
        total_rounds = len(kept)
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
    if not _table_matches(doc, bounds.as_dict()):
        raise VerificationFailure("bound table mismatch")
    return _summary(n, n2, len(seq), target)
