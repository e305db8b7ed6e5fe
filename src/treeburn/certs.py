"""Certificate documents: JSON serialization and self-contained verification.

A certificate embeds the tree, the burning sequence, the claimed labeling,
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

SCHEMA_VERSION = "3"


def document_from_certificate(
    cert: BoundCertificate, seed: Optional[int] = None
) -> dict:
    adj = cert.tree.adjacency
    edges = [[u, v] for u, a in enumerate(adj) for v in a if u < v]  # Graph.edges()'s order
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "tree": {"n": cert.tree.n, "edges": edges},
        "n": cert.n,
        "n2": cert.n2,
        "m": cert.m,
        "target": cert.target,
        "sequence": list(cert.sequence.sources),
        "labels": {str(v): r for v, r in enumerate(cert.labeling.labels)},
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
    proves the n - 1 edges a tree by one loop and one BFS.  On a fault,
    build_graph and as_tree raise, so a reason names the first fault they
    meet."""
    tree_obj = doc["tree"]
    n = tree_obj["n"]
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
    adj = _tree_lists(n, edges)
    if adj is not None:
        return adj
    return as_tree(build_graph(n, edges)).adjacency


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
    recomputed = {str(v): r for v, r in enumerate(labels)}
    # Only the first source burns in round 1, so once the dicts are equal a
    # bool (True == 1) can sit nowhere else; one float (2.0 == 2) anywhere
    # makes the sum a float.
    if (
        stored != recomputed
        or type(stored[str(seq.sources[0])]) is not int
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
