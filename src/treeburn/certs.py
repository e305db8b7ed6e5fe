"""Certificate documents: JSON serialization and self-contained verification.

A certificate embeds the tree, the burning sequence, the claimed labeling,
and the bound values.  verify_document() recomputes everything from the
embedded tree and sequence alone, so a certificate stands or falls on pure
simulation regardless of who produced it.
"""

from __future__ import annotations

import json
from typing import Optional

from . import __version__
from .bounds import bound_table, margin, refined_bound
from .construct import BoundCertificate
from .engine import BurningSequence, validate_sequence
from .graphs import Tree, as_tree, build_graph, degree2_census

SCHEMA_VERSION = "2"


def document_from_certificate(
    cert: BoundCertificate, seed: Optional[int] = None
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "tree": {"n": cert.tree.n, "edges": [list(e) for e in cert.tree.edges()]},
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class VerificationFailure(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _tree_from_doc(doc: dict) -> Tree:
    tree_obj = doc["tree"]
    n = tree_obj["n"]
    edges = tree_obj["edges"]
    # Checked before build_graph, which allocates in proportion to n.
    if type(n) is not int:
        raise TypeError(f"tree order {n!r} is not an integer")
    if len(edges) != n - 1:
        raise ValueError(f"{len(edges)} edges for {n} vertices")
    for e in edges:
        pair = type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int
        if not pair:
            raise TypeError(f"edge {e!r} is not a pair of integers")
    return as_tree(build_graph(n, edges))


def verify_document(doc: dict) -> dict:
    """Re-derive every claim from the embedded tree and sequence.

    Returns a summary dict on success; raises VerificationFailure with a
    machine-readable reason otherwise.  Stored labels and bound values are
    treated as claims to check, never as inputs.
    """
    try:
        tree = _tree_from_doc(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise VerificationFailure(f"malformed tree: {exc}") from exc
    n = tree.n
    n2, _ = degree2_census(tree)
    if doc.get("n") != n:
        raise VerificationFailure("order mismatch")
    if doc.get("n2") != n2:
        raise VerificationFailure("degree-2 count mismatch")
    total = n + n2
    if doc.get("m") != margin(total):
        raise VerificationFailure("margin mismatch")
    target = refined_bound(n, n2)
    if doc.get("target") != target:
        raise VerificationFailure("target mismatch")
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
    if stored != recomputed:
        raise VerificationFailure("labels mismatch")
    if doc.get("total_rounds") != labeling.total_rounds:
        raise VerificationFailure("round count mismatch")
    expected_table = bound_table(n, n2).as_dict()
    if doc.get("bound_table") != expected_table:
        raise VerificationFailure("bound table mismatch")
    return {
        "ok": True,
        "n": n,
        "n2": n2,
        "length": len(seq),
        "target": target,
        "total_rounds": labeling.total_rounds,
    }
