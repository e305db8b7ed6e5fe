"""parse_edge_list as it was before the one-pass tree check, for
differential tests.

Every text is read line by line, and build_graph (edge-key set, sorted
neighbor tuples) builds a bare Graph from the edges.  Tests compare its
adjacency or ParseError message with parse_edge_list's, text for text.
"""

from __future__ import annotations

from treeburn.cli import ParseError
from treeburn.graphs import Graph, build_graph


def reference_parse_edge_list(text: str, name: str = "<input>") -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError(f"{name}:{lineno}: expected vertex count, got {raw!r}")
            try:
                n = int(fields[0])
            except ValueError:
                raise ParseError(f"{name}:{lineno}: vertex count is not an integer")
            continue
        if len(fields) != 2:
            raise ParseError(f"{name}:{lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"{name}:{lineno}: edge endpoints are not integers")
        edges.append((u, v))
    if n is None:
        raise ParseError(f"{name}: empty edge-list file")
    if n < 0:
        raise ParseError(f"{name}: vertex count {n} is negative")
    if n > len(edges) + 1:
        raise ParseError(f"{name}: {len(edges)} edges cannot connect {n} vertices")
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}")
