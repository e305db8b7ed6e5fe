"""Immutable simple graphs and trees, structural queries, and generators.

Vertex ids are always dense 0-based integers and adjacency lists are kept
sorted, so every traversal and tie-break in the package is deterministic.
Induced subtrees carry a relabeling map back to their source tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdge,
    LoopEdge,
    NotAcyclic,
    NotAnEdge,
    NotConnected,
    VertexOutOfRange,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: sorted adjacency tuple per vertex."""

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def is_connected(self) -> bool:
        n = self.n
        return n > 0 and len(_bfs_tree(self.adjacency, 0)[0]) == n


@dataclass(frozen=True)
class Tree(Graph):
    """Connected acyclic graph, made from an edge list by _tree (generators,
    parse_edge_list, the tests' spanning-tree oracle) or from a Graph by
    as_tree(), which check this, or derived from a Tree by grafting leaves
    (augment_degree2) or by smoothing a vertex (construct.smooth), both of
    which keep it a tree.  Connectivity checks trust the type instead of
    running a pass."""

    def is_connected(self) -> bool:
        return self.n > 0

    @cached_property
    def rooting(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The vertices, each after its parent (not always in BFS order:
        augment_degree2 appends its grafted leaves to t's order), and each
        vertex's neighbor towards vertex 0, -1 at 0, which in a tree does
        not depend on neighbor order.  _tree stores its proof's BFS; any
        other Tree runs one BFS, once.  On a Tree built by hand around a
        cycle, the order misses every vertex that vertex 0 does not reach."""
        order, parent = _bfs_tree(self.adjacency, 0)
        return tuple(order), tuple(parent)

    @property
    def parent(self) -> tuple[int, ...]:
        """The rooting's parent array."""
        return self.rooting[1]

    @property
    def graph(self) -> Graph:
        """The same adjacency as a plain Graph, without the tree guarantee:
        a test oracle, for running the bare-Graph code paths on a tree."""
        return Graph(self.adjacency)


def build_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate an edge list and build a Graph.

    Rejects loops, duplicate edges (in either orientation), and endpoints
    outside 0..vertex_count-1, each with its own exception type.
    """
    if vertex_count < 0:
        raise ValueError("vertex_count must be nonnegative")
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
        if u == v:
            raise LoopEdge(f"loop edge at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge {key} given twice")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(tuple(tuple(sorted(a)) for a in adj))


def as_tree(g: Graph) -> Tree:
    """Check connectivity and edge count; return g itself when it is a Tree
    (keeping its parent array), else g's adjacency as a Tree."""
    if not g.is_connected():
        raise NotConnected(f"graph with {g.n} vertices is not connected")
    if (edges := g.edge_count()) != g.n - 1:
        raise NotAcyclic(f"{edges} edges on {g.n} vertices")
    return g if isinstance(g, Tree) else Tree(g.adjacency)


def _tree_lists(
    n: int, edges: Iterable[Sequence[int]]
) -> tuple[list[list[int]], list[int], list[int]] | None:
    """Unsorted neighbor lists of the n - 1 given edges on n >= 1 vertices
    and the order and parent array of their BFS from 0, when they form a
    tree, else None.  n - 1 in-range edges that reach every vertex from 0
    form a tree, so they hold no loop and no duplicate: one loop and one
    BFS check it, with no edge-key set and no sort.  The caller checks the edge count and
    words a fault (build_graph, as_tree)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return None
        adj[u].append(v)
        adj[v].append(u)
    order, parent = _bfs_tree(adj, 0)
    return (adj, order, parent) if len(order) == n else None


def _tree(n: int, edges: Iterable[Sequence[int]]) -> Tree | None:
    """A Tree with sorted neighbor tuples, holding the BFS order and parent
    array of its proof, when _tree_lists proves the n - 1 given edges on
    n >= 1 vertices a tree, else None."""
    proof = _tree_lists(n, edges)
    if proof is None:
        return None
    adj, order, parent = proof
    list(map(list.sort, adj))
    t = Tree(tuple(map(tuple, adj)))
    t.__dict__["rooting"] = (tuple(order), tuple(parent))  # Tree.rooting's cache
    return t


def _require_vertices(g: Graph, *vs: int) -> None:
    """Reject ids outside 0..n-1; a negative one would index from the end."""
    for v in vs:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")


def _bfs_tree(
    adjacency: Sequence[Sequence[int]], root: int
) -> tuple[list[int], list[int]]:
    """BFS order of root's component, neighbors in adjacency order, and each
    vertex's parent: -1 at the root and at every vertex not reached.  A
    vertex is marked when first reached, so a cycle or a second component
    never makes the search visit a vertex twice."""
    parent = [-1] * len(adjacency)
    parent[root] = root  # marks the root reached until the search ends
    order = [root]
    for u in order:
        for w in adjacency[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    parent[root] = -1
    return order, parent


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from source; -1 marks unreachable vertices."""
    _require_vertices(g, source)
    order, parent = _bfs_tree(g.adjacency, source)
    dist = [-1] * g.n
    dist[source] = 0
    for u in order[1:]:  # a parent comes before its children
        dist[u] = dist[parent[u]] + 1
    return dist


def component_vertices_beyond(t: Tree, u: int, v: int) -> list[int]:
    """Vertices of the component of t minus edge uv that contains v, sorted.
    A test oracle for the branches construct measures by subtree sizes."""
    _require_vertices(t, u, v)
    if v not in t.neighbors(u):
        raise NotAnEdge(f"({u}, {v}) is not an edge")
    # in a tree, u is reachable from v only through the edge uv itself, so
    # refusing to visit u explores exactly v's side of the cut
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for w in t.neighbors(x):
            if w != u and w not in seen:
                seen.add(w)
                stack.append(w)
    return sorted(seen)


def degree2_census(t: Tree) -> tuple[int, list[int]]:
    """Count and list (sorted) the degree-2 vertices."""
    vs = [v for v, nbrs in enumerate(t.adjacency) if len(nbrs) == 2]
    return len(vs), vs


def augment_degree2(t: Tree) -> tuple[Tree, dict[int, int]]:
    """Attach one new leaf to each degree-2 vertex.

    New leaves get ids n, n+1, ... in ascending order of their attachment
    vertex; the returned map sends each new leaf to its attachment.  The
    result has no degree-2 vertices and contains t as the induced subtree
    on the original ids.  Grafting keeps a tree a tree, and each new id
    exceeds every old one, so appending it keeps the adjacency sorted.  The
    result's rooting is t's with each new leaf after its attachment vertex.
    """
    adj = list(t.adjacency)
    attach = dict(enumerate(degree2_census(t)[1], t.n))
    for leaf, w in attach.items():
        adj[w] += (leaf,)
        adj.append((w,))
    grafted = Tree(tuple(adj))
    order, parent = t.rooting
    grafted.__dict__["rooting"] = (order + tuple(attach), parent + tuple(attach.values()))
    return grafted, attach


def induced_subtree(t: Tree, vertices: Sequence[int]) -> tuple[Tree, tuple[int, ...]]:
    """Induced subgraph of t on the given vertices, as a dense-id Tree.

    New ids follow the sorted order of the given vertices; the returned map
    sends new ids back to source ids.  Raises if the induced subgraph is not
    itself a tree (i.e. the vertex set is not connected in t).  A test
    oracle: construct keeps its levels inside one working tree.
    """
    _require_vertices(t, *vertices)
    vs = sorted(set(vertices))
    local = {x: i for i, x in enumerate(vs)}
    edges = [
        (local[u], local[v])
        for u, v in t.edges()
        if u in local and v in local
    ]
    if len(edges) != len(vs) - 1 or (tree := _tree(len(vs), edges)) is None:
        tree = as_tree(build_graph(len(vs), edges))  # raises, wording the fault
    return tree, tuple(vs)


# ---------------------------------------------------------------------------
# Prufer codes
# ---------------------------------------------------------------------------

def prufer_decode(code: Sequence[int]) -> Tree:
    """Labeled tree on len(code)+2 vertices from its Prufer code."""
    n = len(code) + 2
    degree = [1] * n
    for x in code:
        if not 0 <= x < n:
            raise VertexOutOfRange(f"code entry {x} outside 0..{n - 1}")
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return _tree(n, edges)


# ---------------------------------------------------------------------------
# Generators (all deterministic given their arguments)
# ---------------------------------------------------------------------------

def gen_path(n: int) -> Tree:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return _tree(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return build_graph(n, edges)


def gen_full_binary(height: int) -> Tree:
    """Complete binary tree with the given height; root is the only degree-2 vertex."""
    if height < 0:
        raise ValueError("height must be nonnegative")
    n = (1 << (height + 1)) - 1
    return _tree(n, [((c - 1) // 2, c) for c in range(1, n)])


def gen_double_star(s: int, t: int) -> Tree:
    """Two adjacent centers (ids 0 and 1) with s and t pendant leaves."""
    if s < 0 or t < 0:
        raise ValueError("leaf counts must be nonnegative")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(s)]
    edges += [(1, 2 + s + j) for j in range(t)]
    return _tree(2 + s + t, edges)


def gen_random_tree(n: int, seed: int) -> Tree:
    """Uniform random labeled tree via a random Prufer code."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return _tree(1, [])
    rng = SplitMix64(seed)
    return prufer_decode([rng.below(n) for _ in range(n - 2)])


def gen_random_no_deg2(n_target: int, seed: int) -> Tree:
    """Random tree of order n_target with a leaf grafted onto each degree-2
    vertex.  Order lands in [n_target, 2*n_target]; the distribution is NOT
    uniform over degree-2-free trees (rejection sampling would be), it only
    provides deterministic coverage.
    """
    base = gen_random_tree(n_target, seed)
    tree, _ = augment_degree2(base)
    return tree
