"""Exact burning numbers for small graphs.

Both searches rest on the ball-cover view of burning (Bonato, Janssen &
Roshanbin, "How to burn a graph", 2016): b(G) <= k iff balls of radii
k-1, ..., 0 cover every vertex.  burning_number() sends a connected graph
with n - 1 edges -- a tree, whatever its type -- to a search built for
trees, and every other graph to a general pruned search: it proposes k
sources, each unburned at the start of its round, whose balls cover the
graph.  The arbiter in every cross-check, an enumeration of source
sequences judged purely by simulation, lives with the tests
(tests/oracles.py), and neither search is ever trusted on its own.

Neither search asks for exactly k rounds; _solve makes the result exact.
It runs both searches from k = ceil_sqrt(diameter + 1) up (a ball of
radius r meets a geodesic in at most 2r + 1 vertices) to the first k whose
search finds a cover, which is b(G).  engine._transport burns the
proposals greedily, dropping any the fire beat, and fills each empty round
with the lowest-id vertex it burns; the witness is validated by
simulation.  The general search's proposals pass through unchanged.

The general search tries every vertex at every position, in order of
eccentricity, largest first.  It builds every ball mask in one radius
sweep, tests a candidate against one mask of the vertices already burned,
and prunes a candidate whose balls plus the largest balls of the positions
after it cannot cover the graph before it descends.

The tree search roots the tree at vertex 0 and numbers the vertices in BFS
order, so the highest uncovered bit is a deepest uncovered vertex x.  Some
unused radius r must cover x, and the radius-r ball around x's ancestor at
distance r (the root if x is shallower) covers every uncovered vertex that
any radius-r ball through x covers.  So the search branches over at most k
radii per state, computes each ball once by a bounded BFS, and remembers
the (uncovered, unused radii) states that failed, across every k tried.  It
proposes the centres, largest radius first.  construct's small-tree
fallback keeps the general search (_burning_number_general), because its
witness feeds the lift and the goldens pin the sequences that result.

nodes_explored counts, over every k tried, the balls the tree search
placed, or the sources the general search placed plus the complete
sequences it judged.  Burning is NP-hard even on trees (Bessy et al.,
"Burning a graph is hard", 2017), so a solve that places more than
NODE_BUDGET balls or sources raises SearchBudgetExceeded, which names the
bracket k <= b(G) <= e + 1 the solve established: k the value it was
searching, e the eccentricity of the tree search's root or the least
eccentricity in the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bounds import ceil_sqrt
from .engine import EMPTY, BurningSequence, _transport, validate_sequence
from .errors import InternalBoundViolation, NotConnected, SearchBudgetExceeded
from .graphs import Graph, Tree, _bfs_tree, as_tree, bfs_distances

# Nodes one exact solve may explore: 13x the largest count on any input of
# perfbench's full workloads (230249, the general search on a 37-vertex
# graph).  At the budget the tree search has run about 1.5 s (Python 3.11 on
# a 2-vCPU VM) and holds about 200 MB of failed states.
NODE_BUDGET = 3_000_000


@dataclass(frozen=True)
class ExactResult:
    burning_number: int
    witness: BurningSequence
    nodes_explored: int


def _require_connected(graph: Graph) -> None:
    if not graph.is_connected():
        raise NotConnected("exact solving requires a connected graph")


def _over_budget() -> SearchBudgetExceeded:
    return SearchBudgetExceeded(f"exact search exceeded its budget of {NODE_BUDGET} nodes")


class _Search:
    """Shared per-solve state: ball masks by radius, candidate order, bounds.

    balls[r][v] is the bitmask of the closed radius-r ball around v, built
    in one sweep, ball_{r+1}(v) = ball_r(v) | ball_r(w) over v's neighbors
    w, which stops when no ball grows, so it ends on a disconnected graph
    too; find repeats the last radius for larger ones.  A vertex's
    eccentricity is the number of radii its ball grew.
    """

    def __init__(self, graph: Graph):
        n, adjacency = graph.n, graph.adjacency
        ball = [1 << v for v in range(n)]
        self.balls = [ball]
        ecc = [0] * n
        while True:
            grown = []
            for v in range(n):
                mask = ball[v]
                for w in adjacency[v]:
                    mask |= ball[w]
                if mask != ball[v]:
                    ecc[v] += 1
                grown.append(mask)
            if grown == ball:
                break
            self.balls.append(grown)
            ball = grown
        self.n = n
        self.lower = ceil_sqrt(max(ecc) + 1)
        # burning from one vertex alone takes its eccentricity + 1 rounds
        self.upper = min(ecc) + 1
        self.order = sorted(range(n), key=lambda v: (-ecc[v], v))
        self.full = (1 << n) - 1
        self.nodes = 0

    def find(self, k: int) -> Optional[tuple[int, ...]]:
        """k sources, each unburned at the start of its round, whose
        radius-(k-i) balls (i the 1-based round) cover the graph, or None.

        A prefix is pruned when its balls plus the largest balls any
        remaining positions could contribute cannot cover the graph; a
        candidate is tested against that bound, and the last position
        against a full cover, before the search descends into it.  A node
        is each source placed (checked against NODE_BUDGET) and each
        complete sequence judged.
        """
        n, full, order, balls = self.n, self.full, self.order, self.balls
        balls += [balls[-1]] * (k - len(balls))  # radii up to k - 1
        ball_now = balls[k - 1::-1]  # position i places a radius-(k-1-i) ball
        # need[i]: the fewest vertices the sources before position i must
        # cover, so that the largest balls from position i on can finish
        need = [n] * (k + 1)
        for i in range(k - 1, -1, -1):
            need[i] = need[i + 1] - max(m.bit_count() for m in ball_now[i])
        chosen: list[int] = []
        nodes = self.nodes

        def extend(i: int, covered: int) -> bool:
            nonlocal nodes
            burned = 0  # burned before round i+1
            for j, x in enumerate(chosen):
                burned |= balls[i - j - 1][x]
            cover, last, enough = ball_now[i], i == k - 1, need[i + 1]
            for v in order:
                if burned >> v & 1:
                    continue
                nodes += 1
                if nodes > NODE_BUDGET:
                    raise _over_budget()
                reach = covered | cover[v]
                if last:
                    nodes += 1
                    if reach == full:
                        chosen.append(v)
                        return True
                elif reach.bit_count() >= enough:
                    chosen.append(v)
                    if extend(i + 1, reach):
                        return True
                    chosen.pop()
            return False

        found = need[0] <= 0 and extend(0, 0)
        self.nodes = nodes
        return tuple(chosen) if found else None


class _TreeSearch:
    """Per-solve state of the tree search, in bit ids: bit i is the i-th
    vertex in BFS order from vertex 0, so depth never decreases with i."""

    def __init__(self, tree: Tree):
        adjacency = tree.adjacency
        # a BFS of its own, not tree.rooting: bits need depth order, which a
        # grafted tree's rooting lacks, and the parse's BFS walks unsorted
        # neighbor lists, whose bit ids would change witnesses and node counts
        order, parent = _bfs_tree(adjacency, 0)
        parent[0] = 0  # in bit ids too, the root is its own parent
        bit = [0] * tree.n
        for i, v in enumerate(order):
            bit[v] = i
        self.order = order
        self.adjacency = [[bit[w] for w in adjacency[v]] for v in order]
        self.parent = [bit[parent[v]] for v in order]
        self.depth = [0] * tree.n
        for i in range(1, tree.n):
            self.depth[i] = self.depth[self.parent[i]] + 1
        # order[-1] is farthest from the root, so one end of a diameter
        self.lower = ceil_sqrt(max(bfs_distances(tree, order[-1])) + 1)
        # b <= ecc(root) + 1 (burn from the root alone), so the unused radii
        # of every k tried fit in the low bits of a state key
        self.upper = self.shift = self.depth[-1] + 1
        self._balls: dict[int, int] = {}
        self.failed: set[int] = set()
        self.nodes = 0

    def centre(self, x: int, r: int) -> int:
        """x's ancestor at distance r, or the root if x is shallower."""
        for _ in range(min(r, self.depth[x])):
            x = self.parent[x]
        return x

    def ball(self, x: int, r: int) -> int:
        """Bitmask of the radius-r ball around centre(x, r)."""
        key = x * self.shift + r
        mask = self._balls.get(key)
        if mask is None:
            c = self.centre(x, r)
            mask = 1 << c
            frontier = [c]
            for _ in range(r):
                nxt = []
                for u in frontier:
                    for w in self.adjacency[u]:
                        if not mask >> w & 1:
                            mask |= 1 << w
                            nxt.append(w)
                frontier = nxt
            self._balls[key] = mask
        return mask

    def find(self, k: int) -> Optional[list[Optional[int]]]:
        """Per-round proposals from a cover by balls of radii k-1..0: round
        i gets the centre of the radius-(k-i) ball, or EMPTY if the cover
        does without it; None if no cover exists."""
        chosen: dict[int, int] = {}
        failed, shift, ball = self.failed, self.shift, self.ball

        def cover(uncovered: int, radii: int) -> bool:
            if not uncovered:
                return True
            key = uncovered << shift | radii
            if key in failed:
                return False
            x = uncovered.bit_length() - 1
            left = radii
            while left:
                r = left.bit_length() - 1  # largest unused radius first
                left ^= 1 << r
                self.nodes += 1
                if self.nodes > NODE_BUDGET:
                    raise _over_budget()
                if cover(uncovered & ~ball(x, r), radii ^ (1 << r)):
                    chosen[r] = x
                    return True
            failed.add(key)
            return False

        if not cover((1 << len(self.order)) - 1, (1 << k) - 1):
            return None
        # a centre already burned lies within a larger, earlier ball, so the
        # greedy burn still covers everything within k rounds
        proposals = [EMPTY] * k
        for r, x in chosen.items():
            proposals[k - 1 - r] = self.order[self.centre(x, r)]
        return proposals


def _solve(graph: Graph, search) -> ExactResult:
    """Both searches' k-loop: search.find(k) from k = search.lower up, its
    first proposals transported into a validated witness of length k.  Over
    the budget, the error names the bracket k <= b <= search.upper: every
    smaller k was refuted by a search or by the diameter bound."""
    k = search.lower
    try:
        while (proposals := search.find(k)) is None:
            k += 1
    except SearchBudgetExceeded as exc:
        raise SearchBudgetExceeded(
            f"{exc}; {k} <= b <= {search.upper} (every smaller k ruled out)"
        ) from None
    seq = _transport(graph.adjacency, proposals, k)[0]
    validate_sequence(graph, seq)  # the search result is never trusted blindly
    if len(seq) != k:
        raise InternalBoundViolation(f"search missed a sequence of length {len(seq)}")
    return ExactResult(k, seq, search.nodes)


def _burning_number_general(g: Graph) -> ExactResult:
    """burning_number by the general search, whatever the graph's shape."""
    _require_connected(g)
    return _solve(g, _Search(g))  # distances and ball masks shared across all k


def burning_number(g: Graph) -> ExactResult:
    """Exact burning number with a validated witness sequence."""
    if g.edge_count() != g.n - 1:
        return _burning_number_general(g)
    t = as_tree(g)  # checks connectivity once; the burns below trust the type
    return _solve(t, _TreeSearch(t))
