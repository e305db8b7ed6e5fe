"""Constructive burning sequences for trees, with machine-checkable certificates.

The pipeline: a tree with no degree-2 vertices is burned by picking a
separator vertex v whose branches are all small except the one across a
designated heavy edge, burning the small branches by plain propagation from
v, and descending into the one remaining branch after smoothing its root
away.  Arbitrary trees are first made degree-2-free by grafting a leaf onto
every degree-2 vertex, and the sequence found on the grafted tree is
projected back by relabelling, not burning (_project): each grafted-leaf
source moves onto its attachment vertex, which lowers only the labels its
fire now reaches a round sooner, and a round whose source burns sooner
gets the lowest id burning in it.

Every level lives in one mutable working tree in the grafted tree's ids,
rooted from the Tree's own rooting (Tree.rooting, the parse's proof BFS
extended by augment_degree2), not by a BFS of its own:
going down, a level edits O(deg) adjacency entries and logs their former
lists, and its separator walk resumes where the last level's stopped
(_WorkingTree); going up, the log restores each level, and the level is
relabelled, not burned: one label array serves every level, and a level
changes only the labels of its new vertices and of those its separator's
fire reaches sooner (_LevelLabels).  Only the innermost tree gets a burn
of its own.  find_separator, smooth, lift_sequence and project_to_subtree
are the steps on a Tree of their own, kept as test oracles.

No sequence is replayed: the labeling is the projection's relabel of the
grafted tree's labels, which the sequence drives exactly, and
verify_document checks a certificate where it is read.  A violated length
bound raises InternalBoundViolation, never a wrong answer.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .bounds import ceil_sqrt, margin
from .engine import (
    EMPTY,
    BurningSequence,
    RoundLabeling,
    _burn,
    _canonical,
    _transport,
)
from .errors import (
    DegreeTooSmall,
    InternalBoundViolation,
    NotAcyclic,
    PreconditionViolated,
    StructureMismatch,
)
from .exact import _burning_number_general
from .graphs import (
    Tree,
    _bfs_tree,
    _require_vertices,
    augment_degree2,
)

# Exact solving is instantaneous at this size and covers every order where
# the separator threshold would fall outside its valid range.
EXACT_FALLBACK_N = 9


@dataclass(frozen=True)
class BoundCertificate:
    """A burning sequence, its labeling and the bound it witnesses.

    trace holds one flat row of scalars per level, outermost first: step
    ("exact", "pendant" or "smooth"), order, m, target, separator, heavy,
    length and drop_margin; separator and heavy are ids of the tree
    construct_no_deg2 was given.  construct_general brackets them with an
    "augment" row (augmented order) and a "project" row (projected length),
    so there they are ids of the grafted tree.
    """

    tree: Tree
    n: int
    n2: int
    m: int
    target: int
    sequence: BurningSequence
    labeling: RoundLabeling
    trace: tuple[dict, ...]


def find_separator(t: Tree, p: Union[int, Fraction]) -> tuple[int, int, list[int]]:
    """Locate a separator for threshold p in [1, n-1): a vertex v, its heavy
    neighbor, and the heavy branch (the component of t minus that edge on
    the heavy side, ascending).  Every other branch at v has at most p
    vertices, and v's own side across the heavy edge exceeds p.

    One rooted pass: root t at its lowest-id leaf and start the walk at the
    root's neighbor; while some child subtree of the walk position exceeds
    p, step into the first such child (ascending id).  The heavy neighbor is
    always the parent, so the light branches are child subtrees and the
    heavy branch is everything outside v's subtree.  v's subtree has more
    than p vertices and shrinks strictly at every step, so the walk ends.

    A test oracle: construct walks the same way on its working tree, whose
    subtree sizes it keeps up to date instead of recomputing them.
    """
    if isinstance(p, float):
        raise TypeError("p must be an exact rational, not a float")
    p = Fraction(p)
    n = t.n
    if n < 3:
        raise PreconditionViolated(f"separator needs n >= 3, got {n}")
    if not 1 <= p < n - 1:
        raise PreconditionViolated(f"threshold {p} outside [1, {n - 1})")

    root = next(x for x in range(n) if t.degree(x) == 1)
    order, parent = _bfs_tree(t.adjacency, root)
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]

    v = t.neighbors(root)[0]
    while True:
        step = next(
            (u for u in t.neighbors(v) if u != parent[v] and size[u] > p), None
        )
        if step is None:
            break
        v = step
    below = bytearray(n)  # v's subtree; BFS reaches it after v
    below[v] = 1
    for u in order[order.index(v) + 1:]:
        below[u] = below[parent[u]]
    return v, parent[v], [x for x in range(n) if not below[x]]


def smooth(t: Tree, w: int) -> tuple[Tree, list[int]]:
    """Delete w (degree q >= 2) and stitch its neighbors into a path.

    With p leaf-neighbors: the two lowest-id leaf-neighbors become the path
    endpoints (as many of them as exist when p < 2), the non-leaf neighbors
    fill the path in ascending id order, and any further leaf-neighbors are
    deleted outright.  The result has n - 1 - max(0, p - 2) vertices and is
    free of degree-2 vertices whenever w was the only one in t.  Returns the
    smoothed tree and its map to t's ids (ascending); the removed vertices
    are the ones the map misses.

    A test oracle: construct smooths in place on its working tree.  Smoothing
    keeps a tree a tree, so the result is built straight from t's adjacency:
    the relabeling is monotone, which keeps every filtered neighbor list
    sorted, and only the stitched path's ends need a re-sort.
    """
    _require_vertices(t, w)
    q = t.degree(w)
    if q < 2:
        raise DegreeTooSmall(f"vertex {w} has degree {q}")
    nbrs = t.neighbors(w)
    leaf_nbrs = [x for x in nbrs if t.degree(x) == 1]
    other_nbrs = [x for x in nbrs if t.degree(x) > 1]
    path = leaf_nbrs[:1] + other_nbrs + leaf_nbrs[1:2]
    removed = {w, *leaf_nbrs[2:]}
    kept = [x for x in range(t.n) if x not in removed]
    local = {x: i for i, x in enumerate(kept)}
    adj = [[local[b] for b in t.neighbors(a) if b in local] for a in kept]
    for a, b in zip(path, path[1:]):
        adj[local[a]].append(local[b])
        adj[local[b]].append(local[a])
    for x in path:
        adj[local[x]].sort()
    return Tree(tuple(map(tuple, adj))), kept


def lift_sequence(
    t: Tree, u: int, v: int, to_parent: Sequence[int], seq_prime: BurningSequence
) -> BurningSequence:
    """Turn a sequence for the tree obtained by smoothing u in t - v into a
    sequence for t that starts at the leaf v and is at most one round longer.

    to_parent maps the smoothed tree's ids to t's; u, v and the surplus
    leaves are the vertices it misses.  The leaf ignites in round 1; each
    original source follows one round late; if the fire reached it first,
    its round gets the lowest-id vertex burning in it instead.  A test
    oracle: construct lifts by relabelling its working tree (_LevelLabels).
    """
    if not (0 <= v < t.n and 0 <= u < t.n):
        raise StructureMismatch("u and v must be vertices of t")
    if t.degree(v) != 1 or t.neighbors(v) != (u,):
        raise PreconditionViolated(f"{v} must be a leaf of t adjacent to {u}")
    if t.degree(u) < 3:
        raise PreconditionViolated(f"degree of {u} must be at least 3")
    mapped = set(to_parent)
    if u in mapped or v in mapped or not mapped <= set(range(t.n)):
        raise StructureMismatch("to_parent must map into t minus u and v")
    if not all(0 <= s < len(to_parent) for s in seq_prime.sources):
        raise StructureMismatch("sources must be vertices of the smoothed tree")

    proposals = [v] + [to_parent[s] for s in seq_prime.sources]
    return _transport(t.adjacency, proposals, len(seq_prime) + 1)[0]


class _WorkingTree:
    """One mutable tree in the ids of the tree construct_no_deg2 is given.

    Every relabeling of the per-level construction is monotone and every
    tie-break compares ids only, so each level's tree lives in the input's
    ids, and its trace row names vertices in them.  The tree stays rooted at
    its lowest-id leaf, which no level removes (smoothing keeps the two
    lowest leaf neighbors as path ends), so parent and subtree size are kept
    up to date instead of recomputed.  Removed vertices stay in adj, cut off
    from the root: the current level is the root's component.  adj starts
    out holding the input's own neighbor tuples: smooth puts a fresh list in
    every slot it edits before editing it, so the input is never written.

    The separator walk resumes where the last level's stopped.  path is the
    last walk, from the root to the separator.  A path vertex's size is
    base[i] - drop, not size[]: base[i] is its size plus drop when it
    joined, and drop counts the vertices removed since.  early[i] is the
    largest subtree the walk passed over in its steps out of path[0..i].
    Smoothing at the separator v, with w its parent and pw w's parent,
    removes the same count from every path vertex up to pw and from no
    other vertex, so it adds that count to drop instead of walking the
    ancestors.  Above pw, the subtrees the walk passed over keep their
    sizes, so early stays exact.
    """

    def __init__(self, t: Tree):
        n = t.n
        adj = list(t.adjacency)
        degrees = list(map(len, adj))
        if 2 in degrees:
            listing = [v for v, d in enumerate(degrees) if d == 2]
            raise PreconditionViolated(f"tree has degree-2 vertices: {listing}")
        order, parent = t.rooting
        # a hand-built Tree with a cycle would send the walks below round it
        ends = sum(degrees)
        if len(order) != n or ends != 2 * (n - 1):
            raise NotAcyclic(f"{ends} edge ends on {n} vertices, {len(order)} reached")
        parent = list(parent)
        size = [1] * n
        for u in order[:0:-1]:  # rooted at vertex 0
            size[parent[u]] += size[u]
        # re-root at the lowest-id leaf: only its path to vertex 0 changes,
        # where a vertex's subtree becomes all but the last one's old subtree
        root = next((x for x in range(n) if degrees[x] == 1), 0)
        x, up, below = root, -1, 0
        while x >= 0:
            parent[x], x, up = up, parent[x], x
            size[up], below = n - below, size[up]
        self.adj, self.root, self.parent, self.size = adj, root, parent, size
        self.path, self.base, self.early, self.drop = [root], [n], [], 0

    def order(self) -> int:
        """The current level's order: the root's size."""
        return self.base[0] - self.drop

    def separator(self, p: int) -> tuple[int, int]:
        """find_separator's v for threshold p + 1/2, and its subtree size:
        from the root, step into the first child (ascending id) whose
        subtree has more than p vertices while there is one.

        p only falls from level to level, so the walk follows the last one
        as far as it still is the walk: to the last path[k] whose size
        exceeds p with no subtree passed over on the way that does.  The
        vertices after path[k] get their sizes back, and the walk steps on
        from path[k]."""
        adj, parent, size = self.adj, self.parent, self.size
        path, base, early, drop = self.path, self.base, self.early, self.drop
        k = len(path) - 1
        while k and (base[k] - drop <= p or early[k - 1] > p):
            size[path[k]] = base[k] - drop
            k -= 1
        del path[k + 1:], base[k + 1:], early[k:]
        v = path[k]
        passed = early[-1] if early else 0
        while True:
            pv = parent[v]
            for u in adj[v]:
                if u != pv:
                    if size[u] > p:
                        early.append(passed)
                        path.append(u)
                        base.append(size[u] + drop)
                        v = u
                        break
                    if size[u] > passed:
                        passed = size[u]
            else:
                return v, base[-1] - drop

    def smooth(self, v: int, vsize: int) -> list[tuple[int, list[int]]]:
        """Descend from the level's tree into its smoothed heavy branch:
        cut the separator v's subtree, of vsize vertices, and smooth its
        parent w away, as smooth(t, w) would in the branch.  Returns the
        undo log, each touched vertex with its former neighbor list."""
        adj, parent, size = self.adj, self.parent, self.size
        w = parent[v]
        nbrs = [x for x in adj[w] if x != v]
        leaf_nbrs = [x for x in nbrs if len(adj[x]) == 1]
        path = leaf_nbrs[:1] + [x for x in nbrs if len(adj[x]) > 1] + leaf_nbrs[1:2]
        undo = []
        for x in adj[w]:  # unlink w: v's subtree and the surplus leaves fall away
            undo.append((x, adj[x]))
            adj[x] = [y for y in adj[x] if y != w]
        for a, b in zip(path, path[1:]):
            insort(adj[a], b)
            insort(adj[b], a)
        # the path hangs from w's parent, one arm on either side of it
        pw = parent[w]
        i = path.index(pw)
        for arm in (path[i + 1:], path[:i][::-1]):
            up = pw
            for x in arm:
                parent[x] = up
                up = x
            below = 0
            for x in reversed(arm):
                size[x] += below
                below = size[x]
        removed = 1 + vsize + len(leaf_nbrs[2:])
        self.drop += removed
        # the walk ends at v, after w: it now ends at pw
        del self.path[-2:], self.base[-2:], self.early[-2:]
        return undo

    def restore(self, undo: list[tuple[int, list[int]]]) -> None:
        for x, nbrs in undo:
            self.adj[x] = nbrs


class _LevelLabels:
    """Every level's burn, relabelled level by level on the way up.

    A level's tree T has separator v, heavy neighbor w, and one level down
    the smoothed heavy branch T' with canonical sequence s'_1, ..., s'_k and
    labels L'.  The level burns the proposals v, s'_1, ..., s'_k greedily,
    and its labels are

        L(x) = min(L'(x) + 1, 1 + d_T(v, x))  for x in T',
        L(x) = 1 + d_T(v, x)                  for v, its light side, w and
                                              the surplus leaves.

    Why: v burns in round 1, w in round 2 and every neighbor of w by round
    3.  A fire route through w, or across T''s stitched path, reaches a
    neighbor of w no earlier than round 3, so v's fire dominates it.  Inside
    one component of the heavy branch minus w, distances in T and in T'
    agree, so every other route arrives one round later than in T'.  A
    source the fire beats still burns, only sooner, and everything its own
    fire would reach, the fire that beat it reaches no later.  Hence s'_i
    is kept iff L(s'_i) = i + 1, that is iff the level does not lower its
    label.

    Labels change by at most 1 along an edge, and every edge of T between
    vertices of T' is an edge of T'.  So if 1 + d_T(v, x) improves on
    L'(x) + 1, it improves on the label of x's neighbor towards v too,
    unless that neighbor is w: a BFS from v that goes no further than a
    vertex it does not improve finds every improved vertex.

    One label array serves all levels, in rounds below the top: G(x) =
    L(x) + level, so a label the level does not lower keeps its G, and a
    level's round r is G = level + r.  src[g] is the source of that round;
    the current level's sequence is src[level + 1 .. end].  Each empty round
    gets the lowest id burning in it: from the part (v and the heavy
    branch) up to the round that burns the last of it, from the light side
    after that.  The part's candidates sit in one list per G, appended a
    BFS layer at a time, not sorted.  A label only falls, so an entry whose
    vertex moved on stays stale until a fill of its round drops the stale
    entries and takes the least of the rest.  count[g] counts the live
    ones, and the light side joins them when its level is done.
    """

    def __init__(
        self, order: int, depth: int, rounds: int, inner, inner_labels, sources
    ):
        """The innermost tree at level depth: inner[i] burns in round
        inner_labels[i] of sources.  rounds bounds every level's round
        count, and order the ids."""
        size = depth + rounds + 2
        self.labels = labels = [0] * order
        self.src: list = [None] * size
        self.count = count = [0] * size
        self.cands: list[list[int]] = [[] for _ in range(size)]
        for x, r in zip(inner, inner_labels):
            labels[x] = g = r + depth
            count[g] += 1
            self.cands[g].append(x)
        self.end = depth + len(sources)
        self.src[depth + 1 : self.end + 1] = sources

    def lift(
        self, adj: Sequence[Sequence[int]], level: int, v: int, w: int, target: int
    ) -> int:
        """Relabel from the level below to this level's tree, the component
        of v in adj, and return its round count."""
        labels, src, count, cands = self.labels, self.src, self.count, self.cands
        end = self.end
        if end - level - 1 > target - 1:
            raise InternalBoundViolation(
                f"branch sequence length {end - level - 1} > {target - 1}"
            )
        g = level + 1
        labels[v] = g
        src[g] = v
        count[g] += 1
        cands[g].append(v)
        light = []  # v's light side, by distance from v
        layer = [x for x in adj[v] if x != w]
        while layer:
            g += 1
            for x in layer:
                labels[x] = g
            light.append(layer)
            layer = [y for x in layer for y in adj[x] if not labels[y]]
        emptied = []  # rounds whose source the fire now beats
        layer, g = [v], level + 1
        while layer:
            g += 1
            reached = []
            for x in layer:
                for y in adj[x]:
                    old = labels[y]
                    if old and old <= g:
                        continue
                    if old:
                        count[old] -= 1
                        if src[old] == y:
                            emptied.append(old)
                    labels[y] = g
                    reached.append(y)
            count[g] += len(reached)
            cands[g] += reached
            layer = reached
        # the part's last round: T''s, or round 3 if w's surplus leaves
        # burn later than all of T'
        top = max(end, level + 3)
        while not count[top]:
            top -= 1
        if top > end:
            raise InternalBoundViolation(
                f"heavy branch took {top - level} rounds, bound {end - level}"
            )
        last = max(top, level + 1 + len(light))
        if last - level > target:
            raise InternalBoundViolation(
                f"assembled process took {last - level} rounds, target {target}"
            )
        for r in (*emptied, *range(end + 1, last + 1)):
            if r > top:
                if r <= last:
                    src[r] = min(light[r - level - 2])
                continue
            cands[r] = live = [x for x in cands[r] if labels[x] == r]
            src[r] = min(live)
        for r, layer in enumerate(light, level + 2):
            count[r] += len(layer)
            cands[r] += layer
        self.end = last
        return last - level

    def sequence(self) -> BurningSequence:
        """The outermost level's sequence."""
        return BurningSequence(tuple(self.src[1 : self.end + 1]))


def construct_no_deg2(t: Tree, m: int) -> BoundCertificate:
    """Burning sequence of length <= ceil_sqrt(n - m) for a tree without
    degree-2 vertices of order n >= m*(m+1)+1.

    One loop over levels: small trees are solved exactly; otherwise a
    separator confines the work to its heavy branch, whose root is smoothed
    away before descending into it with a reduced margin (a one-vertex
    branch is burned by that vertex alone).  The innermost sequence is then
    lifted back up level by level while the light branches burn by
    propagation; each lift relabels only what its level changes
    (_LevelLabels); the outermost level's labels are the labeling, and no
    burn replays the sequence.  Preconditions are checked once, on t, the
    degree-2 one by _WorkingTree from the degrees its cycle check reads;
    levels check only lengths.  Every level is a state of one _WorkingTree,
    in t's ids, whose separator walk resumes where the last level's stopped.
    """
    if m < 0:
        raise PreconditionViolated("margin must be nonnegative")
    if t.n < m * (m + 1) + 1:
        raise PreconditionViolated(
            f"order {t.n} below m*(m+1)+1 = {m * (m + 1) + 1} for margin {m}"
        )

    work = _WorkingTree(t)
    rows: list[dict] = []
    frames = []  # (level, v, heavy, undo log, row), outermost first
    n, level_m = t.n, m
    while True:
        target = ceil_sqrt(n - level_m)
        row = {
            "step": "exact",
            "order": n,
            "m": level_m,
            "target": target,
            "separator": None,
            "heavy": None,
            "drop_margin": False,
        }
        rows.append(row)
        if n <= EXACT_FALLBACK_N:
            # the general search, not burning_number's tree search: this
            # witness feeds the lift, and the goldens pin what results
            inner = sorted(_bfs_tree(work.adj, work.root)[0])
            local = {x: i for i, x in enumerate(inner)}
            small = Tree(tuple(tuple(local[y] for y in work.adj[x]) for x in inner))
            witness = _burning_number_general(small).witness
            if len(witness) > target:
                raise InternalBoundViolation(
                    f"exact solve gave {len(witness)} > target {target}"
                )
            inner_labels = _burn(small.adjacency, witness.sources, False)[1]
            sources = [inner[s] for s in witness.sources]
            row["length"] = len(sources)
            break

        m_eff = level_m
        if level_m >= 1 and n == level_m * (level_m + 1) + 1:
            # ceil_sqrt(n) equals the target at this exact order, so the
            # margin can be dropped and the separator round run margin-free.
            m_eff = 0
            if ceil_sqrt(n) != target:
                raise InternalBoundViolation("margin drop changed the target")
        # a subtree exceeds find_separator's p = 2*target - 3/2 iff it
        # exceeds 2*target - 2
        v, vsize = work.separator(2 * target - 2)
        heavy = work.parent[v]
        row.update(separator=v, heavy=heavy, drop_margin=m_eff != level_m)
        level = len(frames)
        if n - vsize == 1:  # the heavy branch is the root alone
            row["step"] = "pendant"
            frames.append((level, v, heavy, [], row))
            inner, inner_labels, sources = [heavy], [1], [heavy]
            break
        row["step"] = "smooth"
        frames.append((level, v, heavy, work.smooth(v, vsize), row))
        n = work.order()
        level_m = m_eff - 1 if m_eff >= 1 and n > m_eff * m_eff else 0

    labels = _LevelLabels(
        t.n, len(frames), max(row["target"] for row in rows),
        inner, inner_labels, sources,
    )
    for level, v, heavy, undo, row in reversed(frames):
        work.restore(undo)
        # the heavy branch plus v meets the light side only at v, which
        # burns in round 1, so the branch's sequence lifts one round late
        row["length"] = labels.lift(work.adj, level, v, heavy, row["target"])
    seq = labels.sequence()
    # at level 0 a stored G is the round itself
    labeling = RoundLabeling(tuple(labels.labels), labels.end)
    return BoundCertificate(t, t.n, 0, m, rows[0]["target"], seq, labeling, tuple(rows))


def project_to_subtree(
    t: Tree, attach: Mapping[int, int], seq: BurningSequence
) -> tuple[BurningSequence, RoundLabeling]:
    """Replay a sequence for the grafted tree on t, where (grafted tree,
    attach) is augment_degree2(t); returns the projected sequence and its
    labeling on t.

    A vertex of t maps to itself, and a grafted leaf to its attachment
    vertex: the leaf's only neighbor, hence its unique nearest vertex of t.
    Sources the fire beat are dropped.  The result is never longer than
    seq; it is the canonical form of the greedy run, which it drives
    exactly, so the run's rounds are its labeling and it needs no replay.

    A test oracle: construct_general projects by relabelling (_project).
    """
    proposals = [attach.get(y, y) for y in seq.sources]
    if not all(0 <= x < t.n for x in proposals):
        raise StructureMismatch("a source is neither a vertex of t nor a grafted leaf")
    projected, labels = _transport(t.adjacency, proposals, len(seq))
    return projected, RoundLabeling(tuple(labels), len(projected))


def _project(
    adj: Sequence[Sequence[int]],
    attach: Mapping[int, int],
    seq: BurningSequence,
    grafted: RoundLabeling,
) -> tuple[BurningSequence, RoundLabeling]:
    """project_to_subtree(t, attach, seq) for a sequence seq that drives the
    grafted tree's burn exactly, with grafted its labeling and adj t's
    adjacency, from the grafted labels instead of a burn.

    A vertex x of t burns in round min over i of (i + d(s_i, x)).  Moving a
    grafted-leaf source onto its attachment vertex lowers each of its
    contributions by exactly 1 and leaves every other one as it was, so a
    label on t is the grafted one or one less, and falls only where a moved
    source's lowered contribution beats it.  A BFS from each moved source
    relabels the vertices it improves and goes no further: labels change by
    at most 1 along an edge, so a vertex the BFS does not improve shields
    the ones behind it.  Each vertex falls at most once, and the BFS reads
    the neighbors of the vertices that fall, at most 2(n - 1) entries.

    A source is kept iff its label is its round; the rounds of the others
    get the lowest id burning in them (_canonical, as in _transport).
    """
    n = len(adj)
    labels = list(grafted.labels[:n])
    for r, y in enumerate(seq.sources, 1):
        a = attach.get(y)
        if a is None or labels[a] <= r:
            continue
        labels[a] = r
        layer = [a]
        while layer:
            r += 1
            reached = []
            for x in layer:
                for z in adj[x]:
                    if labels[z] > r:
                        labels[z] = r
                        reached.append(z)
            layer = reached
    rounds = max(labels)
    sources = [attach.get(y, y) for y in seq.sources[:rounds]]
    kept = [x if labels[x] == r else EMPTY for r, x in enumerate(sources, 1)]
    return _canonical(kept, labels), RoundLabeling(tuple(labels), rounds)


def construct_general(t: Tree) -> BoundCertificate:
    """Burning sequence of length <= refined_bound(n, n2) for any tree.

    Grafts a leaf onto every degree-2 vertex, constructs on the grafted tree
    with the largest admissible margin, and projects the sequence back by
    relabelling the grafted tree's labels on t (_project), which gives the
    labeling too.
    """
    n = t.n
    t1, attach = augment_degree2(t)
    n2 = t1.n - n  # one leaf grafted per degree-2 vertex
    m = margin(n + n2)  # construct_no_deg2 checks it against t1's order
    inner = construct_no_deg2(t1, m)
    # inner.target is refined_bound(n, n2); the projection is never longer
    seq, labeling = _project(t.adjacency, attach, inner.sequence, inner.labeling)
    trace = (
        {"step": "augment", "order": t1.n},
        *inner.trace,
        {"step": "project", "length": len(seq)},
    )
    return BoundCertificate(t, n, n2, m, inner.target, seq, labeling, trace)
