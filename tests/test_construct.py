import inspect
import signal
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeburn import (
    BurningSequence,
    Graph,
    as_tree,
    augment_degree2,
    bfs_distances,
    build_graph,
    burning_number,
    canonicalize,
    ceil_sqrt,
    construct_general,
    construct_no_deg2,
    degree2_census,
    gen_double_star,
    gen_full_binary,
    gen_path,
    gen_random_no_deg2,
    gen_random_tree,
    prufer_decode,
    refined_bound,
    validate_sequence,
)
from treeburn import Tree, construct, engine, exact, graphs
from treeburn.bounds import margin
from treeburn.construct import find_separator, lift_sequence, project_to_subtree, smooth
from treeburn.errors import (
    DegreeTooSmall,
    InternalBoundViolation,
    NotAcyclic,
    PreconditionViolated,
    StructureMismatch,
)
from treeburn.engine import greedy_schedule
from treeburn.graphs import component_vertices_beyond, induced_subtree
from treeburn.rng import SplitMix64

from .oracles import labeled_trees
from .reference_construct import lift as reference_lift
from .reference_construct import reference_construct_no_deg2
from .strategies import (
    broom,
    bushy_path,
    caterpillar,
    random_valid_schedule,
    spider,
    trees,
)

STAR4 = [(0, 1), (0, 2), (0, 3)]


def check_separator(t, p, sep):
    """Re-derive every separator condition from first principles, measuring
    each branch with the independent oracle component_vertices_beyond."""
    v, heavy, branch = sep
    assert t.degree(v) >= 2
    assert heavy in t.neighbors(v)
    assert branch == component_vertices_beyond(t, v, heavy)
    assert t.n - len(branch) > p  # v's side across the heavy edge
    for nb in t.neighbors(v):
        if nb != heavy:
            assert len(component_vertices_beyond(t, v, nb)) <= p


class TestFindSeparator:
    def test_p5_threshold2(self):
        t = gen_path(5)
        sep = find_separator(t, 2)
        assert sep == (2, 1, [0, 1])
        assert len(component_vertices_beyond(t, 2, 3)) == 2  # the light branch
        assert t.n - len(sep[2]) == 3  # v's side
        check_separator(t, 2, sep)

    def test_star_threshold1(self):
        t = as_tree(build_graph(4, STAR4))
        sep = find_separator(t, 1)
        assert sep == (0, 1, [1])
        assert [len(component_vertices_beyond(t, 0, nb)) for nb in (2, 3)] == [1, 1]
        assert t.n - len(sep[2]) == 3
        check_separator(t, 1, sep)

    def test_threshold_out_of_range(self):
        with pytest.raises(PreconditionViolated):
            find_separator(gen_path(5), 4)  # p >= n - 1
        with pytest.raises(PreconditionViolated):
            find_separator(gen_path(5), Fraction(1, 2))
        with pytest.raises(PreconditionViolated):
            find_separator(gen_path(2), 1)

    def test_float_threshold_rejected(self):
        with pytest.raises(TypeError):
            find_separator(gen_path(5), 2.0)

    def test_certificate_invariants_on_seeded_corpus(self):
        for i in range(1000):
            n = 3 + (i * 13) % 60
            t = gen_random_tree(n, 8200 + i)
            # p in [1, n-1), drawn over half-integers
            steps = 2 * (n - 1) - 2
            p = 1 + Fraction(SplitMix64(8600 + i).below(steps), 2)
            check_separator(t, p, find_separator(t, p))


@given(trees(min_n=3, max_n=40), st.integers(0, 2**32))
def test_lowest_leaf_survives_smoothing_the_heavy_branch(base, pick):
    # whenever construct descends into a smoothed heavy branch, the level's
    # lowest-id leaf is still the lowest-id leaf one level down
    t, _ = augment_degree2(base)
    p = 1 + Fraction(pick % (2 * t.n - 4), 2)  # half-integers in [1, n-1)
    v, heavy, branch = find_separator(t, p)
    assume(len(branch) > 1)
    sub, to_t = induced_subtree(t, branch)
    smoothed, to_sub = smooth(sub, to_t.index(heavy))
    low = next(x for x in range(smoothed.n) if smoothed.degree(x) == 1)
    assert to_t[to_sub[low]] == next(x for x in range(t.n) if t.degree(x) == 1)


def mapped_edges(tree, to_parent):
    return {tuple(sorted((to_parent[a], to_parent[b]))) for a, b in tree.edges()}


class TestSmooth:
    def test_p3_middle(self):
        tree, to_parent = smooth(gen_path(3), 1)
        assert tree.edges() == [(0, 1)]
        assert to_parent == [0, 2]
        assert set(range(3)) - set(to_parent) == {1}

    def test_star_center_deletes_surplus_leaf(self):
        tree, to_parent = smooth(as_tree(build_graph(4, STAR4)), 0)
        assert to_parent == [1, 2]
        assert set(range(4)) - set(to_parent) == {0, 3}
        assert mapped_edges(tree, to_parent) == {(1, 2)}  # the path 1-2

    def test_one_leaf_two_internal_neighbors(self):
        # 0 is smoothed; leaf 1, internal 2 (children 4, 5), internal 3 (child 6)
        t = as_tree(build_graph(7, [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5), (3, 6)]))
        tree, to_parent = smooth(t, 0)
        edges = mapped_edges(tree, to_parent)
        # the path runs 1-2-3
        assert (1, 2) in edges and (2, 3) in edges and (1, 3) not in edges

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            smooth(gen_path(2), 0)

    @given(trees(min_n=3), st.integers(0, 2**32))
    def test_partition_and_degree2_freedom(self, t, pick):
        internal = [v for v in range(t.n) if t.degree(v) >= 2]
        w = internal[pick % len(internal)]
        tree, to_parent = smooth(t, w)
        # vertex bookkeeping: the map is ascending into t, and the removed
        # vertices it misses are w and leaves
        assert list(to_parent) == sorted(set(to_parent))
        assert set(to_parent) <= set(range(t.n))
        removed = set(range(t.n)) - set(to_parent)
        assert w in removed
        assert all(t.degree(x) == 1 for x in removed if x != w)
        leaf_nbrs = sum(1 for x in t.neighbors(w) if t.degree(x) == 1)
        assert tree.n == len(to_parent) == t.n - 1 - max(0, leaf_nbrs - 2)
        # if w was the only degree-2 vertex, the result has none
        n2, deg2 = degree2_census(t)
        if deg2 in ([], [w]):
            assert degree2_census(tree)[0] == 0


def smoothable_leaves(t):
    """(u, v) for every leaf v whose neighbor u has degree at least 3."""
    leaves = [v for v in range(t.n) if t.degree(v) == 1]
    return [(u, v) for v in leaves for u in t.neighbors(v) if t.degree(u) >= 3]


def smoothed_without_leaf(t, u, v):
    """The smoothing of u in t - v, with ids mapped straight to t's."""
    sub, to_t = induced_subtree(t, [x for x in range(t.n) if x != v])
    tree, to_sub = smooth(sub, to_t.index(u))
    return tree, [to_t[x] for x in to_sub]


@given(trees(min_n=3), st.integers(0, 2**32))
def test_derived_trees_equal_their_checked_rebuild(t, pick):
    # grafting and smoothing build their Tree without as_tree; the checked
    # path must accept it and give the same sorted adjacency
    internal = [v for v in range(t.n) if t.degree(v) >= 2]
    derived = [augment_degree2(t)[0], smooth(t, internal[pick % len(internal)])[0]]
    pairs = smoothable_leaves(t)
    if pairs:  # the smoothing of a subtree, as lift_sequence takes it
        derived.append(smoothed_without_leaf(t, *pairs[pick % len(pairs)])[0])
    for x in derived:
        assert as_tree(build_graph(x.n, x.edges())).adjacency == x.adjacency


class TestLiftSequence:
    def test_star_with_removed_leaf(self):
        # t = star on 4 vertices: center 0, leaves 1 (the ignition leaf), 2, 3
        t = as_tree(build_graph(4, STAR4))
        _, to_parent = smoothed_without_leaf(t, 0, 1)
        local = {orig: i for i, orig in enumerate(to_parent)}
        seq_prime = BurningSequence((local[2], local[3]))
        lifted = lift_sequence(t, 0, 1, to_parent, seq_prime)
        assert lifted.sources == (1, 2, 3)
        assert validate_sequence(t, lifted).total_rounds == 3

    def test_double_star(self):
        # centers 0 and 1; smoothing 0 in t - leaf2 leaves a star around 1
        t = gen_double_star(2, 2)
        tree, to_parent = smoothed_without_leaf(t, 0, 2)
        local = {orig: i for i, orig in enumerate(to_parent)}
        seq_prime = BurningSequence((local[1], local[3]))
        validate_sequence(tree, seq_prime)
        lifted = lift_sequence(t, 0, 2, to_parent, seq_prime)
        assert lifted.sources == (2, 1, 3)
        assert len(lifted) == 3 == burning_number(t).burning_number

    def test_burned_proposal_becomes_empty_round(self):
        # spider: 0 is the hub, leaf 1 ignites, legs 0-2-3-4 and 0-5-6-7;
        # the third original source (5) is adjacent to the hub, so the fire
        # beats it and its round must be filled by canonicalization
        t = as_tree(
            build_graph(8, [(0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7)])
        )
        tree, to_parent = smoothed_without_leaf(t, 0, 1)
        local = {orig: i for i, orig in enumerate(to_parent)}
        seq_prime = BurningSequence((local[3], local[7], local[5]))
        validate_sequence(tree, seq_prime)
        lifted = lift_sequence(t, 0, 1, to_parent, seq_prime)
        assert lifted.sources == (1, 3, 7, 6)
        assert len(lifted) <= len(seq_prime) + 1

    @given(trees(min_n=4, max_n=20), st.integers(0, 2**32))
    def test_lift_is_a_burning_sequence_at_most_one_round_longer(self, t, seed):
        pairs = smoothable_leaves(t)
        assume(pairs)
        u, v = pairs[seed % len(pairs)]
        tree, to_parent = smoothed_without_leaf(t, u, v)
        seq = canonicalize(tree, random_valid_schedule(tree, seed))
        lifted = lift_sequence(t, u, v, to_parent, seq)
        assert lifted.sources[0] == v
        assert validate_sequence(t, lifted).total_rounds == len(lifted) <= len(seq) + 1

    def test_structure_mismatch(self):
        t = as_tree(build_graph(4, STAR4))
        tmv, _ = induced_subtree(t, [0, 2, 3])
        _, to_parent = smooth(tmv, 0)  # not translated into t's id space
        # the leaf, the smoothed vertex, or an id outside t in the map
        for bad in (to_parent, [0, 2], [2, 4]):
            with pytest.raises(StructureMismatch):
                lift_sequence(t, 0, 1, bad, BurningSequence((0, 1)))
        # a source outside the smoothed tree, below or above its ids
        t = gen_random_no_deg2(20, 3)
        u, v = smoothable_leaves(t)[0]
        _, to_parent = smoothed_without_leaf(t, u, v)
        for source in (-1, len(to_parent)):
            with pytest.raises(StructureMismatch):
                lift_sequence(t, u, v, to_parent, BurningSequence((0, source)))

    def test_preconditions(self):
        t = gen_path(4)
        _, to_parent = smoothed_without_leaf(t, 1, 3)
        with pytest.raises(PreconditionViolated):
            lift_sequence(t, 2, 3, to_parent, BurningSequence((0, 1)))  # degree(2) == 2


class TestConstructNoDeg2:
    def test_double_star_margin1(self):
        t = gen_double_star(2, 2)
        cert = construct_no_deg2(t, 1)
        assert cert.target == ceil_sqrt(5) == 3
        assert len(cert.sequence) == 3  # exact burning number is also 3
        validate_sequence(t, cert.sequence)

    def test_double_star_margin2_rejected(self):
        # order 6 equals m*(m+1): one short of the requirement, and indeed
        # the exact burning number 3 exceeds ceil_sqrt(6 - 2) = 2
        t = gen_double_star(2, 2)
        with pytest.raises(PreconditionViolated):
            construct_no_deg2(t, 2)
        assert burning_number(t).burning_number == 3 > ceil_sqrt(6 - 2)

    def test_p2_margin0(self):
        cert = construct_no_deg2(gen_path(2), 0)
        assert cert.target == 2
        assert len(cert.sequence) == 2

    def test_degree2_rejected(self):
        with pytest.raises(PreconditionViolated):
            construct_no_deg2(gen_path(3), 0)
        with pytest.raises(PreconditionViolated, match=r"vertices: \[1, 2, 3\]$"):
            construct_no_deg2(gen_path(5), 0)

    def test_one_degree2_census_per_certified_tree(self, monkeypatch):
        # augment_degree2's census on t is the only one: the grafted tree's
        # degree-2 check reads the degrees the working tree takes anyway
        calls = []
        census = graphs.degree2_census

        def counting(t):
            calls.append(t.n)
            return census(t)

        for module in (graphs, construct):
            monkeypatch.setattr(module, "degree2_census", counting, raising=False)
        trees = [gen_path(40), gen_random_tree(300, 1), gen_full_binary(6)]
        for i, t in enumerate(trees, 1):
            construct_general(t)
            assert calls == [x.n for x in trees[:i]]

    def test_seeded_corpus_certificates(self):
        for i in range(60):
            t = gen_random_no_deg2(6 + (i * 17) % 180, 9100 + i)
            m = margin(t.n)
            cert = construct_no_deg2(t, m)
            assert cert.target == ceil_sqrt(t.n - m)
            assert len(cert.sequence) <= cert.target
            assert validate_sequence(t, cert.sequence) == cert.labeling

    def test_recursion_targets_strictly_decrease(self):
        deepest = 0
        for i in range(40):
            t = gen_random_no_deg2(40 + (i * 9) % 160, 9600 + i)
            m = margin(t.n)
            cert = construct_no_deg2(t, m)
            chain = [row["target"] for row in cert.trace]
            assert chain[0] == cert.target
            assert chain == sorted(chain, reverse=True)
            assert len(chain) == len(set(chain))  # strict decrease
            assert len(chain) <= cert.target
            deepest = max(deepest, len(chain))
        assert deepest >= 2  # the corpus actually exercises recursion

    def test_light_components_burn_within_target(self):
        for i in range(30):
            t = gen_random_no_deg2(60 + i * 4, 9900 + i)
            m = margin(t.n)
            cert = construct_no_deg2(t, m)
            v, heavy, _ = find_separator(t, Fraction(4 * cert.target - 3, 2))
            assert (cert.trace[0]["separator"], cert.trace[0]["heavy"]) == (v, heavy)
            for nb in t.neighbors(v):
                if nb != heavy:
                    for x in component_vertices_beyond(t, v, nb):
                        assert cert.labeling.labels[x] <= cert.target


class TestWorkPerLevel:
    def test_constant_burns_and_no_connectivity_pass(self, monkeypatch):
        counts = {"burn": 0, "strict": 0, "connected": 0, "connected_in_burn": 0}
        counts["burned"] = 0
        counts.update(build_graph=0, as_tree=0, component_vertices_beyond=0)
        counts.update(find_separator=0, smooth=0, tree=0)
        inside = []
        burn, is_connected = engine._burn, Graph.is_connected
        tree_init = Tree.__init__

        def counting_burn(adjacency, rounds, strict):
            counts["burn"] += 1
            counts["burned"] += len(adjacency)
            counts["strict"] += strict
            inside.append(1)
            try:
                return burn(adjacency, rounds, strict)
            finally:
                inside.pop()

        def counting_is_connected(graph):
            counts["connected_in_burn" if inside else "connected"] += 1
            return is_connected(graph)

        def counting_tree_init(self, *args, **kwargs):
            counts["tree"] += 1
            tree_init(self, *args, **kwargs)

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        t = gen_random_tree(1600, 0)
        for module in (engine, construct):
            monkeypatch.setattr(module, "_burn", counting_burn)
        monkeypatch.setattr(Graph, "is_connected", counting_is_connected)
        monkeypatch.setattr(Tree, "__init__", counting_tree_init)
        # every binding of the checked constructors and of the per-level
        # oracles that construct could reach
        for module in (graphs, exact, construct):
            for name in ("build_graph", "as_tree", "component_vertices_beyond"):
                fn = counting(name, getattr(graphs, name))
                monkeypatch.setattr(module, name, fn, raising=False)
        for name in ("find_separator", "smooth"):
            monkeypatch.setattr(construct, name, counting(name, getattr(construct, name)))
        cert = construct_general(t)
        levels = [row for row in cert.trace if row["step"] in ("smooth", "pendant")]
        exact_rows = [row for row in cert.trace if row["step"] == "exact"]
        assert len(levels) >= 20 and len(exact_rows) == 1
        # the levels are relabelled, not burned, no sequence is replayed,
        # and the projection relabels the grafted tree's labels: whatever
        # the level count, the burns are the exact witness's transport and
        # check and the innermost tree's labels, none over the input tree
        assert counts["burn"] <= 3
        assert counts["burned"] <= 3 * construct.EXACT_FALLBACK_N
        assert counts["strict"] <= 1
        assert counts["connected_in_burn"] == 0
        # derived trees are built without a check, and a Tree trusts its
        # type for connectivity, so no level runs a connectivity pass
        assert counts["build_graph"] == counts["as_tree"] == 0
        assert counts["connected"] == 0
        # the levels live in one working tree: no level finds its separator
        # in, smooths or collects the branch of a Tree of its own, and the
        # only Trees built are the grafted tree and the exact fallback's
        assert counts["component_vertices_beyond"] == 0
        assert counts["find_separator"] == counts["smooth"] == 0
        assert counts["tree"] <= 2

    @pytest.mark.parametrize("n", [1600, 6400])
    def test_walk_steps_linear_on_paths(self, monkeypatch, n):
        # every separator walk reads one neighbor list per vertex it stands
        # on; on a path the walks resume, so all levels together read about
        # half a list per grafted vertex, where a walk from the root each
        # level read 9 per vertex at n = 1600 and 18 at n = 6400
        reads = [0]

        class CountingAdj(list):
            walking = False

            def __getitem__(self, i):
                reads[0] += self.walking
                return list.__getitem__(self, i)

        init, separator = construct._WorkingTree.__init__, construct._WorkingTree.separator

        def counting_init(work, t):
            init(work, t)
            work.adj = CountingAdj(work.adj)

        def counting_separator(work, p):
            work.adj.walking = True
            try:
                return separator(work, p)
            finally:
                work.adj.walking = False

        monkeypatch.setattr(construct._WorkingTree, "__init__", counting_init)
        monkeypatch.setattr(construct._WorkingTree, "separator", counting_separator)
        cert = construct_general(gen_path(n))
        levels = sum(row["step"] in ("smooth", "pendant") for row in cert.trace)
        assert levels >= 50
        assert reads[0] <= cert.trace[0]["order"]


def reach(adj, v, w):
    """The vertices adjacency connects to v without passing w."""
    found, seen = [v], {v, w}
    for x in found:
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                found.append(y)
    return found


class TestLevelLabels:
    """Every level's relabelled labels against a greedy burn of the level's
    whole tree, and its sequence against the reference loop's lift."""

    @staticmethod
    @contextmanager
    def checked_levels():
        """Check every level lifted inside the block; yields the levels and
        a count of how each round after the separator's got its source."""
        relabel, levels, cases = construct._LevelLabels.lift, [], Counter()

        def checked(labels, adj, level, v, w, target):
            proposals = [v, *labels.src[level + 2 : labels.end + 1]]
            rounds = relabel(labels, adj, level, v, w, target)
            light = set(reach(adj, v, w))  # v and its light side
            # the level's tree, restored, in ascending ids: the relabelling
            # is monotone, so every min-id tie-break falls the same way
            tree = sorted(reach(adj, v, None))
            local = {x: i for i, x in enumerate(tree)}
            level_adj = [[local[y] for y in adj[x]] for x in tree]
            local_proposals = [local[x] for x in proposals]
            _, burned = engine._burn(level_adj, local_proposals, False)
            assert [labels.labels[x] - level for x in tree] == burned
            # every vertex of the level's tree sits in its round's list
            listed = {(x, g) for g, xs in enumerate(labels.cands) for x in xs}
            assert {(x, labels.labels[x]) for x in tree} <= listed
            seq, total = reference_lift(
                level_adj, local_proposals, len(proposals),
                lambda i: tree[i] == v or tree[i] not in light,
            )
            assert rounds == total
            assert labels.src[level + 1 : level + 1 + rounds] == [
                tree[i] for i in seq.sources
            ]
            for r, x in enumerate(labels.src[level + 2 : level + 1 + rounds], 2):
                side = "light side" if x in light else "part"
                if r > len(proposals):
                    cases[f"new round from the {side}"] += 1
                elif x == proposals[r - 1]:
                    cases["source kept"] += 1
                else:
                    cases[f"beaten source refilled from the {side}"] += 1
            levels.append(level)
            return rounds

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct._LevelLabels, "lift", checked)
            yield levels, cases

    @settings(max_examples=150, deadline=None)
    @given(trees(min_n=1, max_n=80))
    def test_grafted_trees_at_every_margin(self, base):
        t, _ = augment_degree2(base)
        assume(t.n <= 150)
        with self.checked_levels():
            m = 0
            while t.n >= m * (m + 1) + 1:
                construct_no_deg2(t, m)
                m += 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_labeled_tree(self, n):
        with self.checked_levels() as (levels, _):
            for base in labeled_trees(n):
                construct_general(base)
        assert levels or n < 6

    def test_paths_and_full_binary_trees(self):
        with self.checked_levels() as (levels, cases):
            for n in (*range(1, 60), 800, 1600):
                construct_general(gen_path(n))
            for h in range(1, 10):
                construct_general(gen_full_binary(h))
        assert max(levels) >= 10  # the corpus reaches deep levels
        # every fill case, and never a new round from the part
        assert set(cases) == {
            "source kept",
            "beaten source refilled from the part",
            "beaten source refilled from the light side",
            "new round from the light side",
        }

    @pytest.mark.parametrize(
        "adj, inner, target, message",
        [
            ([[1], [0]], 1, 1, "branch sequence length 1 > 0"),
            # w's surplus leaf 3 burns in round 3, after all of T' = {2}
            ([[1], [0, 2, 3], [1], [1]], 2, 5, "heavy branch took 3 rounds, bound 2"),
            ([[1, 2], [0], [0, 3], [2]], 1, 2, "assembled process took 3 rounds, target 2"),
        ],
        ids=["branch", "heavy", "assembled"],
    )
    def test_each_length_bound_raises(self, adj, inner, target, message):
        # level 1 over a one-vertex innermost tree at depth 2: v = 0, w = 1
        labels = construct._LevelLabels(len(adj), 2, 3, [inner], [1], [inner])
        with pytest.raises(InternalBoundViolation, match=message):
            labels.lift(adj, 1, 0, 1, target)

    @pytest.mark.parametrize(
        "t",
        [
            augment_degree2(gen_random_tree(1600, 0))[0],
            augment_degree2(gen_path(1600))[0],
            gen_random_no_deg2(3200, 1),
        ],
        ids=["random-1600", "path-1600", "no-deg2-3200"],
    )
    def test_outermost_labels_are_the_labeling(self, t):
        # construct_no_deg2 replays nothing: its labeling is the relabel's
        cert = construct_no_deg2(t, margin(t.n))
        assert cert.labeling == validate_sequence(t, cert.sequence)


class TestResumedWalk:
    """The working tree's resumed separator walk on trees where it reuses
    the most, against the per-level rebuild, with the walk's state checked
    against a fresh rooted recount after every separator and smooth."""

    @staticmethod
    def check_walk(work):
        order, parent = graphs._bfs_tree(work.adj, work.root)
        size = [1] * len(parent)
        for u in reversed(order[1:]):
            size[parent[u]] += size[u]
        on_path = dict(zip(work.path, work.base))
        for x in order:
            assert work.parent[x] == parent[x]
            kept = on_path[x] - work.drop if x in on_path else work.size[x]
            assert kept == size[x]
        # the walk goes down from the root, and early[i] is the largest
        # subtree passed over in the steps out of path[0..i]
        assert work.path[0] == work.root
        assert work.order() == len(order)
        passed = 0
        for i, (a, b) in enumerate(zip(work.path, work.path[1:])):
            assert parent[b] == a
            before = work.adj[a][: work.adj[a].index(b)]
            passed = max([passed] + [size[u] for u in before if u != parent[a]])
            assert work.early[i] == passed
        assert len(work.early) == len(work.path) - 1

    @contextmanager
    def checked_walk(self):
        """Check the walk after every separator and smooth in the block;
        yields the number of separator calls."""
        separator, smooth_ = construct._WorkingTree.separator, construct._WorkingTree.smooth
        calls = [0]

        def checked_separator(work, p):
            v, vsize = separator(work, p)
            self.check_walk(work)
            assert work.path[-1] == v and work.base[-1] - work.drop == vsize
            calls[0] += 1
            return v, vsize

        def checked_smooth(work, v, vsize):
            undo = smooth_(work, v, vsize)
            self.check_walk(work)
            return undo

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct._WorkingTree, "separator", checked_separator)
            mp.setattr(construct._WorkingTree, "smooth", checked_smooth)
            yield calls

    SHAPES = {
        **{f"path-{n}": (lambda n=n: gen_path(n)) for n in (97, 640, 2000)},
        **{
            f"caterpillar-{s}": (lambda s=s: caterpillar(60 + 170 * s, 1 + s % 4, s, s % 2 == 1))
            for s in range(6)
        },
        **{
            f"broom-{h}-{b}": (lambda h=h, b=b: broom(h, b, h if b % 2 else None))
            for h, b in ((40, 3), (300, 17), (1000, 100), (1800, 200))
        },
        **{
            f"spider-{s}": (lambda s=s: spider([1 + (7 * i * s) % 61 for i in range(3 + 5 * s)], s))
            for s in range(1, 6)
        },
        **{
            f"bushy-path-{s}": (lambda s=s: bushy_path(150 + 300 * s, 4 + 6 * s, 3 + 4 * s, s, s % 2 == 0))
            for s in range(6)
        },
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_against_rebuild_per_level(self, shape):
        base = self.SHAPES[shape]()
        assert base.n <= 2100
        t, _ = augment_degree2(base)
        with self.checked_walk() as calls:
            for m in sorted({0, margin(t.n)}):
                assert construct_no_deg2(t, m) == reference_construct_no_deg2(t, m)
        assert calls[0] >= 2  # at least one walk resumed


class TestWorkingTreeRooting:
    """The working tree's rooting, re-rooted from the Tree's own at vertex
    0, against a fresh BFS rooting at the lowest-id leaf."""

    @staticmethod
    def check(t):
        work = construct._WorkingTree(t)
        root = next((x for x in range(t.n) if t.degree(x) == 1), 0)
        order, parent = graphs._bfs_tree(t.adjacency, root)
        size = [1] * t.n
        for u in reversed(order[1:]):
            size[parent[u]] += size[u]
        assert (work.root, work.parent, work.size) == (root, parent, size)
        return root

    @settings(max_examples=100, deadline=None)
    @given(trees(min_n=1, max_n=60))
    def test_grafted_trees(self, base):
        self.check(augment_degree2(base)[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    def test_vertex_0_is_the_root(self, n):
        # a path's vertex 0 is a leaf: the re-root walks no path
        t = augment_degree2(gen_path(n))[0]
        assert self.check(t) == 0

    @pytest.mark.parametrize("depth", [1, 2, 50, 400])
    def test_lowest_leaf_lies_deep(self, depth):
        # a star at vertex 0 with a path of depth edges ending at the leaf
        # `depth`; the star's leaves take the higher ids
        edges = [(i, i + 1) for i in range(depth)]
        edges += [(0, depth + 1 + j) for j in range(3)]
        t = augment_degree2(as_tree(build_graph(depth + 4, edges)))[0]
        assert self.check(t) == depth

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 200])
    def test_hand_built_tree_roots_on_first_read(self, n):
        for t in (gen_random_no_deg2(n, n), augment_degree2(gen_path(n))[0]):
            bare = Tree(t.adjacency)
            assert "rooting" not in bare.__dict__
            self.check(bare)
            assert bare.rooting == (tuple(graphs._bfs_tree(t.adjacency, 0)[0]), t.parent)

    @pytest.mark.parametrize("name", ["K4", "Petersen"])
    def test_hand_built_cyclic_tree_raises(self, name):
        g = build_graph(*CYCLIC[name])
        with pytest.raises(NotAcyclic):
            construct._WorkingTree(Tree(g.adjacency))
        # the cycle's edge count fits a tree once isolated vertices pad it
        edges = CYCLIC[name][1]
        padded = build_graph(len(edges) + 1, edges)
        with pytest.raises(NotAcyclic):
            construct._WorkingTree(Tree(padded.adjacency))


class TestAgainstRebuildPerLevel:
    """construct_no_deg2 against the per-level rebuild it replaced
    (tests/reference_construct.py): same sequence, labeling and trace."""

    @staticmethod
    def check_every_margin(t):
        m = 0
        while t.n >= m * (m + 1) + 1:
            assert construct_no_deg2(t, m) == reference_construct_no_deg2(t, m)
            m += 1

    @settings(max_examples=150, deadline=None)
    @given(trees(min_n=1, max_n=80))
    def test_grafted_trees_at_every_margin(self, base):
        t, _ = augment_degree2(base)
        assume(t.n <= 150)
        self.check_every_margin(t)

    @pytest.fixture
    def remembered_exact(self, monkeypatch):
        """construct's small-tree search, remembered per tree: the
        exhaustive tests meet the same small trees many times."""
        search, seen = construct._burning_number_general, {}

        def remembered(tree):
            if tree.adjacency not in seen:
                seen[tree.adjacency] = search(tree)
            return seen[tree.adjacency]

        monkeypatch.setattr(construct, "_burning_number_general", remembered)

    @staticmethod
    def check_general_margin(base):
        # the margin construct_general runs the grafted tree at
        t, _ = augment_degree2(base)
        m = margin(t.n)
        assert construct_no_deg2(t, m) == reference_construct_no_deg2(t, m)

    @pytest.mark.usefixtures("remembered_exact")
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_labeled_tree(self, n):
        for base in labeled_trees(n):
            self.check_general_margin(base)

    @pytest.mark.usefixtures("remembered_exact")
    def test_every_17th_labeled_tree_of_order_8(self):
        # all 262144 take minutes; a stride coprime with 8 over the Prufer
        # codes gives every position every digit, the first two and the
        # last three positions every combination
        for code in islice(product(range(8), repeat=6), 0, None, 17):
            self.check_general_margin(prufer_decode(code))


class TestProjectToSubtree:
    def test_identity(self):
        t = gen_path(3)
        seq = BurningSequence((1, 0))
        assert project_to_subtree(t, {}, seq)[0].sources == (1, 0)

    def test_middle_leaf_host(self):
        # grafting P3 hangs leaf 3 on its middle vertex
        t = gen_path(3)
        t1, attach = augment_degree2(t)
        assert (t1.edges(), attach) == ([(0, 1), (1, 2), (1, 3)], {3: 1})
        # the grafted leaf 3 projects to its attachment 1
        for sources in ((1, 0), (3, 0, 2)):
            seq = BurningSequence(sources)
            validate_sequence(t1, seq)
            projected = project_to_subtree(t, attach, seq)[0]
            assert projected.sources == (1, 0)
            assert validate_sequence(t, projected).total_rounds == 2

    def test_star_to_path(self):
        # grafting the path 1-0-2 gives the star on 4 vertices
        t = as_tree(build_graph(3, [(0, 1), (0, 2)]))
        t1, attach = augment_degree2(t)
        assert (t1.edges(), attach) == (STAR4, {3: 0})
        projected = project_to_subtree(t, attach, BurningSequence((0, 1)))[0]
        assert projected.sources == (0, 1)

    def test_source_outside_the_grafting_rejected(self):
        t = gen_path(3)
        _, attach = augment_degree2(t)
        for source in (-1, 4):
            with pytest.raises(StructureMismatch):
                project_to_subtree(t, attach, BurningSequence((1, source)))

    @settings(max_examples=60, deadline=None)
    @given(trees(min_n=1, max_n=18), st.integers(0, 2**31))
    def test_projection_never_longer(self, t, seed):
        t1, attach = augment_degree2(t)
        seq = canonicalize(t1, random_valid_schedule(t1, seed))
        projected, labeling = project_to_subtree(t, attach, seq)
        assert len(projected) <= len(seq)
        assert labeling == validate_sequence(t, projected)


def leafward_schedule(t1, n, seed):
    """A schedule for the grafted tree t1, of which ids below n are the
    input's, that rarely skips a round and mostly ignites an unburned
    grafted leaf: the sources that construct's own sequences rarely
    hold, and that make the projection lower labels."""
    rng = SplitMix64(seed)
    labels, frontier, rounds, burned, r = [0] * t1.n, [], [], 0, 0
    while burned < t1.n:
        r += 1
        newly = []
        for u in frontier:
            for w in t1.neighbors(u):
                if not labels[w]:
                    labels[w] = r
                    newly.append(w)
        free = [v for v in range(t1.n) if not labels[v]]
        leaves = [v for v in free if v >= n]
        pool = leaves if leaves and rng.below(4) else free
        if pool and (r == 1 or rng.below(8)):
            src = pool[rng.below(len(pool))]
            labels[src] = r
            newly.append(src)
            rounds.append(src)
        else:
            rounds.append(None)
        burned += len(newly)
        frontier = newly
    return tuple(rounds)


class TestProjectByRelabel:
    """construct._project against the burn it replaces, project_to_subtree,
    on grafted-tree sequences construct does not produce: on every tree
    tried, its own sequences lower no label, so they leave the relabelling
    untested."""

    @staticmethod
    def check(t, seed):
        """Returns the number of labels the projection lowered."""
        t1, attach = augment_degree2(t)
        seq = canonicalize(t1, leafward_schedule(t1, t.n, seed))
        grafted = validate_sequence(t1, seq)
        reads = []

        class CountingAdj(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return tuple.__getitem__(self, i)

        got = construct._project(CountingAdj(t.adjacency), attach, seq, grafted)
        assert got == project_to_subtree(t, attach, seq)
        # a label falls at most once, by one, and the relabelling reads the
        # neighbors of the vertices that fall, each once
        fell = [x for x in range(t.n) if got[1].labels[x] != grafted.labels[x]]
        assert all(got[1].labels[x] == grafted.labels[x] - 1 for x in fell)
        assert sorted(reads) == fell
        assert sum(t.degree(x) for x in reads) <= 2 * (t.n - 1)
        return len(fell)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            trees(min_n=1, max_n=60),
            st.integers(1, 60).map(gen_path),
            st.builds(caterpillar, st.integers(1, 20), st.integers(0, 3),
                      st.integers(0, 99), st.booleans()),
            st.builds(spider, st.lists(st.integers(1, 8), min_size=1, max_size=6),
                      st.none() | st.integers(0, 99)),
        ),
        st.integers(0, 2**32),
    )
    def test_same_sequence_and_labeling(self, t, seed):
        self.check(t, seed)

    def test_labels_fall_on_seeded_trees(self):
        # the relabelling is exercised, not only its no-op
        fell = [self.check(gen_random_tree(n, n), n) for n in range(3, 60)]
        fell += [self.check(gen_path(n), n) for n in range(3, 60)]
        assert sum(map(bool, fell)) > len(fell) // 2

    def test_middle_leaf_host_lowers_two_labels(self):
        # on P3 grafted at 1 by leaf 3, (3, 0, 2) burns 3, {1, 0}, 2; moving
        # 3 onto 1 burns 1 a round sooner and 2 with it, and round 3 goes
        t = gen_path(3)
        t1, attach = augment_degree2(t)
        seq = BurningSequence((3, 0, 2))
        grafted = validate_sequence(t1, seq)
        got = construct._project(t.adjacency, attach, seq, grafted)
        assert grafted.labels == (2, 2, 3, 1)
        assert got[0].sources == (1, 0)
        assert got[1].labels == (2, 1, 2) and got[1].total_rounds == 2


@settings(max_examples=60, deadline=None)
@given(trees(max_n=14))
def test_projection_matches_nearest_vertex_oracle(t):
    # independent oracle: send each source of the grafted tree's exact
    # witness to its nearest vertex of t by BFS (ties by lowest id), burn
    # greedily and canonicalize
    t1, attach = augment_degree2(t)
    witness = burning_number(t1).witness
    nearest = []
    for y in witness.sources:
        dist = bfs_distances(t1, y)
        nearest.append(min(range(t.n), key=lambda x: (dist[x], x)))
    rounds, _ = greedy_schedule(t, nearest)
    assert project_to_subtree(t, attach, witness)[0] == canonicalize(t, rounds)


class TestConstructGeneral:
    def test_p9(self):
        cert = construct_general(gen_path(9))
        assert (cert.n, cert.n2, cert.m, cert.target) == (9, 7, 3, 4)
        assert len(cert.sequence) <= 4
        validate_sequence(gen_path(9), cert.sequence)

    def test_no_degree2_reduces_to_direct_construction(self):
        t = gen_random_no_deg2(30, 424)
        general = construct_general(t)
        direct = construct_no_deg2(t, margin(t.n))
        assert general.sequence == direct.sequence
        assert general.target == direct.target == refined_bound(t.n, 0)

    def test_star6(self):
        t = as_tree(build_graph(6, [(0, i) for i in range(1, 6)]))
        cert = construct_general(t)
        assert cert.target == 3
        assert len(cert.sequence) <= 3
        assert burning_number(t).burning_number == 2

    def test_certificates_are_deterministic(self):
        t = gen_random_tree(80, 31)
        a = construct_general(t)
        b = construct_general(t)
        assert a == b

    @pytest.mark.parametrize(
        "make",
        [lambda: gen_random_tree(3200, 1), lambda: gen_path(3200)],
        ids=["random-tree", "path"],
    )
    def test_depth_does_not_grow_with_levels(self, make):
        t = make()
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            cert = construct_general(t)
        finally:
            sys.setrecursionlimit(old)
        assert len(cert.sequence) <= cert.target

    def test_labeling_is_the_strict_replay(self):
        # the labeling is the projection's burn; replaying the sequence
        # strictly on the input tree, as construct once did, must give it
        corpus = [gen_random_tree(n, 300 + n) for n in range(1, 400, 7)]
        corpus += [gen_path(n) for n in (*range(1, 40), 1000, 3200)]
        corpus += [gen_full_binary(h) for h in range(1, 11)]
        corpus += [caterpillar(300, 2, 5), broom(500, 40), spider([9] * 30)]
        corpus += [bushy_path(800, 20, 15, 7, True)]
        for t in corpus:
            cert = construct_general(t)
            assert cert.labeling == validate_sequence(t, cert.sequence)

    def test_seeded_sandwich(self):
        for i in range(40):
            t = gen_random_tree(2 + (i * 7) % 17, 777 + i)
            cert = construct_general(t)
            exact = burning_number(t).burning_number
            assert exact <= len(cert.sequence) <= cert.target == refined_bound(
                t.n, cert.n2
            )


# Degree-2-free graphs with cycles: a Tree built by hand around one of them
# breaks the type's promise, and construct must reject it with a typed error.
CYCLIC = {
    "K4": (4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "K3,3": (6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "Petersen": (
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)],
    ),
}


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after the given seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", CYCLIC)
@pytest.mark.parametrize(
    "build",
    [lambda t: construct_no_deg2(t, 0), construct_general],
    ids=["no_deg2", "general"],
)
def test_cyclic_tree_type_ends(name, build):
    """The working tree checks the type's promise once: a cycle is a
    NotAcyclic, not a walk round it."""
    g = build_graph(*CYCLIC[name])
    assert degree2_census(Tree(g.adjacency))[0] == 0
    with deadline(2), pytest.raises(NotAcyclic):
        build(Tree(g.adjacency))


def test_trees_plus_chords_as_tree_type_raise_not_acyclic():
    """500 random trees of order 10-58, each with 1-3 chords, wrapped as
    Tree: every one is rejected, none hangs, loops or returns."""
    rng = SplitMix64(1919)
    for i in range(500):
        t = gen_random_tree(10 + rng.below(49), 5000 + i)
        n, edges = t.n, set(t.edges())
        for _ in range(1 + rng.below(3)):
            while True:
                u, v = sorted((rng.below(n), rng.below(n)))
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                    break
        g = build_graph(n, sorted(edges))
        with deadline(2), pytest.raises(NotAcyclic):
            construct_general(Tree(g.adjacency))
