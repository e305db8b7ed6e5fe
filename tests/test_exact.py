import re

import pytest

from treeburn import (
    BurningSequence,
    Graph,
    as_tree,
    augment_degree2,
    bfs_distances,
    burning_number,
    build_graph,
    ceil_sqrt,
    gen_cycle,
    gen_double_star,
    gen_full_binary,
    gen_path,
    gen_random_no_deg2,
    gen_random_tree,
    validate_sequence,
)
from treeburn import exact
from treeburn.cli import format_edge_list, parse_edge_list
from treeburn.errors import NotConnected, SearchBudgetExceeded, TooLarge
from treeburn.exact import _burning_number_general, _Search
from treeburn.graphs import induced_subtree
from treeburn.rng import SplitMix64

from . import oracles
from .oracles import burning_number_naive, labeled_trees, spanning_tree_min

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestBurnableWithin:
    """Burnable within k rounds, as the general search decides it:
    _Search.find(k) returns k sources, each unburned at the start of its
    round, whose radius-(k-i) balls cover the graph, or None."""

    def test_path4_within_two(self):
        found = _Search(gen_path(4)).find(2)
        assert found is not None
        assert validate_sequence(gen_path(4), BurningSequence(found)).total_rounds == 2

    def test_path4_not_within_one(self):
        assert _Search(gen_path(4)).find(1) is None

    def test_double_star_not_within_two(self):
        d = gen_double_star(2, 2)
        assert _Search(d).find(2) is None
        # independent recheck: two sources reach at most N[x1] plus x2 itself,
        # which never covers all 6 vertices
        best = max(
            len({x, *d.neighbors(x), y})
            for x in range(6)
            for y in range(6)
            if y != x
        )
        assert best == 5

    def test_disconnected(self):
        # the general path's connectivity check, which also refuses Graph(())
        for g in (build_graph(4, [(0, 1), (2, 3)]), Graph(())):
            with pytest.raises(NotConnected):
                burning_number(g)

    def test_agrees_with_the_enumerator_at_b_and_below(self):
        # _solve calls find only for k <= b, where a cover by k sources is
        # a burning sequence of length exactly k and none exists below b
        graphs = [gen_cycle(n) for n in range(3, 11)]
        graphs += [t for n in range(1, 7) for t in labeled_trees(n)]
        graphs += list(_trees_plus_chords(60, orders=range(5, 11)))
        for g in graphs:
            b = burning_number_naive(g).burning_number
            search = _Search(g)
            if b > 1:
                assert search.find(b - 1) is None
            found = search.find(b)
            assert validate_sequence(g, BurningSequence(found)).total_rounds == b


class TestBurningNumber:
    def test_path9(self):
        assert burning_number(gen_path(9)).burning_number == 3

    def test_single_vertex(self):
        res = burning_number(build_graph(1, []))
        assert res.burning_number == 1
        assert res.witness.sources == (0,)

    def test_double_star(self):
        res = burning_number(gen_double_star(2, 2))
        assert res.burning_number == 3
        validate_sequence(gen_double_star(2, 2), res.witness)

    def test_witness_is_minimal(self):
        for n in (5, 9, 12):
            t = gen_path(n)
            res = burning_number(t)
            assert validate_sequence(t, res.witness).total_rounds == res.burning_number
            if res.burning_number > 1:
                assert _Search(t).find(res.burning_number - 1) is None


class TestBurningNumberNaive:
    def test_path4(self):
        assert burning_number_naive(gen_path(4)).burning_number == 2

    def test_star(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert burning_number_naive(star).burning_number == 2

    def test_cycle5_matches_formula(self):
        assert burning_number_naive(gen_cycle(5)).burning_number == ceil_sqrt(5) == 3

    def test_guard(self):
        with pytest.raises(TooLarge):
            burning_number_naive(gen_path(13))

    def test_agrees_with_search_on_seeded_trees(self):
        # construct's small-tree fallback runs the general search, so it
        # keeps its own check against the enumerator on trees
        for i in range(40):
            t = gen_random_tree(5 + (i % 5), 900 + i)
            naive = burning_number_naive(t).burning_number
            assert burning_number(t).burning_number == naive
            assert _burning_number_general(t).burning_number == naive

    def test_agrees_with_search_on_seeded_graphs(self):
        for g in _trees_plus_chords(40):
            assert (
                burning_number(g).burning_number
                == burning_number_naive(g).burning_number
            )


def _trees_plus_chords(count: int, orders=range(5, 9)):
    """Seeded random trees of the given orders (5-8 by default) plus 1-3
    chords: connected graphs with cycles."""
    for i in range(count):
        n = orders[i % len(orders)]
        t = gen_random_tree(n, 2300 + i)
        rng = SplitMix64(2700 + i)
        edges = set(t.edges())
        for _ in range(1 + rng.below(3)):
            u, v = rng.below(n), rng.below(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        yield build_graph(n, sorted(edges))


def _tree_corpus():
    """Seeded random, no-deg2, path, full-binary and double-star trees of
    order up to 40."""
    for i in range(120):
        yield gen_random_tree(2 + i % 39, 11_000 + i)
    for i in range(40):
        yield gen_random_no_deg2(2 + i % 19, 12_000 + i)
    for n in range(1, 41):
        yield gen_path(n)
    for height in range(5):
        yield gen_full_binary(height)
    for a in range(8):
        for b in range(a, 8):
            yield gen_double_star(a, b)


class TestTreeSearch:
    def test_agrees_with_general_search(self):
        for t in _tree_corpus():
            res = burning_number(t)
            assert res.burning_number == _burning_number_general(t).burning_number
            assert validate_sequence(t, res.witness).total_rounds == res.burning_number

    def test_agrees_with_general_search_on_every_labeled_tree(self):
        # acceptance test 08 checks burning_number against the enumerator
        # on the same trees
        for n in range(1, 8):
            for t in labeled_trees(n):
                assert (
                    burning_number(t).burning_number
                    == _burning_number_general(t).burning_number
                )

    def test_bare_graph_and_tree_give_the_same_result(self):
        # the benchmark and the CLI hand over a bare Graph
        for i, t in enumerate(_tree_corpus()):
            if i % 3 == 0:
                assert burning_number(t.graph) == burning_number(t)

    def test_only_trees_reach_the_tree_search(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("wrong search")

        monkeypatch.setattr(exact, "_TreeSearch", refuse)
        chorded = [g for g in _trees_plus_chords(20) if g.edge_count() >= g.n]
        assert len(chorded) >= 10
        for g in [gen_cycle(n) for n in range(3, 12)] + chorded:
            assert burning_number(g) == _burning_number_general(g)
        monkeypatch.undo()
        monkeypatch.setattr(exact, "_Search", refuse)
        for i in range(20):
            t = gen_random_tree(2 + i, 13_000 + i)
            burning_number(t.graph)

    def test_bits_are_in_depth_order(self, monkeypatch):
        """Bit i's depth never decreases with i, so the highest uncovered
        bit is a deepest uncovered vertex.  That is why the search roots by
        a BFS of its own: a grafted tree's rooting is not in depth order."""
        grafted = augment_degree2(gen_path(4))[0]
        depth = bfs_distances(grafted, 0)
        assert [depth[v] for v in grafted.rooting[0]] != sorted(depth)
        searches = []

        class Recorded(exact._TreeSearch):
            def __init__(self, tree):
                super().__init__(tree)
                searches.append((tree, self))

        monkeypatch.setattr(exact, "_TreeSearch", Recorded)
        inputs = [grafted]
        for i in range(10):
            t = gen_random_tree(5 + 2 * i, 700 + i)
            parsed = parse_edge_list(format_edge_list(t))
            inputs += [parsed, t.graph, augment_degree2(t)[0], gen_random_no_deg2(5 + i, i)]
        for g in inputs:
            burning_number(g)
        assert len(searches) == len(inputs)
        for tree, search in searches:
            dist = bfs_distances(tree, 0)
            assert search.depth == [dist[v] for v in search.order]
            assert search.depth == sorted(search.depth)

    def test_long_path_is_solved_at_its_lower_bound(self):
        res = burning_number(gen_path(400))
        assert res.burning_number == ceil_sqrt(400) == len(res.witness)


class TestSolve:
    """The k-loop both searches run in."""

    def test_no_search_tries_k_below_the_diameter_bound(self, monkeypatch):
        tried: list[int] = []
        for cls in (exact._Search, exact._TreeSearch):

            def counting(self, k, find=cls.find):
                tried.append(k)
                return find(self, k)

            monkeypatch.setattr(cls, "find", counting)
        cycles = [gen_cycle(n) for n in range(3, 20)]
        chorded = [g for g in _trees_plus_chords(40) if g.edge_count() >= g.n]
        for corpus in (list(_tree_corpus()), cycles + chorded):
            calls = 0
            for g in corpus:
                tried.clear()
                b = burning_number(g).burning_number
                diameter = max(max(bfs_distances(g, v)) for v in range(g.n))
                assert tried == list(range(ceil_sqrt(diameter + 1), b + 1))
                calls += len(tried)
            assert calls > len(corpus)  # some solves go past their bound

    def test_general_witness_is_the_search_result(self):
        # the transport keeps a burning sequence of length k as it is
        chorded = [g for g in _trees_plus_chords(40) if g.edge_count() >= g.n]
        for g in [gen_cycle(n) for n in range(3, 20)] + chorded:
            res = burning_number(g)
            found = _Search(g).find(res.burning_number)
            assert res.witness == BurningSequence(found)


class TestNodeBudget:
    def test_tree_search(self, monkeypatch):
        monkeypatch.setattr(exact, "NODE_BUDGET", 10)
        with pytest.raises(SearchBudgetExceeded):
            burning_number(gen_path(400))

    def test_general_search(self, monkeypatch):
        monkeypatch.setattr(exact, "NODE_BUDGET", 10)
        with pytest.raises(SearchBudgetExceeded):
            burning_number(gen_cycle(12))

    def test_general_search_trips_one_below_its_count(self, monkeypatch):
        # the last node counted is the covering sequence, which no budget
        # check follows; the check before it is on its last source
        chorded = [
            g for g in _trees_plus_chords(12, orders=range(12, 24))
            if g.edge_count() >= g.n
        ]
        assert len(chorded) >= 6
        for g in [gen_cycle(n) for n in (5, 13, 21)] + chorded[:6]:
            res = burning_number(g)
            total = res.nodes_explored
            monkeypatch.setattr(exact, "NODE_BUDGET", total - 1)
            assert burning_number(g) == res
            monkeypatch.setattr(exact, "NODE_BUDGET", total - 2)
            with pytest.raises(SearchBudgetExceeded, match=rf"; {res.burning_number} <= b <= "):
                burning_number(g)
            monkeypatch.undo()

    def test_error_names_a_bracket_that_holds_b(self, monkeypatch):
        graphs = [gen_cycle(21), gen_path(30), gen_random_tree(30, 5)]
        graphs += _trees_plus_chords(4, orders=range(20, 24))
        brackets = []
        for g in graphs:
            res = burning_number(g)
            b, total = res.burning_number, res.nodes_explored
            for budget in (1, total // 2):
                monkeypatch.setattr(exact, "NODE_BUDGET", budget)
                with pytest.raises(SearchBudgetExceeded) as info:
                    burning_number(g)
                monkeypatch.undo()
                low, high = map(int, re.search(r"(\d+) <= b <= (\d+)", str(info.value)).groups())
                assert low <= b <= high
                brackets.append((low, b, high))
        assert any(low < high for low, _, high in brackets)


class TestSpanningTreeMin:
    def test_tree_is_its_own_answer(self):
        t = gen_path(6)
        assert spanning_tree_min(t) == burning_number(t).burning_number

    def test_cycle4(self):
        assert spanning_tree_min(gen_cycle(4)) == 2
        assert burning_number(gen_cycle(4)).burning_number == ceil_sqrt(4) == 2

    def test_k4(self):
        g = build_graph(4, K4_EDGES)
        assert spanning_tree_min(g) == 2
        assert burning_number(g).burning_number == 2

    def test_guard(self):
        with pytest.raises(TooLarge):
            spanning_tree_min(gen_path(9))


class TestSpanningTrees:
    """The oracle's spanning trees, counted by the matrix-tree theorem:
    n for the cycle C_n, n^(n-2) for K_n, and 1 for a tree."""

    @staticmethod
    def checked(g):
        trees = list(oracles._spanning_trees(g))
        for t in trees:
            assert t == as_tree(build_graph(g.n, t.edges()))
            assert set(t.edges()) <= set(g.edges())
        assert len(set(trees)) == len(trees)
        return trees

    @pytest.mark.parametrize("n", range(3, 8))
    def test_cycle(self, n):
        assert len(self.checked(gen_cycle(n))) == n

    @pytest.mark.parametrize("n", [4, 5])
    def test_complete(self, n):
        k = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert len(self.checked(k)) == n ** (n - 2)

    def test_tree(self):
        t = gen_random_tree(8, 3)
        assert self.checked(t) == [t]


def _random_connected_subtree(t, size: int, seed: int):
    rng = SplitMix64(seed)
    chosen = [rng.below(t.n)]
    chosen_set = set(chosen)
    while len(chosen) < size:
        boundary = sorted(
            {w for v in chosen for w in t.neighbors(v) if w not in chosen_set}
        )
        pick = boundary[rng.below(len(boundary))]
        chosen.append(pick)
        chosen_set.add(pick)
    sub, _ = induced_subtree(t, chosen)
    return sub


def test_subtree_burning_is_monotone():
    for i in range(100):
        n = 4 + (i % 11)  # up to 14
        t = gen_random_tree(n, 3000 + i)
        size = 1 + SplitMix64(7000 + i).below(n)
        sub = _random_connected_subtree(t, size, 4000 + i)
        assert (
            burning_number(sub).burning_number <= burning_number(t).burning_number
        )
