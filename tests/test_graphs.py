import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeburn import (
    Graph,
    Tree,
    as_tree,
    augment_degree2,
    bfs_distances,
    build_graph,
    degree2_census,
    gen_cycle,
    gen_double_star,
    gen_full_binary,
    gen_path,
    gen_random_no_deg2,
    gen_random_tree,
    prufer_decode,
)
from treeburn.errors import (
    DuplicateEdge,
    LoopEdge,
    NotAcyclic,
    NotAnEdge,
    NotConnected,
    VertexOutOfRange,
)
from treeburn.construct import smooth
from treeburn.cli import format_edge_list, parse_edge_list
from treeburn.graphs import _bfs_tree, component_vertices_beyond, induced_subtree
from treeburn.rng import SplitMix64

from .oracles import labeled_trees
from .strategies import trees


class TestBuildGraph:
    def test_path4(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.adjacency == ((1,), (0, 2), (1, 3), (2,))

    def test_single_vertex(self):
        assert build_graph(1, []).adjacency == ((),)

    def test_edge_order_irrelevant(self):
        a = build_graph(4, [(2, 3), (1, 0), (2, 1)])
        b = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert a == b

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(0, 1), (0, 1)])
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(0, 1), (1, 0)])

    def test_loop_edge(self):
        with pytest.raises(LoopEdge):
            build_graph(3, [(1, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [(0, 3)])
        with pytest.raises(VertexOutOfRange):
            build_graph(3, [(-1, 0)])


@pytest.mark.parametrize(
    "call",
    [
        lambda t: smooth(t, -1),
        lambda t: smooth(t, t.n),
        lambda t: component_vertices_beyond(t, -1, 4),
        lambda t: component_vertices_beyond(t, 4, t.n),
        lambda t: bfs_distances(t, -1),
        lambda t: bfs_distances(t.graph, t.n),
        lambda t: induced_subtree(t, [-1, 5, 0]),
        lambda t: induced_subtree(t, [5, t.n]),
    ],
    ids=[
        "smooth-neg", "smooth-n", "beyond-neg", "beyond-n", "bfs-neg", "bfs-n",
        "induced-neg", "induced-n",
    ],
)
def test_vertex_ids_outside_the_tree_are_rejected(call):
    # unchecked, a negative id indexes the adjacency from its end, and
    # smooth(t, -1) would smooth vertex 5 into a 6-vertex "tree" with 7 edges
    t = as_tree(build_graph(6, [(5, 4), (5, 0), (5, 1), (4, 2), (4, 3)]))
    with pytest.raises(VertexOutOfRange):
        call(t)


class TestAsTree:
    def test_path_is_tree(self):
        assert as_tree(build_graph(4, [(0, 1), (1, 2), (2, 3)])).n == 4

    def test_cycle_not_acyclic(self):
        with pytest.raises(NotAcyclic):
            as_tree(gen_cycle(4))

    def test_disjoint_edges_not_connected(self):
        with pytest.raises(NotConnected):
            as_tree(build_graph(4, [(0, 1), (2, 3)]))

    def test_tree_is_a_graph(self):
        g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
        t = as_tree(g)
        assert isinstance(t, Graph) and type(t) is Tree
        assert t.adjacency == g.adjacency
        assert (t.n, t.degree(1), t.neighbors(1), t.edges()) == (
            4, 3, (0, 2, 3), [(0, 1), (1, 2), (1, 3)]
        )

    def test_graph_property_drops_the_tree_type(self):
        t = gen_random_tree(30, 2)
        assert type(t.graph) is Graph
        assert t.graph == Graph(t.adjacency)

    def test_tree_and_graph_over_one_adjacency_differ(self):
        t = gen_path(5)
        assert t != t.graph
        assert t == Tree(t.adjacency)


class TestParent:
    """Tree.parent is each vertex's neighbor towards vertex 0, -1 at 0: on
    a Tree from _tree it is the proof's array, on any other one BFS."""

    @settings(max_examples=60, deadline=None)
    @given(trees(max_n=30))
    def test_derived_trees_root_at_vertex_0(self, t):
        """Whatever made the Tree, its rooting's order lists each vertex
        once, after its parent: the contract its consumers read.  It is not
        always a BFS order (TestTreeSearch.test_bits_are_in_depth_order)."""
        derived = [t, parse_edge_list(format_edge_list(t)), as_tree(t.graph)]
        derived += [augment_degree2(t)[0]]
        derived += [smooth(t, w)[0] for w in range(t.n) if t.degree(w) >= 2]
        for d in derived:
            assert list(d.parent) == _bfs_tree(d.adjacency, 0)[1]
            order, parent = d.rooting
            assert sorted(order) == list(range(d.n)) and order[:1] == (0,)
            position = {v: i for i, v in enumerate(order)}
            assert all(position[parent[v]] < position[v] for v in order[1:])

    def test_as_tree_keeps_a_tree(self):
        t = gen_random_tree(50, 1)
        parent = t.parent
        assert as_tree(t) is t and as_tree(t).parent is parent
        g = as_tree(t.graph)
        assert type(g) is Tree and g == t and g is not t

    def test_a_hand_built_cyclic_tree_is_refused(self):
        with pytest.raises(NotAcyclic):
            as_tree(Tree(gen_cycle(4).adjacency))
        with pytest.raises(NotConnected):
            as_tree(Tree(()))


class TestBfsTree:
    def test_small_tree_rooted_inside(self):
        t = as_tree(build_graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]))
        assert _bfs_tree(t.adjacency, 1) == ([1, 0, 3, 4, 2, 5], [1, -1, 0, 1, 1, 2])

    def test_cycle_and_isolated_vertex(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        order, parent = _bfs_tree(g.adjacency, 2)
        assert order == [2, 1, 3, 0]  # 0 is reached once, from 1
        assert parent == [1, 2, -1, 2, -1]
        assert not g.is_connected()
        assert build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).is_connected()


def size_beyond(t, u, v):
    return len(component_vertices_beyond(t, u, v))


class TestComponentSizeBeyond:
    def test_p5_interior_edge(self):
        t = gen_path(5)
        assert size_beyond(t, 1, 2) == 3

    def test_leaf_component(self):
        t = gen_path(5)
        assert size_beyond(t, 1, 0) == 1
        assert size_beyond(as_tree(build_graph(4, [(0, 1), (0, 2), (0, 3)])), 0, 2) == 1

    def test_complement_identity_p5(self):
        t = gen_path(5)
        assert size_beyond(t, 2, 1) + size_beyond(t, 1, 2) == 5
        assert size_beyond(t, 2, 1) == 2

    def test_not_an_edge(self):
        with pytest.raises(NotAnEdge):
            size_beyond(gen_path(5), 0, 2)

    @given(trees(min_n=2))
    def test_complement_identity_everywhere(self, t):
        for u, v in t.edges():
            assert size_beyond(t, u, v) + size_beyond(t, v, u) == t.n


class TestDegree2Census:
    def test_p5(self):
        assert degree2_census(gen_path(5)) == (3, [1, 2, 3])

    def test_star(self):
        t = as_tree(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert degree2_census(t) == (0, [])

    def test_p2(self):
        assert degree2_census(gen_path(2)) == (0, [])


class TestAugmentDegree2:
    def test_p3_becomes_star(self):
        t1, attach = augment_degree2(gen_path(3))
        assert t1.n == 4
        assert t1.degree(1) == 3
        assert attach == {3: 1}

    def test_no_deg2_unchanged(self):
        star = as_tree(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
        t1, attach = augment_degree2(star)
        assert t1 == star
        assert attach == {}

    def test_p5_caterpillar(self):
        t1, attach = augment_degree2(gen_path(5))
        assert t1.n == 8
        assert attach == {5: 1, 6: 2, 7: 3}

    @given(trees())
    def test_result_has_no_degree2(self, t):
        t1, attach = augment_degree2(t)
        n2, _ = degree2_census(t)
        assert t1.n == t.n + n2
        assert degree2_census(t1)[0] == 0
        # the original tree is induced on the original ids
        sub, mapping = induced_subtree(t1, range(t.n))
        assert mapping == tuple(range(t.n))
        assert sub == t


class TestGenerators:
    def test_double_star_shape(self):
        t = gen_double_star(2, 2)
        assert t.n == 6
        assert degree2_census(t)[0] == 0
        assert sorted(t.degree(v) for v in range(6)) == [1, 1, 1, 1, 3, 3]

    def test_full_binary_height2(self):
        t = gen_full_binary(2)
        assert t.n == 7
        assert degree2_census(t) == (1, [0])

    def test_full_binary_height0(self):
        assert gen_full_binary(0).n == 1

    def test_random_tree_deterministic(self):
        a = gen_random_tree(50, 7)
        b = gen_random_tree(50, 7)
        assert a.edges() == b.edges()
        c = gen_random_tree(50, 8)
        assert a.edges() != c.edges()

    def test_random_no_deg2(self):
        for seed in range(10):
            t = gen_random_no_deg2(20, seed)
            assert 20 <= t.n <= 40
            assert degree2_census(t)[0] == 0

    def test_outputs_equal_the_checked_route(self):
        """Each generator builds its Tree through one check, _tree; the
        edge-key set, sort and BFS of build_graph plus as_tree stay the
        reference it must equal."""
        outputs = [gen_path(n) for n in range(1, 40)]
        outputs += [gen_full_binary(h) for h in range(9)]
        outputs += [gen_double_star(s, t) for s in range(5) for t in range(5)]
        for n in range(1, 7):
            outputs += labeled_trees(n)
        for n in range(1, 61):
            for seed in range(4):
                outputs += [gen_random_tree(n, seed), gen_random_no_deg2(n, seed)]
        for t in outputs:
            assert type(t) is Tree
            assert t == as_tree(build_graph(t.n, t.edges()))
            assert list(t.parent) == _bfs_tree(t.adjacency, 0)[1]

    def test_random_tree_of_order_two_is_the_path(self):
        for seed in range(10):
            assert gen_random_tree(2, seed) == gen_path(2)

    def test_disconnected_induced_subtree_is_worded(self):
        with pytest.raises(NotConnected):
            induced_subtree(gen_path(5), [0, 1, 3])
        with pytest.raises(NotConnected):
            induced_subtree(gen_path(5), [])

    def test_size_validation(self):
        with pytest.raises(ValueError):
            gen_path(0)
        with pytest.raises(ValueError):
            gen_cycle(2)
        with pytest.raises(ValueError):
            gen_full_binary(-1)
        with pytest.raises(ValueError):
            gen_double_star(-1, 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: build_graph(-1, []), ValueError, "vertex_count must be nonnegative"),
        (lambda: prufer_decode([5]), VertexOutOfRange, "code entry 5 outside 0..2"),
        (lambda: gen_random_tree(0, 0), ValueError, "tree needs n >= 1"),
        (lambda: SplitMix64(1).below(0), ValueError, "bound must be positive"),
    ],
    ids=["build_graph", "prufer_decode", "gen_random_tree", "below"],
)
def test_constructors_refuse_arguments_outside_their_domain(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value).startswith(message)


class TestPrufer:
    def test_labeled_trees_are_pairwise_distinct(self):
        # n^(n-2) distinct trees from n^(n-2) codes: decode is injective,
        # so labeled_trees yields every labeled tree exactly once
        for n in range(2, 9):
            seen = {sum(1 << (u * n + v) for u, v in t.edges()) for t in labeled_trees(n)}
            assert len(seen) == n ** (n - 2)

    def test_labeled_trees_count(self):
        assert sum(1 for _ in labeled_trees(5)) == 125  # n^(n-2)

    @pytest.mark.parametrize("n", [0, -3])
    def test_labeled_trees_rejects_orders_below_one(self, n):
        with pytest.raises(ValueError):
            list(labeled_trees(n))

    @settings(max_examples=50)
    @given(st.integers(10, 60).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
    ))
    def test_decoded_degrees_count_code_entries(self, code):
        # every vertex appears in the code one time fewer than its degree
        n = len(code) + 2
        t = prufer_decode(code)
        assert [t.degree(v) for v in range(n)] == [1 + code.count(v) for v in range(n)]


class TestInternalVertexBound:
    @given(trees(min_n=2))
    def test_internal_count_bound(self, t):
        n2, _ = degree2_census(t)
        internal = sum(1 for v in range(t.n) if t.degree(v) >= 2)
        assert internal <= (n2 + t.n - 2) // 2
