import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeburn import (
    EMPTY,
    BurningSequence,
    Tree,
    build_graph,
    canonicalize,
    gen_path,
    simulate,
    validate_sequence,
)
import treeburn
from treeburn import engine
from treeburn.engine import _burn, _canonical, greedy_schedule
from treeburn.errors import (
    LengthMismatch,
    NotConnected,
    SourceAlreadyBurned,
    VertexOutOfRange,
)

from .strategies import random_valid_schedule, trees


class TestSimulate:
    def test_path4_two_sources(self):
        lab = simulate(gen_path(4), (1, 3))
        assert lab.labels == (2, 1, 2, 2)
        assert lab.total_rounds == 2

    def test_single_vertex(self):
        lab = simulate(build_graph(1, []), (0,))
        assert lab.labels == (1,)
        assert lab.total_rounds == 1

    def test_pure_propagation_from_end(self):
        lab = simulate(gen_path(4), (0,))
        assert lab.labels == (1, 2, 3, 4)
        assert lab.total_rounds == 4

    def test_empty_rounds_in_schedule(self):
        lab = simulate(gen_path(3), (1, EMPTY))
        assert lab.labels == (2, 1, 2)
        assert lab.total_rounds == 2

    def test_round_one_must_have_source(self):
        with pytest.raises(ValueError):
            simulate(gen_path(2), (EMPTY, 1))
        with pytest.raises(ValueError):
            simulate(gen_path(2), ())

    def test_source_already_burned(self):
        with pytest.raises(SourceAlreadyBurned) as exc:
            simulate(gen_path(3), (0, EMPTY, 0))
        assert exc.value.round_no == 3
        assert exc.value.vertex == 0

    def test_source_after_termination(self):
        # all of P2 is burned after round 2; a round-3 source cannot exist
        with pytest.raises(SourceAlreadyBurned) as exc:
            simulate(gen_path(2), (0, EMPTY, 1))
        assert exc.value.round_no == 3

    def test_source_eligible_when_fire_arrives_same_round(self):
        # vertex 1 burns by adjacency in round 2; naming it as the round-2
        # source is still legal because it was unburned at the round start
        lab = simulate(gen_path(4), (0, 1))
        assert lab.labels == (1, 2, 3, 4)

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected):
            simulate(build_graph(4, [(0, 1), (2, 3)]), (0,))

    def test_disconnected_graph_rejected_with_a_source_per_component(self):
        # no round stalls here, so only the upfront pass can catch it
        with pytest.raises(NotConnected):
            simulate(build_graph(4, [(0, 1), (2, 3)]), (0, 2))

    def test_disconnected_tree_stops_instead_of_hanging(self):
        # Tree() bypasses as_tree's connectivity check
        t = Tree(build_graph(4, [(0, 1), (2, 3)]).adjacency)
        with pytest.raises(NotConnected):
            simulate(t, (0,))
        with pytest.raises(NotConnected):
            greedy_schedule(t, [0, 0])
        with pytest.raises(NotConnected):
            canonicalize(t, (0,))


class TestValidateSequence:
    def test_two_source_pair(self):
        lab = validate_sequence(gen_path(4), BurningSequence((1, 3)))
        assert lab.total_rounds == 2
        assert dict(enumerate(lab.labels)) == {0: 2, 1: 1, 2: 2, 3: 2}

    def test_too_short(self):
        with pytest.raises(LengthMismatch) as exc:
            validate_sequence(gen_path(4), BurningSequence((1,)))
        assert exc.value.actual_rounds == 3

    def test_trailing_sources_stretch_the_process(self):
        with pytest.raises(LengthMismatch) as exc:
            validate_sequence(gen_path(4), BurningSequence((0, 1, 2)))
        assert exc.value.actual_rounds == 4

    def test_source_burned_at_round_start(self):
        with pytest.raises(SourceAlreadyBurned) as exc:
            validate_sequence(gen_path(3), BurningSequence((0, 2, 1)))
        assert (exc.value.round_no, exc.value.vertex) == (3, 1)

    def test_duplicate_sources_rejected_by_type(self):
        with pytest.raises(ValueError):
            BurningSequence((0, 0))

    def test_empty_sequence_rejected_by_type(self):
        with pytest.raises(ValueError, match="burning sequence must be nonempty"):
            BurningSequence(())


class TestCanonicalize:
    def test_fills_empty_round_with_lowest_id(self):
        seq = canonicalize(gen_path(3), (1, EMPTY))
        assert seq.sources == (1, 0)

    def test_identity_on_full_schedule(self):
        seq = canonicalize(gen_path(4), (1, 3))
        assert seq.sources == (1, 3)

    def test_single_vertex(self):
        assert canonicalize(build_graph(1, []), (0,)).sources == (0,)

    def test_pads_past_schedule_end(self):
        seq = canonicalize(gen_path(9), (4,))
        assert len(seq) == 5
        assert seq.sources[0] == 4


@pytest.mark.parametrize(
    "call",
    [
        lambda g: simulate(g, (-1,)),
        lambda g: greedy_schedule(g, (0, -1)),
        lambda g: validate_sequence(g, BurningSequence((0, g.n))),
        lambda g: canonicalize(g, (0, EMPTY, -1)),
    ],
    ids=["simulate", "greedy_schedule", "validate_sequence", "canonicalize"],
)
def test_source_ids_outside_the_graph_are_rejected(call):
    with pytest.raises(VertexOutOfRange, match="is not a vertex"):
        call(gen_path(6))


@st.composite
def graphs_and_proposals(draw):
    """A connected graph (a tree plus chords) and per-round proposals whose
    greedy burn has empty rounds and proposals the fire beat."""
    t = draw(trees(min_n=1, max_n=20))
    n = t.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chords = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    g = build_graph(n, set(t.edges()) | set(chords))
    first = draw(st.integers(0, n - 1))
    rest = draw(st.lists(st.none() | st.integers(0, n - 1), max_size=n + 2))
    return g, [first, *rest]


class TestCanonical:
    @settings(max_examples=200, deadline=None)
    @given(graphs_and_proposals())
    def test_each_filled_round_holds_its_lowest_id(self, case):
        g, proposals = case
        kept, labels = _burn(g.adjacency, proposals, False)
        seq = _canonical(kept, labels)
        assert len(seq) == len(kept)
        for r, (s, x) in enumerate(zip(kept, seq.sources), 1):
            if s is None:
                assert x == min(v for v in range(g.n) if labels[v] == r)
            else:
                assert x == s
        assert simulate(g, seq.sources).labels == tuple(labels)

    def test_demoted_and_empty_rounds_are_filled(self):
        # P5 from 2: round 2 is empty, 1 and 3 burn in it, and the fire
        # beats the round-3 proposal 3; 0 and 4 burn in round 3
        kept, labels = _burn(gen_path(5).adjacency, (2, EMPTY, 3), False)
        assert kept == [2, EMPTY, EMPTY]
        assert _canonical(kept, labels).sources == (2, 1, 0)

    def test_full_rounds_pass_through(self):
        assert _canonical([3, 1], [2, 2, 2, 1]).sources == (3, 1)


def test_canonicalize_burns_once(monkeypatch):
    calls = []

    def counting_burn(adjacency, rounds, strict):
        calls.append(strict)
        return _burn(adjacency, rounds, strict)

    monkeypatch.setattr(engine, "_burn", counting_burn)
    for t, rounds in [
        (gen_path(9), (4,)),
        (gen_path(3), (1, EMPTY)),
        (gen_path(4), (1, 3)),
        (build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), (0, EMPTY)),
    ]:
        calls.clear()
        canonicalize(t, rounds)
        assert calls == [True]


def test_namespace_drops_the_oracles_and_unused_helpers():
    for name in (
        "burning_number_naive",
        "spanning_tree_min",
        "labeled_trees",
        "project_to_subtree",
        "greedy_schedule",
    ):
        assert not hasattr(treeburn, name)
    # perfbench's spans still wrap these two by module and name
    assert callable(treeburn.construct.project_to_subtree)
    assert callable(treeburn.engine.greedy_schedule)


class TestGreedySchedule:
    def test_keeps_live_proposals(self):
        sched, lab = greedy_schedule(gen_path(4), [1, 3])
        assert sched == (1, 3)
        assert lab.total_rounds == 2

    def test_drops_burned_proposal(self):
        # vertex 1 is burned in round 1; the round-2 proposal must drop out
        sched, lab = greedy_schedule(gen_path(4), [1, 1])
        assert sched[1] is None
        assert lab.total_rounds == 3


@settings(max_examples=120, deadline=None)
@given(trees(min_n=1, max_n=20), st.integers(0, 2**32))
def test_canonicalize_reproduces_process(t, seed):
    schedule = random_valid_schedule(t, seed)
    lab = simulate(t, schedule)
    seq = canonicalize(t, schedule)
    lab2 = validate_sequence(t, seq)
    assert lab2 == lab
    for r, src in enumerate(schedule, start=1):
        if src is not None:
            assert seq.sources[r - 1] == src


@settings(max_examples=120, deadline=None)
@given(trees(min_n=1, max_n=20), st.integers(0, 2**32))
def test_label_recurrence(t, seed):
    schedule = random_valid_schedule(t, seed)
    lab = simulate(t, schedule)
    assert max(lab.labels) == lab.total_rounds
    assert min(lab.labels) == 1
    source_round = {v: r for r, v in enumerate(schedule, start=1) if v is not None}
    for v in range(t.n):
        nb_min = min((lab.labels[u] for u in t.neighbors(v)), default=None)
        if v in source_round:
            expected = source_round[v] if nb_min is None else min(source_round[v], nb_min + 1)
        else:
            expected = nb_min + 1
        assert lab.labels[v] == expected


@settings(max_examples=120, deadline=None)
@given(trees(min_n=1, max_n=20), st.integers(0, 2**32))
def test_labels_match_closed_form_over_distances(t, seed):
    # independent oracle: a vertex burns in the earliest round any source
    # can reach it, i.e. min over sources placed at round r of r + dist
    from treeburn import bfs_distances

    schedule = random_valid_schedule(t, seed)
    lab = simulate(t, schedule)
    placed = [(r, v) for r, v in enumerate(schedule, start=1) if v is not None]
    for w in range(t.n):
        expected = min(r + bfs_distances(t, v)[w] for r, v in placed)
        assert lab.labels[w] == expected


@settings(max_examples=120, deadline=None)
@given(trees(min_n=1, max_n=20), st.integers(0, 2**32))
def test_monotone_burning_every_round_burns_something(t, seed):
    lab = simulate(t, random_valid_schedule(t, seed))
    rounds_hit = set(lab.labels)
    assert rounds_hit == set(range(1, lab.total_rounds + 1))
    for v in range(t.n):
        assert 1 <= lab.labels[v] <= lab.total_rounds
