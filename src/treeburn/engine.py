"""The burning process: simulation, sequence validation, canonicalization,
and the transport of proposed sources into a canonical burning sequence.

Round semantics.  In round r the fire spreads to every unburned vertex
adjacent to a vertex burned in an earlier round, and the round's source (if
any) is burned as well.  A source is eligible iff it is unburned at the
START of its round; it may coincide with a vertex the fire reaches by
adjacency in the same round.  This round-start rule is what makes sequence
lifting and projection compose exactly.  A schedule is a plain sequence
of per-round sources (entry r-1 drives round r, EMPTY marks a round with no
source), and round 1 must name a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    InternalBoundViolation,
    LengthMismatch,
    NotConnected,
    SourceAlreadyBurned,
    VertexOutOfRange,
)
from .graphs import Graph

# An empty round: the fire only spreads by adjacency.
EMPTY: Optional[int] = None


@dataclass(frozen=True)
class BurningSequence:
    """Sources of a burning process that terminates exactly when the last
    source is placed.  Entries are necessarily distinct."""

    sources: tuple[int, ...]

    def __post_init__(self):
        if not self.sources:
            raise ValueError("burning sequence must be nonempty")
        if len(set(self.sources)) != len(self.sources):
            raise ValueError("burning sequence sources must be distinct")

    def __len__(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class RoundLabeling:
    """Round in which each vertex burned; labels[v] is 1-based."""

    labels: tuple[int, ...]
    total_rounds: int


def _burn(
    adjacency: Sequence[Sequence[int]],
    rounds: Sequence[Optional[int]],
    strict: bool,
) -> tuple[list[Optional[int]], list[int]]:
    """The round loop shared by simulate, greedy_schedule, canonicalize,
    _transport and construct's innermost tree: run the process on
    adjacency until every vertex burns.  Neighbor order does not change a
    vertex's round, so adjacency need not be sorted.

    A source burned at the start of its round raises SourceAlreadyBurned
    when strict, and is demoted to an empty round otherwise; when strict, so
    does a source scheduled after the process has ended.  Returns the
    per-round sources actually used, up to the round the process ends in,
    and every vertex's round; no round's vertices outlive the next round.

    Every round burns some vertex until the last, so a round that burns
    none raises NotConnected instead of looping forever.
    """
    n = len(adjacency)
    if not rounds or rounds[0] is None:
        raise ValueError("round 1 needs a concrete source")
    labels = [0] * n
    frontier: list[int] = []
    burned_count = 0
    kept: list[Optional[int]] = []
    r = 0
    while burned_count < n:
        r += 1
        newly: list[int] = []
        burn = newly.append
        for u in frontier:
            for w in adjacency[u]:
                if not labels[w]:
                    labels[w] = r
                    burn(w)
        src = rounds[r - 1] if r <= len(rounds) else EMPTY
        if src is not None:
            if not 0 <= src < n:
                noun = "source" if strict else "proposal"
                raise VertexOutOfRange(f"{noun} {src} is not a vertex")
            if labels[src] == 0:
                labels[src] = r
                newly.append(src)
            elif labels[src] != r:
                if strict:
                    raise SourceAlreadyBurned(r, src)
                src = EMPTY
        if not newly:
            raise NotConnected(f"round {r} burns nothing: the graph is not connected")
        kept.append(src)
        burned_count += len(newly)
        frontier = newly
    if strict:
        # Sources scheduled after termination can never be unburned.
        for later in range(r, len(rounds)):
            if rounds[later] is not None:
                raise SourceAlreadyBurned(later + 1, rounds[later])
    return kept, labels


def _canonical(rounds: Sequence[Optional[int]], labels: Sequence[int]) -> BurningSequence:
    """The per-round sources of a process whose rounds labels holds, each
    empty round filled with the lowest id burning in it, by one pass over
    labels made only when a round is empty.  That vertex burns by adjacency
    in its round, so the sequence drives the same process.  _transport,
    canonicalize and construct._project all fill rounds here."""
    if EMPTY not in rounds:
        return BurningSequence(tuple(rounds))
    lowest = dict(zip(reversed(labels), reversed(range(len(labels)))))
    return BurningSequence(
        tuple(lowest[r] if s is None else s for r, s in enumerate(rounds, 1))
    )


def _burn_graph(
    g: Graph, rounds: Sequence[Optional[int]], strict: bool
) -> tuple[list[Optional[int]], list[int]]:
    """_burn over all of g.  Only a bare Graph gets a connectivity pass:
    Tree.is_connected trusts the type."""
    if not g.is_connected():
        raise NotConnected("burning is defined on connected graphs")
    return _burn(g.adjacency, rounds, strict)


def simulate(g: Graph, rounds: Sequence[Optional[int]]) -> RoundLabeling:
    """Run the burning process for the given schedule on a connected graph.

    Rounds past the end of the schedule proceed with empty sources until all
    vertices are burned.  Raises SourceAlreadyBurned if a scheduled source is
    burned at the start of its round -- including any source scheduled after
    the process has already terminated.
    """
    kept, labels = _burn_graph(g, rounds, strict=True)
    return RoundLabeling(tuple(labels), len(kept))


def validate_sequence(g: Graph, seq: BurningSequence) -> RoundLabeling:
    """Check that seq is a burning sequence: the process it drives must
    terminate in exactly len(seq) rounds.  Returns the labeling."""
    labeling = simulate(g, seq.sources)
    if labeling.total_rounds != len(seq):
        raise LengthMismatch(labeling.total_rounds)
    return labeling


def greedy_schedule(
    g: Graph, proposals: Sequence[Optional[int]]
) -> tuple[tuple[Optional[int], ...], RoundLabeling]:
    """Run the process keeping each round's proposed source iff it is still
    unburned at the start of its round, demoting it to an empty round
    otherwise.  Rounds continue past the proposals until everything burns.

    This is the composition step used when transporting a sequence from a
    transformed tree back to the original: stale sources drop out silently
    instead of invalidating the schedule.
    """
    kept, labels = _burn_graph(g, proposals, strict=False)
    return tuple(kept), RoundLabeling(tuple(labels), len(kept))


def _transport(
    adjacency: Sequence[Sequence[int]],
    proposals: Sequence[Optional[int]],
    bound: int,
) -> tuple[BurningSequence, list[int]]:
    """The greedy burn of proposals over a connected adjacency, in
    canonical form (_canonical), and every vertex's round in it: how
    construct's oracles project and lift, and how the exact searches get
    their witnesses.  A proposal the fire beat drops out, and its round is
    filled like every empty one, so the sequence drives this very burn when
    replayed strictly.  The burn must end within bound rounds.
    """
    kept, labels = _burn(adjacency, proposals, False)
    if len(kept) > bound:
        raise InternalBoundViolation(
            f"transport took {len(kept)} rounds, bound {bound}"
        )
    return _canonical(kept, labels), labels


def canonicalize(g: Graph, rounds: Sequence[Optional[int]]) -> BurningSequence:
    """Fill every empty round with the lowest-id vertex burned in that round,
    producing a burning sequence that induces the identical process.  One
    strict burn checks every source and gives the labels the fill reads."""
    return _canonical(*_burn_graph(g, rounds, strict=True))
