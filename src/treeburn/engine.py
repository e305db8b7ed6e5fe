"""The burning process: simulation, sequence validation, canonicalization.

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
from typing import Iterable, Optional, Sequence

from .errors import LengthMismatch, NotConnected, SourceAlreadyBurned, VertexOutOfRange
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

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.labels))


def _burn(
    g: Graph, rounds: Sequence[Optional[int]], strict: bool
) -> tuple[list[Optional[int]], RoundLabeling]:
    """The round loop shared by simulate and greedy_schedule.

    A source burned at the start of its round raises SourceAlreadyBurned
    when strict, and is demoted to an empty round otherwise.  Returns the
    per-round sources actually used, up to the round the process ends in.

    Only a bare Graph gets a connectivity pass: Tree.is_connected trusts
    the type.  On a connected graph every round burns some vertex until the
    last, so a round that burns none raises NotConnected; a Tree built
    around a disconnected adjacency therefore cannot loop forever.
    """
    n = g.n
    if n == 0 or not g.is_connected():
        raise NotConnected("burning is defined on connected graphs")
    if not rounds or rounds[0] is None:
        raise ValueError("round 1 needs a concrete source")
    labels = [0] * n
    frontier: list[int] = []
    burned_count = 0
    kept: list[Optional[int]] = []
    r = 0
    while burned_count < n:
        r += 1
        newly = []
        for u in frontier:
            for w in g.adjacency[u]:
                if labels[w] == 0:
                    labels[w] = r
                    newly.append(w)
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
    return kept, RoundLabeling(tuple(labels), r)


def simulate(g: Graph, rounds: Sequence[Optional[int]]) -> RoundLabeling:
    """Run the burning process for the given schedule on a connected graph.

    Rounds past the end of the schedule proceed with empty sources until all
    vertices are burned.  Raises SourceAlreadyBurned if a scheduled source is
    burned at the start of its round -- including any source scheduled after
    the process has already terminated.
    """
    _, labeling = _burn(g, rounds, strict=True)
    # Sources scheduled after termination can never be unburned.
    for later in range(labeling.total_rounds, len(rounds)):
        if rounds[later] is not None:
            raise SourceAlreadyBurned(later + 1, rounds[later])
    return labeling


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
    kept, labeling = _burn(g, proposals, strict=False)
    return tuple(kept), labeling


def _fill_rounds(
    rounds: Sequence[Optional[int]],
    labels: Sequence[int],
    upto: int,
    vertices: Iterable[int],
) -> list[int]:
    """Rounds 1..upto of rounds, each empty one (or one past the end) filled
    with the lowest-id vertex among `vertices` whose label is that round."""
    lowest: dict[int, int] = {}
    for v in vertices:
        r = labels[v]
        if r <= upto and (r not in lowest or v < lowest[r]):
            lowest[r] = v
    sources = []
    for r in range(1, upto + 1):
        given = rounds[r - 1] if r <= len(rounds) else EMPTY
        sources.append(given if given is not None else lowest[r])
    return sources


def canonicalize(g: Graph, rounds: Sequence[Optional[int]]) -> BurningSequence:
    """Fill every empty round with the lowest-id vertex burned in that round,
    producing a burning sequence that induces the identical process."""
    labeling = simulate(g, rounds)
    filled = _fill_rounds(rounds, labeling.labels, labeling.total_rounds, range(g.n))
    return BurningSequence(tuple(filled))
