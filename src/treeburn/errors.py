"""Exception types shared across the package."""


class LoopEdge(ValueError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(ValueError):
    """The same unordered vertex pair appears twice in an edge list."""


class VertexOutOfRange(ValueError):
    """A vertex id (an edge endpoint or a queried vertex) is outside 0..n-1."""


class NotAnEdge(ValueError):
    """The requested vertex pair is not an edge of the graph."""


class NotConnected(ValueError):
    """The graph is not connected (or an operation requires connectivity)."""


class NotAcyclic(ValueError):
    """The graph contains a cycle where a tree was required."""


class SourceAlreadyBurned(ValueError):
    """A scheduled source was already burned at the start of its round."""

    def __init__(self, round_no: int, vertex: int):
        super().__init__(f"source {vertex} already burned at start of round {round_no}")
        self.round_no = round_no
        self.vertex = vertex


class LengthMismatch(ValueError):
    """A burning sequence did not terminate in exactly its own length."""

    def __init__(self, actual_rounds: int):
        super().__init__(f"process terminated in {actual_rounds} rounds")
        self.actual_rounds = actual_rounds


class TooLarge(ValueError):
    """Input exceeds the size guard of a brute-force operation."""


class SearchBudgetExceeded(TooLarge):
    """An exact search explored more nodes than its budget allows."""


class DegreeTooSmall(ValueError):
    """The vertex to smooth must have degree at least 2."""


class StructureMismatch(ValueError):
    """Auxiliary data (maps, smoothing results) does not fit the given tree."""


class PreconditionViolated(ValueError):
    """An operation's stated precondition does not hold."""


class InternalBoundViolation(RuntimeError):
    """A constructed sequence missed its guaranteed bound; indicates a bug."""
