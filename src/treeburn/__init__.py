"""treeburn: graph burning simulation, exact solving, and constructive
burning-sequence certificates for trees."""

__version__ = "0.1.0"

from .bounds import (  # noqa: F401
    BoundTable,
    bound_table,
    ceil_sqrt,
    conjecture_guaranteed,
    margin,
    refined_bound,
)
from .engine import (  # noqa: F401
    EMPTY,
    BurningSequence,
    RoundLabeling,
    canonicalize,
    simulate,
    validate_sequence,
)
from .exact import (  # noqa: F401
    ExactResult,
    burning_number,
)
from .graphs import (  # noqa: F401
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
from .construct import (  # noqa: F401
    BoundCertificate,
    construct_general,
    construct_no_deg2,
)
