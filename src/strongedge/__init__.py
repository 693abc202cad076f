"""strongedge: high-girth regular bipartite graph generation, counting
certificates for strong chromatic index lower bounds, and exact desk-scale
strong edge-coloring."""

__version__ = "0.1.0"

from .bounds import (
    ClassSizeReport,
    CountingCertificate,
    averaging_identity_check,
    check_class_sizes,
    counting_certificate,
)
from .dimacs import load_dimacs, parse_dimacs, save_dimacs, serialize_dimacs
from .errors import (
    ConstructionFailedError,
    DimacsParseError,
    DuplicateEdgeError,
    IdentityViolationError,
    InternalInvariantError,
    InvalidEdgeError,
    NotRegularError,
    StrongEdgeError,
    VerificationError,
)
from .generator import (
    AddStep,
    AugmentState,
    GeneratorTrace,
    SwapStep,
    base_cycle,
    choose_n,
    find_distant_low_pair,
    find_swap_edge,
    apply_swap,
    generate,
    min_n,
    replay_trace,
)
from .graphs import (
    INFINITE_GIRTH,
    BipartiteGraph,
    ConflictGraph,
    SimpleGraph,
    conflict_graph,
    distances_from,
    edge_windows,
    girth,
)
from .pipeline import (
    Conjecture2Evidence,
    Conjecture2Row,
    CounterexampleRecord,
    build_counterexample,
    certify_graph,
    conjecture2_sweep,
)
from .solver import (
    MinLastUsageResult,
    SearchResult,
    SolveOutcome,
    StrongColoring,
    brute_force_chi_s,
    exact_chi_s,
    find_coloring,
    greedy_color,
    min_last_color_usage,
    verify,
)
