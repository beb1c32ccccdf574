"""Exact solver toolkit for the upper edge dominating set problem: find a
largest inclusion-minimal edge dominating set of a simple undirected graph.

The toolkit combines a brute-force enumeration oracle for small instances, a
polynomial-time kernelization that shrinks an instance to O(k^2) vertices or
decides it outright, and an exact dynamic program over nice tree
decompositions, built by min-fill elimination or as a greedy path, whichever
is narrower.  Everything is deterministic for fixed inputs and seeds.
"""

from .errors import (
    CoverViolation,
    DecompositionFormatError,
    FormatError,
    GenSpecError,
    GraphFormatError,
    InstanceTooLarge,
    InvalidDecomposition,
    IsolatedVertexPresent,
    NotACover,
    NotStarForest,
    ResourceCapExceeded,
    UedsError,
    WidthCapExceeded,
)
from .graph import (
    EdgeSet,
    Graph,
    Star,
    StarStructure,
    domination_count,
    emit_graph,
    greedy_maximal_matching,
    induced_subgraph,
    is_edge_dominating,
    is_minimal_eds,
    parse_graph,
    star_decomposition,
    vertex_cover_from_matching,
)
from .oracle import (
    OracleResult,
    enumerate_minimal_eds,
    upper_eds_exact,
)
from .decomposition import (
    NiceDecomposition,
    TreeDecomposition,
    emit_td,
    make_nice,
    parse_td,
    td_from_vertex_cover,
    td_greedy_path,
    td_min_fill,
    validate_nice,
    validate_td,
)
from .dp import (
    DPResult,
    extract_witness,
    run_dp,
    state_space_bound,
)
from .kernel import (
    DecidedYes,
    KernelOutcome,
    Reduced,
    VertexColoring,
    color_vertices,
    kernelize,
)
from .generate import GenSpec, SplitMix64, gen
from .pipeline import SolveReport, gamma_prime, solve
from .selfcheck import SelfCheckReport

__version__ = "0.1.0"
