"""Stereotype graphs: paired-label graphs, merge reduction, exact
stability criteria, and the chromatic stability index (CSI).

A stereotype graph on n pairs of labels joins the two labels of each
pair and wires every two pairs with one of the two possible perfect
matchings, so any two pairs induce a 4-cycle. The package builds and
validates these graphs, decides stability along several independent
routes (merge reduction, 2-coloring, bipartiteness, girth, principal
minors, an adjacency-matrix identity, characteristic and chromatic
polynomial coefficients), measures stability by the chromatic number,
and constructs graphs hitting any achievable index.
"""

__version__ = "0.1.0"

from .chromatic import (
    BipartitionResult,
    Coloring,
    StabilityComparison,
    StabilityReport,
    chromatic_number,
    chromatic_polynomial,
    chromatically_bipartite_criterion,
    compare_stability,
    constructive_pair_coloring,
    count_proper_colorings,
    csi,
    greedy_coloring,
    leading_chromatic_coefficients,
    optimal_coloring,
    stability_report,
    two_coloring,
)
from .errors import (
    DomainError,
    EdgeAbsent,
    InternalInvariant,
    InvalidColoring,
    InvalidOrder,
    LengthMismatch,
    NotAStereotypeGraph,
    PairAbsent,
    ParseError,
    RangeError,
    SizeExceeded,
    StereographError,
)
from .generators import (
    CensusRow,
    build_with_csi,
    census,
    delete_edges,
    enumerate_all,
    expand_incrementing,
    expand_preserving,
    gen_complete_bipartite,
    gen_complete_ladder,
    gen_random,
    splitmix64_stream,
)
from .graphs import Graph, find_isomorphism, graph_isomorphic
from .merge import (
    MergeOutcome,
    MergeStep,
    PairedGraph,
    StabilityVerdict,
    check_order_invariance,
    merge_pairs,
    reduce_to_k2,
)
from .model import (
    BasicProfile,
    StereotypeGraph,
    ValidationReport,
    basic_profile,
    from_edge_list,
    from_pattern,
    pattern_of,
    recognize_complete_bipartite,
    recognize_complete_ladder,
    restrict_pairs,
    switching_representative,
    triangle_pair_triples,
    validate_stereotype,
    vertex_id,
    vertex_name,
    vertex_pair_side,
)
from .polynomials import IntPolynomial
from .serialize import (
    census_to_csv,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    to_dot,
)
from .spectral import (
    adjacency_matrix,
    characteristic_criterion,
    characteristic_polynomial,
    coefficient_identities,
    leading_characteristic_coefficients,
    matrix_criterion,
    minor_criterion,
    srg_check,
    stereotype_characteristic_polynomial,
)
