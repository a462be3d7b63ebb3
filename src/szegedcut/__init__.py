"""Weighted Szeged-type and PI-type indices via quotient-graph cuts.

The package computes the degree-weighted Szeged, vertex-PI, edge-Szeged,
and PI indices of connected graphs two ways: straight from the
definitions, and as sums over weighted quotient graphs of any partition
coarser than the Theta*-partition (the cut method). Generators for
benzenoid systems and phenylenes produce direction-labelled graphs whose
quotients are trees, making the cut method linear there.
"""

from .errors import (
    CellsNotTreeError,
    DisconnectedCellsError,
    DisconnectedError,
    DuplicateEdgeError,
    IncompleteGroupingError,
    InvalidCPartitionError,
    InvalidWeightError,
    LoopEdgeError,
    MalformedPartitionError,
    NotATreeError,
    NotCatacondensedError,
    NTooSmallError,
    ParseError,
    PartitionNotCoveringError,
    SzegedCutError,
    UnsupportedKindError,
    VertexOutOfRangeError,
)
from .graph import (
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    bfs_distances,
    build_graph,
    edge_vertex_distance,
    format_edge_list,
    is_connected,
    parse_edge_list,
)
from .indices import (
    ClassContribution,
    IndexKind,
    IndexReport,
    first_zagreb,
    general_cut_index,
    weighted_index,
    weighted_suite_cut,
    weighted_suite_direct,
)
from .molgen import (
    DirectionLabeledGraph,
    HexSpec,
    benzenoid_quotient_trees,
    build_benzenoid,
    build_phenylene,
    format_hex_spec,
    inner_dual,
    linear_phenylene,
    parse_hex_spec,
    ph_closed_formulas,
)
from .oracle import (
    EdgeSides,
    oracle_edge_sides,
    oracle_general,
    oracle_suite,
    oracle_theta_star_partition,
)
from .quotient import (
    QuotientGraph,
    Weight,
    WeightAssignment,
    distance_decomposition_check,
    quotient_graph,
)
from .theta import (
    EdgePartition,
    coarsen,
    is_bipartite,
    is_partial_cube,
    single_class_partition,
    theta_related,
    theta_star_partition,
    validate_c_partition,
)

__version__ = "0.1.0"
