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
    InvalidCPartitionError,
    InvalidWeightError,
    LoopEdgeError,
    MalformedPartitionError,
    NotCatacondensedError,
    NTooSmallError,
    ParseError,
    PartitionNotCoveringError,
    SzegedCutError,
    UnsupportedKindError,
    VertexOutOfRangeError,
)
from .graph import (
    Graph,
    bfs_distances,
    build_graph,
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
    build_benzenoid,
    build_phenylene,
    linear_phenylene,
    parse_hex_spec,
    ph_closed_formulas,
)
from .oracle import (
    EdgeSides,
    all_pairs_distances,
    distance_decomposition_check,
    oracle_edge_sides,
    oracle_general,
    oracle_is_partial_cube,
    oracle_suite,
    oracle_theta_star_partition,
    theta_related,
)
from .quotient import (
    QuotientGraph,
    Weight,
    WeightAssignment,
    quotient_graph,
)
from .theta import (
    EdgePartition,
    is_bipartite,
    is_partial_cube,
    theta_star_partition,
    validate_c_partition,
)

__version__ = "0.1.0"
