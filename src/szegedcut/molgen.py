"""Generators for benzenoid systems and phenylenes on the hexagonal lattice.

Cells are axial coordinates (q, r) of pointy-top hexagons. Corners live
on a scaled integer grid (no floating point): the cell center is
(2q + r, 3r) and the six corners are fixed offsets from it, so shared
corners between neighbouring cells match exactly.

Every produced edge carries a direction label: 1 for vertical edges and
2/3 for the two diagonal families; phenylenes additionally use label 4
for the edges that join hexagon copies across an inserted square. The
label classes form a c-partition whose quotients are trees, which is
what makes the cut method linear on these families. A hex spec of h
cells parses, and its holes are counted (by Euler's formula), in O(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import (
    CellsNotTreeError,
    DisconnectedCellsError,
    NotATreeError,
    NotCatacondensedError,
    NTooSmallError,
    ParseError,
)
from .graph import Graph, _int_pairs
from .indices import IndexReport
from .quotient import QuotientGraph, WeightAssignment, quotient_graph
from .theta import EdgePartition

Cell = tuple[int, int]
Point = tuple[int, int]

_AXIAL_NEIGHBORS: tuple[Cell, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
# corners of a pointy-top hexagon, counterclockwise from the east corner
_CORNER_OFFSETS: tuple[Point, ...] = ((1, 1), (0, 2), (-1, 1), (-1, -1), (0, -2), (1, -1))


def _center(cell: Cell) -> Point:
    q, r = cell
    return (2 * q + r, 3 * r)


def _corners(cell: Cell) -> list[Point]:
    cx, cy = _center(cell)
    return [(cx + ox, cy + oy) for ox, oy in _CORNER_OFFSETS]


def _direction(p1: Point, p2: Point) -> int:
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    if dx == 0:
        return 1
    return 2 if dx == dy else 3


@dataclass(frozen=True)
class HexSpec:
    """A set of hexagon cells in axial coordinates."""

    cells: frozenset[Cell]

    def __post_init__(self):
        if not self.cells:
            raise ValueError("hex spec needs at least one cell")

    @classmethod
    def linear_chain(cls, h: int) -> "HexSpec":
        if h < 1:
            raise NTooSmallError("chain needs at least one cell")
        return cls(frozenset((i, 0) for i in range(h)))

    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))

    def adjacent_pairs(self) -> tuple[tuple[int, int], ...]:
        """Index pairs (i, j), i < j, of cells sharing an edge."""
        cells = self.sorted_cells()
        index = {c: i for i, c in enumerate(cells)}
        pairs = []
        for i, (q, r) in enumerate(cells):
            for dq, dr in _AXIAL_NEIGHBORS:
                j = index.get((q + dq, r + dr))
                if j is not None and i < j:
                    pairs.append((i, j))
        return tuple(sorted(pairs))

    def is_connected(self) -> bool:
        return _component_count(self.cells) == 1

    def has_holes(self) -> bool:
        """True if the complement of the cell set has a bounded component."""
        return _hole_count(self.cells, _component_count(self.cells)) > 0


def _component_count(cells: frozenset[Cell]) -> int:
    """Components of the cells across shared sides, grown a ring at a time."""
    left = set(cells)
    count = 0
    while left:
        count += 1
        ring = {left.pop()}
        while ring:
            ring = {(q + dq, r + dr) for q, r in ring for dq, dr in _AXIAL_NEIGHBORS} & left
            left -= ring
    return count


def _hole_count(cells: frozenset[Cell], components: int) -> int:
    """Holes of the region the h closed cells cover, in O(h) by Euler's
    formula: cells meet two at a shared side (P pairs), three at a shared
    corner (T triples) and never four, so by the nerve theorem the region's
    Euler characteristic h - P + T equals components - holes."""
    pairs = triples = 0
    for q, r in cells:
        east = (q + 1, r) in cells
        others = ((q, r + 1) in cells) + ((q + 1, r - 1) in cells)
        pairs += east + others
        triples += east * others  # the cell's two corners on its east side
    return pairs - triples + components - len(cells)


def parse_hex_spec(text: str) -> HexSpec:
    """One `q r` cell per line, in the line grammar of `graph._int_pairs`."""
    cells = _int_pairs(text)
    if not cells:
        raise ParseError("hex spec contains no cells")
    spec = HexSpec(frozenset(cells))
    if len(spec.cells) != len(cells):
        raise ParseError("hex spec names a cell twice")
    return spec


def format_hex_spec(spec: HexSpec) -> str:
    return "\n".join(f"{q} {r}" for q, r in spec.sorted_cells()) + "\n"


@dataclass(frozen=True)
class DirectionLabeledGraph:
    """A generated molecular graph with per-edge direction labels."""

    graph: Graph
    direction_of: tuple[int, ...]
    cells: tuple[Cell, ...]
    kind: str  # "benzenoid" | "phenylene"
    nonstandard_region: bool = False

    def direction_partition(self) -> EdgePartition:
        """Edge classes by direction label.

        Without holes every Theta*-class of a benzenoid or phenylene stays
        inside one direction class, so the partition is flagged as
        Theta*-refined. A `nonstandard_region` (a cell set with holes) can
        split a Theta*-class across labels, so its partition is left
        unflagged and the cut method validates it first.
        """
        return EdgePartition.from_labels(
            self.direction_of, refined_by_theta_star=not self.nonstandard_region
        )

    def edges_with_label(self, label: int) -> tuple[int, ...]:
        return tuple(
            eid for eid, lab in enumerate(self.direction_of) if lab == label
        )


def build_benzenoid(spec: HexSpec) -> DirectionLabeledGraph:
    """Graph of all lattice vertices and edges of the chosen cells.

    Corners shared between cells are merged by exact integer coordinates.
    Cell sets enclosing holes are accepted but flagged `nonstandard_region`.
    """
    if not spec.is_connected():
        raise DisconnectedCellsError("cells do not form a connected region")
    cells = spec.sorted_cells()
    point_ids: dict[Point, int] = {}
    seen_edges: set[tuple[Point, Point]] = set()
    edges: list[tuple[int, int]] = []
    direction: list[int] = []

    for cell in cells:
        corners = _corners(cell)
        for pt in corners:
            if pt not in point_ids:
                point_ids[pt] = len(point_ids)
        for k in range(6):
            p1, p2 = corners[k], corners[(k + 1) % 6]
            key = (p1, p2) if p1 < p2 else (p2, p1)
            if key not in seen_edges:
                seen_edges.add(key)
                edges.append((point_ids[key[0]], point_ids[key[1]]))
                direction.append(_direction(*key))

    return DirectionLabeledGraph(
        graph=Graph(len(point_ids), edges),
        direction_of=tuple(direction),
        cells=cells,
        kind="benzenoid",
        nonstandard_region=_hole_count(spec.cells, 1) > 0,  # connected, checked above
    )


def build_phenylene(spec: HexSpec) -> DirectionLabeledGraph:
    """Disjoint hexagon per cell, plus a square between adjacent cells.

    Each adjacency contributes two label-4 edges joining the two cells'
    copies of the shared corners; together with the two retained hexagon
    edges they bound the inserted square.
    """
    cells = spec.sorted_cells()
    corner_lists = [_corners(c) for c in cells]

    use_count: dict[Point, int] = {}
    for corners in corner_lists:
        for pt in corners:
            use_count[pt] = use_count.get(pt, 0) + 1
    if any(c >= 3 for c in use_count.values()):
        raise NotCatacondensedError("a lattice corner lies in three cells")

    pairs = HexSpec(frozenset(cells)).adjacent_pairs()
    if len(pairs) != len(cells) - 1 or not spec.is_connected():
        raise CellsNotTreeError("cell adjacency graph is not a tree")

    edges: list[tuple[int, int]] = []
    direction: list[int] = []
    for i, corners in enumerate(corner_lists):
        base = 6 * i
        for k in range(6):
            edges.append((base + k, base + (k + 1) % 6))
            direction.append(_direction(corners[k], corners[(k + 1) % 6]))

    corner_index = [{pt: k for k, pt in enumerate(corners)} for corners in corner_lists]
    for i, j in pairs:
        shared = sorted(set(corner_lists[i]) & set(corner_lists[j]))
        # adjacent hexagons share exactly one lattice edge, i.e. two corners
        if len(shared) != 2:
            raise CellsNotTreeError(
                f"cells {cells[i]} and {cells[j]} share {len(shared)} corners"
            )
        for pt in shared:
            edges.append((6 * i + corner_index[i][pt], 6 * j + corner_index[j][pt]))
            direction.append(4)

    return DirectionLabeledGraph(
        graph=Graph(6 * len(cells), edges),
        direction_of=tuple(direction),
        cells=cells,
        kind="phenylene",
    )


def linear_phenylene(n: int) -> DirectionLabeledGraph:
    """The straight chain of n hexagons with n-1 squares in between."""
    if n < 2:
        raise NTooSmallError("linear phenylene needs n >= 2 hexagons")
    return build_phenylene(HexSpec.linear_chain(n))


def benzenoid_quotient_trees(
    b: DirectionLabeledGraph, starred: bool = False
) -> tuple[QuotientGraph, QuotientGraph, QuotientGraph]:
    """Quotients by the three direction classes, each asserted to be a tree."""
    wa = WeightAssignment.degree_weighted(b.graph, starred)
    out = []
    for label in (1, 2, 3):
        q = quotient_graph(b.graph, wa, b.edges_with_label(label))
        if q.graph.m != q.graph.n - 1:
            raise NotATreeError(f"direction-{label} quotient contains a cycle")
        out.append(q)
    return tuple(out)


def inner_dual(spec: HexSpec) -> Graph:
    """Cell adjacency graph: one vertex per sorted cell, edges by shared edges."""
    return Graph(len(spec.cells), spec.adjacent_pairs())


def ph_closed_formulas(n: int) -> IndexReport:
    """Closed-form index values for the linear phenylene with n hexagons."""
    if n < 2:
        raise NTooSmallError("closed formulas are stated for n >= 2")
    w_sz = 300 * n**3 - 36 * n**2 - 84 * n + 36
    w_pi_v = 264 * n**2 - 120 * n
    numerator = 1348 * n**3 - 1860 * n**2 + 812 * n - 12
    w_sz_e, remainder = divmod(numerator, 3)
    if remainder:
        raise ValueError(f"edge-Szeged numerator not divisible by 3 at n={n}")
    w_pi = 328 * n**2 - 304 * n + 72
    return IndexReport("formula", False, w_sz, w_pi_v, w_sz_e, w_pi)
