"""Generators for benzenoid systems and phenylenes on the hexagonal lattice.

Cells are axial coordinates (q, r) of pointy-top hexagons. Corners live
on a scaled integer grid (no floating point): the cell center is
(2q + r, 3r) and the six corners are fixed offsets from it, so shared
corners between neighbouring cells match exactly. Sides, neighbours,
direction labels and phenylene squares are read from one per-side table.

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

# corners of a pointy-top hexagon, counterclockwise from the east corner
_CORNER_OFFSETS: tuple[Point, ...] = ((1, 1), (0, 2), (-1, 1), (-1, -1), (0, -2), (1, -1))
# Side k of a cell joins corners k and k + 1. Per side: the axial offset of
# the cell across it, the side's direction label, its two corners in
# coordinate order, and the pairs (corner here, corner across) that a
# phenylene square joins, in coordinate order; the pairs are left empty
# where the cell across sorts earlier and so owns the side.
_SIDES = (
    ((0, 1), 3, (1, 0), ((1, 3), (0, 4))),
    ((-1, 1), 2, (2, 1), ()),
    ((-1, 0), 1, (3, 2), ()),
    ((0, -1), 3, (3, 4), ()),
    ((1, -1), 2, (4, 5), ((4, 2), (5, 1))),
    ((1, 0), 1, (5, 0), ((5, 3), (0, 2))),
)
# the sides whose cell across sorts later, in the order those cells sort
_FORWARD = tuple(_SIDES[k] for k in (0, 4, 5))


def _corners(cell: Cell) -> list[Point]:
    q, r = cell
    cx, cy = 2 * q + r, 3 * r
    return [(cx + ox, cy + oy) for ox, oy in _CORNER_OFFSETS]


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
        """Index pairs (i, j), i < j, of cells sharing an edge, sorted."""
        return tuple((i, j) for i, j, _ in _forward_pairs(self.sorted_cells()))

    def is_connected(self) -> bool:
        return _component_count(self.cells) == 1

    def has_holes(self) -> bool:
        """True if the complement of the cell set has a bounded component."""
        return _hole_count(self.cells, _component_count(self.cells)) > 0


def _forward_pairs(cells: tuple[Cell, ...]):
    """(i, j, square pairs) for sorted cells i < j sharing a side, in sorted
    order, since cell i's forward sides reach its later neighbours in order."""
    index = {c: i for i, c in enumerate(cells)}
    for i, (q, r) in enumerate(cells):
        for (dq, dr), _, _, square in _FORWARD:
            j = index.get((q + dq, r + dr))
            if j is not None:
                yield i, j, square


def _component_count(cells: frozenset[Cell]) -> int:
    """Components of the cells across shared sides, grown a ring at a time."""
    left = set(cells)
    count = 0
    while left:
        count += 1
        ring = {left.pop()}
        while ring:
            ring = {(q + dq, r + dr) for q, r in ring for (dq, dr), _, _, _ in _SIDES} & left
            left -= ring
    return count


def _pairs_and_triples(cells: frozenset[Cell]) -> tuple[int, int]:
    """P, the pairs of cells that share a side, and T, the corners that three
    cells share, each counted once from the forward sides of one cell."""
    (uq, ur), (dq, dr), (eq, er) = (side[0] for side in _FORWARD)
    pairs = triples = 0
    for q, r in cells:
        east = (q + eq, r + er) in cells
        others = ((q + uq, r + ur) in cells) + ((q + dq, r + dr) in cells)
        pairs += east + others
        triples += east * others  # the cell's two corners on its east side
    return pairs, triples


def _hole_count(cells: frozenset[Cell], components: int) -> int:
    """Holes of the region the h closed cells cover, in O(h) by Euler's
    formula: cells meet two at a shared side (P pairs), three at a shared
    corner (T triples) and never four, so by the nerve theorem the region's
    Euler characteristic h - P + T equals components - holes."""
    pairs, triples = _pairs_and_triples(cells)
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
    edges: list[tuple[int, int]] = []
    direction: list[int] = []

    for cell in cells:
        ids = [point_ids.setdefault(pt, len(point_ids)) for pt in _corners(cell)]
        q, r = cell
        for (dq, dr), label, (a, b), square in _SIDES:
            # a side without square pairs sorts its cell across earlier,
            # and that cell, if present, added the side already
            if square or (q + dq, r + dr) not in spec.cells:
                edges.append((ids[a], ids[b]))
                direction.append(label)

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
    pairs, triples = _pairs_and_triples(spec.cells)
    if triples:
        raise NotCatacondensedError("a lattice corner lies in three cells")
    if pairs != len(spec.cells) - 1 or not spec.is_connected():
        raise CellsNotTreeError("cell adjacency graph is not a tree")

    cells = spec.sorted_cells()
    edges = [
        (base + k, base + (k + 1) % 6)
        for base in range(0, 6 * len(cells), 6)
        for k in range(6)
    ]
    direction = [label for _, label, _, _ in _SIDES] * len(cells)
    for i, j, square in _forward_pairs(cells):
        for a, b in square:
            edges.append((6 * i + a, 6 * j + b))
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
