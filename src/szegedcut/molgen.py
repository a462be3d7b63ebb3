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
    NotCatacondensedError,
    NTooSmallError,
    ParseError,
)
from .graph import Graph, _int_pairs
from .indices import IndexReport
from .theta import EdgePartition, _UnionFind, _trust

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
        Theta*-refined on the edges of `graph`. A `nonstandard_region` (a
        cell set with holes) can split a Theta*-class across labels, so its
        partition is left unflagged and the cut method validates it first.
        """
        p = EdgePartition.from_labels(self.direction_of)
        return p if self.nonstandard_region else _trust(p, self.graph.edges)


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


def _lattice_labels(g: Graph) -> list[int] | None:
    """One label per edge, equal exactly on each Theta*-class, if g is a
    hole-free benzenoid or a phenylene in any vertex and edge order; None
    for any other graph. Time O(m).

    A degree above 3 rejects g at once. One walk over g's faces (`_faces`)
    unfolds them into cells and g is rebuilt from them; every other reject,
    an odd cycle among them, comes from the walk or the rebuild. Soundness:
    g is accepted only if the walk's vertex map sends the rebuilt edges one
    to one onto g's and the region is no `nonstandard_region`, so g is a
    hole-free benzenoid or a phenylene up to isomorphism, hence bipartite,
    and the walk's hexagons and squares are chordless cycles. The labels
    join the opposite sides of each, which are Theta-related, since a
    chordless 4- or 6-cycle of a bipartite graph is isometric (a 6-cycle's
    antipodes lie at odd distance at most 3, and at 1 only across a chord);
    so they refine Theta*. They are whole classes: those of a hole-free
    benzenoid are its elementary cuts (Klavzar, Gutman and Mohar, J. Chem.
    Inf. Comput. Sci. 35 (1995) 590-593), and a phenylene is a tree of C6s
    and C4s glued along edges, gated in a bipartite graph, so its classes
    join those of the pieces at the shared edges. Either is a partial cube:
    every class is two-sided. A ring round a one-cell hole has the graph of the filled
    region, and the walk takes the 6-cycle round the hole for its hexagon;
    a wider hole falls back.
    """
    if max(map(len, g.adj)) > 3:
        return None
    walk = _faces([[y for y, _ in a] for a in g.adj])
    if walk is None:
        return None
    cells, squares = walk
    spec = HexSpec(frozenset(cells))
    try:
        mol = build_phenylene(spec) if squares else build_benzenoid(spec)
    except (CellsNotTreeError, NotCatacondensedError):  # not a phenylene's cells
        return None
    if squares:  # build_phenylene numbers corner k of sorted cell i as 6i + k
        vmap = [v for cell in mol.cells for v in cells[cell]]
    else:  # build_benzenoid numbers the points in order of first corner
        at: dict[Point, int] = {}
        for cell in mol.cells:
            for point, v in zip(_corners(cell), cells[cell]):
                if at.setdefault(point, v) != v:
                    return None
        vmap = list(at.values())
    ids = {(u, v): e for e, (u, v) in enumerate(g.edges)}
    ids.update({(v, u): e for (u, v), e in ids.items()})
    if (mol.nonstandard_region or len(vmap) != g.n or len(set(vmap)) != g.n or mol.graph.m != g.m
            or not all((vmap[a], vmap[b]) in ids for a, b in mol.graph.edges)):
        return None
    uf = _UnionFind(g.m)
    for t in cells.values():
        for k in range(3):
            uf.union(ids[t[k], t[k + 1]], ids[t[k + 3], t[k - 2]])
    for a, b, q, p in squares:
        uf.union(ids[a, b], ids[p, q])
        uf.union(ids[b, q], ids[a, p])
    return list(map(uf.find, range(g.m)))


def _hexagons(nbrs: list[list[int]], p: int, q: int, xs, ys) -> list[tuple[int, ...]]:
    """The 6-cycles p q y w z x over the edge pq with no chord between
    antipodes, (p, w), (q, z) and (y, x), for x in xs next to p and y in ys
    next to q: z next to x and w next to y close the cycle. Each comes as
    (z, w, y, q, p, x), the order of corners 0..5 of a cell entered across
    its side 3, with p at corner 4 and q at corner 3. On a graph with odd
    cycles corners may repeat; the rebuild rejects such a cell."""
    return [(z, w, y, q, p, x) for x in xs for y in ys if y not in nbrs[x]
            for z in nbrs[x] if z != p and z not in nbrs[q]
            for w in nbrs[y] if w != q and w in nbrs[z] and w not in nbrs[p]]


def _faces(nbrs: list[list[int]]):
    """The cells that one walk over the faces of a graph of degree at most
    3 unfolds, each with its vertices at corners 0..5, and the squares
    (a, b, q, p) it crosses; None if a side has two 6-cycles across it, a
    cell comes twice with other vertices, or the cells pass n / 2, which no
    benzenoid (n > 2h) or phenylene (n = 6h) does: a strip that winds
    round, as in a prism, would unfold for ever. On a graph with odd cycles
    a cell's corners may repeat; the rebuild rejects it.

    A 6-cycle through vertex 0 is cell (0, 0). The corners a = k and b =
    k + 1 of side k of a cell each have at most one neighbour p, q outside
    it. If p and q are adjacent, a b q p is a square and the 6-cycle over
    pq is the cell across; otherwise the one over ab is, with p = a and
    q = b. The cell across sits at the offset of side k, with p at corner
    k + 4 and q at corner k + 3, as in the builders.
    """
    # x = q or y = 0 would make x and y adjacent, which `_hexagons` skips
    at_0 = [c for q in nbrs[0] for c in _hexagons(nbrs, 0, q, nbrs[0], nbrs[q])]
    if not at_0:
        return None
    cells = {(0, 0): at_0[0]}
    squares: list[tuple[int, int, int, int]] = []
    queue = [(0, 0)]
    for cell in queue:  # the list grows while it is read: a BFS queue
        t = cells[cell]
        for k, ((dq, dr), _, _, _) in enumerate(_SIDES):
            a, b = t[k], t[k - 5]
            xs = [x for x in nbrs[a] if x != b and x != t[k - 1]]
            ys = [y for y in nbrs[b] if y != a and y != t[k - 4]]
            if xs and ys and ys[0] in nbrs[xs[0]]:
                p, q = xs[0], ys[0]
                squares.append((a, b, q, p))
                xs = [x for x in nbrs[p] if x != a and x != q]
                ys = [y for y in nbrs[q] if y != b and y != p]
            else:
                p, q = a, b
            found = _hexagons(nbrs, p, q, xs, ys)
            if len(found) > 1:
                return None
            if found:
                across = found[0][6 - k :] + found[0][: 6 - k]  # p at corner k + 4
                nxt = (cell[0] + dq, cell[1] + dr)
                if nxt not in cells and 2 * len(cells) < len(nbrs):
                    cells[nxt] = across
                    queue.append(nxt)
                elif cells.get(nxt) != across:  # a clash, or too many cells
                    return None
    return cells, squares


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
