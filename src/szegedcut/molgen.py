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
cells parses in O(h), and its components and holes are counted over the
runs of consecutive cells in its rows, in O(h log h).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class HexSpec:
    """A set of hexagon cells in axial coordinates."""

    cells: frozenset[Cell]

    def __post_init__(self):
        if not self.cells:
            raise NTooSmallError("hex spec needs at least one cell")

    @classmethod
    def linear_chain(cls, h: int) -> "HexSpec":
        if h < 1:
            raise NTooSmallError("chain needs at least one cell")
        return cls(frozenset((i, 0) for i in range(h)))

    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))


def _forward_pairs(cells: tuple[Cell, ...]):
    """(i, j, square pairs) for sorted cells i < j sharing a side, in sorted
    order, since cell i's forward sides reach its later neighbours in order."""
    index = {c: i for i, c in enumerate(cells)}
    for i, (q, r) in enumerate(cells):
        for (dq, dr), _, _, square in _FORWARD:
            j = index.get((q + dq, r + dr))
            if j is not None:
                yield i, j, square


def _region(cells) -> tuple[int, int, int]:
    """The components and holes of the region the cells cover, and its T
    corners in three cells, over runs of consecutive cells per row. Cell
    (q, r) is keyed r * w + q - q0, with w - 2 the width of the q range,
    so a run's keys are consecutive, and key k touches k + w - 1 and k + w,
    the cells (q - 1, r + 1) and (q, r + 1). Two runs that touch share a
    zigzag of m cells with m - 2 corners in three of them. Runs and
    zigzags are contractible and no three runs meet, so by the nerve
    theorem the holes are the cycle rank of the graph of touching runs."""
    q0 = min(q for q, _ in cells)
    w = max(q for q, _ in cells) - q0 + 2
    keys = sorted([r * w + q - q0 for q, r in cells])
    starts = [b for a, b in zip([None, *keys], keys) if a != b - 1]
    ends = [a for a, b in zip(keys, [*keys[1:], None]) if b != a + 1]
    uf = _UnionFind(len(starts))
    touching = triples = j = 0
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        while j < len(ends) and ends[j] < lo + w - 1:
            j += 1
        for k in range(j, bisect_right(starts, hi + w)):  # the runs it touches in the next row
            uf.union(i, k)
            lo2, hi2 = starts[k] - w, ends[k] - w  # moved down a row
            touching += 1
            triples += min(hi, hi2 + 1) + min(hi, hi2) - max(lo, lo2) - max(lo - 1, lo2)
    components = len(set(map(uf.find, range(len(starts)))))
    return components, touching - len(starts) + components, triples


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
    # set by the builders alone, on a region without holes: never by the
    # constructor or `replace()`
    _hole_free: bool = field(default=False, init=False, repr=False, compare=False)

    def direction_partition(self) -> EdgePartition:
        """Edge classes by direction label.

        Without holes every Theta*-class of a benzenoid or phenylene stays
        inside one direction class, so a builder's hole-free output flags
        its partition as Theta*-refined on the edges of `graph`. Any other
        partition, of a cell set with holes or of labels no builder wrote,
        is left unflagged, and the cut method validates it first.
        """
        p = EdgePartition.from_labels(self.direction_of)
        return _trust(p, self.graph.edges) if self._hole_free else p


def _point_ids(cells) -> list[int]:
    """The id of corner k of the i-th cell at 6i + k, with the points
    numbered in order of first corner."""
    # point (x, y) is keyed x * span + y, as y takes fewer than span values
    span = 3 * (max(r for _, r in cells) - min(r for _, r in cells)) + 5
    offsets = [ox * span + oy for ox, oy in _CORNER_OFFSETS]
    ids: dict[int, int] = {}
    return [ids.setdefault((2 * q + r) * span + 3 * r + o, len(ids)) for q, r in cells for o in offsets]


def build_benzenoid(spec: HexSpec) -> DirectionLabeledGraph:
    """Graph of all lattice vertices and edges of the chosen cells.

    Corners shared between cells are merged by exact integer coordinates.
    Cell sets enclosing holes are accepted but flagged `nonstandard_region`.
    """
    components, holes, _ = _region(spec.cells)
    if components != 1:
        raise DisconnectedCellsError("cells do not form a connected region")
    cells = spec.sorted_cells()
    corner = _point_ids(cells)
    edges: list[tuple[int, int]] = []
    direction: list[int] = []
    for i, (q, r) in enumerate(cells):
        ids = corner[6 * i : 6 * i + 6]
        for (dq, dr), label, (a, b), square in _SIDES:
            # a side without square pairs sorts its cell across earlier,
            # and that cell, if present, added the side already
            if square or (q + dq, r + dr) not in spec.cells:
                edges.append((ids[a], ids[b]))
                direction.append(label)

    dlg = DirectionLabeledGraph(
        graph=Graph._wrap(max(corner) + 1, tuple(edges)),
        direction_of=tuple(direction),
        cells=cells,
        kind="benzenoid",
        nonstandard_region=holes > 0,
    )
    if not holes:
        object.__setattr__(dlg, "_hole_free", True)
    return dlg


def build_phenylene(spec: HexSpec) -> DirectionLabeledGraph:
    """Disjoint hexagon per cell, plus a square between adjacent cells.

    Each adjacency contributes two label-4 edges joining the two cells'
    copies of the shared corners; together with the two retained hexagon
    edges they bound the inserted square.
    """
    components, holes, triples = _region(spec.cells)
    if triples:
        raise NotCatacondensedError("a lattice corner lies in three cells")
    if holes or components != 1:  # with no three cells at a corner, a hole is a cycle of cells
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

    dlg = DirectionLabeledGraph(
        graph=Graph._wrap(6 * len(cells), tuple(edges)),
        direction_of=tuple(direction),
        cells=cells,
        kind="phenylene",
    )
    object.__setattr__(dlg, "_hole_free", True)
    return dlg


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
    unfolds them into cells, and it rejects g if vertex 0 is on no 6-cycle, a
    side has two 6-cycles across it, or the cells pass n / 2. The cells must
    pass the builders' checks: one region, no hole, and, if the walk crossed
    squares, no corner in three cells, so that they form a tree. Then g is
    rejected if its edge count is not that of the molecule B that
    `build_benzenoid` or `build_phenylene` would build from the cells, by
    Euler's formula 8h - 2 for a phenylene of h cells and p + h - 1 for a
    benzenoid of p points, or unless the walk's vertex map is a bijection from
    B's points onto g's vertices: one vertex per point, no two points alike.
    `_point_ids` numbers a benzenoid's points, and a phenylene's corners are
    its own points. The map rejects a triangle walked twice for a hexagon, and
    two molecules joined by extra edges. Soundness: then each edge of B maps to
    an edge of g, as a side joins consecutive corners of a 6-cycle of g and the
    walk crossed a square of g between any two cells of a phenylene (else two
    cells would share a vertex), so with equal edge counts g is a hole-free
    benzenoid or a phenylene up to isomorphism, hence bipartite, and the walk's
    hexagons and squares are chordless cycles. The labels join the opposite
    sides of each, which are Theta-related, since a chordless 4- or 6-cycle of
    a bipartite graph is isometric (a 6-cycle's antipodes lie at odd distance
    at most 3, and at 1 only across a chord); so they refine Theta*. They are
    whole classes: those of a hole-free benzenoid are its elementary cuts
    (Klavzar, Gutman and Mohar, J. Chem. Inf. Comput. Sci. 35 (1995) 590-593),
    and a phenylene is a tree of C6s and C4s glued along edges, gated in a
    bipartite graph, so its classes join those of the pieces at the shared
    edges. Either is a partial cube: every class is two-sided. A ring round a
    one-cell hole has the graph of the filled region, and the walk takes the
    6-cycle round the hole for its hexagon; a wider hole falls back.
    """
    if max(map(len, g.adj)) > 3:
        return None
    nbrs: list[dict[int, int]] = [{} for _ in range(g.n)]  # neighbour -> edge id, in id order
    for e, (u, v) in enumerate(g.edges):
        nbrs[u][v] = e
        nbrs[v][u] = e
    walk = _faces(nbrs)
    if walk is None:
        return None
    cells, squares = walk
    components, holes, triples = _region(cells)
    if components != 1 or holes or squares and triples:
        return None
    h = len(cells)
    corner = range(6 * h) if squares else _point_ids(cells)
    at = [v for t in cells.values() for v in t]  # the walk's vertex at each corner
    vmap = dict(zip(corner, at))
    if (g.m != (8 * h - 2 if squares else len(vmap) + h - 1) or len(vmap) != g.n
            or len(set(vmap.values())) != g.n or any(vmap[p] != v for p, v in zip(corner, at))):
        return None
    uf = _UnionFind(g.m)
    for t in cells.values():
        for k in range(3):
            uf.union(nbrs[t[k]][t[k + 1]], nbrs[t[k + 3]][t[k - 2]])
    for a, b, q, p in squares:
        uf.union(nbrs[a][b], nbrs[p][q])
        uf.union(nbrs[b][q], nbrs[a][p])
    return list(map(uf.find, range(g.m)))


def _hexagons(nbrs: list[dict[int, int]], p: int, q: int, xs, ys) -> list[tuple[int, ...]]:
    """The 6-cycles p q y w z x over the edge pq with no chord between
    antipodes, (p, w), (q, z) and (y, x), for x in xs next to p and y in ys
    next to q: z next to x and w next to y close the cycle. Each comes as
    (z, w, y, q, p, x), the order of corners 0..5 of a cell entered across
    its side 3, with p at corner 4 and q at corner 3. On a graph with odd
    cycles corners may repeat; the vertex map rejects such a cell."""
    return [(z, w, y, q, p, x) for x in xs for y in ys if y not in nbrs[x]
            for z in nbrs[x] if z != p and z not in nbrs[q]
            for w in nbrs[y] if w != q and w in nbrs[z] and w not in nbrs[p]]


def _faces(nbrs: list[dict[int, int]]):
    """The cells that one walk over the faces of a graph of degree at most
    3 unfolds, each with its vertices at corners 0..5, and the squares
    (a, b, q, p) it crosses; None if a side has two 6-cycles across it or
    the cells pass n / 2, which no benzenoid (n > 2h) or phenylene (n = 6h)
    does: a strip that winds round, as in a prism, would unfold for ever.
    On a graph with odd cycles a cell's corners may repeat; the vertex map
    of `_lattice_labels` rejects it.

    A 6-cycle through vertex 0 is cell (0, 0). The corners a = k and b =
    k + 1 of side k of a cell each have at most one neighbour p, q outside
    it, none if either has degree 2. If p and q are adjacent, a b q p is a
    square and the 6-cycle over pq is the cell across; otherwise the one
    over ab is, with p = a and q = b. The cell across sits at the offset of
    side k, with p at corner k + 4 and q at corner k + 3, as in the
    builders. Each side is searched once, from the first of its two cells
    placed; no check compares the placed cell across with a second search,
    as the vertex map proves it: two cells of a benzenoid share
    the side's two points, and one cell of a phenylene was placed from the
    other across this very square.
    """
    n = len(nbrs)
    span = 2 * n + 1  # cell (q, r) is keyed q * span + r, and |r| <= n / 2 + 1
    steps = [dq * span + dr for (dq, dr), _, _, _ in _SIDES]
    # x = q or y = 0 would make x and y adjacent, which `_hexagons` skips
    at_0 = [c for q in nbrs[0] for c in _hexagons(nbrs, 0, q, nbrs[0], nbrs[q])]
    if not at_0:
        return None
    cells = {0: at_0[0]}
    squares: list[tuple[int, int, int, int]] = []
    queue = [0]
    for cell in queue:  # the list grows while it is read: a BFS queue
        t = cells[cell]
        for k, step in enumerate(steps):
            nxt = cell + step
            if nxt in cells:  # searched from there: the vertex map checks the side
                continue
            a, b = t[k], t[k - 5]
            if len(nbrs[a]) < 3 or len(nbrs[b]) < 3:  # a boundary side
                continue
            xs = [x for x in nbrs[a] if x != b and x != t[k - 1]]
            ys = [y for y in nbrs[b] if y != a and y != t[k - 4]]
            if ys[0] in nbrs[xs[0]]:
                p, q = xs[0], ys[0]
                squares.append((a, b, q, p))
                xs = [x for x in nbrs[p] if x != a and x != q]
                ys = [y for y in nbrs[q] if y != b and y != p]
            else:
                p, q = a, b
            found = _hexagons(nbrs, p, q, xs, ys)
            if len(found) > 1 or found and 2 * len(cells) >= n:  # too many cells
                return None
            if found:
                cells[nxt] = found[0][6 - k :] + found[0][: 6 - k]  # p at corner k + 4
                queue.append(nxt)
    return {(q, r - n): t for key, t in cells.items() for q, r in [divmod(key + n, span)]}, squares


def ph_closed_formulas(n: int) -> IndexReport:
    """Closed-form index values for the linear phenylene with n hexagons."""
    if n < 2:
        raise NTooSmallError("closed formulas are stated for n >= 2")
    w_sz = 300 * n**3 - 36 * n**2 - 84 * n + 36
    w_pi_v = 264 * n**2 - 120 * n
    numerator = 1348 * n**3 - 1860 * n**2 + 812 * n - 12
    # exact: mod 3 the numerator is n^3 - n = (n - 1) n (n + 1), three consecutive ints
    w_sz_e = numerator // 3
    w_pi = 328 * n**2 - 304 * n + 72
    return IndexReport("formula", False, w_sz, w_pi_v, w_sz_e, w_pi)
