"""Shared builders: small named graphs, seeded random corpora, and the
20-vertex fullerene patch used across the acceptance suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from szegedcut import EdgePartition, Graph, HexSpec, WeightAssignment, build_graph, quotient_graph
from szegedcut import theta
from szegedcut.molgen import _forward_pairs


def cycle_graph(k: int) -> Graph:
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def random_connected_graph(
    rng: random.Random, min_n: int = 2, max_n: int = 12, extra: float = 0.25
) -> Graph:
    """Random spanning tree plus extra edges; always connected."""
    n = rng.randint(min_n, max_n)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    existing = {(min(u, v), max(u, v)) for u, v in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in existing and rng.random() < extra:
                edges.append((u, v))
                existing.add((u, v))
    return build_graph(n, edges)


def random_tree(rng: random.Random, min_n: int = 2, max_n: int = 12) -> Graph:
    n = rng.randint(min_n, max_n)
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_bipartite_connected(
    rng: random.Random, max_side: int = 6, extra: float = 0.3
) -> Graph:
    """Connected bipartite graph: sides 0..a-1 and a..a+b-1."""
    a = rng.randint(1, max_side)
    b = rng.randint(1, max_side)
    n = a + b
    edges = []
    touched_left = [0]
    touched_right: list[int] = []
    for v in range(a, n):  # attach every right vertex to a seen left vertex
        edges.append((rng.choice(touched_left), v))
        touched_right.append(v)
    for v in range(1, a):
        edges.append((v, rng.choice(touched_right)))
        touched_left.append(v)
    existing = {(min(u, v), max(u, v)) for u, v in edges}
    for u in range(a):
        for v in range(a, n):
            if (u, v) not in existing and rng.random() < extra:
                edges.append((u, v))
                existing.add((u, v))
    return build_graph(n, edges)


def cube_subgraph(rng: random.Random, d: int, downset: bool) -> Graph:
    """A connected induced subgraph of the d-cube Q_d, with shuffled vertex
    ids, edge ids and edge orientations.

    With `downset`, the vertices are every subset of a few drawn vertices,
    moved by a random XOR: a geodesic between two of them runs down to
    their meet and back up, so the subgraph is isometric, a partial cube.
    Otherwise the vertex set grows by random one-bit flips and may not be
    a partial cube.
    """
    if downset:
        tops = [rng.randrange(1 << d) for _ in range(rng.randint(1, 4))]
        flip = rng.randrange(1 << d)
        verts = [x ^ flip for x in range(1 << d) if any(x & t == x for t in tops)]
    else:
        verts = [rng.randrange(1 << d)]
        size = rng.randint(1, 1 << d)
        while len(verts) < size:
            v = rng.choice(verts) ^ (1 << rng.randrange(d))
            if v not in verts:
                verts.append(v)
    rng.shuffle(verts)
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[v], index[v ^ (1 << b)])
        for v in verts
        for b in range(d)
        if v & (1 << b) and v ^ (1 << b) in index
    ]
    rng.shuffle(edges)
    return build_graph(len(verts), [e if rng.random() < 0.5 else e[::-1] for e in edges])


WEIGHTS = st.one_of(
    st.integers(0, 4), st.fractions(min_value=0, max_value=4, max_denominator=6)
)


def _draw_weights(draw, g: Graph, weights) -> WeightAssignment:
    return WeightAssignment(
        tuple(draw(weights) for _ in range(g.n)),
        tuple(draw(weights) for _ in range(g.m)),
        tuple(draw(weights) for _ in range(g.m)),
    )


@st.composite
def cyclic_weighted_graphs(draw, bipartite, weights=WEIGHTS):
    """A connected graph with at least one cycle, and exact weights on it.

    A random spanning tree 2-colours the vertices; extra edges join
    opposite colours for a bipartite graph, and the first one joins equal
    colours (closing an odd cycle) otherwise.
    """
    n = draw(st.integers(3, 9))
    colour = [0] * n
    edges = set()
    for v in range(1, n):
        p = draw(st.integers(0, v - 1))
        colour[v] = 1 - colour[p]
        edges.add((p, v))
    pairs = [
        (a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges
    ]
    cross = [(a, b) for a, b in pairs if colour[a] != colour[b]]
    if bipartite:
        assume(cross)
        extra = draw(st.lists(st.sampled_from(cross), min_size=1, unique=True))
    else:
        same = [(a, b) for a, b in pairs if colour[a] == colour[b]]
        assume(same)
        extra = [draw(st.sampled_from(same))]
        extra += draw(st.lists(st.sampled_from(pairs), unique=True))
    g = build_graph(n, sorted(edges | set(extra)))
    return g, _draw_weights(draw, g, weights)


@st.composite
def pendant_weighted_graphs(draw, weights=WEIGHTS):
    """A graph of `cyclic_weighted_graphs` (either kind) with pendant trees
    hung on it, so it has bridges, and with shuffled vertex ids, edge ids
    and orientations, so the BFS root may sit anywhere."""
    g, _ = draw(cyclic_weighted_graphs(draw(st.booleans()), weights))
    n = g.n + draw(st.integers(0, 6))
    edges = list(g.edges)
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(g.n, n)]
    return _shuffled(draw, n, edges, weights)


@st.composite
def bridged_weighted_graphs(draw, weights=WEIGHTS):
    """Two graphs of `cyclic_weighted_graphs` (either kind) joined by a
    path of one to three bridges, so a bridge may have cycles on both of
    its sides, with shuffled ids and orientations as in
    `pendant_weighted_graphs`."""
    a, _ = draw(cyclic_weighted_graphs(draw(st.booleans()), weights))
    b, _ = draw(cyclic_weighted_graphs(draw(st.booleans()), weights))
    inner = draw(st.integers(0, 2))  # the vertices inside the path
    shift = a.n + inner
    path = [draw(st.integers(0, a.n - 1)), *range(a.n, shift), shift + draw(st.integers(0, b.n - 1))]
    edges = [*a.edges, *((shift + u, shift + v) for u, v in b.edges), *zip(path, path[1:])]
    return _shuffled(draw, shift + b.n, edges, weights)


def _shuffled(draw, n: int, edges, weights):
    # the graph on its edges with drawn vertex ids, edge order and
    # orientations, and exact weights on it
    ids = draw(st.permutations(range(n)))
    edges = [(ids[u], ids[v]) for u, v in draw(st.permutations(edges))]
    g = build_graph(n, [e[::-1] if draw(st.booleans()) else e for e in edges])
    return g, _draw_weights(draw, g, weights)


def quotient_edge_members(g: Graph, q, f) -> dict[tuple[int, int], list[int]]:
    """Per pair of components of q joined by an edge of f, those edges in
    increasing id order, read from `q.component_map`."""
    cm = q.component_map
    out: dict[tuple[int, int], list[int]] = {}
    for e in sorted(f):
        a, b = sorted(cm[x] for x in g.edges[e])
        if a != b:
            out.setdefault((a, b), []).append(e)
    return out


def pass_facts(g: Graph) -> tuple:
    """The Theta* pass over the whole of g, `theta._theta_star_pass`, as
    (classes, class_of, two_sided) in the canonical class order: the pass
    gives one label per edge and a flag at each label."""
    labels, sided = theta._theta_star_pass(g)
    p = EdgePartition.from_labels(labels)
    return p.classes, p.class_of, tuple(sided[labels[min(c)]] for c in p.classes)


def row_convex_cells(rng: random.Random, h: int, width: int) -> frozenset:
    # rows of consecutive cells, each starting within one cell of the row
    # below, so the region is connected and has no holes
    cells, start, r = set(), 0, 0
    while len(cells) < h:
        w = min(h - len(cells), width + rng.randint(-width // 4, width // 4))
        cells.update((q, r) for q in range(start, start + w))
        start += rng.randint(-1, 1 if w > 1 else 0)
        r += 1
    return frozenset(cells)


def kinked_chain_cells(rng: random.Random, h: int) -> frozenset:
    # each cell one step right or up-right of the last, 60 degrees apart, so
    # cells i and j lie |i - j| apart and only consecutive cells touch
    step, cells = (1, 0), [(0, 0)]
    for _ in range(h - 1):
        if rng.random() < 0.25:
            step = step[::-1]
        cells.append((cells[-1][0] + step[0], cells[-1][1] + step[1]))
    return frozenset(cells)


def label_edges(dlg, label: int) -> list[int]:
    """The edge ids of a generated molecule that carry one direction label."""
    return [e for e, lab in enumerate(dlg.direction_of) if lab == label]


def direction_quotients(dlg, starred: bool = False) -> list:
    """The degree-weighted quotients of a molecule by its direction classes
    1, 2 and 3, which are trees when the region has no holes."""
    wa = WeightAssignment.degree_weighted(dlg.graph, starred)
    return [quotient_graph(dlg.graph, wa, label_edges(dlg, label)) for label in (1, 2, 3)]


def assert_square_quotient_is_the_cell_tree(ph) -> None:
    """A phenylene's quotient by its square edges (label 4) has one
    component per hexagon, and cell i -> its component maps the sorted
    cells' adjacency (`molgen._forward_pairs`) onto the quotient's edges."""
    wa = WeightAssignment.degree_weighted(ph.graph)
    q = quotient_graph(ph.graph, wa, label_edges(ph, 4))
    k = len(ph.cells)
    assert q.graph.n == k and q.graph.m == k - 1
    mapping = [q.component_map[6 * i] for i in range(k)]
    assert sorted(mapping) == list(range(k))
    for i in range(k):
        hexagon = tuple(v for v, c in enumerate(q.component_map) if c == mapping[i])
        assert hexagon == tuple(range(6 * i, 6 * i + 6))
    adjacent = {tuple(sorted((mapping[i], mapping[j]))) for i, j, _ in _forward_pairs(ph.cells)}
    assert adjacent == {tuple(sorted(e)) for e in q.graph.edges}


def random_weight_assignment(
    rng: random.Random, g: Graph, lo: int = 0, hi: int = 5
) -> WeightAssignment:
    return WeightAssignment(
        tuple(rng.randint(lo, hi) for _ in range(g.n)),
        tuple(rng.randint(lo, hi) for _ in range(g.m)),
        tuple(rng.randint(lo, hi) for _ in range(g.m)),
    )


# ---------------------------------------------------------------------------
# fullerene patch: a pentagon surrounded by five hexagons (a patch of
# buckminsterfullerene). 20 vertices, 25 edges, not a partial cube.
#
# ids: pentagon 0..4, spoke tips 5..9, rim pairs (s_i, t_i) = (10+2i, 11+2i);
# rim cycle is r_0 s_0 t_0 r_1 s_1 t_1 ... r_4 s_4 t_4.
# ---------------------------------------------------------------------------

def fullerene_patch() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]          # central pentagon
    edges += [(i, 5 + i) for i in range(5)]               # spokes
    for i in range(5):
        r, s, t, rn = 5 + i, 10 + 2 * i, 11 + 2 * i, 5 + (i + 1) % 5
        edges += [(r, s), (s, t), (t, rn)]                # outer rim
    return build_graph(20, edges)


# the big Theta*-class: the pentagon plus the five outermost rim edges
FULLERENE_BIG_CLASS = frozenset({0, 1, 2, 3, 4, 11, 14, 17, 20, 23})
FULLERENE_TOTALS = (9200, 2400, 10760, 2760)


@pytest.fixture
def patch() -> Graph:
    return fullerene_patch()


# ---------------------------------------------------------------------------
# molecule corpora shared by the molgen tests and the acceptance suite
# ---------------------------------------------------------------------------

RING_CELLS = frozenset([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])
# eight cells around the two-cell hole {(0,0), (1,0)}: the hole interrupts
# cut lines, so two direction quotients gain cycles
WIDE_RING_CELLS = frozenset(
    [(-1, 0), (2, 0), (0, -1), (1, -1), (2, -1), (-1, 1), (0, 1), (1, 1)]
)
CORONENE = HexSpec(RING_CELLS | {(0, 0)})
TRIANGLE_CLUSTER = HexSpec(frozenset([(0, 0), (1, 0), (0, 1)]))
ZIGZAG4 = HexSpec(frozenset([(0, 0), (1, 0), (1, 1), (2, 1)]))
Y_BRANCH = HexSpec(frozenset([(0, 0), (1, 0), (-1, 1), (0, -1)]))

BENZENOID_SPECS = [
    HexSpec.linear_chain(1),
    HexSpec.linear_chain(2),
    HexSpec.linear_chain(4),
    TRIANGLE_CLUSTER,
    ZIGZAG4,
    CORONENE,
]
PHENYLENE_SPECS = [
    HexSpec.linear_chain(1),
    HexSpec.linear_chain(2),
    HexSpec.linear_chain(5),
    ZIGZAG4,
    Y_BRANCH,
]
