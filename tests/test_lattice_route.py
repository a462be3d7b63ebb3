"""The lattice route of `theta_star_partition` against the Theta* pass.

A benzenoid without holes or a phenylene, read as an edge list, gets its
Theta*-classes from `molgen._lattice_labels`; every other graph gets the
Theta* pass, `theta._theta_star_pass`. Both must give the same partition
(`classes`, `class_of`, `two_sided`) on every free polyhex of up to 8
cells, on every catacondensed one built as a phenylene, and on graphs
built to fool the recognizer, odd graphs of degree at most 3 among them.
The checks beyond that one take the polyhexes of up to 7 cells.
Molecules of a thousand cells take the route with the pass refused.
The same corpus certifies the generators' direction labels, which
`direction_partition` trusts on hole-free regions.
"""

import random
from unittest import mock

import pytest

from szegedcut import (
    CellsNotTreeError,
    HexSpec,
    InvalidCPartitionError,
    NotCatacondensedError,
    bfs_distances,
    build_benzenoid,
    build_graph,
    build_phenylene,
    format_edge_list,
    is_bipartite,
    linear_phenylene,
    oracle_suite,
    oracle_theta_star_partition,
    parse_edge_list,
    theta_star_partition,
    weighted_suite_cut,
)
from szegedcut import molgen, theta
from szegedcut.molgen import _forward_pairs, _lattice_labels, _region

from conftest import RING_CELLS, WIDE_RING_CELLS, kinked_chain_cells, pass_facts, row_convex_cells

_AXIAL = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def _canonical(cells) -> tuple:
    """The least sorted, translated copy of the cells under the 12
    symmetries of the lattice: six rotations, (q, r) -> (-r, q + r), of
    the cells and of their mirror image, (q, r) -> (r, q)."""
    forms = []
    for shape in (list(cells), [(r, q) for q, r in cells]):
        for _ in range(6):
            shape = [(-r, q + r) for q, r in shape]
            q0 = min(q for q, _ in shape)
            r0 = min(r for _, r in shape)
            forms.append(tuple(sorted((q - q0, r - r0) for q, r in shape)))
    return min(forms)


def free_polyhexes(max_h: int) -> list[set]:
    """The free polyhexes of 1..max_h cells by size, each as its canonical
    form, grown one cell at a time."""
    levels = [{((0, 0),)}]
    while len(levels) < max_h:
        grown = set()
        for form in levels[-1]:
            for q, r in form:
                for dq, dr in _AXIAL:
                    if (q + dq, r + dr) not in form:
                        grown.add(_canonical({*form, (q + dq, r + dr)}))
        levels.append(grown)
    return levels


_LEVELS = free_polyhexes(8)
POLYHEXES = _LEVELS[:7]


def test_polyhex_counts_are_pinned():
    # OEIS A000228, so the corpus below cannot shrink silently
    assert [len(level) for level in _LEVELS] == [1, 1, 3, 7, 22, 82, 333, 1448]


def _relabelled(g, rng: random.Random):
    # the same graph with its vertex ids permuted, its edges shuffled and
    # some of them reversed
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in g.edges]
    rng.shuffle(edges)
    return build_graph(g.n, edges)


def _facts(p):
    return p.classes, p.class_of, p.two_sided


def _assert_like_the_pass(g):
    assert _facts(theta_star_partition(g)) == pass_facts(g)


def _molecules(levels=POLYHEXES):
    for level in levels:
        for form in level:
            spec = HexSpec(frozenset(form))
            yield build_benzenoid(spec)
            try:
                yield build_phenylene(spec)
            except (CellsNotTreeError, NotCatacondensedError):
                pass


def test_every_small_polyhex_is_recognized_and_matches_the_pass():
    # the holed polyhexes up to 7 cells are the ring around one cell and
    # the ring plus one cell; their graph is that of the filled region,
    # so they are recognized as well
    rng = random.Random(21)
    kinds = {"benzenoid": 0, "phenylene": 0}
    for mol in _molecules():
        kinds[mol.kind] += 1
        text = parse_edge_list(format_edge_list(mol.graph))
        for g in (text, _relabelled(text, rng)):
            assert _lattice_labels(g) is not None, mol.cells
            _assert_like_the_pass(g)
    assert kinds["benzenoid"] == 449
    assert kinds["phenylene"] > 0


def test_every_polyhex_of_eight_cells_matches_the_pass():
    # one text copy of each; of the holed ones, only the ring around a
    # two-cell hole is not the graph of its filled region, and it is the
    # one that the recognizer hands to the pass
    kinds = {"benzenoid": 0, "phenylene": 0}
    rejected = []
    for mol in _molecules(_LEVELS[7:]):
        kinds[mol.kind] += 1
        g = parse_edge_list(format_edge_list(mol.graph))
        if _lattice_labels(g) is None:
            rejected.append(_canonical(mol.cells))
        _assert_like_the_pass(g)
    assert kinds == {"benzenoid": 1448, "phenylene": 411}
    assert rejected == [_canonical(WIDE_RING_CELLS)]


def test_a_ring_around_one_cell_has_the_classes_of_coronene():
    ring = build_benzenoid(HexSpec(RING_CELLS))
    assert ring.nonstandard_region
    assert (ring.graph.n, ring.graph.m) == (24, 30)
    star = theta_star_partition(ring.graph)
    assert len(star) == 9 and all(star.two_sided)
    _assert_like_the_pass(ring.graph)


def _with_far_chord(g, parity=1):
    # g plus an edge between two vertices of degree 2 at the largest
    # distance of this parity, of degree at most 3 and with no new 4- or
    # 6-cycle: at an odd distance still bipartite but no longer a
    # molecule, at an even one closing an odd cycle
    degree = g.degrees()
    ends = [v for v in range(g.n) if degree[v] == 2]
    _, u, v = max(
        (d[v], u, v)
        for u in ends
        for d in [bfs_distances(g, u)]
        for v in ends
        if d[v] % 2 == parity
    )
    assert bfs_distances(g, u)[v] >= 6
    return build_graph(g.n, g.edges + ((u, v),))


def _with_pendant(g):
    v = g.degrees().index(2)
    return build_graph(g.n + 1, g.edges + ((v, g.n),))


def _heawood():
    # bipartite, cubic, girth 6 (LCF notation [5, -5]^7)
    rim = [(i, (i + 1) % 14) for i in range(14)]
    return build_graph(14, rim + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def _q3():
    return build_graph(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3) if v >> b & 1])


def _hexagons_and_squares(cells, drop=0):
    # a hexagon per cell, and a square between adjacent cells as
    # `build_phenylene` joins them, save for the last `drop` pairs
    cells = tuple(sorted(cells))
    pairs = list(_forward_pairs(cells))
    edges = [(6 * i + k, 6 * i + (k + 1) % 6) for i in range(len(cells)) for k in range(6)]
    edges += [(6 * i + a, 6 * j + b) for i, j, square in pairs[: len(pairs) - drop] for a, b in square]
    return build_graph(6 * len(cells), edges)


def _phenylene_ring():
    # six hexagons round a missing one, each joined to the next by a
    # square: its cells form a cycle
    return _hexagons_and_squares(RING_CELLS)


def _prism(k):
    # the cycle Ck times K2: two k-cycles joined by k spokes
    return build_graph(
        2 * k,
        [(i, (i + 1) % k) for i in range(k)]
        + [(k + i, k + (i + 1) % k) for i in range(k)]
        + [(i, k + i) for i in range(k)],
    )


def _petersen():
    # outer 5-cycle, inner pentagram, five spokes
    return build_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )


def _moebius_ladder_8():
    # C8 plus its four diameters, each closing a 5-cycle
    return build_graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


_TWO_CELL_HOLE = frozenset((q, r) for q in range(4) for r in range(4)) - {(1, 1), (2, 1)}


def _triangle_with_a_tail():
    # six vertices and six edges, as benzene: the walk takes the triangle,
    # gone round twice, for a hexagon, and only the vertex map tells the
    # two apart
    return build_graph(6, [(1, 0), (2, 1), (3, 4), (4, 5), (5, 0), (0, 2)])


def _benzene_and_naphthalene_joined():
    # bipartite, with 16 vertices and 20 edges: its 6-cycles unfold onto
    # four cells whose region has 20 edges but 17 points, so again only
    # the vertex map rejects it
    benzene = build_benzenoid(HexSpec.linear_chain(1)).graph
    naphthalene = build_benzenoid(HexSpec(frozenset({(0, 0), (0, 1)}))).graph
    edges = list(benzene.edges) + [(u + 6, v + 6) for u, v in naphthalene.edges]
    return build_graph(16, edges + [(2, 8), (0, 12), (5, 11)])


# graphs of degree at most 3 with an odd cycle: they reach the recognizer's
# walk and checks, which must reject them
ODD_FALLBACKS = {
    "Petersen": _petersen,
    "C5xK2": lambda: _prism(5),
    "C7xK2": lambda: _prism(7),
    "Moebius ladder on 8 vertices": _moebius_ladder_8,
    "PH3 plus an odd chord": lambda: _with_far_chord(linear_phenylene(3).graph, 0),
    "BZ4 plus an odd chord": lambda: _with_far_chord(build_benzenoid(HexSpec.linear_chain(4)).graph, 0),
    "triangle with a tail": _triangle_with_a_tail,
}

FALLBACKS = {
    "wide ring": lambda: build_benzenoid(HexSpec(WIDE_RING_CELLS)).graph,
    "two-cell hole": lambda: build_benzenoid(HexSpec(_TWO_CELL_HOLE)).graph,
    "PH300 plus a pendant": lambda: _with_pendant(linear_phenylene(300).graph),
    "Heawood": _heawood,
    "Q3": _q3,
    "K3,3": lambda: build_graph(6, [(a, 3 + b) for a in range(3) for b in range(3)]),
    # two hexagons joined by six squares: unfolded on the lattice, the
    # strip of squares winds round for ever
    "hexagonal prism": lambda: _prism(6),
    "phenylene ring": _phenylene_ring,
    # a chain of six hexagons that the walk lays on cells round a hole: it
    # crosses each square and finds no other, so the edge count and the
    # vertex map pass, and only the hole test rejects it
    "phenylene ring less a square": lambda: _hexagons_and_squares(RING_CELLS, drop=1),
    "benzenoid plus a chord": lambda: _with_far_chord(build_benzenoid(HexSpec.linear_chain(4)).graph),
    "phenylene plus a chord": lambda: _with_far_chord(linear_phenylene(3).graph),
    "benzene and naphthalene joined": _benzene_and_naphthalene_joined,
    **ODD_FALLBACKS,
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_graphs_that_are_no_hole_free_molecule_fall_back(name):
    g = FALLBACKS[name]()
    assert _lattice_labels(g) is None
    _assert_like_the_pass(g)


@pytest.mark.parametrize("name", ODD_FALLBACKS)
def test_odd_graphs_of_degree_at_most_3_fail_the_walk_or_the_rebuild(name):
    # no 2-colouring rejects them first: the walk runs on each, and once
    # more on the one bridgeless piece with an edge, the triangle, of the
    # one graph with bridges
    g = ODD_FALLBACKS[name]()
    assert max(g.degrees()) <= 3 and not is_bipartite(g)
    with mock.patch.object(molgen, "_faces", wraps=molgen._faces) as walk:
        star = theta_star_partition(g)
    assert walk.call_count == (2 if name == "triangle with a tail" else 1)
    assert star == oracle_theta_star_partition(g)


def _two_joined_by_a_bridge(g):
    # two copies of g, a bridge between a degree-2 vertex of each
    v = g.degrees().index(2)
    edges = g.edges + tuple((g.n + a, g.n + b) for a, b in g.edges)
    return build_graph(2 * g.n, edges + ((v, g.n + v),))


@pytest.mark.parametrize(
    "join, h, classes",
    [(_with_pendant, 300, 901), (_two_joined_by_a_bridge, 100, 601)],
    ids=["PH300 plus a pendant", "two PH100 joined by a bridge"],
)
def test_bridged_molecules_take_the_lattice_route_piece_by_piece(join, h, classes):
    # cut at its bridges, each piece is a phenylene that the recognizer
    # takes: every class is two-sided and the pass never runs
    small = join(linear_phenylene(20).graph)
    assert _lattice_labels(small) is None
    with mock.patch.object(theta, "_theta_star_pass", side_effect=AssertionError("the Theta* pass ran")):
        small_star = theta_star_partition(small)
        star = theta_star_partition(join(linear_phenylene(h).graph))
    assert small_star == oracle_theta_star_partition(small)
    assert len(star) == classes
    assert all(small_star.two_sided) and all(star.two_sided)


def test_cells_that_meet_three_at_a_corner_are_rejected():
    # squares on two sides of a hexagon round one corner would give that
    # corner degree 4, and no hexagon-and-square graph of at most 7 cells
    # walks onto such cells past the other checks; so the walk of PH3 is
    # laid on three cells round a corner, where the edge count and the
    # vertex map still pass
    g = linear_phenylene(3).graph
    cells, squares = molgen._faces([dict(a) for a in g.adj])
    bent = dict(zip([(0, 0), (1, 0), (0, 1)], cells.values()))
    assert molgen._region(bent)[2] == 1
    with mock.patch.object(molgen, "_faces", return_value=(bent, squares)):
        assert _lattice_labels(g) is None
    assert _lattice_labels(g) is not None


def _assert_label_cut_like_the_oracle(mol):
    """A trusted direction partition must cut like the oracle; an untrusted
    one must raise exactly when its labels split a Theta*-class."""
    g, p = mol.graph, mol.direction_partition()
    if not p.refined_by_theta_star:
        star = oracle_theta_star_partition(g)
        if len(set(zip(star.class_of, p.class_of))) > len(star):
            with pytest.raises(InvalidCPartitionError):
                weighted_suite_cut(g, p)
            return
    assert weighted_suite_cut(g, p).as_tuple() == oracle_suite(g).as_tuple()


def test_direction_labels_are_trusted_iff_hole_free_and_cut_like_the_oracle():
    holed = 0
    for mol in _molecules():
        trusted = mol.direction_partition().refined_by_theta_star
        if mol.kind == "benzenoid":
            holes = _region(mol.cells)[1] > 0
            holed += holes
            assert trusted is not holes, mol.cells
        else:
            assert trusted, mol.cells
        _assert_label_cut_like_the_oracle(mol)
    assert holed == 3


@pytest.mark.parametrize("cells", [WIDE_RING_CELLS, _TWO_CELL_HOLE], ids=["wide ring", "two-cell hole"])
def test_labels_round_a_wide_hole_split_a_class_and_the_cut_raises(cells):
    mol = build_benzenoid(HexSpec(cells))
    p = mol.direction_partition()
    star = oracle_theta_star_partition(mol.graph)
    assert not p.refined_by_theta_star
    assert len(set(zip(star.class_of, p.class_of))) > len(star)
    _assert_label_cut_like_the_oracle(mol)


@pytest.mark.parametrize("kind", ["benzenoid", "phenylene"])
def test_molecules_of_a_thousand_cells_take_the_lattice_route(kind):
    rng = random.Random(28)
    if kind == "benzenoid":
        mol = build_benzenoid(HexSpec(row_convex_cells(rng, 1500, 39)))
    else:
        mol = build_phenylene(HexSpec(kinked_chain_cells(rng, 800)))
    label_cut = weighted_suite_cut(mol.graph, mol.direction_partition()).as_tuple()
    text = parse_edge_list(format_edge_list(mol.graph))
    refuse = AssertionError("the Theta* pass ran")
    with mock.patch.object(theta, "_theta_star_pass", side_effect=refuse):
        for g in (text, _relabelled(text, rng)):
            star = theta_star_partition(g)
            assert all(star.two_sided)
            assert weighted_suite_cut(g, star).as_tuple() == label_cut


def test_the_route_builds_no_molecule():
    # the cells are checked by counting: with the builders and molgen's
    # Graph refused, a phenylene and a benzenoid given as text still take
    # the route and get the classes of the pass
    rng = random.Random(29)
    phenylene = build_phenylene(HexSpec(kinked_chain_cells(rng, 40)))
    benzenoid = build_benzenoid(HexSpec(row_convex_cells(rng, 60, 7)))
    for mol in (phenylene, benzenoid):
        g = _relabelled(parse_edge_list(format_edge_list(mol.graph)), rng)
        expected = pass_facts(g)
        with (
            mock.patch.object(molgen, "Graph", side_effect=AssertionError("Graph built")),
            mock.patch.object(molgen, "build_phenylene", side_effect=AssertionError("builder ran")),
            mock.patch.object(molgen, "build_benzenoid", side_effect=AssertionError("builder ran")),
            mock.patch.object(theta, "_theta_star_pass", side_effect=AssertionError("the Theta* pass ran")),
        ):
            assert _facts(theta_star_partition(g)) == expected
