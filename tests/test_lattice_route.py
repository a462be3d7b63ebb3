"""The lattice route of `theta_star_partition` against the Theta* pass.

A benzenoid without holes or a phenylene, read as an edge list, gets its
Theta*-classes from `molgen._lattice_labels`; every other graph gets the
Theta* pass, `theta._theta_star_pass`. Both must give the same partition
(`classes`, `class_of`, `two_sided`) on every free polyhex of up to 7
cells, on every catacondensed one built as a phenylene, and on graphs
built to fool the recognizer.
"""

import random

import pytest

from szegedcut import (
    CellsNotTreeError,
    HexSpec,
    NotCatacondensedError,
    bfs_distances,
    build_benzenoid,
    build_graph,
    build_phenylene,
    format_edge_list,
    linear_phenylene,
    parse_edge_list,
    theta_star_partition,
)
from szegedcut import theta
from szegedcut.molgen import _forward_pairs, _lattice_labels

from conftest import RING_CELLS, WIDE_RING_CELLS

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


POLYHEXES = free_polyhexes(7)


def test_polyhex_counts_are_pinned():
    # OEIS A000228, so the corpus below cannot shrink silently
    assert [len(level) for level in POLYHEXES] == [1, 1, 3, 7, 22, 82, 333]


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
    assert _facts(theta_star_partition(g)) == _facts(theta._theta_star_pass(g))


def _molecules():
    for level in POLYHEXES:
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


def test_a_ring_around_one_cell_has_the_classes_of_coronene():
    ring = build_benzenoid(HexSpec(RING_CELLS))
    assert ring.nonstandard_region
    assert (ring.graph.n, ring.graph.m) == (24, 30)
    star = theta_star_partition(ring.graph)
    assert len(star) == 9 and all(star.two_sided)
    _assert_like_the_pass(ring.graph)


def _with_far_chord(g):
    # g plus an edge between two vertices of degree 2 at the largest odd
    # distance: still bipartite and of degree at most 3, with no new
    # 4- or 6-cycle, but no longer a molecule
    degree = g.degrees()
    ends = [v for v in range(g.n) if degree[v] == 2]
    _, u, v = max(
        (d[v], u, v)
        for u in ends
        for d in [bfs_distances(g, u)]
        for v in ends
        if d[v] % 2
    )
    assert bfs_distances(g, u)[v] >= 7
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


def _hexagonal_prism():
    # two hexagons joined by six squares: unfolded on the lattice, the
    # strip of squares winds round for ever
    return build_graph(
        12,
        [(i, (i + 1) % 6) for i in range(6)]
        + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
        + [(i, 6 + i) for i in range(6)],
    )


def _phenylene_ring():
    # six hexagons round a missing one, each joined to the next by a
    # square, as `build_phenylene` joins them: its cells form a cycle
    cells = tuple(sorted(RING_CELLS))
    edges = [(6 * i + k, 6 * i + (k + 1) % 6) for i in range(6) for k in range(6)]
    edges += [(6 * i + a, 6 * j + b) for i, j, square in _forward_pairs(cells) for a, b in square]
    return build_graph(36, edges)


_PARALLELOGRAM = frozenset((q, r) for q in range(4) for r in range(4))

FALLBACKS = {
    "wide ring": lambda: build_benzenoid(HexSpec(WIDE_RING_CELLS)).graph,
    "two-cell hole": lambda: build_benzenoid(HexSpec(_PARALLELOGRAM - {(1, 1), (2, 1)})).graph,
    "PH300 plus a pendant": lambda: _with_pendant(linear_phenylene(300).graph),
    "Heawood": _heawood,
    "Q3": _q3,
    "K3,3": lambda: build_graph(6, [(a, 3 + b) for a in range(3) for b in range(3)]),
    "hexagonal prism": _hexagonal_prism,
    "phenylene ring": _phenylene_ring,
    "benzenoid plus a chord": lambda: _with_far_chord(build_benzenoid(HexSpec.linear_chain(4)).graph),
    "phenylene plus a chord": lambda: _with_far_chord(linear_phenylene(3).graph),
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_graphs_that_are_no_hole_free_molecule_fall_back(name):
    g = FALLBACKS[name]()
    assert _lattice_labels(g) is None
    _assert_like_the_pass(g)
