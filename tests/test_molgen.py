import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegedcut import (
    CellsNotTreeError,
    DisconnectedCellsError,
    HexSpec,
    InvalidCPartitionError,
    NotATreeError,
    NotCatacondensedError,
    NTooSmallError,
    ParseError,
    WeightAssignment,
    benzenoid_quotient_trees,
    build_benzenoid,
    build_phenylene,
    format_hex_spec,
    inner_dual,
    is_partial_cube,
    linear_phenylene,
    oracle_suite,
    parse_hex_spec,
    ph_closed_formulas,
    quotient_graph,
    theta_star_partition,
    validate_c_partition,
    weighted_suite_cut,
)

from conftest import (
    BENZENOID_SPECS,
    CORONENE,
    PHENYLENE_SPECS,
    RING_CELLS,
    TRIANGLE_CLUSTER,
    WIDE_RING_CELLS,
    ZIGZAG4,
)


def test_single_cell_is_hexagon():
    b = build_benzenoid(HexSpec.linear_chain(1))
    assert b.graph.n == 6 and b.graph.m == 6
    assert all(b.graph.degree(v) == 2 for v in range(6))
    for label in (1, 2, 3):
        assert len(b.edges_with_label(label)) == 2


def test_naphthalene_counts():
    b = build_benzenoid(HexSpec.linear_chain(2))
    assert b.graph.n == 10 and b.graph.m == 11


@pytest.mark.parametrize("h", [1, 2, 3, 5, 8])
def test_linear_chain_counts(h):
    b = build_benzenoid(HexSpec.linear_chain(h))
    assert b.graph.n == 4 * h + 2
    assert b.graph.m == 5 * h + 1
    assert set(b.graph.degrees()) <= {2, 3}


def test_single_cell_quotient_trees():
    b = build_benzenoid(HexSpec.linear_chain(1))
    for t in benzenoid_quotient_trees(b):
        assert t.graph.n == 2 and t.graph.m == 1
        assert t.w == (3, 3)
        assert t.lambda_prime == (2,)   # two parallel edges per direction


@pytest.mark.parametrize("h", [2, 3, 5])
def test_linear_chain_quotient_tree_shapes(h):
    b = build_benzenoid(HexSpec.linear_chain(h))
    sizes = sorted(t.graph.n for t in benzenoid_quotient_trees(b))
    # the shared-edge direction collapses to K2, the other two to paths
    assert sizes == sorted([2, h + 1, h + 1])


def test_quotient_trees_are_trees_everywhere():
    for spec in BENZENOID_SPECS:
        b = build_benzenoid(spec)
        for t in benzenoid_quotient_trees(b):
            assert t.graph.m == t.graph.n - 1


def test_direction_partition_is_c_partition():
    for spec in BENZENOID_SPECS:
        b = build_benzenoid(spec)
        assert validate_c_partition(b.graph, b.direction_partition())
    for spec in PHENYLENE_SPECS:
        p = build_phenylene(spec)
        assert validate_c_partition(p.graph, p.direction_partition())


def test_theta_classes_are_elementary_cuts():
    generated = [build_benzenoid(s) for s in BENZENOID_SPECS]
    generated += [build_phenylene(s) for s in PHENYLENE_SPECS]
    for dlg in generated:
        star = theta_star_partition(dlg.graph)
        wa = WeightAssignment.unit(dlg.graph)
        for members in star.classes:
            labels = {dlg.direction_of[e] for e in members}
            assert len(labels) == 1   # each class sits in one direction
            q = quotient_graph(dlg.graph, wa, members)
            assert q.graph.n == 2     # removing a cut splits into two parts


def test_generated_molecules_are_partial_cubes():
    for spec in BENZENOID_SPECS:
        assert is_partial_cube(build_benzenoid(spec).graph)
    for spec in PHENYLENE_SPECS:
        assert is_partial_cube(build_phenylene(spec).graph)


def test_benzenoid_rejects_disconnected_cells():
    with pytest.raises(DisconnectedCellsError):
        build_benzenoid(HexSpec(frozenset([(0, 0), (5, 5)])))


def test_hole_detection():
    ring = build_benzenoid(HexSpec(RING_CELLS))
    assert ring.nonstandard_region
    assert not build_benzenoid(CORONENE).nonstandard_region
    assert not build_benzenoid(HexSpec.linear_chain(4)).nonstandard_region


def test_one_cell_hole_still_behaves():
    # a single-cell hole leaves the cut structure intact: direction
    # quotients stay trees and the cut method still matches the oracle
    ring = build_benzenoid(HexSpec(RING_CELLS))
    trees = benzenoid_quotient_trees(ring)
    assert all(t.graph.m == t.graph.n - 1 for t in trees)
    assert is_partial_cube(ring.graph)
    assert validate_c_partition(ring.graph, ring.direction_partition())
    cut = weighted_suite_cut(ring.graph, ring.direction_partition())
    assert cut.as_tuple() == oracle_suite(ring.graph).as_tuple()


def test_wide_hole_breaks_the_tree_property():
    # a two-cell hole interrupts cut lines: two direction quotients gain
    # cycles, the tree assertion fires, and validation rejects the labels
    ring = build_benzenoid(HexSpec(WIDE_RING_CELLS))
    assert ring.nonstandard_region
    with pytest.raises(NotATreeError):
        benzenoid_quotient_trees(ring)
    assert not is_partial_cube(ring.graph)
    assert not validate_c_partition(ring.graph, ring.direction_partition())


def test_ph2_structure():
    ph2 = linear_phenylene(2)
    assert ph2.graph.n == 12 and ph2.graph.m == 14
    assert len(ph2.edges_with_label(4)) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_linear_phenylene_counts(n):
    ph = linear_phenylene(n)
    assert ph.graph.n == 6 * n
    assert ph.graph.m == 8 * n - 2
    degs = ph.graph.degrees()
    assert degs.count(3) == 4 * n - 4
    assert degs.count(2) == 2 * n + 4
    assert len(ph.edges_with_label(4)) == 2 * (n - 1)


def test_single_cell_phenylene_is_plain_hexagon():
    p = build_phenylene(HexSpec.linear_chain(1))
    assert p.graph.n == 6 and p.graph.m == 6
    assert p.edges_with_label(4) == ()
    assert len(p.direction_partition()) == 3


def test_phenylene_rejects_three_cell_corner():
    with pytest.raises(NotCatacondensedError):
        build_phenylene(TRIANGLE_CLUSTER)


def test_phenylene_rejects_cell_cycle():
    with pytest.raises(CellsNotTreeError):
        build_phenylene(HexSpec(RING_CELLS))


def test_phenylene_rejects_disconnected_cells():
    with pytest.raises(CellsNotTreeError):
        build_phenylene(HexSpec(frozenset([(0, 0), (4, 4)])))


def test_linear_phenylene_too_small():
    with pytest.raises(NTooSmallError):
        linear_phenylene(1)
    with pytest.raises(NTooSmallError):
        ph_closed_formulas(1)


@pytest.mark.parametrize(
    "n, expected",
    [(2, (2124, 816, 1652, 776)), (3, (7560, 2016, 7360, 2112))],
)
def test_closed_formula_values(n, expected):
    assert ph_closed_formulas(n).as_tuple() == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_formulas_match_cut_and_oracle(n):
    ph = linear_phenylene(n)
    formulas = ph_closed_formulas(n).as_tuple()
    assert weighted_suite_cut(ph.graph, ph.direction_partition()).as_tuple() == formulas
    assert oracle_suite(ph.graph).as_tuple() == formulas


def _square_quotient(dlg):
    wa = WeightAssignment.degree_weighted(dlg.graph)
    return quotient_graph(dlg.graph, wa, dlg.edges_with_label(4))


@pytest.mark.parametrize("spec", PHENYLENE_SPECS, ids=lambda s: f"{len(s.cells)}cells")
def test_square_quotient_is_the_cell_adjacency_tree(spec):
    ph = build_phenylene(spec)
    q = _square_quotient(ph)
    dual = inner_dual(spec)
    k = len(ph.cells)
    assert q.graph.n == k == dual.n
    assert q.graph.m == q.graph.n - 1
    # each component is exactly one hexagon and the natural map cell ->
    # component is a graph isomorphism onto the inner dual
    mapping = [q.component_map[6 * i] for i in range(k)]
    assert sorted(mapping) == list(range(k))
    for i in range(k):
        hexagon = tuple(v for v, c in enumerate(q.component_map) if c == mapping[i])
        assert hexagon == tuple(range(6 * i, 6 * i + 6))
    dual_edges = {tuple(sorted((mapping[a], mapping[b]))) for a, b in dual.edges}
    assert dual_edges == {tuple(sorted(e)) for e in q.graph.edges}


def test_hex_spec_roundtrip():
    text = format_hex_spec(ZIGZAG4)
    assert parse_hex_spec(text).cells == ZIGZAG4.cells


@pytest.mark.parametrize("text", ["", "0\n", "0 1 2\n", "a b\n", "0 0\n0 0\n"])
def test_hex_spec_parse_errors(text):
    with pytest.raises(ParseError):
        parse_hex_spec(text)


def test_generation_is_deterministic():
    a = build_benzenoid(CORONENE)
    b = build_benzenoid(CORONENE)
    assert a.graph.edges == b.graph.edges
    assert a.direction_of == b.direction_of
    p1 = build_phenylene(ZIGZAG4)
    p2 = build_phenylene(ZIGZAG4)
    assert p1.graph.edges == p2.graph.edges


def test_direction_labels_are_trusted_only_without_holes():
    assert build_benzenoid(CORONENE).direction_partition().refined_by_theta_star
    assert linear_phenylene(3).direction_partition().refined_by_theta_star
    for cells in (RING_CELLS, WIDE_RING_CELLS):
        assert not build_benzenoid(HexSpec(cells)).direction_partition().refined_by_theta_star


def test_wide_hole_labels_are_rejected_not_miscounted():
    # trusted, these labels gave (41940, 6656, 48768, 7552); the oracle
    # gives (41900, 6656, 48728, 7552)
    ring = build_benzenoid(HexSpec(WIDE_RING_CELLS))
    with pytest.raises(InvalidCPartitionError):
        weighted_suite_cut(ring.graph, ring.direction_partition())
    one_hole = build_benzenoid(HexSpec(RING_CELLS))
    cut = weighted_suite_cut(one_hole.graph, one_hole.direction_partition())
    assert cut.as_tuple() == oracle_suite(one_hole.graph).as_tuple()


_AXIAL = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
_HOLES = (
    frozenset({(0, 0)}),
    frozenset({(0, 0), (1, 0)}),
    frozenset({(0, 0), (0, 1)}),
    frozenset({(0, 0), (1, -1)}),
)


def _grow(rng, cells, size, avoid):
    while len(cells) < size:
        q, r = rng.choice(sorted(cells))
        dq, dr = rng.choice(_AXIAL)
        if (q + dq, r + dr) not in avoid:
            cells.add((q + dq, r + dr))
    return frozenset(cells)


def random_cell_set(rng: random.Random) -> HexSpec:
    """Connected set of at most 10 cells; half of them start from the ring
    around a one- or two-cell hole, possibly opened by dropping one cell."""
    if rng.random() < 0.5:
        return HexSpec(_grow(rng, {(0, 0)}, rng.randint(1, 10), frozenset()))
    hole = rng.choice(_HOLES)
    ring = sorted({(q + dq, r + dr) for q, r in hole for dq, dr in _AXIAL} - hole)
    if rng.random() < 0.3:
        ring.remove(rng.choice(ring))
    return HexSpec(_grow(rng, set(ring), rng.randint(len(ring), 10), hole))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_label_cut_is_exact_or_rejected(seed):
    spec = random_cell_set(random.Random(seed))
    b = build_benzenoid(spec)
    try:
        cut = weighted_suite_cut(b.graph, b.direction_partition())
    except InvalidCPartitionError:
        assert spec.has_holes()
    else:
        assert cut.as_tuple() == oracle_suite(b.graph).as_tuple()
