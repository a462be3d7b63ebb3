import random
import time
from collections import deque
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegedcut import (
    CellsNotTreeError,
    DirectionLabeledGraph,
    DisconnectedCellsError,
    Graph,
    HexSpec,
    InvalidCPartitionError,
    NotCatacondensedError,
    NTooSmallError,
    ParseError,
    WeightAssignment,
    build_benzenoid,
    build_phenylene,
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
from szegedcut.molgen import _FORWARD, _SIDES, _corners, _forward_pairs

from conftest import (
    BENZENOID_SPECS,
    CORONENE,
    PHENYLENE_SPECS,
    RING_CELLS,
    TRIANGLE_CLUSTER,
    WIDE_RING_CELLS,
    ZIGZAG4,
    assert_square_quotient_is_the_cell_tree,
    direction_quotients,
    label_edges,
)


def test_single_cell_is_hexagon():
    b = build_benzenoid(HexSpec.linear_chain(1))
    assert b.graph.n == 6 and b.graph.m == 6
    assert b.graph.degrees() == (2,) * 6
    for label in (1, 2, 3):
        assert len(label_edges(b, label)) == 2


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
    for t in direction_quotients(b):
        assert t.graph.n == 2 and t.graph.m == 1
        assert t.w == (3, 3)
        assert t.lambda_prime == (2,)   # two parallel edges per direction


@pytest.mark.parametrize("h", [2, 3, 5])
def test_linear_chain_quotient_tree_shapes(h):
    b = build_benzenoid(HexSpec.linear_chain(h))
    sizes = sorted(t.graph.n for t in direction_quotients(b))
    # the shared-edge direction collapses to K2, the other two to paths
    assert sizes == sorted([2, h + 1, h + 1])


def test_quotient_trees_are_trees_everywhere():
    for spec in BENZENOID_SPECS:
        b = build_benzenoid(spec)
        for t in direction_quotients(b):
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
    trees = direction_quotients(ring)
    assert all(t.graph.m == t.graph.n - 1 for t in trees)
    assert is_partial_cube(ring.graph)
    assert validate_c_partition(ring.graph, ring.direction_partition())
    cut = weighted_suite_cut(ring.graph, ring.direction_partition())
    assert cut.as_tuple() == oracle_suite(ring.graph).as_tuple()


def test_wide_hole_breaks_the_tree_property():
    # a two-cell hole interrupts cut lines: two direction quotients gain
    # cycles, and validation rejects the labels
    ring = build_benzenoid(HexSpec(WIDE_RING_CELLS))
    assert ring.nonstandard_region
    assert sum(t.graph.m != t.graph.n - 1 for t in direction_quotients(ring)) == 2
    assert not is_partial_cube(ring.graph)
    assert not validate_c_partition(ring.graph, ring.direction_partition())


def test_ph2_structure():
    ph2 = linear_phenylene(2)
    assert ph2.graph.n == 12 and ph2.graph.m == 14
    assert len(label_edges(ph2, 4)) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_linear_phenylene_counts(n):
    ph = linear_phenylene(n)
    assert ph.graph.n == 6 * n
    assert ph.graph.m == 8 * n - 2
    degs = ph.graph.degrees()
    assert degs.count(3) == 4 * n - 4
    assert degs.count(2) == 2 * n + 4
    assert len(label_edges(ph, 4)) == 2 * (n - 1)


def test_single_cell_phenylene_is_plain_hexagon():
    p = build_phenylene(HexSpec.linear_chain(1))
    assert p.graph.n == 6 and p.graph.m == 6
    assert label_edges(p, 4) == []
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


def _polynomial_at(points, x):
    """The value at x of the polynomial through the (x_i, y_i) `points`."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def test_linear_benzenoid_chains_match_the_oracle_cubic_at_10000():
    # the four values are cubic in the number of hexagons h: their 4th
    # differences vanish on the oracle's values at h = 3..9, and the cubic
    # through h = 3..6 checks the cut route at a size the oracle cannot reach
    h = 10_000
    chain = build_benzenoid(HexSpec.linear_chain(h))
    p = chain.direction_partition()
    for starred in (False, True):
        oracle = [
            oracle_suite(build_benzenoid(HexSpec.linear_chain(k)).graph, starred).as_tuple()
            for k in range(3, 10)
        ]
        for values in zip(*oracle):
            for _ in range(4):
                values = [b - a for a, b in zip(values, values[1:])]
            assert values == [0, 0, 0], starred
        cubic = [_polynomial_at(list(zip(range(3, 7), values)), h) for values in zip(*oracle)]
        assert weighted_suite_cut(chain.graph, p, starred).as_tuple() == tuple(cubic), starred


@pytest.mark.parametrize("spec", PHENYLENE_SPECS, ids=lambda s: f"{len(s.cells)}cells")
def test_square_quotient_is_the_cell_adjacency_tree(spec):
    assert_square_quotient_is_the_cell_tree(build_phenylene(spec))


def test_hex_spec_roundtrip():
    text = "".join(f"{q} {r}\n" for q, r in ZIGZAG4.sorted_cells())
    assert parse_hex_spec(text).cells == ZIGZAG4.cells


@pytest.mark.parametrize("text", ["", "0\n", "0 1 2\n", "a b\n", "0 0\n0 0\n"])
def test_hex_spec_parse_errors(text):
    with pytest.raises(ParseError):
        parse_hex_spec(text)


def test_large_hex_spec_parses_in_linear_time():
    # a duplicate check against a list took about 5 s at this size
    cells = [(i, -(i // 2)) for i in range(20000)]
    text = "".join(f"{q} {r}\n" for q, r in cells)
    t0 = time.perf_counter()
    spec = parse_hex_spec(text)
    assert time.perf_counter() - t0 < 2.0
    assert spec.cells == frozenset(cells)
    with pytest.raises(ParseError):
        parse_hex_spec(text + "0 0\n")


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


def _forged_ring():
    # the wide ring with its hole flag cleared: trusted, its labels gave
    # (41940, 6656, 48768, 7552); the oracle gives (41900, 6656, 48728, 7552)
    return replace(build_benzenoid(HexSpec(WIDE_RING_CELLS)), nonstandard_region=False)


def _forged_c6():
    # a split of C6 declared a benzenoid: trusted, it gave (112, 96, 112, 96);
    # the true values are (216, 144, 96, 96)
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    return DirectionLabeledGraph(c6, (0, 1, 1, 1, 1, 1), ((0, 0),), "benzenoid")


@pytest.mark.parametrize("forge", [_forged_ring, _forged_c6], ids=["replaced ring", "built c6"])
def test_only_the_builders_certify_direction_labels(forge):
    dlg = forge()
    p = dlg.direction_partition()
    assert not p.refined_by_theta_star
    with pytest.raises(InvalidCPartitionError):
        weighted_suite_cut(dlg.graph, p)


def test_a_copy_of_builder_output_is_validated():
    # unmarked, as the constructor and replace() leave every copy: its
    # labels are validated, and cut as the builder's own
    coronene = build_benzenoid(CORONENE)
    copied = replace(coronene)
    assert not copied.direction_partition().refined_by_theta_star
    assert (weighted_suite_cut(copied.graph, copied.direction_partition()).as_tuple()
            == weighted_suite_cut(coronene.graph, coronene.direction_partition()).as_tuple())


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


def flood_fill_has_holes(cells: frozenset) -> bool:
    """Reference hole test: flood the complement from outside the bounding
    box, in O(box area)."""
    qs = [q for q, _ in cells]
    rs = [r for _, r in cells]
    qlo, qhi = min(qs) - 1, max(qs) + 1
    rlo, rhi = min(rs) - 1, max(rs) + 1
    start = (qlo, rlo)
    outside = {start}
    queue = deque([start])
    while queue:
        q, r = queue.popleft()
        for dq, dr in _AXIAL:
            nb = (q + dq, r + dr)
            if (
                qlo <= nb[0] <= qhi
                and rlo <= nb[1] <= rhi
                and nb not in cells
                and nb not in outside
            ):
                outside.add(nb)
                queue.append(nb)
    box = (qhi - qlo + 1) * (rhi - rlo + 1)
    return len(outside) + len(cells) < box


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(0, 10**9).map(lambda seed: random_cell_set(random.Random(seed)).cells),
    # dense draws from a small box: holes, pinches and several components
    st.frozensets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1),
))
def test_hole_count_matches_the_flood_fill(cells):
    assert HexSpec(cells).has_holes() == flood_fill_has_holes(cells)


def hex_ring(k: int) -> frozenset:
    """The k * 6 cells at distance k from (0, 0), which enclose a hole."""
    cells = []
    q, r = -k, k
    for dq, dr in ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)):
        for _ in range(k):
            cells.append((q, r))
            q, r = q + dq, r + dr
    return frozenset(cells)


def test_hole_test_is_linear_on_long_thin_regions():
    # the flood fill walked the bounding box: about 10 s and 620 MB here
    chain = HexSpec(frozenset((i, -i) for i in range(2000)))
    t0 = time.perf_counter()
    assert not chain.has_holes()
    assert time.perf_counter() - t0 < 1.0
    assert not build_benzenoid(chain).nonstandard_region
    ring = HexSpec(hex_ring(1))
    assert ring.cells == RING_CELLS and ring.has_holes()
    t0 = time.perf_counter()
    assert HexSpec(hex_ring(3000)).has_holes()
    assert time.perf_counter() - t0 < 1.0


def _direction(p1, p2) -> int:
    """Reference direction label of the lattice edge from p1 to p2."""
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    if dx == 0:
        return 1
    return 2 if dx == dy else 3


def _reference_is_connected(cells: frozenset) -> bool:
    start = min(cells)
    seen = {start}
    queue = deque([start])
    while queue:
        q, r = queue.popleft()
        for dq, dr in _AXIAL:
            nb = (q + dq, r + dr)
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(cells)


def _reference_adjacent_pairs(cells: tuple) -> list:
    index = {c: i for i, c in enumerate(cells)}
    pairs = []
    for i, (q, r) in enumerate(cells):
        for dq, dr in _AXIAL:
            j = index.get((q + dq, r + dr))
            if j is not None and i < j:
                pairs.append((i, j))
    return sorted(pairs)


def reference_benzenoid(spec: HexSpec) -> DirectionLabeledGraph:
    """Reference benzenoid builder: edges deduplicated by the coordinates
    of their corners, labelled from their corner coordinates."""
    if not _reference_is_connected(spec.cells):
        raise DisconnectedCellsError("cells do not form a connected region")
    cells = spec.sorted_cells()
    point_ids = {}
    seen_edges = set()
    edges = []
    direction = []
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
        nonstandard_region=flood_fill_has_holes(spec.cells),
    )


def reference_phenylene(spec: HexSpec) -> DirectionLabeledGraph:
    """Reference phenylene builder: corners counted per coordinate, and the
    squares found by intersecting the corner sets of adjacent cells."""
    cells = spec.sorted_cells()
    corner_lists = [_corners(c) for c in cells]
    use_count = {}
    for corners in corner_lists:
        for pt in corners:
            use_count[pt] = use_count.get(pt, 0) + 1
    if any(c >= 3 for c in use_count.values()):
        raise NotCatacondensedError("a lattice corner lies in three cells")
    pairs = _reference_adjacent_pairs(cells)
    if len(pairs) != len(cells) - 1 or not _reference_is_connected(spec.cells):
        raise CellsNotTreeError("cell adjacency graph is not a tree")
    edges = []
    direction = []
    for i, corners in enumerate(corner_lists):
        for k in range(6):
            edges.append((6 * i + k, 6 * i + (k + 1) % 6))
            direction.append(_direction(corners[k], corners[(k + 1) % 6]))
    corner_index = [{pt: k for k, pt in enumerate(corners)} for corners in corner_lists]
    for i, j in pairs:
        for pt in sorted(set(corner_lists[i]) & set(corner_lists[j])):
            edges.append((6 * i + corner_index[i][pt], 6 * j + corner_index[j][pt]))
            direction.append(4)
    return DirectionLabeledGraph(
        graph=Graph(6 * len(cells), edges),
        direction_of=tuple(direction),
        cells=cells,
        kind="phenylene",
    )


def _outcome(build, spec):
    try:
        d = build(spec)
    except (DisconnectedCellsError, NotCatacondensedError, CellsNotTreeError) as e:
        return type(e)
    return (d.graph.n, d.graph.edges, d.direction_of, d.cells, d.kind, d.nonstandard_region)


def _walk(steps) -> frozenset:
    """The cells a walk from (0, 0) visits: a chain, or a cycle of cells
    where it comes back."""
    cells = [(0, 0)]
    for dq, dr in steps:
        cells.append((cells[-1][0] + dq, cells[-1][1] + dr))
    return frozenset(cells)


def _two_regions(seeds) -> frozenset:
    a, b = (random_cell_set(random.Random(s)).cells for s in seeds)
    return a | {(q + 20, r) for q, r in b}


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    # blobs around one- and two-cell holes, possibly opened
    st.integers(0, 10**9).map(lambda seed: random_cell_set(random.Random(seed)).cells),
    # dense draws from a small box: three-cell corners, pinches, components
    st.frozensets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1),
    st.lists(st.sampled_from(_AXIAL), max_size=15).map(_walk),
    st.integers(1, 4).map(hex_ring),
    st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)).map(_two_regions),
))
def test_builders_match_the_coordinate_set_reference(cells):
    spec = HexSpec(cells)
    assert _outcome(build_benzenoid, spec) == _outcome(reference_benzenoid, spec)
    assert _outcome(build_phenylene, spec) == _outcome(reference_phenylene, spec)
    cells = spec.sorted_cells()
    assert [(i, j) for i, j, _ in _forward_pairs(cells)] == _reference_adjacent_pairs(cells)


@pytest.mark.parametrize("cell", [(0, 0), (3, -2)])
def test_side_table_matches_the_corner_geometry(cell):
    corners = _corners(cell)
    for k, ((dq, dr), label, ends, square) in enumerate(_SIDES):
        across = (cell[0] + dq, cell[1] + dr)
        across_corners = _corners(across)
        side = (corners[k], corners[(k + 1) % 6])
        assert set(corners) & set(across_corners) == set(side)
        assert tuple(corners[e] for e in ends) == tuple(sorted(side))
        assert label == _direction(*side)
        # square pairs exactly where the cell across sorts later
        expected = [(corners.index(pt), across_corners.index(pt)) for pt in sorted(side)]
        assert list(square) == (expected if across > cell else [])
    assert list(_FORWARD) == sorted((s for s in _SIDES if s[3]), key=lambda s: s[0])


def test_an_empty_hex_spec_raises_a_package_error():
    with pytest.raises(NTooSmallError):
        HexSpec(frozenset())
    with pytest.raises(NTooSmallError):
        HexSpec.linear_chain(0)
