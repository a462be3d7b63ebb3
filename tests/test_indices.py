import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from szegedcut import (
    IndexKind,
    UnsupportedKindError,
    WeightAssignment,
    build_graph,
    first_zagreb,
    is_connected,
    general_cut_index,
    is_bipartite,
    oracle_edge_sides,
    oracle_general,
    single_class_partition,
    theta_star_partition,
    weighted_index,
    weighted_suite_cut,
    weighted_suite_direct,
)
from szegedcut.molgen import linear_phenylene

from conftest import (
    cycle_graph,
    random_bipartite_connected,
    random_connected_graph,
    random_tree,
    random_weight_assignment,
)


def _k2():
    return build_graph(2, [(0, 1)])


def test_edge_sides_k2():
    g = _k2()
    s = oracle_edge_sides(g, 0)
    assert s.n_u == {0} and s.n_v == {1}
    assert s.m_u == frozenset() and s.m_v == frozenset()


def test_edge_sides_c4():
    c4 = cycle_graph(4)
    s = oracle_edge_sides(c4, 0)
    assert len(s.n_u) == len(s.n_v) == 2
    assert len(s.m_u) == len(s.m_v) == 1   # the opposite edge is equidistant
    assert 0 not in s.m_u | s.m_v


def test_edge_sides_c5_has_equidistant_vertex():
    c5 = cycle_graph(5)
    s = oracle_edge_sides(c5, 0)
    assert len(s.n_u) == len(s.n_v) == 2
    assert not (s.n_u & s.n_v)


def test_weighted_index_k2_sz():
    g = _k2()
    assert weighted_index(g, WeightAssignment.unit(g), IndexKind.SZ) == 1


def test_weighted_index_single_edge_tree():
    # weighted K2 with 6/6 vertex masses and edge factor 20
    g = _k2()
    wa = WeightAssignment((6, 6), (20,), (1, ))
    assert weighted_index(g, wa, IndexKind.SZ) == 720


def test_weighted_index_weighted_pentagon_total_szeged():
    # C5 with vertex mass 3, side edge mass 2, edge factor 10 per edge
    c5 = cycle_graph(5)
    wa = WeightAssignment((3,) * 5, (10,) * 5, (2,) * 5)
    assert weighted_index(c5, wa, IndexKind.SZ_T) == 5000


def test_suite_direct_k2():
    assert weighted_suite_direct(_k2()).as_tuple() == (2, 4, 0, 0)


def test_suite_direct_c6():
    assert weighted_suite_direct(cycle_graph(6)).as_tuple() == (216, 144, 96, 96)


def test_single_class_cut_equals_direct():
    rng = random.Random(31)
    for _ in range(20):
        g = random_connected_graph(rng)
        p = single_class_partition(g.m)
        for starred in (False, True):
            cut = weighted_suite_cut(g, p, starred=starred)
            direct = weighted_suite_direct(g, starred=starred)
            assert cut.as_tuple() == direct.as_tuple()


def test_report_contents():
    c6 = cycle_graph(6)
    rep = weighted_suite_cut(c6, theta_star_partition(c6))
    assert rep.method == "cut" and not rep.starred
    assert len(rep.per_class) == 3
    assert sum(c.w_sz for c in rep.per_class) == rep.w_sz
    assert sum(c.w_pi_v for c in rep.per_class) == rep.w_pi_v
    assert sum(c.w_sz_e for c in rep.per_class) == rep.w_sz_e
    assert sum(c.w_pi for c in rep.per_class) == rep.w_pi
    d = rep.to_json_dict()
    assert d["wSz"] == "216" and d["method"] == "cut"
    assert len(d["per_class"]) == 3


def test_values_are_nonnegative_integers():
    rng = random.Random(37)
    for _ in range(15):
        g = random_connected_graph(rng)
        rep = weighted_suite_cut(g, theta_star_partition(g))
        for value in rep.as_tuple():
            assert isinstance(value, int) and value >= 0


@pytest.mark.parametrize("g, expected", [(_k2(), 2), (cycle_graph(6), 24)])
def test_first_zagreb_small(g, expected):
    assert first_zagreb(g) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_first_zagreb_linear_phenylene(n):
    assert first_zagreb(linear_phenylene(n).graph) == 44 * n - 20


def test_bipartite_sides_cover_everything():
    rng = random.Random(41)
    for _ in range(20):
        g = random_bipartite_connected(rng)
        assert is_bipartite(g)
        for e in range(g.m):
            s = oracle_edge_sides(g, e)
            assert len(s.n_u) + len(s.n_v) == g.n


def test_bipartite_identity_with_first_zagreb():
    rng = random.Random(43)
    for _ in range(20):
        g = random_bipartite_connected(rng)
        rep = weighted_suite_direct(g)
        assert rep.w_pi_v == g.n * first_zagreb(g)


def test_general_cut_k2_formula():
    g = _k2()
    wa = WeightAssignment((3, 5), (7,), (2,))
    p = single_class_partition(1)
    assert general_cut_index(g, wa, p, IndexKind.SZ) == 7 * 3 * 5


def test_general_cut_matches_oracle_for_random_weights():
    rng = random.Random(47)
    kinds = (IndexKind.SZ, IndexKind.PI_V, IndexKind.SZ_E, IndexKind.PI)
    for _ in range(25):
        g = random_connected_graph(rng, max_n=10)
        wa = random_weight_assignment(rng, g)
        p = theta_star_partition(g)
        for kind in kinds:
            assert general_cut_index(g, wa, p, kind) == oracle_general(g, wa, kind)


def test_general_cut_c6_edge_szeged():
    c6 = cycle_graph(6)
    wa = WeightAssignment((1,) * 6, (4,) * 6, (1,) * 6)
    p = theta_star_partition(c6)
    assert general_cut_index(c6, wa, p, IndexKind.SZ_E) == 96


def test_general_cut_fraction_weights():
    c6 = cycle_graph(6)
    half = Fraction(1, 2)
    wa = WeightAssignment((half,) * 6, (Fraction(3, 2),) * 6, (half,) * 6)
    p = theta_star_partition(c6)
    for kind in (IndexKind.SZ, IndexKind.PI_V, IndexKind.SZ_E, IndexKind.PI):
        assert general_cut_index(c6, wa, p, kind) == oracle_general(c6, wa, kind)


def test_general_cut_rejects_total_szeged():
    c6 = cycle_graph(6)
    with pytest.raises(UnsupportedKindError):
        general_cut_index(
            c6, WeightAssignment.unit(c6), theta_star_partition(c6), IndexKind.SZ_T
        )


def test_tree_fast_path_matches_oracle():
    rng = random.Random(53)
    kinds = list(IndexKind)
    for _ in range(25):
        t = random_tree(rng)
        wa = random_weight_assignment(rng, t)
        for kind in kinds:
            assert weighted_index(t, wa, kind) == oracle_general(t, wa, kind)


_WEIGHTS = st.one_of(
    st.integers(0, 4), st.fractions(min_value=0, max_value=4, max_denominator=6)
)


@st.composite
def cyclic_weighted_graphs(draw, bipartite):
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
    wa = WeightAssignment(
        tuple(draw(_WEIGHTS) for _ in range(g.n)),
        tuple(draw(_WEIGHTS) for _ in range(g.m)),
        tuple(draw(_WEIGHTS) for _ in range(g.m)),
    )
    return g, wa


@pytest.mark.parametrize("bipartite", [True, False])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_weighted_index_matches_oracle_on_cyclic_graphs(bipartite, data):
    # lam = 0 (Sz_e, PI) and lam = w (Sz_t) are where the direct route
    # reuses the quotient engine; the cut route scales Fractions the same way
    g, wa = data.draw(cyclic_weighted_graphs(bipartite))
    assert is_connected(g) and g.m >= g.n
    assert is_bipartite(g) == bipartite
    for kind in IndexKind:
        assert weighted_index(g, wa, kind) == oracle_general(g, wa, kind)
    p = theta_star_partition(g)
    for kind in (IndexKind.SZ, IndexKind.PI_V, IndexKind.SZ_E, IndexKind.PI):
        assert general_cut_index(g, wa, p, kind) == oracle_general(g, wa, kind)
