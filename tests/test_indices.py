import random
import sys
import threading
import weakref
from contextlib import ExitStack, contextmanager
from dataclasses import astuple, replace
from fractions import Fraction
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from szegedcut import (
    DisconnectedError,
    EdgePartition,
    IndexKind,
    InvalidCPartitionError,
    InvalidWeightError,
    PartitionNotCoveringError,
    HexSpec,
    UnsupportedKindError,
    WeightAssignment,
    build_graph,
    first_zagreb,
    format_edge_list,
    is_connected,
    general_cut_index,
    is_bipartite,
    oracle_edge_sides,
    oracle_general,
    oracle_is_partial_cube,
    oracle_suite,
    parse_edge_list,
    quotient_graph,
    theta_star_partition,
    weighted_index,
    weighted_suite_cut,
    weighted_suite_direct,
)
from szegedcut import graph, indices, theta
from szegedcut.molgen import build_benzenoid, build_phenylene, linear_phenylene

from conftest import (
    CORONENE,
    FULLERENE_TOTALS,
    ZIGZAG4,
    bridged_weighted_graphs,
    built_parts,
    cube_subgraph,
    cycle_graph,
    cyclic_weighted_graphs,
    fullerene_patch,
    path_graph,
    pendant_weighted_graphs,
    random_bipartite_connected,
    random_connected_graph,
    random_tree,
    random_weight_assignment,
    rest_parts,
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
        p = EdgePartition.from_labels([0] * g.m)
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
    p = EdgePartition.from_labels([0])
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


def test_general_cut_offers_total_szeged():
    # the fifth sums of the classes total Sz_t of G on any c-partition:
    # Theta*'s, the coarsest, and a validated coarsening of Theta*'s
    c6 = cycle_graph(6)
    g, wa, star = _patch_inputs(Fraction)
    grouped = EdgePartition.from_labels(c % 3 for c in star.class_of)
    for graph, weights, p in (
        (c6, WeightAssignment.unit(c6), theta_star_partition(c6)),
        (c6, WeightAssignment.unit(c6), EdgePartition.from_labels([0] * 6)),
        (g, wa, star),
        (g, wa, grouped),
    ):
        expected = oracle_general(graph, weights, IndexKind.SZ_T)
        assert general_cut_index(graph, weights, p, IndexKind.SZ_T) == expected


def test_weighted_index_rejects_a_kind_that_is_no_index_kind():
    c6 = cycle_graph(6)
    with mock.patch.object(indices, "_sums", side_effect=AssertionError("ran")):
        with pytest.raises(UnsupportedKindError):
            weighted_index(c6, WeightAssignment.unit(c6), "Sz")


def test_general_cut_index_rejects_a_kind_that_is_no_index_kind():
    c6 = cycle_graph(6)
    p = theta_star_partition(c6)
    with mock.patch.object(
        indices, "_class_contributions", side_effect=AssertionError("ran")
    ):
        with pytest.raises(UnsupportedKindError):
            general_cut_index(c6, WeightAssignment.unit(c6), p, "Sz")


def test_cut_routes_reject_a_partition_of_another_edge_count():
    # both flagged as Theta*-refined: one through the raw keyword, bound to
    # no edge list, and one certified on C5's edges
    c6 = cycle_graph(6)
    one = EdgePartition.from_labels([0] * 5)
    for p5 in (EdgePartition(one.classes, one.class_of, True), theta_star_partition(cycle_graph(5))):
        with pytest.raises(PartitionNotCoveringError):
            weighted_suite_cut(c6, p5)
        with pytest.raises(PartitionNotCoveringError):
            general_cut_index(c6, WeightAssignment.unit(c6), p5, IndexKind.SZ)


@pytest.mark.parametrize(
    "g",
    [
        build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        build_graph(2, []),
    ],
    ids=["two-triangles", "two-vertices"],
)
def test_index_routes_reject_disconnected_graphs(g):
    # the entry check is the only guard: without it the sweep on the two
    # triangles never ends, since no ball ever fills, and the empty graph
    # gets all-zero sums
    wa = WeightAssignment.unit(g)
    p = EdgePartition.from_labels([0] * g.m)
    with pytest.raises(DisconnectedError):
        weighted_suite_direct(g)
    with pytest.raises(DisconnectedError):
        weighted_index(g, wa, IndexKind.SZ)
    with pytest.raises(DisconnectedError):
        weighted_suite_cut(g, p)
    with pytest.raises(DisconnectedError):
        general_cut_index(g, wa, p, IndexKind.SZ)


def test_oracle_general_rejects_a_kind_that_is_no_index_kind():
    k2 = _k2()
    with pytest.raises(UnsupportedKindError):
        oracle_general(k2, WeightAssignment.unit(k2), "Sz")


def test_tree_fast_path_matches_oracle():
    rng = random.Random(53)
    kinds = list(IndexKind)
    for _ in range(25):
        t = random_tree(rng)
        wa = random_weight_assignment(rng, t)
        for kind in kinds:
            assert weighted_index(t, wa, kind) == oracle_general(t, wa, kind)


_INT_WEIGHTS = st.integers(0, 50)


@st.composite
def _int_weighted_trees(draw):
    n = draw(st.integers(1, 12))
    g = build_graph(n, [(draw(st.integers(0, v - 1)), v) for v in range(1, n)])
    return g, WeightAssignment(
        *(tuple(draw(st.lists(_INT_WEIGHTS, min_size=k, max_size=k))) for k in (g.n, g.m, g.m))
    )


@pytest.mark.parametrize("family", ["tree", "cyclic", "bridged"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_engine_contract_with_independent_lam(family, data):
    # the routes only ever pass lam = 0 or a quotient's lam; the engine
    # must keep w and lam apart on its tree path, its sweep and its fold of
    # the bridges, and add them only in the fifth sum
    if family == "tree":
        g, wa = data.draw(_int_weighted_trees())
    elif family == "cyclic":
        g, wa = data.draw(cyclic_weighted_graphs(data.draw(st.booleans()), _INT_WEIGHTS))
    else:
        g, wa = data.draw(bridged_weighted_graphs(_INT_WEIGHTS))
    lam = tuple(data.draw(st.lists(_INT_WEIGHTS, min_size=g.n, max_size=g.n)))
    on_lam = WeightAssignment(lam, wa.w_prime, wa.lambda_prime)
    on_both = WeightAssignment(tuple(map(add, wa.w, lam)), wa.w_prime, wa.lambda_prime)
    sz, pi_v, sz_t, pi, total = indices._sums(g, wa.w, lam, wa.lambda_prime, wa.w_prime)
    assert sz == oracle_general(g, wa, IndexKind.SZ)
    assert pi_v == oracle_general(g, wa, IndexKind.PI_V)
    assert sz_t == oracle_general(g, on_lam, IndexKind.SZ_T)
    assert pi == oracle_general(g, on_lam, IndexKind.PI_V) + oracle_general(
        g, wa, IndexKind.PI
    )
    assert total == oracle_general(g, on_both, IndexKind.SZ_T)


@pytest.mark.parametrize("bipartite", [True, False])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_weighted_index_matches_oracle_on_cyclic_graphs(bipartite, data):
    # the direct route reuses the quotient engine with lam = 0, where its
    # third, fourth and fifth sums are Sz_e, PI and Sz_t; the cut route
    # scales Fractions the same way
    g, wa = data.draw(cyclic_weighted_graphs(bipartite))
    assert is_connected(g) and g.m >= g.n
    assert is_bipartite(g) == bipartite
    for kind in IndexKind:
        assert weighted_index(g, wa, kind) == oracle_general(g, wa, kind)
    p = theta_star_partition(g)
    for kind in (IndexKind.SZ, IndexKind.PI_V, IndexKind.SZ_E, IndexKind.PI):
        assert general_cut_index(g, wa, p, kind) == oracle_general(g, wa, kind)


_BRIDGED_WEIGHTS = {
    "int": st.integers(0, 50),
    "Fraction": st.fractions(min_value=0, max_value=50, max_denominator=12),
}


@pytest.mark.parametrize("weights", _BRIDGED_WEIGHTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_weighted_index_matches_oracle_across_bridges(weights, data):
    # bridges with cycles on both sides: the direct route folds the far
    # side of each bridge onto its near end and sweeps each piece alone
    g, wa = data.draw(bridged_weighted_graphs(_BRIDGED_WEIGHTS[weights]))
    for kind in IndexKind:
        assert weighted_index(g, wa, kind) == oracle_general(g, wa, kind)


def _triangle_with_a_tail():
    return build_graph(6, [(1, 0), (2, 1), (3, 4), (4, 5), (5, 0), (0, 2)])


def test_generic_sums_sweep_no_bridge():
    # a C5 with a pendant path of three bridges: every sweep runs on the
    # C5 alone, with the path folded onto its end
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6), (6, 7)])
    with _spy("_sweep") as spy:
        report = weighted_suite_direct(g)
    assert spy.call_count >= 1
    assert [call.args[0].n for call in spy.call_args_list] == [5] * spy.call_count
    assert report.as_tuple() == oracle_suite(g).as_tuple()


@contextmanager
def _tree_builds():
    """The graphs whose BFS tree is built in the block, one entry a build:
    the calls of `graph._bfs_tree`, from any module, that find no kept tree."""
    built = []
    build = graph._bfs_tree

    def spy(g):
        if g._tree is None:
            built.append(g)
        return build(g)

    with ExitStack() as stack:
        for module in (graph, indices, theta):
            stack.enter_context(mock.patch.object(module, "_bfs_tree", spy))
        yield built


@pytest.mark.parametrize("g", [path_graph(5), _triangle_with_a_tail()], ids=["P5", "triangle with a tail"])
def test_direct_evaluation_walks_g_once(g):
    # one BFS tree is the connectivity check, the tree the bridges are
    # read from and the tree their sides fold over; no distance BFS runs
    g = build_graph(g.n, g.edges)  # a fresh graph, whose tree is not yet built
    with _tree_builds() as built, mock.patch.object(graph, "_bfs", wraps=graph._bfs) as bfs:
        report = weighted_suite_direct(g)
    assert (len(built), bfs.call_count) == (1, 0)
    assert report.as_tuple() == oracle_suite(g).as_tuple()


def _bridged_odd_graph(weights=int):
    # a triangle and a C5 joined by a bridge, and a two-bridge tail on the
    # C5, with weights: Theta* and the direct route both cut at the bridges
    g = build_graph(10, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3), (5, 8), (8, 9)])
    ints = random_weight_assignment(random.Random(38), g, hi=9)
    return g, WeightAssignment(*(tuple(map(weights, vec)) for vec in (ints.w, ints.w_prime, ints.lambda_prime)))


def test_one_tree_build_per_graph_across_theta_star_and_both_routes():
    # Theta*, the four cut kinds and the direct route on one graph build
    # its tree once. The direct calls take a new but equal wa, so that they
    # evaluate G itself instead of reading the cut evaluation
    g, wa = _bridged_odd_graph()
    copied = WeightAssignment(wa.w, wa.w_prime, wa.lambda_prime)
    with _tree_builds() as built, _spy("_sums") as spy:
        p = theta_star_partition(g)
        cut = {kind: general_cut_index(g, wa, p, kind) for kind in _CUT_KINDS}
        after_cut = spy.call_count
        direct = {kind: weighted_index(g, copied, kind) for kind in IndexKind}
    assert sum(h is g for h in built) == 1
    assert [call.args[0] for call in spy.call_args_list[after_cut:]] == [g]
    assert cut == {kind: oracle_general(g, wa, kind) for kind in _CUT_KINDS}
    assert direct == {kind: oracle_general(g, wa, kind) for kind in IndexKind}


@pytest.mark.parametrize("weights", [int, lambda x: Fraction(x, 3)], ids=["int", "Fraction"])
def test_total_szeged_after_the_cut_kinds_runs_no_evaluation(weights):
    # the shape of the benchmark's weighted-generic job: Theta*, the four
    # cut kinds, then Sz_t. Theta* certifies p on g's edges, so the cut
    # evaluation's fifth sum is Sz_t, and the direct call reads it
    g, wa = _bridged_odd_graph(weights)
    with _spy("_sums") as spy:
        p = theta_star_partition(g)
        got = {kind: general_cut_index(g, wa, p, kind) for kind in _CUT_KINDS}
        after_cut = spy.call_count
        got[IndexKind.SZ_T] = weighted_index(g, wa, IndexKind.SZ_T)
    assert after_cut == 2  # the quotients of the triangle and of the C5
    assert spy.call_count == after_cut
    assert got == {kind: oracle_general(g, wa, kind) for kind in IndexKind}


def _keyword_trusted_split_of_c6():
    # the raw keyword trusts this split of C6 on no edge list, and the
    # cut route gives it wrong totals with no error
    split = EdgePartition.from_labels([0, 1, 1, 1, 1, 1])
    return EdgePartition(split.classes, split.class_of, True)


def test_a_keyword_trusted_partition_is_never_read_by_the_direct_route():
    c6 = cycle_graph(6)
    wa = WeightAssignment.unit(c6)
    general_cut_index(c6, wa, _keyword_trusted_split_of_c6(), IndexKind.SZ)
    assert weighted_index(c6, wa, IndexKind.SZ_T) == oracle_general(c6, wa, IndexKind.SZ_T) == 150
    assert weighted_index(c6, wa, IndexKind.SZ) == oracle_general(c6, wa, IndexKind.SZ) == 54


@pytest.mark.parametrize("weights", [int, lambda x: Fraction(x, 3)], ids=["int", "Fraction"])
def test_the_memo_never_serves_the_total_szeged_row_to_another_kind(weights):
    # one row serves all five kinds, in any order
    g, wa = _bridged_odd_graph(weights)
    order = [IndexKind.SZ_T, *_CUT_KINDS]
    for kind in order + order[::-1]:
        assert weighted_index(g, wa, kind) == oracle_general(g, wa, kind), kind


def test_threads_on_a_fresh_graph_share_its_first_tree():
    # four threads start on one graph with no tree at once: each may build
    # and keep one, and every one must read a whole tree
    g, _ = _bridged_odd_graph()
    expected = {s: oracle_suite(g, s).as_tuple() for s in (False, True)}
    wrong, finished = [], []
    rounds = 100
    start = threading.Barrier(4)

    def work(i, fresh):
        start.wait()
        s = i % 2 == 1
        direct = weighted_suite_direct(fresh, s).as_tuple()
        cut = weighted_suite_cut(fresh, theta_star_partition(fresh), s).as_tuple()
        if direct != expected[s] or cut != expected[s]:
            wrong.append(i)
        finished.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            fresh = build_graph(g.n, g.edges)
            threads = [threading.Thread(target=work, args=(i, fresh)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(finished) == 4 * rounds
    assert wrong == []


_CUT_KINDS = (IndexKind.SZ, IndexKind.PI_V, IndexKind.SZ_E, IndexKind.PI)

# wide ints so that a bit plane above 64 carries mass, Fractions beside
# them, and zeros
_WIDE_WEIGHTS = st.one_of(
    st.just(0),
    st.integers(0, 2**70),
    st.fractions(min_value=0, max_value=2**70, max_denominator=12),
)


@pytest.mark.parametrize("source_bits", [1, 7, 64])
@pytest.mark.parametrize("bipartite", [True, False])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_multi_sweep_sides_match_oracle(source_bits, bipartite, data):
    # one source per sweep, several sweeps, or every source in one sweep;
    # the odd cycles of non-bipartite graphs put ties on the sides
    g, wa = data.draw(cyclic_weighted_graphs(bipartite, _WIDE_WEIGHTS))
    p = theta_star_partition(g)
    with mock.patch.object(graph, "_SOURCE_BITS", source_bits):
        direct = {kind: weighted_index(g, wa, kind) for kind in IndexKind}
        cut = {kind: general_cut_index(g, wa, p, kind) for kind in _CUT_KINDS}
    for kind in IndexKind:
        assert direct[kind] == oracle_general(g, wa, kind)
    for kind in _CUT_KINDS:
        assert cut[kind] == oracle_general(g, wa, kind)


# Fraction(k, p) over the primes below 2000: a graph's weights share a
# common denominator of a few hundred bits, so the scaled masses have as
# many bit planes
_PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]
_PRIME_FRACTIONS = st.builds(Fraction, st.integers(0, 50), st.sampled_from(_PRIMES))


@pytest.mark.parametrize("source_bits", [3, 4096])
@pytest.mark.parametrize("family", ["bipartite", "odd", "bridged"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_wide_denominators_match_oracle(source_bits, family, data):
    if family == "bridged":
        g, wa = data.draw(bridged_weighted_graphs(_PRIME_FRACTIONS))
    else:
        g, wa = data.draw(cyclic_weighted_graphs(family == "bipartite", _PRIME_FRACTIONS))
    with mock.patch.object(graph, "_SOURCE_BITS", source_bits):
        p = theta_star_partition(g)
        cut = {kind: general_cut_index(g, wa, p, kind) for kind in IndexKind}
        g._last = None  # so the direct route evaluates, reading no cut entry
        direct = {kind: weighted_index(g, wa, kind) for kind in IndexKind}
    for kind in IndexKind:
        expected = oracle_general(g, wa, kind)
        assert cut[kind] == expected and direct[kind] == expected


def _planes_bit_by_bit(masses):
    # plane b has bit i set iff bit b of masses[i] is set; zero planes left out
    planes = {}
    for i, mass in enumerate(masses):
        for b in range(mass.bit_length()):
            if mass >> b & 1:
                planes[b] = planes.get(b, 0) | 1 << i
    return planes


@st.composite
def _mass_lists(draw):
    width = draw(st.integers(1, 64))
    return draw(st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(masses=_mass_lists())
@example(masses=[0])
@example(masses=[0] * 7)
@example(masses=[1])
@example(masses=[2**64 - 1])
@example(masses=[3, 0, 2**63, 5])
# a 2678-bit mass, as wide as Fraction weights scaled by the lcm of many
# prime denominators, beside narrow masses
@example(masses=[0, 1 << 2677 | 0b1011, 6, 1])
def test_bit_planes_match_a_bit_by_bit_reference(masses):
    planes = indices._bit_planes(masses)
    assert len({b for b, _ in planes}) == len(planes)
    assert dict(planes) == _planes_bit_by_bit(masses)


def _complete_graph(k):
    return build_graph(k, [(a, b) for a in range(k) for b in range(a + 1, k)])


# unit weights: (Sz, PI_v, Sz_e, PI, Sz_t). On C3 and K4 the vertices off
# an edge are ties, and so is the edge of K4 opposite it.
@pytest.mark.parametrize(
    "g, expected",
    [
        (cycle_graph(3), (3, 6, 3, 6, 12)),
        (cycle_graph(5), (20, 20, 20, 20, 80)),
        (_complete_graph(4), (6, 12, 24, 24, 54)),
    ],
    ids=["C3", "C5", "K4"],
)
@pytest.mark.parametrize("source_bits", [1, 4096])
def test_small_graphs_with_ties(g, expected, source_bits):
    wa = WeightAssignment.unit(g)
    with mock.patch.object(graph, "_SOURCE_BITS", source_bits):
        got = tuple(weighted_index(g, wa, kind) for kind in IndexKind)
    assert got == expected
    assert got == tuple(oracle_general(g, wa, kind) for kind in IndexKind)


@pytest.mark.parametrize("source_bits", [1, 7, 4096])
def test_fullerene_patch_sweeps(source_bits):
    g = fullerene_patch()
    wa = random_weight_assignment(random.Random(59), g, hi=9)
    p = theta_star_partition(g)
    with mock.patch.object(graph, "_SOURCE_BITS", source_bits):
        assert weighted_suite_direct(g).as_tuple() == FULLERENE_TOTALS
        for kind in IndexKind:
            assert weighted_index(g, wa, kind) == oracle_general(g, wa, kind)
        for kind in _CUT_KINDS:
            assert general_cut_index(g, wa, p, kind) == oracle_general(g, wa, kind)


def test_callers_cannot_flag_classes_as_clean_cuts():
    # flags set by hand once made the cut route trust five bogus clean cuts
    # and print wSz_e = -6740 on the fullerene patch
    g = fullerene_patch()
    p = theta_star_partition(g)
    with pytest.raises(TypeError):
        EdgePartition(p.classes, p.class_of, True, two_sided=(True,) * 6)
    rewrapped = EdgePartition(p.classes, p.class_of, refined_by_theta_star=True)
    assert rewrapped.two_sided == ()
    assert weighted_suite_cut(g, rewrapped).as_tuple() == FULLERENE_TOTALS


def test_callers_cannot_declare_a_split_of_c6_trusted():
    # these labels split the Theta*-class {0, 3} of C6; declared trusted
    # through from_labels they gave (112, 96, 112, 96)
    c6 = cycle_graph(6)
    labels = [0, 1, 1, 1, 1, 1]
    assert weighted_suite_direct(c6).as_tuple() == (216, 144, 96, 96)
    with pytest.raises(TypeError):
        EdgePartition.from_labels(labels, True)
    with pytest.raises(InvalidCPartitionError):
        weighted_suite_cut(c6, EdgePartition.from_labels(labels))


def _star_k14():
    return build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


def test_a_certificate_holds_only_for_its_own_edge_list():
    # a Theta*-partition trusted for one graph was once trusted on any graph
    # with as many edges: P7's six bridges on C6 gave (140, 144, 20, 96) and
    # Sz = 35, and C4's two clean cuts on the star K1,4 gave (120, 100, 0, 40)
    c6 = cycle_graph(6)
    bridges = theta_star_partition(path_graph(7))
    with pytest.raises(InvalidCPartitionError):
        weighted_suite_cut(c6, bridges)
    with pytest.raises(InvalidCPartitionError):
        general_cut_index(c6, WeightAssignment.unit(c6), bridges, IndexKind.SZ)
    # C4's classes are a c-partition of the star; only their flags are wrong
    k14 = _star_k14()
    report = weighted_suite_cut(k14, theta_star_partition(cycle_graph(4)))
    assert report.as_tuple() == oracle_suite(k14).as_tuple() == (80, 100, 0, 60)


# Two writers of the trust flag are still bound to no edge list: the raw
# constructor keyword and replace(). Each gives wrong C6 values with no
# error; the fix makes `refined_by_theta_star` an init=False field, which
# waits on the benchmark's own keyword call, and then drops these markers.
_C6_SUITE = (216, 144, 96, 96)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="the raw keyword trusts a split: (112, 96, 112, 96)"
)
def test_the_raw_trust_keyword_cannot_pass_a_split_of_c6():
    c6 = cycle_graph(6)
    split = EdgePartition.from_labels([0, 1, 1, 1, 1, 1])
    forged = EdgePartition(split.classes, split.class_of, True)
    assert weighted_suite_cut(c6, forged).as_tuple() == _C6_SUITE


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="replace() drops the edge list: (0, 0, 0, 0)"
)
def test_a_replaced_certificate_of_p7_cannot_pass_on_c6():
    c6 = cycle_graph(6)
    copied = replace(theta_star_partition(path_graph(7)))
    assert weighted_suite_cut(c6, copied).as_tuple() == _C6_SUITE


def _validations():
    return mock.patch.object(theta, "_clean_cuts", wraps=theta._clean_cuts)


def test_a_certificate_holds_on_an_equal_reparse():
    # the certificate is the edge list, compared by value: a fresh parse of
    # the same text is not validated again, nor is the graph it came from
    g = build_benzenoid(HexSpec.linear_chain(3)).graph
    again = parse_edge_list(format_edge_list(g))
    assert again.edges is not g.edges
    p = theta_star_partition(g)
    with _validations() as spy:
        assert weighted_suite_cut(again, p) == weighted_suite_cut(g, p)
    assert spy.call_count == 0
    # the same edges in another order are another edge list, on which the
    # edge ids of p name other edges
    with _validations() as spy, pytest.raises(InvalidCPartitionError):
        weighted_suite_cut(build_graph(g.n, g.edges[::-1]), p)
    assert spy.call_count == 1


def test_whole_fraction_weights_equal_int_weights():
    # Fraction(3) has denominator 1, so it must still reach the engine as 3
    rng = random.Random(61)
    for _ in range(10):
        g = random_connected_graph(rng, min_n=3, max_n=9, extra=0.4)
        ints = random_weight_assignment(rng, g)
        whole = WeightAssignment(
            *(tuple(map(Fraction, vec)) for vec in (ints.w, ints.w_prime, ints.lambda_prime))
        )
        scaled, d = indices._integral(whole)
        assert d == 1
        for vec in (scaled.w, scaled.w_prime, scaled.lambda_prime):
            assert all(type(x) is int for x in vec)
        p = theta_star_partition(g)
        for kind in IndexKind:
            assert weighted_index(g, whole, kind) == weighted_index(g, ints, kind)
        for kind in _CUT_KINDS:
            assert general_cut_index(g, whole, p, kind) == general_cut_index(g, ints, p, kind)


# ---------------------------------------------------------------------------
# partial cubes: every class from one subtree aggregation, no quotients
# ---------------------------------------------------------------------------

def _unflagged(p):
    # the same classes, trusted but without the two_sided flags, so the
    # cut method builds one quotient per class
    return EdgePartition(p.classes, p.class_of, refined_by_theta_star=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 5), st.booleans(), st.integers(0, 10**9))
def test_cube_aggregation_matches_oracle_suite(d, downset, seed):
    g = cube_subgraph(random.Random(seed), d, downset)
    p = theta_star_partition(g)
    assert all(p.two_sided) == oracle_is_partial_cube(g)
    assert all(p.two_sided) or not downset
    for starred in (False, True):
        report = weighted_suite_cut(g, p, starred)
        assert report.as_tuple() == oracle_suite(g, starred).as_tuple()
        assert report == weighted_suite_cut(g, _unflagged(p), starred)


_CUBE_WEIGHTS = st.one_of(
    st.just(0),
    st.integers(0, 50),
    st.fractions(min_value=0, max_value=50, max_denominator=12),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 5), st.booleans(), st.integers(0, 10**9), st.data())
def test_cube_aggregation_matches_oracle_general(d, downset, seed, data):
    g = cube_subgraph(random.Random(seed), d, downset)
    wa = WeightAssignment(
        *(
            tuple(data.draw(st.lists(_CUBE_WEIGHTS, min_size=k, max_size=k)))
            for k in (g.n, g.m, g.m)
        )
    )
    p = theta_star_partition(g)
    for kind in _CUT_KINDS:
        expected = oracle_general(g, wa, kind)
        assert general_cut_index(g, wa, p, kind) == expected
        assert general_cut_index(g, wa, _unflagged(p), kind) == expected


def test_partial_cube_cut_builds_no_quotient():
    for dlg in (linear_phenylene(100), build_benzenoid(CORONENE)):
        g = dlg.graph
        expected = weighted_suite_cut(g, dlg.direction_partition())
        p = theta_star_partition(g)
        assert all(p.two_sided)
        with mock.patch.object(
            indices, "quotient_graph", side_effect=AssertionError("quotient built")
        ):
            report = weighted_suite_cut(g, p)
            starred = weighted_suite_cut(g, p, starred=True)
        assert report.as_tuple() == expected.as_tuple()
        assert starred == weighted_suite_cut(g, _unflagged(p), starred=True)
        assert len(report.per_class) == len(p)


def test_each_quotient_is_freed_before_the_next_is_built(monkeypatch):
    # a partition trusted without flags builds one quotient per class; the
    # cut route drops each, with its adjacency and tree, before the next
    dlg = linear_phenylene(20)
    p = dlg.direction_partition()
    built = []

    def spy(g, wa, f):
        assert all(ref() is None for ref in built), "an earlier quotient is still alive"
        q = quotient_graph(g, wa, f)
        built.append(weakref.ref(q))
        return q

    monkeypatch.setattr(indices, "quotient_graph", spy)
    report = weighted_suite_cut(dlg.graph, p)
    assert len(built) == len(p)
    assert report.as_tuple() == weighted_suite_direct(dlg.graph).as_tuple()


@pytest.mark.parametrize(
    "g, builds",
    [
        (build_graph(5, [(u, 2 + v) for u in range(2) for v in range(3)]), 1),  # K2,3
        (fullerene_patch(), 1),  # five of its six classes are two-sided
        (cycle_graph(5), 1),
    ],
    ids=["K2,3", "patch", "C5"],
)
def test_other_theta_star_partitions_build_one_quotient_per_class(g, builds):
    p = theta_star_partition(g)
    assert not all(p.two_sided)
    with mock.patch.object(indices, "quotient_graph", wraps=quotient_graph) as spy:
        report = weighted_suite_cut(g, p)
    assert spy.call_count == builds
    assert report.as_tuple() == oracle_suite(g).as_tuple()


# ---------------------------------------------------------------------------
# two-sided classes in any graph: bridges and other clean cuts skip their
# quotients
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("odd", "pendant")), st.data())
def test_two_sided_rows_match_oracle(family, data):
    if family == "odd":
        g, wa = data.draw(cyclic_weighted_graphs(False, _CUBE_WEIGHTS))
    else:
        g, wa = data.draw(pendant_weighted_graphs(_CUBE_WEIGHTS))
    p = theta_star_partition(g)
    for kind in _CUT_KINDS:
        expected = oracle_general(g, wa, kind)
        assert general_cut_index(g, wa, p, kind) == expected
        assert general_cut_index(g, wa, _unflagged(p), kind) == expected
    for starred in (False, True):
        report = weighted_suite_cut(g, p, starred)
        assert report.as_tuple() == oracle_suite(g, starred).as_tuple()
        assert report == weighted_suite_cut(g, _unflagged(p), starred)
    # one quotient per class that is not two-sided, none for the others:
    # each lies in one bridgeless piece, whose quotient it builds
    with mock.patch.object(indices, "quotient_graph", wraps=quotient_graph) as spy:
        weighted_suite_cut(g, p)
    assert spy.call_count == p.two_sided.count(False)
    rest = {c: set(members) for c, (members, f) in enumerate(zip(p.classes, p.two_sided)) if not f}
    assert built_parts(spy) == rest_parts(g, rest)


def _five_ring_chain(k):
    # k five-rings, each joined to the next by a bond from its vertex 2:
    # every ring is one Theta*-class that is not two-sided, a class whose
    # rest is the whole ring, and the bonds are bridges
    edges = [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(k) for j in range(5)]
    return build_graph(5 * k, edges + [(5 * i + 2, 5 * i + 5) for i in range(k - 1)])


@pytest.mark.parametrize(
    "k, reference",
    [(20, oracle_suite), (200, weighted_suite_direct)],
    ids=["20 rings, oracle", "200 rings, direct route"],
)
def test_a_chain_of_five_rings_matches_its_reference(k, reference):
    g = _five_ring_chain(k)
    p = theta_star_partition(g)
    assert p.two_sided.count(False) == k
    for starred in (False, True):
        assert weighted_suite_cut(g, p, starred).as_tuple() == reference(g, starred).as_tuple()


def test_a_chain_of_five_rings_scans_g_a_bounded_number_of_times():
    # each of the 200 ring classes builds the quotient of its rest on its
    # own ring, a bridgeless piece; a build on G scanned all n + m of it,
    # 439 800 in all. The bound allows a few passes over G
    g = _five_ring_chain(200)
    p = theta_star_partition(g)
    with _builds() as spy:
        weighted_suite_cut(g, p)
    assert sum(call.args[0].n + call.args[0].m for call in spy.call_args_list) <= 4 * (g.n + g.m)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 12 (blocks): a spiro chain is one bridgeless piece, "
    "so each ring's quotient scans all of G, 360 200 against n + m = 1801",
)
def test_a_spiro_chain_of_five_rings_scans_g_a_bounded_number_of_times():
    # 200 five-rings, each sharing one vertex with the next: every ring is
    # a Theta*-class that is no clean cut, and the chain has no bridge
    k = 200
    g = build_graph(4 * k + 1, [(4 * i + j, 4 * i + (j + 1) % 5) for i in range(k) for j in range(5)])
    p = theta_star_partition(g)
    assert p.two_sided.count(False) == k
    with _builds() as spy:
        assert weighted_suite_cut(g, p).as_tuple() == weighted_suite_direct(g).as_tuple()
    assert sum(call.args[0].n + call.args[0].m for call in spy.call_args_list) <= 4 * (g.n + g.m)


def _triangle_with_tail():
    # the triangle is one Theta*-class that is no clean cut; the two
    # bridges 2-3 and 3-4 are two-sided classes of their own
    return build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])


def _builds():
    return mock.patch.object(indices, "quotient_graph", wraps=quotient_graph)


def _rows(report):
    # the four values of each per-class row, without its class number
    return [astuple(c)[1:] for c in report.per_class]


@pytest.mark.parametrize(
    "labels, flags",
    [
        ([0, 0, 0, 1, 2], (False, True, True)),   # every class alone
        ([0, 0, 0, 1, 0], (False, True)),         # the far bridge joins the triangle
        ([0, 0, 0, 1, 1], (False, False)),        # the two bridges merged
        ([0, 0, 0, 0, 1], (False, True)),         # the near bridge joins the triangle
    ],
)
def test_a_validated_partition_is_flagged_on_its_lone_two_sided_classes(labels, flags):
    # a validated partition once came back with no flags, so each of its
    # classes built a quotient, which is quadratic on a file of bridges;
    # later a class holding a bridge still built its whole quotient. The
    # gate returns the Theta*-partition, whose flags mark the classes of p
    # that are one two-sided Theta*-class (`flags`), and the triangle, the
    # one Theta*-class that is no clean cut, is the only quotient built
    g = _triangle_with_tail()
    p = EdgePartition.from_labels(labels)
    star = theta._require_c_partition(g, p)
    assert star == theta_star_partition(g) and star.two_sided == (False, True, True)
    clean = {f for f, sided in zip(star.classes, star.two_sided) if sided}
    assert tuple(c in clean for c in p.classes) == flags
    with _builds() as spy:
        for starred in (False, True):
            report = weighted_suite_cut(g, p, starred)
            assert report.as_tuple() == oracle_suite(g, starred).as_tuple()
    # built on the triangle's piece, whose vertices 0, 1, 2 and edges 0, 1, 2
    # are G's, in BFS order from G's vertex 0
    assert built_parts(spy) == [(((0, 1), (1, 2), (2, 0)), [0, 1, 2])] * 2


def test_flags_follow_the_classes_not_their_numbers():
    # the raw constructor takes classes in any order: rows added by class
    # number off the Theta*-partition would give the triangle a bridge's row
    g = _triangle_with_tail()
    star = theta_star_partition(g)
    assert star.two_sided == (False, True, True)
    k = len(star)
    reverse = EdgePartition(star.classes[::-1], tuple(k - 1 - c for c in star.class_of))
    assert theta._require_c_partition(g, reverse) == star
    for starred in (False, True):
        forward = _rows(weighted_suite_cut(g, star, starred))
        assert _rows(weighted_suite_cut(g, reverse, starred)) == forward[::-1]
    wa = random_weight_assignment(random.Random(79), g, hi=9)
    with _builds() as spy:
        assert weighted_suite_cut(g, reverse).as_tuple() == oracle_suite(g).as_tuple()
        for kind in _CUT_KINDS:
            assert general_cut_index(g, wa, reverse, kind) == oracle_general(g, wa, kind)
    assert spy.call_count == 2


@pytest.mark.parametrize(
    "labels",
    [[0, 0, 0, 1, 2, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0], [0] * 8],
    ids=["bridges alone", "bridges together", "one class"],
)
def test_a_rest_that_spans_two_pieces_builds_a_quotient_on_each(labels):
    # two triangles joined by a path of two bridges, both triangles in one
    # class: its rest lies in two bridgeless pieces, each weighted with the
    # far triangle and the path hanging on its end vertex
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)])
    p = EdgePartition.from_labels(labels)
    wa = random_weight_assignment(random.Random(89), g, hi=9)
    with _builds() as spy:
        rows, d = indices._evaluate(g, wa, p)
    # the triangles' pieces, {0, 1, 2} and {4, 5, 6} in BFS order, have
    # one edge tuple
    assert built_parts(spy) == [(((0, 1), (1, 2), (2, 0)), [0, 1, 2])] * 2
    assert built_parts(spy) == rest_parts(g, {0: {0, 1, 2, 5, 6, 7}})
    for row, members in zip(rows, p.classes, strict=True):
        assert indices._totals([row], d) == _whole_quotient_row(g, wa, members)
    assert indices._totals(rows, d) == tuple(oracle_general(g, wa, kind) for kind in IndexKind)
    for starred in (False, True):
        assert weighted_suite_cut(g, p, starred).as_tuple() == oracle_suite(g, starred).as_tuple()


def test_the_cut_route_reads_its_bridges_off_the_theta_star_partition():
    # a bridge is a one-edge Theta*-class, whose sides the pass over the
    # clean cuts gives: the cut route looks for no bridge of G, and the
    # engine looks once in each ring's quotient, a C5, as it did when the
    # quotients were built on G
    g = _five_ring_chain(20)
    p = theta_star_partition(g)
    with _spy("_bridges") as spy, mock.patch.object(graph, "_bridges", wraps=graph._bridges) as found:
        assert weighted_suite_cut(g, p).as_tuple() == oracle_suite(g).as_tuple()
    assert [(call.args[0].n, call.args[0].m) for call in spy.call_args_list] == [(5, 5)] * 20
    assert found.call_count == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: linear_phenylene(6),
        lambda: build_phenylene(ZIGZAG4),
        lambda: build_benzenoid(HexSpec.linear_chain(6)),
        lambda: build_benzenoid(ZIGZAG4),
    ],
    ids=["PH6", "zigzag phenylene", "BZ6", "zigzag benzenoid"],
)
def test_validated_direction_labels_build_no_quotient(make):
    # every direction class of a molecule is a union of two-sided
    # Theta*-classes, so its validated labels are read from one pass over
    # G; they once built a quotient for each class of several such cuts
    dlg = make()
    g = dlg.graph
    labels = EdgePartition.from_labels(dlg.direction_of)
    for starred in (False, True):
        expected = weighted_suite_cut(g, dlg.direction_partition(), starred)
        with mock.patch.object(
            indices, "quotient_graph", side_effect=AssertionError("quotient built")
        ):
            assert weighted_suite_cut(g, labels, starred) == expected


def _coarsening(star, seed):
    # the Theta*-classes dealt into a random number of groups
    rng = random.Random(seed)
    k = rng.randint(1, len(star))
    group = [rng.randrange(k) for _ in star.classes]
    return EdgePartition.from_labels(group[c] for c in star.class_of)


def _whole_quotient_row(g, wa, members):
    """The five sums of one class, by the oracle on its whole quotient."""
    q = quotient_graph(g, wa, members)
    on_w = WeightAssignment(q.w, q.w_prime, q.lambda_prime)
    on_lam = WeightAssignment(q.lam, q.w_prime, q.lambda_prime)
    on_both = WeightAssignment(tuple(map(add, q.w, q.lam)), q.w_prime, q.lambda_prime)
    return (
        oracle_general(q.graph, on_w, IndexKind.SZ),
        oracle_general(q.graph, on_w, IndexKind.PI_V),
        oracle_general(q.graph, on_lam, IndexKind.SZ_T),
        oracle_general(q.graph, on_lam, IndexKind.PI_V)
        + oracle_general(q.graph, on_lam, IndexKind.PI),
        oracle_general(q.graph, on_both, IndexKind.SZ_T),
    )


@settings(max_examples=100, deadline=None)
@given(
    st.booleans().flatmap(lambda bipartite: cyclic_weighted_graphs(bipartite, _CUBE_WEIGHTS)),
    st.integers(0, 2**32),
)
@example(
    (_triangle_with_tail(), random_weight_assignment(random.Random(83), _triangle_with_tail(), hi=9)),
    7,  # groups [0, 0, 0, 1, 0]: the far bridge shares the triangle's class
)
def test_each_class_row_equals_its_whole_quotient(graph_and_weights, seed):
    # a class is read as its two-sided Theta*-classes plus one quotient of
    # the rest, which must give the row of the class's whole quotient
    g, wa = graph_and_weights
    star = theta_star_partition(g)
    p = _coarsening(star, seed)
    rest = {}
    for members, sided in zip(star.classes, star.two_sided):
        if not sided:
            rest.setdefault(p.class_of[min(members)], set()).update(members)
    rows, d = indices._evaluate(g, wa, p)
    for row, members in zip(rows, p.classes, strict=True):
        assert indices._totals([row], d) == _whole_quotient_row(g, wa, members)
    # the rows' fifth sums total Sz_t of G
    assert indices._totals(rows, d)[4] == oracle_general(g, wa, IndexKind.SZ_T)
    with _builds() as spy:
        for starred in (False, True):
            degree = WeightAssignment.degree_weighted(g, starred)
            assert _rows(weighted_suite_cut(g, p, starred)) == [
                _whole_quotient_row(g, degree, members)[:4] for members in p.classes
            ]
    assert built_parts(spy) == rest_parts(g, rest) * 2


# ---------------------------------------------------------------------------
# one evaluation per input: per-kind calls on the same objects share it
# ---------------------------------------------------------------------------

def _patch_inputs(weights=int):
    g = fullerene_patch()
    ints = random_weight_assignment(random.Random(67), g, hi=9)
    wa = WeightAssignment(
        *(tuple(map(weights, vec)) for vec in (ints.w, ints.w_prime, ints.lambda_prime))
    )
    return g, wa, theta_star_partition(g)


def _spy(name):
    return mock.patch.object(indices, name, wraps=getattr(indices, name))


@pytest.mark.parametrize("weights", [int, lambda x: Fraction(x, 3)], ids=["int", "Fraction"])
def test_four_cut_kinds_share_one_evaluation(weights):
    g, wa, p = _patch_inputs(weights)
    with _spy("_class_contributions") as spy:
        got = {kind: general_cut_index(g, wa, p, kind) for kind in _CUT_KINDS}
    assert spy.call_count == 1
    assert got == {kind: oracle_general(g, wa, kind) for kind in _CUT_KINDS}


def test_direct_kinds_share_one_evaluation_per_lam():
    # all five kinds read one row, taken with lam = 0
    g, wa, _ = _patch_inputs()
    with _spy("_sums") as spy:
        got = {kind: weighted_index(g, wa, kind) for kind in IndexKind}
    assert spy.call_count == 1
    assert got == {kind: oracle_general(g, wa, kind) for kind in IndexKind}


def test_new_but_equal_objects_evaluate_again():
    g, wa, p = _patch_inputs()
    expected = general_cut_index(g, wa, p, IndexKind.SZ)
    reparsed = parse_edge_list(format_edge_list(g))
    copied = WeightAssignment(wa.w, wa.w_prime, wa.lambda_prime)
    for args in ((reparsed, wa, p), (g, copied, p), (g, wa, theta_star_partition(g))):
        general_cut_index(g, wa, p, IndexKind.SZ)
        with _spy("_class_contributions") as spy:
            assert general_cut_index(*args, IndexKind.SZ) == expected
        assert spy.call_count == 1


def test_alternating_weight_assignments_match_oracle():
    g, wa, p = _patch_inputs()
    other = random_weight_assignment(random.Random(71), g, hi=9)
    assert oracle_general(g, wa, IndexKind.SZ) != oracle_general(g, other, IndexKind.SZ)
    for kind in _CUT_KINDS:
        for weights in (wa, other, wa):
            assert general_cut_index(g, weights, p, kind) == oracle_general(g, weights, kind)
    g._last = None  # so the first direct call evaluates, reading no cut entry
    for kind in IndexKind:
        for weights in (wa, other, wa):
            assert weighted_index(g, weights, kind) == oracle_general(g, weights, kind)


def test_an_evaluation_lives_no_longer_than_its_graph():
    # reference counting alone must free the caller's weights and partition
    g = cycle_graph(7)
    wa = random_weight_assignment(random.Random(7), g)
    p = theta_star_partition(g)
    general_cut_index(g, wa, p, IndexKind.SZ)
    weighted_index(g, wa, IndexKind.SZ_T)
    refs = weakref.ref(wa), weakref.ref(p)
    del wa, p
    with graph._collector_paused():
        assert all(ref() is not None for ref in refs)
        del g
        assert all(ref() is None for ref in refs)


def test_interleaved_graphs_keep_their_own_evaluations():
    inputs = []
    for n in (6, 7):
        g = cycle_graph(n)
        inputs.append((g, random_weight_assignment(random.Random(n), g), theta_star_partition(g)))
    with _spy("_class_contributions") as spy:
        for g, wa, p in inputs + inputs:
            for kind in IndexKind:
                assert general_cut_index(g, wa, p, kind) == oracle_general(g, wa, kind)
    assert spy.call_count == 2


def test_kind_checks_run_on_a_hit():
    g, wa, p = _patch_inputs()
    general_cut_index(g, wa, p, IndexKind.SZ)
    assert general_cut_index(g, wa, p, IndexKind.SZ_T) == oracle_general(g, wa, IndexKind.SZ_T)
    with pytest.raises(UnsupportedKindError):
        general_cut_index(g, wa, p, "Sz")
    weighted_index(g, wa, IndexKind.SZ)
    with pytest.raises(UnsupportedKindError):
        weighted_index(g, wa, "Sz")


def _disconnected():
    g = build_graph(2, [])
    return (g, WeightAssignment.unit(g), EdgePartition.from_labels([])), DisconnectedError


def _misshaped():
    g = cycle_graph(6)
    wa = WeightAssignment.unit(cycle_graph(5))
    return (g, wa, theta_star_partition(g)), InvalidWeightError


def _splitting():
    # C6 has three Theta*-classes of opposite edges; these halves split them
    g = cycle_graph(6)
    p = EdgePartition.from_classes([[0, 1, 2], [3, 4, 5]], 6)
    return (g, WeightAssignment.unit(g), p), InvalidCPartitionError


@pytest.mark.parametrize("bad", [_disconnected, _misshaped, _splitting])
def test_a_call_that_raises_stores_nothing(bad):
    g, wa, p = _patch_inputs()
    expected = general_cut_index(g, wa, p, IndexKind.SZ)
    args, error = bad()
    for _ in range(2):
        with pytest.raises(error):
            general_cut_index(*args, IndexKind.SZ)
    with _spy("_class_contributions") as spy:
        assert general_cut_index(g, wa, p, IndexKind.SZ) == expected
    assert spy.call_count == 0


def test_unflagged_partition_is_validated_once_per_input():
    g, wa, p = _patch_inputs()
    unflagged = EdgePartition.from_classes(p.classes, g.m)
    with _validations() as spy:
        for weights in (wa, WeightAssignment.unit(g)):
            for kind in _CUT_KINDS:
                assert general_cut_index(g, weights, unflagged, kind) == oracle_general(
                    g, weights, kind
                )
    assert spy.call_count == 2


def _race(work):
    """Run work(0) .. work(3) in four threads at a short switch interval;
    each returns what it got wrong."""
    wrong, finished = [], []

    def run(i):
        wrong.extend(work(i))
        finished.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == [0, 1, 2, 3]
    assert wrong == []


def test_threads_sharing_the_memo_each_get_their_own_totals():
    # threads that alternate two weight assignments on one g and p: a
    # torn read of the entry would hand one thread the other's totals
    g, wa, p = _patch_inputs()
    weights = (wa, random_weight_assignment(random.Random(73), g, hi=9))
    expected = [{kind: oracle_general(g, w, kind) for kind in _CUT_KINDS} for w in weights]

    def work(i):
        return [
            (i, kind)
            for _ in range(1000)
            for kind in _CUT_KINDS
            if general_cut_index(g, weights[i % 2], p, kind) != expected[i % 2][kind]
        ]

    _race(work)


def test_threads_mixing_the_routes_on_the_memo_get_the_direct_totals():
    # threads that run the cut kinds of one C6 on its Theta*-partition or on
    # a keyword-trusted split, each time followed by every direct kind: a
    # direct call may read the certified entry, never the trusted one
    c6 = cycle_graph(6)
    wa = WeightAssignment.unit(c6)
    partitions = (theta_star_partition(c6), _keyword_trusted_split_of_c6())
    expected = {kind: oracle_general(c6, wa, kind) for kind in IndexKind}

    def work(i):
        wrong = []
        for _ in range(300):
            for kind in _CUT_KINDS:
                general_cut_index(c6, wa, partitions[i % 2], kind)
            wrong += [(i, k) for k in IndexKind if weighted_index(c6, wa, k) != expected[k]]
        return wrong

    _race(work)


def test_int_weights_reach_the_engine_uncopied():
    _, wa, _ = _patch_inputs()
    scaled, d = indices._integral(wa)
    assert scaled is wa and d == 1


def test_suites_leave_the_memo_as_it_was():
    # a stored suite would keep the last molecule alive until the next call
    g, wa, p = _patch_inputs()
    general_cut_index(g, wa, p, IndexKind.SZ)
    entry = g._last
    for starred in (False, True):
        weighted_suite_cut(g, p, starred)
        weighted_suite_direct(g, starred)
        assert g._last is entry
    with _spy("_class_contributions") as spy:
        general_cut_index(g, wa, p, IndexKind.PI)
    assert spy.call_count == 0


def test_suite_validates_an_unflagged_partition_once():
    g, _, p = _patch_inputs()
    unflagged = EdgePartition.from_classes(p.classes, g.m)
    with _validations() as spy:
        report = weighted_suite_cut(g, unflagged)
    assert spy.call_count == 1
    assert report.as_tuple() == oracle_suite(g).as_tuple()
