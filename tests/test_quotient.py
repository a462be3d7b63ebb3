import random
from fractions import Fraction
from unittest import mock

import pytest

from szegedcut import (
    IndexKind,
    InvalidWeightError,
    PartitionNotCoveringError,
    SzegedCutError,
    WeightAssignment,
    build_graph,
    distance_decomposition_check,
    oracle_edge_sides,
    oracle_general,
    quotient_graph,
    theta_star_partition,
    weighted_index,
)
from szegedcut import indices

from conftest import (
    cycle_graph,
    quotient_edge_members,
    random_connected_graph,
    random_weight_assignment,
)


def test_weight_assignment_rejects_negative():
    with pytest.raises(ValueError):
        WeightAssignment((1, -1), (1,), (1,))


@pytest.mark.parametrize("name", ["w", "w_prime", "lambda_prime"])
def test_weight_assignment_rejects_one_negative_fraction_among_positive_ones(name):
    # the sign check reads numerators; a Fraction's sign is its numerator's
    weights = {"w": [Fraction(1, 2), 3, Fraction(5, 7)], "w_prime": [1, Fraction(2, 3)], "lambda_prime": [Fraction(4, 3), 2]}
    weights[name][1] = Fraction(-1, 3)
    with pytest.raises(InvalidWeightError, match=f"^negative {name} value$"):
        WeightAssignment(**weights)


@pytest.mark.parametrize(
    "weights",
    [
        ((0.1, 0.2), (0.3,), (1,)),       # floats
        ((1, 1), (True,), (1,)),          # bool is not an exact weight
        ((1, 1), (1,), ("1",)),
    ],
)
def test_weight_assignment_rejects_inexact_values(weights):
    with pytest.raises(InvalidWeightError) as info:
        WeightAssignment(*weights)
    assert isinstance(info.value, SzegedCutError)
    assert isinstance(info.value, ValueError)


def test_weight_assignment_accepts_ints_and_fractions():
    wa = WeightAssignment((0, Fraction(1, 3)), (Fraction(2),), (7,))
    assert wa.w == (0, Fraction(1, 3))


def test_weight_assignment_keeps_the_weights_it_validated():
    # a caller's list edited after construction used to reach the engine,
    # which failed on the float with AttributeError in `_integral`
    w = [1] * 4
    wa = WeightAssignment(w, [1] * 5, [1] * 5)
    w[0] = 0.5
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert weighted_index(g, wa, IndexKind.SZ) == oracle_general(g, wa, IndexKind.SZ)
    assert wa.w == (1, 1, 1, 1)


def test_weight_assignment_factories():
    c6 = cycle_graph(6)
    unit = WeightAssignment.unit(c6)
    assert set(unit.w) == {1} and set(unit.w_prime) == {1}
    plain = WeightAssignment.degree_weighted(c6)
    assert set(plain.w_prime) == {4}
    starred = WeightAssignment.degree_weighted(c6, starred=True)
    assert set(starred.w_prime) == {4}
    star = WeightAssignment.degree_weighted(build_graph(3, [(0, 1), (1, 2)]), starred=True)
    assert star.w_prime == (2, 2)


def test_weights_the_package_makes_skip_the_constructor_check():
    # unit and degree weights, and the scaled ints of `_integral`, are
    # built from constants, degrees and checked weights: none is re-checked
    c6 = cycle_graph(6)
    thirds = WeightAssignment((Fraction(1, 3),) * 6, (Fraction(1, 2),) * 6, (1,) * 6)
    refuse = AssertionError("WeightAssignment.__post_init__ ran")
    with mock.patch.object(WeightAssignment, "__post_init__", side_effect=refuse):
        with pytest.raises(AssertionError):   # the patch holds for the public constructor
            WeightAssignment((1,), (), ())
        unit = WeightAssignment.unit(c6)
        plain = WeightAssignment.degree_weighted(c6)
        starred = WeightAssignment.degree_weighted(c6, starred=True)
        scaled, d = indices._integral(thirds)
    assert (unit.w, unit.w_prime, unit.lambda_prime) == ((1,) * 6, (1,) * 6, (1,) * 6)
    assert plain.w_prime == (4,) * 6 and starred.w_prime == (4,) * 6
    assert d == 6
    assert (scaled.w, scaled.w_prime, scaled.lambda_prime) == ((2,) * 6, (3,) * 6, (6,) * 6)
    assert unit == WeightAssignment((1,) * 6, (1,) * 6, (1,) * 6)


def test_shape_mismatch_rejected():
    c6 = cycle_graph(6)
    wa = WeightAssignment.unit(cycle_graph(5))
    with pytest.raises(ValueError):
        quotient_graph(c6, wa, [0])


def test_shape_mismatch_is_a_weight_error():
    c6 = cycle_graph(6)
    with pytest.raises(InvalidWeightError):
        quotient_graph(c6, WeightAssignment.unit(cycle_graph(5)), [0])


@pytest.mark.parametrize("eid", [-1, 6])
def test_quotient_rejects_edge_ids_outside_the_graph(eid):
    c6 = cycle_graph(6)
    with pytest.raises(PartitionNotCoveringError):
        quotient_graph(c6, WeightAssignment.unit(c6), [0, eid])


def test_c6_opposite_pair_quotient():
    c6 = cycle_graph(6)
    wa = WeightAssignment.degree_weighted(c6)
    q = quotient_graph(c6, wa, [0, 3])   # an opposite Theta*-pair
    assert q.graph.n == 2 and q.graph.m == 1
    assert q.w == (3, 3)
    assert q.lam == (2, 2)
    assert q.lambda_prime == (2,)
    assert q.w_prime == (8,)
    # the one quotient edge carries both removed edges
    assert quotient_edge_members(c6, q, [0, 3]) == {q.graph.edges[0]: [0, 3]}


def test_empty_class_gives_one_vertex_quotient():
    c6 = cycle_graph(6)
    wa = WeightAssignment.unit(c6)
    q = quotient_graph(c6, wa, [])
    assert q.graph.n == 1 and q.graph.m == 0
    assert q.w == (6,)
    assert q.lam == (6,)   # every edge is internal
    assert all(q.component_map[v] == 0 for v in range(6))


def test_full_edge_set_gives_isomorphic_quotient():
    rng = random.Random(2)
    for _ in range(10):
        g = random_connected_graph(rng, max_n=8)
        wa = random_weight_assignment(rng, g, lo=1)
        q = quotient_graph(g, wa, range(g.m))
        assert q.graph.n == g.n and q.graph.m == g.m
        # canonical component order makes the vertex map the identity
        assert q.component_map == tuple(range(g.n))
        assert q.w == wa.w
        assert set(q.lam) == {0}
        members = quotient_edge_members(g, q, range(g.m))
        assert set(members) == set(q.graph.edges)
        for qeid, pair in enumerate(q.graph.edges):
            [e] = members[pair]
            assert set(pair) == set(g.edges[e])
            assert q.w_prime[qeid] == wa.w_prime[e]


def test_c6_component_membership():
    c6 = cycle_graph(6)
    q = quotient_graph(c6, WeightAssignment.unit(c6), [0, 3])
    # removing edges (0,1) and (3,4) leaves arcs {1,2,3} and {4,5,0}
    cm = q.component_map
    assert cm[1] == cm[2] == cm[3]
    assert cm[4] == cm[5] == cm[0]
    assert cm[0] != cm[1]


def test_weight_conservation_over_theta_classes():
    rng = random.Random(13)
    for _ in range(25):
        g = random_connected_graph(rng)
        wa = random_weight_assignment(rng, g)
        star = theta_star_partition(g)
        for members in star.classes:
            q = quotient_graph(g, wa, members)
            assert sum(q.w) == sum(wa.w)
            fiber_lam = sum(q.lambda_prime)
            assert sum(q.lam) + fiber_lam == sum(wa.lambda_prime)
            assert sum(q.w_prime) == sum(wa.w_prime[e] for e in members)
            # quotient edge (a, b) carries exactly the F-edges joining a
            # and b, and with them their w' and lambda'
            crossing = quotient_edge_members(g, q, members)
            assert sorted(crossing) == list(q.graph.edges)
            assert sorted(e for es in crossing.values() for e in es) == sorted(members)
            for qeid, pair in enumerate(q.graph.edges):
                assert q.w_prime[qeid] == sum(wa.w_prime[e] for e in crossing[pair])
                assert q.lambda_prime[qeid] == sum(
                    wa.lambda_prime[e] for e in crossing[pair]
                )


def test_endpoints_of_class_edges_map_to_adjacent_components():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rng)
        wa = WeightAssignment.unit(g)
        star = theta_star_partition(g)
        for members in star.classes:
            q = quotient_graph(g, wa, members)
            qedges = set(q.graph.edges)
            for e in members:
                u, v = g.edges[e]
                cu, cv = q.component_map[u], q.component_map[v]
                assert cu != cv
                assert (min(cu, cv), max(cu, cv)) in qedges


def _quotient_side_sums(q, eid, vertex_weights, edge_weights):
    sides = oracle_edge_sides(q.graph, eid)
    n_u = sum(vertex_weights[x] for x in sides.n_u)
    n_v = sum(vertex_weights[x] for x in sides.n_v)
    m_u = sum(edge_weights[f] for f in sides.m_u)
    m_v = sum(edge_weights[f] for f in sides.m_v)
    return n_u, n_v, m_u, m_v


def test_per_edge_side_sums_transfer_to_the_quotient():
    # For e = uv in a class F: the w-mass closer to u equals the w-mass
    # closer to component(u) in G/F, and the lambda'-mass closer to u
    # equals the quotient's vertex-lambda mass plus fiber mass on that side.
    rng = random.Random(23)
    for _ in range(30):
        g = random_connected_graph(rng, max_n=10)
        wa = random_weight_assignment(rng, g)
        star = theta_star_partition(g)
        for members in star.classes:
            q = quotient_graph(g, wa, members)
            for e in sorted(members):
                u, v = g.edges[e]
                sides = oracle_edge_sides(g, e)
                n_u = sum(wa.w[x] for x in sides.n_u)
                n_v = sum(wa.w[x] for x in sides.n_v)
                m_u = sum(wa.lambda_prime[f] for f in sides.m_u)
                m_v = sum(wa.lambda_prime[f] for f in sides.m_v)

                cu, cv = q.component_map[u], q.component_map[v]
                key = (min(cu, cv), max(cu, cv))
                qeid = q.graph.edges.index(key)
                qn_u, qn_v, qm_u, qm_v = _quotient_side_sums(
                    q, qeid, q.w, q.lambda_prime
                )
                if key[0] != cu:  # stored orientation starts at cv
                    qn_u, qn_v, qm_u, qm_v = qn_v, qn_u, qm_v, qm_u
                assert n_u == qn_u and n_v == qn_v

                ln_u, ln_v, lm_u, lm_v = _quotient_side_sums(
                    q, qeid, q.lam, q.lambda_prime
                )
                if key[0] != cu:
                    ln_u, ln_v, lm_u, lm_v = ln_v, ln_u, lm_v, lm_u
                assert m_u == ln_u + lm_u
                assert m_v == ln_v + lm_v


def test_distance_decomposition_c6():
    c6 = cycle_graph(6)
    wa = WeightAssignment.unit(c6)
    star = theta_star_partition(c6)
    quotients = [quotient_graph(c6, wa, members) for members in star.classes]
    assert distance_decomposition_check(c6, quotients)


def test_distance_decomposition_single_class():
    rng = random.Random(29)
    for _ in range(10):
        g = random_connected_graph(rng, max_n=8)
        wa = WeightAssignment.unit(g)
        q = quotient_graph(g, wa, range(g.m))
        assert distance_decomposition_check(g, [q])


def test_distance_decomposition_fails_for_non_c_partition():
    c4 = cycle_graph(4)
    wa = WeightAssignment.unit(c4)
    # singleton classes split the opposite pairs; C4 minus one edge stays
    # connected, so every quotient is a point and all distances collapse
    quotients = [quotient_graph(c4, wa, [e]) for e in range(4)]
    assert not distance_decomposition_check(c4, quotients)


def test_patch_distance_decomposition(patch):
    wa = WeightAssignment.unit(patch)
    star = theta_star_partition(patch)
    quotients = [quotient_graph(patch, wa, members) for members in star.classes]
    assert distance_decomposition_check(patch, quotients)
    # the coarsened {big class, everything else} split decomposes too
    big = max(star.classes, key=len)
    rest = [e for e in range(patch.m) if e not in big]
    two = [quotient_graph(patch, wa, big), quotient_graph(patch, wa, rest)]
    assert distance_decomposition_check(patch, two)


def test_patch_big_class_quotient_is_a_weighted_pentagon(patch):
    # quotient by the 10-edge class: five 4-vertex components arranged in a
    # cycle, each holding 3 internal edges, every fiber two edges of total
    # degree weight 10
    wa = WeightAssignment.degree_weighted(patch)
    star = theta_star_partition(patch)
    big = max(star.classes, key=len)
    q = quotient_graph(patch, wa, big)
    assert q.graph.n == 5 and q.graph.m == 5
    assert q.graph.degrees() == (2,) * 5
    assert q.w == (4, 4, 4, 4, 4)
    assert q.lam == (3, 3, 3, 3, 3)
    assert q.lambda_prime == (2, 2, 2, 2, 2)
    assert q.w_prime == (10, 10, 10, 10, 10)


def test_fraction_weights_stay_exact():
    c6 = cycle_graph(6)
    third = Fraction(1, 3)
    wa = WeightAssignment((third,) * 6, (1,) * 6, (third,) * 6)
    q = quotient_graph(c6, wa, [0, 3])
    assert q.w == (1, 1)
    assert q.lambda_prime == (Fraction(2, 3),)
