import importlib
import random

import pytest

from szegedcut import (
    DisconnectedError,
    IndexKind,
    WeightAssignment,
    build_graph,
    oracle_edge_sides,
    oracle_general,
    oracle_suite,
    weighted_suite_direct,
)
from szegedcut.molgen import linear_phenylene

from conftest import cycle_graph, path_graph, random_connected_graph


def test_oracle_sides_k2():
    g = build_graph(2, [(0, 1)])
    s = oracle_edge_sides(g, 0)
    assert (s.n_u, s.n_v) == ({0}, {1})
    assert s.m_u == s.m_v == frozenset()


def test_oracle_sides_c4():
    c4 = cycle_graph(4)
    for e in range(4):
        s = oracle_edge_sides(c4, e)
        assert len(s.n_u) == len(s.n_v) == 2
        assert len(s.m_u) == len(s.m_v) == 1


def test_oracle_sides_p4_middle_edge():
    p4 = path_graph(4)
    s = oracle_edge_sides(p4, 1)   # edge (1, 2)
    assert s.n_u == {0, 1} and s.n_v == {2, 3}


def test_oracle_suite_c6():
    assert oracle_suite(cycle_graph(6)).as_tuple() == (216, 144, 96, 96)


def test_oracle_suite_k2():
    assert oracle_suite(build_graph(2, [(0, 1)])).as_tuple() == (2, 4, 0, 0)


def test_oracle_suite_ph2():
    ph2 = linear_phenylene(2)
    assert oracle_suite(ph2.graph).as_tuple() == (2124, 816, 1652, 776)


def test_oracle_suite_agrees_with_direct_suite():
    rng = random.Random(67)
    for _ in range(40):
        g = random_connected_graph(rng)
        for starred in (False, True):
            assert (
                oracle_suite(g, starred).as_tuple()
                == weighted_suite_direct(g, starred).as_tuple()
            )


def test_oracle_general_examples():
    k2 = build_graph(2, [(0, 1)])
    assert oracle_general(k2, WeightAssignment.unit(k2), IndexKind.PI_V) == 2

    c6 = cycle_graph(6)
    assert oracle_general(c6, WeightAssignment.unit(c6), IndexKind.SZ) == 54

    c4 = cycle_graph(4)
    assert oracle_general(c4, WeightAssignment.unit(c4), IndexKind.SZ_E) == 4


def test_oracle_rejects_disconnected():
    # with no edge, no per-edge BFS runs, so only the up-front check raises
    for g in (build_graph(4, [(0, 1), (2, 3)]), build_graph(2, [])):
        with pytest.raises(DisconnectedError):
            oracle_suite(g)
        with pytest.raises(DisconnectedError):
            oracle_general(g, WeightAssignment.unit(g), IndexKind.SZ)


@pytest.mark.parametrize("module", ["graph", "theta", "quotient", "indices", "molgen", "cli"])
def test_all_pairs_table_is_oracle_only(module):
    mod = importlib.import_module(f"szegedcut.{module}")
    assert not hasattr(mod, "all_pairs_distances")
