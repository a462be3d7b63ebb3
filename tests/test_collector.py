"""The cyclic garbage collector is paused over the package's bulk builds of
acyclic int tuples and lists, `graph._collector_paused`: the edge-list
parse and its line reader, the copy and check of a caller's edges in
`Graph(n, edges)`, the first build of `Graph.adj`, and the checked
evaluation `indices._evaluate`. No collection runs inside them, and the
collector's on/off flag is as the caller left it afterwards, whether the
build returned or raised, and across threads."""

import gc
import sys
import threading

import pytest

from szegedcut import (
    DisconnectedError,
    EdgePartition,
    Graph,
    InvalidCPartitionError,
    LoopEdgeError,
    ParseError,
    WeightAssignment,
    build_graph,
    format_edge_list,
    parse_edge_list,
    weighted_suite_cut,
    weighted_suite_direct,
)
from szegedcut import graph, indices
from szegedcut.molgen import linear_phenylene

from conftest import cycle_graph


@pytest.fixture
def collector_on():
    was_on = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_on:
            gc.disable()


@pytest.fixture
def collector_off():
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _triangle_and_a_loose_vertex() -> Graph:
    # n <= m + 1, so only a walk over the graph finds it disconnected
    return Graph(4, [(0, 1), (1, 2), (2, 0)])


# (call, the exception it raises or None): every paused site, returning and raising
SITE_CALLS = {
    "parse": (lambda: parse_edge_list("3 2\n0 1\n1 2\n"), None),
    "parse a bad line": (lambda: parse_edge_list("3 2\n0 1\n1 x\n"), ParseError),
    "line reader, bad line": (lambda: graph._int_pairs("0 1\n0 1 2\n"), ParseError),
    "first adj read": (lambda: Graph(3, [(0, 1), (1, 2)]).adj, None),
    "graph from a bad list": (lambda: Graph(3, [(0, 1), (1, 1)]), LoopEdgeError),
    "cut suite": (lambda: weighted_suite_cut(cycle_graph(6), EdgePartition.from_labels([0, 1, 2] * 2)), None),
    "direct suite": (lambda: weighted_suite_direct(cycle_graph(5)), None),
    "cut suite, disconnected": (
        lambda: weighted_suite_cut(_triangle_and_a_loose_vertex(), EdgePartition.from_labels([0, 0, 0])),
        DisconnectedError,
    ),
    "direct suite, disconnected": (
        lambda: weighted_suite_direct(_triangle_and_a_loose_vertex()),
        DisconnectedError,
    ),
    "cut suite, C6 split": (
        lambda: weighted_suite_cut(cycle_graph(6), EdgePartition.from_labels([0, 0, 0, 1, 1, 1])),
        InvalidCPartitionError,
    ),
}


def _run(call, raises):
    if raises is None:
        call()
    else:
        with pytest.raises(raises):
            call()


@pytest.mark.parametrize("site", SITE_CALLS)
def test_collector_is_on_again_after_each_paused_site(collector_on, site):
    _run(*SITE_CALLS[site])
    assert gc.isenabled()


@pytest.mark.parametrize("site", SITE_CALLS)
def test_collector_a_caller_turned_off_stays_off(collector_off, site):
    _run(*SITE_CALLS[site])
    assert not gc.isenabled()


def test_collector_nested_pause_is_a_no_op(collector_on):
    with graph._collector_paused():
        assert not gc.isenabled()
        with graph._collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner exit leaves the outer pause alone
    assert gc.isenabled()


def test_collector_runs_no_collection_inside_the_paused_builds(collector_on):
    # PH2000 (m = 15 998) allocates enough tuples for dozens of young
    # collections per build when the collector runs
    ph = linear_phenylene(2000)
    text = format_edge_list(ph.graph)
    assert ph.graph.m == 15998
    seen = []

    def record(phase, info):
        # the young collection that the build's survivors set off once the
        # pause ends runs after the build, in the exit that resumes the collector
        code = sys._getframe(1).f_code
        resumed = code.co_name == "__exit__" and code.co_filename == graph.__file__
        if phase == "start" and current is not None and not resumed:
            seen.append((current, info["generation"]))

    def window(name, call):
        nonlocal current
        gc.collect()  # each window starts with an empty young generation
        current = name
        try:
            return call()
        finally:
            current = None

    current = None
    gc.callbacks.append(record)
    try:
        g = window("parse", lambda: parse_edge_list(text))
        window("build", lambda: build_graph(g.n, g.edges))
        window("adj", lambda: g.adj)
        wa, p = WeightAssignment.degree_weighted(g), ph.direction_partition()
        # the cut evaluation of weighted_suite_cut(g, p): four quotient builds
        rows, _ = window("cut", lambda: indices._evaluate(g, wa, p))
    finally:
        gc.callbacks.remove(record)
    assert seen == []
    assert {len(row) for row in rows} == {5}  # Sz, PI_v, Sz_e, PI and Sz_t
    assert indices._totals(rows)[:4] == weighted_suite_cut(g, p).as_tuple()


def test_collector_threads_pausing_at_once_leave_it_on(collector_on):
    # the flag is shared by every thread: more threads than cores pause and
    # resume it at a short switch interval. A pause whose check and set of
    # the flag were split by another pause's resume would leave it off for
    # good; no thread may see another's results
    text = format_edge_list(linear_phenylene(50).graph)
    p = linear_phenylene(50).direction_partition()
    expected = weighted_suite_cut(parse_edge_list(text), p)
    results = []

    def work():
        for _ in range(10):
            results.append(weighted_suite_cut(parse_edge_list(text), p))
            for _ in range(500):  # empty pauses: many more entries and exits
                with graph._collector_paused():
                    pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 80 and all(r == expected for r in results)
    assert gc.isenabled()
