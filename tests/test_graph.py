import copy
import gc
import pickle
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegedcut import (
    DisconnectedError,
    DuplicateEdgeError,
    Graph,
    HexSpec,
    LoopEdgeError,
    NTooSmallError,
    ParseError,
    SzegedCutError,
    VertexOutOfRangeError,
    WeightAssignment,
    EdgePartition,
    all_pairs_distances,
    bfs_distances,
    build_benzenoid,
    build_graph,
    build_phenylene,
    format_edge_list,
    is_connected,
    parse_edge_list,
    parse_hex_spec,
    quotient_graph,
    theta_star_partition,
    weighted_suite_cut,
    weighted_suite_direct,
)
from szegedcut import graph
from szegedcut.cli import _parse_partition

from conftest import cycle_graph, path_graph, random_connected_graph, random_tree


def test_build_k2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.m == 1
    assert g.degrees() == (1, 1)


def test_build_hexagon():
    g = cycle_graph(6)
    assert g.m == 6
    assert g.degrees() == (2,) * 6
    assert g.edges[0] == (0, 1)


def test_build_rejects_duplicate_even_reversed():
    with pytest.raises(DuplicateEdgeError):
        build_graph(4, [(0, 1), (1, 0)])


def test_build_rejects_loop():
    with pytest.raises(LoopEdgeError):
        build_graph(3, [(1, 1)])


def test_build_rejects_out_of_range():
    for edge in [(0, 3), (3, 0), (-1, 1), (1, -1)]:
        with pytest.raises(VertexOutOfRangeError):
            build_graph(3, [(0, 1), edge])


def _reference_graph(n, edge_list):
    """The reference constructor: one ordered pass checks each edge,
    appends its id to the incidence lists of both ends and the XOR of its
    ends to the per-edge list. Returns (edges, adj, across)."""
    if n < 1:
        raise NTooSmallError(f"graph needs at least one vertex, got n={n}")
    edges = []
    seen = set()
    adj = [[] for _ in range(n)]
    across = []
    for u, v in edge_list:
        if u == v:
            raise LoopEdgeError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        eid = len(edges)
        edges.append((u, v))
        adj[u].append(eid)
        adj[v].append(eid)
        across.append(u ^ v)
    return tuple(edges), tuple(tuple(a) for a in adj), across


@st.composite
def _edge_inputs(draw):
    """(n, make_edges): make_edges() returns a fresh edge iterable whose
    pairs are tuples or lists. The pairs are drawn in range, so loops and
    repeats come often, and are often cleaned into a simple graph; then a
    few ids are swapped for ids outside 0..n-1 or not ints (1.0 and "1"
    fail; True indexes a list as 1), and a few pairs are repeated, in
    either order."""
    n = draw(st.integers(0, 6))
    in_range = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(in_range, in_range), max_size=10))
    if draw(st.booleans()):
        pairs = list({frozenset(p): p for p in pairs if p[0] != p[1]}.values())
    if pairs:
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(pairs) - 1))
            bad = draw(st.sampled_from([-1, n, n + 1, 1.0, "1", True]))
            pairs[i] = (bad, pairs[i][1]) if draw(st.booleans()) else (pairs[i][0], bad)
        for _ in range(draw(st.integers(0, 2))):
            u, v = pairs[draw(st.integers(0, len(pairs) - 1))]
            pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from([(u, v), (v, u)])))
    as_lists = draw(st.booleans())
    as_generator = draw(st.booleans())

    def make_edges():
        items = [list(p) if as_lists else p for p in pairs]
        return (x for x in items) if as_generator else items

    return n, make_edges


@settings(max_examples=400, deadline=None)
@given(_edge_inputs())
def test_graph_matches_the_per_edge_constructor(case):
    n, make_edges = case
    try:
        expected = _reference_graph(n, make_edges())
    except Exception as exc:  # the reference's own failure is the expectation
        expected = exc
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            Graph(n, make_edges())
        assert type(raised.value) is type(expected)
        if isinstance(expected, SzegedCutError):
            assert str(raised.value) == str(expected)
        return
    g = Graph(n, make_edges())
    edges, adj, across = expected
    assert g.edges == edges
    assert g.adj == adj
    assert g._across == across
    assert g.degrees() == tuple(len(a) for a in adj)


@st.composite
def _parsed_edge_inputs(draw):
    """(n, pairs) for an edge-list text with a consistent header and n <=
    m + 1: int pairs drawn in range, so loops and repeats come often, and
    often cleaned into a simple graph when enough pairs stay; then up to two
    faults, each an id swapped for -1, n or n + 1 or a pair repeated, in
    either order."""
    n = draw(st.integers(1, 6))
    in_range = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(in_range, in_range), min_size=n - 1, max_size=10))
    simple = list({frozenset(p): p for p in pairs if p[0] != p[1]}.values())
    if len(simple) >= n - 1 and draw(st.booleans()):
        pairs = simple
    for _ in range(draw(st.integers(0, 2)) if pairs else 0):
        i = draw(st.integers(0, len(pairs) - 1))
        u, v = pairs[i]
        if draw(st.booleans()):
            bad = draw(st.sampled_from([-1, n, n + 1]))
            pairs[i] = (bad, v) if draw(st.booleans()) else (u, bad)
        else:
            pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from([(u, v), (v, u)])))
    return n, pairs


@settings(max_examples=400, deadline=None)
@given(_parsed_edge_inputs())
def test_parse_matches_the_per_edge_constructor(case):
    n, pairs = case
    text = "".join(f"{u} {v}\n" for u, v in [(n, len(pairs)), *pairs])
    try:
        edges, _, _ = _reference_graph(n, pairs)
    except SzegedCutError as exc:
        with pytest.raises(ParseError) as raised:
            parse_edge_list(text)
        assert str(raised.value) == f"invalid edge list: {exc}"
        assert type(raised.value.__cause__) is type(exc)
        return
    g = parse_edge_list(text)
    assert (g.n, g.edges) == (n, edges)


def test_graph_checks_and_keeps_the_adjacency():
    with pytest.raises(TypeError):  # fails in the constructor, not on an adj read
        build_graph(3, [(0, 1.0)])
    with pytest.raises(TypeError):
        build_graph(3.0, [(0, 1)])
    g = cycle_graph(4)
    assert g.adj is g.adj
    with pytest.raises(AttributeError):
        g.adj = ()


def test_graph_refuses_rebinding_after_an_evaluation():
    # a rebound edge tuple would be read against the kept adjacency, edge
    # XORs and tree of the old one: without the guard, C6 rebound to C6 plus
    # the chord 03 after an evaluation gives Sz 236, where the graph has 286
    g = cycle_graph(6)
    report = weighted_suite_direct(g)
    for name, value in (("n", 7), ("edges", g.edges + ((0, 3),))):
        with pytest.raises(AttributeError, match=f"Graph.{name} is read-only"):
            setattr(g, name, value)
    assert (g.n, g.edges) == (6, cycle_graph(6).edges)
    g._last = None  # the private caches stay writable
    assert weighted_suite_direct(g) == report


def test_a_copied_or_pickled_graph_is_the_same_graph():
    g = cycle_graph(6)
    report = weighted_suite_direct(g)
    for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert (h.n, h.edges, h.adj) == (g.n, g.edges, g.adj)
        assert weighted_suite_direct(h) == report


def _refuse_check_edges(*_):
    raise AssertionError("_check_edges called")


def test_only_caller_and_parsed_edges_are_checked():
    # the builders and quotient_graph make simple edge tuples and wrap
    # them unchecked; Graph(...) and parse_edge_list check every list
    with mock.patch.object(graph, "_check_edges", _refuse_check_edges):
        bz = build_benzenoid(parse_hex_spec("0 0\n1 0\n0 1\n"))
        ph = build_phenylene(HexSpec.linear_chain(3))
        wa = WeightAssignment.unit(ph.graph)
        quotients = [quotient_graph(ph.graph, wa, f) for f in ph.direction_partition().classes]
        with pytest.raises(AssertionError, match="_check_edges called"):
            Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(AssertionError, match="_check_edges called"):
            parse_edge_list("3 2\n0 1\n1 2\n")
    assert (bz.graph.n, bz.graph.m, ph.graph.n, ph.graph.m) == (13, 15, 18, 22)
    # the wrapped tuples pass the checked constructor unchanged
    for g in (bz.graph, ph.graph, *(q.graph for q in quotients)):
        assert Graph(g.n, g.edges).edges == g.edges
    assert len(quotients) == 4 and all(q.graph.m == q.graph.n - 1 for q in quotients)  # trees


def test_new_graphs_start_without_a_tree():
    # the BFS tree is built on first use and kept with its graph; a graph
    # made from another starts with none of its own
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)])
    assert g._tree is None
    tree = graph._bfs_tree(g)
    assert graph._bfs_tree(g) is tree is g._tree
    pieces = [piece for _, _, piece in graph._pieces(g, graph._bridges(g))]
    quotient = quotient_graph(g, WeightAssignment.unit(g), [3, 4]).graph
    parsed = parse_edge_list(format_edge_list(g))
    assert [piece.n for piece in pieces] == [3, 4]
    assert all(h._tree is None for h in (*pieces, quotient, parsed))
    assert graph._bfs_tree(parsed) == tree


def test_a_disconnected_graph_raises_on_every_call():
    # the tree is kept only once the connectivity check passes, so no later
    # call can skip the check
    p = EdgePartition.from_labels([0, 1])
    for route in (weighted_suite_direct, lambda g: weighted_suite_cut(g, p), theta_star_partition):
        g = build_graph(4, [(0, 1), (2, 3)])
        for _ in range(3):
            with pytest.raises(DisconnectedError):
                route(g)
        assert g._tree is None


def test_bfs_cycle6():
    assert bfs_distances(cycle_graph(6), 0) == (0, 1, 2, 3, 2, 1)


def test_bfs_k2():
    assert bfs_distances(build_graph(2, [(0, 1)]), 0) == (0, 1)


def test_bfs_path4_interior_source():
    assert bfs_distances(path_graph(4), 1) == (1, 0, 1, 2)


def test_bfs_disconnected_raises():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    with pytest.raises(DisconnectedError):
        bfs_distances(g, 0)
    with pytest.raises(DisconnectedError):
        all_pairs_distances(g)


@pytest.mark.parametrize("k, diameter", [(4, 2), (6, 3)])
def test_all_pairs_cycle_diameter(k, diameter):
    dm = all_pairs_distances(cycle_graph(k))
    assert max(max(row) for row in dm) == diameter


def test_all_pairs_k2():
    dm = all_pairs_distances(build_graph(2, [(0, 1)]))
    assert dm == ((0, 1), (1, 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_distance_symmetry_and_consistency(seed):
    g = random_connected_graph(random.Random(seed), max_n=10)
    dm = all_pairs_distances(g)
    for u in range(g.n):
        row = bfs_distances(g, u)
        assert row == dm[u]
        for v in range(g.n):
            assert dm[u][v] == dm[v][u]
    for v in range(g.n):
        assert dm[v][v] == 0
    for u, v in g.edges:
        assert dm[u][v] == 1
    for u in range(g.n):
        for v in range(g.n):
            for w in range(g.n):
                assert dm[u][v] <= dm[u][w] + dm[w][v]


def test_tree_distance_is_path_length():
    rng = random.Random(7)
    for _ in range(25):
        t = random_tree(rng, max_n=10)
        dm = all_pairs_distances(t)
        # walk up from v using BFS parents from u; tree paths are unique
        for u in range(t.n):
            parent = [-1] * t.n
            order = [u]
            seen = {u}
            for x in order:
                for e in t.adj[x]:
                    y = sum(t.edges[e]) - x
                    if y not in seen:
                        seen.add(y)
                        parent[y] = x
                        order.append(y)
            for v in range(t.n):
                steps = 0
                w = v
                while w != u:
                    w = parent[w]
                    steps += 1
                assert steps == dm[u][v]


@st.composite
def _sweep_inputs(draw):
    """(g, seeds) for `graph._sweep`: seeds[i] is the seed set of source i.

    The graphs are random connected graphs, cycles C9 to C41, even and odd,
    and paths with one chord that closes an odd cycle far from vertex 0,
    so distances pass several multiples of 4, with ties and without. The
    seedings are those of the side sums (every vertex, then every edge at
    both of its ends), those of the Theta* pass (each tree edge pc as one
    source at p and one at c), and random seed sets of one to three
    vertices or of every vertex."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    family = draw(st.sampled_from(["random", "cycle", "chorded path"]))
    if family == "random":
        g = random_connected_graph(rng, max_n=40, extra=draw(st.sampled_from([0.0, 0.02, 0.1])))
    elif family == "cycle":
        g = cycle_graph(draw(st.integers(9, 41)))
    else:
        n = draw(st.integers(12, 40))
        a = rng.randrange(n // 2, n - 2)
        b = rng.randrange(a + 2, n, 2)  # the cycle a..b has b - a + 1 vertices, an odd number
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)] + [(a, b)])
    seeding = draw(st.sampled_from(["side sums", "theta", "random"]))
    if seeding == "side sums":
        seeds = [(x,) for x in range(g.n)] + list(g.edges)
    elif seeding == "theta":
        tree = [g.edges[e] for e in graph._bfs_tree(g)[2][1:]]
        seeds = [(p,) for p, _ in tree] + [(c,) for _, c in tree]
    else:
        sizes = [min(k, g.n) for k in (1, 2, 3, g.n)]
        seeds = [rng.sample(range(g.n), rng.choice(sizes)) for _ in range(rng.randint(1, 2 * g.n))]
    return g, seeds


@settings(max_examples=200, deadline=None)
@given(_sweep_inputs())
def test_sweep_matches_bfs_distances(case):
    # a source is as far from a vertex as the nearest of its seeds
    g, seeds = case
    rows = [bfs_distances(g, x) for x in range(g.n)]
    reach = [0] * g.n
    near_u = [0] * g.m
    near_v = [0] * g.m
    for i, seed in enumerate(seeds):
        for y in seed:
            reach[y] |= 1 << i
        d = [min(rows[y][x] for y in seed) for x in range(g.n)]
        for e, (u, v) in enumerate(g.edges):
            if d[u] < d[v]:
                near_u[e] |= 1 << i
            elif d[v] < d[u]:
                near_v[e] |= 1 << i
    assert graph._sweep(g, reach) == (near_u, near_v)


def test_sweep_with_every_ball_full_at_the_start():
    # each source seeded at every vertex: no round runs, and no side holds one
    assert graph._sweep(path_graph(3), [3, 3, 3]) == ([0, 0], [0, 0])


def test_edge_list_roundtrip():
    g = cycle_graph(5)
    text = format_edge_list(g, comments=["five cycle"])
    assert text.startswith("# five cycle\n5 5\n")
    g2 = parse_edge_list(text)
    assert g2.n == g.n and g2.edges == g.edges


@pytest.mark.parametrize(
    "text",
    [
        "",
        "junk\n0 1\n",
        "2\n0 1\n",
        "2 2\n0 1\n",          # count mismatch
        "2 1\n0 1 2\n",
        "2 1\nx y\n",
        "2 2\n0 1\n1 0\n",     # duplicate edge
        "2 1\n0 0\n",          # loop
        "2 1\n0 5\n",          # vertex out of range
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


@pytest.mark.parametrize("text", ["0 0\n", "-2 0\n"])
def test_parse_rejects_graphs_without_vertices(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)
    with pytest.raises(NTooSmallError):
        build_graph(0, [])


def test_parse_ignores_comments_and_blanks():
    g = parse_edge_list("# header\n\n3 2\n0 1\n# middle\n1 2\n")
    assert g.n == 3 and g.m == 2


# the three line formats, each with a valid file and what it reads as
_FORMATS = {
    "edge list": (lambda t: parse_edge_list(t).edges, ["3 2", "0 1", "1 2"]),
    "partition": (lambda t: _parse_partition(t, 2).class_of, ["0 0", "1 1"]),
    "hex spec": (lambda t: parse_hex_spec(t).cells, ["0 0", "1 0"]),
}
# each variant bends the lines of a valid file; True if it stays valid
_VARIANTS = {
    "indented #": (lambda ls: "\n".join([" \t# note", *ls]), True),
    "# without space": (lambda ls: "\n".join(["#note", *ls]), True),
    "tabs": (lambda ls: "\n".join(line.replace(" ", "\t") for line in ls), True),
    "CRLF": (lambda ls: "\r\n".join(ls) + "\r\n", True),
    "third token": (lambda ls: "\n".join([*ls[:-1], ls[-1] + " 0"]), False),
    "non-integer": (lambda ls: "\n".join([*ls[:-1], ls[-1][:-1] + "x"]), False),
}


@pytest.mark.parametrize("variant", _VARIANTS)
def test_the_three_line_formats_agree(variant):
    bend, valid = _VARIANTS[variant]
    for name, (parse, lines) in _FORMATS.items():
        if valid:
            assert parse(bend(lines)) == parse("\n".join(lines)), name
        else:
            with pytest.raises(ParseError):
                parse(bend(lines))


# a 2000-hexagon phenylene: 12000 vertices and 15998 edges
_CHAIN = HexSpec.linear_chain(2000)


def _traced_peak(step):
    tracemalloc.start()
    try:
        result = step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_generate_and_write_memory_builds_no_adjacency():
    # 9.0 MB when the generator's graph built its adjacency and a tuple
    # key per edge, 4.5 MB when it copied and checked its edges, 3.4 MB
    # when it keeps them as built
    text, peak = _traced_peak(lambda: format_edge_list(build_phenylene(_CHAIN).graph))
    assert text.startswith("12000 15998\n")
    assert peak < 4_000_000, f"peak {peak} bytes"


def test_parse_memory_builds_no_adjacency():
    # 8.7 MB when parsing built the adjacency and a tuple key per edge,
    # 4.2 MB when it copied its parsed pairs, 3.2 MB when it keeps them
    text = format_edge_list(build_phenylene(_CHAIN).graph)
    g, peak = _traced_peak(lambda: parse_edge_list(text))
    assert g.m == 15998
    assert peak < 4_000_000, f"peak {peak} bytes"


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_phenylene(HexSpec.linear_chain(1000)).graph,
        lambda: build_benzenoid(parse_hex_spec("".join(f"{q} {r}\n" for q in range(40) for r in range(25)))).graph,
    ],
    ids=["PH1000", "40 x 25 benzenoid"],
)
def test_adjacency_keeps_under_60_bytes_per_arc(make):
    # incidence lists keep an edge id per arc and one XOR of the ends per
    # edge: 44.2 and 43.2 bytes per arc, against 95.8 and 93.9 with a
    # (neighbour, edge id) tuple per arc
    g = parse_edge_list(format_edge_list(make()))
    gc.collect()  # a full collection also empties the freelists, whose reuse tracemalloc does not see
    tracemalloc.start()
    try:
        g.adj
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 60 * 2 * g.m, f"{kept / (2 * g.m):.1f} bytes per arc"
