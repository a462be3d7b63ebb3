import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegedcut import (
    DisconnectedError,
    DuplicateEdgeError,
    LoopEdgeError,
    NTooSmallError,
    ParseError,
    VertexOutOfRangeError,
    all_pairs_distances,
    bfs_distances,
    build_graph,
    format_edge_list,
    is_connected,
    parse_edge_list,
    parse_hex_spec,
)
from szegedcut.cli import _parse_partition

from conftest import cycle_graph, path_graph, random_connected_graph, random_tree


def test_build_k2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.m == 1
    assert g.degrees() == (1, 1)


def test_build_hexagon():
    g = cycle_graph(6)
    assert g.m == 6
    assert all(g.degree(v) == 2 for v in range(6))
    assert g.endpoints(0) == (0, 1)


def test_build_rejects_duplicate_even_reversed():
    with pytest.raises(DuplicateEdgeError):
        build_graph(4, [(0, 1), (1, 0)])


def test_build_rejects_loop():
    with pytest.raises(LoopEdgeError):
        build_graph(3, [(1, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        build_graph(3, [(0, 3)])


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
    assert max(max(row) for row in dm.rows) == diameter


def test_all_pairs_k2():
    dm = all_pairs_distances(build_graph(2, [(0, 1)]))
    assert dm.rows == ((0, 1), (1, 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_distance_symmetry_and_consistency(seed):
    g = random_connected_graph(random.Random(seed), max_n=10)
    dm = all_pairs_distances(g)
    for u in range(g.n):
        row = bfs_distances(g, u)
        assert row == dm.rows[u]
        for v in range(g.n):
            assert dm.rows[u][v] == dm.rows[v][u]
    for v in range(g.n):
        assert dm.rows[v][v] == 0
    for u, v in g.edges:
        assert dm.rows[u][v] == 1
    for u in range(g.n):
        for v in range(g.n):
            for w in range(g.n):
                assert dm.rows[u][v] <= dm.rows[u][w] + dm.rows[w][v]


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
                for y, _ in t.adj[x]:
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
                assert steps == dm.rows[u][v]


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
