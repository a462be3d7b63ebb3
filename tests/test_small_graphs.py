"""A certificate over every connected graph on 2 to 6 vertices.

The graphs on 2 to 5 vertices are enumerated here, one canonical edge list
per isomorphism class. The 112 on 6 vertices, whose brute-force
enumeration takes minutes, are read from `data/connected6.txt`, and a test
checks that the list is complete: 112 connected graphs in pairwise
distinct canonical forms. Each graph is checked against the oracle: its
Theta*-partition, its partial-cube test and two-sided flags, every
coarsening of its Theta*-partition on the cut route with the quotients
its classes build, over their Theta*-classes that are no clean cut, and
splits of its Theta*-classes, which must be refused.
"""

from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path
from unittest import mock

import pytest

from szegedcut import (
    EdgePartition,
    InvalidCPartitionError,
    all_pairs_distances,
    build_graph,
    is_connected,
    is_partial_cube,
    oracle_is_partial_cube,
    oracle_suite,
    oracle_theta_star_partition,
    quotient_graph,
    theta_star_partition,
    validate_c_partition,
    weighted_suite_cut,
    weighted_suite_direct,
)
from szegedcut import indices, theta

# connected graphs up to isomorphism on n = 2..6 vertices (OEIS A001349)
COUNTS = {2: 1, 3: 2, 4: 6, 5: 21}
SIX = 112


def _canonical(n, edges):
    # the least sorted edge list over all relabellings of the vertices
    return min(
        tuple(sorted((min(s[u], s[v]), max(s[u], s[v])) for u, v in edges))
        for s in permutations(range(n))
    )


@lru_cache(maxsize=None)
def connected_graphs(n):
    """One canonical edge list per connected graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    found = set()
    for mask in range(1 << len(pairs)):
        edges = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
        if len(edges) >= n - 1 and is_connected(build_graph(n, edges)):
            found.add(_canonical(n, edges))
    return sorted(found)


@lru_cache(maxsize=None)
def six_vertex_graphs():
    """The canonical edge lists of `data/connected6.txt`, one graph a line."""
    text = (Path(__file__).parent / "data" / "connected6.txt").read_text()
    return [
        tuple(tuple(map(int, pair.split("-"))) for pair in line.split())
        for line in text.splitlines()
        if not line.startswith("#")
    ]


def _all_graphs():
    graphs = [build_graph(n, edges) for n in COUNTS for edges in connected_graphs(n)]
    return graphs + [build_graph(6, edges) for edges in six_vertex_graphs()]


def _set_partitions(items):
    """Every partition of the list `items` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        yield [[first], *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], [first, *blocks[i]], *blocks[i + 1 :]]


def _components(g, removed):
    """The vertex sets of the components of g minus the edges `removed`."""
    root = list(range(g.n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for e, (u, v) in enumerate(g.edges):
        if e not in removed:
            root[find(u)] = find(v)
    groups = {}
    for x in range(g.n):
        groups.setdefault(find(x), set()).add(x)
    return list(groups.values())


def _convex(rows, side):
    # every vertex on a geodesic between two vertices of `side` is in it
    return all(
        x in side
        for u in side
        for v in side
        for x in range(len(rows))
        if rows[u][x] + rows[x][v] == rows[u][v]
    )


def test_the_enumeration_is_complete_and_canonical():
    for n, count in COUNTS.items():
        graphs = connected_graphs(n)
        assert len(graphs) == count
        assert all(_canonical(n, edges) == edges for edges in graphs)
    assert len(_all_graphs()) == 30 + SIX


def test_the_six_vertex_list_is_complete_and_canonical():
    # 112 pairwise distinct canonical forms of connected graphs are 112
    # isomorphism classes, which is all of them
    graphs = six_vertex_graphs()
    assert len(graphs) == len(set(graphs)) == SIX
    for edges in graphs:
        assert is_connected(build_graph(6, edges)), edges
        assert _canonical(6, edges) == edges


def test_theta_star_flags_match_the_oracle():
    for g in _all_graphs():
        p = theta_star_partition(g)
        star = oracle_theta_star_partition(g)
        # equality and hashing ignore the two-sided flags only Theta* writes
        assert p == star and hash(p) == hash(star), g.edges
        assert all(p.two_sided) == is_partial_cube(g) == oracle_is_partial_cube(g), g.edges
        rows = all_pairs_distances(g).rows
        for members, flag in zip(p.classes, p.two_sided, strict=True):
            sides = _components(g, members)
            clean = len(sides) == 2 and all(_convex(rows, side) for side in sides)
            assert flag == clean, (g.edges, sorted(members))


def test_every_coarsening_gives_cut_equal_direct_equal_oracle():
    coarsenings = builds = mixed = 0
    for g in _all_graphs():
        p = theta_star_partition(g)
        expected = {s: oracle_suite(g, s).as_tuple() for s in (False, True)}
        for s in (False, True):
            assert weighted_suite_direct(g, s).as_tuple() == expected[s], g.edges
            # the flagged partition itself reads its two-sided classes as cuts
            assert weighted_suite_cut(g, p, s).as_tuple() == expected[s], g.edges
        # an oracle Theta*-class is clean when its removal leaves two convex
        # components; the rest of a class is its Theta*-classes that are not
        rows = all_pairs_distances(g).rows
        star = oracle_theta_star_partition(g)
        clean = []
        for members in star.classes:
            sides = _components(g, members)
            clean.append(len(sides) == 2 and all(_convex(rows, side) for side in sides))
        for blocks in _set_partitions(list(range(len(p)))):
            grouping = {c: i for i, block in enumerate(blocks) for c in block}
            q = EdgePartition.from_labels(grouping[c] for c in p.class_of)
            coarsenings += 1
            # the gate returns the Theta*-partition of g with its flags
            gate = theta._require_c_partition(g, q)
            assert gate == star and gate.two_sided == tuple(clean), (g.edges, blocks)
            rest, kinds = {}, {}
            for members, sided in zip(star.classes, clean):
                c = q.class_of[min(members)]
                kinds.setdefault(c, set()).add(sided)
                if not sided:
                    rest.setdefault(c, set()).update(members)
            mixed += sum(len(k) == 2 for k in kinds.values())
            builds += len(rest)
            # each class builds one quotient over its rest, or none
            for s in (False, True):
                with mock.patch.object(indices, "quotient_graph", wraps=quotient_graph) as spy:
                    report = weighted_suite_cut(g, q, s)
                assert report.as_tuple() == expected[s], (g.edges, blocks)
                assert [call.args[2] for call in spy.call_args_list] == [
                    rest[c] for c in sorted(rest)
                ], (g.edges, blocks)
    # Bell numbers of the class counts: 104 coarsenings on 2..5 vertices and
    # 676 on 6, each plain and starred
    assert coarsenings == 780
    assert (builds, mixed) == (347, 159)


def _splits(members, every):
    """The edge sets to move out of a class, which leave both parts nonempty:
    every two-part split (the part holding the least edge stays), or, for a
    class of more than 6 edges unless `every`, each single edge."""
    first, *rest = sorted(members)
    if not every and len(members) > 6:
        return [{e} for e in sorted(members)]
    masks = range((1 << len(rest)) - 1)
    return [{e for i, e in enumerate(rest) if not mask >> i & 1} for mask in masks]


def test_every_split_of_a_theta_star_class_is_refused():
    # all two-part splits on 6 vertices would be 63 933
    splits = 0
    for g in _all_graphs():
        p = theta_star_partition(g)
        for members in p.classes:
            for moved in _splits(members, every=g.n < 6):
                labels = [len(p) if e in moved else k for e, k in enumerate(p.class_of)]
                split = EdgePartition.from_labels(labels)
                splits += 1
                assert not validate_c_partition(g, split), (g.edges, sorted(moved))
                with pytest.raises(InvalidCPartitionError):
                    weighted_suite_cut(g, split)
    # 1395 on 2..5 vertices, 1190 on 6
    assert splits == 2585
