"""A certificate over every connected graph on 2 to 5 vertices.

The graphs are enumerated here, one canonical edge list per isomorphism
class, and each is checked against the oracle: its Theta*-partition, its
partial-cube test and two-sided flags, every coarsening of its
Theta*-partition on the cut route, and every split of a Theta*-class,
which must be refused.
"""

from functools import lru_cache
from itertools import combinations, permutations

import pytest

from szegedcut import (
    EdgePartition,
    InvalidCPartitionError,
    all_pairs_distances,
    build_graph,
    coarsen,
    is_connected,
    oracle_is_partial_cube,
    oracle_suite,
    oracle_theta_star_partition,
    theta_star_partition,
    validate_c_partition,
    weighted_suite_cut,
    weighted_suite_direct,
)

# connected graphs up to isomorphism on n = 2..5 vertices (OEIS A001349)
COUNTS = {2: 1, 3: 2, 4: 6, 5: 21}


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


def _all_graphs():
    return [build_graph(n, edges) for n in COUNTS for edges in connected_graphs(n)]


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
    assert len(_all_graphs()) == 30


def test_theta_star_flags_match_the_oracle():
    for g in _all_graphs():
        p = theta_star_partition(g)
        star = oracle_theta_star_partition(g)
        assert (p.classes, p.class_of) == (star.classes, star.class_of), g.edges
        assert p.partial_cube == oracle_is_partial_cube(g), g.edges
        rows = all_pairs_distances(g).rows
        for members, flag in zip(p.classes, p.two_sided, strict=True):
            sides = _components(g, members)
            clean = len(sides) == 2 and all(_convex(rows, side) for side in sides)
            assert flag == clean, (g.edges, sorted(members))


def test_every_coarsening_gives_cut_equal_direct_equal_oracle():
    coarsenings = 0
    for g in _all_graphs():
        p = theta_star_partition(g)
        expected = {s: oracle_suite(g, s).as_tuple() for s in (False, True)}
        for s in (False, True):
            assert weighted_suite_direct(g, s).as_tuple() == expected[s], g.edges
            # the flagged partition itself reads its two-sided classes as cuts
            assert weighted_suite_cut(g, p, s).as_tuple() == expected[s], g.edges
        for blocks in _set_partitions(list(range(len(p)))):
            grouping = {c: i for i, block in enumerate(blocks) for c in block}
            q = coarsen(p, grouping)
            coarsenings += 1
            for s in (False, True):
                assert weighted_suite_cut(g, q, s).as_tuple() == expected[s], (g.edges, blocks)
    # Bell numbers of the class counts: 104 coarsenings, each plain and starred
    assert coarsenings == 104


def test_every_split_of_a_theta_star_class_is_refused():
    splits = 0
    for g in _all_graphs():
        p = theta_star_partition(g)
        for c, members in enumerate(p.classes):
            first, *rest = sorted(members)
            # every two-part split, the part holding `first` named c
            for mask in range((1 << len(rest)) - 1):
                moved = {e for i, e in enumerate(rest) if not mask >> i & 1}
                labels = [len(p) if e in moved else k for e, k in enumerate(p.class_of)]
                split = EdgePartition.from_labels(labels)
                splits += 1
                assert not validate_c_partition(g, split), (g.edges, sorted(moved))
                with pytest.raises(InvalidCPartitionError):
                    weighted_suite_cut(g, split)
    assert splits > 0
