"""A certificate over every connected graph on 2 to 7 vertices.

The graphs on 2 to 5 vertices are enumerated here, one canonical edge list
per isomorphism class. The 112 on 6 vertices, whose brute-force
enumeration takes minutes, are read from `data/connected6.txt`, and a test
checks that the list is complete: 112 connected graphs in pairwise
distinct canonical forms. Each graph is checked against the oracle: its
Theta*-partition, its partial-cube test and two-sided flags, every
coarsening of its Theta*-partition on the cut route with the quotients
its classes build, over their Theta*-classes that are no clean cut, and
splits of its Theta*-classes, which must be refused.

The 853 on 7 vertices are read from `data/connected7.txt`. Trying all
5040 relabellings of each is too slow, so distinct invariants prove them
pairwise non-isomorphic, and only graphs whose invariants tie take a
search for an isomorphism. Each gets the oracle checks of its
Theta*-partition, flags and index values; coarsenings and splits stay
at 6 vertices.
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

from conftest import built_parts, rest_parts

# connected graphs up to isomorphism on n = 2..7 vertices (OEIS A001349)
COUNTS = {2: 1, 3: 2, 4: 6, 5: 21}
SIX = 112
SEVEN = 853


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
def listed_graphs(name):
    """The edge lists of `data/<name>`, one graph a line."""
    text = (Path(__file__).parent / "data" / name).read_text()
    return [
        tuple(tuple(map(int, pair.split("-"))) for pair in line.split())
        for line in text.splitlines()
        if not line.startswith("#")
    ]


def _all_graphs():
    graphs = [build_graph(n, edges) for n in COUNTS for edges in connected_graphs(n)]
    return graphs + [build_graph(6, edges) for edges in listed_graphs("connected6.txt")]


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
    graphs = listed_graphs("connected6.txt")
    assert len(graphs) == len(set(graphs)) == SIX
    for edges in graphs:
        assert is_connected(build_graph(6, edges)), edges
        assert _canonical(6, edges) == edges


def _check_theta_star(g):
    """Check Theta* of g against the oracle and return both partitions."""
    p = theta_star_partition(g)
    star = oracle_theta_star_partition(g)
    # equality and hashing ignore the two-sided flags only Theta* writes
    assert p == star and hash(p) == hash(star), g.edges
    assert all(p.two_sided) == is_partial_cube(g) == oracle_is_partial_cube(g), g.edges
    rows = all_pairs_distances(g)
    for members, flag in zip(p.classes, p.two_sided, strict=True):
        sides = _components(g, members)
        clean = len(sides) == 2 and all(_convex(rows, side) for side in sides)
        assert flag == clean, (g.edges, sorted(members))
    return p, star


def test_theta_star_flags_match_the_oracle():
    for g in _all_graphs():
        _check_theta_star(g)


def _vertex_invariants(n, edges):
    """Per vertex, an invariant of its place in the graph: its sorted
    distance row (degree included), refined twice by the sorted invariants
    of its neighbours."""
    rows = all_pairs_distances(build_graph(n, edges))
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    inv = [tuple(sorted(row)) for row in rows]
    for _ in range(2):
        inv = [(inv[x], tuple(sorted(inv[y] for y in nbrs[x]))) for x in range(n)]
    return inv


def _isomorphic(n, a, inv_a, b, inv_b):
    """Whether some bijection that keeps the vertex invariants maps edge
    list a onto edge list b, by a backtracking search."""
    ea = set(map(frozenset, a))
    eb = set(map(frozenset, b))
    image = []
    used = set()

    def extend(x):
        if x == n:
            return True
        for y in range(n):
            if y not in used and inv_b[y] == inv_a[x] and all(
                (frozenset((x, z)) in ea) == (frozenset((y, image[z])) in eb) for z in range(x)
            ):
                image.append(y)
                used.add(y)
                if extend(x + 1):
                    return True
                image.pop()
                used.discard(y)
        return False

    return len(a) == len(b) and extend(0)


def test_the_seven_vertex_list_is_complete():
    # 853 pairwise non-isomorphic connected graphs are all of them
    graphs = listed_graphs("connected7.txt")
    assert len(graphs) == len(set(graphs)) == SEVEN
    invariants = [_vertex_invariants(7, edges) for edges in graphs]
    for edges in graphs:
        assert all(u < v for u, v in edges) and list(edges) == sorted(edges), edges
        assert is_connected(build_graph(7, edges)), edges
    ties = {}
    for i, inv in enumerate(invariants):
        ties.setdefault(tuple(sorted(inv)), []).append(i)
    tied = [group for group in ties.values() if len(group) > 1]
    assert len(ties) == 839 and sum(map(len, tied)) == 28
    shift = [3, 5, 0, 6, 1, 4, 2]
    for group in tied:
        for k, i in enumerate(group):
            for j in group[:k]:
                assert not _isomorphic(7, graphs[i], invariants[i], graphs[j], invariants[j])
            # the search finds a relabelled copy, so its refusals mean something
            moved = [(shift[u], shift[v]) for u, v in graphs[i]]
            assert _isomorphic(7, graphs[i], invariants[i], moved, _vertex_invariants(7, moved))


def test_every_seven_vertex_graph_matches_the_oracle():
    for edges in listed_graphs("connected7.txt"):
        g = build_graph(7, edges)
        p, star = _check_theta_star(g)
        for s in (False, True):
            expected = oracle_suite(g, s).as_tuple()
            assert weighted_suite_direct(g, s).as_tuple() == expected, edges
            # the flagged partition reads its clean cuts; the oracle's, with
            # no flags, builds one quotient per class
            assert weighted_suite_cut(g, p, s).as_tuple() == expected, edges
            assert weighted_suite_cut(g, star, s).as_tuple() == expected, edges


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
        rows = all_pairs_distances(g)
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
            # each class builds one quotient over its rest in each bridgeless
            # piece that holds some of it, or none
            for s in (False, True):
                with mock.patch.object(indices, "quotient_graph", wraps=quotient_graph) as spy:
                    report = weighted_suite_cut(g, q, s)
                assert report.as_tuple() == expected[s], (g.edges, blocks)
                assert built_parts(spy) == rest_parts(g, rest), (g.edges, blocks)
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
