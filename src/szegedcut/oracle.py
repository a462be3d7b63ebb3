"""Brute-force references for every index, Theta*, and the partial-cube test.

Every index is evaluated straight from the definitions with two fresh
BFS runs per edge, in one pass that `oracle_suite` and `oracle_general`
share; Theta*, the partial-cube test and the distance
decomposition of quotients read `all_pairs_distances`, a plain tuple of
one distance row per vertex. The module
deliberately shares no computation with `indices`, `quotient_graph` or
the BFS-tree pass in `theta` (only graph primitives, result types and
the union-find), so a bug cannot hide on both sides of the equivalence
tests. It is O(n*m) for the indices, O(m^2) for Theta*, unoptimised on
purpose, and the only module that holds O(n^2) state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import UnsupportedKindError
from .graph import Graph, bfs_distances, require_connected
from .indices import IndexKind, IndexReport
from .quotient import QuotientGraph, Weight, WeightAssignment
from .theta import EdgePartition, _UnionFind, _trust

__all__ = [
    "EdgeSides",
    "all_pairs_distances",
    "distance_decomposition_check",
    "oracle_edge_sides",
    "oracle_is_partial_cube",
    "oracle_theta_star_partition",
    "oracle_suite",
    "oracle_general",
    "theta_related",
]


def all_pairs_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Row u holds the hop distances from u; n BFS runs, O(n*m). Raises
    DisconnectedError on disconnected input."""
    return tuple(bfs_distances(g, v) for v in range(g.n))


def theta_related(g: Graph, dm: Sequence[Sequence[int]], e1: int, e2: int) -> bool:
    """Test the Djokovic-Winkler relation between two edges.

    Orientation-independent: swapping the endpoint naming of either edge
    swaps the two compared pairings, leaving the inequality unchanged.
    """
    u1, v1 = g.edges[e1]
    u2, v2 = g.edges[e2]
    r1, r2 = dm[u1], dm[v1]
    return r1[u2] + r2[v2] != r1[v2] + r2[u2]


@dataclass(frozen=True)
class EdgeSides:
    """Strict closer-sides of an edge e = uv: vertex sets and edge sets."""

    n_u: frozenset[int]
    n_v: frozenset[int]
    m_u: frozenset[int]
    m_v: frozenset[int]


def oracle_edge_sides(g: Graph, eid: int) -> EdgeSides:
    """Side sets of an edge from two fresh BFS runs (no shared tables)."""
    u, v = g.edges[eid]
    du = bfs_distances(g, u)
    dv = bfs_distances(g, v)
    n_u = frozenset(x for x in range(g.n) if du[x] < dv[x])
    n_v = frozenset(x for x in range(g.n) if dv[x] < du[x])
    m_u = set()
    m_v = set()
    for f, (x, y) in enumerate(g.edges):
        near_u = min(du[x], du[y])
        near_v = min(dv[x], dv[y])
        if near_u < near_v:
            m_u.add(f)
        elif near_v < near_u:
            m_v.add(f)
    return EdgeSides(n_u, n_v, frozenset(m_u), frozenset(m_v))


def oracle_theta_star_partition(g: Graph) -> EdgePartition:
    """Theta*-classes via the pairwise O(m^2) test over a distance matrix."""
    require_connected(g)
    dm = all_pairs_distances(g)
    m = g.m
    uf = _UnionFind(m)
    for i, j in combinations(range(m), 2):
        if theta_related(g, dm, i, j):
            uf.union(i, j)
    return _trust(EdgePartition.from_labels(map(uf.find, range(m))), g.edges)


def oracle_is_partial_cube(g: Graph) -> bool:
    """Bipartite, and Theta transitive: each Theta*-class pairwise related."""
    star = oracle_theta_star_partition(g)
    dm = all_pairs_distances(g)
    # a connected graph is bipartite iff no edge joins two equal distances
    if any(dm[0][u] == dm[0][v] for u, v in g.edges):
        return False
    return all(
        theta_related(g, dm, a, b)
        for members in star.classes
        for a, b in combinations(sorted(members), 2)
    )


def distance_decomposition_check(g: Graph, quotients: Sequence[QuotientGraph]) -> bool:
    """Self-test: d_G(u,v) equals the sum of quotient distances for all pairs.

    Holds whenever the quotients come from a c-partition covering E(g).
    Not meant for the hot path; it materialises all-pairs tables.
    """
    dm = all_pairs_distances(g)
    qdms = [all_pairs_distances(q.graph) for q in quotients]
    return all(
        dm[u][v]
        == sum(qdm[q.component_map[u]][q.component_map[v]]
               for q, qdm in zip(quotients, qdms))
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def _oracle_sums(g: Graph, w: Sequence[Weight], lam: Sequence[Weight],
                 wp: Sequence[Weight]) -> dict[IndexKind, Weight]:
    """All five indices, keyed by kind, for vertex weight w, side edge
    weight lam and term weight wp, summed edge by edge."""
    require_connected(g)
    sz = pi_v = sz_e = pi = sz_t = 0
    for eid in range(g.m):
        sides = oracle_edge_sides(g, eid)
        n_u = sum(w[x] for x in sides.n_u)
        n_v = sum(w[x] for x in sides.n_v)
        m_u = sum(lam[f] for f in sides.m_u)
        m_v = sum(lam[f] for f in sides.m_v)
        wpe = wp[eid]
        sz += wpe * n_u * n_v
        pi_v += wpe * (n_u + n_v)
        sz_e += wpe * m_u * m_v
        pi += wpe * (m_u + m_v)
        sz_t += wpe * (n_u + m_u) * (n_v + m_v)
    return {IndexKind.SZ: sz, IndexKind.PI_V: pi_v, IndexKind.SZ_E: sz_e,
            IndexKind.PI: pi, IndexKind.SZ_T: sz_t}


def oracle_suite(g: Graph, starred: bool = False) -> IndexReport:
    """The four degree-weighted indices: unit w and lambda', and w'(uv) =
    deg(u)+deg(v), or deg(u)*deg(v) if starred."""
    deg = g.degrees()
    wp = [deg[u] * deg[v] if starred else deg[u] + deg[v] for u, v in g.edges]
    s = _oracle_sums(g, [1] * g.n, [1] * g.m, wp)
    return IndexReport("direct", starred, s[IndexKind.SZ], s[IndexKind.PI_V],
                       s[IndexKind.SZ_E], s[IndexKind.PI])


def oracle_general(g: Graph, wa: WeightAssignment, kind: IndexKind) -> Weight:
    """Definition-level evaluation of any of the five weighted indices."""
    if not isinstance(kind, IndexKind):
        raise UnsupportedKindError(f"{kind!r} is not an IndexKind")
    wa.check_shape(g)
    return _oracle_sums(g, wa.w, wa.lambda_prime, wa.w_prime)[kind]
