"""Brute-force reference implementations of every index and of Theta*.

Every index is evaluated straight from the definitions with two fresh
BFS runs per edge, and Theta* by testing every pair of edges. The module
deliberately shares no computation with `indices` or with the BFS-tree
pass in `theta` (only graph primitives, result types and the union-find),
so a bug cannot hide on both sides of the equivalence tests. It is
O(n*m) for the indices, O(m^2) for Theta*, and unoptimised on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, all_pairs_distances, bfs_distances, require_connected
from .indices import IndexKind, IndexReport
from .quotient import Weight, WeightAssignment
from .theta import EdgePartition, _UnionFind

__all__ = [
    "EdgeSides",
    "oracle_edge_sides",
    "oracle_theta_star_partition",
    "oracle_suite",
    "oracle_general",
]


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
    edges = g.edges
    rows = dm.rows
    for i in range(m):
        u1, v1 = edges[i]
        r1, r2 = rows[u1], rows[v1]
        for j in range(i + 1, m):
            u2, v2 = edges[j]
            if r1[u2] + r2[v2] != r1[v2] + r2[u2]:
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for e in range(m):
        groups.setdefault(uf.find(e), []).append(e)
    return EdgePartition.from_classes(
        groups.values(), m, refined_by_theta_star=True
    )


def oracle_suite(g: Graph, starred: bool = False) -> IndexReport:
    """The four degree-weighted indices, one definition-level sum per edge."""
    require_connected(g)
    deg = g.degrees()
    w_sz = w_pi_v = w_sz_e = w_pi = 0
    for eid, (u, v) in enumerate(g.edges):
        sides = oracle_edge_sides(g, eid)
        nu, nv = len(sides.n_u), len(sides.n_v)
        mu, mv = len(sides.m_u), len(sides.m_v)
        wp = deg[u] * deg[v] if starred else deg[u] + deg[v]
        w_sz += wp * nu * nv
        w_pi_v += wp * (nu + nv)
        w_sz_e += wp * mu * mv
        w_pi += wp * (mu + mv)
    return IndexReport("direct", starred, w_sz, w_pi_v, w_sz_e, w_pi)


def oracle_general(g: Graph, wa: WeightAssignment, kind: IndexKind) -> Weight:
    """Definition-level evaluation of any of the five weighted indices."""
    require_connected(g)
    wa.check_shape(g)
    total: Weight = 0
    for eid in range(g.m):
        sides = oracle_edge_sides(g, eid)
        n_u = sum(wa.w[x] for x in sides.n_u)
        n_v = sum(wa.w[x] for x in sides.n_v)
        m_u = sum(wa.lambda_prime[f] for f in sides.m_u)
        m_v = sum(wa.lambda_prime[f] for f in sides.m_v)
        wp = wa.w_prime[eid]
        if kind is IndexKind.SZ:
            total += wp * n_u * n_v
        elif kind is IndexKind.PI_V:
            total += wp * (n_u + n_v)
        elif kind is IndexKind.SZ_E:
            total += wp * m_u * m_v
        elif kind is IndexKind.PI:
            total += wp * (m_u + m_v)
        elif kind is IndexKind.SZ_T:
            total += wp * (n_u + m_u) * (n_v + m_v)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown index kind {kind!r}")
    return total
