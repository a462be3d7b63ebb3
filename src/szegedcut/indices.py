"""Weighted Szeged-type and PI-type indices, directly and by the cut method.

For an edge e = uv, the side sets collect what lies strictly closer to
one endpoint: N_u / N_v for vertices, M_u / M_v for edges (distance from
a vertex to an edge being the nearer endpoint distance). Anything
equidistant is in neither side. With a vertex weight w and edge weights
lambda' and w', the per-edge side sums n_u, n_v, m_u, m_v define

    Sz   = sum w'(e) * n_u * n_v          PI_v = sum w'(e) * (n_u + n_v)
    Sz_e = sum w'(e) * m_u * m_v          PI   = sum w'(e) * (m_u + m_v)
    Sz_t = sum w'(e) * (n_u + m_u) * (n_v + m_v)

The degree-weighted family wSz/wPI_v/wSz_e/wPI takes w = 1, lambda' = 1
and w'(uv) = deg(u)+deg(v) (starred variants use deg(u)*deg(v)). The cut
method evaluates the same totals as sums over the weighted quotients of
any c-partition:

    wSz   -> sum Sz(G_i, w_i, w_i')
    wPI_v -> sum PI_v(G_i, w_i, w_i')
    wSz_e -> sum Sz_t(G_i, lam_i, lam_i', w_i')
    wPI   -> sum PI_v(G_i, lam_i, w_i') + PI(G_i, lam_i', w_i')

All arithmetic is exact (Python ints, Fractions for fractional input).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidCPartitionError, UnsupportedKindError
from .graph import DistanceMatrix, Graph, _bfs, require_connected
from .quotient import QuotientGraph, Weight, WeightAssignment, quotient_graph
from .theta import EdgePartition, validate_c_partition


class IndexKind(enum.Enum):
    SZ = "Sz"
    PI_V = "PI_v"
    SZ_E = "Sz_e"
    PI = "PI"
    SZ_T = "Sz_t"


@dataclass(frozen=True)
class EdgeSides:
    """Strict closer-sides of an edge e = uv: vertex sets and edge sets."""

    n_u: frozenset[int]
    n_v: frozenset[int]
    m_u: frozenset[int]
    m_v: frozenset[int]


@dataclass(frozen=True)
class ClassContribution:
    class_index: int
    w_sz: Weight
    w_pi_v: Weight
    w_sz_e: Weight
    w_pi: Weight


@dataclass(frozen=True)
class IndexReport:
    """The four index values plus how they were obtained.

    When `starred` is set the values are the degree-product variants.
    `per_class` holds one contribution row per partition class for the
    cut method and is empty for direct evaluation.
    """

    method: str
    starred: bool
    w_sz: Weight
    w_pi_v: Weight
    w_sz_e: Weight
    w_pi: Weight
    per_class: tuple[ClassContribution, ...] = field(default=())

    def as_tuple(self) -> tuple[Weight, Weight, Weight, Weight]:
        return (self.w_sz, self.w_pi_v, self.w_sz_e, self.w_pi)

    def to_json_dict(self) -> dict:
        # values as decimal strings so arbitrary precision survives JSON
        return {
            "method": self.method,
            "starred": self.starred,
            "wSz": str(self.w_sz),
            "wPI_v": str(self.w_pi_v),
            "wSz_e": str(self.w_sz_e),
            "wPI": str(self.w_pi),
            "per_class": [
                {
                    "class": c.class_index,
                    "wSz": str(c.w_sz),
                    "wPI_v": str(c.w_pi_v),
                    "wSz_e": str(c.w_sz_e),
                    "wPI": str(c.w_pi),
                }
                for c in self.per_class
            ],
        }


def edge_sides(g: Graph, dm: DistanceMatrix, eid: int) -> EdgeSides:
    """Side sets of an edge from a precomputed distance matrix."""
    u, v = g.edges[eid]
    du, dv = dm.rows[u], dm.rows[v]
    n_u = frozenset(x for x in range(g.n) if du[x] < dv[x])
    n_v = frozenset(x for x in range(g.n) if dv[x] < du[x])
    m_u, m_v = set(), set()
    for f, (x, y) in enumerate(g.edges):
        dfu = du[x] if du[x] < du[y] else du[y]
        dfv = dv[x] if dv[x] < dv[y] else dv[y]
        if dfu < dfv:
            m_u.add(f)
        elif dfv < dfu:
            m_v.add(f)
    return EdgeSides(n_u, n_v, frozenset(m_u), frozenset(m_v))


def first_zagreb(g: Graph) -> int:
    """Sum of squared vertex degrees."""
    return sum(len(a) * len(a) for a in g.adj)


# ---------------------------------------------------------------------------
# per-edge side sums
# ---------------------------------------------------------------------------

SideSums = list  # per edge: (nu, nv, mu, mv), each a tuple over weight vectors


def _side_sums_tree(
    g: Graph,
    vertex_vectors: Sequence[Sequence[Weight]],
    edge_vectors: Sequence[Sequence[Weight]],
) -> SideSums:
    # Removing a tree edge splits the vertex and edge sets cleanly in two,
    # so one pass of subtree aggregation gives every side sum in O(n).
    n = g.n
    order = [0]
    parent_edge = [-1] * n
    parent_vertex = [-1] * n
    seen = bytearray(n)
    seen[0] = 1
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y, eid in g.adj[x]:
            if not seen[y]:
                seen[y] = 1
                parent_edge[y] = eid
                parent_vertex[y] = x
                order.append(y)
                queue.append(y)

    sub_v = [list(vec) for vec in vertex_vectors]
    sub_e = [[0] * n for _ in edge_vectors]
    for x in reversed(order[1:]):
        p = parent_vertex[x]
        pe = parent_edge[x]
        for k in range(len(vertex_vectors)):
            sub_v[k][p] += sub_v[k][x]
        for k, vec in enumerate(edge_vectors):
            sub_e[k][p] += sub_e[k][x] + vec[pe]

    total_v = [sum(vec) for vec in vertex_vectors]
    total_e = [sum(vec) for vec in edge_vectors]

    result: SideSums = [None] * g.m
    for x in order[1:]:
        eid = parent_edge[x]
        a, b = g.edges[eid]
        child_n = tuple(sub_v[k][x] for k in range(len(vertex_vectors)))
        child_m = tuple(sub_e[k][x] for k in range(len(edge_vectors)))
        other_n = tuple(total_v[k] - child_n[k] for k in range(len(vertex_vectors)))
        other_m = tuple(
            total_e[k] - child_m[k] - edge_vectors[k][eid]
            for k in range(len(edge_vectors))
        )
        if a == x:  # stored orientation has the child first
            result[eid] = (child_n, other_n, child_m, other_m)
        else:
            result[eid] = (other_n, child_n, other_m, child_m)
    return result


def _side_sums_generic(
    g: Graph,
    vertex_vectors: Sequence[Sequence[Weight]],
    edge_vectors: Sequence[Sequence[Weight]],
) -> SideSums:
    # Two BFS runs per edge; no all-pairs table is stored.
    nv_vec = len(vertex_vectors)
    ne_vec = len(edge_vectors)
    result: SideSums = [None] * g.m
    for eid, (u, v) in enumerate(g.edges):
        du = _bfs(g, u)
        dv = _bfs(g, v)
        nu = [0] * nv_vec
        nv = [0] * nv_vec
        for x in range(g.n):
            if du[x] < dv[x]:
                for k in range(nv_vec):
                    nu[k] += vertex_vectors[k][x]
            elif dv[x] < du[x]:
                for k in range(nv_vec):
                    nv[k] += vertex_vectors[k][x]
        mu = [0] * ne_vec
        mv = [0] * ne_vec
        for f, (x, y) in enumerate(g.edges):
            dfu = du[x] if du[x] < du[y] else du[y]
            dfv = dv[x] if dv[x] < dv[y] else dv[y]
            if dfu < dfv:
                for k in range(ne_vec):
                    mu[k] += edge_vectors[k][f]
            elif dfv < dfu:
                for k in range(ne_vec):
                    mv[k] += edge_vectors[k][f]
        result[eid] = (tuple(nu), tuple(nv), tuple(mu), tuple(mv))
    return result


def _edge_side_sums(g, vertex_vectors, edge_vectors) -> SideSums:
    """Side sums for every edge under the given weight vectors.

    Connected trees get the linear-time aggregation path; everything else
    falls back to per-edge BFS.
    """
    if g.m == g.n - 1:
        return _side_sums_tree(g, vertex_vectors, edge_vectors)
    return _side_sums_generic(g, vertex_vectors, edge_vectors)


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------

def weighted_index(g: Graph, wa: WeightAssignment, kind: IndexKind) -> Weight:
    """Evaluate one index of the weighted graph from its definition."""
    require_connected(g)
    wa.check_shape(g)
    need_vertex = kind in (IndexKind.SZ, IndexKind.PI_V, IndexKind.SZ_T)
    need_edge = kind in (IndexKind.SZ_E, IndexKind.PI, IndexKind.SZ_T)
    sums = _edge_side_sums(
        g,
        [wa.w] if need_vertex else [],
        [wa.lambda_prime] if need_edge else [],
    )
    total: Weight = 0
    for eid in range(g.m):
        nu, nv, mu, mv = sums[eid]
        wp = wa.w_prime[eid]
        if kind is IndexKind.SZ:
            total += wp * nu[0] * nv[0]
        elif kind is IndexKind.PI_V:
            total += wp * (nu[0] + nv[0])
        elif kind is IndexKind.SZ_E:
            total += wp * mu[0] * mv[0]
        elif kind is IndexKind.PI:
            total += wp * (mu[0] + mv[0])
        else:
            total += wp * (nu[0] + mu[0]) * (nv[0] + mv[0])
    return total


def weighted_suite_direct(g: Graph, starred: bool = False) -> IndexReport:
    """All four degree-weighted indices from the definitions, no quotients."""
    require_connected(g)
    wa = WeightAssignment.degree_weighted(g, starred)
    sums = _edge_side_sums(g, [wa.w], [wa.lambda_prime])
    w_sz = w_pi_v = w_sz_e = w_pi = 0
    for eid in range(g.m):
        nu, nv, mu, mv = sums[eid]
        wp = wa.w_prime[eid]
        w_sz += wp * nu[0] * nv[0]
        w_pi_v += wp * (nu[0] + nv[0])
        w_sz_e += wp * mu[0] * mv[0]
        w_pi += wp * (mu[0] + mv[0])
    return IndexReport("direct", starred, w_sz, w_pi_v, w_sz_e, w_pi)


# ---------------------------------------------------------------------------
# cut method
# ---------------------------------------------------------------------------

def _quotient_contribution(q: QuotientGraph) -> tuple[Weight, Weight, Weight, Weight]:
    # One side-sum pass serves all four decomposed indices: vertex vectors
    # are (w, lam), the edge vector is lam'.
    sums = _edge_side_sums(q.graph, [q.w, q.lam], [q.lambda_prime])
    sz = pi_v = sz_t = pi = 0
    for eid in range(q.graph.m):
        nu, nv, mu, mv = sums[eid]
        wp = q.w_prime[eid]
        sz += wp * nu[0] * nv[0]
        pi_v += wp * (nu[0] + nv[0])
        sz_t += wp * (nu[1] + mu[0]) * (nv[1] + mv[0])
        pi += wp * ((nu[1] + nv[1]) + (mu[0] + mv[0]))
    return sz, pi_v, sz_t, pi


def _require_c_partition(g: Graph, p: EdgePartition) -> None:
    if p.num_edges != g.m:
        raise InvalidCPartitionError(
            f"partition covers {p.num_edges} edges, graph has {g.m}"
        )
    if not p.refined_by_theta_star and not validate_c_partition(g, p):
        raise InvalidCPartitionError(
            "partition splits a Theta*-class across classes"
        )


def _class_contributions(
    g: Graph, wa: WeightAssignment, p: EdgePartition, threads: int = 1
):
    def work(members):
        return _quotient_contribution(quotient_graph(g, wa, members))

    if threads > 1 and len(p.classes) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            # reduction in class order keeps the result schedule-independent
            return list(pool.map(work, p.classes))
    return [work(members) for members in p.classes]


def weighted_suite_cut(
    g: Graph, p: EdgePartition, starred: bool = False, threads: int = 1
) -> IndexReport:
    """All four degree-weighted indices as sums over quotient contributions.

    `p` must be a c-partition; partitions not flagged as Theta*-refined are
    validated first (O(n*m) time, O(n+m) memory).
    """
    require_connected(g)
    _require_c_partition(g, p)
    wa = WeightAssignment.degree_weighted(g, starred)
    contribs = _class_contributions(g, wa, p, threads)
    per_class = tuple(
        ClassContribution(i, *c) for i, c in enumerate(contribs)
    )
    w_sz = sum(c.w_sz for c in per_class)
    w_pi_v = sum(c.w_pi_v for c in per_class)
    w_sz_e = sum(c.w_sz_e for c in per_class)
    w_pi = sum(c.w_pi for c in per_class)
    return IndexReport("cut", starred, w_sz, w_pi_v, w_sz_e, w_pi, per_class)


def general_cut_index(
    g: Graph, wa: WeightAssignment, p: EdgePartition, kind: IndexKind
) -> Weight:
    """Cut decomposition of one index for arbitrary nonnegative weights.

    Sz and PI_v sum the same kind over the quotients; Sz_e sums the
    total-Szeged index of the quotients; PI sums PI_v(lam_i, w_i') plus
    PI(lam_i', w_i'). Sz_t itself has no decomposition and is rejected.
    """
    if kind is IndexKind.SZ_T:
        raise UnsupportedKindError("Sz_t has no cut decomposition")
    require_connected(g)
    wa.check_shape(g)
    _require_c_partition(g, p)
    slot = {
        IndexKind.SZ: 0,
        IndexKind.PI_V: 1,
        IndexKind.SZ_E: 2,
        IndexKind.PI: 3,
    }[kind]
    contribs = _class_contributions(g, wa, p)
    return sum(c[slot] for c in contribs)
