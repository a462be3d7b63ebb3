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

One engine, `_sums`, evaluates these four quotient sums for any weighted
graph. The direct route uses it too: G is its own quotient by E, with
lam = 0, so Sz_t(G, 0, lambda', w') = Sz_e and PI_v(G, 0, w') + PI(G,
lambda', w') = PI. Passing lam = w instead gives the total-Szeged index.

All arithmetic is exact (Python ints, Fractions for fractional input).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import lcm
from operator import eq
from typing import Iterator, Sequence

from .errors import InvalidCPartitionError, UnsupportedKindError
from .graph import Graph, require_connected
from .quotient import Weight, WeightAssignment, quotient_graph
from .theta import EdgePartition, validate_c_partition


class IndexKind(enum.Enum):
    SZ = "Sz"
    PI_V = "PI_v"
    SZ_E = "Sz_e"
    PI = "PI"
    SZ_T = "Sz_t"


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
            **_json_values(self),
            "per_class": [
                {"class": c.class_index, **_json_values(c)} for c in self.per_class
            ],
        }


def _json_values(x) -> dict:
    # the four values of an IndexReport or a ClassContribution
    return {
        "wSz": str(x.w_sz),
        "wPI_v": str(x.w_pi_v),
        "wSz_e": str(x.w_sz_e),
        "wPI": str(x.w_pi),
    }


def first_zagreb(g: Graph) -> int:
    """Sum of squared vertex degrees."""
    return sum(len(a) * len(a) for a in g.adj)


# ---------------------------------------------------------------------------
# the side-sum engine
# ---------------------------------------------------------------------------

Sums = tuple[Weight, Weight, Weight, Weight]


def _sums(
    g: Graph,
    w: Sequence[Weight],
    lam: Sequence[Weight],
    lambda_prime: Sequence[Weight],
    w_prime: Sequence[Weight],
) -> Sums:
    """Sz(w, w'), PI_v(w, w'), Sz_t(lam, lambda', w') and PI_v(lam, w') +
    PI(lambda', w') of a connected graph, in one pass over its edges.

    Trees take the linear subtree-aggregation path; every other graph
    takes one two-source BFS per edge. Each term is symmetric in the two
    sides of its edge, so neither path tracks orientation.
    """
    if g.m == g.n - 1:
        return _tree_sums(g, w, lam, lambda_prime, w_prime)
    return _generic_sums(g, w, lam, lambda_prime, w_prime)


def _tree_sums(g, w, lam, lambda_prime, w_prime) -> Sums:
    # Removing a tree edge splits the vertex and edge sets cleanly in two,
    # so subtree totals give both sides of every edge.
    adj = g.adj
    parent = [-1] * g.n
    parent_edge = [-1] * g.n
    order = [0]
    for x in order:  # BFS from vertex 0; the list grows while it is read
        p = parent[x]
        for y, eid in adj[x]:
            if y != p:
                parent[y] = x
                parent_edge[y] = eid
                order.append(y)

    total_w = sum(w)
    total_t = sum(lam) + sum(lambda_prime)
    sub_w = list(w)
    sub_t = list(lam)  # lam of the subtree's vertices plus lambda' of its edges
    sz = sz_t = pi = 0
    for x in reversed(order[1:]):
        eid = parent_edge[x]
        a = sub_w[x]
        t = sub_t[x]
        lp = lambda_prime[eid]
        wp = w_prime[eid]
        rest = total_t - lp
        sz += wp * a * (total_w - a)
        sz_t += wp * t * (rest - t)
        pi += wp * rest
        p = parent[x]
        sub_w[p] += a
        sub_t[p] += t + lp
    # every vertex is strictly closer to one end of a tree edge
    return sz, total_w * sum(w_prime), sz_t, pi


def _generic_sums(g, w, lam, lambda_prime, w_prime) -> Sums:
    # One BFS from both ends of uv labels each vertex 1 (closer to u),
    # 2 (closer to v) or 3 (tie): the OR of its parents' labels on the
    # shortest-path DAG. An edge is as far from u (or v) as its nearer
    # endpoint, so it takes the label of its endpoint on the lower level,
    # or the OR of both labels when the endpoints share a level.
    n = g.n
    adj = g.adj
    sz = pi_v = sz_t = pi = 0
    for (u, v), wp in zip(g.edges, w_prime):
        level = [-1] * n
        side = [0] * n
        level[u] = level[v] = 0
        side[u], side[v] = 1, 2
        edge_mass = [0, 0, 0, 0]  # lambda' by edge label
        frontier = [u, v]
        d = 0
        while frontier:
            d += 1
            below = []
            for x in frontier:
                sx = side[x]
                for y, eid in adj[x]:
                    dy = level[y]
                    if dy < 0:
                        level[y] = d
                        side[y] = sx
                        below.append(y)
                        edge_mass[sx] += lambda_prime[eid]
                    elif dy == d:
                        side[y] |= sx
                        edge_mass[sx] += lambda_prime[eid]
                    elif dy == d - 1 and x < y:
                        edge_mass[sx | side[y]] += lambda_prime[eid]
            frontier = below
        on_u = list(map(eq, side, repeat(1)))
        on_v = list(map(eq, side, repeat(2)))
        nu = sum(compress(w, on_u))
        nv = sum(compress(w, on_v))
        tu = sum(compress(lam, on_u)) + edge_mass[1]
        tv = sum(compress(lam, on_v)) + edge_mass[2]
        sz += wp * nu * nv
        pi_v += wp * (nu + nv)
        sz_t += wp * tu * tv
        pi += wp * (tu + tv)
    return sz, pi_v, sz_t, pi


def _integral(wa: WeightAssignment) -> tuple[WeightAssignment, int]:
    """`wa` times the common denominator d of all its weights, and d.

    The hot loops then add only ints; `_totals` divides the sums back.
    """
    vectors = (wa.w, wa.w_prime, wa.lambda_prime)
    d = lcm(*(x.denominator for vec in vectors for x in vec))
    if d > 1:
        wa = WeightAssignment(
            *(tuple(x.numerator * (d // x.denominator) for x in vec) for vec in vectors)
        )
    return wa, d


def _totals(sums: Sequence[Sums], d: int = 1) -> Sums:
    """Slot-wise totals of four-sums taken on weights scaled by d, unscaled."""
    totals = tuple(sum(s[k] for s in sums) for k in range(4))
    if d == 1:
        return totals
    # Sz and Sz_t multiply three weights, PI_v and PI two
    return tuple(Fraction(t, d**k) for t, k in zip(totals, (3, 2, 3, 2)))


# where each index sits among the four sums (Sz_t and Sz_e differ in lam)
_SLOT = {
    IndexKind.SZ: 0, IndexKind.PI_V: 1, IndexKind.SZ_E: 2, IndexKind.SZ_T: 2, IndexKind.PI: 3
}


# ---------------------------------------------------------------------------
# direct evaluation: G is its own quotient by E, with lam = 0
# ---------------------------------------------------------------------------

def weighted_index(g: Graph, wa: WeightAssignment, kind: IndexKind) -> Weight:
    """Evaluate one index of the weighted graph from its definition."""
    require_connected(g)
    wa.check_shape(g)
    wa, d = _integral(wa)
    # Sz_t counts vertex masses on the sides too; Sz_e and PI count edges only
    lam = wa.w if kind is IndexKind.SZ_T else (0,) * g.n
    sums = _sums(g, wa.w, lam, wa.lambda_prime, wa.w_prime)
    return _totals([sums], d)[_SLOT[kind]]


def weighted_suite_direct(g: Graph, starred: bool = False) -> IndexReport:
    """All four degree-weighted indices from the definitions, no quotients."""
    require_connected(g)
    wa = WeightAssignment.degree_weighted(g, starred)
    sums = _sums(g, wa.w, (0,) * g.n, wa.lambda_prime, wa.w_prime)
    return IndexReport("direct", starred, *sums)


# ---------------------------------------------------------------------------
# cut method
# ---------------------------------------------------------------------------

def _require_c_partition(g: Graph, p: EdgePartition) -> None:
    if p.num_edges != g.m:
        raise InvalidCPartitionError(
            f"partition covers {p.num_edges} edges, graph has {g.m}"
        )
    if not p.refined_by_theta_star and not validate_c_partition(g, p):
        raise InvalidCPartitionError("partition splits a Theta*-class across classes")


def _class_contributions(
    g: Graph, wa: WeightAssignment, p: EdgePartition
) -> Iterator[Sums]:
    for members in p.classes:
        q = quotient_graph(g, wa, members)
        yield _sums(q.graph, q.w, q.lam, q.lambda_prime, q.w_prime)


def weighted_suite_cut(
    g: Graph, p: EdgePartition, starred: bool = False
) -> IndexReport:
    """All four degree-weighted indices as sums over quotient contributions.

    `p` must be a c-partition; partitions not flagged as Theta*-refined are
    validated first (O(n*m) time, O(n+m) memory).
    """
    require_connected(g)
    _require_c_partition(g, p)
    wa = WeightAssignment.degree_weighted(g, starred)
    contribs = list(_class_contributions(g, wa, p))
    per_class = tuple(ClassContribution(i, *c) for i, c in enumerate(contribs))
    return IndexReport("cut", starred, *_totals(contribs), per_class)


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
    wa, d = _integral(wa)
    return _totals(list(_class_contributions(g, wa, p)), d)[_SLOT[kind]]
