"""Quotient graphs over edge classes and their induced weights.

For a class F of a c-partition, the quotient G/F has the connected
components of G minus F as vertices, two components being adjacent when
an F-edge crosses between them. Each quotient edge keeps its fiber (the
set of crossing edge ids), and four weights are induced:

    w(X)    = sum of vertex weights inside component X
    lam(X)  = sum of lambda' over edges internal to X
    w'(E)   = sum of w' over the fiber of E
    lam'(E) = sum of lambda' over the fiber of E
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InvalidWeightError
from .graph import Graph, all_pairs_distances

Weight = Union[int, Fraction]
# exact types only: type() rather than isinstance() also rejects bool
_EXACT_TYPES = frozenset((int, Fraction))


@dataclass(frozen=True)
class WeightAssignment:
    """One vertex weight and two edge weights on a host graph.

    `w` weights vertices, `lambda_prime` weights edges when they are
    counted on the sides of another edge, and `w_prime` multiplies each
    edge's term in an index sum. Every value must be a nonnegative int or
    Fraction (not a float or bool), so all arithmetic stays exact.
    """

    w: tuple[Weight, ...]
    w_prime: tuple[Weight, ...]
    lambda_prime: tuple[Weight, ...]

    def __post_init__(self):
        for name, values in (
            ("w", self.w),
            ("w_prime", self.w_prime),
            ("lambda_prime", self.lambda_prime),
        ):
            if not _EXACT_TYPES.issuperset(map(type, values)):
                bad = next(x for x in values if type(x) not in _EXACT_TYPES)
                raise InvalidWeightError(
                    f"{name} value {bad!r} is not an int or Fraction"
                )
            if any(x < 0 for x in values):
                raise InvalidWeightError(f"negative {name} value")

    @classmethod
    def unit(cls, g: Graph) -> "WeightAssignment":
        return cls((1,) * g.n, (1,) * g.m, (1,) * g.m)

    @classmethod
    def degree_weighted(cls, g: Graph, starred: bool = False) -> "WeightAssignment":
        """Unit w and lambda'; w'(uv) is deg(u)+deg(v), or deg(u)*deg(v) if starred."""
        deg = [len(a) for a in g.adj]
        if starred:
            wp = tuple(deg[u] * deg[v] for u, v in g.edges)
        else:
            wp = tuple(deg[u] + deg[v] for u, v in g.edges)
        return cls((1,) * g.n, wp, (1,) * g.m)

    def check_shape(self, g: Graph) -> None:
        if len(self.w) != g.n or len(self.w_prime) != g.m or len(self.lambda_prime) != g.m:
            raise ValueError("weight assignment does not match graph shape")


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient of `base` by the removed edge set, with induced weights.

    Component indices are canonical: ordered by smallest contained vertex
    id. Quotient edges are ordered lexicographically by their component
    pair; `fibers[k]` lists the base edge ids crossing quotient edge k.
    """

    base: Graph
    removed_edges: frozenset[int]
    graph: Graph
    component_map: tuple[int, ...]
    component_vertices: tuple[tuple[int, ...], ...]
    component_edges: tuple[tuple[int, ...], ...]
    fibers: tuple[tuple[int, ...], ...]
    w: tuple[Weight, ...]
    lam: tuple[Weight, ...]
    w_prime: tuple[Weight, ...]
    lambda_prime: tuple[Weight, ...]


def quotient_graph(g: Graph, wa: WeightAssignment, f: Iterable[int]) -> QuotientGraph:
    """Build G/F with induced weights, eagerly.

    f may be empty (one-vertex quotient) or all of E(G) (quotient
    isomorphic to g). Crossing edges between the same component pair are
    merged into a single quotient edge; the fiber keeps them all.
    """
    wa.check_shape(g)
    removed = bytearray(g.m)
    for e in f:
        if not 0 <= e < g.m:
            raise ValueError(f"edge id {e} outside 0..{g.m - 1}")
        removed[e] = 1

    comp = [-1] * g.n
    comp_vertices: list[list[int]] = []
    adj = g.adj
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        cid = len(comp_vertices)
        comp[start] = cid
        members = [start]
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y, eid in adj[x]:
                if not removed[eid] and comp[y] < 0:
                    comp[y] = cid
                    members.append(y)
                    queue.append(y)
        comp_vertices.append(sorted(members))

    nc = len(comp_vertices)
    w_q: list[Weight] = [0] * nc
    for v in range(g.n):
        w_q[comp[v]] += wa.w[v]

    lam_q: list[Weight] = [0] * nc
    comp_edges: list[list[int]] = [[] for _ in range(nc)]
    fibers_by_pair: dict[tuple[int, int], list[int]] = {}
    for eid in range(g.m):
        u, v = g.edges[eid]
        cu, cv = comp[u], comp[v]
        if removed[eid]:
            if cu != cv:
                key = (cu, cv) if cu < cv else (cv, cu)
                fibers_by_pair.setdefault(key, []).append(eid)
            # a removed edge inside one component belongs to no fiber
        else:
            comp_edges[cu].append(eid)
            lam_q[cu] += wa.lambda_prime[eid]

    pairs = sorted(fibers_by_pair)
    qgraph = Graph(nc, pairs)
    fibers = tuple(tuple(fibers_by_pair[k]) for k in pairs)
    wp_q = tuple(sum(wa.w_prime[e] for e in fib) for fib in fibers)
    lp_q = tuple(sum(wa.lambda_prime[e] for e in fib) for fib in fibers)

    return QuotientGraph(
        base=g,
        removed_edges=frozenset(e for e in range(g.m) if removed[e]),
        graph=qgraph,
        component_map=tuple(comp),
        component_vertices=tuple(tuple(c) for c in comp_vertices),
        component_edges=tuple(tuple(c) for c in comp_edges),
        fibers=fibers,
        w=tuple(w_q),
        lam=tuple(lam_q),
        w_prime=wp_q,
        lambda_prime=lp_q,
    )


def component_of(q: QuotientGraph, u: int) -> int:
    """Index of the component of G minus F containing vertex u."""
    return q.component_map[u]


def distance_decomposition_check(g: Graph, quotients: Sequence[QuotientGraph]) -> bool:
    """Self-test: d_G(u,v) equals the sum of quotient distances for all pairs.

    Holds whenever the quotients come from a c-partition covering E(g).
    Not meant for the hot path; it materialises all-pairs tables.
    """
    dm = all_pairs_distances(g)
    qdms = [all_pairs_distances(q.graph) for q in quotients]
    for u in range(g.n):
        row = dm.rows[u]
        for v in range(u + 1, g.n):
            total = 0
            for q, qdm in zip(quotients, qdms):
                total += qdm.rows[q.component_map[u]][q.component_map[v]]
            if total != row[v]:
                return False
    return True
