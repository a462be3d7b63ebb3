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
    """Quotient G/F of a host graph by an edge set F, with induced weights.

    Fields:
        graph: the quotient graph G/F.
        component_map: per host vertex, its component (quotient vertex).
        fibers: per quotient edge, the host edge ids crossing it.
        w, lam: per quotient vertex, the induced vertex weights.
        w_prime, lambda_prime: per quotient edge, the induced edge weights.

    Component indices are canonical: ordered by smallest contained vertex
    id. Quotient edges are ordered lexicographically by their component
    pair, and each fiber lists its edge ids in increasing order.
    """

    graph: Graph
    component_map: tuple[int, ...]
    fibers: tuple[tuple[int, ...], ...]
    w: tuple[Weight, ...]
    lam: tuple[Weight, ...]
    w_prime: tuple[Weight, ...]
    lambda_prime: tuple[Weight, ...]


def quotient_graph(g: Graph, wa: WeightAssignment, f: Iterable[int]) -> QuotientGraph:
    """Build G/F with induced weights.

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

    # scanning starts in vertex order numbers components by smallest vertex
    comp = [-1] * g.n
    adj = g.adj
    nc = 0
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        comp[start] = nc
        stack = [start]
        while stack:
            x = stack.pop()
            for y, eid in adj[x]:
                if comp[y] < 0 and not removed[eid]:
                    comp[y] = nc
                    stack.append(y)
        nc += 1

    w_q: list[Weight] = [0] * nc
    for c, wv in zip(comp, wa.w):
        w_q[c] += wv

    lam_q: list[Weight] = [0] * nc
    fibers_by_pair: dict[tuple[int, int], list[int]] = {}
    for eid, (u, v) in enumerate(g.edges):
        cu = comp[u]
        if not removed[eid]:
            lam_q[cu] += wa.lambda_prime[eid]
            continue
        cv = comp[v]
        if cu != cv:  # a removed edge inside one component is in no fiber
            key = (cu, cv) if cu < cv else (cv, cu)
            fibers_by_pair.setdefault(key, []).append(eid)

    pairs = sorted(fibers_by_pair)
    fibers = tuple(tuple(fibers_by_pair[k]) for k in pairs)
    return QuotientGraph(
        graph=Graph(nc, pairs),
        component_map=tuple(comp),
        fibers=fibers,
        w=tuple(w_q),
        lam=tuple(lam_q),
        w_prime=tuple(sum(wa.w_prime[e] for e in fib) for fib in fibers),
        lambda_prime=tuple(sum(wa.lambda_prime[e] for e in fib) for fib in fibers),
    )


def distance_decomposition_check(g: Graph, quotients: Sequence[QuotientGraph]) -> bool:
    """Self-test: d_G(u,v) equals the sum of quotient distances for all pairs.

    Holds whenever the quotients come from a c-partition covering E(g).
    Not meant for the hot path; it materialises all-pairs tables.
    """
    dm = all_pairs_distances(g)
    qdms = [all_pairs_distances(q.graph) for q in quotients]
    return all(
        dm.rows[u][v]
        == sum(qdm.rows[q.component_map[u]][q.component_map[v]]
               for q, qdm in zip(quotients, qdms))
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )
