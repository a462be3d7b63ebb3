"""Quotient graphs over edge classes and their induced weights.

For a class F of a c-partition, the quotient G/F has the connected
components of G minus F as vertices, two components being adjacent when
an F-edge crosses between them. The F-edges joining the same two
components make one quotient edge, and four weights are induced:

    w(X)    = sum of vertex weights inside component X
    lam(X)  = sum of lambda' over edges internal to X
    w'(E)   = sum of w' over the F-edges that E merges
    lam'(E) = sum of lambda' over the F-edges that E merges

The F-edges themselves are not kept: F-edge uv lies in quotient edge
{component_map[u], component_map[v]}. One build is O(n+m) time and
memory: one scan numbers the components and sums their w, one pass
over the edges sums the rest, and the sorted component pairs, distinct
with cu < cv, are wrapped as the quotient's edges with no second copy
or check (`Graph._wrap`). The all-pairs self-test of the distance
decomposition over these quotients lives in `oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import InvalidWeightError, PartitionNotCoveringError
from .graph import Graph

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
        for name in ("w", "w_prime", "lambda_prime"):
            # a tuple copy, so a caller's list cannot change after the checks
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if not _EXACT_TYPES.issuperset(map(type, values)):
                bad = next(x for x in values if type(x) not in _EXACT_TYPES)
                raise InvalidWeightError(
                    f"{name} value {bad!r} is not an int or Fraction"
                )
            if min(values, default=0) < 0:
                raise InvalidWeightError(f"negative {name} value")

    @classmethod
    def _wrap(cls, w: tuple, w_prime: tuple, lambda_prime: tuple) -> "WeightAssignment":
        # tuples of nonnegative ints that the package made itself (`unit`,
        # `degree_weighted`, `indices._integral`): kept as given, with no
        # copy and no check, as `Graph._wrap` keeps edges
        wa = cls.__new__(cls)
        object.__setattr__(wa, "w", w)
        object.__setattr__(wa, "w_prime", w_prime)
        object.__setattr__(wa, "lambda_prime", lambda_prime)
        return wa

    @classmethod
    def unit(cls, g: Graph) -> "WeightAssignment":
        return cls._wrap((1,) * g.n, (1,) * g.m, (1,) * g.m)

    @classmethod
    def degree_weighted(cls, g: Graph, starred: bool = False) -> "WeightAssignment":
        """Unit w and lambda'; w'(uv) is deg(u)+deg(v), or deg(u)*deg(v) if starred."""
        deg = [len(a) for a in g.adj]
        if starred:
            wp = tuple(deg[u] * deg[v] for u, v in g.edges)
        else:
            wp = tuple(deg[u] + deg[v] for u, v in g.edges)
        return cls._wrap((1,) * g.n, wp, (1,) * g.m)

    def check_shape(self, g: Graph) -> None:
        if len(self.w) != g.n or len(self.w_prime) != g.m or len(self.lambda_prime) != g.m:
            raise InvalidWeightError("weight assignment does not match graph shape")


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient G/F of a host graph by an edge set F, with induced weights.

    Fields:
        graph: the quotient graph G/F.
        component_map: per host vertex, its component (quotient vertex).
        w, lam: per quotient vertex, the induced vertex weights.
        w_prime, lambda_prime: per quotient edge, the induced edge weights.

    Component indices are canonical: ordered by smallest contained vertex
    id. Quotient edges are ordered lexicographically by component pair.
    """

    graph: Graph
    component_map: tuple[int, ...]
    w: tuple[Weight, ...]
    lam: tuple[Weight, ...]
    w_prime: tuple[Weight, ...]
    lambda_prime: tuple[Weight, ...]


def quotient_graph(g: Graph, wa: WeightAssignment, f: Iterable[int]) -> QuotientGraph:
    """Build G/F with induced weights.

    f may be empty (one-vertex quotient) or all of E(G) (quotient
    isomorphic to g). Crossing edges between the same component pair are
    merged into a single quotient edge that carries their summed weights.
    """
    wa.check_shape(g)
    m = g.m
    removed = bytearray(m)
    for e in f:
        if not 0 <= e < m:
            raise PartitionNotCoveringError(f"edge id {e} outside 0..{m - 1}")
        removed[e] = 1

    # scanning starts in vertex order numbers components by smallest vertex;
    # each scan sums the w of the component it numbers
    comp = [-1] * g.n
    adj = g.adj
    across = g._across
    w = wa.w
    w_q: list[Weight] = []
    nc = 0
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        comp[start] = nc
        total = w[start]
        stack = [start]
        while stack:
            x = stack.pop()
            for e in adj[x]:
                if not removed[e]:
                    y = across[e] ^ x
                    if comp[y] < 0:
                        comp[y] = nc
                        total += w[y]
                        stack.append(y)
        w_q.append(total)
        nc += 1

    lam_q: list[Weight] = [0] * nc
    # per component pair, the w' and lambda' sums of the F-edges joining it
    wp_q: dict[tuple[int, int], Weight] = {}
    lp_q: dict[tuple[int, int], Weight] = {}
    for eid, (u, v) in enumerate(g.edges):
        cu = comp[u]
        if not removed[eid]:
            lam_q[cu] += wa.lambda_prime[eid]
            continue
        cv = comp[v]
        if cu != cv:  # a removed edge inside one component joins no pair
            key = (cu, cv) if cu < cv else (cv, cu)
            wp_q[key] = wp_q.get(key, 0) + wa.w_prime[eid]
            lp_q[key] = lp_q.get(key, 0) + wa.lambda_prime[eid]

    # distinct pairs cu < cv of components 0..nc-1: a simple graph
    pairs = tuple(sorted(wp_q))
    return QuotientGraph(
        graph=Graph._wrap(nc, pairs),
        component_map=tuple(comp),
        w=tuple(w_q),
        lam=tuple(lam_q),
        w_prime=tuple(map(wp_q.__getitem__, pairs)),
        lambda_prime=tuple(map(lp_q.__getitem__, pairs)),
    )
