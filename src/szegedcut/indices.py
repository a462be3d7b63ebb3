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
    Sz_t  -> sum Sz_t(G_i, w_i + lam_i, lam_i', w_i')

The last holds for any weights, as an edge of F_i has the side sums of
its quotient edge in G_i, whose lam_i counts the edges off F_i, and the
masses of two vertex weights add (Tratnik, arXiv 1904.09831).

One engine, `_sums`, evaluates these five quotient sums for any weighted
graph, and `_terms` states their per-edge terms once for all of its
paths. The direct route uses it too: G is its own quotient by E, with
lam = 0, so Sz_t(G, 0, lambda', w') = Sz_e, PI_v(G, 0, w') + PI(G,
lambda', w') = PI and the fifth sum is Sz_t: one row yields every kind.

The engine reads every bridge as a clean cut, from one subtree
aggregation over its BFS tree: a tree, all bridges, takes that alone, in
linear time. Any other graph folds the far side of each bridge onto the
bridge's near end, and each bridgeless piece takes one multi-source BFS
over bitmasks, the sweep `graph._sweep` that the Theta* pass shares:
every vertex and every edge is a source with its own bit, the balls
around all vertices grow one hop per round, each vertex keeps the
distances of the sources mod 4, and one pass per edge uv reads from them
the sources nearer u and those nearer v. The `theta` module docstring
says why the fold keeps the sums. Sources run in equal sweeps of at most
`graph._SOURCE_BITS`, so memory stays linear in n + m. A sweep takes
about one round per unit of diameter, so long thin pieces cost the most
per edge.

The cut route reads each class of a c-partition as its two-sided
Theta*-classes plus one quotient of the rest: splitting a class so
gives another c-partition with the same totals for any weights
(Klavzar, MATCH 60 (2008) 255-274). A two-sided class, such as a bridge
or any class of a partial cube, is one cut with two convex sides, so its
quotient is K2, fixed by the weights of the sides. `_read_classes`,
which the cut routes and `szegedcut quotient` share, splits each class
so from the Theta*-classes of the gate `theta._require_c_partition`: the
subtree aggregation that takes trees, run once over G, gives all the K2s
in O(n+m). A partition trusted without flags builds one quotient per class.

All arithmetic is exact: the engine adds Python ints, and Fraction
weights are scaled to ints first and divided back at the end.

All four routes, the two suites and the per-kind calls, share one checked
evaluation, `_evaluate`, which yields all five totals. It runs with the
cyclic garbage collector paused (`graph._collector_paused`). Its
connectivity check builds G's BFS tree, kept with G for `_cut_sides`, the
bridges and Theta* to read, so G's tree is built once. Only the per-kind
calls `weighted_index` and `general_cut_index` enter a memo: G keeps, like
its tree, the weights and partition of its last such evaluation, by
reference, with their totals. A call on G with those very objects
(compared with `is`, not by value) reads its kind from them. So a loop
over the four cut kinds builds every quotient once, and Sz_t after them
runs no evaluation: `weighted_index` also reads a cut entry whose
partition the library certified on G's very edge tuple. The entry lives
and dies with G, and no graph evicts another's; the suites keep nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, repeat
from math import lcm
from operator import add, and_, lshift, mul
from typing import Iterator, Sequence

from .errors import UnsupportedKindError
from .graph import Graph, _bfs_tree, _bridges, _collector_paused, _pieces, _sweep, _sweep_ranges
from .quotient import Weight, WeightAssignment, quotient_graph
from .theta import EdgePartition, _require_c_partition


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

Sums = tuple[Weight, Weight, Weight, Weight, Weight]
Columns = tuple[Iterator[Weight], ...]  # the terms of each of the five sums, read once


def _sums(
    g: Graph,
    w: Sequence[Weight],
    lam: Sequence[Weight],
    lambda_prime: Sequence[Weight],
    w_prime: Sequence[Weight],
) -> Sums:
    """Sz(w, w'), PI_v(w, w'), Sz_t(lam, lambda', w'), PI_v(lam, w') +
    PI(lambda', w') and Sz_t(w + lam, lambda', w') of a connected graph
    with nonnegative int weights.

    A bridge splits the vertex and edge sets cleanly in two, so its sides
    come from the subtree aggregation `_cut_sides`. A tree is all bridges,
    which m = n - 1 tells in O(1), so it takes that pass alone and skips
    the fold. Any other graph reads its bridges (`graph._bridges`) as
    clean cuts from one `_cut_sides` pass, then folds the far side of each
    onto its near end, once from each end: w, and t with the bridge's
    lambda'. Each bridgeless piece then takes one bit-parallel multi-source
    BFS that finds both sides of each of its edges at once; the `theta`
    module docstring says why the sums stay those of g. Each term is
    symmetric in the two sides of its edge, so no path tracks orientation.
    """
    if g.m == g.n - 1:
        return _column_sums(_terms(*_cut_sides(g, w, lam, lambda_prime, w_prime, range(g.m), g.m)[1:]))
    below = _bridges(g)
    if not below:
        return _column_sums(_generic_sums(g, w, lam, lambda_prime, w_prime))
    _, parent, parent_edge = _bfs_tree(g)
    k = len(below)
    class_of = [k] * g.m  # bridge c is class c; the other edges share class k
    for c, x in enumerate(below):
        class_of[parent_edge[x]] = c
    lp_f, wp_f, w_a, w_b, t_a, t_b = (
        col[:k] for col in _cut_sides(g, w, lam, lambda_prime, w_prime, class_of, k + 1)
    )
    # the weight of each vertex plus all that hangs on it through bridges
    # away from its piece: the side below bridge c hangs on its parent end,
    # the side above on the vertex below it
    w_in = list(w)
    t_in = list(lam)
    for x, lp, wa, wb, ta, tb in zip(below, lp_f, w_a, w_b, t_a, t_b):
        px = parent[x]
        w_in[px] += wa
        t_in[px] += ta + lp
        w_in[x] += wb
        t_in[x] += tb + lp
    parts = [_column_sums(_terms(wp_f, w_a, w_b, t_a, t_b))]
    for vs, es, piece in _pieces(g, below):
        piece_weights = (
            [w_in[x] for x in vs],
            [t_in[x] for x in vs],
            [lambda_prime[e] for e in es],
            [w_prime[e] for e in es],
        )
        parts.append(_column_sums(_generic_sums(piece, *piece_weights)))
    return tuple(map(sum, zip(*parts)))


def _column_sums(columns: Columns) -> Sums:
    return tuple(map(sum, columns))


def _terms(w_prime, n_u, n_v, t_u, t_v) -> Columns:
    """The terms of the five sums of `_sums`, from w' and the sides n_u, n_v
    (of w) and t_u, t_v (of lam and lambda') of each edge or class. Side
    masses add, so n_u + t_u is the side of the vertex weight w + lam."""
    return (
        map(mul, w_prime, map(mul, n_u, n_v)),
        map(mul, w_prime, map(add, n_u, n_v)),
        map(mul, w_prime, map(mul, t_u, t_v)),
        map(mul, w_prime, map(add, t_u, t_v)),
        map(mul, w_prime, map(mul, map(add, n_u, t_u), map(add, n_v, t_v))),
    )


def _cut_sides(g, w, lam, lambda_prime, w_prime, class_of, k):
    """The weights of G/F for each of the k classes F of `class_of`, read
    as clean cuts, in O(n + m + k): the lists lambda'(F), w'(F), w(A), w(B),
    t(A) and t(B), of which the last five are the `_terms` arguments.

    A clean cut F has two convex sides A and B, so a geodesic crosses F at
    most once, and the side A away from the root of G's `graph._bfs_tree`
    is the disjoint union of the subtrees below F's tree edges. G/F is K2
    with vertex weights w(A), w(B) and t(A), t(B), where t sums lam over
    the vertices and lambda' over the edges inside a side. With s(x) = 2
    lam(x) plus lambda' over the edges at x, s(A) counts the edges of F
    once and the rest twice, so t(A) = (s(A) - lambda'(F)) / 2. B holds the root, vertex 0. The weights of a class
    that is not a clean cut mean nothing.
    """
    sub_s = list(map(add, lam, lam))  # s(x), then summed over the subtree below x
    lp_f = [0] * k
    wp_f = [0] * k
    for (u, v), c, lp, wp in zip(g.edges, class_of, lambda_prime, w_prime):
        sub_s[u] += lp
        sub_s[v] += lp
        lp_f[c] += lp
        wp_f[c] += wp
    total_w = sum(w)
    total_s = sum(sub_s)
    order, parent, parent_edge = _bfs_tree(g)
    sub_w = list(w)
    w_a = [0] * k
    s_a = [0] * k
    for x in reversed(order[1:]):
        c = class_of[parent_edge[x]]
        w_a[c] += sub_w[x]
        s_a[c] += sub_s[x]
        px = parent[x]
        sub_w[px] += sub_w[x]
        sub_s[px] += sub_s[x]
    w_b = [total_w - a for a in w_a]
    t_a = [(sa - lp) // 2 for sa, lp in zip(s_a, lp_f)]
    t_b = [(total_s - sa - lp) // 2 for sa, lp in zip(s_a, lp_f)]
    return lp_f, wp_f, w_a, w_b, t_a, t_b


def _generic_sums(g, w, lam, lambda_prime, w_prime) -> Columns:
    # The multi-source sweep of `graph._sweep`, which Theta* shares, gives
    # every edge both of its sides. Vertex x is source x, and edge f is
    # source n + f, seeded at both ends because an edge is as far as its
    # nearer endpoint. Sources run in the fewest equal sweeps that fit
    # `graph._SOURCE_BITS`, so memory stays linear in n + m.
    n, m = g.n, g.m
    edges = g.edges
    vertex_mass = [*w, *repeat(0, m)]  # n_u, n_v count vertices only
    total_mass = [*lam, *lambda_prime]  # t_u, t_v count lam and lambda'
    n_u = n_v = t_u = t_v = [0] * m
    for sources in _sweep_ranges(n + m):
        lo = sources.start
        reach = [0] * n
        for s in sources:
            for y in (s,) if s < n else edges[s - n]:
                reach[y] |= 1 << (s - lo)
        near_u, near_v = _sweep(g, reach)
        planes = _bit_planes(vertex_mass[lo : sources.stop])
        n_u = _add_masses(n_u, near_u, planes)
        n_v = _add_masses(n_v, near_v, planes)
        planes = _bit_planes(total_mass[lo : sources.stop])
        t_u = _add_masses(t_u, near_u, planes)
        t_v = _add_masses(t_v, near_v, planes)
    return _terms(w_prime, n_u, n_v, t_u, t_v)


def _bit_planes(masses: list[int]) -> list[tuple[int, int]]:
    """(b, plane) pairs: bit i of `plane` is bit b of masses[i]; zero planes
    are left out, so all-zero masses give none.

    The masses, highest index first, are written as one string of
    fixed-width binary rows; the digits of plane width - 1 - j are its
    characters j, j + width, ..., one strided slice."""
    width = max(masses).bit_length()
    if not width:
        return []
    rows = "".join(map(format, masses[::-1], repeat(f"0{width}b")))
    planes = []
    for j in range(width):
        plane = int(rows[j::width], 2)
        if plane:
            planes.append((width - 1 - j, plane))
    return planes


def _add_masses(
    acc: list[int], masks: list[int], planes: list[tuple[int, int]]
) -> list[int]:
    """acc[i] plus the mass of the sources in masks[i]: a popcount per plane."""
    for b, plane in planes:
        counts = map(int.bit_count, map(and_, masks, repeat(plane)))
        acc = list(map(add, acc, map(lshift, counts, repeat(b))))
    return acc


def _integral(wa: WeightAssignment) -> tuple[WeightAssignment, int]:
    """`wa` times the common denominator d of all its weights, as plain
    ints (whole Fractions too), and d; `wa` itself when all are ints.

    The engine then adds only ints and reads their bits; `_totals` divides
    the sums back.
    """
    vectors = (wa.w, wa.w_prime, wa.lambda_prime)
    if {int}.issuperset(map(type, chain(*vectors))):
        return wa, 1
    d = lcm(*(x.denominator for vec in vectors for x in vec))
    return WeightAssignment._wrap(
        *(tuple(x.numerator * (d // x.denominator) for x in vec) for vec in vectors)
    ), d


def _totals(sums: Sequence[Sums], d: int = 1) -> Sums:
    """Slot-wise totals of five-sums taken on weights scaled by d, unscaled."""
    totals = tuple(map(sum, zip(*sums))) or (0,) * 5
    if d == 1:
        return totals
    # the three Szeged-type sums multiply three weights, PI_v and PI two
    return tuple(Fraction(t, d**k) for t, k in zip(totals, (3, 2, 3, 2, 3)))


# where each index sits among the five sums of a row taken with lam = 0
_SLOT = {
    IndexKind.SZ: 0, IndexKind.PI_V: 1, IndexKind.SZ_E: 2, IndexKind.PI: 3, IndexKind.SZ_T: 4
}


def _slot(kind: IndexKind) -> int:
    if not isinstance(kind, IndexKind):
        raise UnsupportedKindError(f"{kind!r} is not an IndexKind")
    return _SLOT[kind]


# ---------------------------------------------------------------------------
# direct evaluation: G is its own quotient by E, with lam = 0
# ---------------------------------------------------------------------------

def weighted_index(g: Graph, wa: WeightAssignment, kind: IndexKind) -> Weight:
    """Evaluate one index of the weighted graph from its definition.

    Calls on the same g and wa share one evaluation of all five kinds, kept
    on g, or read that of `general_cut_index` on them and a partition
    certified on g's edges, whose totals are these.
    """
    slot = _slot(kind)
    return _last_totals(g, wa, None)[slot]


def weighted_suite_direct(g: Graph, starred: bool = False) -> IndexReport:
    """All four degree-weighted indices from the definitions, no quotients."""
    rows, _ = _evaluate(g, WeightAssignment.degree_weighted(g, starred), None)
    return IndexReport("direct", starred, *_totals(rows)[:4])


# ---------------------------------------------------------------------------
# cut method
# ---------------------------------------------------------------------------

def _read_classes(g: Graph, wa: WeightAssignment, p: EdgePartition) -> tuple[Sequence, Sequence]:
    """Two sequences by class of p, if p is a c-partition: the clean cuts of
    each, as the weights (w0, t0, w1, t1, lambda', w') of their K2s, whose
    vertex 0 is the side holding G's vertex 0; and the set of its other edges."""
    star = _require_c_partition(g, p)
    if star is None:
        return [()] * len(p), p.classes
    cuts = [[] for _ in p.classes]
    rest = {}
    lp, wp, w_a, w_b, t_a, t_b = _cut_sides(g, wa.w, (0,) * g.n, wa.lambda_prime, wa.w_prime, star.class_of, len(star))
    for members, sided, cut in zip(star.classes, star.two_sided, zip(w_b, t_b, w_a, t_a, lp, wp)):
        c = p.class_of[next(iter(members))]
        if sided:
            cuts[c].append(cut)
        else:
            rest.setdefault(c, set()).update(members)
    return cuts, [rest.get(c, ()) for c in range(len(p))]


def _class_contributions(g: Graph, wa: WeightAssignment, p: EdgePartition) -> list[Sums]:
    """The five quotient sums of every class of p, in class order, on int
    weights: the rows of its clean cuts, from one `_terms` pass, plus the sums
    of one quotient of its rest; a lone row, the common case, skips the sum."""
    cuts, rests = _read_classes(g, wa, p)
    w0, t0, w1, t1, _, wp = list(zip(*chain.from_iterable(cuts))) or [()] * 6
    rows = zip(*_terms(wp, w0, w1, t0, t1))
    contribs = [next(rows) if len(k2s) == 1 else tuple(map(sum, zip((0,) * 5, *islice(rows, len(k2s)))))
                for k2s in cuts]
    for c, rest in enumerate(rests):
        if rest:
            q = quotient_graph(g, wa, rest)
            contribs[c] = tuple(map(add, contribs[c], _sums(q.graph, q.w, q.lam, q.lambda_prime, q.w_prime)))
    return contribs


def weighted_suite_cut(
    g: Graph, p: EdgePartition, starred: bool = False
) -> IndexReport:
    """All four degree-weighted indices as sums over quotient contributions.

    `p` must be a c-partition; partitions not flagged as Theta*-refined are
    validated first (O(m) time on a hole-free benzenoid or a phenylene,
    else O(n*m) time and O(n+m) memory).
    """
    # degree weights are ints, so d = 1 and the rows need no unscaling
    rows, _ = _evaluate(g, WeightAssignment.degree_weighted(g, starred), p)
    per_class = tuple(ClassContribution(i, *c[:4]) for i, c in enumerate(rows))
    return IndexReport("cut", starred, *_totals(rows)[:4], per_class)


def general_cut_index(
    g: Graph, wa: WeightAssignment, p: EdgePartition, kind: IndexKind
) -> Weight:
    """Cut decomposition of one index for arbitrary nonnegative weights.

    Sz and PI_v sum the same kind over the quotients; Sz_e sums the
    total-Szeged index of the quotients; PI sums PI_v(lam_i, w_i') plus
    PI(lam_i', w_i'); Sz_t sums Sz_t(G_i, w_i + lam_i, lam_i', w_i').
    Calls for every kind on the same g, wa and p share one evaluation, kept
    on g, which `weighted_index` also reads when p is certified on g's edges.
    """
    slot = _slot(kind)
    return _last_totals(g, wa, p)[slot]


# ---------------------------------------------------------------------------
# one checked evaluation, and one per input for the per-kind calls
# ---------------------------------------------------------------------------

def _evaluate(
    g: Graph, wa: WeightAssignment, p: EdgePartition | None
) -> tuple[list[Sums], int]:
    """The five sums of each class of p, or when p is None the one row of
    the direct route, taken with lam = 0, on weights scaled by d; and d.
    Either way the slots total Sz, PI_v, Sz_e, PI and Sz_t of G. Checks g,
    then the shape of wa, then p. The sums build only ints and acyclic
    containers of them, so the cyclic collector is paused."""
    with _collector_paused():
        _bfs_tree(g)  # the connectivity check, which keeps g's tree for `_sums` and `_cut_sides`
        wa.check_shape(g)
        scaled, d = _integral(wa)
        if p is None:
            return [_sums(g, scaled.w, (0,) * g.n, scaled.lambda_prime, scaled.w_prime)], d
        return _class_contributions(g, scaled, p), d


def _last_totals(g: Graph, wa: WeightAssignment, p: EdgePartition | None) -> Sums:
    """The unscaled totals of `_evaluate`, read from g's entry when wa and p
    are those of g's last evaluation by it, or, for a direct call, when the
    entry's partition was certified on g's very edge tuple: the cut totals
    are the direct ones there. A partition trusted by the raw keyword or
    `replace()` is bound to no edges, so it is never read across routes.
    wa and p are matched by identity, as equal-valued inputs would cost a
    hash over all weights. A call that raises leaves the entry as it was."""
    last = getattr(g, "_last", None)  # one read, so a concurrent write never splits the entry
    if last is not None and last[0] is wa:
        q = last[1]
        if q is p or (p is None and q._certified_on is g.edges):
            return last[2]
    totals = _totals(*_evaluate(g, wa, p))
    g._last = (wa, p, totals)
    return totals
