"""Djokovic-Winkler relation, Theta*-classes, c-partitions, partial cubes.

Two edges e1 = u1v1 and e2 = u2v2 are Theta-related when
d(u1,u2) + d(v1,v2) != d(u1,v2) + d(u2,v1). Theta is reflexive and
symmetric but not transitive in general; its transitive closure Theta*
partitions the edge set. A partition whose classes are unions of
Theta*-classes is called a c-partition and is the input the cut method
requires.

Theta* and c-partition validation come from one pass over the edges of a
BFS spanning tree, in O(n*m) time and O(n+m) memory. The same pass finds
the classes that are one clean cut: a class F is two-sided when some tree
edge ab in F has all of F as its Theta-cut and no vertex is equidistant
from a and b. Then G - F has exactly two components, both convex, so the
cut method reads F from a subtree aggregation instead of a quotient.
Bridges are the common case in graphs with odd cycles. A graph is a
partial cube iff every class is two-sided, so `is_partial_cube` costs one
Theta* pass. The pairwise definition over an all-pairs distance table is
kept in `oracle` as the reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from itertools import compress, repeat
from operator import and_, eq, itemgetter, ne, xor
from typing import Iterable, Iterator, Mapping

from .errors import (
    DisconnectedError,
    IncompleteGroupingError,
    InvalidCPartitionError,
    MalformedPartitionError,
    PartitionNotCoveringError,
)
from .graph import Graph, require_connected


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class EdgePartition:
    """A partition of the edge ids 0..m-1 into disjoint nonempty classes.

    Classes are canonically ordered by their smallest edge id. The
    `refined_by_theta_star` flag asserts that every class is a union of
    Theta*-classes; generators that know this by construction set it so
    index pipelines can skip the O(n*m) validation. `two_sided` holds one
    flag per class, asserting that the class is a Theta*-class F whose
    removal leaves exactly two components, both convex; the cut method
    reads the flagged classes from one subtree aggregation instead of a
    quotient. The `partial_cube` flag asserts that the classes are the
    Theta*-classes of a partial cube, which holds iff every class is
    two-sided. Only `theta_star_partition` sets these two; an empty
    `two_sided` flags no class.
    """

    classes: tuple[frozenset[int], ...]
    class_of: tuple[int, ...]
    refined_by_theta_star: bool = False
    partial_cube: bool = False
    two_sided: tuple[bool, ...] = ()

    @classmethod
    def from_classes(
        cls,
        classes: Iterable[Iterable[int]],
        m: int,
        refined_by_theta_star: bool = False,
    ) -> "EdgePartition":
        canon = [frozenset(c) for c in classes]
        if not all(canon):
            raise MalformedPartitionError("empty partition class")
        canon.sort(key=min)
        class_of = [-1] * m
        total = 0
        for idx, members in enumerate(canon):
            for e in members:
                if not 0 <= e < m:
                    raise PartitionNotCoveringError(f"edge id {e} outside 0..{m - 1}")
                if class_of[e] >= 0:
                    raise MalformedPartitionError(f"edge id {e} in two classes")
                class_of[e] = idx
            total += len(members)
        if total != m:
            raise PartitionNotCoveringError(
                f"classes cover {total} of {m} edges"
            )
        return cls(tuple(canon), tuple(class_of), refined_by_theta_star)

    @property
    def num_edges(self) -> int:
        return len(self.class_of)

    def __len__(self) -> int:
        return len(self.classes)


def single_class_partition(m: int) -> EdgePartition:
    """The coarsest partition {E(G)}; trivially a c-partition."""
    if m == 0:
        return EdgePartition((), (), refined_by_theta_star=True)
    return EdgePartition.from_classes([range(m)], m, refined_by_theta_star=True)


_MASK_BITS = 64  # tree edges cut per bipartite BFS


def _propagate(nbrs: list[list[int]], lab: list[int], sources: list[int]) -> None:
    # Level-synchronous BFS from `sources` (all at distance 0) that ORs each
    # vertex's label into its successors in the shortest-path DAG, so on
    # return lab[z] is the OR over every shortest path into z.
    dist = [-1] * len(nbrs)
    for s in sources:
        dist[s] = 0
    frontier = sources
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            lx = lab[x]
            for y in nbrs[x]:
                dy = dist[y]
                if dy < 0:
                    dist[y] = d
                    lab[y] |= lx
                    nxt.append(y)
                elif dy == d:
                    lab[y] |= lx
        frontier = nxt


Cuts = Iterator[tuple[int, Iterable[int], bool]]


def _theta_cuts(g: Graph) -> Cuts:
    """(e, edges Theta-related to e, whether some vertex is equidistant
    from the ends of e) for every edge e of a BFS tree.

    Theta* is the transitive closure of Theta restricted to pairs (tree
    edge, any edge) for a BFS spanning tree (Hammack, Imrich and Klavzar,
    Handbook of Product Graphs, 2nd ed., 2011), so these pairs determine
    it. An edge f = xy is Theta-related to e = pc iff x and y differ in
    whether they are closer to p, closer to c, or equidistant. Time is
    O(n*m), memory O(n+m); the cuts and each yielded iterable are
    single-pass.

    Raises:
        DisconnectedError: if g is not connected.
    """
    n, m = g.n, g.m
    depth = [-1] * n
    parent_edge = [-1] * n
    depth[0] = 0
    order = [0]
    for x in order:  # grows while iterated: a BFS queue
        dx = depth[x] + 1
        for y, eid in g.adj[x]:
            if depth[y] < 0:
                depth[y] = dx
                parent_edge[y] = eid
                order.append(y)
    if len(order) < n:
        raise DisconnectedError("graph is not connected")
    if m <= 1:
        # a connected graph with one edge: the edge is its own class (and
        # itemgetter with a single index would return a scalar below)
        return iter([(0, (0,), False)] if m else [])

    nbrs = [[y for y, _ in a] for a in g.adj]
    xs = itemgetter(*(u for u, _ in g.edges))
    ys = itemgetter(*(v for _, v in g.edges))
    tree = [parent_edge[c] for c in order[1:]]
    # an edge joins two equal BFS depths iff g has an odd cycle
    if any(map(eq, xs(depth), ys(depth))):
        return _general_cuts(g, tree, nbrs, xs, ys)
    return _bipartite_cuts(g, tree, depth, nbrs, xs, ys)


def _general_cuts(g: Graph, tree: list[int], nbrs, xs, ys) -> Cuts:
    # One two-source BFS per tree edge pc labels each vertex closer to p
    # (1), closer to c (2) or equidistant (3).
    edge_ids = range(g.m)
    for eid in tree:
        u, v = g.edges[eid]
        lab = [0] * g.n
        lab[u], lab[v] = 1, 2
        _propagate(nbrs, lab, [u, v])
        yield eid, compress(edge_ids, map(ne, xs(lab), ys(lab))), 3 in lab


def _bipartite_cuts(g: Graph, tree: list[int], depth, nbrs, xs, ys) -> Cuts:
    # No vertex is equidistant from the ends of an edge vc, and the
    # vertices closer to c are those with a shortest path from v through
    # c. One BFS from v that carries one bit per tree neighbour cuts every
    # tree edge at v (up to _MASK_BITS of them, so masks stay small on
    # hubs). Each tree edge joins two depth parities, so the smaller
    # parity class is a vertex cover of the tree.
    n = g.n
    edge_ids = range(g.m)
    tree_edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid in tree:
        u, v = g.edges[eid]
        tree_edges[u].append((v, eid))
        tree_edges[v].append((u, eid))
    even = [x for x in range(n) if not depth[x] & 1]
    odd = [x for x in range(n) if depth[x] & 1]
    for v in even if len(even) <= len(odd) else odd:
        at_v = tree_edges[v]
        for lo in range(0, len(at_v), _MASK_BITS):
            chunk = at_v[lo : lo + _MASK_BITS]
            mask = [0] * n
            for k, (c, _) in enumerate(chunk):
                mask[c] = 1 << k
            _propagate(nbrs, mask, [v])
            diff = list(map(xor, xs(mask), ys(mask)))
            cut = list(compress(edge_ids, diff))  # cut by some edge in chunk
            cut_diff = list(map(diff.__getitem__, cut))
            for k, (_, eid) in enumerate(chunk):
                yield eid, compress(cut, map(and_, cut_diff, repeat(1 << k))), False


def theta_star_partition(g: Graph) -> EdgePartition:
    """Theta*-classes in O(n*m) time and O(n+m) memory, with the
    `two_sided` flag of every class and the `partial_cube` flag.

    The Theta-cut of a tree edge lies inside its Theta*-class, and every
    class holds a tree edge (removing a class disconnects g, so it meets
    every spanning tree). A class F is flagged two-sided when some tree
    edge ab in F has all of F as its cut and no vertex is equidistant from
    a and b. Then every F-edge joins A = W_ab to B = W_ba, both connected,
    so g - F has exactly two components. Both are convex: a geodesic from
    u in A that re-entered A through an F-edge yz, y in B and z in A,
    would have u nearer y than z, while a is nearer z (d(z,a) = d(y,b) =
    d(y,a) - 1). Some edge of a shortest u-a path, which stays inside A,
    changes which of y and z is nearer, so it is Theta-related to yz and
    lies in F, yet both its ends are in A. A graph whose classes are all
    two-sided has only even cycles and convex halves, so it is a partial
    cube (Djokovic, J. Combin. Theory B 14, 1973), and in a partial cube
    every class is two-sided; `partial_cube` is therefore
    `all(two_sided)`.

    Raises:
        DisconnectedError: if g is not connected.
    """
    m = g.m
    uf = _UnionFind(m)
    clean_cut: dict[int, int] = {}  # tie-free tree edge -> its cut size
    for e, related, tie in _theta_cuts(g):
        k = 0
        for k, f in enumerate(related, 1):
            uf.union(e, f)
        if not tie:
            clean_cut[e] = k
    groups: dict[int, list[int]] = {}
    for e in range(m):
        groups.setdefault(uf.find(e), []).append(e)
    p = EdgePartition.from_classes(groups.values(), m, refined_by_theta_star=True)
    two_sided = [False] * len(p.classes)
    for e, k in clean_cut.items():
        c = p.class_of[e]
        if k == len(p.classes[c]):
            two_sided[c] = True
    return replace(p, partial_cube=all(two_sided), two_sided=tuple(two_sided))


def validate_c_partition(g: Graph, p: EdgePartition) -> bool:
    """True iff every Theta*-class of g lies inside a single class of p.

    Checks each Theta pair of the BFS-tree pass against p's classes, so it
    runs in O(n*m) time and O(n+m) memory and stops at the first split.

    Raises:
        PartitionNotCoveringError: if p does not cover g's edges.
        DisconnectedError: if g is not connected.
    """
    if p.num_edges != g.m:
        raise PartitionNotCoveringError(
            f"partition covers {p.num_edges} edges, graph has {g.m}"
        )
    class_of = p.class_of
    for e, related, _ in _theta_cuts(g):
        if any(map(ne, map(class_of.__getitem__, related), repeat(class_of[e]))):
            return False
    return True


def coarsen(p: EdgePartition, grouping: Mapping[int, int]) -> EdgePartition:
    """Merge classes of a Theta*-refined partition according to `grouping`.

    `grouping` maps each class index of p to a group; classes mapped to
    the same group are unioned. The result stays a valid c-partition.
    """
    if not p.refined_by_theta_star:
        raise InvalidCPartitionError("coarsen requires a Theta*-refined partition")
    missing = [i for i in range(len(p.classes)) if i not in grouping]
    if missing:
        raise IncompleteGroupingError(f"grouping misses class indices {missing}")
    merged: dict[int, set[int]] = {}
    for idx, members in enumerate(p.classes):
        merged.setdefault(grouping[idx], set()).update(members)
    return EdgePartition.from_classes(
        merged.values(), p.num_edges, refined_by_theta_star=True
    )


def is_bipartite(g: Graph) -> bool:
    """2-coloring BFS; assumes nothing about connectivity."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            cx = color[x]
            for y, _ in g.adj[x]:
                if color[y] < 0:
                    color[y] = 1 - cx
                    queue.append(y)
                elif color[y] == cx:
                    return False
    return True


def is_partial_cube(g: Graph) -> bool:
    """Partial-cube test in O(n*m) time and O(n+m) memory.

    A partial cube is bipartite, so the O(n+m) 2-colouring goes first and
    spares other graphs the slower non-bipartite Theta* pass; bipartite
    graphs read the `partial_cube` flag of their Theta*-partition.

    Raises:
        DisconnectedError: if g is not connected.
    """
    require_connected(g)
    return is_bipartite(g) and theta_star_partition(g).partial_cube
