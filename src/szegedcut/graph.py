"""Immutable simple graphs with dense ids, BFS distances, and edge-list I/O.

Vertices are 0..n-1 and edges carry stable ids 0..m-1 in input order, so
edge partitions and edge sets can be stored as plain id sets. A `Graph`
has two entry points. `Graph(n, edges)` (and `build_graph`) copies a
caller's edges and checks them with `_check_edges`, one walk in input
order that raises for the first loop, bad id or repeat.
`Graph._wrap(n, edges)` keeps an edge tuple the package made itself as
given, with no copy and no check: the molecule builders and
`quotient_graph` make simple graphs by construction, and
`parse_edge_list` runs the same walk on its parsed pairs before it wraps
them. Either way the adjacency is built on first read, then kept, as are
the BFS tree below and the memo entry of the per-kind index calls
(`indices._last_totals`), which is freed with the graph. `n` and `edges`
cannot be rebound, as the kept state would describe the old edges.
Distances are exact hop counts from one source at a time; the all-pairs
table is kept in `oracle`, so no production path holds O(n^2) state.
`_int_pairs` is the one line reader of all three text input formats.

The adjacency is a list of incidence lists: `adj[x]` is the tuple of the
ids of the edges at x, and the private per-edge list `_across[e]` holds
u ^ v for e = uv, so the neighbour across e from x is `_across[e] ^ x`.
That is one id per arc and one int per edge, about 44 bytes per arc
against 95 for a (neighbour, edge id) tuple per arc, and n tuples for the
collector to traverse instead of 2m + n. Each tuple is in id order, so a
vertex meets its neighbours in the order of their edges.

`_bfs_tree` is the one BFS spanning tree of the package, kept with its
graph like the adjacency: the Theta* pass cuts its edges, the subtree
aggregation of the side sums folds over it, and `_bridges` reads every
bridge off it with XOR folds. `_pieces` cuts the tree at the bridges into
the bridgeless pieces, each a graph of its own: Theta* and the generic
side sums take each piece alone, and read the bridges as clean cuts.
`_sweep` is the one bit-parallel multi-source BFS: the generic side
sums and the Theta* pass of every bridgeless piece both run it. `_bfs`
is the one distance BFS, behind `bfs_distances`, `is_connected` and
`theta.is_bipartite`; it stays apart from `_bfs_tree`, so the all-pairs
oracle shares no BFS-tree code with the routes it checks. Every
single-source BFS of the package reads its queue from a list that grows
while it is read.

`_collector_paused` switches the cyclic garbage collector off over the
package's bulk builds: `parse_edge_list` with its line reader `_int_pairs`
(so partition files and hex specs too), the copy and check of a caller's
edges in `Graph(n, edges)`, the first build of `Graph.adj`, and the
checked evaluation `indices._evaluate`, which holds every quotient
build and side sum. Each makes a few small tuples or lists per edge,
whose allocations would set off young collections and, as they survive,
full ones that scan the whole heap. The builds hold only ints and acyclic
containers of ints and keep nothing past the call, so no cycle waits for
the collector, and reference counting still frees every temporary at once:
pausing moves no memory peak. A pause defers work rather than saving all
of it: the first young collection after it traverses every container the
build left alive. On PH9000 (2-core x86 VM, Python 3.11) that takes about
3 ms after the adjacency build (12 ms with a tuple per arc) and 4 ms
after the parse, which keeps a tuple per edge. The collector's flag is
shared by every thread, so other threads run without the collector while
a pause lasts, and a pause undoes a `gc.disable()` made by another thread
while it ran.
"""

from __future__ import annotations

import gc
import threading
from operator import index
from typing import Iterable, Sequence

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    LoopEdgeError,
    NTooSmallError,
    ParseError,
    VertexOutOfRangeError,
)


# taken by `_collector_paused` around its check-then-set of the collector's
# flag, which every thread shares
_collector_lock = threading.Lock()


class _collector_paused:
    """Context manager that switches the cyclic garbage collector off for a
    bulk build of acyclic tuples and lists of ints, and back on when the
    build ends, raised or not. If the collector is already off, by a
    caller or an enclosing pause, it stays off. The first young collection
    after the pause traverses every container the build left alive, so a
    build frees its temporary lists inside the pause and keeps few
    containers: the adjacency keeps one incidence tuple per vertex and one
    list of edge XORs. The flag is shared by every thread: a pause that
    found it on turns it back on at its exit, even while another thread's
    pause runs, and undoes a `gc.disable()` that another thread made in
    between."""

    __slots__ = ("_resume",)

    def __enter__(self) -> None:
        # a pause that ended between the check and the set would leave it off
        with _collector_lock:
            self._resume = gc.isenabled()
            gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._resume:
            with _collector_lock:
                gc.enable()


class Graph:
    """Simple undirected graph, immutable after construction.

    `Graph(n, edges)` copies a caller's edges and checks them in one walk
    in input order, which names the first bad one. `Graph._wrap(n, edges)`
    keeps an edge tuple the package built simple itself, uncopied and
    unchecked. The adjacency, the `_bfs_tree` and `_last`, the memo entry
    of the per-kind index calls, are built on first use and kept, so a
    graph that is only written out builds none of them.

    Attributes:
        n: number of vertices (ids 0..n-1).
        edges: tuple of (u, v) pairs; the index of a pair is its edge id.
        adj: per-vertex tuple of the ids of its edges, in id order,
            read-only; the neighbour across edge e from x is `_across[e] ^ x`.

    `n` and `edges` cannot be rebound: `__setattr__` raises
    `AttributeError` for every public name, and writes only the private
    caches `_adj`, `_across`, `_tree` and `_last`.
    """

    __slots__ = ("n", "edges", "_adj", "_across", "_tree", "_last")

    def __init__(self, n: int, edge_list: Iterable[tuple[int, int]]):
        if n < 1:
            raise NTooSmallError(f"graph needs at least one vertex, got n={n}")
        index(n)  # n sizes the adjacency lists, so it must be an int
        with _collector_paused():  # the copy makes a tuple per edge, `_check_edges` a key
            edges = tuple([(u, v) for u, v in edge_list])
            _check_edges(n, edges)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_tree", None)

    @classmethod
    def _wrap(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        # the graph of an edge tuple the package made and knows to be
        # simple, n >= 1: the tuple is kept as given and nothing is checked
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "_adj", None)
        object.__setattr__(g, "_tree", None)
        return g

    def __setattr__(self, name: str, value) -> None:
        if not name.startswith("_"):
            raise AttributeError(f"Graph.{name} is read-only: a graph is immutable")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        # a copy or an unpickled graph is wrapped anew and builds its own
        # caches: restoring the slots one by one would meet `__setattr__`
        return self._wrap, (self.n, self.edges)

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            with _collector_paused():
                adj: list[list[int]] = [[] for _ in range(self.n)]
                for eid, (u, v) in enumerate(self.edges):
                    adj[u].append(eid)
                    adj[v].append(eid)
                # kept before `_adj`, so a reader that finds `_adj` finds it too
                self._across = [u ^ v for u, v in self.edges]
                self._adj = tuple(map(tuple, adj))
                del adj  # freed before the pause ends, so no collection traverses its lists
        return self._adj

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_edges(n: int, edges: tuple[tuple[int, int], ...]) -> None:
    """Raise for the first edge, in input order, that is a loop, has an id
    outside 0..n-1, repeats an earlier edge, or has an id that cannot
    index a list; return if there is none (ids such as `True` pass)."""
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = e
        if u == v:
            raise LoopEdgeError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        key = e if u < v else (v, u)  # an ordered edge is its own key
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        index(u)  # ids index the adjacency lists
        index(v)


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, rejecting loops, duplicates, and bad ids."""
    return Graph(n, edge_list)


def _bfs(g: Graph, source: int, dist: list[int]) -> list[int]:
    # writes the hop distances from source into dist, which holds -1 at
    # every vertex source reaches; callers decide whether a -1 left is an error
    dist[source] = 0
    order = [source]
    adj = g.adj
    across = g._across
    for x in order:  # the list grows while it is read: a BFS queue
        dx = dist[x] + 1
        for e in adj[x]:
            y = across[e] ^ x
            if dist[y] < 0:
                dist[y] = dx
                order.append(y)
    return dist


# (BFS order, parent, parent edge) of every vertex; see `_bfs_tree`
Tree = tuple[list[int], list[int], list[int]]


def _bfs_tree(g: Graph) -> Tree:
    """BFS order from vertex 0, and each vertex's parent and parent edge
    in that BFS tree (the root is its own parent, with parent edge -1),
    built on the first call and kept in `g._tree` for every later one;
    threads that race to the first call each build and keep an equal tree.

    Raises:
        DisconnectedError: if g is not connected, on every call.
    """
    if g._tree is None:
        parent = [-1] * g.n
        parent_edge = [-1] * g.n
        parent[0] = 0
        order = [0]
        adj = g.adj
        across = g._across
        for x in order:  # the list grows while it is read: a BFS queue
            for e in adj[x]:
                y = across[e] ^ x
                if parent[y] < 0:
                    parent[y] = x
                    parent_edge[y] = e
                    order.append(y)
        if len(order) < g.n:
            raise DisconnectedError("graph is not connected")
        g._tree = order, parent, parent_edge
    return g._tree


# source bits per sweep of `_sweep`: every mask holds at most this many
_SOURCE_BITS = 4096


def _sweep_ranges(count: int, bits: int = 1) -> list[range]:
    """range(count) cut into the fewest runs of equal size (the last may
    be shorter) that fit _SOURCE_BITS at `bits` bits per item; no run if
    count is 0, as for the pass of a one-vertex graph."""
    if not count:
        return []
    sweeps = -(-count // max(1, _SOURCE_BITS // bits))
    size = -(-count // sweeps)
    return [range(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _sweep(g: Graph, reach: list[int]) -> tuple[list[int], list[int]]:
    """near_u, near_v: for every edge e = uv, the sources strictly closer
    to u, and those strictly closer to v.

    One multi-source BFS over bitmasks (Then et al., PVLDB 8(4), 2014):
    reach[y] holds the bits of the sources seeded at y, a source is as far
    from a vertex as the nearest of its seeds, and each round widens every
    ball by one hop, two ORs per live edge. Round r files the frontier of
    each vertex x, the sources at distance exactly r, in two planes that
    keep the distance mod 4: odd[x] if r is odd, two[x] if r mod 4 is 2 or
    3. The ends of an edge uv are adjacent, so a source's distances d_u
    and d_v differ by at most one, for a seed set too, and one pass per
    edge after the last round reads both sides: odd[u] ^ odd[v] holds the
    sources at unequal distance, and of those, the ones nearer v are the
    bits of two[u] ^ two[v] ^ odd[u], as bit 1 of the distance flips from
    u to v exactly when d_u is even and d_v = d_u - 1, or d_u is odd and
    d_v = d_u + 1. A vertex whose ball is full files no more and drops
    out, and so does an edge whose two balls are full, so a sweep takes
    about one round per unit of diameter. The rounds hold the balls of two
    rounds and the two planes, 4n masks, and the last pass the planes and
    the two sides of every edge, 2n + 2m: 4n + 2m at most. g must be
    connected, or some ball never fills.
    """
    full = 0
    for ball in reach:
        full |= ball
    odd = [0] * g.n
    two = [0] * g.n
    live = g.edges
    grow = [x for x in range(g.n) if reach[x] != full]
    r = 0
    while grow:
        r += 1
        last = reach
        reach = last[:]
        for u, v in live:
            reach[u] |= last[v]
            reach[v] |= last[u]
        # file the sources at distance exactly r, the frontier
        if r & 3 == 1:
            for x in grow:
                odd[x] |= reach[x] ^ last[x]
        elif r & 3 == 2:
            for x in grow:
                two[x] |= reach[x] ^ last[x]
        elif r & 3 == 3:
            for x in grow:
                f = reach[x] ^ last[x]
                odd[x] |= f
                two[x] |= f
        still = [x for x in grow if reach[x] != full]
        if len(still) < len(grow):  # an edge drops out only with one of its ends
            grow = still
            live = [uv for uv in live if reach[uv[0]] != full or reach[uv[1]] != full]
    reach = last = None  # every ball is full: only the planes are read below
    near_u = []
    near_v = []
    for u, v in g.edges:
        x = odd[u] ^ odd[v]
        nv = x & (two[u] ^ two[v] ^ odd[u])
        near_u.append(x ^ nv)
        near_v.append(nv)
    return near_u, near_v


def _bridges(g: Graph) -> list[int]:
    """The bridges of connected g, each as the vertex x below it in g's
    `_bfs_tree`: the bridge is x's parent edge. Every bridge is a tree
    edge, as it is the only edge between its two sides.

    Each edge outside the tree owns one bit, set at both of its ends. The
    XOR over the subtree below x keeps the bits of exactly those edges with
    one end inside it, so it is 0 iff x's parent edge is the only edge that
    leaves the subtree. A fold in reversed BFS order, with no recursion,
    finishes each subtree before its root reads it; it is exact, as no two
    edges share a bit. The bits run in the sweeps of `_sweep_ranges`, one
    fold each, so every mask holds at most `_SOURCE_BITS` bits and memory
    stays linear in n + m.
    """
    order, parent, parent_edge = _bfs_tree(g)
    in_tree = bytearray(g.m)
    for e in parent_edge[1:]:  # vertex 0 is the root, with no parent edge
        in_tree[e] = 1
    chords = [uv for uv, t in zip(g.edges, in_tree) if not t]
    crossed = bytearray(g.n)  # 1 at x once an edge outside the tree leaves its subtree
    for run in _sweep_ranges(len(chords)):
        fold = [0] * g.n
        bit = 1
        for u, v in chords[run.start : run.stop]:
            fold[u] ^= bit
            fold[v] ^= bit
            bit <<= 1
        for x in order[:0:-1]:  # the root, order[0], has no parent edge
            if fold[x]:
                fold[parent[x]] ^= fold[x]
                crossed[x] = 1
    return [x for x in order[:0:-1] if not crossed[x]]


def _pieces(g: Graph, below: list[int]) -> list[tuple[list[int], list[int], Graph]]:
    """The bridgeless pieces of g that hold an edge: the components of its
    `_bfs_tree` cut at the bridges `below` (see `_bridges`). Each comes as its
    vertices in BFS order, its edge ids in order, and its graph, in which
    vertex i is the i-th of those vertices and edge j the j-th of those edges.
    Every other edge is a bridge, and every other piece one vertex."""
    order, parent, _ = _bfs_tree(g)
    top = bytearray(g.n)
    for x in below:
        top[x] = 1
    piece = [0] * g.n
    local = [0] * g.n  # a vertex's id in its piece
    members = [[0]]
    for x in order[1:]:  # a parent before its children
        if top[x]:
            piece[x] = len(members)
            members.append([x])
        else:
            p = piece[x] = piece[parent[x]]
            local[x] = len(members[p])
            members[p].append(x)
    ids: list[list[int]] = [[] for _ in members]
    pairs: list[list[tuple[int, int]]] = [[] for _ in members]
    for e, (u, v) in enumerate(g.edges):
        if piece[u] == piece[v]:
            ids[piece[u]].append(e)
            pairs[piece[u]].append((local[u], local[v]))
    # a piece is simple, as g is, and its ids are dense: it needs no check
    return [(vs, es, Graph._wrap(len(vs), tuple(ps))) for vs, es, ps in zip(members, ids, pairs) if es]


def bfs_distances(g: Graph, source: int) -> tuple[int, ...]:
    """Exact hop distances from `source` to every vertex.

    Raises:
        DisconnectedError: if some vertex is unreachable.
    """
    if not 0 <= source < g.n:
        raise VertexOutOfRangeError(f"source {source} outside 0..{g.n - 1}")
    dist = _bfs(g, source, [-1] * g.n)
    if min(dist) < 0:
        raise DisconnectedError(f"vertex {dist.index(-1)} unreachable from {source}")
    return tuple(dist)


def is_connected(g: Graph) -> bool:
    return min(_bfs(g, 0, [-1] * g.n)) >= 0


def _int_pairs(text: str) -> list[tuple[int, int]]:
    """The integer pair of every line that is not blank and does not start
    with `#`: the one line grammar of the edge-list, partition and hex-spec
    formats. Any other line raises `ParseError`."""
    pairs = []
    with _collector_paused():
        for row in map(str.split, text.splitlines()):
            if row and row[0][0] != "#":
                try:
                    a, b = row
                    pairs.append((int(a), int(b)))
                except ValueError:
                    raise ParseError(f"expected two integers, got {' '.join(row)!r}") from None
    return pairs


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    First data line is `n m`, followed by m lines `u v` (0-based), in the
    line grammar of `_int_pairs`. Every graph the package works on is
    connected, so a header with n > m + 1 raises `DisconnectedError` once
    the lines are read and before anything of size n is allocated: a
    connected graph has at least n - 1 edges.
    """
    with _collector_paused():  # `_check_edges` keeps a key per edge
        pairs = _int_pairs(text)
        if not pairs:
            raise ParseError("empty edge-list input")
        n, m = pairs[0]
        if n < 1:
            raise ParseError(f"header declares {n} vertices, need at least one")
        edges = tuple(pairs[1:])
        if len(edges) != m:
            raise ParseError(f"header declares {m} edges, found {len(edges)}")
        if n > m + 1:
            raise DisconnectedError(f"{n} vertices need at least {n - 1} edges, got {m}")
        try:  # parsed ids are ints, so no other error can come
            _check_edges(n, edges)
        except (LoopEdgeError, DuplicateEdgeError, VertexOutOfRangeError) as exc:
            raise ParseError(f"invalid edge list: {exc}") from exc
        return Graph._wrap(n, edges)


def format_edge_list(g: Graph, comments: Sequence[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"{g.n} {g.m}")
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
