"""Djokovic-Winkler relation, Theta*-classes, c-partitions, partial cubes.

Two edges e1 = u1v1 and e2 = u2v2 are Theta-related when
d(u1,u2) + d(v1,v2) != d(u1,v2) + d(u2,v1). Theta is reflexive and
symmetric but not transitive in general; its transitive closure Theta*
partitions the edge set. A partition whose classes are unions of
Theta*-classes is called a c-partition and is the input the cut method
requires.

A benzenoid without holes or a phenylene, read as an edge list in any
order, takes the lattice route in O(m) time: `molgen._lattice_labels`
unfolds its hexagons and squares into lattice cells, checks them by
counting, without building the molecule, and reads its Theta*-classes,
all two-sided, as the chains of opposite sides of its faces; its
docstring holds the proof. A degree above 3 rejects a graph at once, and
every graph the recognizer rejects, one with an odd cycle or a hole
wider than one cell among them, falls back to the bridges and the pass.

A rejected graph is first cut at its bridges, which `graph._bridges`
reads off the package's BFS spanning tree (`graph._bfs_tree`, the tree
that the subtree aggregation of the side sums folds over) with XOR folds
of masks of at most `graph._SOURCE_BITS` bits, one pass over the tree
per fold. A bridge is the simplest clean cut: a Theta*-class of its own,
with one convex side at each end (Klavzar, MATCH 60 (2008) 255-274;
Hammack, Imrich and Klavzar, Handbook of Product Graphs, 2nd ed., 2011).
One loop reads each bridgeless piece with an edge (`graph._pieces`; G if
bridgeless): it takes the lattice route, unless it is G, just rejected,
else the pass, with no second look for bridges. So a bridged molecule
takes the lattice route piece by piece, a tree needs no pass at all, and
only a bridgeless piece that the recognizer rejects reaches the pass.
The values stay those of G: a piece P is isometric in G, as a path
that leaves P through a bridge must come back through it. Every vertex
and edge outside P hangs on one vertex c of P, the near end of the first
bridge on its way to P, and its distance to any vertex of P is its
distance to c plus that vertex's distance from c. So it is nearer to one
end of an edge of P exactly when c is, or tied when c is. Hence no edge
of P is Theta-related to an edge outside P, as both sums of the Theta
test add the same two distances to c; a class of P is a class of G, and
a clean cut of G iff of P, each hanging part joining the side of its c;
and the side sums of an edge of P in G are those in P once each c
carries the weights of all that hangs on it: w, and t with the lambda'
of the bridges on the way, which is how `indices._folded_pieces` folds
them for the direct and the cut route.

A bridgeless piece that the recognizer rejects takes one pass over the
edges of its own BFS spanning tree, G's when G is the piece, in
O(n*m) time and O(n+m) memory. It runs sweeps of the bit-parallel
multi-source BFS that the generic side sums share (`graph._sweep`; Then
et al., PVLDB 8(4), 2014): each tree edge owns one source bit at each
end, one sweep cuts up to 2048 tree edges, and whether some vertex is
equidistant from the ends of a tree edge is read from the edges alone. A
sweep takes about one round per unit of diameter, so long thin pieces,
such as long cycles and ladders, pay the most per edge.
`theta_star_partition` is the one reader of that pass. It closes the
cuts row by row: per batch it notes which of the batch's tree edges each
class already holds, so an edge's row costs two union-find lookups plus
one per tree edge new to its class, not one union per Theta-pair.

The same pass finds the classes that are one clean cut: a class F is
two-sided when some tree edge ab in F has all of F as its Theta-cut and
no vertex is equidistant from a and b. Then G - F has exactly two
components, both convex, so the cut method reads F from a subtree
aggregation instead of a quotient. A graph is a partial cube iff every
class is two-sided, so `is_partial_cube` reads `all(two_sided)` of the
Theta*-partition and costs at most one Theta* pass per piece. The
pairwise definition over an all-pairs distance table is kept in `oracle`
as the reference. `is_bipartite` runs no BFS of its own: it reads the
depths that `graph._bfs` gives each component.

Theta*'s routes, the lattice route, the pass and the bridge split, build
no partition: each gives one label per edge, the id of an edge in its
class, and the pass one flag per label. The library certifies a partition
only where it computed it on a graph's edge list: `theta_star_partition`,
which builds one partition from those labels, once per call,
`oracle.oracle_theta_star_partition`, and `molgen`'s
`direction_partition` on builder output alone, which the builders mark
when its region has no hole. Each sets both flags, `refined_by_theta_star`
and `two_sided`, through one private writer, `_trust`, which also keeps that
edge tuple; the constructor's `refined_by_theta_star` keyword, which
`replace()` also passes, is the last writer outside the library, bound
to no edges. One gate, `_require_c_partition`, reads them: it trusts a
partition certified on g, validates any other (p is a c-partition iff
every Theta*-class meets exactly one class of p), and returns g's
Theta*-partition where one was computed, whose `two_sided` flags are
the one record of which Theta*-classes are clean cuts. Its one caller,
`indices._read_classes`, serves the index routes and `szegedcut quotient`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Hashable, Iterable, Iterator

from .errors import InvalidCPartitionError, MalformedPartitionError, PartitionNotCoveringError
from .graph import Graph, _bfs, _bfs_tree, _bridges, _pieces, _sweep, _sweep_ranges


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

    Classes are canonically ordered by their smallest edge id, and
    `class_of[e]` is the class of edge e. The constructor (so `from_classes`
    and `replace()`) freezes both, walks the classes in O(m) and names the
    first that is empty, leaves 0..m-1 or disagrees with `class_of`;
    `from_labels` checks nothing, as it derives both views from one
    numbering. The `refined_by_theta_star` flag asserts that every
    class is a union of Theta*-classes, so index pipelines can skip the
    O(n*m) validation. `two_sided` flags each class that is a Theta*-class
    F whose removal leaves two convex components, which the cut method
    reads from one subtree aggregation instead of a quotient; equality
    ignores it. The library's three writers, `theta_star_partition`, the
    oracle's Theta* and `direction_partition`, set both through `_trust`,
    which keeps the edges of the graph the flags hold for, and only the
    first sets `two_sided`; `from_labels` sets neither, and no caller can.
    """

    classes: tuple[frozenset[int], ...]
    class_of: tuple[int, ...]
    refined_by_theta_star: bool = False
    two_sided: tuple[bool, ...] = field(default=(), init=False, compare=False)
    _certified_on: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        # frozen copies first, so the walk checks what p keeps. It names the
        # first bad class; frozensets in range that agree with class_of are
        # disjoint, so they cover 0..m-1 iff their sizes sum to m
        object.__setattr__(self, "classes", tuple(map(frozenset, self.classes)))
        object.__setattr__(self, "class_of", tuple(self.class_of))
        m = len(self.class_of)
        for idx, members in enumerate(self.classes):
            if not members:
                raise MalformedPartitionError("empty partition class")
            if min(members) < 0 or max(members) >= m:
                raise PartitionNotCoveringError(f"edge id outside 0..{m - 1}")
            if set(map(self.class_of.__getitem__, members)) != {idx}:
                raise MalformedPartitionError(f"class_of disagrees with class {idx}")
        if sum(map(len, self.classes)) != m:
            raise PartitionNotCoveringError(f"classes do not cover all {m} edges")

    @classmethod
    def from_classes(cls, classes: Iterable[Iterable[int]], m: int) -> "EdgePartition":
        # __post_init__ rejects empty classes, edge ids outside 0..m-1, an
        # edge in two classes and uncovered edges
        canon = sorted(map(frozenset, classes), key=lambda c: min(c, default=-1))
        class_of = [-1] * m
        for idx, members in enumerate(canon):
            for e in members:
                if 0 <= e < m:
                    class_of[e] = idx
        return cls(tuple(canon), tuple(class_of))

    @classmethod
    def from_labels(cls, labels: Iterable[Hashable]) -> "EdgePartition":
        """One class per distinct label, where `labels` holds the label of
        each edge id in order. One O(m) pass numbers the classes by first
        appearance, which is by smallest edge id: the canonical order. Both
        views come from it, so they are wrapped unchecked, flags unset."""
        number: dict[Hashable, int] = {}
        class_of = [number.setdefault(label, len(number)) for label in labels]
        members: list[list[int]] = [[] for _ in number]
        for e, c in enumerate(class_of):
            members[c].append(e)
        p = cls.__new__(cls)
        object.__setattr__(p, "classes", tuple(map(frozenset, members)))
        object.__setattr__(p, "class_of", tuple(class_of))
        return p

    @property
    def num_edges(self) -> int:
        return len(self.class_of)

    def __len__(self) -> int:
        return len(self.classes)


def _trust(p: EdgePartition, edges: tuple, two_sided: tuple[bool, ...] = ()) -> EdgePartition:
    # the one writer of both flags, on a partition that nothing has read
    # yet and that its caller computed on `edges`: they hold there alone
    object.__setattr__(p, "refined_by_theta_star", True)
    object.__setattr__(p, "two_sided", two_sided)
    object.__setattr__(p, "_certified_on", edges)
    return p


# (tree edges, related, ties); see `_theta_cuts`
Batch = tuple[list[int], Iterable[tuple[int, int]], int]


def _theta_cuts(g: Graph) -> Iterator[Batch]:
    """The Theta-cuts of the edges of a BFS tree, in batches.

    Theta* is the transitive closure of Theta restricted to pairs (tree
    edge, any edge) for a BFS spanning tree (Hammack, Imrich and Klavzar,
    Handbook of Product Graphs, 2nd ed., 2011), so these pairs determine
    it. An edge f = xy is Theta-related to e = pc iff p and c differ in
    whether they are closer to x, closer to y, or equidistant.

    Yields (tree_edges, related, ties) batches. `related` holds the pairs
    (f, row) of the edges f related to some tree edge of the batch: bit i
    of row means that f is Theta-related to tree_edges[i]. Bit i of ties
    means that some vertex is equidistant from the ends of tree_edges[i].
    `theta_star_partition` closes each row in one step. One batch comes
    per sweep of `graph._sweep` over up to `graph._SOURCE_BITS` // 2 tree
    edges, which takes about one round per unit of diameter. Time is
    O(n*m), memory O(n+m): a sweep holds at most 4n + 2m masks.

    Raises:
        DisconnectedError: if g is not connected.
    """
    order, _, parent_edge = _bfs_tree(g)

    # A sweep takes k tree edges: tree edge i = pc owns source bit i,
    # seeded at p, and bit i + k, seeded at c. Edge f is Theta-related to
    # pc iff bits i and i + k differ in near_u[f] or in near_v[f]. A vertex
    # is equidistant from p and c iff some edge is tied (in neither near
    # mask) for exactly one of them: along a geodesic from a tie vertex to
    # p, d(., c) - d(., p) rises from 0 to 1 in steps of 0, 1 or 2, so
    # exactly one step keeps d(., c) fixed; conversely, if d(x, c) = d(y,
    # c) = a and d(y, p) = d(x, p) + 1, then d(x, p) is a or a - 1, so x
    # or y is a tie vertex. Ties need no per-vertex work.
    tree = [parent_edge[c] for c in order[1:]]
    edges = g.edges
    for run in _sweep_ranges(len(tree), 2):
        tree_edges = tree[run.start : run.stop]
        k = len(tree_edges)
        low = (1 << k) - 1
        reach = [0] * g.n
        for i, e in enumerate(tree_edges):
            p, c = edges[e]
            reach[p] |= 1 << i
            reach[c] |= 1 << (i + k)
        near_u, near_v = _sweep(g, reach)
        full = (1 << 2 * k) - 1
        ties = 0
        for f, (a, b) in enumerate(zip(near_u, near_v)):
            near_u[f] = ((a ^ a >> k) | (b ^ b >> k)) & low  # the row of f
            z = full ^ (a | b)
            ties |= z ^ z >> k
        yield tree_edges, compress(enumerate(near_u), near_u), ties & low


def theta_star_partition(g: Graph) -> EdgePartition:
    """Theta*-classes with the `two_sided` flag of every class: O(m) time
    on a recognized molecule, else O(n*m) time and O(n+m) memory.

    A hole-free benzenoid or a phenylene, given as any edge list, is
    recognized by `molgen._lattice_labels`, which reads its Theta*-classes,
    all two-sided, as the chains of opposite sides of its hexagons and
    squares; its docstring holds the proof. A graph the recognizer rejects
    is cut at its bridges (`graph._bridges`), each a two-sided class of its
    own, and one loop reads its bridgeless pieces (`graph._pieces`; g is its
    own piece when it has no bridge): each takes the lattice route, unless
    it is g, just rejected, else the pass, `_theta_star_pass`. The module
    docstring says why the pieces' classes and flags are those of g. Each
    route gives one label per edge, the id of an edge in its class, and the
    pass one flag per label, in one list with every lattice class and bridge
    flagged; this function alone builds the partition and certifies it.

    Raises:
        DisconnectedError: if g is not connected.
    """
    from .molgen import _lattice_labels  # deferred: molgen imports this module

    labels = _lattice_labels(g)
    sided = [True] * g.m  # every lattice class and every bridge is two-sided
    if labels is None:
        # a bridge labels itself; a piece's labels, edges of the piece, map
        # to g's edge ids. g, bridgeless, is its own piece, just rejected
        labels = list(range(g.m))
        for _, ids, piece in _pieces(g, _bridges(g)):
            local = None if piece is g else _lattice_labels(piece)
            if local is None:  # a piece has no bridge to look for
                local, flags = _theta_star_pass(piece)
                for e, flag in zip(ids, flags):
                    sided[e] = flag
            for e, r in zip(ids, local):
                labels[e] = ids[r]
    p = EdgePartition.from_labels(labels)
    # `from_labels` numbers the classes by first appearance of their label
    return _trust(p, g.edges, tuple(map(sided.__getitem__, dict.fromkeys(labels))))


def _theta_star_pass(g: Graph) -> tuple[list[int], list[bool]]:
    """Theta*-classes in O(n*m) time and O(n+m) memory, with the
    `two_sided` flag of every class, from the BFS-tree cuts of any
    connected graph with an edge: the label of each edge, the union-find
    root of its class, and `sided`, whose entry at a label is the flag of
    its class and False at any other edge.

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
    every class is two-sided; `all(two_sided)` is therefore the
    partial-cube test that `is_partial_cube` reads.

    The cuts come in batches of bitmasks from `_theta_cuts`, one nonzero
    row per related edge, and the walk over them is linear in rows, not
    in Theta-pairs. Per batch, `merged` maps each union-find root to the
    batch's bits already in its class. The row of an edge f finds the
    root of its lowest bit's tree edge, links only the roots of its bits
    outside that root's mask (taking over their masks), then links f. So
    a batch costs two lookups per row, one per tree edge and one per link. Cut sizes are counted
    only over tie-free bits, since only a tie-free tree edge can flag its
    class two-sided.

    Raises:
        DisconnectedError: if g is not connected.
    """
    m = g.m
    uf = _UnionFind(m)
    parent = uf.parent
    find = uf.find
    clean_cut: dict[int, int] = {}  # tie-free tree edge -> its cut size
    for tree_edges, related, ties in _theta_cuts(g):
        sizes = [0] * len(tree_edges)
        merged: dict[int, int] = {}  # root -> this batch's bits in its class
        for f, mask in related:
            low = mask & -mask
            root = find(tree_edges[low.bit_length() - 1])
            have = merged.pop(root, 0) | low
            new = mask & ~have
            while new:
                bit = new & -new
                r = find(tree_edges[bit.bit_length() - 1])
                if r != root:
                    parent[r] = root
                    have |= merged.pop(r, 0)
                have |= bit
                new &= ~have
            r = find(f)
            if r != root:
                parent[r] = root
                have |= merged.pop(r, 0)
            merged[root] = have
            mask &= ~ties
            while mask:
                bit = mask & -mask
                mask ^= bit
                sizes[bit.bit_length() - 1] += 1
        for i, e in enumerate(tree_edges):
            if not ties >> i & 1:
                clean_cut[e] = sizes[i]
    labels = list(map(find, range(m)))
    size = Counter(labels)
    sided = [False] * m
    for e, k in clean_cut.items():
        r = labels[e]
        if k == size[r]:
            sided[r] = True
    return labels, sided


def _clean_cuts(g: Graph, p: EdgePartition) -> EdgePartition | None:
    """g's Theta*-partition, with its `two_sided` flags, if p is a
    c-partition of g, else None: p is one iff every Theta*-class meets
    exactly one class of p, read from the (Theta*-class, class) pairs."""
    if p.num_edges != g.m:
        raise PartitionNotCoveringError(f"partition covers {p.num_edges} edges, graph has {g.m}")
    star = theta_star_partition(g)
    return star if len(set(zip(star.class_of, p.class_of))) == len(star) else None


def validate_c_partition(g: Graph, p: EdgePartition) -> bool:
    """True iff every Theta*-class of g lies inside a single class of p,
    that is, iff each Theta*-class meets exactly one class of p: O(m) time
    on a hole-free benzenoid or a phenylene, which take the lattice route,
    else O(n*m) time and O(n+m) memory.

    Raises:
        PartitionNotCoveringError: if p does not cover g's edges.
        DisconnectedError: if g is not connected.
    """
    return _clean_cuts(g, p) is not None


def _require_c_partition(g: Graph, p: EdgePartition) -> EdgePartition | None:
    """Raises unless p is a c-partition of g; returns g's Theta*-partition
    with its `two_sided` flags, or None. A trusted p skips validation on its
    certified edge list (by identity, then by value), or, bound to none by
    the raw keyword or `replace()`, on any graph with as many edges, and is
    returned if it has flags, which only Theta* writes. Any other p gets
    `_clean_cuts`, which returns the Theta*-partition it computed."""
    edges = p._certified_on
    if p.refined_by_theta_star and (
        edges is g.edges or edges == g.edges or (edges is None and p.num_edges == g.m)
    ):
        return p if p.two_sided else None
    star = _clean_cuts(g, p)
    if star is None:
        raise InvalidCPartitionError("partition splits a Theta*-class across classes")
    return star


def is_bipartite(g: Graph) -> bool:
    """Whether g, connected or not, has no odd cycle: `graph._bfs` fills
    one depth list component by component, and g has an odd cycle iff
    some edge joins two equal depths (else the parities 2-colour g)."""
    depth = [-1] * g.n
    for v in range(g.n):
        if depth[v] < 0:
            _bfs(g, v, depth)
    return not any(depth[u] == depth[v] for u, v in g.edges)


def is_partial_cube(g: Graph) -> bool:
    """Partial-cube test in O(n*m) time and O(n+m) memory, and in O(m) on
    a hole-free benzenoid or a phenylene.

    A partial cube is bipartite, so the O(n+m) 2-colouring goes first and
    answers every graph with an odd cycle without a Theta* pass; bipartite
    graphs read the `two_sided` flags of their Theta*-partition, which
    the lattice route gives a recognized molecule without the pass.

    Raises:
        DisconnectedError: if g is not connected.
    """
    _bfs_tree(g)
    return is_bipartite(g) and all(theta_star_partition(g).two_sided)
