"""Immutable simple graphs with dense ids, BFS distances, and edge-list I/O.

Vertices are 0..n-1 and edges carry stable ids 0..m-1 in input order, so
edge partitions and fiber sets can be stored as plain id sets. Distances
are exact hop counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    LoopEdgeError,
    NTooSmallError,
    ParseError,
    VertexOutOfRangeError,
)


class Graph:
    """Simple undirected graph, immutable after construction.

    Attributes:
        n: number of vertices (ids 0..n-1).
        edges: tuple of (u, v) pairs; the index of a pair is its edge id.
        adj: per-vertex tuple of (neighbor, edge_id) pairs.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edge_list: Iterable[tuple[int, int]]):
        if n < 1:
            raise NTooSmallError(f"graph needs at least one vertex, got n={n}")
        edges: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v in edge_list:
            if u == v:
                raise LoopEdgeError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            eid = len(edges)
            edges.append((u, v))
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(edges)
        self.adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(a) for a in adj
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, rejecting loops, duplicates, and bad ids."""
    return Graph(n, edge_list)


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances; rows[u][v] is the distance from u to v."""

    rows: tuple[tuple[int, ...], ...]


def _bfs(g: Graph, source: int) -> list[int]:
    # -1 marks unreached vertices; callers decide whether that is an error.
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adj
    while queue:
        x = queue.popleft()
        dx = dist[x] + 1
        for y, _ in adj[x]:
            if dist[y] < 0:
                dist[y] = dx
                queue.append(y)
    return dist


def bfs_distances(g: Graph, source: int) -> tuple[int, ...]:
    """Exact hop distances from `source` to every vertex.

    Raises:
        DisconnectedError: if some vertex is unreachable.
    """
    if not 0 <= source < g.n:
        raise VertexOutOfRangeError(f"source {source} outside 0..{g.n - 1}")
    dist = _bfs(g, source)
    if min(dist) < 0:
        raise DisconnectedError(f"vertex {dist.index(-1)} unreachable from {source}")
    return tuple(dist)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """n BFS runs; O(n*m). Raises DisconnectedError on disconnected input."""
    return DistanceMatrix(tuple(bfs_distances(g, v) for v in range(g.n)))


def edge_vertex_distance(g: Graph, dm: DistanceMatrix, u: int, eid: int) -> int:
    """Distance from a vertex to an edge: the nearer of the two endpoints."""
    x, y = g.edges[eid]
    row = dm.rows[u]
    return min(row[x], row[y])


def is_connected(g: Graph) -> bool:
    return min(_bfs(g, 0)) >= 0


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedError("graph is not connected")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    First data line is `n m`, followed by m lines `u v` (0-based).
    Lines starting with `#` and blank lines are ignored.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"non-integer header {lines[0]!r}") from None
    if n < 1:
        raise ParseError(f"header declares {n} vertices, need at least one")
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"header declares {m} edges, found {len(body)}")
    edges = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected edge 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"non-integer edge line {line!r}") from None
    try:
        return Graph(n, edges)
    except (LoopEdgeError, DuplicateEdgeError, VertexOutOfRangeError) as exc:
        raise ParseError(f"invalid edge list: {exc}") from exc


def format_edge_list(g: Graph, comments: Sequence[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"{g.n} {g.m}")
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
