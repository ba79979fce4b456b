"""Graph loading and slicing for SNAP-style edge lists.

Graphs are immutable after construction: node ids are remapped to a dense
0..n-1 range (in ascending order of the original ids) and each adjacency
list is sorted, deduplicated and free of self-loops.  Undirected graphs
store every edge in both endpoint lists.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, TextIO


class EdgeListParseError(ValueError):
    """Raised for malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Graph:
    """Adjacency-list graph over dense integer node ids.

    Attributes:
        n: number of nodes.
        m: number of edges (undirected edges counted once; directed arcs as-is).
        directed: whether edges are one-way.
        original_ids: original_ids[v] is node v's id in the edge-list file the
            graph was loaded from (v itself for a graph built in memory); a
            slice keeps its parent's ids, so they stay file ids.
    """

    __slots__ = ("n", "m", "directed", "_adj", "original_ids")

    def __init__(self, adjacency: list[list[int]], directed: bool,
                 original_ids: list[int] | None = None):
        self.n = len(adjacency)
        self.directed = directed
        self._adj = [sorted(set(nbrs)) for nbrs in adjacency]
        for u, nbrs in enumerate(self._adj):
            if nbrs and (nbrs[0] < 0 or nbrs[-1] >= self.n):
                raise ValueError(f"neighbor id out of range in list of node {u}")
            if u in nbrs:
                raise ValueError(f"self-loop at node {u}")
        arcs = sum(len(nbrs) for nbrs in self._adj)
        self.m = arcs if directed else arcs // 2
        self.original_ids = list(original_ids) if original_ids is not None else list(range(self.n))

    def neighbors(self, u: int) -> list[int]:
        """Sorted neighbor list of u (out-neighbors if directed)."""
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} out of range [0, {self.n})")
        return self._adj[u]

    def degree(self, u: int) -> int:
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} out of range [0, {self.n})")
        return len(self._adj[u])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self._adj]

    def edges(self) -> Iterable[tuple[int, int]]:
        """All edges, each once; for undirected graphs yields u < v."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if self.directed or u < v:
                    yield u, v

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


def load_edge_list(source: TextIO | Iterable[str], directed: bool = False) -> Graph:
    """Parse a SNAP edge list: '#' comment lines, then one "src dst" pair per line.

    Ids are remapped to 0..n-1 in ascending original-id order (so a dump of a
    loaded graph reloads to an identical structure).  Self-loops are dropped and
    duplicate edges collapsed, because the uniform-neighbor walk transition is
    ill-defined with either present.
    """
    raw_edges: list[tuple[int, int]] = []
    seen_ids: set[int] = set()
    for lineno, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected two ids, got {len(parts)} tokens")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer token in {stripped!r}") from None
        if a < 0 or b < 0:
            raise EdgeListParseError(lineno, "negative node id")
        seen_ids.add(a)
        seen_ids.add(b)
        if a != b:
            raw_edges.append((a, b))
    if not seen_ids:
        raise ValueError("empty graph: no edges or node ids in input")

    original_ids = sorted(seen_ids)
    dense = {orig: i for i, orig in enumerate(original_ids)}
    adjacency: list[list[int]] = [[] for _ in original_ids]
    for a, b in raw_edges:
        u, v = dense[a], dense[b]
        adjacency[u].append(v)
        if not directed:
            adjacency[v].append(u)
    return Graph(adjacency, directed=directed, original_ids=original_ids)


def dump_edge_list(g: Graph, sink: TextIO) -> None:
    """Write g in the same edge-list format, one edge per line, sorted."""
    sink.write(f"# nodes {g.n} edges {g.m} {'directed' if g.directed else 'undirected'}\n")
    for u, v in g.edges():
        sink.write(f"{u} {v}\n")


def top_decile_nodes(g: Graph) -> list[int]:
    """The ceil(n/10) highest-degree nodes, ties broken toward smaller id."""
    if g.n < 10:
        raise ValueError(f"graph too small for decile selection: n={g.n} < 10")
    take = math.ceil(g.n / 10)
    order = sorted(range(g.n), key=lambda u: (-g.degree(u), u))
    return order[:take]


def bfs_subgraph(g: Graph, seed: int, fraction: float) -> tuple[Graph, list[int]]:
    """Induced subgraph on the first ceil(fraction*n) nodes in BFS order from seed.

    Stops early at the full reachable component.  Returns the subgraph (ids
    remapped densely, ascending, with g's original_ids carried over) and a
    list mapping new ids back to ids in g.
    """
    if not 0 <= seed < g.n:
        raise ValueError(f"seed {seed} out of range")
    if not 0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    target = math.ceil(fraction * g.n)
    visited = {seed}
    order = [seed]
    queue = deque([seed])
    while queue and len(order) < target:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in visited:
                visited.add(v)
                order.append(v)
                queue.append(v)
                if len(order) >= target:
                    break

    keep = sorted(order[:target])
    dense = {orig: i for i, orig in enumerate(keep)}
    adjacency = [[dense[v] for v in g.neighbors(u) if v in dense] for u in keep]
    sub = Graph(adjacency, directed=g.directed,
                original_ids=[g.original_ids[v] for v in keep])
    return sub, keep
