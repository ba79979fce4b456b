"""Graph loading and slicing for SNAP-style edge lists.

Graphs are immutable after construction: node ids are remapped to a dense
0..n-1 range (in ascending order of the original ids) and the adjacency is
one CSR whose every row is sorted, deduplicated and free of self-loops.
Undirected graphs store every edge in both endpoint rows.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import deque
from typing import Iterable, TextIO

import numpy as np

_ID_TOKEN = re.compile(r"[+-]?[0-9]+")  # as np.loadtxt reads ids; int() takes "1_0"


class EdgeListParseError(ValueError):
    """Raised for malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Graph:
    """CSR graph over dense integer node ids.

    Attributes:
        n: number of nodes.
        m: number of edges (undirected edges counted once; directed arcs as-is).
        directed: whether edges are one-way.
        indptr / indices: the adjacency as two read-only int64 arrays; node
            u's neighbors (out-neighbors if directed) are
            indices[indptr[u]:indptr[u+1]], ascending.
        original_ids: original_ids[v] is node v's id in the edge-list file the
            graph was loaded from (v itself for a graph built in memory); a
            slice keeps its parent's ids, so they stay file ids.
    """

    __slots__ = ("n", "m", "directed", "indptr", "indices", "original_ids")

    def __init__(self, adjacency: list[list[int]], directed: bool,
                 original_ids: list[int] | None = None):
        n = len(adjacency)
        src = np.repeat(np.arange(n), [len(nbrs) for nbrs in adjacency])
        dst = np.array([v for nbrs in adjacency for v in nbrs], dtype=np.int64)
        bad = src[(dst < 0) | (dst >= n) | (src == dst)]
        if bad.size:
            raise ValueError(f"neighbor out of range or self-loop in list of node {bad[0]}")
        self._set_arcs(n, src, dst, directed, original_ids)

    def _set_arcs(self, n, src, dst, directed, original_ids):
        # one sort of the keys src*n + dst (np.unique on them costs ~30x)
        keep = src != dst
        keys = np.sort(src[keep] * n + dst[keep])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.n, self.directed = n, directed
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self.indices = keys % n
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self.m = keys.size if directed else keys.size // 2
        self.original_ids = list(original_ids) if original_ids is not None else list(range(n))

    def neighbors(self, u: int) -> list[int]:
        """Sorted neighbor list of u (out-neighbors if directed)."""
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} out of range [0, {self.n})")
        return self.indices[self.indptr[u]:self.indptr[u + 1]].tolist()

    def degrees(self) -> np.ndarray:
        """Every node's (out-)degree, as an int64 array."""
        return np.diff(self.indptr)

    def edges(self) -> Iterable[tuple[int, int]]:
        """All edges, each once; for undirected graphs yields u < v."""
        src = np.repeat(np.arange(self.n), self.degrees())
        keep = slice(None) if self.directed else src < self.indices
        return zip(src[keep].tolist(), self.indices[keep].tolist())

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


def load_edge_list(source: TextIO | Iterable[str], directed: bool = False) -> Graph:
    """Parse a SNAP edge list: one "src dst" pair per line, '#' to line end a
    comment.  One `np.loadtxt` call parses it; only input that call rejects is
    read line by line, to name the first bad line.

    Ids are remapped to 0..n-1 in ascending original-id order (so a dump of a
    loaded graph reloads to an identical structure).  Self-loops are dropped and
    duplicate edges collapsed, because the uniform-neighbor walk transition is
    ill-defined with either present.
    """
    lines = list(source)
    try:
        with warnings.catch_warnings():  # "input contained no data"
            warnings.simplefilter("ignore")
            pairs = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
    except ValueError:
        pairs = None
    if pairs is None or pairs.shape[1] != 2 or (pairs < 0).any():
        pairs = _parse_lines(lines)
    if not pairs.size:
        raise ValueError("empty graph: no edges or node ids in input")
    original_ids, dense = np.unique(pairs, return_inverse=True)
    src, dst = dense.reshape(-1, 2).T
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    g = Graph.__new__(Graph)
    g._set_arcs(original_ids.size, src, dst, directed, original_ids.tolist())
    return g


def _parse_lines(lines) -> np.ndarray:
    """The id pairs of `lines`; `EdgeListParseError` at the first bad line."""
    pairs = []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("#", 1)[0].split()
        ids = [int(p) for p in parts if _ID_TOKEN.fullmatch(p)]
        if len(ids) == len(parts) == 2 and 0 <= min(ids) and max(ids) < 2**63:
            pairs.append(ids)
        elif parts:
            raise EdgeListParseError(
                lineno, f"expected two ids in [0, 2**63), got {line.strip()!r}")
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


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
    return np.argsort(-g.degrees(), kind="stable")[:take].tolist()


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
