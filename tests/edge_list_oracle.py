"""A per-line edge-list loader, kept for the tests as the reference for
`rcic.graph.load_edge_list`.

It reads a SNAP edge list one line at a time with Python's `str.split` and
`int`, remaps ids with a dict and builds each adjacency list with
`sorted(set(...))`; no NumPy is involved.  `rcic.graph.load_edge_list`
parses the same input in one `np.loadtxt` call and builds its CSR from one
sort, so agreement on random input is evidence, not tautology.  The two
differ on purpose where NumPy's parser does: here '#' starts a comment only
at the start of a line, so "0 1 # note" is a malformed line, and `int`
also takes "1_0" and ids of 2**63 and above.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LineGraph:
    """A loaded graph as plain lists: `adjacency[u]` is node u's sorted,
    deduplicated neighbor list, without u; `original_ids[u]` its file id."""

    directed: bool
    original_ids: list[int]
    adjacency: list[list[int]]

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def m(self) -> int:
        arcs = sum(len(nbrs) for nbrs in self.adjacency)
        return arcs if self.directed else arcs // 2


def load_edge_list_by_lines(source, directed: bool = False) -> LineGraph:
    """Parse an edge list line by line; `ValueError` names the first bad line."""
    raw_edges: list[tuple[int, int]] = []
    seen_ids: set[int] = set()
    for lineno, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two ids, got {len(parts)} tokens")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer token in {stripped!r}") from None
        if a < 0 or b < 0:
            raise ValueError(f"line {lineno}: negative node id")
        seen_ids.update((a, b))
        if a != b:
            raw_edges.append((a, b))
    if not seen_ids:
        raise ValueError("empty graph: no edges or node ids in input")

    original_ids = sorted(seen_ids)
    dense = {orig: i for i, orig in enumerate(original_ids)}
    adjacency: list[set[int]] = [set() for _ in original_ids]
    for a, b in raw_edges:
        adjacency[dense[a]].add(dense[b])
        if not directed:
            adjacency[dense[b]].add(dense[a])
    return LineGraph(directed, original_ids, [sorted(nbrs) for nbrs in adjacency])
