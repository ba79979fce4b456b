"""Seeded synthetic graphs for tests and dataset-free benchmarks.

The preferential-attachment generator produces heavy-tailed degree graphs in
the size/density range of the peer-to-peer networks the benchmarks target;
the G(n, p) generator covers small random probe instances.  Both are
deterministic per seed.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph


def barabasi_albert_graph(n: int, m_attach: int, seed: int = 0) -> Graph:
    """Preferential attachment: each new node links to m_attach distinct
    existing nodes drawn with probability proportional to degree."""
    if m_attach < 1:
        raise ValueError(f"m_attach must be >= 1, got {m_attach}")
    if n <= m_attach:
        raise ValueError(f"need n > m_attach, got n={n}, m_attach={m_attach}")
    rng = np.random.default_rng(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    # endpoint pool; node frequency tracks degree, giving preferential draws
    pool: list[int] = []
    targets = list(range(m_attach))
    for v in range(m_attach, n):
        for t in targets:
            adj[v].add(t)
            adj[t].add(v)
        pool.extend(targets)
        pool.extend([v] * m_attach)
        picked: set[int] = set()
        while len(picked) < m_attach:
            picked.add(pool[int(rng.integers(len(pool)))])
        targets = sorted(picked)
    return Graph([sorted(s) for s in adj], directed=False)


def gnp_graph(n: int, p: float, seed: int | np.random.Generator = 0) -> Graph:
    """Erdos-Renyi G(n, p), undirected, no self-loops.  `seed` may also be a
    `np.random.Generator`, which then advances by one double per node pair."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(rows.size) < p
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(rows[mask], cols[mask]):
        adj[int(i)].append(int(j))
        adj[int(j)].append(int(i))
    return Graph(adj, directed=False)
