"""Bounded random-walk sampling and the sample store shared by all solvers.

The browsing model: a walk starts at a node, repeatedly moves to a uniformly
random neighbor of its current node, and stops at the first rumor node (a
"hit"), at a dead end, or after T steps.  The walk's prefix is the set of
distinct non-rumor nodes it visited strictly before the hit, start included.

A SampleStore materializes X walks per non-rumor start node together with an
inverted index (node -> hit walks whose prefix contains it), which is what
makes marginal-gain evaluation cheap.  Stores built from the same graph,
rumor set and seed are bit-identical regardless of thread count: each start
node draws from its own seed substream.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import Graph

_CHUNK_NODES = 128
_STORE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SampleConfig:
    """Walk-length threshold T, walks per start node X, and the RNG seed."""

    T: int
    X: int
    seed: int = 0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"walk length threshold must be >= 1, got {self.T}")
        if self.X < 1:
            raise ValueError(f"walks per node must be >= 1, got {self.X}")


@dataclass(frozen=True)
class WalkProfile:
    """One sampled walk: its start, whether it reached the rumor set, and the
    distinct non-rumor nodes seen before the first rumor node."""

    start: int
    hit: bool
    prefix: frozenset[int]


def hoeffding_sample_size(epsilon: float, delta: float, candidates: int) -> int:
    """Smallest X with (n - |R|) * exp(-2 eps^2 X) <= delta, natural log.

    With X walks per node, the sampled objective deviates from its expectation
    by more than epsilon * candidates with probability at most delta.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if candidates < 1:
        raise ValueError(f"candidates must be >= 1, got {candidates}")
    return math.ceil(math.log(candidates / delta) / (2.0 * epsilon * epsilon))


def sample_walk(g: Graph, u: int, rumor_set, T: int, rng) -> WalkProfile:
    """Simulate one walk of at most T steps; reference scalar implementation.

    rng needs a .random() method returning uniforms in [0, 1).  Consumes one
    uniform per executed step, none after early termination.
    """
    if u in rumor_set:
        raise ValueError(f"start node {u} is in the rumor set")
    prefix = {u}
    cur = u
    hit = False
    for _ in range(T):
        nbrs = g.neighbors(cur)
        if not nbrs:
            break
        nxt = nbrs[int(rng.random() * len(nbrs))]
        if nxt in rumor_set:
            hit = True
            break
        prefix.add(nxt)
        cur = nxt
    return WalkProfile(start=u, hit=hit, prefix=frozenset(prefix))


class WalkIndex:
    """Inverted index over hit walks: which weighted walks contain each node.

    This is the structure every objective/gain computation runs on.  It is
    shared by Monte Carlo stores (weight 1/X per walk) and exact enumeration
    stores (weight = realization probability).

    Attributes:
        candidates: sorted array of non-rumor node ids.
        cand_pos: len-n array mapping node id -> candidate position (-1 for rumor).
        walk_weights: weight of each hit walk, length H.
        indptr / walk_ids: CSR over candidate positions; walk_ids[indptr[p]:indptr[p+1]]
            are the hit-walk positions whose prefix contains candidates[p].
        walk_indptr / walk_cands: the forward CSR; walk_cands[walk_indptr[w]:
            walk_indptr[w+1]] are the candidate positions in hit walk w's prefix.
        max_count: largest hit-walk prefix size (caps any impression count).
        influenced_mass: total hit weight, the expected number of users the
            rumor set reaches; denominator of the blocking percentage.
    """

    def __init__(self, n_nodes, rumor_set, hit_prefix_indptr, hit_prefix_nodes,
                 walk_weights):
        self.n_nodes = int(n_nodes)
        self.rumor_set = frozenset(int(r) for r in rumor_set)
        self.candidates = np.array(
            sorted(set(range(self.n_nodes)) - self.rumor_set), dtype=np.int64)
        if self.candidates.size == 0:
            raise ValueError("rumor set covers every node; no candidates remain")
        self.cand_pos = np.full(self.n_nodes, -1, dtype=np.int64)
        self.cand_pos[self.candidates] = np.arange(self.candidates.size)

        self.walk_weights = np.asarray(walk_weights, dtype=np.float64)
        self.walk_indptr = np.asarray(hit_prefix_indptr, dtype=np.int64)
        prefix_nodes = np.asarray(hit_prefix_nodes, dtype=np.int64)
        n_hit = self.walk_weights.size
        lengths = np.diff(self.walk_indptr)

        pos_vals = self.cand_pos[prefix_nodes]
        if pos_vals.size and pos_vals.min() < 0:
            raise ValueError("hit-walk prefix contains a rumor node")
        self.walk_cands = pos_vals.astype(np.int32)
        walk_of_entry = np.repeat(np.arange(n_hit, dtype=np.int64), lengths)
        order = np.argsort(pos_vals, kind="stable")
        self.walk_ids = walk_of_entry[order].astype(np.int32)
        per_cand = np.bincount(pos_vals, minlength=self.candidates.size)
        self.indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(per_cand, dtype=np.int64)])
        self.max_count = int(lengths.max()) if lengths.size else 0
        self.influenced_mass = float(self.walk_weights.sum())

    @property
    def n_candidates(self) -> int:
        return int(self.candidates.size)

    @property
    def n_hit_walks(self) -> int:
        return int(self.walk_weights.size)

    def position(self, v: int) -> int:
        if not 0 <= v < self.n_nodes:
            raise ValueError(f"node {v} out of range")
        p = int(self.cand_pos[v])
        if p < 0:
            raise ValueError(f"node {v} is in the rumor set")
        return p

    def walk_slice(self, v: int) -> np.ndarray:
        """Positions of hit walks whose prefix contains node v."""
        p = self.position(v)
        return self.walk_ids[self.indptr[p]:self.indptr[p + 1]]

    def counts_for(self, nodes) -> np.ndarray:
        """Per-hit-walk impression count |prefix ∩ nodes|; repeats count once."""
        counts = np.zeros(self.n_hit_walks, dtype=np.int32)
        for v in frozenset(nodes):
            counts[self.walk_slice(v)] += 1
        return counts


class SampleStore:
    """X walk profiles per non-rumor start node, plus the inverted index."""

    def __init__(self, config: SampleConfig, n_nodes: int, rumor_set,
                 hit_flags: np.ndarray, prefix_indptr: np.ndarray,
                 prefix_nodes: np.ndarray):
        self.config = config
        self.n_nodes = int(n_nodes)
        self.rumor_set = frozenset(int(r) for r in rumor_set)
        self.hit_flags = hit_flags
        self.prefix_indptr = prefix_indptr
        self.prefix_nodes = prefix_nodes

        hit_ids = np.flatnonzero(hit_flags)
        hit_indptr, hit_nodes = _csr_take(prefix_indptr, prefix_nodes, hit_ids)
        weights = np.full(hit_ids.size, 1.0 / config.X, dtype=np.float64)
        self.index = WalkIndex(n_nodes, self.rumor_set, hit_indptr, hit_nodes, weights)
        self.hit_counts = np.asarray(
            hit_flags.reshape(self.index.n_candidates, config.X).sum(axis=1),
            dtype=np.int64)

    @property
    def candidates(self) -> np.ndarray:
        return self.index.candidates

    @property
    def X(self) -> int:
        return self.config.X

    def profile(self, u: int, i: int) -> WalkProfile:
        """The i-th sampled walk starting at node u."""
        if not 0 <= i < self.X:
            raise ValueError(f"walk index {i} out of range [0, {self.X})")
        w = self.index.position(u) * self.X + i
        lo, hi = self.prefix_indptr[w], self.prefix_indptr[w + 1]
        return WalkProfile(start=u, hit=bool(self.hit_flags[w]),
                           prefix=frozenset(int(x) for x in self.prefix_nodes[lo:hi]))

    def profiles(self, u: int) -> list[WalkProfile]:
        return [self.profile(u, i) for i in range(self.X)]


def build_sample_store(g: Graph, rumor_set, cfg: SampleConfig,
                       threads: int = 1) -> SampleStore:
    """Sample X walks from every non-rumor node; bit-identical per seed.

    Each start node owns an independent seed substream, so chunked or threaded
    builds produce exactly the same store as a serial one.
    """
    rumor = frozenset(int(r) for r in rumor_set)
    if not rumor:
        raise ValueError("rumor set is empty")
    for r in rumor:
        if not 0 <= r < g.n:
            raise ValueError(f"rumor node {r} out of range")
    candidates = np.array(sorted(set(range(g.n)) - rumor), dtype=np.int64)
    if candidates.size == 0:
        raise ValueError("rumor set covers every node; nothing to sample")

    adj_indptr = np.zeros(g.n + 1, dtype=np.int64)
    degs = np.array(g.degrees(), dtype=np.int64)
    np.cumsum(degs, out=adj_indptr[1:])
    adj_flat = np.fromiter(
        (v for u in range(g.n) for v in g.neighbors(u)),
        dtype=np.int32, count=int(degs.sum()))
    is_rumor = np.zeros(g.n, dtype=bool)
    is_rumor[list(rumor)] = True

    chunks = [candidates[i:i + _CHUNK_NODES]
              for i in range(0, candidates.size, _CHUNK_NODES)]

    def run_chunk(starts):
        return _simulate_chunk(adj_indptr, adj_flat, degs, is_rumor, starts, cfg)

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(c) for c in chunks]

    hit_flags = np.concatenate([r[0] for r in results])
    lengths = np.concatenate([np.diff(r[1]) for r in results])
    prefix_nodes = np.concatenate([r[2] for r in results])
    prefix_indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)])
    return SampleStore(cfg, g.n, rumor, hit_flags, prefix_indptr, prefix_nodes)


def _node_rng(seed: int, u: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(u,)))


def _simulate_chunk(adj_indptr, adj_flat, degs, is_rumor, starts, cfg: SampleConfig):
    """Vectorized simulation of X walks for each start in `starts`.

    Walk (u, i) consumes row i of start u's (X, T) uniform block, one value per
    step, matching sample_walk's consumption pattern exactly.
    """
    T, X = cfg.T, cfg.X
    W = starts.size * X
    uniforms = np.empty((W, T), dtype=np.float64)
    for j, u in enumerate(starts):
        uniforms[j * X:(j + 1) * X] = _node_rng(cfg.seed, int(u)).random((X, T))

    seq = np.full((T + 1, W), -1, dtype=np.int32)
    cur = np.repeat(starts, X).astype(np.int64)
    seq[0] = cur
    active = np.ones(W, dtype=bool)
    hit = np.zeros(W, dtype=bool)
    for t in range(1, T + 1):
        alive = np.flatnonzero(active)
        if alive.size == 0:
            break
        deg = degs[cur[alive]]
        stuck = deg == 0
        if stuck.any():
            active[alive[stuck]] = False
            alive = alive[~stuck]
            deg = deg[~stuck]
            if alive.size == 0:
                break
        choice = (uniforms[alive, t - 1] * deg).astype(np.int64)
        nxt = adj_flat[adj_indptr[cur[alive]] + choice].astype(np.int64)
        hits_now = is_rumor[nxt]
        hit[alive[hits_now]] = True
        active[alive[hits_now]] = False
        moved = alive[~hits_now]
        cur[moved] = nxt[~hits_now]
        seq[t, moved] = nxt[~hits_now]

    # Distinct visited nodes per walk: column-sort then drop repeats and -1 pads.
    seq.sort(axis=0)
    keep = np.empty_like(seq, dtype=bool)
    keep[0] = seq[0] != -1
    keep[1:] = (seq[1:] != seq[:-1]) & (seq[1:] != -1)
    lengths = keep.sum(axis=0, dtype=np.int64)
    prefix_nodes = seq.T[keep.T]
    prefix_indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)])
    return hit, prefix_indptr, prefix_nodes


def _csr_take(indptr, values, rows):
    """Gather a subset of CSR rows, preserving order, in O(rows + entries)."""
    lengths = indptr[rows + 1] - indptr[rows]
    out_indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)])
    flat = np.repeat(indptr[rows], lengths) + (
        np.arange(out_indptr[-1], dtype=np.int64) - np.repeat(out_indptr[:-1], lengths))
    return out_indptr, values[flat]


def save_store(store: SampleStore, path) -> None:
    """Dump a store to a versioned .npz so sweeps can reuse one sampling pass."""
    np.savez_compressed(
        path,
        format_version=np.int64(_STORE_FORMAT_VERSION),
        n_nodes=np.int64(store.n_nodes),
        T=np.int64(store.config.T),
        X=np.int64(store.config.X),
        seed=np.int64(store.config.seed),
        rumor=np.array(sorted(store.rumor_set), dtype=np.int64),
        hit_flags=store.hit_flags,
        prefix_indptr=store.prefix_indptr,
        prefix_nodes=store.prefix_nodes,
    )


def load_store(path) -> SampleStore:
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != _STORE_FORMAT_VERSION:
            raise ValueError(f"unsupported store format version {version}")
        cfg = SampleConfig(T=int(data["T"]), X=int(data["X"]), seed=int(data["seed"]))
        return SampleStore(cfg, int(data["n_nodes"]), data["rumor"].tolist(),
                           data["hit_flags"], data["prefix_indptr"],
                           data["prefix_nodes"])
