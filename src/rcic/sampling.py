"""Bounded random-walk sampling and the sample store shared by all solvers.

The browsing model: a walk starts at a node, repeatedly moves to a uniformly
random neighbor of its current node, and stops at the first rumor node (a
"hit"), at a dead end, or after T steps.  The walk's prefix is the set of
distinct non-rumor nodes it visited strictly before the hit, start included.

A SampleStore samples X walks per non-rumor start node and keeps what the
objective reads: every walk's hit flag and the inverted index (node -> hit
walks whose prefix contains it), which is what makes marginal-gain
evaluation cheap.  Only hit walks feed the objective and the blocking
percentage, so only their prefixes are kept, and only once, as the index's
forward CSR.  A miss's prefix is taken to be its start node, which follows
from the walk number.  Stores built from the same graph, rumor set and seed
are bit-identical regardless of thread count: each start node draws from its
own seed substream.

Walks are simulated a chunk of start nodes at a time by a compacted kernel
(`_simulate_chunk`): each step touches only the walks still alive, so the
work shrinks as walks hit the rumor set or reach a dead end, and sorts and
deduplicates the visited nodes of the hit walks only.  Those rows leave the
kernel as candidate positions (int32) and become the index's forward CSR as
they are.  The inverted index is placed one block of whole hit walks at a
time: each block's entries are ordered by a stable radix order over 16-bit
digits (`_stable_order`) and written behind the entries of earlier blocks,
which gives the permutation of one stable sort over every entry while no
scratch array spans more than a block.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph

_CHUNK_NODES = 128
# entries per block of the inverted-index placement (whole walks, so a block
# runs over by at most one walk's prefix)
_BLOCK_ENTRIES = 1 << 18


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
    """One sampled walk: its start, whether it reached the rumor set, and its
    prefix.

    `sample_walk` gives every walk's prefix: the distinct non-rumor nodes seen
    before the first rumor node.  A store keeps that prefix for hit walks only;
    a miss's prefix there is its start node alone.
    """

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

    Hit-walk prefixes are given as a CSR over candidate positions, not node
    ids: `hit_prefix_cands` is kept as `walk_cands` (int32, without a copy
    when it already is int32), and an entry outside [0, n_candidates) raises
    `ValueError`.  The inverted CSR is placed a block of about
    `_BLOCK_ENTRIES` entries of whole walks at a time, so the build needs no
    scratch array that spans every entry.

    Attributes:
        candidates: sorted array of non-rumor node ids.
        cand_pos: len-n array mapping node id -> candidate position (-1 for rumor).
        walk_weights: weight of each hit walk, length H.
        indptr / walk_ids: CSR over candidate positions; walk_ids[indptr[p]:indptr[p+1]]
            (`walks_of(p)`) are the hit walks whose prefix contains candidates[p].
        walk_indptr / walk_cands: the forward CSR; walk_cands[walk_indptr[w]:
            walk_indptr[w+1]] are the candidate positions in hit walk w's prefix.
        max_count: largest hit-walk prefix size (caps any impression count).
        influenced_mass: total hit weight, the expected number of users the
            rumor set reaches; denominator of the blocking percentage.
    """

    def __init__(self, n_nodes, rumor_set, hit_prefix_indptr, hit_prefix_cands,
                 walk_weights):
        self.n_nodes = int(n_nodes)
        self.candidates, cand_pos = _candidate_positions(self.n_nodes, rumor_set)
        if self.candidates.size == 0:
            raise ValueError("rumor set covers every node; no candidates remain")
        self.cand_pos = cand_pos.astype(np.int64)

        self.walk_weights = np.asarray(walk_weights, dtype=np.float64)
        self.walk_indptr = np.asarray(hit_prefix_indptr, dtype=np.int64)
        n_cand = self.candidates.size
        cands = np.asarray(hit_prefix_cands)
        if cands.size and (cands.min() < 0 or cands.max() >= n_cand):
            raise ValueError("hit-walk prefix holds a position outside the "
                             f"{n_cand} candidates (a rumor node)")
        self.walk_cands = cands.astype(np.int32, copy=False)

        # Counting-sort placement, one block of whole walks at a time, in two
        # passes: the blocks' key counts give `indptr`; then each entry goes
        # behind its candidate's entries from earlier blocks (`filled`), at its
        # rank among the block's entries of that candidate.  Blocks run in walk
        # order, so this is one global stable sort's permutation.  (A bincount
        # over every entry would convert all of them to int64.)
        bounds = [0, *np.searchsorted(self.walk_indptr, np.arange(
            _BLOCK_ENTRIES, self.walk_cands.size, _BLOCK_ENTRIES)),
                  self.walk_weights.size]
        blocks = [(w0, w1) for w0, w1 in zip(bounds, bounds[1:]) if w0 < w1]

        def keys_of(w0, w1):
            return self.walk_cands[self.walk_indptr[w0]:self.walk_indptr[w1]]

        per_cand = np.zeros(n_cand, dtype=np.int64)
        for w0, w1 in blocks:
            per_cand += np.bincount(keys_of(w0, w1), minlength=n_cand)
        self.indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(per_cand, dtype=np.int64)])
        self.walk_ids = np.empty(self.walk_cands.size, dtype=np.int32)
        filled = self.indptr[:-1].copy()
        self.max_count = 0
        for w0, w1 in blocks:
            lengths = np.diff(self.walk_indptr[w0:w1 + 1])
            self.max_count = max(self.max_count, int(lengths.max()))
            keys = keys_of(w0, w1)
            order = _stable_order(keys)
            counts = np.bincount(keys, minlength=n_cand)
            # slot of the block's i-th entry in key order: its candidate's
            # first free slot plus i minus the block's entries of smaller keys
            base = filled - (np.cumsum(counts) - counts)
            slots = base[keys[order]] + np.arange(order.size)
            self.walk_ids[slots] = np.repeat(
                np.arange(w0, w1, dtype=np.int32), lengths)[order]
            filled += counts
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

    def walks_of(self, pos: int) -> np.ndarray:
        """Hit walks whose prefix contains the candidate at position pos."""
        return self.walk_ids[self.indptr[pos]:self.indptr[pos + 1]]

    @cached_property
    def hit_mass(self) -> np.ndarray:
        """Per candidate position, the weight of its hit walks; built on first use."""
        weights = np.repeat(self.walk_weights, np.diff(self.walk_indptr))
        return np.bincount(self.walk_cands, weights, self.n_candidates)

    def counts_for(self, nodes) -> np.ndarray:
        """Per-hit-walk impression count |prefix ∩ nodes|; repeats count once."""
        counts = np.zeros(self.n_hit_walks, dtype=np.int32)
        for v in frozenset(nodes):
            counts[self.walks_of(self.position(v))] += 1
        return counts


class SampleStore:
    """X walks per non-rumor start node, plus the inverted index.

    Walk w = position(u) * X + i is start u's i-th walk.  `hit_flags[w]` says
    whether it reached the rumor set.  The h-th hit walk's prefix is row h of
    the index's forward CSR, `index.walk_cands[index.walk_indptr[h]:
    index.walk_indptr[h + 1]]`, as candidate positions in ascending order.
    Nothing else is kept: `hit_counts[p]`, how many of the walks from
    candidates[p] hit, and `prefix_indptr` and `prefix_nodes`, a CSR over
    every walk whose row is a hit's prefix or a miss's start node, are built
    on each read.  `store_bytes` is the size of the store's and the index's
    arrays as built.
    """

    def __init__(self, config: SampleConfig, n_nodes: int, rumor_set,
                 hit_flags: np.ndarray, hit_indptr: np.ndarray,
                 hit_cands: np.ndarray):
        self.config = config
        self.n_nodes = int(n_nodes)
        self.rumor_set = frozenset(int(r) for r in rumor_set)
        self.hit_flags = hit_flags

        weights = np.full(hit_indptr.size - 1, 1.0 / config.X, dtype=np.float64)
        self.index = WalkIndex(n_nodes, self.rumor_set, hit_indptr, hit_cands, weights)
        self.store_bytes = sum(
            a.nbytes for obj in (self, self.index) for a in vars(obj).values()
            if isinstance(a, np.ndarray))

    @property
    def candidates(self) -> np.ndarray:
        return self.index.candidates

    @property
    def X(self) -> int:
        return self.config.X

    @property
    def hit_counts(self) -> np.ndarray:
        """Per candidate position, how many of its X walks hit (int64)."""
        return self.hit_flags.reshape(self.index.n_candidates, self.X).sum(
            axis=1, dtype=np.int64)

    @property
    def prefix_indptr(self) -> np.ndarray:
        """Row offsets over every walk (int64): a hit's prefix size, a miss's 1."""
        lengths = np.ones(self.hit_flags.size, dtype=np.int64)
        lengths[self.hit_flags] = np.diff(self.index.walk_indptr)
        return np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)])

    @property
    def prefix_nodes(self) -> np.ndarray:
        """Every walk's row as node ids (int32): a hit's prefix, a miss's start."""
        index = self.index
        in_hit_row = np.repeat(self.hit_flags, np.diff(self.prefix_indptr))
        nodes = np.empty(in_hit_row.size, dtype=np.int32)
        nodes[in_hit_row] = index.candidates[index.walk_cands]
        nodes[~in_hit_row] = np.repeat(index.candidates, self.X)[~self.hit_flags]
        return nodes

    def profile(self, u: int, i: int) -> WalkProfile:
        """The i-th sampled walk starting at node u; a miss's prefix is {u}."""
        if not 0 <= i < self.X:
            raise ValueError(f"walk index {i} out of range [0, {self.X})")
        w = self.index.position(u) * self.X + i
        if not self.hit_flags[w]:
            return WalkProfile(start=u, hit=False, prefix=frozenset((u,)))
        index = self.index
        h = np.count_nonzero(self.hit_flags[:w])
        row = index.walk_cands[index.walk_indptr[h]:index.walk_indptr[h + 1]]
        return WalkProfile(start=u, hit=True,
                           prefix=frozenset(int(x) for x in index.candidates[row]))


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
    candidates, cand_pos = _candidate_positions(g.n, rumor)
    if candidates.size == 0:
        raise ValueError("rumor set covers every node; nothing to sample")

    adj_indptr = np.zeros(g.n + 1, dtype=np.int64)
    degs = np.array(g.degrees(), dtype=np.int64)
    np.cumsum(degs, out=adj_indptr[1:])
    adj_flat = np.fromiter(
        (v for u in range(g.n) for v in g.neighbors(u)),
        dtype=np.int64, count=int(degs.sum()))
    is_rumor = cand_pos < 0

    chunks = [candidates[i:i + _CHUNK_NODES]
              for i in range(0, candidates.size, _CHUNK_NODES)]

    def run_chunk(starts):
        return _simulate_chunk(adj_indptr, adj_flat, degs, is_rumor, cand_pos,
                               starts, cfg)

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(c) for c in chunks]

    hit_flags = np.concatenate([r[0] for r in results])
    hit_lengths = np.concatenate([r[1] for r in results])
    hit_cands = np.concatenate([r[2] for r in results])
    del results  # the chunks would otherwise live on through the index build
    hit_indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(hit_lengths, dtype=np.int64)])
    return SampleStore(cfg, g.n, rumor, hit_flags, hit_indptr, hit_cands)


def _node_rng(seed: int, u: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(u,)))


def _candidate_positions(n_nodes: int, rumor_set):
    """The non-rumor nodes in ascending order (int64), and the lookup from
    node id to position among them (int32, -1 for a rumor node)."""
    candidates = np.array(sorted(set(range(n_nodes)) - set(rumor_set)),
                          dtype=np.int64)
    cand_pos = np.full(n_nodes, -1, dtype=np.int32)
    cand_pos[candidates] = np.arange(candidates.size, dtype=np.int32)
    return candidates, cand_pos


def _simulate_chunk(adj_indptr, adj_flat, degs, is_rumor, cand_pos, starts,
                    cfg: SampleConfig):
    """Vectorized simulation of X walks for each start in `starts`.

    Walk (u, i) consumes row i of start u's (X, T) uniform block, one value per
    step, matching sample_walk's consumption pattern exactly.  The blocks are
    stored transposed, as one (T, W) array, so step t gathers the uniforms of
    the walks still alive from one contiguous row.  Stepping is compacted: only
    the alive walks' ids and current nodes are carried from step to step, and a
    walk leaves them at a dead end or at a rumor node.  Both stay int64, numpy's
    index type, since an int32 index array is converted again on every gather.
    Only the hit walks' columns of the step matrix are sorted and deduplicated.
    Returns every walk's hit flag, and the hit walks' prefixes as a CSR: each
    hit walk's prefix size (int32) and the prefixes concatenated, in walk
    order, as candidate positions through the int32 lookup `cand_pos`.  Node
    order is position order, so each prefix is ascending.  A miss leaves
    nothing else.
    """
    T, X = cfg.T, cfg.X
    W = starts.size * X
    uniforms = np.empty((T, W), dtype=np.float64)
    for j, u in enumerate(starts):
        uniforms[:, j * X:(j + 1) * X] = _node_rng(cfg.seed, int(u)).random((X, T)).T

    seq = np.full((T + 1, W), -1, dtype=np.int32)
    cur = np.repeat(starts, X)
    seq[0] = cur
    ids = np.arange(W, dtype=np.int64)
    hit = np.zeros(W, dtype=bool)
    for t in range(T):
        deg = degs[cur]
        stuck = deg == 0
        if stuck.any():
            ids, cur, deg = ids[~stuck], cur[~stuck], deg[~stuck]
        if ids.size == 0:
            break
        choice = (uniforms[t, ids] * deg).astype(np.int64)
        nxt = adj_flat[adj_indptr[cur] + choice]
        hits_now = is_rumor[nxt]
        if hits_now.any():
            hit[ids[hits_now]] = True
            ids, nxt = ids[~hits_now], nxt[~hits_now]
        cur = nxt
        seq[t + 1, ids] = cur

    # Distinct visited nodes per hit walk: column-sort then drop repeats and -1
    # pads.  A miss feeds no objective, so nothing of it is kept.
    steps = seq.take(np.flatnonzero(hit), axis=1)
    steps.sort(axis=0)
    keep = np.empty(steps.shape, dtype=bool)
    keep[0] = steps[0] != -1
    keep[1:] = (steps[1:] != steps[:-1]) & (steps[1:] != -1)
    return hit, keep.sum(axis=0, dtype=np.int32), cand_pos[steps.T[keep.T]]


def _stable_order(keys):
    """`np.argsort(keys, kind="stable")` for non-negative integer keys.

    A least-significant-digit radix order over 16-bit digits: each pass is a
    stable argsort of one uint16 digit, which numpy runs as a radix sort, so
    keys below 2**16 (one graph's candidate positions) take a single pass.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    top = int(keys.max()) if keys.size else 0
    for shift in range(16, top.bit_length(), 16):
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def _csr_take(indptr, values, rows):
    """Gather a subset of CSR rows, preserving order, in O(rows + entries)."""
    lengths = indptr[rows + 1] - indptr[rows]
    out_indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)])
    flat = np.repeat(indptr[rows] - out_indptr[:-1], lengths)
    flat += np.arange(out_indptr[-1], dtype=np.int64)
    return out_indptr, values[flat]
