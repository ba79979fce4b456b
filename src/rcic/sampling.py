"""Bounded random-walk sampling and the sample store shared by all solvers.

The browsing model: a walk starts at a node, repeatedly moves to a uniformly
random neighbor of its current node, and stops at the first rumor node (a
"hit"), at a dead end, or after T steps.  The walk's prefix is the set of
distinct non-rumor nodes it visited strictly before the hit, start included.

A SampleStore samples X walks per non-rumor start node and keeps what the
objective reads: the index of its hit walks, whose inverted lists (node ->
hit walks whose prefix contains it) make marginal-gain evaluation cheap.
Only hit walks feed the objective and the blocking percentage, so only
their prefixes are kept, and only once, as the index's forward CSR.  The hit
walks are ordered by (start, hit step, walk number), so each start's are
consecutive and those within any T' <= T lead them.  The index weighs its
hit walks by start: a start's hit walks are one group, sized by its number
of hit walks and weighted 1/X, so a hit walk holds a group id (two bytes
below 65,536 starts), not a float64 weight.  Beside the index a store keeps
each hit walk's number among its start's X walks; nothing is kept per walk,
and a miss's prefix is taken to be its start node.  Stores built from the
same graph, rumor set and seed are bit-identical regardless of thread
count: each start node draws from its own seed substream,
`SeedSequence(entropy=seed, spawn_key=(u,))`'s PCG64.  Every start's PCG64
state is computed up front in one vectorized pass (`_pcg64_states`); each
worker thread then sets it on its one reused generator.  The draws are step-major: start u fills a (T, X)
block, and walk i's step t reads draw t * X + i, so a build at T' < T reads
the first T' * X draws of a build at T and its walks are the same walks cut
at T'.

Walks are simulated a chunk of starts at a time (at most `_CHUNK_NODES`
starts, and at most `_CHUNK_WALKS` walks unless the chunk is one start),
every walk of the chunk in lockstep, on a copy of the graph's CSR with one
sink added: HIT (node n), which every arc into the rumor set leads to
instead.  A dead end's empty row gets one arc, to itself, so a walk that
reaches it stays there and never hits.  Each step is then the same few
full-width gathers for every walk, with no compaction, into the next row of
a step matrix of node ids; a walk hit iff its last row reads HIT.  Each
start's (T, X) block of uniforms is drawn straight into a (starts, T, X)
chunk buffer, and step t multiplies through its (starts, X) view.  The step
matrix, the uniforms and the step temporaries are scratch buffers,
allocated once per worker thread per build and sized by a chunk's walks, so
they do not grow with X.  Only the hit walks' columns go on, mapped through
the set's position lookup into `WalkIndex.position_dtype` (uint16 from 256
to 65,535 candidates), where HIT and the set's rumor nodes read the dtype's
top value.  The (T + 1, H) position matrix is sorted down its columns by
Batcher's odd-even merge network, each comparator an `np.minimum` and an
`np.maximum` of two contiguous rows, and deduplicated; its entries below
the top value are the prefixes.  One stable radix argsort of a (start,
step) key puts the hit walks in row order, applied by the transposed copy
that flattens the prefixes; each hit walk's number among its start's walks
is taken through the same order.  They leave the kernel with each hit
walk's number and prefix size, in the smallest unsigned dtypes that hold
X - 1 and T + 1 (one byte each for X <= 256 and T < 255), and with the
number of hit walks and of prefix entries per (start, step).  A chunk's
rows are copied into its set's arrays as soon as the chunk is done, in
chunk order, so a pass holds its rows once, never beside a join of them.
The rows become the index's forward CSR as they are; its offsets are summed
from the prefix sizes only when a store is built (`WalkIndex.offset_dtype`:
int32 below 2**31 entries).

`build_sample_stores` plans the walk passes of a sequence of store keys
(rumor set, SampleConfig), such as a sweep's points: equal consecutive keys
share a store, and consecutive keys with one X and seed whose rumor sets
grow nested, R_1 ⊆ R_2 ⊆ ... (equal sets count), share one pass at their
largest T.  Under R_b walk (u, i) is walk (u, i) under R_1 cut at its first
node in R_b, so each larger set's hit steps and prefixes follow from the
same step matrix, and the walks from starts in R_b are dropped.  One gather
of each node's first larger set, least along each walk, tells every larger
set which walks reach it.  A walk ends at its hit, so under T' it hits
iff its hit step is at most T', with the same prefix: a key's store keeps
each start's first hit walks of its set's rows, one range per start read
off the per-(start, step) counts, and each start's count of them (the |R|
sweep and the T sweep).  `build_sample_store` is its one-key case.  Each store,
and so its index, is built only when the caller asks for it.

Only the walk pass runs on worker threads (`threads`); the index runs on
the caller's thread.  It is built with one pass over blocks of whole hit
walks, which counts each candidate's entries (its block degree, which top-k
reads) and finds the longest prefix.  Its inverted lists are placed only
when a gain solver first reads them, so a run of top-k alone never places
them; until then an objective's impression counts are summed from the
forward CSR.  The lists are placed one block of whole hit walks at a time:
each block's entries are ordered by a stable argsort, which numpy runs as a
radix sort on uint8 and uint16 positions, and written behind the entries of
earlier blocks, which gives the permutation of one stable sort over every
entry while no scratch array spans more than a block.  `hit_mass` is
summed over the same blocks.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .graph import Graph

# starts per chunk of the walk pass, and the walks a chunk of more than one
# start may hold: the pass's scratch buffers grow with these, not with X.
# 64,000 walks keep a worker's buffers near 11 MiB at T = 9; a quarter of
# that made a 2-thread pass slower
_CHUNK_NODES = 128
_CHUNK_WALKS = 64_000
# entries per block of the inverted-index placement (whole walks, so a block
# runs over by at most one walk's prefix)
_BLOCK_ENTRIES = 1 << 18


def check_count(value, name: str, floor: int) -> int:
    """`value` as an int, or `ValueError` unless it is an integer >= floor:
    the one rule for every count setting, checked where the setting enters.
    NumPy integers count; bool, although an `Integral`, does not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < floor):
        raise ValueError(f"{name} takes integers >= {floor}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SampleConfig:
    """Walk-length threshold T >= 1, walks per start node X >= 1, seed >= 0."""

    T: int
    X: int
    seed: int = 0

    def __post_init__(self):
        check_count(self.T, "T", 1)
        check_count(self.X, "X", 1)
        check_count(self.seed, "seed", 0)


def hoeffding_sample_size(epsilon: float, delta: float, candidates: int) -> int:
    """Smallest X with (n - |R|) * exp(-2 eps^2 X) <= delta, natural log.

    With X walks per node, the sampled objective deviates from its expectation
    by more than epsilon * candidates with probability at most delta.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    check_count(candidates, "candidates", 1)
    return math.ceil(math.log(candidates / delta) / (2.0 * epsilon * epsilon))


class WalkIndex:
    """Index over weighted hit walks: each walk's prefix, and which walks
    contain each node.

    Every objective and gain runs on it.  Its hit walks are weighted by
    group, a run of consecutive hit walks that share one weight: a Monte
    Carlo store's groups are its starts, each weighted 1/X, and an exact
    enumeration store's are its realizations, one walk each, weighted by
    probability.  No weight is kept per walk; a reader gathers the weights
    of the walks it reads (`weights_of`).  A group count or size that does
    not add up to the hit walks raises `ValueError`.  The forward CSR and
    each candidate's entry count are built with the index; the inverted
    lists, `walk_ids`, only when first read (by `walks_of`, which gain
    solvers call), so an objective alone, which `counts_for` sums from the
    forward CSR until then, never places them.

    Hit walks are numbered in the order their prefixes are given, and sums
    run in that order.  A `SampleStore` gives them by (start, hit step, walk
    number), so a start's hit walks are a range of walk ids.

    Hit-walk prefixes are given as a CSR over candidate positions, not node
    ids: `hit_prefix_cands` is kept as `walk_cands` in `position_dtype`, and
    `hit_prefix_indptr` as `walk_indptr` in `offset_dtype`, each without a
    copy when it already has that dtype; an entry outside [0, n_candidates)
    raises `ValueError`.  The dtypes follow from the sizes alone, so every
    store of one candidate and entry count, sampled or exact, holds the same
    index dtypes.  The build and the inverted lists' placement each run a
    block of about `_BLOCK_ENTRIES` entries of whole walks at a time, on the
    caller's thread, so neither needs a scratch array that spans every
    entry.  A hit walk with an empty prefix raises `ValueError`.

    Impression counts are held in `count_dtype`, the smallest unsigned dtype
    that holds `max_count` (uint8 below 256).  Every objective and gain is a
    `weighted_sum`: weight * value summed one block of `_BLOCK_ENTRIES` walks
    at a time by numpy's own loop, not BLAS, so a sum has the same bits at
    any BLAS thread count and its scratch is one block's values.

    Attributes:
        candidates: sorted array of non-rumor node ids.
        cand_pos: len-n array mapping node id -> candidate position (-1 for rumor).
        group_sizes / group_weights: each group's number of hit walks and
            the weight of each of them; groups run in walk order.
        group_of: each hit walk's group, length H, in the smallest unsigned
            dtype that holds every group id.
        indptr / walk_ids: CSR over candidate positions; walk_ids[indptr[p]:indptr[p+1]]
            (`walks_of(p)`) are the hit walks whose prefix contains candidates[p].
            `indptr` is built with the index, `walk_ids` on first read.
        walk_indptr / walk_cands: the forward CSR; walk_cands[walk_indptr[w]:
            walk_indptr[w+1]] are the candidate positions in hit walk w's prefix.
        max_count: largest hit-walk prefix size (caps any impression count).
        influenced_mass: total hit weight, the expected number of users the
            rumor set reaches; denominator of the blocking percentage.  Summed
            over the groups, as size * weight.
    """

    # a hit walk's id in the inverted lists
    walk_id_dtype = np.dtype(np.int32)

    def __init__(self, n_nodes, rumor_set, hit_prefix_indptr, hit_prefix_cands,
                 group_sizes, group_weights):
        self.n_nodes = int(n_nodes)
        self.candidates, cand_pos = _candidate_positions(self.n_nodes, rumor_set)
        if self.candidates.size == 0:
            raise ValueError("rumor set covers every node; no candidates remain")
        self.cand_pos = cand_pos.astype(np.int64)

        n_cand = self.candidates.size
        cands = np.asarray(hit_prefix_cands)
        if cands.size and (cands.min() < 0 or cands.max() >= n_cand):
            raise ValueError("hit-walk prefix holds a position outside the "
                             f"{n_cand} candidates (a rumor node)")
        self.walk_cands = cands.astype(self.position_dtype(n_cand), copy=False)
        self.walk_indptr = np.asarray(hit_prefix_indptr).astype(
            self.offset_dtype(cands.size), copy=False)

        self.group_sizes = np.asarray(group_sizes)
        self.group_weights = np.asarray(group_weights, dtype=np.float64)
        if (self.group_weights.shape != self.group_sizes.shape
                or self.group_sizes.sum() != self.walk_indptr.size - 1):
            raise ValueError("the groups must give one weight each and size "
                             f"{self.walk_indptr.size - 1} hit walks in all")
        self.group_of = np.repeat(np.arange(
            self.group_sizes.size,
            dtype=np.min_scalar_type(max(self.group_sizes.size - 1, 0))),
            self.group_sizes)

        # One pass over blocks of whole walks: the blocks' key counts sum to
        # `indptr`, and their prefix sizes give `max_count`.  (A bincount
        # over every entry would convert all of them to int64.)  The
        # inverted lists are placed by the first read of `walk_ids`.
        per_cand = np.zeros(n_cand, dtype=np.int64)
        self.max_count = 0
        for w0, w1 in self._walk_blocks():
            lengths = np.diff(self.walk_indptr[w0:w1 + 1])
            if lengths.min() == 0:
                raise ValueError("a hit walk's prefix is empty; every prefix "
                                 "holds its start")
            self.max_count = max(self.max_count, int(lengths.max()))
            per_cand += np.bincount(self._block_keys(w0, w1), minlength=n_cand)
        self.indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(per_cand, dtype=np.int64)])
        # numpy's own pairwise sum, whose bits, unlike a BLAS dot product's,
        # hold at any thread count
        self.influenced_mass = float(
            np.multiply(self.group_sizes, self.group_weights).sum())

    @staticmethod
    def position_dtype(n_candidates: int) -> np.dtype:
        """The smallest unsigned dtype that holds every candidate position
        and `n_candidates` itself, so a rumor node's position, -1, wraps to
        an out-of-range position instead of a candidate's."""
        return np.min_scalar_type(n_candidates)

    @staticmethod
    def offset_dtype(n_entries: int) -> np.dtype:
        """The dtype of a forward CSR's offsets: int32 below 2**31 entries,
        int64 from there."""
        return np.dtype(np.int32 if n_entries < 1 << 31 else np.int64)

    def _walk_blocks(self):
        """(w0, w1) ranges of whole hit walks of about `_BLOCK_ENTRIES`
        entries each, in walk order."""
        # targets in the offsets' dtype, or searchsorted copies the offsets
        bounds = [0, *np.searchsorted(self.walk_indptr, np.arange(
            _BLOCK_ENTRIES, self.walk_cands.size, _BLOCK_ENTRIES,
            dtype=self.walk_indptr.dtype)), self.n_hit_walks]
        return [(w0, w1) for w0, w1 in zip(bounds, bounds[1:]) if w0 < w1]

    @property
    def n_candidates(self) -> int:
        return int(self.candidates.size)

    @property
    def n_hit_walks(self) -> int:
        return int(self.group_of.size)

    def position(self, v: int) -> int:
        if check_count(v, "node", 0) >= self.n_nodes:
            raise ValueError(f"node {v} out of range")
        p = int(self.cand_pos[v])
        if p < 0:
            raise ValueError(f"node {v} is in the rumor set")
        return p

    def _block_keys(self, w0: int, w1: int) -> np.ndarray:
        """The prefix entries of hit walks w0..w1-1, a view of `walk_cands`."""
        return self.walk_cands[self.walk_indptr[w0]:self.walk_indptr[w1]]

    @cached_property
    def walk_ids(self) -> np.ndarray:
        """The inverted lists, `walk_id_dtype`; placed on first use.

        A counting-sort placement, one block of whole walks at a time, on
        the caller's thread: each entry goes behind its candidate's entries
        from earlier blocks (`filled`), at its rank among the block's
        entries of that candidate.  Blocks run in walk order, so this is one
        global stable sort's permutation.  Each block's keys are counted
        again here, so no per-block counts are held between the passes."""
        walk_ids = np.empty(self.walk_cands.size, dtype=self.walk_id_dtype)
        filled = self.indptr[:-1].copy()
        for w0, w1 in self._walk_blocks():
            keys = self._block_keys(w0, w1)
            counts = np.bincount(keys, minlength=self.n_candidates)
            order = np.argsort(keys, kind="stable")
            # the block's entries in key order run through each candidate's
            # free slots: entry j of the sorted block goes to its key's first
            # free slot plus j, less the block's entries of smaller keys
            slots = np.repeat(filled - (np.cumsum(counts) - counts), counts)
            slots += np.arange(order.size)
            walk_ids[slots] = np.repeat(
                np.arange(w0, w1, dtype=self.walk_id_dtype),
                np.diff(self.walk_indptr[w0:w1 + 1]))[order]
            filled += counts
            del order, slots  # freed before the next block's argsort
        return walk_ids

    def walks_of(self, pos: int) -> np.ndarray:
        """Hit walks whose prefix contains the candidate at position pos."""
        return self.walk_ids[self.indptr[pos]:self.indptr[pos + 1]]

    @cached_property
    def hit_mass(self) -> np.ndarray:
        """Per candidate position, the weight of its hit walks; built on first use.

        Summed a block of whole walks at a time, so no scratch array spans
        every entry.  `np.add.at` adds in input order, as `np.bincount` does,
        so every candidate's sum is the same as one bincount's."""
        mass = np.zeros(self.n_candidates, dtype=np.float64)
        for w0, w1 in self._walk_blocks():
            np.add.at(mass, self._block_keys(w0, w1), np.repeat(
                self.weights_of(slice(w0, w1)),
                np.diff(self.walk_indptr[w0:w1 + 1])))
        return mass

    def weights_of(self, walks) -> np.ndarray:
        """The weights of the hit walks that `walks` indexes (a slice of the
        walk range or an array of walk ids), as one contiguous float64
        array: each walk's group's weight, gathered through `group_of`."""
        return self.group_weights.take(self.group_of[walks])

    @property
    def count_dtype(self) -> np.dtype:
        """The smallest unsigned dtype that holds every impression count,
        0..max_count: uint8 below 256."""
        return np.min_scalar_type(self.max_count)

    def counts_for(self, nodes) -> np.ndarray:
        """Per-hit-walk impression count |prefix ∩ nodes| in `count_dtype`;
        repeats count once.

        Once `walk_ids` is placed, each node's inverted list adds 1 to its
        walks.  Before that the counts are summed from the forward CSR, so a
        caller that reads no inverted list never places them: a block of
        whole walks at a time, each walk's prefix entries read a member
        table and `np.add.reduceat` sums them per walk.  Both give the same
        integer counts."""
        positions = [self.position(v) for v in frozenset(nodes)]
        counts = np.zeros(self.n_hit_walks, dtype=self.count_dtype)
        if "walk_ids" in vars(self):
            for p in positions:
                counts[self.walks_of(p)] += 1
            return counts
        if not positions:
            return counts
        member = np.zeros(self.n_candidates, dtype=self.count_dtype)
        member[positions] = 1
        for w0, w1 in self._walk_blocks():
            # every prefix holds its start, so no segment is empty, where
            # reduceat would read the next entry in place of 0
            np.add.reduceat(member.take(self._block_keys(w0, w1)),
                            self.walk_indptr[w0:w1] - self.walk_indptr[w0],
                            out=counts[w0:w1])
        return counts

    def weighted_sum(self, values, walks=None) -> float:
        """Sum of weight * value over every hit walk, or over the hit walks
        listed in `walks`.

        `values(sel)` returns the values of the walks that `sel` indexes: a
        slice of the walk range, or a block of `walks`.  The sum runs one
        block of `_BLOCK_ENTRIES` walks at a time, so its scratch is a
        block's values, and each block's products are summed by numpy's own
        `einsum` loop, never BLAS, so the result has the same bits at any
        BLAS thread count."""
        n = self.n_hit_walks if walks is None else len(walks)
        total = 0.0
        for b0 in range(0, n, _BLOCK_ENTRIES):
            sel = (slice(b0, b0 + _BLOCK_ENTRIES) if walks is None
                   else walks[b0:b0 + _BLOCK_ENTRIES])
            total += np.einsum("i,i->", self.weights_of(sel), values(sel))
        return float(total)


class SampleStore:
    """X walks per non-rumor start node, plus the inverted index.

    Walk w = position(u) * X + i is start u's i-th walk.  The hit walks are
    ordered by (start, hit step, walk), so each start's hit walks are
    consecutive and those within any T' <= T come first.  The h-th hit
    walk's prefix is row h of the index's forward CSR,
    `index.walk_cands[index.walk_indptr[h]:index.walk_indptr[h + 1]]`, as
    candidate positions in ascending order; `hit_walks[h]` is its i, in the
    smallest unsigned dtype that holds X - 1.  `hit_counts[p]` is the
    number of start position p's walks that reached the rumor set within T
    steps, in the smallest unsigned dtype that holds X, so start p's hit
    walks are `hit_counts[p]` consecutive rows.  These counts are held once,
    as the index's group sizes: start p is group p, of weight 1/X, and a
    hit walk's weight is gathered through its group id.  Nothing is kept
    per walk: `hit_flags`, and `prefix_indptr` and `prefix_nodes`, a CSR
    over every walk by walk number whose row is a hit's prefix or a miss's
    start node, are scattered from the hit walks' numbers on each read:
    walk w's row is `prefix_nodes[prefix_indptr[w]:prefix_indptr[w + 1]]`,
    so a reader of many walks reads the views once.  `store_bytes` is the size
    of the store's and the index's arrays, with the index's inverted lists
    counted at their size, 4 bytes per entry, whether or not a solver has
    placed them yet.
    """

    def __init__(self, config: SampleConfig, n_nodes: int, rumor_set,
                 hit_walks: np.ndarray, hit_counts: np.ndarray,
                 hit_indptr: np.ndarray, hit_cands: np.ndarray):
        self.config = config
        self.n_nodes = int(n_nodes)
        self.rumor_set = frozenset(check_count(r, "node", 0) for r in rumor_set)
        self.hit_walks = hit_walks
        self.index = WalkIndex(n_nodes, self.rumor_set, hit_indptr, hit_cands,
                               hit_counts, np.full(hit_counts.size, 1.0 / config.X))
        # the inverted lists count at their size, placed or not
        self.store_bytes = sum(
            a.nbytes for obj in (self, self.index) for a in vars(obj).values()
            if isinstance(a, np.ndarray)) + (
            self.index.walk_cands.size * WalkIndex.walk_id_dtype.itemsize)

    @property
    def X(self) -> int:
        return self.config.X

    @property
    def hit_counts(self) -> np.ndarray:
        """Each start's number of hit walks: the index's group sizes."""
        return self.index.group_sizes

    def _walk_numbers(self) -> np.ndarray:
        """Each hit walk's number w, in the index's row order (int64)."""
        return np.repeat(np.arange(self.hit_counts.size) * self.X,
                         self.hit_counts) + self.hit_walks

    @property
    def hit_flags(self) -> np.ndarray:
        """Whether each walk reached the rumor set, by walk number."""
        flags = np.zeros(self.index.n_candidates * self.X, dtype=bool)
        flags[self._walk_numbers()] = True
        return flags

    @property
    def prefix_indptr(self) -> np.ndarray:
        """Row offsets over every walk (int64)."""
        lengths = np.ones(self.index.n_candidates * self.X, dtype=np.int64)
        lengths[self._walk_numbers()] = np.diff(self.index.walk_indptr)
        return np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lengths)])

    @property
    def prefix_nodes(self) -> np.ndarray:
        """Every walk's row as node ids (int32): a hit's prefix, a miss's start."""
        index, indptr = self.index, self.prefix_indptr
        # every row's first slot reads its start, which a hit's prefix
        # then overwrites
        nodes = np.empty(indptr[-1], dtype=np.int32)
        nodes[indptr[:-1]] = np.repeat(index.candidates, self.X)
        # the hit walks' rows, a block of walks at a time, so the scatter's
        # int64 index spans one block's entries: entry e of hit walk h goes
        # to its walk's row at e - walk_indptr[h]
        row_starts = indptr[self._walk_numbers()]
        for w0, w1 in index._walk_blocks():
            e0, e1 = index.walk_indptr[w0], index.walk_indptr[w1]
            slots = np.repeat(row_starts[w0:w1] - index.walk_indptr[w0:w1],
                              np.diff(index.walk_indptr[w0:w1 + 1]))
            slots += np.arange(e0, e1)
            nodes[slots] = index.candidates[index.walk_cands[e0:e1]]
        return nodes


def build_sample_store(g: Graph, rumor_set, cfg: SampleConfig,
                       threads: int = 1) -> SampleStore:
    """Sample X walks from every non-rumor node; bit-identical per seed.

    Each start node owns an independent seed substream, so chunked or threaded
    builds produce exactly the same store as a serial one.  `threads` worker
    threads run the walk pass; the index is built on the caller's thread.
    This is the one-key case of `build_sample_stores`.
    """
    return next(build_sample_stores(g, [(rumor_set, cfg)], threads))


def build_sample_stores(g: Graph, keys, threads: int = 1):
    """One store per (rumor set, SampleConfig) key, in order, each equal byte
    for byte to `build_sample_store` on that key alone.

    A key equal to the one before it gets the same store object.
    Consecutive keys with one X and seed whose sets grow nested, R_1 ⊆ R_2
    ⊆ ... (equal sets count), share one walk pass over their distinct sets,
    stepped under R_1 at the largest of their T; any other step starts a new
    pass.  A pass runs when its first store is asked for, and a store's rows
    are cut from it and its index built when it is yielded, after the
    iterator drops the last store: a caller that drops each store before
    asking for the next holds one index at a time.  The rumor sets and
    `threads` are checked at the call.
    """
    check_count(threads, "threads", 1)
    keys = [(frozenset(check_count(r, "node", 0) for r in rumor), cfg)
            for rumor, cfg in keys]
    if not keys:
        raise ValueError("no store keys given")
    for rumor, _ in keys:
        if not rumor:
            raise ValueError("rumor set is empty")
        if max(rumor) >= g.n:
            raise ValueError(f"rumor set holds a node outside [0, {g.n})")
        if len(rumor) == g.n:
            raise ValueError("rumor set covers every node; nothing to sample")
    return _yield_stores(g, keys, threads)


def _yield_stores(g: Graph, keys, threads: int):
    runs = [keys[:1]]  # consecutive keys that share one walk pass
    for (prev, prev_cfg), (rumor, cfg) in zip(keys, keys[1:]):
        same_draws = (cfg.X, cfg.seed) == (prev_cfg.X, prev_cfg.seed)
        if same_draws and prev <= rumor:
            runs[-1].append((rumor, cfg))
        else:
            runs.append([(rumor, cfg)])
    for run in runs:
        store = None  # the last store is not kept while the next pass runs
        rumors = [rumor for k, (rumor, _) in enumerate(run)
                  if not k or rumor != run[k - 1][0]]
        pass_cfg = replace(run[0][1], T=max(cfg.T for _, cfg in run))
        pending = deque(_sample_hit_rows(g, rumors, pass_cfg, threads))
        for k, (rumor, cfg) in enumerate(run):
            if k and run[k - 1] == (rumor, cfg):
                yield store
                continue
            store = None  # the last store is not kept while the next is built
            # a set's rows leave `pending` at the last key that reads them,
            # and what its store does not keep is freed before the store's
            # index is built
            last = k + 1 == len(run) or run[k + 1][0] != rumor
            store = SampleStore(cfg, g.n, rumor, *_hit_rows_within(
                pending.popleft() if last else pending[0], pass_cfg.T, cfg.T))
            yield store


def _sample_hit_rows(g: Graph, rumors, cfg: SampleConfig, threads: int):
    """One walk pass under rumors[0]; per set, its rows: each hit walk's
    number among its start's X walks, its prefix size and the prefixes
    concatenated as candidate positions (`WalkIndex.position_dtype` of the
    set's candidate count), with the hit walks ordered by (start, hit step,
    walk), where a walk's hit step is its first step into that set; and the
    number of hit walks and of prefix entries per (start, step), a
    (starts, T) array raveled.  Walk numbers, sizes and the two counts are
    in the smallest unsigned dtype that holds X - 1, T + 1, X and X * T.
    Nothing is held per walk.

    The walks step on the graph's own CSR with one absorbing sink added,
    HIT = n, its own only neighbour: an arc into rumors[0] leads to HIT
    instead, and a dead end gets one arc, to itself, so a walk that reaches
    it never hits.  So every step of every walk is the same few full-width
    gathers, and row t of the (T + 1, W) step matrix holds each walk's node
    after t steps.
    """
    n, T, X = g.n, cfg.T, cfg.X
    hit_node = n
    degs = g.degrees()
    candidates, first_pos = _candidate_positions(n, rumors[0])
    adj_flat = np.where(first_pos[g.indices] < 0, hit_node, g.indices)
    dead_ends = np.flatnonzero(degs == 0)
    adj_flat = np.concatenate([
        np.insert(adj_flat, g.indptr[dead_ends], dead_ends), [hit_node]])
    walk_degs = np.concatenate([np.maximum(degs, 1), [1]])
    adj_indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(walk_degs, out=adj_indptr[1:])
    degf = walk_degs.astype(np.float64)

    def position_lookup(rumor, cand_pos):
        # each node's position in the set's own index dtype, over the walk
        # graph's nodes: a rumor node's -1, and HIT's, wrap to the dtype's
        # top value, above every candidate's position
        return np.append(cand_pos, -1).astype(
            WalkIndex.position_dtype(n - len(rumor)))

    first_lookup = position_lookup(rumors[0], first_pos)
    # per larger set b = 0, 1, ...: its lookup; and over the walk graph's
    # nodes, the first larger set each is in, len(lookups) for none.  The
    # sets are nested, so a walk reaches set b iff the least level along it
    # is at most b; HIT, which stands for rumors[0], is in every set.
    lookups = [position_lookup(rumor, _candidate_positions(n, rumor)[1])
               for rumor in rumors[1:]]
    if lookups:
        level = np.full(n + 1, len(lookups),
                        dtype=np.min_scalar_type(len(lookups)))
        for b in reversed(range(len(lookups))):
            level[lookups[b] == np.iinfo(lookups[b].dtype).max] = b
    states, incs = _pcg64_states(cfg.seed, candidates)
    walk_dtype = np.min_scalar_type(X - 1)  # a walk's number, 0..X-1
    size_dtype = np.min_scalar_type(T + 1)  # holds every prefix size
    # hold the hit walks, and their prefix entries, of one (start, step)
    count_dtypes = np.min_scalar_type(X), np.min_scalar_type(X * T)
    chunk_nodes = max(1, min(_CHUNK_NODES, _CHUNK_WALKS // X))
    scratch = threading.local()

    def run_chunk(chunk):
        starts = candidates[chunk]
        W = starts.size * X
        if not hasattr(scratch, "seq"):  # this worker's first chunk
            scratch.bits = np.random.PCG64(0)
            scratch.rng = np.random.Generator(scratch.bits)
            width = chunk_nodes * X
            scratch.seq = np.empty((T + 1) * width, dtype=np.int64)
            scratch.uniforms = np.empty(T * width, dtype=np.float64)
            scratch.scaled = np.empty(width, dtype=np.float64)
            scratch.offset = np.empty(width, dtype=np.int64)
            scratch.choice = np.empty(width, dtype=np.int64)
            scratch.levels = (np.empty(T * width, dtype=level.dtype)
                              if lookups else None)
        seq = scratch.seq[:(T + 1) * W].reshape(T + 1, W)
        uniforms = scratch.uniforms[:T * W].reshape(starts.size, T, X)
        scaled, offset, choice = (scratch.scaled[:W], scratch.offset[:W],
                                  scratch.choice[:W])
        # step-major: start u fills a (T, X) block, and walk (u, i) reads
        # column i of it, so its step t is draw t * X + i of u's substream
        # and a pass at T' < T reads the first T' * X draws of a pass at T.
        # Step t multiplies through the (starts, X) view of every block.
        for j, (state, inc) in enumerate(zip(states[chunk], incs[chunk])):
            scratch.bits.state = {"bit_generator": "PCG64",
                                  "state": {"state": state, "inc": inc},
                                  "has_uint32": 0, "uinteger": 0}
            scratch.rng.random(out=uniforms[j])
        seq[0] = np.repeat(starts, X)
        scaled_by_start = scaled.reshape(starts.size, X)
        # mode="clip" keeps `take` from buffering its output; every index is
        # in range, so it clips nothing
        for t in range(T):
            np.take(degf, seq[t], out=scaled, mode="clip")
            np.multiply(scaled_by_start, uniforms[:, t], out=scaled_by_start)
            choice[...] = scaled  # truncates, as int(u * deg) does
            np.take(adj_indptr, seq[t], out=offset, mode="clip")
            np.add(offset, choice, out=offset)
            np.take(adj_flat, offset, out=seq[t + 1], mode="clip")

        def set_rows(cols, pos, outside=None):
            # the set's rows from the positions of its hit columns `cols`;
            # `outside` keeps the chunk's starts outside the set, when some
            # are in it
            start_hits = np.diff(np.searchsorted(cols, np.arange(0, W + 1, X)))
            order, sizes, entries, *counts = _hit_prefixes(
                pos, start_hits, size_dtype)
            # a column's walk number is its offset from its start's first
            walks = cols - np.repeat(np.arange(0, W, X), start_hits)
            if outside is not None:
                counts = [c.reshape(-1, T)[outside].ravel() for c in counts]
            return (walks.astype(walk_dtype).take(order), sizes, entries,
                    *(c.astype(d) for c, d in zip(counts, count_dtypes)))

        cols = np.flatnonzero(seq[T] == hit_node)
        rows = [set_rows(cols, first_lookup[seq.take(cols, axis=1)])]
        if lookups:
            levels = scratch.levels[:T * W].reshape(T, W)
            np.take(level, seq[1:], out=levels, mode="clip")
            least = np.minimum.reduce(levels, axis=0)
        for b, lookup in enumerate(lookups):
            outside = level[starts] > b
            cols = np.flatnonzero((least <= b) & np.repeat(outside, X))
            pos = lookup[seq.take(cols, axis=1)]
            # a walk under the larger set ends at its first step into it, so
            # its positions read the top value from there on: each row ORs
            # in the row above's top flag, 0 or 1 negated to 0 or top.  Row
            # 0 is a start outside the set.
            top = np.iinfo(pos.dtype).max
            above_top = np.empty_like(pos[0])
            for t in range(2, T + 1):
                np.equal(pos[t - 1], top, out=above_top, casting="unsafe")
                pos[t] |= np.negative(above_top, out=above_top)
            rows.append(set_rows(cols, pos, outside))
        return rows

    chunks = [slice(i, i + chunk_nodes)
              for i in range(0, candidates.size, chunk_nodes)]
    # Each set's five arrays are filled a chunk at a time, in chunk order, so
    # a chunk's rows live only until they are copied in.  An array is sized
    # for every chunk at the rows per chunk so far, grows in place (a
    # realloc; no view of it exists then) and is cut to its rows at the end.
    out, ends = [None] * (5 * len(rumors)), [0] * (5 * len(rumors))
    for k, rows in enumerate(_thread_map(run_chunk, chunks, threads)):
        for i, piece in enumerate([a for set_rows in rows for a in set_rows]):
            stop = ends[i] + piece.size
            if not k:
                out[i] = np.empty(stop * len(chunks), dtype=piece.dtype)
            elif stop > out[i].size:
                out[i].resize(max(stop * len(chunks) // (k + 1),
                                  out[i].size * 5 // 4), refcheck=False)
            out[i][ends[i]:stop] = piece
            ends[i] = stop
    for array, stop in zip(out, ends):
        array.resize(stop, refcheck=False)
    return [tuple(out[i:i + 5]) for i in range(0, len(out), 5)]


def _hit_rows_within(rows, pass_T: int, T: int):
    """One rumor set's rows from a walk pass at `pass_T`, cut to the walks
    that hit within T <= pass_T steps: (walk numbers, per-start hit counts,
    hit CSR).  A walk ends at its hit, so under T it hits iff its hit step
    is at most T, with the same prefix.  The pass lists each start's hit
    walks by hit step, so those are each start's first ones: the cut copies
    one range of walk numbers and prefix sizes and one of entries per start,
    in one loop over the starts read off the pass's per-(start, step)
    counts, so it holds no scratch the size of the walks or entries, and
    sums each start's counts of steps 1..T.  The CSR's offsets are summed
    here, in place, in `WalkIndex.offset_dtype`."""
    walks, sizes, cands, walk_counts, entry_counts = rows
    walk_counts = walk_counts.reshape(-1, pass_T)
    entry_counts = entry_counts.reshape(walk_counts.shape)
    # per start, its hit walks and entries in the pass and within T
    ranges = [c[:, :t].sum(axis=1, dtype=np.int64).tolist()
              for t in (pass_T, T) for c in (walk_counts, entry_counts)]
    indptr = np.zeros(sum(ranges[2]) + 1,
                      dtype=WalkIndex.offset_dtype(sum(ranges[3])))
    # the sizes are summed in the offsets' dtype, where a cumsum that
    # casts would copy them first
    if walk_counts[:, T:].any():
        pass_walks, pass_cands = walks, cands
        walks = np.empty(indptr.size - 1, dtype=walks.dtype)
        cands = np.empty(sum(ranges[3]), dtype=cands.dtype)
        w0 = e0 = w1 = e1 = 0  # the start's rows in the pass and in the cut
        for walk_total, entry_total, k, e in zip(*ranges):
            if k:
                walks[w1:w1 + k] = pass_walks[w0:w0 + k]
                indptr[1 + w1:1 + w1 + k] = sizes[w0:w0 + k]
                cands[e1:e1 + e] = pass_cands[e0:e0 + e]
                w1, e1 = w1 + k, e1 + e
            w0, e0 = w0 + walk_total, e0 + entry_total
    else:
        indptr[1:] = sizes
    np.cumsum(indptr[1:], out=indptr[1:])
    return (walks, walk_counts[:, :T].sum(axis=1, dtype=walk_counts.dtype),
            indptr, cands)


def _thread_map(fn, items, threads: int):
    """`fn(x) for x in items`, yielded in order, on `threads` worker threads
    when there are more than one; its one caller passes the walk pass's
    list of chunks.  Items are drawn at most `threads` ahead of the results
    taken, so a caller that copies each chunk's rows in as it takes them
    has a bounded number of chunks' rows live."""
    if threads == 1:
        yield from map(fn, items)
        return
    running = deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for x in items:
            running.append(pool.submit(fn, x))
            if len(running) > threads:
                yield running.popleft().result()
        while running:
            yield running.popleft().result()


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int, starts) -> np.ndarray:
    """Per start u, `SeedSequence(entropy=seed, spawn_key=(u,))
    .generate_state(4, np.uint64)`: a (len(starts), 4) uint64 array.

    numpy mixes the seed's uint32 words into a 4-word pool, then u, the last
    entropy word, so the pool before u is `SeedSequence(seed).pool`.  By then
    numpy has run 16 hashes, plus 4 per seed word beyond the pool's 4, each
    stepping the hash constant once; u's round continues from there, and it
    and the output hash are all that run over the starts.  `seed` must be
    non-negative and `starts` in [0, 2**32).
    """
    seed = int(seed)  # a NumPy integer has no bit_length
    words = max(1, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _MASK32
    starts = np.asarray(starts).astype(np.uint32)
    pool = []
    for word in np.random.SeedSequence(seed).pool[:, None]:
        value = starts ^ const  # hashmix(u)
        const = const * _MULT_A & _MASK32
        value = value * const
        value = word * _MIX_MULT_L - (value ^ value >> 16) * _MIX_MULT_R  # mix
        pool.append(value ^ value >> 16)

    const = _INIT_B
    out = np.empty((starts.size, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        out[:, i] = value ^ value >> 16
    return out.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_states(seed: int, starts):
    """Per start u, the (state, inc) of `PCG64(SeedSequence(entropy=seed,
    spawn_key=(u,)))`, as two object arrays of Python ints.

    PCG64 seeds from the words (s0, s1, q0, q1): inc = 2 (q0 q1) + 1, one LCG
    step from state 0, add (s0 s1), one more step.
    """
    words = _seed_words(seed, starts).astype(object)
    mask = (1 << 128) - 1
    inc = (words[:, 2] << 65 | words[:, 3] << 1 | 1) & mask
    state = ((inc + (words[:, 0] << 64 | words[:, 1])) * _PCG64_MULT + inc) & mask
    return state, inc


def _candidate_positions(n_nodes: int, rumor_set):
    """The non-rumor nodes in ascending order (int64), and the lookup from
    node id to position among them (int32, -1 for a rumor node)."""
    cand_pos = np.zeros(n_nodes, dtype=np.int32)
    cand_pos[list(rumor_set)] = -1
    candidates = np.flatnonzero(cand_pos == 0)
    cand_pos[candidates] = np.arange(candidates.size, dtype=np.int32)
    return candidates, cand_pos


def _hit_prefixes(pos, start_hits, size_dtype):
    """Each hit walk's prefix from its column of `pos`, a (T + 1, H) matrix
    of candidate positions in which every step from the hit on reads the
    dtype's top value: the column's distinct other positions, ascending.
    The columns are listed start by start, `start_hits[u]` of them for
    start u.  Returns the columns in the order (start, hit step, column),
    which is the order of a pass's rows; the prefix sizes (`size_dtype`)
    and the prefixes concatenated, in that order; and the number of hit
    walks and of prefix entries per (start, hit step), start-major (int64).

    Sorts `pos` in place with `_sorting_network`, two contiguous rows per
    comparator, where `ndarray.sort(axis=0)` would run H strided sorts of
    T + 1 entries.  The hit walks are put in row order by one stable radix
    argsort of a (start, step) key in the smallest unsigned dtype, applied
    by the one transposed copy that lays the columns end to end; the
    prefixes are then one `np.compress` of those entries by a 1-D mask
    computed on them, whose int64 index spans one chunk's prefixes."""
    for i, j in _sorting_network(pos.shape[0]):
        low = np.minimum(pos[i], pos[j])
        np.maximum(pos[i], pos[j], out=pos[j])
        pos[i] = low
    T, top = pos.shape[0] - 1, np.iinfo(pos.dtype).max
    keep = pos != top
    # (start, step) as start * T + step, from 1 to n_starts * T: rows
    # 0..s-1 precede the hit at step s
    n_keys = len(start_hits) * T
    key = np.repeat(np.arange(0, n_keys, T, dtype=np.min_scalar_type(n_keys)),
                    start_hits)
    key += keep.sum(axis=0, dtype=key.dtype)
    keep[1:] &= pos[1:] != pos[:-1]
    sizes = keep.sum(axis=0, dtype=size_dtype)
    order = np.argsort(key, kind="stable")
    # every sorted column starts below the top value and ends at it, so on
    # the columns laid end to end the mask needs no column boundary
    flat = np.take(pos.T, order, axis=0).ravel()
    kept = flat != top
    kept[1:] &= flat[1:] != flat[:-1]
    return (order, sizes[order], np.compress(kept, flat),
            np.bincount(key, minlength=n_keys + 1)[1:],
            np.bincount(key, sizes, minlength=n_keys + 1)[1:].astype(np.int64))


@lru_cache
def _sorting_network(m: int):
    """Batcher's odd-even merge sort on m rows: comparators (i, j), i < j, in
    the order they apply, each leaving the smaller value at i.  The network
    for the next power of two, less every comparator that reaches row m or
    beyond (rows there would hold the top value, which no comparator
    moves): O(m log^2 m) comparators, 16 for m = 7 and 32 for m = 10."""
    network = []
    p = 1
    while p < m:
        k = p
        while k:
            for j in range(k % p, m - k, 2 * k):
                for i in range(j, j + min(k, m - j - k)):
                    # within one merge of two sorted runs of p
                    if i // (2 * p) == (i + k) // (2 * p):
                        network.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(network)


def _csr_take(indptr, values, rows):
    """Gather a subset of CSR rows, preserving order, in O(rows + entries)."""
    lengths = indptr[rows + 1] - indptr[rows]
    out_indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)])
    flat = np.repeat(indptr[rows] - out_indptr[:-1], lengths)
    flat += np.arange(out_indptr[-1], dtype=np.int64)
    return out_indptr, values[flat]
