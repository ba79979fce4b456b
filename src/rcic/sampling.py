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
own seed substream, `SeedSequence(entropy=seed, spawn_key=(u,))`'s PCG64.
Every start's PCG64 state is computed up front in one vectorized pass
(`_pcg64_states`); each worker thread then sets it on its one reused
generator.

Walks are simulated a chunk of start nodes at a time, every walk of the
chunk in lockstep, on a copy of the graph with two absorbing sinks: HIT
(node n), which every arc into the rumor set leads to instead, and DEAD
(node n + 1), a dead end's only neighbour.  Each step is then the same few
full-width gathers for every walk, with no compaction, into the next row of
an int64 step matrix; a walk hit iff its last row reads HIT.  The step
matrix, the uniforms and the step temporaries are scratch buffers, allocated
once per worker thread per build.  Only the hit walks' columns are sorted and
deduplicated; their rows leave the kernel as candidate positions (int32) and
become the index's forward CSR as they are.

`build_sample_stores` plans the walk passes of a sequence of store keys
(rumor set, SampleConfig), such as a sweep's points: equal consecutive keys
share a store, and consecutive keys with one SampleConfig whose rumor sets
grow nested, R_1 ⊆ R_2 ⊆ ... (the |R| sweep), share one pass: under R_b
walk (u, i) is walk (u, i) under R_1 cut at its first node in R_b, so each
larger set's hit flags and prefixes follow from the same step matrix, and
the walks from starts in R_b are dropped.  `build_sample_store` is its
one-key case.  Each store, and so its index, is built only when the caller
asks for it.

The inverted index is placed one block of whole hit walks at a time: each
block's entries are ordered by a stable radix order over 16-bit digits
(`_stable_order`) and written behind the entries of earlier blocks, which
gives the permutation of one stable sort over every entry while no scratch
array spans more than a block.  Blocks fill disjoint slots, so they are
placed on the build's worker threads.  `hit_mass` is summed over the same
blocks.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph

_CHUNK_NODES = 128
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
    check_count(candidates, "candidates", 1)
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
    `_BLOCK_ENTRIES` entries of whole walks at a time, on `threads` worker
    threads, so the build needs no scratch array that spans every entry.

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
                 walk_weights, threads: int = 1):
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
        # over every entry would convert all of them to int64.)  Blocks write
        # disjoint slots, so the second pass places them on `threads` worker
        # threads; this thread computes each block's slot base, at most
        # `threads` blocks ahead of the placed ones.
        blocks = self._walk_blocks()

        def keys_of(w0, w1):
            return self.walk_cands[self.walk_indptr[w0]:self.walk_indptr[w1]]

        per_cand = np.zeros(n_cand, dtype=np.int64)
        for w0, w1 in blocks:
            per_cand += np.bincount(keys_of(w0, w1), minlength=n_cand)
        self.indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(per_cand, dtype=np.int64)])
        self.walk_ids = np.empty(self.walk_cands.size, dtype=np.int32)

        def place(job):
            """Write one block's walk ids; return its longest prefix."""
            w0, w1, base = job
            lengths = np.diff(self.walk_indptr[w0:w1 + 1])
            keys = keys_of(w0, w1)
            order = _stable_order(keys)
            slots = base[keys[order]] + np.arange(order.size)
            self.walk_ids[slots] = np.repeat(
                np.arange(w0, w1, dtype=np.int32), lengths)[order]
            return int(lengths.max())

        def jobs():
            filled = self.indptr[:-1].copy()
            for w0, w1 in blocks:
                counts = np.bincount(keys_of(w0, w1), minlength=n_cand)
                # slot of the block's i-th entry in key order: its candidate's
                # first free slot plus i minus the block's entries of smaller
                # keys
                yield w0, w1, filled - (np.cumsum(counts) - counts)
                filled += counts

        self.max_count = max(_thread_map(place, jobs(), threads), default=0)
        self.influenced_mass = float(self.walk_weights.sum())

    def _walk_blocks(self):
        """(w0, w1) ranges of whole hit walks of about `_BLOCK_ENTRIES`
        entries each, in walk order."""
        bounds = [0, *np.searchsorted(self.walk_indptr, np.arange(
            _BLOCK_ENTRIES, self.walk_cands.size, _BLOCK_ENTRIES)),
                  self.walk_weights.size]
        return [(w0, w1) for w0, w1 in zip(bounds, bounds[1:]) if w0 < w1]

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
        """Per candidate position, the weight of its hit walks; built on first use.

        Summed a block of whole walks at a time, so no scratch array spans
        every entry.  `np.add.at` adds in input order, as `np.bincount` does,
        so every candidate's sum is the same as one bincount's."""
        mass = np.zeros(self.n_candidates, dtype=np.float64)
        for w0, w1 in self._walk_blocks():
            entries = slice(self.walk_indptr[w0], self.walk_indptr[w1])
            np.add.at(mass, self.walk_cands[entries], np.repeat(
                self.walk_weights[w0:w1], np.diff(self.walk_indptr[w0:w1 + 1])))
        return mass

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
                 hit_cands: np.ndarray, threads: int = 1):
        self.config = config
        self.n_nodes = int(n_nodes)
        self.rumor_set = frozenset(int(r) for r in rumor_set)
        self.hit_flags = hit_flags

        weights = np.full(hit_indptr.size - 1, 1.0 / config.X, dtype=np.float64)
        self.index = WalkIndex(n_nodes, self.rumor_set, hit_indptr, hit_cands,
                               weights, threads)
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
    builds produce exactly the same store as a serial one.  This is the
    one-key case of `build_sample_stores`.
    """
    return next(build_sample_stores(g, [(rumor_set, cfg)], threads))


def build_sample_stores(g: Graph, keys, threads: int = 1):
    """One store per (rumor set, SampleConfig) key, in order, each equal byte
    for byte to `build_sample_store` on that key alone.

    A key equal to the one before it gets the same store object.
    Consecutive keys with one SampleConfig whose sets grow nested, R_1 ⊆ R_2
    ⊆ ..., share one walk pass over their distinct sets, stepped under R_1;
    any other step starts a new pass.  A pass runs when its first store is
    asked for, and a store's index is built when it is yielded, after the
    iterator drops the last store: a caller that drops each store before
    asking for the next holds one index at a time.  The rumor sets and
    `threads` are checked at the call.
    """
    check_count(threads, "threads", 1)
    keys = [(frozenset(int(r) for r in rumor), cfg) for rumor, cfg in keys]
    if not keys:
        raise ValueError("no store keys given")
    for rumor, _ in keys:
        if not rumor:
            raise ValueError("rumor set is empty")
        if min(rumor) < 0 or max(rumor) >= g.n:
            raise ValueError(f"rumor set holds a node outside [0, {g.n})")
        if len(rumor) == g.n:
            raise ValueError("rumor set covers every node; nothing to sample")
    return _yield_stores(g, keys, threads)


def _yield_stores(g: Graph, keys, threads: int):
    store, pending = None, deque()
    for i, (rumor, cfg) in enumerate(keys):
        if i and keys[i - 1] == (rumor, cfg):
            yield store
            continue
        store = None  # the last store is not kept while the next is built
        if not pending:  # one pass serves the run of nested sets from here
            run = [rumor]
            for later, later_cfg in keys[i + 1:]:
                if later_cfg != cfg or not run[-1] <= later:
                    break
                if later != run[-1]:
                    run.append(later)
            pending = deque(_sample_hit_rows(g, run, cfg, threads))
        store = SampleStore(cfg, g.n, rumor, *pending.popleft(), threads=threads)
        yield store


def _sample_hit_rows(g: Graph, rumors, cfg: SampleConfig, threads: int):
    """One walk pass under rumors[0]; per set, its hit flags and hit CSR.

    The walks step on a copy of the graph with two absorbing sinks, HIT = n
    and DEAD = n + 1, each its own only neighbour: an arc into rumors[0]
    leads to HIT instead, and a dead end's only arc leads to DEAD.  So every
    step of every walk is the same few full-width gathers, and row t of the
    (T + 1, W) step matrix holds each walk's node after t steps.
    """
    n, T, X = g.n, cfg.T, cfg.X
    hit_node, dead_node = n, n + 1
    degs = np.array(g.degrees(), dtype=np.int64)
    adj_flat = np.fromiter((v for u in range(n) for v in g.neighbors(u)),
                           dtype=np.int64, count=int(degs.sum()))
    in_first = np.zeros(n, dtype=bool)
    in_first[list(rumors[0])] = True
    adj_flat[in_first[adj_flat]] = hit_node
    dead_ends = np.flatnonzero(degs == 0)  # each one's empty row gets DEAD
    adj_flat = np.concatenate([
        np.insert(adj_flat, np.cumsum(degs)[dead_ends], dead_node),
        [hit_node, dead_node]])
    walk_degs = np.concatenate([np.maximum(degs, 1), [1, 1]])
    adj_indptr = np.zeros(n + 3, dtype=np.int64)
    np.cumsum(walk_degs, out=adj_indptr[1:])
    degf = walk_degs.astype(np.float64)

    # per larger set: membership over the walk graph's nodes (HIT included,
    # since it stands for rumors[0]) and each node's candidate position
    cuts = []
    for rumor in rumors[1:]:
        inside = np.zeros(n + 2, dtype=bool)
        inside[list(rumor)] = True
        inside[hit_node] = True
        cuts.append((inside, _candidate_positions(n, rumor)[1]))
    candidates, first_pos = _candidate_positions(n, rumors[0])
    states, incs = _pcg64_states(cfg.seed, candidates)
    scratch = threading.local()

    def run_chunk(chunk):
        starts = candidates[chunk]
        W = starts.size * X
        if not hasattr(scratch, "seq"):  # this worker's first chunk
            scratch.bits = np.random.PCG64(0)
            scratch.rng = np.random.Generator(scratch.bits)
            width = _CHUNK_NODES * X
            scratch.seq = np.empty((T + 1) * width, dtype=np.int64)
            scratch.uniforms = np.empty(T * width, dtype=np.float64)
            scratch.block = np.empty((X, T), dtype=np.float64)
            scratch.scaled = np.empty(width, dtype=np.float64)
            scratch.offset = np.empty(width, dtype=np.int64)
            scratch.choice = np.empty(width, dtype=np.int64)
            scratch.cut = np.empty(T * width, dtype=bool) if cuts else None
        seq = scratch.seq[:(T + 1) * W].reshape(T + 1, W)
        uniforms = scratch.uniforms[:T * W].reshape(T, W)
        scaled, offset, choice = (scratch.scaled[:W], scratch.offset[:W],
                                  scratch.choice[:W])
        # walk (u, i) reads row i of start u's (X, T) block, one value a step
        for j, (state, inc) in enumerate(zip(states[chunk], incs[chunk])):
            scratch.bits.state = {"bit_generator": "PCG64",
                                  "state": {"state": state, "inc": inc},
                                  "has_uint32": 0, "uinteger": 0}
            scratch.rng.random(out=scratch.block)
            uniforms[:, j * X:(j + 1) * X] = scratch.block.T
        seq[0] = np.repeat(starts, X)
        # mode="clip" keeps `take` from buffering its output; every index is
        # in range, so it clips nothing
        for t in range(T):
            np.take(degf, seq[t], out=scaled, mode="clip")
            np.multiply(scaled, uniforms[t], out=scaled)
            choice[...] = scaled  # truncates, as int(u * deg) does
            np.take(adj_indptr, seq[t], out=offset, mode="clip")
            np.add(offset, choice, out=offset)
            np.take(adj_flat, offset, out=seq[t + 1], mode="clip")

        hit = seq[T] == hit_node
        steps = seq.take(np.flatnonzero(hit), axis=1)
        rows = [(hit, *_hit_prefixes(steps, hit_node, first_pos))]
        for inside, cand_pos in cuts:
            # a walk under the larger set ends at its first step into it
            reached = scratch.cut[:T * W].reshape(T, W)
            np.take(inside, seq[1:], out=reached, mode="clip")
            # row by row: `logical_or.accumulate` along axis 0 walks the
            # (T, W) matrix a column at a time, ~100x slower
            for t in range(1, T):
                np.logical_or(reached[t - 1], reached[t], out=reached[t])
            kept = np.repeat(~inside[starts], X)
            hit = reached[-1] & kept
            cols = np.flatnonzero(hit)
            steps = seq.take(cols, axis=1)
            np.copyto(steps[1:], hit_node, where=reached.take(cols, axis=1))
            rows.append((hit[kept], *_hit_prefixes(steps, hit_node, cand_pos)))
        return rows

    chunks = [slice(i, i + _CHUNK_NODES)
              for i in range(0, candidates.size, _CHUNK_NODES)]
    results = _thread_map(run_chunk, chunks, threads)
    del scratch  # frees this thread's buffers before the rows are joined

    per_set = []
    for s in range(len(rumors)):
        hit_flags = np.concatenate([r[s][0] for r in results])
        hit_lengths = np.concatenate([r[s][1] for r in results])
        hit_cands = np.concatenate([r[s][2] for r in results])
        for r in results:  # each chunk's rows live on only in the concatenation
            r[s] = None
        hit_indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(hit_lengths, dtype=np.int64)])
        per_set.append((hit_flags, hit_indptr, hit_cands))
    return per_set


def _thread_map(fn, items, threads: int) -> list:
    """`[fn(x) for x in items]`, on `threads` worker threads when there are
    more than one.  Items are drawn from `items` at most `threads` ahead of
    the results, so a generator of large items has a bounded number live."""
    if threads == 1:
        return [fn(x) for x in items]
    results, running = [], deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for x in items:
            running.append(pool.submit(fn, x))
            if len(running) > threads:
                results.append(running.popleft().result())
        results.extend(f.result() for f in running)
    return results


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

    numpy's algorithm on uint32 words: the seed's little-endian words, padded
    with zeros to at least the 4-word pool, then u.  u is mixed in last, so
    every round before it runs once, on one-element arrays, and only u's
    round and the output hash run over all starts.  `seed` must be
    non-negative and `starts` in [0, 2**32).
    """
    entropy = []
    while True:
        entropy.append(np.array([seed & _MASK32], dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy += [np.zeros(1, dtype=np.uint32)] * (4 - len(entropy))
    entropy.append(np.asarray(starts).astype(np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    const = _INIT_B
    out = np.empty((entropy[-1].size, 8), dtype=np.uint32)
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
    candidates = np.array(sorted(set(range(n_nodes)) - set(rumor_set)),
                          dtype=np.int64)
    cand_pos = np.full(n_nodes, -1, dtype=np.int32)
    cand_pos[candidates] = np.arange(candidates.size, dtype=np.int32)
    return candidates, cand_pos


def _hit_prefixes(steps, hit_node, cand_pos):
    """Each hit walk's prefix from its column of `steps`, in which every step
    from the hit on reads `hit_node`: the column's distinct other nodes,
    ascending, as int32 candidate positions through `cand_pos`.  Returns the
    prefix sizes (int32) and the prefixes concatenated in column order.
    Sorts `steps` in place."""
    steps.sort(axis=0)
    keep = steps != hit_node
    keep[1:] &= steps[1:] != steps[:-1]
    return keep.sum(axis=0, dtype=np.int32), cand_pos[steps.T[keep.T]]


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
