"""Protector selection: degree heuristic, greedy, and bound-driven search.

All four solvers run off one immutable store index and a per-run mutable
array of per-walk impression counts.  Gains are only ever scattered: a fresh
`_GainState` is one shared unit gain times each candidate's hit-walk mass plus
a scatter from the touched walks, and each add in `greedy_steps` (greedy, SAM,
PRO's fallback) scatters its walks' change, so gains stay exact.  The scatter
skips the walks whose unit gain did not change (an anchored envelope is linear
up to its tangent point), which leaves every gain bit-identical.  It is not
lazy: the true objective is not submodular, so cached gains can go stale upward.
A bound call reads only the set's walks: the state keeps the list of walks its
set touches, and L, B's anchor value and the gain refresh sum over that list,
since a walk of count 0 adds f(0) = 0 and the shared unit gain.  The two
per-walk count arrays are in the index's `count_dtype` (one byte below 256),
and every objective, L and single-candidate gain is a block-wise
`WalkIndex.weighted_sum`, never a BLAS dot product, so reports have the same
bits at any BLAS thread count.
Greedy uses true logistic gains.  The bound estimators greedily maximize the
anchored envelope, the least concave majorant of the logistic at integer
counts above each walk's anchor count (`EnvelopeTable.env`), which is
monotone and submodular.  Both bound a search node the same way
(`_SearchNode`): one subtree bound B, the anchor's true value plus the
k - |P'| largest initial envelope gains over the pool, and the branch node,
the first addable candidate of largest initial gain.  Only then does the
estimator's completion (greedy for SAM, threshold sweeps for PRO) run, whose
true value is L.  So bab and probab search one tree: branch and bound orders
its heap and prunes on B alone and splits on the branch node; the completion
only proposes incumbents, and runs only on the nodes the search pops.

B is sound: the subtree's true optimum is at most its envelope optimum, which
is at most B by the data-dependent bound for monotone submodular functions
(Leskovec et al., "Cost-effective Outbreak Detection in Networks", KDD 2007).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .blocking import EnvelopeTable, LogisticParams, estimate_objective
from .sampling import _csr_take, check_count

_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class SolverLimits:
    """Optional caps on branch-and-bound work; None means unlimited.  The
    expansion cap is a count >= 0, the wall-time cap positive seconds."""

    node_expansion_cap: int | None = None
    wall_time_cap: float | None = None

    def __post_init__(self):
        if self.node_expansion_cap is not None:
            check_count(self.node_expansion_cap, "node_expansion_cap", 0)
        # `not > 0` also rejects NaN, which no elapsed time ever exceeds
        cap = self.wall_time_cap
        if cap is not None and (isinstance(cap, bool) or not cap > 0):
            raise ValueError("wall_time_cap must be positive")


@dataclass(frozen=True)
class BoundResult:
    """A bound estimator's completed k-set with its true value L, the subtree
    bound B on every k-set that keeps the anchor and avoids the excluded
    nodes, and first_added, the branch node for the driver (None when the
    anchor already holds k nodes)."""

    completed_set: frozenset[int]
    lower: float
    upper: float
    first_added: int | None
    gain_evals: int


@dataclass(frozen=True)
class SolveReport:
    algorithm: str
    chosen_set: frozenset[int]
    objective: float
    blocking_percentage: float
    wall_time: float
    expansions: int = 0
    bound_calls: int = 0
    gain_evals: int = 0
    truncated: bool = False
    # best open bound over the objective at exit: 1.0 once the search closes,
    # None for topk and greedy
    bound_gap: float | None = None


def _check_k(k: int, n_candidates: int) -> None:
    if check_count(k, "k", 1) > n_candidates:
        raise ValueError(f"k={k} infeasible with {n_candidates} candidates")


def _check_rho(rho: float) -> None:
    if isinstance(rho, bool) or not rho > 0:  # also rejects NaN
        raise ValueError(f"rho must be > 0, got {rho}")


def _report(algo: str, store, chosen, obj: float, t0: float,
            **counters) -> SolveReport:
    mass = store.index.influenced_mass
    return SolveReport(algo, chosen, obj, obj / mass if mass > 0 else 0.0,
                       time.perf_counter() - t0, **counters)


def solve_topk(store, params: LogisticParams, k: int) -> SolveReport:
    """The k candidates of highest block degree, the number of hit walks
    whose prefix holds the candidate; ties to smaller id."""
    t0 = time.perf_counter()
    index = store.index
    _check_k(k, index.n_candidates)
    degree = np.diff(index.indptr)
    order = np.argsort(-degree, kind="stable")
    chosen = frozenset(int(v) for v in index.candidates[order[:k]])
    return _report("topk", store, chosen,
                   estimate_objective(store, params, chosen), t0)


def solve_greedy(store, params: LogisticParams, k: int) -> SolveReport:
    """k rounds of best-true-gain addition."""
    t0 = time.perf_counter()
    index = store.index
    _check_k(k, index.n_candidates)
    table = EnvelopeTable(params, index.max_count)
    state = _GainState(index, table.gain_table[None, :], frozenset(), k,
                       frozenset())
    state.greedy_steps(k)
    chosen = frozenset(int(v) for v in index.candidates[state.in_set])
    # the set's counts are the state's: the same sum as `estimate_objective`
    obj = index.weighted_sum(lambda w: table.f_table[state.counts[w]])
    return _report("greedy", store, chosen, obj, t0,
                   gain_evals=state.gain_evals)


class _GainState:
    """Greedy completion of an anchor set from the pool outside it and outside
    `excluded`.  gain_mat[a, c] is one walk's unit gain at anchor count a and
    current count c; gains[p], its weighted sum over candidate p's walks, is
    only ever scattered from the walks the set touches, and kept exact; an
    add scatters only the walks whose unit gain it changed.  The touched
    walks, those of count > 0, are kept as a list (`touched_walks`), and
    the refresh and the bound step's true values read only that list, so
    nothing but the two count arrays spans every hit walk."""

    def __init__(self, index, gain_mat, anchor_set, k, excluded):
        self.index = index
        # one flat `take` of anchor * width + count reads gain_mat[anchor, count]
        self._flat_gains = gain_mat.ravel()
        self._width = gain_mat.shape[1]
        self.anchor = frozenset(check_count(v, "node", 0) for v in anchor_set)
        if len(self.anchor) > k:
            raise ValueError(f"anchor of size {len(self.anchor)} exceeds k={k}")
        self.counts = np.zeros(index.n_hit_walks, dtype=index.count_dtype)
        self._touched: list[np.ndarray] = []
        self.in_set = np.zeros(index.n_candidates, dtype=bool)
        self.addable = np.ones(index.n_candidates, dtype=bool)
        for v in self.anchor:
            self.add(index.position(v))
        self.anchor_counts = self.counts.copy()
        for v in excluded:
            self.addable[index.position(v)] = False
        if len(self.anchor) + int(self.addable.sum()) < k:
            raise ValueError("anchor plus remaining pool cannot reach k nodes")
        self.gain_evals = 0
        self.refresh_gains()

    def _cells(self, walks, counts) -> np.ndarray:
        """Flat gain_mat positions anchor * width + count of `walks` at
        `counts`, in intp: a one-byte count would wrap."""
        return self.anchor_counts[walks].astype(np.intp) * self._width + counts

    def _unit_gains(self, walks) -> np.ndarray:
        return self._flat_gains.take(self._cells(walks, self.counts[walks]))

    def _scatter(self, walks, walk_vals) -> np.ndarray:
        """Sum per-walk values onto each walk's prefix candidates, in walk order."""
        indptr, cands = _csr_take(self.index.walk_indptr, self.index.walk_cands, walks)
        return np.bincount(cands, weights=np.repeat(walk_vals, np.diff(indptr)),
                           minlength=self.index.n_candidates)

    def touched_walks(self) -> np.ndarray:
        """The walks of count > 0, ascending.  Each add appends the walks it
        takes from 0 to 1, a subset of one ascending `walks_of` list, and
        several parts are merged by one sort."""
        if len(self._touched) != 1:
            self._touched = [np.sort(np.concatenate(
                [np.empty(0, dtype=np.int32), *self._touched]))]
        return self._touched[0]

    def refresh_gains(self) -> None:
        """Recompute every gain: untouched walks have counts (0, 0), so a gain is
        gain_mat[0, 0] times the hit-walk mass plus a touched-walk correction."""
        walks = self.touched_walks()
        base = self._flat_gains[0]
        correction = self.index.weights_of(walks) * (self._unit_gains(walks) - base)
        self.gains = base * self.index.hit_mass + self._scatter(walks, correction)

    def gain_of(self, pos: int) -> float:
        return self.index.weighted_sum(self._unit_gains, self.index.walks_of(pos))

    def add(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """Add candidate pos without updating `gains`; return its walks and
        their counts before the add."""
        self.in_set[pos] = True
        self.addable[pos] = False
        walks = self.index.walks_of(pos)
        prior = self.counts[walks]
        self.counts[walks] = prior + 1
        self._touched.append(walks[prior == 0])
        return walks, prior

    def greedy_steps(self, rounds: int) -> None:
        """Add the best addable candidate `rounds` times, keeping `gains` exact.

        Only walks whose unit gain changed are scattered.  `bincount` sums in
        input order from +0.0, and adding +0.0 never changes such a sum, so
        the gains equal those of a scatter over all the added node's walks."""
        for _ in range(rounds):
            self.gain_evals += int(self.addable.sum())
            pos = int(np.argmax(np.where(self.addable, self.gains, -np.inf)))
            walks, prior = self.add(pos)
            at = self._cells(walks, prior)
            delta = self._flat_gains.take(at + 1) - self._flat_gains.take(at)
            moved = np.flatnonzero(delta)
            walks = walks[moved]
            self.gains += self._scatter(
                walks, self.index.weights_of(walks) * delta[moved])

    def top_gains(self, m: int) -> float:
        """Sum of the m largest gains over the addable candidates."""
        if m == 0:
            return 0.0
        pool = self.gains[self.addable]
        return float(np.partition(pool, pool.size - m)[pool.size - m:].sum())


class _SearchNode:
    """A search node (P', E) with its gain state and subtree bound B: the
    anchor's true value (the envelope meets f there) plus the k - |P'|
    largest initial gains over the pool.  Building one is a visit's whole
    cost; `complete` is the rest of a bound call."""

    def __init__(self, store, params: LogisticParams, anchor_set, k: int, excluded):
        table = EnvelopeTable(params, store.index.max_count)
        self.f_table = table.f_table
        self.state = _GainState(store.index, table.env_gain, anchor_set, k, excluded)
        self.needed = k - len(self.state.anchor)
        self.upper = (self.true_value(self.state.anchor_counts)
                      + self.state.top_gains(self.needed))

    def true_value(self, counts) -> float:
        # over the set's walks only: every other walk adds f(0) = 0
        return self.state.index.weighted_sum(lambda w: self.f_table[counts[w]],
                                             self.state.touched_walks())

    def complete(self, fill) -> BoundResult:
        """The branch node (the first addable candidate of largest initial
        gain), then L, the true value of the set `fill(state, needed)` fills
        to k nodes."""
        state, index = self.state, self.state.index
        branch_node = None
        if self.needed:
            pos = int(np.argmax(np.where(state.addable, state.gains, -np.inf)))
            branch_node = int(index.candidates[pos])
            fill(state, self.needed)
        chosen = frozenset(int(v) for v in index.candidates[state.in_set])
        return BoundResult(chosen, self.true_value(state.counts), self.upper,
                           branch_node, state.gain_evals)


def sam_compute_bound(store, params: LogisticParams, anchor_set, k: int,
                      excluded=frozenset()) -> BoundResult:
    """Greedy envelope completion of the anchor to k nodes from the pool V',
    the candidates minus the anchor and the excluded nodes (`_SearchNode`)."""
    return _SearchNode(store, params, anchor_set, k, excluded).complete(
        _GainState.greedy_steps)


def _threshold_sweeps(state: _GainState, needed: int, rho: float) -> None:
    """PRO's completion: one initial gain scan of the pool, then sweeps that
    accept any node whose current gain clears a threshold h, lowering h by
    (1+rho) between sweeps.

    Sweeps stop early at the first node whose initial gain is below h, which
    is safe because anchored envelope gains only shrink.  The first node
    reached, the top one, is accepted on its initial gain, which is its
    current gain until the first add.  If h underflows its floor with slots
    still open, a plain greedy pass fills them.
    """
    init_gains = np.where(state.addable, state.gains, -np.inf)
    state.gain_evals += int(state.addable.sum())
    order = np.argsort(-init_gains, kind="stable")
    h = float(init_gains[order[0]])
    floor = max(1e-12, h * 1e-9)
    added = 0
    while added < needed and h >= floor:
        for pos in order:
            if added == needed:
                break
            pos = int(pos)
            if init_gains[pos] < h:
                break  # sorted by initial gain; the rest are below h too
            if not state.addable[pos]:
                continue
            if added:  # before the first add every gain is its initial gain
                state.gain_evals += 1
                if state.gain_of(pos) < h:
                    continue
            state.add(pos)
            added += 1
        h /= 1.0 + rho
    if added < needed:
        # the threshold adds above did not scatter their gain changes
        state.refresh_gains()
        state.greedy_steps(needed - added)


def pro_sam_compute_bound(store, params: LogisticParams, anchor_set, k: int,
                          rho: float, excluded=frozenset()) -> BoundResult:
    """Threshold-relaxed envelope completion (`_threshold_sweeps`) of the
    anchor to k nodes from the pool V'; B and the branch node as for SAM."""
    _check_rho(rho)
    return _SearchNode(store, params, anchor_set, k, excluded).complete(
        functools.partial(_threshold_sweeps, rho=rho))


def branch_and_bound(store, params: LogisticParams, k: int,
                     estimator: str = "sam", limits: SolverLimits | None = None,
                     rho: float = 0.1, incumbent: SolveReport | None = None
                     ) -> SolveReport:
    """Best-first search over include/exclude splits, pruned on the subtree
    bound B.

    A search node is a pair (P', E) of included and excluded nodes; its
    remaining pool V' is the candidates minus P' and E.  A visit computes
    only B, and each heap entry holds the pair and B.  The estimator's
    completion runs once per node, when it is popped: if it lifts the
    incumbent to the node's B, the node closes unexpanded, and else the node
    splits on the branch node u, the first candidate of largest initial
    envelope gain in V': (P' + u, E) and (P', E + u).  Both estimators give
    the same B and u, so "sam" and "pro" search one tree and differ only in
    the completions they propose as incumbents.  The
    incumbent is seeded with solve_greedy's set so the result never falls
    below greedy: `incumbent`, a greedy report for the same store, params
    and k, is taken as that seed, else solve_greedy runs here.  Either way
    the report counts the greedy's wall time and gain evaluations, and the
    wall-time cap counts its time.  Expansion or wall-time caps return the
    incumbent with truncated=True.  The report's objective is the
    incumbent's when the search keeps its set; a set the search found is
    counted once, by `estimate_objective`.
    """
    t0 = time.perf_counter()
    index = store.index
    _check_k(k, index.n_candidates)
    limits = limits or SolverLimits()
    if estimator not in ("sam", "pro"):
        raise ValueError(f"unknown bound estimator {estimator!r}")
    if estimator == "pro":
        _check_rho(rho)
    bound = (functools.partial(sam_compute_bound, store, params, k=k)
             if estimator == "sam" else
             functools.partial(pro_sam_compute_bound, store, params, k=k, rho=rho))

    if incumbent is None:
        incumbent = solve_greedy(store, params, k)
    else:
        if len(incumbent.chosen_set) != k:
            raise ValueError(f"incumbent holds {len(incumbent.chosen_set)} "
                             f"nodes, not k={k}")
        t0 -= incumbent.wall_time
    best_set, best_val = incumbent.chosen_set, incumbent.objective
    gain_evals = incumbent.gain_evals
    bound_calls = 0
    heap: list = []
    ticket = itertools.count()

    def offer(bres: BoundResult) -> None:
        nonlocal best_set, best_val, gain_evals
        gain_evals += bres.gain_evals
        if bres.lower > best_val:
            best_set, best_val = bres.completed_set, bres.lower

    def visit(partial, excluded):
        """Bound a search node and queue it if its bound may still beat the
        incumbent.  A node whose subtree holds one k-set, P' of k nodes or a
        pool of k - |P'|, is never queued: its completion, that set, is
        taken now."""
        nonlocal bound_calls
        bound_calls += 1
        if len(partial) == k or index.n_candidates - len(excluded) == k:
            offer(bound(partial, excluded=excluded))
            return
        upper = _SearchNode(store, params, partial, k, excluded).upper
        if upper > best_val + _PRUNE_SLACK:
            heapq.heappush(heap, (-upper, next(ticket), partial, excluded))

    visit(frozenset(), frozenset())
    expansions = 0
    truncated = False
    while heap:
        neg_upper, _, partial, excluded = heap[0]
        if -neg_upper <= best_val + _PRUNE_SLACK:
            break
        if (limits.node_expansion_cap is not None
                and expansions >= limits.node_expansion_cap):
            truncated = True
            break
        if (limits.wall_time_cap is not None
                and time.perf_counter() - t0 > limits.wall_time_cap):
            truncated = True
            break
        heapq.heappop(heap)
        # the node's gain state is rebuilt, not kept: one per open node
        # would hold two count arrays over every hit walk
        bres = bound(partial, excluded=excluded)
        offer(bres)
        if -neg_upper <= best_val + _PRUNE_SLACK:
            continue  # its completion reached its bound, the highest open one
        expansions += 1
        u = bres.first_added
        visit(partial | {u}, excluded)
        visit(partial, excluded | {u})

    # an open node has B above the incumbent, but the incumbent can be 0.0
    # where the logistic underflows at low counts: that gap is unbounded
    if not truncated:
        bound_gap = 1.0
    else:
        bound_gap = -heap[0][0] / best_val if best_val > 0 else math.inf
    # the incumbent's objective is counted over every walk; a completion's
    # L, over its touched walks only, may differ from that in its last bits
    obj = (incumbent.objective if best_set == incumbent.chosen_set
           else estimate_objective(store, params, best_set))
    return _report("bab" if estimator == "sam" else "probab", store, best_set,
                   obj, t0, expansions=expansions, bound_calls=bound_calls,
                   gain_evals=gain_evals, truncated=truncated, bound_gap=bound_gap)


def run_solver(algo: str, store, params: LogisticParams, k: int,
               rho: float = 0.1, limits: SolverLimits | None = None,
               incumbent: SolveReport | None = None) -> SolveReport:
    """Dispatch by the benchmark's algorithm names; bab and probab seed their
    search with `incumbent` when given (see `branch_and_bound`)."""
    if algo == "topk":
        return solve_topk(store, params, k)
    if algo == "greedy":
        return solve_greedy(store, params, k)
    if algo == "bab":
        return branch_and_bound(store, params, k, estimator="sam",
                                limits=limits, incumbent=incumbent)
    if algo == "probab":
        return branch_and_bound(store, params, k, estimator="pro",
                                limits=limits, rho=rho, incumbent=incumbent)
    raise ValueError(f"unknown algorithm {algo!r}")
