"""Protector selection: degree heuristic, greedy, and bound-driven search.

All four solvers run off one immutable store index and a per-run mutable
array of per-walk impression counts.  Greedy uses true logistic gains (no
lazy evaluation: the true objective is not submodular, so cached gains can
go stale upward).  The bound estimators greedily maximize the anchored
envelope, the least concave majorant of the logistic at integer counts above
each walk's anchor count (`EnvelopeTable.env`), which is submodular, and
return both the completed set's true value L and its envelope value U;
branch and bound orders its heap by U.

U is the envelope value of a greedy envelope maximizer, not the envelope
optimum, so pruning on it mirrors the source algorithm but is only heuristic.
The certified option divides U by the greedy factor (1 - 1/e - eps, minus
rho for the progressive estimator), which restores a sound bound at the cost
of weaker pruning.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .blocking import EnvelopeTable, LogisticParams, estimate_objective

_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class SolverLimits:
    """Optional caps on branch-and-bound work; None means unlimited."""

    node_expansion_cap: int | None = None
    wall_time_cap: float | None = None

    def __post_init__(self):
        if self.node_expansion_cap is not None and self.node_expansion_cap < 0:
            raise ValueError("node_expansion_cap must be >= 0")
        if self.wall_time_cap is not None and self.wall_time_cap <= 0:
            raise ValueError("wall_time_cap must be positive")


@dataclass(frozen=True)
class BoundResult:
    """A bound estimator's completed k-set with its true lower value L and
    envelope upper value U; first_added is the branch node for the driver."""

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


def _check_k(index, k: int) -> None:
    if not 1 <= k <= index.n_candidates:
        raise ValueError(f"k={k} infeasible with {index.n_candidates} candidates")


def _blocking_fraction(store, objective: float) -> float:
    mass = store.index.influenced_mass
    return objective / mass if mass > 0 else 0.0


def _entry_gain_sum(index, walk_gain: np.ndarray) -> np.ndarray:
    """Per-candidate sum of weight * unit-gain over the walks that contain it."""
    vals = index.entry_weights * walk_gain[index.walk_ids]
    return np.bincount(index.cand_of_entry, weights=vals,
                       minlength=index.n_candidates)


def _walks_of(index, pos: int) -> np.ndarray:
    return index.walk_ids[index.indptr[pos]:index.indptr[pos + 1]]


def solve_topk(store, params: LogisticParams, k: int) -> SolveReport:
    """The k candidates of highest block degree; ties to smaller id."""
    t0 = time.perf_counter()
    index = store.index
    _check_k(index, k)
    degree = np.diff(index.indptr)
    order = np.lexsort((index.candidates, -degree))
    chosen = frozenset(int(v) for v in index.candidates[order[:k]])
    obj = estimate_objective(store, params, chosen)
    return SolveReport("topk", chosen, obj, _blocking_fraction(store, obj),
                       time.perf_counter() - t0)


def solve_greedy(store, params: LogisticParams, k: int) -> SolveReport:
    """k rounds of best-true-gain addition with full rescans each round."""
    t0 = time.perf_counter()
    index = store.index
    _check_k(index, k)
    table = EnvelopeTable(params, index.max_count)
    # padded so fully-covered walks index a zero gain instead of overflowing
    gain_of_count = np.append(table.gain_table, 0.0)
    counts = np.zeros(index.n_hit_walks, dtype=np.int32)
    in_set = np.zeros(index.n_candidates, dtype=bool)
    gain_evals = 0
    for it in range(k):
        gains = _entry_gain_sum(index, gain_of_count[counts])
        gains[in_set] = -np.inf
        best = int(np.argmax(gains))
        in_set[best] = True
        counts[_walks_of(index, best)] += 1
        gain_evals += index.n_candidates - it
    chosen = frozenset(int(v) for v in index.candidates[in_set])
    obj = estimate_objective(store, params, chosen)
    return SolveReport("greedy", chosen, obj, _blocking_fraction(store, obj),
                       time.perf_counter() - t0, gain_evals=gain_evals)


class _EnvelopeState:
    """Shared setup for one bound call: anchor counts, current counts and
    masks; envelope values and gains are read from the table's matrices,
    indexed [anchor_count, current_count]."""

    def __init__(self, store, params, anchor_set, k, allowed, table):
        self.index = index = store.index
        self.anchor = frozenset(int(v) for v in anchor_set)
        if len(self.anchor) > k:
            raise ValueError(f"anchor of size {len(self.anchor)} exceeds k={k}")
        self.k = k
        self.table = table if table is not None else EnvelopeTable(
            params, index.max_count)
        self.anchor_counts = index.counts_for(self.anchor)
        self.counts = self.anchor_counts.copy()
        self.in_set = np.zeros(index.n_candidates, dtype=bool)
        for v in self.anchor:
            self.in_set[index.position(v)] = True
        if allowed is None:
            self.addable = ~self.in_set
        else:
            self.addable = np.zeros(index.n_candidates, dtype=bool)
            for v in allowed:
                self.addable[index.position(v)] = True
            self.addable &= ~self.in_set
        if len(self.anchor) + int(self.addable.sum()) < k:
            raise ValueError("anchor plus allowed pool cannot reach k nodes")
        self.first_added: int | None = None
        self.gain_evals = 0

    def walk_gains(self) -> np.ndarray:
        return self.table.env_gain[self.anchor_counts, self.counts]

    def gain_of(self, pos: int) -> float:
        walks = _walks_of(self.index, pos)
        return float(np.dot(self.index.walk_weights[walks],
                            self.table.env_gain[self.anchor_counts[walks],
                                                self.counts[walks]]))

    def add(self, pos: int) -> None:
        self.in_set[pos] = True
        self.addable[pos] = False
        self.counts[_walks_of(self.index, pos)] += 1
        if self.first_added is None:
            self.first_added = int(self.index.candidates[pos])

    def greedy_steps(self, rounds: int) -> None:
        for _ in range(rounds):
            gains = _entry_gain_sum(self.index, self.walk_gains())
            gains[~self.addable] = -np.inf
            self.gain_evals += int(self.addable.sum())
            self.add(int(np.argmax(gains)))

    def result(self) -> BoundResult:
        index = self.index
        chosen = frozenset(int(v) for v in index.candidates[self.in_set])
        lower = float(np.dot(index.walk_weights, self.table.f_table[self.counts]))
        upper = float(np.dot(index.walk_weights,
                             self.table.env[self.anchor_counts, self.counts]))
        return BoundResult(chosen, lower, upper, self.first_added, self.gain_evals)


def sam_compute_bound(store, params: LogisticParams, anchor_set, k: int,
                      allowed=None, table: EnvelopeTable | None = None
                      ) -> BoundResult:
    """Greedy envelope completion of the anchor to k nodes.

    Returns the completed set with L = its true value and U = its envelope
    value anchored at anchor_set.  `allowed` restricts which nodes may be
    added (the branch driver's remaining pool); None means all candidates.
    """
    state = _EnvelopeState(store, params, anchor_set, k, allowed, table)
    state.greedy_steps(k - len(state.anchor))
    return state.result()


def pro_sam_compute_bound(store, params: LogisticParams, anchor_set, k: int,
                          rho: float, allowed=None,
                          table: EnvelopeTable | None = None) -> BoundResult:
    """Threshold-relaxed envelope completion: one initial gain scan, then
    sweeps that accept any node whose current gain clears a threshold h,
    lowering h by (1+rho) between sweeps.

    Sweeps stop early at the first node whose initial gain is below h, which
    is safe because anchored envelope gains only shrink.  If h underflows its
    floor with slots still open, a plain greedy pass fills them.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    state = _EnvelopeState(store, params, anchor_set, k, allowed, table)
    needed = state.k - len(state.anchor)
    if needed == 0:
        return state.result()

    init_gains = _entry_gain_sum(state.index, state.walk_gains())
    init_gains[~state.addable] = -np.inf
    state.gain_evals += int(state.addable.sum())
    order = np.argsort(-init_gains, kind="stable")
    h0 = float(init_gains[order[0]])
    floor = max(1e-12, h0 * 1e-9)
    h = h0
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
            state.gain_evals += 1
            if state.gain_of(pos) >= h:
                state.add(pos)
                added += 1
        h /= 1.0 + rho
    if added < needed:
        state.greedy_steps(needed - added)
    return state.result()


def branch_and_bound(store, params: LogisticParams, k: int,
                     estimator: str = "sam", limits: SolverLimits | None = None,
                     rho: float = 0.1, certified: bool = False,
                     epsilon: float = 0.0) -> SolveReport:
    """Best-first search over include/exclude splits, bounded by envelope
    completions.

    Each heap entry holds a partial set P', its remaining pool V', and the
    bound computed for that pair; branching removes the estimator's first
    added node from the pool.  The incumbent is seeded with solve_greedy's
    set so the result never falls below greedy.  Expansion or wall-time caps
    return the incumbent with truncated=True.
    """
    t0 = time.perf_counter()
    index = store.index
    _check_k(index, k)
    if limits is None:
        limits = SolverLimits()
    table = EnvelopeTable(params, index.max_count)

    if estimator == "sam":
        algo = "bab"
        factor = 1.0 - 1.0 / math.e - epsilon

        def bound(anchor, pool):
            return sam_compute_bound(store, params, anchor, k,
                                     allowed=pool, table=table)
    elif estimator == "pro":
        algo = "probab"
        factor = 1.0 - 1.0 / math.e - epsilon - rho

        def bound(anchor, pool):
            return pro_sam_compute_bound(store, params, anchor, k, rho,
                                         allowed=pool, table=table)
    else:
        raise ValueError(f"unknown bound estimator {estimator!r}")
    if certified and factor <= 0:
        raise ValueError("certified bound factor is not positive; "
                         "lower epsilon or rho")

    def adjusted(upper: float) -> float:
        return upper / factor if certified else upper

    greedy = solve_greedy(store, params, k)
    best_set, best_val = greedy.chosen_set, greedy.objective
    gain_evals = greedy.gain_evals

    all_cands = frozenset(int(v) for v in index.candidates)
    root = bound(frozenset(), all_cands)
    bound_calls = 1
    gain_evals += root.gain_evals
    if root.lower > best_val:
        best_set, best_val = root.completed_set, root.lower

    heap: list = []
    ticket = itertools.count()

    def try_push(partial, pool, bres):
        if (adjusted(bres.upper) > best_val + _PRUNE_SLACK
                and len(partial) < k and len(partial) + len(pool) > k):
            heapq.heappush(heap, (-adjusted(bres.upper), next(ticket),
                                  partial, pool, bres))

    try_push(frozenset(), all_cands, root)
    expansions = 0
    truncated = False
    while heap:
        neg_upper, _, partial, pool, bres = heap[0]
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
        expansions += 1
        u = bres.first_added
        rest = pool - {u}
        for child in (partial | {u}, partial):
            if len(child) + len(rest) < k:
                continue
            cb = bound(child, rest)
            bound_calls += 1
            gain_evals += cb.gain_evals
            if cb.lower > best_val:
                best_set, best_val = cb.completed_set, cb.lower
            try_push(child, rest, cb)

    return SolveReport(algo, best_set, best_val,
                       _blocking_fraction(store, best_val),
                       time.perf_counter() - t0, expansions=expansions,
                       bound_calls=bound_calls, gain_evals=gain_evals,
                       truncated=truncated)


def run_solver(algo: str, store, params: LogisticParams, k: int,
               rho: float = 0.1, limits: SolverLimits | None = None,
               certified: bool = False, epsilon: float = 0.0) -> SolveReport:
    """Dispatch by the benchmark's algorithm names."""
    if algo == "topk":
        return solve_topk(store, params, k)
    if algo == "greedy":
        return solve_greedy(store, params, k)
    if algo == "bab":
        return branch_and_bound(store, params, k, estimator="sam",
                                limits=limits, certified=certified,
                                epsilon=epsilon)
    if algo == "probab":
        return branch_and_bound(store, params, k, estimator="pro",
                                limits=limits, rho=rho, certified=certified,
                                epsilon=epsilon)
    raise ValueError(f"unknown algorithm {algo!r}")
