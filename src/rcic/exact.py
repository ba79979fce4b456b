"""Brute-force ground truth for small instances.

Everything here trades scale for certainty: walks are enumerated as a tree of
realizations with exact probabilities instead of being sampled, optima come
from exhaustive subset search, and the structural claims behind the solvers
(the true objective is not submodular, the anchored envelope is, and it
dominates) are checked by randomized search rather than trusted.

exact_objective and exhaustive_optimum deliberately avoid the production
estimator stack: they work off the raw realization list with the logistic
written out inline, so agreement with estimate_objective is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blocking import LogisticParams, estimate_envelope_objective
from .graph import Graph
from .sampling import WalkIndex, _candidate_positions, check_count
from .solvers import _check_k
from .synth import gnp_graph

_ENUMERATION_LIMIT = 10_000_000
_COMBINATION_LIMIT = 1_000_000


@dataclass(frozen=True)
class Realization:
    """One aggregated walk outcome: all paths from `start` sharing a hit flag
    and a visited-prefix set, with their total probability."""

    start: int
    hit: bool
    prefix: frozenset[int]
    probability: float


def enumerate_realizations(g: Graph, rumor_set, T: int,
                           limit: int = _ENUMERATION_LIMIT) -> list[Realization]:
    """Every walk realization of length <= T from every non-rumor start.

    Realizations with the same (start, hit, prefix) are merged; per start the
    probabilities sum to 1.  Depth-first expansion, no memoization (prefixes
    matter), guarded by `limit` edge expansions.  T is a count >= 1.
    """
    check_count(T, "T", 1)
    check_count(limit, "limit", 0)
    rumor = frozenset(int(r) for r in rumor_set)
    for r in rumor:
        if not 0 <= r < g.n:
            raise ValueError(f"rumor node {r} out of range")
    starts = sorted(set(range(g.n)) - rumor)
    if not starts:
        raise ValueError("rumor set covers every node")
    agg: dict[tuple[int, bool, frozenset[int]], float] = {}
    expansions = 0
    for u in starts:
        stack = [(u, 0, frozenset((u,)), 1.0)]
        while stack:
            node, depth, prefix, prob = stack.pop()
            nbrs = g.neighbors(node)
            if depth == T or not nbrs:
                key = (u, False, prefix)
                agg[key] = agg.get(key, 0.0) + prob
                continue
            p = prob / len(nbrs)
            for nxt in nbrs:
                expansions += 1
                if expansions > limit:
                    raise ValueError(
                        f"enumeration budget of {limit} expansions exceeded")
                if nxt in rumor:
                    key = (u, True, prefix)
                    agg[key] = agg.get(key, 0.0) + p
                else:
                    stack.append((nxt, depth + 1, prefix | {nxt}, p))
    return [Realization(s, h, pre, agg[(s, h, pre)])
            for s, h, pre in sorted(agg, key=lambda k: (k[0], k[1], sorted(k[2])))]


def exact_objective(g: Graph, params: LogisticParams, rumor_set, P, T: int,
                    realizations: list[Realization] | None = None) -> float:
    """Exact expectation of the blocked influence of P; the reference value.

    Pass `realizations` to amortize enumeration across many evaluations.
    """
    rumor = frozenset(int(r) for r in rumor_set)
    prot = frozenset(int(v) for v in P)
    if prot & rumor:
        raise ValueError("protector set overlaps the rumor set")
    for v in prot:
        if not 0 <= v < g.n:
            raise ValueError(f"protector node {v} out of range")
    if realizations is None:
        realizations = enumerate_realizations(g, rumor, T)
    total = 0.0
    for r in realizations:
        if not r.hit:
            continue
        c = len(r.prefix & prot)
        if c > 0:
            try:
                total += r.probability / (1.0 + math.exp(params.alpha - params.beta * c))
            except OverflowError:  # exp(z) above the float range: the term is 0.0
                pass
    return total


def exact_hit_probabilities(g: Graph, rumor_set, T: int,
                            realizations: list[Realization] | None = None
                            ) -> dict[int, float]:
    """Per start node, the probability that a walk reaches the rumor set."""
    if realizations is None:
        realizations = enumerate_realizations(g, rumor_set, T)
    probs: dict[int, float] = {}
    for r in realizations:
        probs.setdefault(r.start, 0.0)
        if r.hit:
            probs[r.start] += r.probability
    return probs


def exhaustive_optimum(g: Graph, params: LogisticParams, rumor_set, k: int,
                       T: int) -> tuple[frozenset[int], float]:
    """Best k-subset by exact objective; ties go to the lexicographically
    smallest set.  Guarded: C(candidates, k) must stay within 10^6."""
    rumor = frozenset(int(r) for r in rumor_set)
    candidates = sorted(set(range(g.n)) - rumor)
    _check_k(k, len(candidates))
    n_subsets = math.comb(len(candidates), k)
    if n_subsets > _COMBINATION_LIMIT:
        raise ValueError(
            f"{n_subsets} subsets exceed the exhaustive budget {_COMBINATION_LIMIT}")
    realizations = enumerate_realizations(g, rumor, T)
    best_set: tuple[int, ...] = ()
    best_val = -1.0
    for subset in itertools.combinations(candidates, k):
        val = exact_objective(g, params, rumor, subset, T, realizations)
        if val > best_val + 1e-15:
            best_set, best_val = subset, val
    return frozenset(best_set), best_val


class ExactStore:
    """Sample-store stand-in whose walks are exact realizations.

    Quacks like SampleStore where solvers care (the .index attribute): hit
    realizations become index entries weighted by probability instead of 1/X,
    so every estimator downstream computes exact expectations.
    """

    def __init__(self, g: Graph, rumor_set, T: int):
        self.n_nodes = g.n
        self.rumor_set = frozenset(int(r) for r in rumor_set)
        self.T = T
        self.realizations = enumerate_realizations(g, self.rumor_set, T)

        per_start: dict[int, float] = {}
        for r in self.realizations:
            per_start[r.start] = per_start.get(r.start, 0.0) + r.probability
        for u, total in per_start.items():
            if abs(total - 1.0) > 1e-12:
                raise AssertionError(
                    f"probabilities for start {u} sum to {total}, not 1")

        hits = [r for r in self.realizations if r.hit]
        lengths = np.array([len(r.prefix) for r in hits], dtype=np.int64)
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)])
        nodes = np.array([v for r in hits for v in sorted(r.prefix)], dtype=np.int64)
        weights = np.array([r.probability for r in hits], dtype=np.float64)
        _, cand_pos = _candidate_positions(g.n, self.rumor_set)
        self.index = WalkIndex(g.n, self.rumor_set, indptr, cand_pos[nodes], weights)

    @property
    def candidates(self) -> np.ndarray:
        return self.index.candidates

    def realizations_for(self, u: int) -> list[Realization]:
        return [r for r in self.realizations if r.start == u]


@dataclass(frozen=True)
class SubmodularityWitness:
    """Sets A ⊆ B and node v whose marginal gain grew with context."""

    graph: Graph
    rumor_set: frozenset[int]
    T: int
    A: frozenset[int]
    B: frozenset[int]
    v: int
    gain_given_A: float
    gain_given_B: float


def _random_instance(rng: np.random.Generator) -> tuple[Graph, frozenset[int], int]:
    """Small random graph with a random rumor set and walk bound, for probes."""
    n = int(rng.integers(3, 9))
    p = float(rng.uniform(0.3, 0.8))
    g = gnp_graph(n, p, seed=rng)
    r_size = int(rng.integers(1, 3))
    rumor = frozenset(int(x) for x in rng.choice(n, size=r_size, replace=False))
    T = int(rng.integers(1, 4))
    return g, rumor, T


def _random_subset(rng: np.random.Generator, pool: list[int], size: int) -> frozenset[int]:
    if size == 0:
        return frozenset()
    picks = rng.choice(len(pool), size=size, replace=False)
    return frozenset(int(pool[i]) for i in picks)


def find_submodularity_violation(params: LogisticParams, trials: int,
                                 rng: np.random.Generator,
                                 envelope: bool = False
                                 ) -> SubmodularityWitness | None:
    """Search random small instances for gain(v|B) > gain(v|A), A ⊆ B.

    With envelope=False this probes the true objective and a witness exists
    whenever the S-curve has a convex stretch over integer counts (needs
    alpha/beta > 1).  With envelope=True it probes the envelope anchored at A
    and must come back empty: the anchored envelope is submodular.
    """
    for _ in range(check_count(trials, "trials", 1)):
        g, rumor, T = _random_instance(rng)
        cands = sorted(set(range(g.n)) - rumor)
        if len(cands) < 2:
            continue
        b_size = int(rng.integers(1, min(3, len(cands) - 1) + 1))
        B = _random_subset(rng, cands, b_size)
        a_size = int(rng.integers(0, len(B) + 1))
        A = _random_subset(rng, sorted(B), a_size)
        v = int(rng.choice(sorted(set(cands) - B)))
        if envelope:
            store = ExactStore(g, rumor, T)
            def value(S):
                return estimate_envelope_objective(store, params, A, S)
        else:
            realizations = enumerate_realizations(g, rumor, T)
            def value(S):
                return exact_objective(g, params, rumor, S, T, realizations)
        gain_A = value(A | {v}) - value(A)
        gain_B = value(B | {v}) - value(B)
        if gain_B > gain_A + 1e-9:
            return SubmodularityWitness(g, rumor, T, A, B, v, gain_A, gain_B)
    return None


@dataclass(frozen=True)
class DominanceCounterexample:
    graph: Graph
    rumor_set: frozenset[int]
    T: int
    anchor_set: frozenset[int]
    P: frozenset[int]
    envelope: float
    exact: float


def check_envelope_dominance(params: LogisticParams, trials: int,
                             rng: np.random.Generator
                             ) -> DominanceCounterexample | None:
    """Probe random (graph, R, anchor, superset) tuples for an envelope that
    fails to dominate the exact objective, or drifts off it at the anchor.
    Returns the first counterexample, or None when all probes pass."""
    for _ in range(check_count(trials, "trials", 1)):
        g, rumor, T = _random_instance(rng)
        cands = sorted(set(range(g.n)) - rumor)
        store = ExactStore(g, rumor, T)
        a_size = int(rng.integers(0, min(2, len(cands)) + 1))
        anchor = _random_subset(rng, cands, a_size)
        extra = int(rng.integers(0, len(cands) - len(anchor) + 1))
        P = anchor | _random_subset(rng, sorted(set(cands) - anchor), extra)

        env_at_anchor = estimate_envelope_objective(store, params, anchor, anchor)
        exact_at_anchor = exact_objective(g, params, rumor, anchor, T,
                                          store.realizations)
        if abs(env_at_anchor - exact_at_anchor) > 1e-12:
            return DominanceCounterexample(g, rumor, T, anchor, anchor,
                                           env_at_anchor, exact_at_anchor)
        env = estimate_envelope_objective(store, params, anchor, P)
        exact = exact_objective(g, params, rumor, P, T, store.realizations)
        if env < exact - 1e-9:
            return DominanceCounterexample(g, rumor, T, anchor, P, env, exact)
    return None
