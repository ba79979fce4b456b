"""Impression-count influence block and its concave envelope.

A user who saw C protector posts before reaching the rumor is blocked with
probability f(C) = 1/(1+exp(alpha - beta*C)) when C > 0, and 0 when C = 0:
unseen protectors block nobody, so the curve has a jump at zero.  The jump
makes the set objective non-submodular.  The envelope replaces f on each walk
by a concave majorant anchored at that walk's current count c0.  Counts are
integers, so the tightest one is the least concave majorant of the points
(c, f(c)) for c0 <= c <= max_count: an upper-hull pass over at most T+2
points, which exists for every alpha and beta.  The envelope is submodular in
the added set, upper-bounds the true objective, and agrees with it exactly at
the anchor, which is what the bound-based solvers rely on.

The paper's continuous construction (a tangent line from the anchor up to
the logistic, the logistic beyond) lives in `tests/paper_tangent.py`, where
the tests pin its tangent and show the hull is tighter.  No solver uses it:
at integer counts the hull is never above it, it has no solution from the
origin when alpha <= 2, and just above alpha = 2 its line passes below f(1),
so it is not an upper bound there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogisticParams:
    """Steepness beta and midpoint-controlling alpha; inflection at alpha/beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        # `not > 0` also rejects NaN, under which every block value is NaN
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    @property
    def inflection(self) -> float:
        return self.alpha / self.beta


def _logistic(params: LogisticParams, t: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(params.alpha - params.beta * t))
    except OverflowError:  # exp(z) above the float range: 1/(1+exp(z)) is 0.0
        return 0.0


def logistic_block(params: LogisticParams, C: int) -> float:
    """Block probability at impression count C; 0 at C=0 by convention."""
    if C < 0:
        raise ValueError(f"impression count must be >= 0, got {C}")
    if C == 0:
        return 0.0
    return _logistic(params, C)


def _upper_hull(y: np.ndarray) -> np.ndarray:
    """Least concave majorant of the points (i, y[i]), evaluated at each i.

    One monotone-chain pass keeps the upper hull's vertices; a point on or
    below the chord between its neighbours is dropped.
    """
    hull: list[int] = []
    for i in range(len(y)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (y[b] - y[a]) * (i - a) > (y[i] - y[a]) * (b - a):
                break
            hull.pop()
        hull.append(i)
    return np.interp(np.arange(len(y)), hull, y[hull])


class EnvelopeTable:
    """Block and envelope lookups over integer counts 0..max_count.

    f_table[c] is the block value (0 at c=0) and gain_table[c] is f(c+1)-f(c).
    env[c0, c] is the envelope anchored at count c0: the least concave
    majorant of the points (c', f_table[c']) for c0 <= c' <= max_count, at
    count c >= c0 (NaN below the anchor).  env_gain[c0, c] is its unit gain
    env[c0, c+1] - env[c0, c], and 0 at c = max_count.  Counts never exceed
    the longest hit-walk prefix, so max_count <= T + 1 and both matrices are
    tiny; they are built once, for every anchor, and exist for every alpha.
    """

    def __init__(self, params: LogisticParams, max_count: int):
        if max_count < 0:
            raise ValueError(f"max_count must be >= 0, got {max_count}")
        self.max_count = max_count
        self.f_table = np.zeros(max_count + 1, dtype=np.float64)
        for c in range(1, max_count + 1):
            self.f_table[c] = _logistic(params, c)
        self.gain_table = np.diff(self.f_table)
        self.env = np.full((max_count + 1, max_count + 1), np.nan)
        for c0 in range(max_count + 1):
            self.env[c0, c0:] = _upper_hull(self.f_table[c0:])
        self.env_gain = np.zeros_like(self.env)
        self.env_gain[:, :max_count] = np.diff(self.env, axis=1)


def estimate_objective(store, params: LogisticParams, P) -> float:
    """Sampled objective B(P|R): weighted block value over all hit walks."""
    index = store.index
    counts = index.counts_for(P)
    table = EnvelopeTable(params, index.max_count)
    return float(np.dot(index.walk_weights, table.f_table[counts]))


def estimate_envelope_objective(store, params: LogisticParams, anchor_set, P) -> float:
    """Envelope objective with per-walk anchors fixed by anchor_set; P ⊇ anchor_set."""
    anchor_set = frozenset(anchor_set)
    P = frozenset(P)
    if not P >= anchor_set:
        raise ValueError("P must contain the anchor set")
    index = store.index
    anchors = index.counts_for(anchor_set)
    counts = anchors + index.counts_for(P - anchor_set)
    table = EnvelopeTable(params, index.max_count)
    return float(np.dot(index.walk_weights, table.env[anchors, counts]))


def blocking_percentage(store, params: LogisticParams, P) -> float:
    """B(P|R) over the expected number of users the rumor reaches, in [0, 1);
    0.0 when no walk reaches the rumor set, as in every `SolveReport`."""
    mass = store.index.influenced_mass
    return estimate_objective(store, params, P) / mass if mass > 0 else 0.0
