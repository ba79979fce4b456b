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

`tangent_point` keeps the paper's continuous construction (a tangent line
from the anchor up to the logistic, the logistic beyond).  No solver uses
it: at integer counts the hull is never above it, it has no solution from
the origin when alpha <= 2, and just above alpha = 2 its line passes below
f(1), so it is not an upper bound there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BISECT_TOL = 1e-9
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class LogisticParams:
    """Steepness beta and midpoint-controlling alpha; inflection at alpha/beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    @property
    def inflection(self) -> float:
        return self.alpha / self.beta


def _logistic(params: LogisticParams, t: float) -> float:
    return 1.0 / (1.0 + math.exp(params.alpha - params.beta * t))


def logistic_slope(params: LogisticParams, t: float) -> float:
    v = _logistic(params, t)
    return params.beta * v * (1.0 - v)


def logistic_block(params: LogisticParams, C: int) -> float:
    """Block probability at impression count C; 0 at C=0 by convention."""
    if C < 0:
        raise ValueError(f"impression count must be >= 0, got {C}")
    if C == 0:
        return 0.0
    return _logistic(params, C)


def impression_count(profile, P) -> int:
    """|prefix ∩ P| for one walk; meaningful only when the walk hit."""
    return len(profile.prefix & frozenset(P))


@dataclass(frozen=True)
class EnvelopeAnchor:
    """The paper's continuous tangent construction for one anchor count c0.

    The line through (c0, y0) with tangent_slope touches the logistic at
    tangent_c; the envelope follows the line on [c0, tangent_c] and the
    logistic beyond.  When c0 is already past the inflection the logistic is
    concave onward and tangent_c collapses to c0.
    """

    c0: float
    y0: float
    tangent_c: float
    tangent_slope: float


def tangent_point(params: LogisticParams, c0: float, y0: float) -> EnvelopeAnchor:
    """Solve (f(t) - y0)/(t - c0) = f'(t) for the tangency point t >= c0.

    Bracketed bisection on [inflection, inflection + 60/beta] to absolute
    tolerance 1e-9.  Anchors at or past the inflection need no line segment.
    An anchor (0, 0) with alpha <= 2 has no tangent: the chord slope from the
    origin exceeds every derivative, and the solve reports failure.
    """
    if c0 < 0:
        raise ValueError(f"anchor count must be >= 0, got {c0}")
    if c0 >= params.inflection:
        return EnvelopeAnchor(c0, y0, c0, logistic_slope(params, c0))

    def slope_gap(t: float) -> float:
        return (_logistic(params, t) - y0) / (t - c0) - logistic_slope(params, t)

    lo = params.inflection
    hi = params.inflection + 60.0 / params.beta
    if not (slope_gap(lo) < 0.0 < slope_gap(hi)):
        raise ArithmeticError(
            f"no tangent bracket for anchor ({c0}, {y0}) with alpha={params.alpha}, "
            f"beta={params.beta}; the envelope construction needs alpha > 2 "
            "for anchors at count 0")
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if slope_gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < _BISECT_TOL:
            break
    else:
        raise ArithmeticError("tangent bisection did not converge")
    t = 0.5 * (lo + hi)
    # chord slope through the converged point; keeps the line on the curve at t
    slope = (_logistic(params, t) - y0) / (t - c0)
    return EnvelopeAnchor(c0, y0, t, slope)


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


def _positions(index, nodes) -> list[int]:
    return [index.position(v) for v in nodes]


def estimate_objective(store, params: LogisticParams, P) -> float:
    """Sampled objective B(P|R): weighted block value over all hit walks."""
    index = store.index
    _positions(index, P)  # validates membership
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
    _positions(index, P)
    anchors = index.counts_for(anchor_set)
    counts = anchors + index.counts_for(P - anchor_set)
    table = EnvelopeTable(params, index.max_count)
    return float(np.dot(index.walk_weights, table.env[anchors, counts]))


def block_degree(store) -> dict[int, int]:
    """Per non-rumor node, the number of hit walks whose prefix contains it."""
    index = store.index
    per_cand = np.diff(index.indptr)
    return {int(v): int(d) for v, d in zip(index.candidates, per_cand)}


def blocking_percentage(store, params: LogisticParams, P) -> float:
    """B(P|R) over the expected number of users the rumor reaches, in [0, 1)."""
    mass = store.index.influenced_mass
    if mass <= 0.0:
        raise ValueError("no walk reaches the rumor set within T; "
                         "blocking percentage is undefined")
    return estimate_objective(store, params, P) / mass
