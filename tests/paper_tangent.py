"""The paper's continuous tangent-line envelope, kept for the tests.

From an anchor (c0, y0) the paper draws the line that touches the logistic
at some t >= c0, and follows the logistic beyond t.  `rcic` bounds with the
integer hull (`rcic.blocking.EnvelopeTable`) instead: the tangent has no
solution from the origin when alpha <= 2, and just above alpha = 2 its line
passes below f(1).  The tests use this module to pin the paper's tangent
from the origin (4.15 at alpha=3, beta=1) and to show the hull is tighter.
"""

from __future__ import annotations

from dataclasses import dataclass

from rcic.blocking import LogisticParams, _logistic

_BISECT_TOL = 1e-9
_BISECT_MAX_ITER = 200


def logistic_slope(params: LogisticParams, t: float) -> float:
    v = _logistic(params, t)
    return params.beta * v * (1.0 - v)


@dataclass(frozen=True)
class EnvelopeAnchor:
    """The tangent construction for one anchor count c0.

    The line through (c0, y0) with tangent_slope touches the logistic at
    tangent_c.  When c0 is already past the inflection the logistic is
    concave onward and tangent_c collapses to c0.
    """

    c0: float
    y0: float
    tangent_c: float
    tangent_slope: float


def tangent_point(params: LogisticParams, c0: float, y0: float) -> EnvelopeAnchor:
    """Solve (f(t) - y0)/(t - c0) = f'(t) for the tangency point t >= c0.

    Bracketed bisection on [inflection, inflection + 60/beta] to absolute
    tolerance 1e-9.  An anchor (0, 0) with alpha <= 2 has no tangent: the
    chord slope from the origin exceeds every derivative, so the bracket
    fails and ArithmeticError is raised.
    """
    if c0 < 0:
        raise ValueError(f"anchor count must be >= 0, got {c0}")
    inflection = params.alpha / params.beta
    if c0 >= inflection:
        return EnvelopeAnchor(c0, y0, c0, logistic_slope(params, c0))

    def slope_gap(t: float) -> float:
        return (_logistic(params, t) - y0) / (t - c0) - logistic_slope(params, t)

    lo = inflection
    hi = inflection + 60.0 / params.beta
    if not (slope_gap(lo) < 0.0 < slope_gap(hi)):
        raise ArithmeticError(
            f"no tangent bracket for anchor ({c0}, {y0}) with alpha={params.alpha}, "
            f"beta={params.beta}")
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
    # chord slope through the converged point keeps the line on the curve at t
    slope = (_logistic(params, t) - y0) / (t - c0)
    return EnvelopeAnchor(c0, y0, t, slope)
