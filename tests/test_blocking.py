import math

import numpy as np
import pytest

from rcic.blocking import (
    EnvelopeTable,
    LogisticParams,
    blocking_percentage,
    estimate_envelope_objective,
    estimate_objective,
    logistic_block,
)
from rcic.exact import ExactStore
from rcic.graph import Graph
from rcic.solvers import solve_topk

from paper_tangent import logistic_slope, tangent_point

P31 = LogisticParams(alpha=3.0, beta=1.0)
P73 = LogisticParams(alpha=7.0, beta=3.0)
# steep and flat curves; no tangent from the origin exists for the last two
HULL_PARAMS = (P73, P31, LogisticParams(2.0, 1.0), LogisticParams(1.5, 1.0))


def path_store(T=2):
    # 0 - 1 - 2 with the rumor at node 2
    g = Graph([[1], [0, 2], [1]], directed=False)
    return ExactStore(g, {2}, T)


def test_params_validation():
    with pytest.raises(ValueError):
        LogisticParams(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        LogisticParams(alpha=3.0, beta=-1.0)
    # bool is no curve setting, although True > 0
    for alpha, beta in ((math.nan, 1.0), (3.0, math.nan), (True, 1.0),
                        (3.0, True), (True, True)):
        with pytest.raises(ValueError):
            LogisticParams(alpha, beta)


def test_logistic_block_values():
    assert logistic_block(P31, 0) == 0.0
    assert logistic_block(P31, 3) == 0.5
    assert logistic_block(P31, 1) == pytest.approx(0.11920292202211755, abs=1e-15)
    assert logistic_block(P31, 5) == pytest.approx(0.8807970779778823, abs=1e-15)
    assert logistic_block(LogisticParams(7.0, 3.0), 1) == pytest.approx(
        0.01798620996209156, abs=1e-15)
    with pytest.raises(ValueError):
        logistic_block(P31, -1)


def test_logistic_block_is_zero_where_exp_overflows():
    # exp(alpha - beta*C) exceeds the float range from alpha - beta*C ~ 709.8 on
    far = LogisticParams(800.0, 1.0)
    assert logistic_block(far, 1) == 0.0
    assert logistic_block(far, 91) == 1.0 / (1.0 + math.exp(709.0))
    table = EnvelopeTable(far, max_count=4)
    assert not table.f_table.any()
    assert not np.nan_to_num(table.env_gain).any()


def test_logistic_slope_peaks_at_inflection():
    assert logistic_slope(P31, 3.0) == pytest.approx(0.25, abs=1e-15)
    assert logistic_slope(P31, 1.0) < 0.25
    assert logistic_slope(P31, 5.0) < 0.25


def test_tangent_point_from_origin():
    anchor = tangent_point(P31, 0.0, 0.0)
    assert anchor.tangent_c == pytest.approx(4.146193220192799, abs=2e-9)
    assert abs(anchor.tangent_c - 4.15) <= 0.01
    # tangency: the chord slope equals the curve slope at the touch point
    assert anchor.tangent_slope == pytest.approx(0.1830148442252765, abs=1e-12)
    assert anchor.tangent_slope == pytest.approx(
        logistic_slope(P31, anchor.tangent_c), abs=1e-8)
    # the line meets the curve at the tangency point
    line = anchor.y0 + anchor.tangent_slope * (anchor.tangent_c - anchor.c0)
    curve = 1.0 / (1.0 + math.exp(P31.alpha - P31.beta * anchor.tangent_c))
    assert line == pytest.approx(curve, abs=1e-12)


def test_tangent_point_degenerate_past_inflection():
    for c0 in (3.0, 4.0):
        anchor = tangent_point(P31, c0, logistic_block(P31, int(c0)))
        assert anchor.tangent_c == c0
        assert anchor.tangent_slope == pytest.approx(
            logistic_slope(P31, c0), abs=1e-15)


def test_tangent_point_needs_steep_curve_at_origin():
    # from (0, 0) the chord undercuts every slope once alpha <= 2
    with pytest.raises(ArithmeticError):
        tangent_point(LogisticParams(2.0, 1.0), 0.0, 0.0)
    with pytest.raises(ArithmeticError):
        tangent_point(LogisticParams(1.5, 1.0), 0.0, 0.0)
    tangent_point(LogisticParams(2.1, 1.0), 0.0, 0.0)


def test_tangent_point_rejects_negative_anchor():
    with pytest.raises(ValueError):
        tangent_point(P31, -1.0, 0.0)


def brute_majorant(f, c0, c):
    """Max over chords through points i <= c <= j of f on [c0, len(f) - 1]."""
    best = -math.inf
    for i in range(c0, c + 1):
        for j in range(c, len(f)):
            if i == j:
                best = max(best, f[c])
            else:
                best = max(best, f[i] + (f[j] - f[i]) * (c - i) / (j - i))
    return best


def test_envelope_table_matches_pointwise_functions():
    for params in HULL_PARAMS:
        table = EnvelopeTable(params, max_count=7)
        for c in range(8):
            assert table.f_table[c] == logistic_block(params, c)
        # a unit gain per count, 0 at max_count as in env_gain
        assert np.array_equal(table.gain_table,
                              np.append(np.diff(table.f_table), 0.0))
        assert table.env_gain[:, -1].tolist() == [0.0] * 8
        for c0 in range(8):
            for c in range(c0, 8):
                assert table.env[c0, c] == pytest.approx(
                    brute_majorant(table.f_table, c0, c), abs=1e-15)


def test_envelope_agrees_at_anchor():
    for params in HULL_PARAMS:
        table = EnvelopeTable(params, max_count=6)
        assert table.env[0, 0] == 0.0
        for c0 in range(7):
            assert table.env[c0, c0] == table.f_table[c0]


def test_envelope_dominates_block_on_grid():
    for params in HULL_PARAMS:
        table = EnvelopeTable(params, max_count=11)
        for c0 in range(12):
            for c in range(c0, 12):
                assert table.env[c0, c] >= logistic_block(params, c) - 1e-12


def test_envelope_concave_above_anchor():
    for params in HULL_PARAMS:
        table = EnvelopeTable(params, max_count=11)
        for c0 in range(12):
            gains = np.diff(table.env[c0, c0:])
            assert np.all(np.diff(gains) <= 1e-12)
            assert np.all(gains >= -1e-12)


def test_envelope_pinned_values():
    table = EnvelopeTable(P73, max_count=3)
    f1, f3 = logistic_block(P73, 1), logistic_block(P73, 3)
    # the chord from count 1 to count 3 lies above f(2)
    assert table.env[1, 2] == pytest.approx((f1 + f3) / 2, abs=1e-15)
    assert table.env[1, 2] == pytest.approx(0.44940, abs=1e-5)
    # the continuous tangent from the same anchor is looser at count 2
    anchor = tangent_point(P73, 1.0, f1)
    tangent_at_2 = anchor.y0 + anchor.tangent_slope * (2.0 - anchor.c0)
    assert tangent_at_2 == pytest.approx(0.4542, abs=1e-4)
    assert table.env[1, 2] < tangent_at_2


def test_envelope_table_vector_lookups():
    table = EnvelopeTable(P31, max_count=5)
    anchors = np.array([0, 2, 0, 1, 5], dtype=np.int32)
    counts = np.array([3, 4, 0, 5, 5], dtype=np.int32)
    vals = table.env[anchors, counts]
    gains = table.env_gain[anchors, counts]
    for i in range(5):
        a, c = int(anchors[i]), int(counts[i])
        assert vals[i] == table.env[a, c]
        # unit gains step to the next count, and stop at the table cap
        expected = table.env[a, c + 1] - table.env[a, c] if c < 5 else 0.0
        assert gains[i] == expected


def test_envelope_table_finite_for_flat_logistic():
    # no origin tangent exists at alpha=1.5; the hull still does
    table = EnvelopeTable(LogisticParams(1.5, 1.0), max_count=4)
    upper = np.triu(np.ones((5, 5), dtype=bool))
    assert np.all(np.isfinite(table.env[upper]))
    assert np.all(np.isfinite(table.env_gain[upper]))
    assert np.all(np.isnan(table.env[~upper]))


def test_envelope_table_validation():
    with pytest.raises(ValueError):
        EnvelopeTable(P31, max_count=-1)


def test_estimate_objective_path_instance():
    store = path_store()
    assert estimate_objective(store, P31, set()) == 0.0
    assert estimate_objective(store, P31, {1}) == pytest.approx(
        0.11920292202211755, abs=1e-12)
    assert estimate_objective(store, P31, {0}) == pytest.approx(
        0.05960146101105877, abs=1e-12)
    assert estimate_objective(store, P31, {0, 1}) == pytest.approx(
        0.19407217169605634, abs=1e-12)


def test_repeated_protector_counts_once():
    # P is a set: listing node 1 twice is one impression per walk, f(1), not f(2)
    store = path_store()
    f1 = 0.11920292202211755
    assert estimate_objective(store, P31, [1, 1]) == pytest.approx(f1, abs=1e-12)
    assert blocking_percentage(store, P31, [1, 1]) == pytest.approx(f1, abs=1e-12)
    assert estimate_objective(store, P31, [0, 1, 0]) == pytest.approx(
        estimate_objective(store, P31, {0, 1}), abs=1e-15)


def test_estimate_objective_monotone_in_protectors():
    store = path_store()
    b1 = estimate_objective(store, P31, {1})
    b01 = estimate_objective(store, P31, {0, 1})
    assert b01 >= b1 >= 0.0


def test_estimate_objective_rejects_rumor_member():
    store = path_store()
    with pytest.raises(ValueError):
        estimate_objective(store, P31, {1, 2})


def test_estimate_envelope_objective_anchoring():
    store = path_store()
    # at its anchor the envelope equals the plain objective
    for s in (set(), {0}, {1}, {0, 1}):
        assert estimate_envelope_objective(store, P31, s, s) == pytest.approx(
            estimate_objective(store, P31, s), abs=1e-15)
    # hit prefixes {0, 1} and {1}, weight 1/2 each; at count 1 the hull over
    # counts 0..2 is the chord f(2)/2, above f(1)
    env = estimate_envelope_objective(store, P31, set(), {0, 1})
    assert env == pytest.approx(0.75 * logistic_block(P31, 2), abs=1e-15)
    assert env == pytest.approx(0.20170606602749633, abs=1e-12)
    assert env >= estimate_objective(store, P31, {0, 1})
    with pytest.raises(ValueError):
        estimate_envelope_objective(store, P31, {0}, {1})


def test_block_degree_path_instance():
    # hit prefixes are {0, 1} (from start 0) and {1} (from start 1): node 1's
    # block degree is 2 against node 0's 1, so topk picks it
    assert solve_topk(path_store(), P31, 1).chosen_set == {1}


def test_blocking_percentage_path_instance():
    store = path_store()
    # both starts hit with probability 1/2, so the influenced mass is 1
    assert store.index.influenced_mass == pytest.approx(1.0, abs=1e-12)
    assert blocking_percentage(store, P31, {1}) == pytest.approx(
        0.11920292202211755, abs=1e-12)
    assert blocking_percentage(store, P31, set()) == 0.0
    assert 0.0 <= blocking_percentage(store, P31, {0, 1}) < 1.0


def test_blocking_percentage_needs_reachable_rumor():
    # the rumor node is isolated: no walk can hit, and the share reads 0.0,
    # as every solver report's does
    g = Graph([[1], [0], []], directed=False)
    store = ExactStore(g, {2}, T=3)
    assert store.index.influenced_mass == 0.0
    assert blocking_percentage(store, P31, {0}) == 0.0
