import math

import numpy as np
import pytest

from rcic.blocking import (
    LogisticParams,
    blocking_percentage,
    estimate_objective,
    logistic_block,
)
from rcic.exact import (
    ExactStore,
    check_envelope_dominance,
    enumerate_realizations,
    exact_hit_probabilities,
    exact_objective,
    exhaustive_optimum,
    find_submodularity_violation,
)
from rcic.graph import Graph
from rcic.solvers import solve_greedy
from rcic.synth import gnp_graph

P31 = LogisticParams(alpha=3.0, beta=1.0)
P73 = LogisticParams(alpha=7.0, beta=3.0)
# P31 plus curves with no tangent from the origin (alpha <= 2) or a tangent
# that passes below f(1) (alpha = 2.1)
ENVELOPE_PARAMS = (P31, LogisticParams(2.1, 1.0), LogisticParams(2.0, 1.0),
                   LogisticParams(1.5, 1.0))


def path3():
    return Graph([[1], [0, 2], [1]], directed=False)


def test_enumerate_path_realizations():
    reals = enumerate_realizations(path3(), {2}, T=2)
    as_set = {(r.start, r.hit, frozenset(r.prefix), round(r.probability, 12))
              for r in reals}
    # start 0: 0-1-2 hits, 0-1-0 does not; start 1: 1-2 hits, 1-0-1 does not
    assert as_set == {
        (0, True, frozenset({0, 1}), 0.5),
        (0, False, frozenset({0, 1}), 0.5),
        (1, True, frozenset({1}), 0.5),
        (1, False, frozenset({0, 1}), 0.5),
    }


def test_enumerate_probabilities_sum_to_one():
    g = gnp_graph(7, 0.5, seed=1)
    reals = enumerate_realizations(g, {0, 3}, T=3)
    per_start = {}
    for r in reals:
        assert r.probability > 0.0
        per_start[r.start] = per_start.get(r.start, 0.0) + r.probability
    assert set(per_start) == set(range(7)) - {0, 3}
    for total in per_start.values():
        assert total == pytest.approx(1.0, abs=1e-12)


def test_enumerate_keys_are_unique():
    reals = enumerate_realizations(gnp_graph(6, 0.6, seed=2), {1}, T=3)
    keys = [(r.start, r.hit, r.prefix) for r in reals]
    assert len(keys) == len(set(keys))


def test_enumerate_budget_guard():
    with pytest.raises(ValueError):
        enumerate_realizations(path3(), {2}, T=2, limit=1)
    # no expansion count exceeds a NaN budget, so it would guard nothing
    for limit in (-1, 2.5, True, math.nan):
        with pytest.raises(ValueError, match="integers"):
            enumerate_realizations(path3(), {2}, T=2, limit=limit)


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_realizations(path3(), {5}, T=2)
    with pytest.raises(ValueError):
        enumerate_realizations(path3(), {0, 1, 2}, T=2)
    # a float or negative T used to spend the whole expansion budget
    for T in (0, -1, 2.5, True, math.nan):
        with pytest.raises(ValueError, match="integers"):
            ExactStore(path3(), {2}, T=T)
    assert (enumerate_realizations(path3(), {2}, T=np.int64(2))
            == enumerate_realizations(path3(), {2}, T=2))


def test_exact_objective_path_values():
    g = path3()
    assert exact_objective(g, P31, {2}, set(), 2) == 0.0
    assert exact_objective(g, P31, {2}, {1}, 2) == pytest.approx(
        0.11920292202211755, abs=1e-12)
    assert exact_objective(g, P31, {2}, {0}, 2) == pytest.approx(
        0.05960146101105877, abs=1e-12)
    assert exact_objective(g, P31, {2}, {0, 1}, 2) == pytest.approx(
        0.19407217169605634, abs=1e-12)


def test_exact_objective_is_zero_where_exp_overflows():
    assert exact_objective(path3(), LogisticParams(800.0, 1.0), {2}, {0, 1},
                           2) == 0.0


def test_exact_objective_accepts_precomputed_realizations():
    g = path3()
    reals = enumerate_realizations(g, {2}, T=2)
    direct = exact_objective(g, P31, {2}, {1}, 2)
    cached = exact_objective(g, P31, {2}, {1}, 2, realizations=reals)
    assert direct == cached


def test_exact_objective_validation():
    g = path3()
    with pytest.raises(ValueError):
        exact_objective(g, P31, {2}, {2}, 2)
    with pytest.raises(ValueError):
        exact_objective(g, P31, {2}, {9}, 2)


def test_exact_objective_invariant_under_relabeling():
    # same path with node 0 as the middle: 1 - 0 - 2, rumor at 2
    g = Graph([[1, 2], [0], [0]], directed=False)
    assert exact_objective(g, P31, {2}, {0}, 2) == pytest.approx(
        0.11920292202211755, abs=1e-12)


def test_exact_hit_probabilities():
    probs = exact_hit_probabilities(path3(), {2}, T=2)
    assert probs == pytest.approx({0: 0.5, 1: 0.5}, abs=1e-12)
    # triangle, one rumor node, single step: each start hits half the time
    tri = Graph([[1, 2], [0, 2], [0, 1]], directed=False)
    probs = exact_hit_probabilities(tri, {2}, T=1)
    assert probs == pytest.approx({0: 0.5, 1: 0.5}, abs=1e-12)


def test_exhaustive_optimum_path():
    g = path3()
    best, val = exhaustive_optimum(g, P31, {2}, k=1, T=2)
    assert best == frozenset({1})
    assert val == pytest.approx(0.11920292202211755, abs=1e-12)
    best2, val2 = exhaustive_optimum(g, P31, {2}, k=2, T=2)
    assert best2 == frozenset({0, 1})
    assert val2 == pytest.approx(0.19407217169605634, abs=1e-12)


def test_exhaustive_optimum_validation():
    g = path3()
    for k in (0, 1.5, True):
        with pytest.raises(ValueError):
            exhaustive_optimum(g, P31, {2}, k=k, T=2)
    with pytest.raises(ValueError):
        exhaustive_optimum(g, P31, {2}, k=3, T=2)
    big = gnp_graph(30, 0.2, seed=4)
    with pytest.raises(ValueError):
        exhaustive_optimum(big, P31, {0}, k=15, T=2)


def test_exhaustive_optimum_beats_greedy():
    for seed in (0, 1, 2, 3):
        g = gnp_graph(7, 0.5, seed=seed)
        store = ExactStore(g, {0}, T=3)
        _, opt = exhaustive_optimum(g, P31, {0}, k=2, T=3)
        greedy = solve_greedy(store, P31, k=2)
        assert opt >= greedy.objective - 1e-12


def test_nested_rumor_growth_can_lower_blocking_percentage():
    # Path 0-1-2-3-4, T=4, k=1, f(1) = logistic_block at count 1.
    # R={4}: starts 0..3 hit w.p. 1/8, 1/8, 3/8, 5/8 (reached mass 1.25),
    #   every hit walk ends through 3, so P={3} blocks B = 1.25 f(1).
    # R={2,4}: start 3 always hits with prefix {3}; starts 0 and 1 each hit
    #   w.p. 3/4 (reached mass 2.5), always through 1, so P={1} blocks
    #   B = 1.5 f(1).
    # The blocked mass rises while the percentage falls from f(1) to
    # 0.6 f(1): the model promises no direction for the percentage in |R|.
    g = Graph([[1], [0, 2], [1, 3], [2, 4], [3]], directed=False)
    f1 = logistic_block(P73, 1)
    cases = (({4}, {3}, 1.25), ({2, 4}, {1}, 2.5))
    blocked, pcts = [], []
    for rumor, want_set, want_reached in cases:
        best, value = exhaustive_optimum(g, P73, rumor, k=1, T=4)
        reached = sum(exact_hit_probabilities(g, rumor, 4).values())
        assert best == frozenset(want_set)
        assert reached == pytest.approx(want_reached, abs=1e-12)
        blocked.append(value)
        pcts.append(blocking_percentage(ExactStore(g, rumor, 4), P73, best))
    assert blocked == pytest.approx([1.25 * f1, 1.5 * f1], abs=1e-12)
    assert pcts == pytest.approx([f1, 0.6 * f1], abs=1e-12)
    assert blocked[1] > blocked[0]
    assert pcts[1] < pcts[0]


def test_exact_store_agrees_with_inline_oracle():
    # the estimator stack on an exact store reproduces the raw enumeration sum
    g = gnp_graph(8, 0.4, seed=6)
    store = ExactStore(g, {1, 4}, T=3)
    for P in (set(), {0}, {2, 5}, {0, 2, 3}):
        assert estimate_objective(store, P31, P) == pytest.approx(
            exact_objective(g, P31, {1, 4}, P, 3), abs=1e-12)


def test_exact_store_structure():
    g = path3()
    store = ExactStore(g, {2}, T=2)
    assert store.index.n_hit_walks == 2
    assert store.index.influenced_mass == pytest.approx(1.0, abs=1e-12)
    hits = exact_hit_probabilities(g, {2}, 2)
    assert store.index.walk_weights.sum() == pytest.approx(
        sum(hits.values()), abs=1e-12)
    assert [r.start for r in store.realizations_for(1)] == [1, 1]
    assert store.index.max_count == 2


def test_objective_is_not_submodular():
    rng = np.random.default_rng(0)
    witness = find_submodularity_violation(P31, trials=500, rng=rng)
    assert witness is not None
    assert witness.A <= witness.B
    assert witness.v not in witness.B
    # recompute both gains from the witness instance
    reals = enumerate_realizations(witness.graph, witness.rumor_set, witness.T)

    def value(S):
        return exact_objective(witness.graph, P31, witness.rumor_set, S,
                               witness.T, reals)

    gain_a = value(witness.A | {witness.v}) - value(witness.A)
    gain_b = value(witness.B | {witness.v}) - value(witness.B)
    assert gain_a == pytest.approx(witness.gain_given_A, abs=1e-12)
    assert gain_b == pytest.approx(witness.gain_given_B, abs=1e-12)
    assert gain_b > gain_a + 1e-9


def test_envelope_is_submodular():
    for params in ENVELOPE_PARAMS:
        rng = np.random.default_rng(1)
        assert find_submodularity_violation(params, trials=300, rng=rng,
                                            envelope=True) is None


def test_envelope_dominates():
    for params in ENVELOPE_PARAMS:
        rng = np.random.default_rng(2)
        assert check_envelope_dominance(params, trials=300, rng=rng) is None
    # a check of no probes would pass whatever the envelope did
    for check in (check_envelope_dominance, find_submodularity_violation):
        for trials in (0, 2.5, True, math.nan):
            with pytest.raises(ValueError, match="integers"):
                check(P31, trials, np.random.default_rng(2))
