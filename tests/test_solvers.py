import itertools
import math

import numpy as np
import pytest

from rcic.blocking import (
    EnvelopeTable,
    LogisticParams,
    estimate_envelope_objective,
    estimate_objective,
)
from rcic.exact import ExactStore, exhaustive_optimum
from rcic.sampling import SampleConfig, build_sample_store
from rcic.solvers import (
    SolverLimits,
    _GainState,
    branch_and_bound,
    pro_sam_compute_bound,
    run_solver,
    sam_compute_bound,
    solve_greedy,
    solve_topk,
)
from rcic.graph import Graph
from rcic.synth import barabasi_albert_graph, gnp_graph

P31 = LogisticParams(alpha=3.0, beta=1.0)
# P31 plus curves with no tangent from the origin (alpha <= 2) or a tangent
# that passes below f(1) (alpha = 2.1)
ENVELOPE_PARAMS = (P31, LogisticParams(2.1, 1.0), LogisticParams(2.0, 1.0),
                   LogisticParams(1.5, 1.0))


def path_store(T=2):
    g = Graph([[1], [0, 2], [1]], directed=False)
    return ExactStore(g, {2}, T)


def tiny_instances():
    for seed in range(6):
        g = gnp_graph(7, 0.5, seed=seed)
        yield g, ExactStore(g, {0}, T=3)


def sampled_ba_stores():
    for seed in range(3):
        g = barabasi_albert_graph(300, 3, seed=seed)
        yield build_sample_store(g, set(range(8)), SampleConfig(T=5, X=60, seed=seed))


def rescan_gains(index, gain_mat, anchor_counts, counts):
    """Each candidate's gain re-summed over its walks from scratch."""
    cand_of_entry = np.repeat(np.arange(index.n_candidates), np.diff(index.indptr))
    walk_gain = gain_mat[anchor_counts, counts]
    return np.bincount(cand_of_entry,
                       weights=index.walk_weights[index.walk_ids]
                       * walk_gain[index.walk_ids],
                       minlength=index.n_candidates)


def rescan_greedy(index, gain_mat, anchor_set, k):
    """Reference greedy: every pick rescans every candidate's gain."""
    anchor_counts = index.counts_for(anchor_set)
    counts = anchor_counts.copy()
    in_set = np.zeros(index.n_candidates, dtype=bool)
    for v in anchor_set:
        in_set[index.position(v)] = True
    for _ in range(k - len(anchor_set)):
        gains = rescan_gains(index, gain_mat, anchor_counts, counts)
        gains[in_set] = -np.inf
        best = int(np.argmax(gains))
        in_set[best] = True
        counts[index.walk_ids[index.indptr[best]:index.indptr[best + 1]]] += 1
    return frozenset(int(v) for v in index.candidates[in_set])


def gain_matrices(index, params):
    table = EnvelopeTable(params, index.max_count)
    return {"greedy": np.append(table.gain_table, 0.0)[None, :],
            "envelope": table.env_gain}


def test_incremental_greedy_matches_rescan_on_sampled_stores():
    for store in sampled_ba_stores():
        index = store.index
        mats = gain_matrices(index, P31)
        assert solve_greedy(store, P31, k=12).chosen_set == rescan_greedy(
            index, mats["greedy"], frozenset(), 12)
        anchor = frozenset(int(v) for v in index.candidates[:2])
        for anchor_set in (frozenset(), anchor):
            sam = sam_compute_bound(store, P31, anchor_set, k=12)
            assert sam.completed_set == rescan_greedy(
                index, mats["envelope"], anchor_set, 12)


def test_incremental_greedy_matches_rescan_objective_on_tiny_instances():
    # ties between candidates may break differently at the last bit here
    for params, (_, store) in itertools.product(ENVELOPE_PARAMS,
                                                tiny_instances()):
        for k in (1, 2, 3):
            ref = rescan_greedy(store.index, gain_matrices(store.index, params)[
                "greedy"], frozenset(), k)
            assert solve_greedy(store, params, k).objective == pytest.approx(
                estimate_objective(store, params, ref), abs=1e-12)


def test_incremental_gains_equal_refresh_after_every_step():
    stores = [s for _, s in tiny_instances()] + list(sampled_ba_stores())
    for store in stores:
        index = store.index
        for name, mat in gain_matrices(index, P31).items():
            anchor = frozenset() if name == "greedy" else frozenset(
                {int(index.candidates[-1])})
            state = _GainState(index, mat, anchor, 6, None)
            for _ in range(6 - len(anchor)):
                state.greedy_steps(1)
                incremental = state.gains
                state.refresh_gains()
                np.testing.assert_allclose(incremental, state.gains, rtol=0,
                                           atol=1e-12)
                np.testing.assert_allclose(
                    state.gains, rescan_gains(index, mat, state.anchor_counts,
                                              state.counts), rtol=0, atol=1e-12)
                # carry on from the incremental vector so errors accumulate
                state.gains = incremental


def test_limits_validation():
    SolverLimits()
    SolverLimits(node_expansion_cap=0, wall_time_cap=1.0)
    with pytest.raises(ValueError):
        SolverLimits(node_expansion_cap=-1)
    with pytest.raises(ValueError):
        SolverLimits(wall_time_cap=0.0)


def test_topk_path_instance():
    store = path_store()
    report = solve_topk(store, P31, k=1)
    assert report.algorithm == "topk"
    assert report.chosen_set == frozenset({1})
    assert report.objective == pytest.approx(0.11920292202211755, abs=1e-12)
    assert report.blocking_percentage == pytest.approx(report.objective, abs=1e-12)
    assert solve_topk(store, P31, k=2).chosen_set == frozenset({0, 1})


def test_topk_tie_prefers_smaller_id():
    # triangle with rumor 2, one step: nodes 0 and 1 have equal block degree
    tri = Graph([[1, 2], [0, 2], [0, 1]], directed=False)
    store = ExactStore(tri, {2}, T=1)
    assert solve_topk(store, P31, k=1).chosen_set == frozenset({0})


def test_solver_k_validation():
    store = path_store()
    for solver in (solve_topk, solve_greedy):
        with pytest.raises(ValueError):
            solver(store, P31, k=0)
        with pytest.raises(ValueError):
            solver(store, P31, k=3)


def test_greedy_path_instance():
    store = path_store()
    report = solve_greedy(store, P31, k=1)
    assert report.chosen_set == frozenset({1})
    assert report.objective == pytest.approx(0.11920292202211755, abs=1e-12)
    report2 = solve_greedy(store, P31, k=2)
    assert report2.chosen_set == frozenset({0, 1})
    assert report2.objective == pytest.approx(0.19407217169605634, abs=1e-12)
    assert report2.gain_evals == 2 + 1


def test_greedy_fills_zero_gain_slots_by_id():
    # star, rumor at leaf 3: only the hub ever appears in a hit prefix
    star = Graph([[1, 2, 3], [0], [0], [0]], directed=False)
    store = ExactStore(star, {3}, T=1)
    report = solve_greedy(store, P31, k=2)
    assert report.chosen_set == frozenset({0, 1})
    assert report.objective == pytest.approx(0.11920292202211755 / 3.0, abs=1e-12)


def test_greedy_at_least_topk_on_probes():
    for _, store in tiny_instances():
        greedy = solve_greedy(store, P31, k=2)
        topk = solve_topk(store, P31, k=2)
        assert greedy.objective >= topk.objective - 1e-12


def test_sam_bound_full_anchor_collapses():
    store = path_store()
    res = sam_compute_bound(store, P31, {0, 1}, k=2)
    assert res.completed_set == frozenset({0, 1})
    assert res.lower == pytest.approx(0.19407217169605634, abs=1e-12)
    assert res.upper == pytest.approx(res.lower, abs=1e-12)
    assert res.first_added is None
    assert res.gain_evals == 0


def test_sam_bound_completion_and_dominance():
    store = path_store()
    res = sam_compute_bound(store, P31, {0}, k=2)
    assert res.completed_set == frozenset({0, 1})
    assert res.first_added == 1
    assert res.lower == pytest.approx(0.19407217169605634, abs=1e-12)
    assert res.upper >= res.lower - 1e-12
    # the solver's matrix path agrees with the reference envelope estimator
    assert res.upper == pytest.approx(
        estimate_envelope_objective(store, P31, {0}, {0, 1}), abs=1e-12)


def test_sam_bound_picks_best_envelope_gain_first():
    res = sam_compute_bound(path_store(), P31, frozenset(), k=1)
    # node 1 sits in both hit prefixes, node 0 in one
    assert res.first_added == 1
    assert res.completed_set == frozenset({1})


def test_sam_bound_respects_allowed_pool():
    res = sam_compute_bound(path_store(), P31, frozenset(), k=1, allowed={0})
    assert res.completed_set == frozenset({0})


def test_sam_bound_validation():
    store = path_store()
    with pytest.raises(ValueError):
        sam_compute_bound(store, P31, {0, 1}, k=1)
    with pytest.raises(ValueError):
        sam_compute_bound(store, P31, frozenset(), k=2, allowed={0})


def test_sam_bound_certifies_optimum_on_probes():
    # U / (1 - 1/e) is a sound optimum bound for the greedy envelope maximizer
    factor = 1.0 - 1.0 / math.e
    for g, store in tiny_instances():
        res = sam_compute_bound(store, P31, frozenset(), k=2)
        _, opt = exhaustive_optimum(g, P31, {0}, k=2, T=3)
        assert res.upper / factor >= opt - 1e-9
        assert res.lower <= opt + 1e-12


def test_pro_bound_matches_sam_at_k1():
    for _, store in tiny_instances():
        sam = sam_compute_bound(store, P31, frozenset(), k=1)
        pro = pro_sam_compute_bound(store, P31, frozenset(), k=1, rho=0.1)
        assert pro.completed_set == sam.completed_set
        assert pro.lower == pytest.approx(sam.lower, abs=1e-12)


def test_pro_bound_outputs_valid_completion():
    for _, store in tiny_instances():
        pro = pro_sam_compute_bound(store, P31, frozenset(), k=3, rho=0.5)
        assert len(pro.completed_set) == 3
        assert pro.upper >= pro.lower - 1e-12


def test_pro_bound_needs_positive_rho():
    with pytest.raises(ValueError):
        pro_sam_compute_bound(path_store(), P31, frozenset(), k=1, rho=0.0)


def test_pro_bound_saves_gain_evaluations():
    g = barabasi_albert_graph(200, 3, seed=1)
    store = build_sample_store(g, {0, 1, 2, 3, 4}, SampleConfig(T=4, X=100, seed=0))
    sam = sam_compute_bound(store, P31, frozenset(), k=10)
    pro = pro_sam_compute_bound(store, P31, frozenset(), k=10, rho=0.1)
    assert pro.gain_evals < sam.gain_evals
    assert len(pro.completed_set) == 10


def test_branch_and_bound_certified_finds_optimum():
    for params, (g, store) in itertools.product(ENVELOPE_PARAMS,
                                                tiny_instances()):
        report = branch_and_bound(store, params, k=2, certified=True)
        _, opt = exhaustive_optimum(g, params, {0}, k=2, T=3)
        assert report.algorithm == "bab"
        assert report.objective == pytest.approx(opt, abs=1e-9)
        assert not report.truncated
        assert report.bound_calls >= 1


def test_branch_and_bound_never_below_greedy():
    for _, store in tiny_instances():
        greedy = solve_greedy(store, P31, k=2)
        bab = branch_and_bound(store, P31, k=2)
        assert bab.objective >= greedy.objective - 1e-15


def test_branch_and_bound_full_budget_needs_no_search():
    report = branch_and_bound(path_store(), P31, k=2)
    assert report.chosen_set == frozenset({0, 1})
    assert report.expansions == 0
    assert not report.truncated


def test_branch_and_bound_node_cap_truncates():
    report = branch_and_bound(path_store(), P31, k=1,
                              limits=SolverLimits(node_expansion_cap=0))
    assert report.truncated
    assert report.expansions == 0
    # the incumbent is still the greedy seed
    assert report.objective == pytest.approx(0.11920292202211755, abs=1e-12)


def test_branch_and_bound_time_cap_truncates():
    report = branch_and_bound(path_store(), P31, k=1,
                              limits=SolverLimits(wall_time_cap=1e-9))
    assert report.truncated


def test_branch_and_bound_progressive_estimator():
    for params, (g, store) in itertools.product(ENVELOPE_PARAMS,
                                                tiny_instances()):
        report = branch_and_bound(store, params, k=2, estimator="pro",
                                  rho=0.1, certified=True)
        _, opt = exhaustive_optimum(g, params, {0}, k=2, T=3)
        assert report.algorithm == "probab"
        assert report.objective >= (1.0 - 1.0 / math.e) * opt - 1e-9


def test_branch_and_bound_validation():
    store = path_store()
    with pytest.raises(ValueError):
        branch_and_bound(store, P31, k=1, estimator="magic")
    with pytest.raises(ValueError):
        # 1 - 1/e - 0.7 < 0: no sound certified factor remains
        branch_and_bound(store, P31, k=1, certified=True, epsilon=0.7)


def test_branch_and_bound_deterministic():
    g = gnp_graph(9, 0.4, seed=5)
    store = ExactStore(g, {0, 1}, T=3)
    a = branch_and_bound(store, P31, k=3)
    b = branch_and_bound(store, P31, k=3)
    assert a.chosen_set == b.chosen_set
    assert a.objective == b.objective
    assert a.expansions == b.expansions
    assert a.bound_calls == b.bound_calls


def test_progressive_close_to_plain_bab_at_scale():
    g = barabasi_albert_graph(300, 3, seed=2)
    store = build_sample_store(g, set(range(10)), SampleConfig(T=4, X=80, seed=1))
    limits = SolverLimits(node_expansion_cap=20)
    bab = branch_and_bound(store, P31, k=8, limits=limits)
    pro = branch_and_bound(store, P31, k=8, estimator="pro", rho=0.1,
                           limits=limits)
    assert pro.objective >= 0.9 * bab.objective


def test_run_solver_dispatch():
    store = path_store()
    for algo in ("topk", "greedy", "bab", "probab"):
        report = run_solver(algo, store, P31, k=1)
        assert report.algorithm == algo
        assert len(report.chosen_set) == 1
    with pytest.raises(ValueError):
        run_solver("simulated-annealing", store, P31, k=1)
