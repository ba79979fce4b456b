import dataclasses
import itertools
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rcic.blocking import (
    EnvelopeTable,
    LogisticParams,
    blocking_percentage,
    estimate_envelope_objective,
    estimate_objective,
)
from rcic import solvers
from rcic.exact import (
    ExactStore,
    enumerate_realizations,
    exact_objective,
    exhaustive_optimum,
)
import rcic.sampling
from rcic.sampling import (SampleConfig, SampleStore, WalkIndex,
                           build_sample_store, build_sample_stores)
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
from walk_weight_oracle import PerWalkWeightIndex, per_walk_weights

P31 = LogisticParams(alpha=3.0, beta=1.0)
# P31 plus curves with no tangent from the origin (alpha <= 2) or a tangent
# that passes below f(1) (alpha = 2.1)
ENVELOPE_PARAMS = (P31, LogisticParams(2.1, 1.0), LogisticParams(2.0, 1.0),
                   LogisticParams(1.5, 1.0))
# the benchmark curve: f(1) is far below the hull's chord from the origin
SEARCH_PARAMS = ENVELOPE_PARAMS + (LogisticParams(7.0, 3.0),)


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
                       weights=index.weights_of(index.walk_ids)
                       * walk_gain[index.walk_ids],
                       minlength=index.n_candidates)


def rescan_greedy(index, gain_mat, anchor_set, k, excluded=frozenset()):
    """Reference greedy: every pick rescans every candidate's gain."""
    anchor_counts = index.counts_for(anchor_set)
    counts = anchor_counts.copy()
    in_set = np.zeros(index.n_candidates, dtype=bool)
    for v in anchor_set:
        in_set[index.position(v)] = True
    closed = np.zeros(index.n_candidates, dtype=bool)
    for v in excluded:
        closed[index.position(v)] = True
    for _ in range(k - len(anchor_set)):
        gains = rescan_gains(index, gain_mat, anchor_counts, counts)
        gains[in_set | closed] = -np.inf
        best = int(np.argmax(gains))
        in_set[best] = True
        counts[index.walk_ids[index.indptr[best]:index.indptr[best + 1]]] += 1
    return frozenset(int(v) for v in index.candidates[in_set])


def gain_matrices(index, params):
    table = EnvelopeTable(params, index.max_count)
    return {"greedy": table.gain_table[None, :],
            "envelope": table.env_gain}


def test_incremental_greedy_matches_rescan_on_sampled_stores():
    for store in sampled_ba_stores():
        index = store.index
        mats = gain_matrices(index, P31)
        assert solve_greedy(store, P31, k=12).chosen_set == rescan_greedy(
            index, mats["greedy"], frozenset(), 12)
        anchor = frozenset(int(v) for v in index.candidates[:2])
        # the three highest block-degree nodes outside the anchor
        by_degree = index.candidates[np.argsort(-np.diff(index.indptr),
                                                kind="stable")]
        excluded = frozenset(
            [int(v) for v in by_degree if int(v) not in anchor][:3])
        for anchor_set, excl in itertools.product((frozenset(), anchor),
                                                  (frozenset(), excluded)):
            sam = sam_compute_bound(store, P31, anchor_set, k=12,
                                    excluded=excl)
            assert not sam.completed_set & excl
            assert sam.completed_set == rescan_greedy(
                index, mats["envelope"], anchor_set, 12, excl)


def test_incremental_greedy_matches_rescan_objective_on_tiny_instances():
    # ties between candidates may break differently at the last bit here
    for params, (_, store) in itertools.product(ENVELOPE_PARAMS,
                                                tiny_instances()):
        for k in (1, 2, 3):
            ref = rescan_greedy(store.index, gain_matrices(store.index, params)[
                "greedy"], frozenset(), k)
            assert solve_greedy(store, params, k).objective == pytest.approx(
                estimate_objective(store, params, ref), abs=1e-12)


def covering_anchor(index, share):
    """The fewest highest block-degree candidates whose walks make up `share`
    of the hit walks."""
    covered = np.zeros(index.n_hit_walks, dtype=bool)
    anchor = set()
    for pos in np.argsort(-np.diff(index.indptr), kind="stable"):
        if covered.mean() >= share:
            break
        covered[index.walks_of(int(pos))] = True
        anchor.add(int(index.candidates[pos]))
    return frozenset(anchor)


def step_anchors(index, matrix_name):
    """Anchors to step from: none for greedy's matrix; for the envelope, the
    last candidate and a covering anchor, which puts most hit walks in
    refresh_gains' correction term rather than its base."""
    if matrix_name == "greedy":
        return [frozenset()]
    return [frozenset({int(index.candidates[-1])}), covering_anchor(index, 0.8)]


def step_budget(index, anchor):
    return min(max(6, len(anchor) + 4), index.n_candidates)


def test_incremental_gains_equal_refresh_after_every_step():
    # ExactStore walks carry unequal weights
    stores = [s for _, s in tiny_instances()] + list(sampled_ba_stores())
    for store in stores:
        index = store.index
        for name, mat in gain_matrices(index, P31).items():
            for anchor in step_anchors(index, name):
                k = step_budget(index, anchor)
                state = _GainState(index, mat, anchor, k, ())
                np.testing.assert_allclose(
                    state.gains, rescan_gains(index, mat, state.anchor_counts,
                                              state.counts), rtol=0, atol=1e-12)
                for _ in range(k - len(anchor)):
                    state.greedy_steps(1)
                    incremental = state.gains
                    state.refresh_gains()
                    np.testing.assert_allclose(incremental, state.gains,
                                               rtol=0, atol=1e-12)
                    np.testing.assert_allclose(
                        state.gains, rescan_gains(index, mat,
                                                  state.anchor_counts,
                                                  state.counts),
                        rtol=0, atol=1e-12)
                    # carry on from the incremental vector so errors accumulate
                    state.gains = incremental


def unfiltered_greedy_step(state):
    """One greedy step that scatters every walk of the added node, unchanged
    unit gains included: the oracle for `greedy_steps`' scatter.  Returns
    how many of those walks' unit gains did not change."""
    pos = int(np.argmax(np.where(state.addable, state.gains, -np.inf)))
    walks = state.index.walks_of(pos)
    before = state._unit_gains(walks)
    state.add(pos)
    delta = state._unit_gains(walks) - before
    state.gains += state._scatter(walks, state.index.weights_of(walks) * delta)
    return int(np.count_nonzero(delta == 0))


def test_gain_scatter_without_unchanged_walks_is_exact():
    # greedy_steps scatters only the walks whose unit gain moved; the gains
    # must equal the full scatter's bit for bit, not merely within rounding
    stores = [s for _, s in tiny_instances()] + list(sampled_ba_stores())
    skipped = 0
    for store, params in itertools.product(stores, (P31, LogisticParams(7.0, 3.0))):
        index = store.index
        for name, mat in gain_matrices(index, params).items():
            for anchor in step_anchors(index, name):
                k = step_budget(index, anchor)
                state = _GainState(index, mat, anchor, k, ())
                oracle = _GainState(index, mat, anchor, k, ())
                for _ in range(k - len(anchor)):
                    state.greedy_steps(1)
                    skipped += unfiltered_greedy_step(oracle)
                    assert np.array_equal(state.in_set, oracle.in_set)
                    assert np.array_equal(state.gains, oracle.gains)
    # the envelope is linear up to its tangent point: there were walks to skip
    assert skipped > 0


def star_store():
    # rumor at leaf 3, one step: only the hub ever appears in a hit prefix
    star = Graph([[1, 2, 3], [0], [0], [0]], directed=False)
    return ExactStore(star, {3}, T=1)


def test_bound_calls_read_only_the_sets_walks(monkeypatch):
    # after every add the touched list is exactly the walks of count > 0,
    # and L and B's anchor value, summed over that list, are the true values
    # of the completed set and of the anchor
    def listed(state):
        return np.sort(np.concatenate([np.empty(0, dtype=np.int32),
                                       *state._touched]))

    adds = []
    original_add = _GainState.add

    def checked_add(self, pos):
        result = original_add(self, pos)
        assert np.array_equal(listed(self), np.flatnonzero(self.counts))
        adds.append(pos)
        return result

    step_calls = []
    original_steps = _GainState.greedy_steps

    def recorded_steps(self, rounds):
        step_calls.append(rounds)
        return original_steps(self, rounds)

    monkeypatch.setattr(_GainState, "add", checked_add)
    monkeypatch.setattr(_GainState, "greedy_steps", recorded_steps)
    rng = np.random.default_rng(11)
    stores = ([star_store()] + [s for _, s in tiny_instances()]
              + list(sampled_ba_stores()))
    pro_fallbacks = 0
    for store, params in itertools.product(stores, (P31, LogisticParams(7.0, 3.0))):
        index = store.index
        table = EnvelopeTable(params, index.max_count)
        cands = [int(v) for v in index.candidates]
        for trial in range(6):
            k = min(len(cands), 2 if trial == 0 else int(rng.integers(1, 13)))
            picks = [cands[i] for i in rng.permutation(len(cands))]
            n_anchor = int(rng.integers(0, k + 1))
            n_excluded = int(rng.integers(0, len(cands) - k + 1))
            anchor = frozenset(picks[:n_anchor])
            excluded = frozenset(picks[n_anchor:n_anchor + n_excluded])
            top = _GainState(index, table.env_gain, anchor, k, excluded).top_gains(
                k - len(anchor))
            for estimator in ("sam", "pro"):
                adds.clear()
                step_calls.clear()
                if estimator == "sam":
                    res = sam_compute_bound(store, params, anchor, k,
                                            excluded=excluded)
                else:
                    res = pro_sam_compute_bound(store, params, anchor, k, rho=0.1,
                                                excluded=excluded)
                    pro_fallbacks += bool(step_calls)
                assert len(adds) == k
                assert math.isclose(
                    res.lower, estimate_objective(store, params, res.completed_set),
                    rel_tol=1e-12)
                assert math.isclose(
                    res.upper - top, estimate_objective(store, params, anchor),
                    rel_tol=1e-12)
    # the star's second slot is only reachable by PRO's refresh-plus-greedy
    assert pro_fallbacks > 0


def test_limits_validation():
    SolverLimits()
    SolverLimits(node_expansion_cap=0, wall_time_cap=1.0)
    SolverLimits(node_expansion_cap=np.int64(5))
    # no expansion count reaches a NaN cap, so the search would never stop
    for cap in (-1, 2.5, True, math.nan):
        with pytest.raises(ValueError, match="integers"):
            SolverLimits(node_expansion_cap=cap)
    with pytest.raises(ValueError):
        SolverLimits(wall_time_cap=0.0)
    for cap in (math.nan, True):
        with pytest.raises(ValueError):
            SolverLimits(wall_time_cap=cap)


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
        for k in (0, 2.5, 1.0, True, math.nan):
            with pytest.raises(ValueError, match="integers"):
                solver(store, P31, k=k)
        with pytest.raises(ValueError):
            solver(store, P31, k=3)
        assert solver(store, P31, k=np.int64(1)).chosen_set == {1}


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
    store = star_store()
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


def test_sam_bound_skips_excluded_nodes():
    res = sam_compute_bound(path_store(), P31, frozenset(), k=1, excluded={1})
    assert res.completed_set == frozenset({0})


def test_sam_bound_validation():
    store = path_store()
    with pytest.raises(ValueError):
        sam_compute_bound(store, P31, {0, 1}, k=1)
    with pytest.raises(ValueError):
        sam_compute_bound(store, P31, frozenset(), k=2, excluded={1})


def test_pro_bound_matches_sam_at_k1():
    for _, store in tiny_instances():
        sam = sam_compute_bound(store, P31, frozenset(), k=1)
        pro = pro_sam_compute_bound(store, P31, frozenset(), k=1, rho=0.1)
        assert pro.completed_set == sam.completed_set
        assert pro.lower == pytest.approx(sam.lower, abs=1e-12)


def test_pro_and_sam_bounds_are_one_quantity():
    # both sum the same k - |anchor| largest initial gains: equal bit for bit
    rng = np.random.default_rng(5)
    stores = [s for _, s in tiny_instances()] + list(sampled_ba_stores())
    for store, params in itertools.product(stores, (P31, LogisticParams(7.0, 3.0))):
        cands = [int(v) for v in store.index.candidates]
        for _ in range(8):
            k = int(rng.integers(1, min(len(cands), 12) + 1))
            picks = [cands[i] for i in rng.permutation(len(cands))]
            n_anchor = int(rng.integers(0, k + 1))
            n_excluded = int(rng.integers(0, len(cands) - k + 1))
            anchor = frozenset(picks[:n_anchor])
            excluded = frozenset(picks[n_anchor:n_anchor + n_excluded])
            sam = sam_compute_bound(store, params, anchor, k, excluded=excluded)
            pro = pro_sam_compute_bound(store, params, anchor, k, rho=0.1,
                                        excluded=excluded)
            assert pro.upper == sam.upper
            assert pro.first_added == sam.first_added


def test_pro_bound_outputs_valid_completion():
    for _, store in tiny_instances():
        pro = pro_sam_compute_bound(store, P31, frozenset(), k=3, rho=0.5)
        assert len(pro.completed_set) == 3
        assert pro.upper >= pro.lower - 1e-12


def test_pro_bound_needs_positive_rho():
    for rho in (0.0, math.nan, True):
        with pytest.raises(ValueError):
            pro_sam_compute_bound(path_store(), P31, frozenset(), k=1, rho=rho)


def test_pro_bound_saves_gain_evaluations():
    g = barabasi_albert_graph(200, 3, seed=1)
    store = build_sample_store(g, {0, 1, 2, 3, 4}, SampleConfig(T=4, X=100, seed=0))
    sam = sam_compute_bound(store, P31, frozenset(), k=10)
    pro = pro_sam_compute_bound(store, P31, frozenset(), k=10, rho=0.1)
    assert pro.gain_evals < sam.gain_evals
    assert len(pro.completed_set) == 10


def test_pro_bound_accepts_its_top_node_without_reevaluating_it(monkeypatch):
    # until the first add every current gain is its initial gain
    calls = []
    for name in ("gain_of", "add"):
        original = getattr(_GainState, name)

        def recording(self, pos, _name=name, _original=original):
            calls.append(_name)
            return _original(self, pos)

        monkeypatch.setattr(_GainState, name, recording)
    store = next(sampled_ba_stores())
    pro = pro_sam_compute_bound(store, P31, frozenset(), k=5, rho=0.1)
    assert len(pro.completed_set) == 5
    assert calls[0] == "add"
    assert "gain_of" in calls


def test_branch_and_bound_finds_optimum():
    # a root bound below the optimum prunes it at k=2 on graph seeds 0
    # (alpha 2 and 1.5) and 5 (alpha 1.5), where greedy misses it
    for params, (g, store), k in itertools.product(SEARCH_PARAMS,
                                                   tiny_instances(), (2, 3)):
        _, opt = exhaustive_optimum(g, params, {0}, k=k, T=3)
        for estimator, rho in (("sam", 0.1), ("pro", 0.1), ("pro", 0.6)):
            report = branch_and_bound(store, params, k=k, estimator=estimator,
                                      rho=rho)
            assert report.objective == pytest.approx(opt, abs=1e-9)
            assert not report.truncated
            assert report.bound_gap == 1.0
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
    # the unexpanded root is the best open node
    root = sam_compute_bound(path_store(), P31, frozenset(), k=1)
    assert report.bound_gap == pytest.approx(root.upper / report.objective)
    assert report.bound_gap > 1.0


def test_truncated_search_over_a_zero_incumbent_has_an_unbounded_gap():
    # f(1) underflows to 0.0 (exp(710) overflows) while f(2) = 4.5e-5: greedy's
    # single node blocks nothing, yet the open root bound is positive
    params = LogisticParams(1410.0, 700.0)
    for estimator in ("sam", "pro"):
        report = branch_and_bound(path_store(), params, k=1, estimator=estimator,
                                  limits=SolverLimits(node_expansion_cap=0))
        assert report.truncated
        assert report.objective == 0.0
        assert report.bound_gap == math.inf
        closed = branch_and_bound(path_store(), params, k=1, estimator=estimator)
        assert closed.objective == 0.0
        assert closed.bound_gap == 1.0


def test_solvers_on_a_store_that_no_walk_hits():
    # node 3 has no in-arc, so no walk reaches the rumor; walks from 0, 1
    # and 2 end at the dead end 2 (the DEAD sink)
    g = Graph([[1], [2], [], [0]], directed=True)
    store = build_sample_store(g, {3}, SampleConfig(T=4, X=20))
    assert store.index.influenced_mass == 0.0
    assert blocking_percentage(store, P31, {0}) == 0.0
    for algo in ("topk", "greedy", "bab", "probab"):
        report = run_solver(algo, store, P31, k=2)
        assert report.objective == 0.0
        assert report.blocking_percentage == 0.0
        if algo in ("bab", "probab"):
            assert not report.truncated
            assert report.bound_gap == 1.0


def test_branch_and_bound_time_cap_truncates():
    report = branch_and_bound(path_store(), P31, k=1,
                              limits=SolverLimits(wall_time_cap=1e-9))
    assert report.truncated


def test_branch_and_bound_progressive_estimator():
    for params, (g, store) in itertools.product(ENVELOPE_PARAMS,
                                                tiny_instances()):
        report = branch_and_bound(store, params, k=2, estimator="pro",
                                  rho=0.1)
        _, opt = exhaustive_optimum(g, params, {0}, k=2, T=3)
        assert report.algorithm == "probab"
        assert report.objective == pytest.approx(opt, abs=1e-9)


def test_branch_and_bound_validation():
    store = path_store()
    with pytest.raises(ValueError):
        branch_and_bound(store, P31, k=1, estimator="magic")


def test_progressive_search_checks_rho_before_any_work(monkeypatch):
    def no_greedy(*args, **kwargs):
        raise AssertionError("solve_greedy ran before rho was checked")

    monkeypatch.setattr(solvers, "solve_greedy", no_greedy)
    for rho in (0.0, math.nan):
        with pytest.raises(ValueError, match="rho"):
            branch_and_bound(path_store(), P31, k=1, estimator="pro", rho=rho)


def test_branch_and_bound_takes_a_greedy_incumbent(monkeypatch):
    # a shared greedy report seeds the search as its own greedy run would,
    # and the report still counts that greedy's time and gain evaluations
    exact = ExactStore(gnp_graph(9, 0.4, seed=5), {0, 1}, T=3)
    sampled = next(sampled_ba_stores())
    cut_by_time = 0
    for store, k, estimator in itertools.product((exact, sampled), (2, 4),
                                                 ("sam", "pro")):
        limits = SolverLimits(node_expansion_cap=4)
        own = branch_and_bound(store, P31, k, estimator=estimator, limits=limits)
        # a greedy that took 1000 s: the search's time and its cap count it
        greedy = dataclasses.replace(solve_greedy(store, P31, k), wall_time=1e3)
        with monkeypatch.context() as m:
            m.setattr(solvers, "solve_greedy", None)  # must not be called
            shared = branch_and_bound(store, P31, k, estimator=estimator,
                                      limits=limits, incumbent=greedy)
            capped = branch_and_bound(store, P31, k, estimator=estimator,
                                      limits=SolverLimits(wall_time_cap=500.0),
                                      incumbent=greedy)
        assert shared.wall_time >= 1e3
        assert (dataclasses.replace(shared, wall_time=0.0)
                == dataclasses.replace(own, wall_time=0.0))
        # the root was open iff the node-capped run expanded it
        assert capped.expansions == 0
        assert capped.truncated == (own.expansions > 0)
        cut_by_time += capped.truncated
    assert cut_by_time > 0
    with pytest.raises(ValueError, match="incumbent"):
        branch_and_bound(path_store(), P31, k=2,
                         incumbent=solve_greedy(path_store(), P31, k=1))


def one_k_set(store, k, anchor, excluded):
    """Whether the subtree of search node (anchor, excluded) holds one k-set:
    the anchor holds k nodes, or the pool holds the k - |anchor| missing."""
    return len(anchor) == k or store.index.n_candidates - len(excluded) == k


def recorded_search(monkeypatch, store, params, k, estimator, limits=None):
    """Run one search; return its report, its visits as (P', E, B) in visit
    order, and its completions as (P', E, bound result) in call order.  A
    popped node is rebuilt inside its completion, which is not a visit; a
    node whose subtree holds one k-set is built inside its completion at its
    visit."""
    visits, completions, completing = [], [], []
    original_init = solvers._SearchNode.__init__

    def recording_init(self, store_, params_, anchor_set, k_, excluded):
        original_init(self, store_, params_, anchor_set, k_, excluded)
        anchor, excluded = frozenset(anchor_set), frozenset(excluded)
        if not completing or one_k_set(store_, k_, anchor, excluded):
            visits.append((anchor, excluded, self.upper))

    name = "sam_compute_bound" if estimator == "sam" else "pro_sam_compute_bound"
    original = getattr(solvers, name)

    def recording(*args, excluded, **kwargs):
        completing.append(True)
        try:
            res = original(*args, excluded=excluded, **kwargs)
        finally:
            completing.pop()
        completions.append((frozenset(args[2]), frozenset(excluded), res))
        return res

    with monkeypatch.context() as m:
        m.setattr(solvers._SearchNode, "__init__", recording_init)
        m.setattr(solvers, name, recording)
        report = branch_and_bound(store, params, k=k, estimator=estimator,
                                  limits=limits)
    return report, visits, completions


def test_branch_and_bound_search_nodes_complete_within_their_pool(
        monkeypatch):
    for estimator, params, (g, store), k in itertools.product(
            ("sam", "pro"), SEARCH_PARAMS, tiny_instances(), (2, 3)):
        realizations = enumerate_realizations(g, {0}, 3)
        report, visits, completions = recorded_search(monkeypatch, store, params,
                                                      k, estimator)
        assert report.bound_calls == len(visits) == 1 + 2 * report.expansions
        for i, (anchor, excluded, upper) in enumerate(visits):
            assert not anchor & excluded
            # visit i comes after (i + 1) // 2 expansions, and each
            # expansion moves one node into the anchor or excluded set
            assert len(anchor) + len(excluded) <= (i + 1) // 2
            # the bound covers every k-set of the node's subtree
            pool = [int(v) for v in store.index.candidates
                    if int(v) not in anchor | excluded]
            subtree_opt = max(
                exact_objective(g, params, {0}, anchor | set(extra), 3,
                                realizations)
                for extra in itertools.combinations(pool, k - len(anchor)))
            assert upper >= subtree_opt - 1e-12
        for anchor, excluded, res in completions:
            assert len(res.completed_set) == k
            assert anchor <= res.completed_set
            assert not excluded & res.completed_set


def test_search_takes_every_one_set_subtree_at_its_visit(monkeypatch):
    # such a node is never queued, so its visit is the search's only look
    # at its set: both kinds (a full anchor, and a pool of exactly the
    # missing nodes) must be completed there.  At k=4 on the last graph the
    # optimum, 0.40039 at (7,3), lies only in a pool-kind subtree: a search
    # that drops those nodes returns 0.39634.
    cases = [(store, k) for (_, store), k in
             itertools.product(tiny_instances(), (2, 3))]
    cases.append((ExactStore(gnp_graph(7, 0.5, seed=12), {0}, T=3), 4))
    kinds = set()
    for estimator, params, (store, k) in itertools.product(
            ("sam", "pro"), SEARCH_PARAMS, cases):
        report, visits, completions = recorded_search(monkeypatch, store, params,
                                                      k, estimator)
        completed = {(anchor, excluded): res
                     for anchor, excluded, res in completions}
        for anchor, excluded, _ in visits:
            if not one_k_set(store, k, anchor, excluded):
                continue
            only = anchor if len(anchor) == k else frozenset(
                int(v) for v in store.index.candidates if int(v) not in excluded)
            assert (estimate_objective(store, params, only)
                    <= report.objective + 1e-12)
            assert completed[anchor, excluded].completed_set == only
            kinds.add("anchor" if len(anchor) == k else "pool")
    assert kinds == {"anchor", "pool"}


def test_capped_search_completes_each_popped_node_once(monkeypatch):
    # a visit only bounds its node; the completion runs when it is popped
    popped = []
    original_pop = solvers.heapq.heappop

    def recording_pop(heap):
        entry = original_pop(heap)
        popped.append((entry[2], entry[3]))  # the entry's (P', E)
        return entry

    monkeypatch.setattr(solvers.heapq, "heappop", recording_pop)
    store = next(sampled_ba_stores())
    for estimator, params, cap in itertools.product(
            ("sam", "pro"), (P31, LogisticParams(7.0, 3.0)), (5, 20)):
        popped.clear()
        report, visits, completions = recorded_search(
            monkeypatch, store, params, 10, estimator,
            SolverLimits(node_expansion_cap=cap))
        assert report.truncated and report.expansions == cap
        assert [(anchor, excluded) for anchor, excluded, _ in completions] == popped
        assert len(completions) == cap < len(visits) == report.bound_calls


def test_sam_and_pro_search_one_tree(monkeypatch):
    # both estimators share B and the branch node: every visit and every
    # completion sees the same search node, and only the completed sets
    # (the incumbents) may differ
    def search(store, params, k, estimator, limits):
        report, visits, completions = recorded_search(monkeypatch, store, params,
                                                      k, estimator, limits)
        return (visits,
                [(anchor, excluded, res.upper, res.first_added)
                 for anchor, excluded, res in completions],
                (report.expansions, report.bound_calls, report.bound_gap))

    cases = [(store, params, k, None) for params, (_, store), k in
             itertools.product(SEARCH_PARAMS, tiny_instances(), (2, 3))]
    store = next(sampled_ba_stores())
    cases += [(store, params, 10, SolverLimits(node_expansion_cap=cap))
              for params in (P31, LogisticParams(7.0, 3.0)) for cap in (5, 20)]
    for store, params, k, limits in cases:
        sam = search(store, params, k, "sam", limits)
        pro = search(store, params, k, "pro", limits)
        assert sam == pro
        assert len(sam[0]) == sam[2][1]


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
        assert (report.bound_gap is None) == (algo in ("topk", "greedy"))
    with pytest.raises(ValueError):
        run_solver("simulated-annealing", store, P31, k=1)


@pytest.mark.parametrize("bad", [1.9, 5.7, True])
def test_node_ids_follow_the_count_rule(bad):
    # a node id is an integer >= 0 wherever it enters, as a count setting
    # is: int() would read 1.9 and 5.7 as nodes 1 and 5, and True as node 1
    g = barabasi_albert_graph(30, 2, seed=1)
    cfg = SampleConfig(T=3, X=20, seed=1)
    store = build_sample_store(g, {0, 2}, cfg)
    small = gnp_graph(6, 0.6, seed=2)
    entries = {
        "build_sample_store": lambda v: build_sample_store(g, {0, v}, cfg),
        "build_sample_stores": lambda v: build_sample_stores(
            g, [({0}, cfg), ({0, v}, cfg)]),
        "SampleStore": lambda v: SampleStore(
            cfg, g.n, {0, v}, np.zeros(0, dtype=np.uint8),
            np.zeros(g.n - 2, dtype=np.uint8),
            np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.uint8)),
        "position": lambda v: store.index.position(v),
        "estimate_objective": lambda v: estimate_objective(store, P31, {v}),
        "sam_compute_bound": lambda v: sam_compute_bound(store, P31, {v}, 3),
        "pro_sam_compute_bound": lambda v: pro_sam_compute_bound(
            store, P31, {v}, 3, rho=0.1),
        "ExactStore": lambda v: ExactStore(small, {0, v}, T=2),
        "enumerate_realizations": lambda v: enumerate_realizations(small, {v}, 2),
        "exact_objective_rumor": lambda v: exact_objective(
            small, P31, {v}, {3}, 2),
        "exact_objective_P": lambda v: exact_objective(small, P31, {0}, {v}, 2),
        "exhaustive_optimum": lambda v: exhaustive_optimum(small, P31, {v}, 1, 2),
    }
    message = re.escape(f"node takes integers >= 0, got {bad!r}")
    for name, entry in entries.items():
        with pytest.raises(ValueError, match=message):
            entry(bad)
        entry(np.int64(5))  # NumPy integers still count
    assert estimate_objective(store, P31, {np.int64(5)}) == estimate_objective(
        store, P31, {5})
    assert sam_compute_bound(store, P31, {np.int64(5)}, 3) == sam_compute_bound(
        store, P31, {5}, 3)


def test_counts_above_255_hold_in_two_bytes():
    # one hit walk whose prefix holds all 300 candidates: a one-byte count
    # would wrap at 256, and read 260 nodes of the set as 4
    index = WalkIndex(301, {300}, [0, 300], np.arange(300), [1], [0.25])
    store = SimpleNamespace(index=index)
    assert index.max_count == 300
    counts = index.counts_for(range(260))
    assert counts.dtype == np.uint16 and counts.tolist() == [260]
    assert index.counts_for(range(300)).tolist() == [300]
    params = LogisticParams(alpha=100.0, beta=0.5)  # f(4) ~ 1e-43, f(260) ~ 1
    value = 0.25 / (1.0 + math.exp(100.0 - 0.5 * 260))
    assert estimate_objective(store, params, range(260)) == pytest.approx(
        value, rel=1e-12)
    greedy = solve_greedy(store, params, 260)
    assert greedy.chosen_set == frozenset(range(260))
    assert greedy.objective == pytest.approx(value, rel=1e-12)
    # L, the completed set's true value, reads the gain state's counts
    assert sam_compute_bound(store, params, set(), 260).lower == pytest.approx(
        value, rel=1e-12)


def test_objective_and_gain_state_hold_about_two_bytes_per_hit_walk(
        monkeypatch):
    block = 1 << 10
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", block)
    store = build_sample_store(barabasi_albert_graph(2000, 3, seed=7),
                               set(range(5)), SampleConfig(T=6, X=100, seed=3))
    index = store.index
    assert index.n_hit_walks > 4 * block and index.count_dtype == np.uint8
    index.hit_mass  # cached on the index on first use, not a run's scratch
    table = EnvelopeTable(P31, index.max_count)
    top = index.candidates[np.argsort(-np.diff(index.indptr))[:20]]

    def peak_of(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a block's values, a block of weights gathered for a walk list, and a
    # few arrays over the candidates; at 4-byte counts and one float64 value
    # per hit walk the objective would take 12 bytes per hit walk
    allowance = 4 * 8 * block + 4 * 8 * index.n_candidates
    bound = 2 * index.n_hit_walks + allowance
    # counted from the forward CSR, then from the inverted lists, placed
    # outside the measured runs
    assert "walk_ids" not in vars(index)
    assert peak_of(lambda: estimate_objective(store, P31, top)) < bound
    assert "walk_ids" not in vars(index)
    index.walk_ids
    assert peak_of(lambda: estimate_objective(store, P31, top)) < bound
    assert peak_of(lambda: _GainState(index, table.env_gain, frozenset(), 20,
                                      frozenset())) < bound


@pytest.mark.parametrize("case", ["sampled", "exact"])
def test_group_weights_keep_the_bits_of_per_walk_weights(monkeypatch, case):
    # every reader gathers its walks' weights through their groups, then does
    # the arithmetic a float64 per hit walk did, so every value keeps its bits
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 1 << 5)
    if case == "sampled":  # groups are starts, one weight 1/X
        store = build_sample_store(barabasi_albert_graph(300, 3, seed=2),
                                   set(range(5)), SampleConfig(T=5, X=20, seed=1))
        assert store.index.group_sizes.max() > 1
    else:  # a group of one per realization, each its own probability
        store = ExactStore(gnp_graph(8, 0.5, seed=1), {3}, T=5)
        assert np.unique(store.index.group_weights).size > 1
    index = store.index
    assert index.n_hit_walks > 4 * (1 << 5)
    oracle = SimpleNamespace(index=PerWalkWeightIndex(
        index, per_walk_weights(store)))
    params = LogisticParams(alpha=3.0, beta=1.0)
    table = EnvelopeTable(params, index.max_count)
    rng = np.random.default_rng(4)
    sets = [frozenset(rng.choice(index.candidates, size=m, replace=False).tolist())
            for m in (0, 1, 2, 5)]

    assert index.hit_mass.tobytes() == oracle.index.hit_mass.tobytes()
    for P in sets:
        assert (estimate_objective(store, params, P).hex()
                == estimate_objective(oracle, params, P).hex())
    for anchor in sets[:3]:
        states = [_GainState(s.index, table.env_gain, anchor, 6, frozenset())
                  for s in (store, oracle)]
        # the gains of a fresh state are `refresh_gains`' output
        assert states[0].gains.tobytes() == states[1].gains.tobytes()
        for pos in range(index.n_candidates):
            assert states[0].gain_of(pos).hex() == states[1].gain_of(pos).hex()
        # greedy steps' scattered gains, then a refresh of them
        for step in (lambda state: state.greedy_steps(3), _GainState.refresh_gains):
            for state in states:
                step(state)
            assert np.array_equal(states[0].in_set, states[1].in_set)
            assert states[0].gains.tobytes() == states[1].gains.tobytes()
    runs = [solve_greedy(s, params, 6) for s in (store, oracle)]
    assert runs[0].chosen_set == runs[1].chosen_set
    assert runs[0].objective.hex() == runs[1].objective.hex()


@pytest.mark.parametrize("threads", [1, 2])
def test_topk_places_no_inverted_lists_and_greedy_does(threads):
    # topk reads the block degrees and one objective, neither of which needs
    # the inverted lists; greedy's gains read them.  Two builds of one key
    # are bit-identical, so either path's objective is compared on the other.
    g, rumor = barabasi_albert_graph(300, 3, seed=2), set(range(5))
    cfg = SampleConfig(T=5, X=40, seed=1)
    lazy, placed = (build_sample_store(g, rumor, cfg, threads=threads)
                    for _ in range(2))
    size = lazy.store_bytes
    topk = solve_topk(lazy, P31, 10)
    assert "walk_ids" not in vars(lazy.index)
    greedy = solve_greedy(placed, P31, 10)
    assert "walk_ids" in vars(placed.index)
    assert placed.store_bytes == lazy.store_bytes == size
    again = solve_topk(placed, P31, 10)
    assert again == dataclasses.replace(topk, wall_time=again.wall_time)
    assert estimate_objective(lazy, P31, greedy.chosen_set) == greedy.objective
    assert "walk_ids" not in vars(lazy.index)
