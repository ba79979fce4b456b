import dataclasses
import gc
import io
import json
import math
import weakref

import numpy as np
import pytest

import rcic.bench
import rcic.sampling
from rcic.bench import (
    ExperimentConfig,
    ReportRow,
    generate_rumor_set,
    read_rows,
    run_experiment,
    run_on_graph,
    run_scalability,
    write_rows,
)
from rcic.blocking import LogisticParams
from rcic.graph import bfs_subgraph, dump_edge_list, load_edge_list, top_decile_nodes
from rcic.sampling import SampleConfig, build_sample_store, hoeffding_sample_size
from rcic.solvers import run_solver
from rcic.synth import barabasi_albert_graph


def small_graph():
    return barabasi_albert_graph(60, 2, seed=3)


def base_config(**overrides):
    kwargs = dict(graph_path="unused", algorithms=("topk", "greedy"), k=3,
                  rumor_size=4, rumor_seed=1, T=3, alpha=3.0, beta=1.0, X=50,
                  seed=0)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_generate_rumor_set_is_deterministic_and_nested():
    g = barabasi_albert_graph(100, 3, seed=2)
    decile = set(top_decile_nodes(g))
    r5 = generate_rumor_set(g, 5, seed=9)
    assert r5 == generate_rumor_set(g, 5, seed=9)
    assert r5 <= decile
    assert len(r5) == 5
    # growing the size with the same seed only adds nodes
    assert r5 <= generate_rumor_set(g, 8, seed=9)
    assert r5 != generate_rumor_set(g, 5, seed=10)


def test_generate_rumor_set_size_limits():
    g = barabasi_albert_graph(100, 3, seed=2)
    # a float size used to fail as a slice index; seed True ran as seed 1
    for size, seed in ((0, 0), (2.5, 0), (5.0, 0), (True, 0), (math.nan, 0),
                       (5, -1), (5, 2.5), (5, True)):
        with pytest.raises(ValueError, match="integers"):
            generate_rumor_set(g, size, seed=seed)
    assert (generate_rumor_set(g, np.int64(5), np.int64(9))
            == generate_rumor_set(g, 5, seed=9))
    with pytest.raises(ValueError):
        generate_rumor_set(g, 11, seed=0)  # decile holds 10 nodes


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(algorithms=("topk", "magic"))
    with pytest.raises(ValueError):
        base_config(algorithms=())
    with pytest.raises(ValueError):
        base_config(sweep_axis="T")
    with pytest.raises(ValueError):
        base_config(sweep_values=(1.0,))
    with pytest.raises(ValueError):
        base_config(sweep_axis="gamma", sweep_values=(1.0,))
    with pytest.raises(ValueError):
        base_config(sweep_axis="T", sweep_values=())
    with pytest.raises(ValueError):
        base_config(epsilon=0.1)


def test_config_rejects_fractional_integer_sweep_values():
    for axis in ("k", "rumor_size", "T", "X"):
        with pytest.raises(ValueError, match="integers"):
            base_config(sweep_axis=axis, sweep_values=(2.0, 2.7))
    assert base_config(sweep_axis="T", sweep_values=(2.0, 3.0)).sweep_values \
        == (2.0, 3.0)
    assert base_config(sweep_axis="alpha", sweep_values=(2.7,)).sweep_axis \
        == "alpha"


def test_config_rejects_an_x_sweep_when_epsilon_derives_x():
    # with epsilon and delta every point would run at the derived X under
    # the swept X's label
    with pytest.raises(ValueError, match="derive X"):
        base_config(epsilon=0.2, delta=0.1, sweep_axis="X",
                    sweep_values=(50.0, 500.0))
    assert base_config(epsilon=0.2, delta=0.1, sweep_axis="T",
                       sweep_values=(2.0, 3.0)).sweep_axis == "T"


def test_config_rejects_thread_counts_below_one():
    for threads in (0, -2, 1.5, True, math.nan):
        with pytest.raises(ValueError, match="threads"):
            base_config(threads=threads)
    assert base_config(threads=np.int64(2)).threads == 2


def test_run_on_graph_basic_rows():
    g = small_graph()
    rows = run_on_graph(g, base_config())
    assert [r.algorithm for r in rows] == ["topk", "greedy"]
    for row in rows:
        assert row.status == "ok"
        assert row.chosen_size == 3
        chosen = [int(v) for v in row.chosen_set.split("|")]
        assert chosen == sorted(chosen)
        assert all(0 <= v < g.n for v in chosen)
        assert row.objective > 0.0
        assert 0.0 <= row.blocking_pct < 1.0
        assert row.X == 50
        assert row.sweep_axis == "" and row.sweep_value == ""
        assert row.fraction == 1.0


def test_run_on_graph_rows_match_direct_solving():
    g = small_graph()
    config = base_config()
    rows = run_on_graph(g, config)
    rumor = generate_rumor_set(g, config.rumor_size, config.rumor_seed)
    store = build_sample_store(g, rumor,
                               SampleConfig(T=config.T, X=config.X,
                                            seed=config.seed))
    params = LogisticParams(config.alpha, config.beta)
    for row in rows:
        report = run_solver(row.algorithm, store, params, config.k)
        assert row.objective == report.objective
        assert row.chosen_set == "|".join(
            str(v) for v in sorted(report.chosen_set))
        assert row.influenced_mass == store.index.influenced_mass
        assert row.store_bytes == store.store_bytes


def test_run_on_graph_runs_one_greedy_per_sweep_point(monkeypatch):
    # the point's greedy row seeds bab and probab; a search that runs before
    # the greedy row computes its own, with the same rows either way
    g = small_graph()
    original = rcic.solvers.solve_greedy
    greedy_ks = []

    def counting(store, params, k):
        greedy_ks.append(k)
        return original(store, params, k)

    monkeypatch.setattr(rcic.solvers, "solve_greedy", counting)
    sweep = dict(sweep_axis="k", sweep_values=(2.0, 3.0), node_cap=4)
    shared = run_on_graph(g, base_config(
        algorithms=("topk", "greedy", "bab", "probab"), **sweep))
    assert greedy_ks == [2, 3]
    greedy_ks.clear()
    own = run_on_graph(g, base_config(algorithms=("bab", "probab", "greedy"),
                                      **sweep))
    assert greedy_ks == [2, 2, 2, 3, 3, 3]

    def stable(row):
        return dataclasses.replace(row, wall_time_ms=0, peak_mem_mb=None)

    by_key = {(r.sweep_value, r.algorithm): stable(r) for r in own}
    compared = [r for r in shared if r.algorithm != "topk"]
    assert len(compared) == len(by_key) == 6
    for row in compared:
        assert stable(row) == by_key[row.sweep_value, row.algorithm]


def test_run_on_graph_sweep_reuses_consistent_stores(monkeypatch):
    g = small_graph()
    passes, built, _ = track_store_builds(monkeypatch)
    rows = run_on_graph(g, base_config(algorithms=("greedy",),
                                       sweep_axis="alpha",
                                       sweep_values=(3.0, 7.0)))
    assert [r.sweep_value for r in rows] == ["3", "7"]
    # same store both points: only the logistic changed
    assert passes == [1] and len(built) == 1
    rumor = generate_rumor_set(g, 4, 1)
    store = build_sample_store(g, rumor, SampleConfig(T=3, X=50, seed=0))
    for row, alpha in zip(rows, (3.0, 7.0)):
        report = run_solver("greedy", store, LogisticParams(alpha, 1.0), 3)
        assert row.objective == report.objective


def track_store_builds(monkeypatch):
    """Wrap the walk pass and the store build where `build_sample_stores`
    calls them.  Returns the rumor-set count of each pass, weak references
    to the stores built, and how many earlier stores were alive as each
    store was built."""
    passes, built, alive_at_build = [], [], []
    sample_hit_rows = rcic.sampling._sample_hit_rows
    sample_store = rcic.sampling.SampleStore

    def tracking_pass(g, rumors, cfg, threads):
        passes.append(len(rumors))
        return sample_hit_rows(g, rumors, cfg, threads)

    def tracking_store(*args, **kwargs):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in built))
        store = sample_store(*args, **kwargs)  # builds the store's index
        built.append(weakref.ref(store))
        return store

    monkeypatch.setattr(rcic.sampling, "_sample_hit_rows", tracking_pass)
    monkeypatch.setattr(rcic.sampling, "SampleStore", tracking_store)
    return passes, built, alive_at_build


def test_run_on_graph_frees_each_store_before_the_next(monkeypatch):
    passes, built, alive_at_build = track_store_builds(monkeypatch)
    run_on_graph(small_graph(), base_config(algorithms=("topk",),
                                            sweep_axis="T",
                                            sweep_values=(2.0, 3.0, 4.0)))
    assert passes == [1, 1, 1]
    assert len(built) == 3
    assert alive_at_build == [0, 0, 0]


@pytest.mark.parametrize("values, epsilon, passes", [
    ((2.0, 4.0, 6.0), None, [3]),  # nested sets: one pass for three points
    ((6.0, 2.0, 4.0), None, [1, 2]),  # a shrinking set starts a new pass
    # epsilon and delta derive X from |R|, so each point samples on its own
    ((1.0, 6.0), 0.05, [1, 1]),
], ids=["nested", "shrinking", "hoeffding"])
def test_run_on_graph_samples_nested_rumor_sets_in_one_pass(monkeypatch, values,
                                                            epsilon, passes):
    sizes, built, alive_at_build = track_store_builds(monkeypatch)
    run_on_graph(small_graph(), base_config(
        algorithms=("topk",), sweep_axis="rumor_size", sweep_values=values,
        epsilon=epsilon, delta=None if epsilon is None else 0.1))
    assert sizes == passes
    assert len(built) == len(values)
    assert alive_at_build == [0] * len(values)


def test_run_on_graph_rumor_sweep_matches_separate_stores():
    g = small_graph()
    rows = run_on_graph(g, base_config(algorithms=("greedy",),
                                       sweep_axis="rumor_size",
                                       sweep_values=(2.0, 4.0, 6.0)))
    for row, size in zip(rows, (2, 4, 6)):
        store = build_sample_store(g, generate_rumor_set(g, size, 1),
                                   SampleConfig(T=3, X=50, seed=0))
        report = run_solver("greedy", store, LogisticParams(3.0, 1.0), 3)
        assert row.rumor_size == size
        assert row.objective == report.objective
        assert row.influenced_mass == store.index.influenced_mass
        assert row.store_bytes == store.store_bytes


def test_run_on_graph_integer_sweep_axis():
    g = small_graph()
    rows = run_on_graph(g, base_config(algorithms=("topk",), sweep_axis="T",
                                       sweep_values=(2.0, 4.0)))
    assert [r.T for r in rows] == [2, 4]
    assert [r.sweep_value for r in rows] == ["2", "4"]


def test_run_on_graph_resolves_hoeffding_samples():
    g = small_graph()
    rows = run_on_graph(g, base_config(algorithms=("topk",), epsilon=0.2,
                                       delta=0.1))
    expected = hoeffding_sample_size(0.2, 0.1, g.n - 4)
    assert rows[0].X == expected


@pytest.mark.parametrize("overrides", [
    dict(alpha=-1.0),
    dict(node_cap=-1),
    dict(time_cap=0.0),
    dict(sweep_axis="alpha", sweep_values=(3.0, -1.0)),
    dict(sweep_axis="beta", sweep_values=(1.0, 0.0)),
    dict(sweep_axis="T", sweep_values=(2.0, 0.0)),
    dict(sweep_axis="X", sweep_values=(50.0, 0.0)),
    # 60 nodes and a rumor set of 4 leave 56 candidates
    dict(k=0),
    dict(k=57),
    dict(sweep_axis="k", sweep_values=(3.0, 57.0)),
    # the top degree decile of 60 nodes cannot supply 500 rumor nodes
    dict(sweep_axis="rumor_size", sweep_values=(4.0, 500.0)),
    # rho fails before any row, topk's included
    dict(algorithms=("topk", "probab"), rho=math.nan),
    dict(algorithms=("topk", "probab"), sweep_axis="rho", sweep_values=(0.1, 0.0)),
], ids=["alpha", "node_cap", "time_cap", "sweep_alpha", "sweep_beta",
        "sweep_T", "sweep_X", "k0", "k_above_candidates", "sweep_k",
        "sweep_rumor_size", "rho_nan", "sweep_rho"])
def test_run_on_graph_checks_every_sweep_point_before_sampling(monkeypatch,
                                                               overrides):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before every point was checked")

    monkeypatch.setattr(rcic.bench, "build_sample_stores", no_sampling)
    rows = []
    with pytest.raises(ValueError):
        run_on_graph(small_graph(), base_config(**overrides), rows=rows)
    assert rows == []


def test_run_on_graph_checks_counts_before_any_walk_pass(monkeypatch):
    # k=5.0 used to pass the range check, run the walk pass and fail in the
    # first solver; no expansion count reaches a NaN cap, so bab never stopped
    passes, _, _ = track_store_builds(monkeypatch)
    for overrides in (dict(k=5.0), dict(k=True), dict(node_cap=math.nan),
                      dict(rumor_size=4.0), dict(T=2.5), dict(X=math.nan)):
        with pytest.raises(ValueError, match="integers"):
            run_on_graph(small_graph(), base_config(**overrides))
    assert passes == []
    # NumPy integers are counts, and give the rows Python integers give
    counts = dict(k=3, rumor_size=4, rumor_seed=1, T=3, X=50, seed=0,
                  node_cap=2, threads=1)

    def untimed_rows(cast):
        config = base_config(algorithms=("topk", "greedy", "bab"),
                             **{name: cast(v) for name, v in counts.items()})
        return [dataclasses.replace(r, wall_time_ms=0, peak_mem_mb=None)
                for r in run_on_graph(small_graph(), config)]

    numpy_rows = untimed_rows(np.int64)
    assert numpy_rows == untimed_rows(int)
    assert passes == [1, 1]
    assert [r.status for r in numpy_rows] == ["ok"] * 3


def test_run_on_graph_accepts_k_equal_to_the_candidate_count():
    rows = run_on_graph(small_graph(), base_config(algorithms=("topk",), k=56))
    assert [(r.status, r.chosen_size) for r in rows] == [("ok", 56)]


def test_run_on_graph_emits_error_marker(monkeypatch):
    g = small_graph()

    def failing_solver(*args, **kwargs):
        raise ValueError("solver failed")

    # the solver raises after sampling: the row records it
    monkeypatch.setattr(rcic.bench, "run_solver", failing_solver)
    config = base_config(algorithms=("greedy",))
    rows = []
    with pytest.raises(ValueError):
        run_on_graph(g, config, rows=rows)
    assert len(rows) == 1
    assert rows[0].status.startswith("error: ValueError")
    assert rows[0].chosen_set == ""
    # the store was built before the solver raised; its figures are reported
    assert rows[0].influenced_mass > 0.0
    assert rows[0].store_bytes > 0


def test_every_solver_runs_where_the_logistic_underflows():
    # exp(800 - C) overflows a float for every count: every block value is 0.0
    rows = run_on_graph(small_graph(), base_config(
        algorithms=("topk", "greedy", "bab", "probab"), alpha=800.0, beta=1.0))
    assert [r.status for r in rows] == ["ok"] * 4
    assert [r.objective for r in rows] == [0.0] * 4


def test_run_scalability_keeps_earlier_slices_after_a_solver_error(
        tmp_path, monkeypatch):
    graph_path = tmp_path / "graph.txt"
    with graph_path.open("w") as fh:
        dump_edge_list(barabasi_albert_graph(80, 2, seed=5), fh)
    calls = []

    def third_call_fails(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 3:
            raise RuntimeError("solver failed")
        return run_solver(*args, **kwargs)

    monkeypatch.setattr(rcic.bench, "run_solver", third_call_fails)
    config = base_config(graph_path=str(graph_path), algorithms=("topk",),
                         rumor_size=2, k=2)
    rows = []
    with pytest.raises(RuntimeError):
        run_scalability(config, [0.5, 0.75, 1.0], rows)
    assert [r.fraction for r in rows] == [0.5, 0.75, 1.0]
    assert [r.status for r in rows] == [
        "ok", "ok", "error: RuntimeError: solver failed"]
    assert [r.chosen_size for r in rows] == [2, 2, 0]


def test_csv_round_trip(tmp_path):
    g = small_graph()
    rows = run_on_graph(g, base_config(algorithms=("topk", "greedy", "bab")))
    buf = io.StringIO()
    write_rows(rows, buf, "csv")
    text = buf.getvalue()
    assert text.startswith("# experiment report")
    parsed = read_rows(io.StringIO(text))
    assert len(parsed) == len(rows)
    for orig, back in zip(rows, parsed):
        assert back.algorithm == orig.algorithm
        assert back.chosen_set == orig.chosen_set
        assert back.objective == pytest.approx(orig.objective, rel=1e-5)
        assert back.wall_time_ms == orig.wall_time_ms
        assert back.gain_evals == orig.gain_evals
        assert back.influenced_mass == pytest.approx(orig.influenced_mass,
                                                     rel=1e-5)
        assert back.store_bytes == orig.store_bytes > 0
        assert back.bound_gap == (None if orig.bound_gap is None
                                  else pytest.approx(orig.bound_gap, rel=1e-5))
        assert back.truncated == orig.truncated
    assert [r.bound_gap for r in parsed] == [None, None, 1.0]
    assert parsed[1].gain_evals > 0


def test_csv_quotes_awkward_status_text():
    row = ReportRow(algorithm="bab", sweep_axis="", sweep_value="",
                    fraction=1.0, k=2, rumor_size=2, rumor_seed=0, T=3,
                    alpha=3.0, beta=1.0, X=10, rho=0.1, seed=0, chosen_size=0,
                    chosen_set="", objective=0.0, blocking_pct=0.0,
                    influenced_mass=0.0, wall_time_ms=0, peak_mem_mb=None,
                    store_bytes=0, expansions=0,
                    bound_calls=0, gain_evals=0, bound_gap=None,
                    truncated=False,
                    status='error: ValueError: bad, "quoted" value')
    buf = io.StringIO()
    write_rows([row], buf, "csv")
    parsed = read_rows(io.StringIO(buf.getvalue()))
    assert parsed[0].status == row.status
    assert parsed[0].peak_mem_mb is None


def test_json_output():
    g = small_graph()
    rows = run_on_graph(g, base_config())
    buf = io.StringIO()
    write_rows(rows, buf, "json")
    payload = json.loads(buf.getvalue())
    assert len(payload["rows"]) == len(rows)
    assert payload["rows"][0]["algorithm"] == "topk"
    assert payload["rows"][0]["objective"] == rows[0].objective


def test_json_output_is_strict_for_an_infinite_bound_gap():
    # a capped search over a 0.0 incumbent reports bound_gap = inf
    row = dataclasses.replace(run_on_graph(small_graph(), base_config())[0],
                              bound_gap=float("inf"))
    buf = io.StringIO()
    write_rows([row], buf, "json")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(buf.getvalue(), parse_constant=reject)
    assert payload["rows"][0]["bound_gap"] == "inf"
    assert payload["rows"][0]["objective"] == row.objective


def test_read_rows_rejects_foreign_header():
    with pytest.raises(ValueError):
        read_rows(io.StringIO("a,b,c\n1,2,3\n"))
    assert read_rows(io.StringIO("")) == []


def test_run_experiment_writes_report(tmp_path):
    g = small_graph()
    graph_path = tmp_path / "graph.txt"
    with graph_path.open("w") as fh:
        dump_edge_list(g, fh)
    config = base_config(graph_path=str(graph_path))
    rows = run_experiment(config)
    assert [(r.algorithm, r.status, r.chosen_size) for r in rows] == \
        [("topk", "ok", 3), ("greedy", "ok", 3)]
    # the rows go into a caller's list
    earlier = []
    assert run_experiment(config, earlier) is earlier
    assert len(earlier) == 2


def test_run_scalability_slices(tmp_path):
    g = barabasi_albert_graph(80, 2, seed=5)
    graph_path = tmp_path / "graph.txt"
    with graph_path.open("w") as fh:
        dump_edge_list(g, fh)
    config = base_config(graph_path=str(graph_path), algorithms=("topk",),
                         rumor_size=2, k=2)
    rows = run_scalability(config, [0.5, 1.0])
    assert [r.fraction for r in rows] == [0.5, 1.0]
    for row in rows:
        chosen = [int(v) for v in row.chosen_set.split("|")]
        # reported ids live in the full graph's id space
        assert all(0 <= v < g.n for v in chosen)


def _write_relabelled(g, path, label):
    with path.open("w") as fh:
        for u, v in g.edges():
            fh.write(f"{label(u)} {label(v)}\n")


def test_run_scalability_reports_file_ids(tmp_path):
    # file ids 10v+7 keep the order of v, so both files load to the same
    # dense graph and every row differs only in its chosen ids' labels
    g = barabasi_albert_graph(80, 2, seed=5)
    plain, shifted = tmp_path / "plain.txt", tmp_path / "shifted.txt"
    _write_relabelled(g, plain, lambda v: v)
    _write_relabelled(g, shifted, lambda v: 10 * v + 7)
    config = base_config(algorithms=("topk", "greedy"), rumor_size=2, k=2)
    rows_plain = run_scalability(
        dataclasses.replace(config, graph_path=str(plain)), [0.5, 1.0])
    rows_shifted = run_scalability(
        dataclasses.replace(config, graph_path=str(shifted)), [0.5, 1.0])
    assert [r.fraction for r in rows_shifted] == [0.5, 0.5, 1.0, 1.0]
    for a, b in zip(rows_plain, rows_shifted):
        chosen = [int(v) for v in a.chosen_set.split("|")]
        assert b.chosen_set == "|".join(str(10 * v + 7) for v in chosen)
        assert b.objective == a.objective

    with shifted.open() as fh:
        full = load_edge_list(fh)
    half, keep = bfs_subgraph(full, 0, 0.5)
    assert half.original_ids == [10 * v + 7 for v in keep]
    # a slice of a slice still carries the file's ids
    quarter, keep2 = bfs_subgraph(half, 0, 0.5)
    assert quarter.original_ids == [half.original_ids[v] for v in keep2]
    assert all(v % 10 == 7 for v in quarter.original_ids)


def test_run_scalability_fraction_validation(tmp_path):
    config = base_config()
    with pytest.raises(ValueError):
        run_scalability(config, [])
    with pytest.raises(ValueError):
        run_scalability(config, [1.0, 0.5])
    with pytest.raises(ValueError):
        run_scalability(config, [0.0, 1.0])
    with pytest.raises(ValueError):
        run_scalability(config, [0.5, 1.5])
