"""End-to-end acceptance checks for the rumor-containment toolkit.

Each test prints one verdict line (bypassing pytest's capture) so a full run
leaves a compact scoreboard: envelope soundness and submodularity, estimator
exactness, desk-scale optimality, progressive-bound fidelity, benchmark
trends at network scale, determinism, and a handful of pinned unit values.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcic.bench import ExperimentConfig, generate_rumor_set, run_on_graph
from rcic.blocking import (
    LogisticParams,
    estimate_objective,
    logistic_block,
)
from rcic.cli import main
from rcic.exact import (
    ExactStore,
    check_envelope_dominance,
    exact_objective,
    exhaustive_optimum,
    find_submodularity_violation,
)
from rcic.graph import Graph, dump_edge_list
from rcic.sampling import (SampleConfig, build_sample_store, build_sample_stores,
                           hoeffding_sample_size)
from rcic.sampling import _csr_take
from rcic.solvers import SolverLimits, run_solver, solve_greedy, solve_topk
from rcic.synth import barabasi_albert_graph

from paper_tangent import tangent_point

P31 = LogisticParams(alpha=3.0, beta=1.0)
P73 = LogisticParams(alpha=7.0, beta=3.0)

# synthetic stand-in for a Gnutella-sized peer-to-peer topology
BENCH_NODES, BENCH_ATTACH, BENCH_GRAPH_SEED = 8846, 7, 42


@pytest.fixture()
def verdict(capsys):
    # bypass output capture so the per-criterion line always reaches the log
    def emit(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" [{detail}]"
        with capsys.disabled():
            print(line, flush=True)

    return emit


def bench_graph() -> Graph:
    return barabasi_albert_graph(BENCH_NODES, BENCH_ATTACH, BENCH_GRAPH_SEED)


def path3() -> Graph:
    return Graph([[1], [0, 2], [1]], directed=False)


def test_acceptance_1_envelope_soundness(verdict):
    trials = 10_000
    bad = check_envelope_dominance(P31, trials, np.random.default_rng(101))
    verdict(1, "envelope soundness", bad is None, f"{trials} probes")
    assert bad is None, f"envelope failed to dominate: {bad}"


def test_acceptance_2_submodularity(verdict):
    trials = 10_000
    witness = find_submodularity_violation(P31, trials,
                                           np.random.default_rng(202))
    env_witness = find_submodularity_violation(P31, trials,
                                               np.random.default_rng(203),
                                               envelope=True)
    ok = witness is not None and env_witness is None
    verdict(2, "envelope submodular, objective not", ok,
             f"{trials} probes each")
    assert witness is not None, "no objective non-submodularity witness found"
    assert env_witness is None, f"envelope gain grew with context: {env_witness}"


def test_acceptance_3_estimator_exactness(verdict):
    g = path3()
    rumor = {2}
    T = 2
    reference = exact_objective(g, P31, rumor, {1}, T)
    exact_est = estimate_objective(ExactStore(g, rumor, T), P31, {1})

    n_cands = g.n - len(rumor)
    epsilon = delta = 0.05
    X = hoeffding_sample_size(epsilon, delta, n_cands)
    band = epsilon * n_cands
    seeds = 20
    outside = 0
    for seed in range(seeds):
        store = build_sample_store(g, rumor, SampleConfig(T=T, X=X, seed=seed))
        if abs(estimate_objective(store, P31, {1}) - reference) > band:
            outside += 1
    allowed = int(0.05 * seeds)

    ok = (abs(exact_est - reference) <= 1e-9
          and abs(reference - 0.11920292202211755) <= 1e-9
          and outside <= allowed)
    verdict(3, "estimator exactness", ok,
             f"exact gap {abs(exact_est - reference):.2e}, "
             f"{outside}/{seeds} outside the X={X} deviation band")
    assert abs(exact_est - reference) <= 1e-9
    assert abs(reference - 0.11920292202211755) <= 1e-9
    assert outside <= allowed


def test_acceptance_4_desk_scale_optimality(verdict):
    rng = np.random.default_rng(12345)
    factor = 1.0 - 1.0 / math.e
    instances = 120
    done = 0
    failures = []
    while done < instances:
        n = int(rng.integers(4, 11))
        p = float(rng.uniform(0.3, 0.7))
        adj: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i].append(j)
                    adj[j].append(i)
        g = Graph(adj, directed=False)
        rumor = frozenset(
            int(x) for x in rng.choice(n, size=int(rng.integers(1, 3)),
                                       replace=False))
        T = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(3, n - len(rumor)) + 1))
        store = ExactStore(g, rumor, T)
        if store.index.n_hit_walks == 0:
            continue
        done += 1
        _, opt = exhaustive_optimum(g, P31, rumor, k, T)
        bab = run_solver("bab", store, P31, k)
        greedy = solve_greedy(store, P31, k)
        topk = solve_topk(store, P31, k)
        if bab.objective < factor * opt - 1e-9:
            failures.append(f"bab {bab.objective:.6g} < {factor:.4f}*opt {opt:.6g}")
        if bab.objective < greedy.objective - 1e-12:
            failures.append("bab below greedy")
        if greedy.objective < topk.objective - 1e-12:
            failures.append("greedy below topk")
    verdict(4, "desk-scale optimality", not failures,
             f"{done} instances, {len(failures)} failures")
    assert not failures, failures[:5]


def test_acceptance_5_progressive_fidelity(verdict):
    g = bench_graph()
    rumor = generate_rumor_set(g, 50, seed=0)
    store = build_sample_store(g, rumor, SampleConfig(T=6, X=500, seed=0),
                               threads=4)
    limits = SolverLimits(node_expansion_cap=5)
    # one greedy seeds both searches, and each search's time is its fastest
    # of 3 runs, alternated with the other's, so a slow moment on a shared
    # machine does not decide the comparison
    greedy = solve_greedy(store, P73, 50)
    runs = {"bab": [], "probab": []}
    for _ in range(3):
        for algo in runs:
            runs[algo].append(run_solver(algo, store, P73, 50, rho=0.1,
                                         limits=limits, incumbent=greedy))
    bab, probab = (min(runs[algo], key=lambda r: r.wall_time) for algo in runs)
    ratio = probab.objective / bab.objective
    ok = ratio >= 0.9 and probab.wall_time < bab.wall_time
    verdict(5, "progressive fidelity", ok,
             f"objective ratio {ratio:.4f}, "
             f"time {probab.wall_time:.2f}s vs {bab.wall_time:.2f}s")
    assert ratio >= 0.9
    assert probab.wall_time < bab.wall_time


def _prefix_keys(store, walks: np.ndarray) -> np.ndarray:
    """(row in `walks`, prefix node) pairs of those walks, encoded as one int."""
    indptr, nodes = _csr_take(store.prefix_indptr, store.prefix_nodes, walks)
    rows = np.repeat(np.arange(walks.size, dtype=np.int64), np.diff(indptr))
    return rows * store.n_nodes + nodes


def coupling_violations(small, large) -> tuple[int, int, int]:
    """Walks that break the coupling of two same-seed stores, `small` under
    (R_a, T_a) and `large` under (R_b, T_b) with R_a ⊆ R_b and T_a <= T_b.

    Each start draws its walks from its own seed substream, step t of walk i
    from the same draw whatever T is, so walk (u, i) follows the same path
    in both stores until it first meets R_b or runs out of steps.  A walk
    from u outside R_b that hits R_a within T_a steps must therefore hit R_b
    within T_b steps, with a prefix no larger than under (R_a, T_a).  Returns
    (walks checked, hits lost, prefixes grown).
    """
    X = small.X
    starts = large.index.candidates
    offsets = np.arange(X, dtype=np.int64)
    w_small = (small.index.cand_pos[starts][:, None] * X + offsets).ravel()
    w_large = (large.index.cand_pos[starts][:, None] * X + offsets).ravel()
    hit = small.hit_flags[w_small]
    w_small, w_large = w_small[hit], w_large[hit]
    lost = int(np.count_nonzero(~large.hit_flags[w_large]))
    keys_large = _prefix_keys(large, w_large)
    outside = ~np.isin(keys_large, _prefix_keys(small, w_small))
    grown = int(np.unique(keys_large[outside] // large.n_nodes).size)
    return int(w_small.size), lost, grown


@pytest.mark.slow
def test_acceptance_6_benchmark_trends(verdict):
    g = bench_graph()
    algos = ("topk", "greedy", "bab", "probab")
    base = dict(graph_path="unused", algorithms=algos, k=50, rumor_size=150,
                rumor_seed=0, T=9, alpha=7.0, beta=3.0, X=500, node_cap=5,
                seed=0, threads=4)
    rows_t = run_on_graph(g, ExperimentConfig(
        **base, sweep_axis="T", sweep_values=(3.0, 6.0, 9.0)))
    # |R|=150 at T=9 is the base point the T sweep has already solved
    rows_r = run_on_graph(g, ExperimentConfig(
        **base, sweep_axis="rumor_size", sweep_values=(50.0, 100.0)))
    rows_r += [r for r in rows_t if r.T == base["T"]]

    def series(rows, algo):
        return [r.blocking_pct for r in rows if r.algorithm == algo]

    for label, rows in (("T", rows_t), ("|R|", rows_r)):
        for algo in algos:
            print(f"{label} sweep, {algo}: "
                  + " -> ".join(f"{p:.6f}" for p in series(rows, algo)))

    failures = []
    for algo in algos:
        pcts = series(rows_t, algo)
        if any(b < a - 1e-12 for a, b in zip(pcts, pcts[1:])):
            failures.append(f"{algo} blocking pct not non-decreasing in "
                            f"T: {[round(p, 6) for p in pcts]}")
    for rows in (rows_t, rows_r):
        by_algo = {algo: series(rows, algo) for algo in ("greedy", "bab")}
        for i, (gre, bab) in enumerate(zip(by_algo["greedy"], by_algo["bab"])):
            if bab < 0.98 * gre:
                failures.append(f"bab {bab:.6f} below greedy {gre:.6f} "
                                f"at sweep point {i}")

    # The percentage has no promised direction in |R|: a larger rumor set
    # reaches more users and also stops walks earlier.  What the model does
    # promise is the walk-level coupling of nested rumor sets, and of walk
    # lengths along T; the blocked and influenced masses are reported, not
    # asserted.  Each sweep's stores come from one walk pass.
    cfg = SampleConfig(T=base["T"], X=base["X"], seed=base["seed"])
    greedy_r = [r for r in rows_r if r.algorithm == "greedy"]
    stores_r = build_sample_stores(g, [
        (generate_rumor_set(g, row.rumor_size, base["rumor_seed"]), cfg)
        for row in greedy_r], threads=base["threads"])
    trend = []
    prev = None
    for row, store in zip(greedy_r, stores_r):
        trend.append(f"|R|={row.rumor_size}: pct {row.blocking_pct:.6f}, "
                     f"blocked {row.objective:.1f}, "
                     f"reached {store.index.influenced_mass:.1f}")
        if prev is not None:
            checked, lost, grown = coupling_violations(prev, store)
            if lost or grown:
                failures.append(
                    f"|R| {prev_size}->{row.rumor_size}: of {checked} walks "
                    f"hitting the smaller rumor set, {lost} missed the larger "
                    f"one and {grown} grew their prefix")
        prev, prev_size = store, row.rumor_size

    rumor = generate_rumor_set(g, base["rumor_size"], base["rumor_seed"])
    greedy_t = [r for r in rows_t if r.algorithm == "greedy"]
    stores_t = build_sample_stores(g, [
        (rumor, SampleConfig(T=row.T, X=base["X"], seed=base["seed"]))
        for row in greedy_t], threads=base["threads"])
    prev = None
    for row, store in zip(greedy_t, stores_t):
        if prev is not None:
            checked, lost, grown = coupling_violations(prev, store)
            if lost or grown:
                failures.append(
                    f"T {prev_T}->{row.T}: of {checked} walks hitting within "
                    f"{prev_T} steps, {lost} missed within {row.T} and "
                    f"{grown} grew their prefix")
        prev, prev_T = store, row.T

    detail = ("; ".join(failures) if failures
              else "T monotone, bab >= greedy, |R| and T walks coupled")
    verdict(6, "benchmark trends", not failures,
             detail + " (greedy " + "; ".join(trend) + ")")
    assert not failures, "\n".join(failures)


def test_acceptance_7_determinism(tmp_path, verdict):
    graph_path = tmp_path / "graph.txt"
    with graph_path.open("w") as fh:
        dump_edge_list(barabasi_albert_graph(400, 3, seed=8), fh)

    def run(tag: str, threads: int) -> tuple[list[str], list[str]]:
        out = tmp_path / f"report_{tag}.csv"
        code = main(["run", "--graph", str(graph_path),
                     "--algo", "topk,greedy,bab,probab", "--k", "8",
                     "--rumor-size", "10", "--rumor-seed", "2", "-T", "4",
                     "--alpha", "3", "--beta", "1", "--samples", "200",
                     "--node-cap", "3", "--seed", "5",
                     "--threads", str(threads), "--out", str(out)])
        assert code == 0
        with out.open() as fh:
            records = list(csv.reader(
                ln for ln in fh if not ln.startswith("#")))
        header, body = records[0], records[1:]
        chosen_col = header.index("chosen_set")
        obj_col = header.index("objective")
        return ([r[chosen_col] for r in body], [r[obj_col] for r in body])

    first = run("a", threads=1)
    repeat = run("b", threads=1)
    threaded = run("c", threads=4)
    ok = first == repeat == threaded
    verdict(7, "determinism", ok,
             f"{len(first[0])} rows, thread counts 1/1/4")
    assert first == repeat, "same-seed rerun changed results"
    assert first == threaded, "thread count changed results"


# topk and greedy objectives and a capped probab's bound gap, printed as
# one repr: every objective, L and gain sum runs on these paths
_BLAS_SCRIPT = """
from rcic.blocking import LogisticParams
from rcic.sampling import SampleConfig, build_sample_store
from rcic.solvers import SolverLimits, run_solver, solve_greedy, solve_topk
from rcic.synth import barabasi_albert_graph

params = LogisticParams(alpha=7.0, beta=3.0)
store = build_sample_store(barabasi_albert_graph(3000, 5, seed=1), range(30),
                           SampleConfig(T=6, X=100, seed=0))
greedy = solve_greedy(store, params, 20)
probab = run_solver("probab", store, params, 20, incumbent=greedy,
                    limits=SolverLimits(node_expansion_cap=2))
print(repr((solve_topk(store, params, 20).objective, greedy.objective,
            probab.bound_gap)))
"""


def test_objectives_do_not_depend_on_blas_threads():
    # a BLAS dot product splits its sum by thread count, so the values would
    # change in their last digits between these two processes
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(threads: int) -> str:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        return subprocess.run([sys.executable, "-c", _BLAS_SCRIPT], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=120).stdout

    one = run(1)
    assert one.startswith("(")
    assert one == run(2)


def test_acceptance_8_unit_values(verdict):
    x = hoeffding_sample_size(0.1, 0.01, 1000)
    block = logistic_block(P31, 3)
    tangent = tangent_point(P31, 0.0, 0.0).tangent_c
    ok = x == 576 and block == 0.5 and abs(tangent - 4.15) <= 0.01
    verdict(8, "unit values", ok,
             f"X={x}, f(3)={block}, tangent at {tangent:.4f}")
    assert x == 576
    assert block == 0.5
    assert tangent == pytest.approx(4.15, abs=0.01)
