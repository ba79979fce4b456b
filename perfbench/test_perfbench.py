"""Tests of the benchmark itself: the checker must reject corrupted rows, and
the command must print the metrics BENCHMARK.json declares.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys

import pytest

import check
from workloads import BENCH_DIR, ROOT, SRC

sys.path.insert(0, str(SRC))

from rcic.bench import ExperimentConfig, generate_rumor_set, run_on_graph, write_rows  # noqa: E402
from rcic.graph import load_edge_list  # noqa: E402
from rcic.sampling import SampleConfig, build_sample_store  # noqa: E402
from rcic.synth import barabasi_albert_graph  # noqa: E402

ALPHA, BETA = 7.0, 3.0
X, T, K = 400, 4, 5
POINTS = [dict(rumor_size=s, T=T, sweep_value=str(s)) for s in (5, 10)]
ALGORITHMS = ("topk", "greedy", "probab")


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small sweep over nested rumor sets, run through the package."""
    g0 = barabasi_albert_graph(300, 3, seed=5)
    path = tmp_path_factory.mktemp("small") / "g.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in g0.edges()))
    with open(path) as fh:
        g = load_edge_list(fh)
    config = ExperimentConfig(
        graph_path=str(path), algorithms=ALGORITHMS, k=K, rumor_size=5, T=T,
        X=X, alpha=ALPHA, beta=BETA, node_cap=2, sweep_axis="rumor_size",
        sweep_values=(5, 10))
    sink = io.StringIO()
    write_rows(run_on_graph(g, config), sink, "json")
    rows = json.loads(sink.getvalue())["rows"]
    rumor_sets = [generate_rumor_set(g, p["rumor_size"], 0) for p in POINTS]
    adj = check.Adjacency(check.read_edges(path))
    return g, rows, rumor_sets, adj


def all_problems(small, rows):
    g, _, rumor_sets, adj = small
    problems = check.property_problems(rows, POINTS, rumor_sets, adj.top_decile(),
                                       adj.n, K, ALGORITHMS)
    problems += check.walker_problems(adj, rows, POINTS, rumor_sets, X, X,
                                      ALPHA, BETA, seed=11)[0]
    for point, rumor, group in zip(POINTS, rumor_sets,
                                   check.group_rows(rows, POINTS)):
        store = build_sample_store(g, rumor, SampleConfig(T=T, X=X))
        problems += check.exact_problems(group, point["sweep_value"],
                                         store.hit_flags, store.prefix_indptr,
                                         store.prefix_nodes, X, g.n, ALPHA, BETA)
    return problems


def corrupted(rows, algorithm, sweep_value, **fields):
    out = [dict(r) for r in rows]
    for r in out:
        if r["algorithm"] == algorithm and r["sweep_value"] == sweep_value:
            r.update(fields)
    return out


def test_clean_rows_pass(small):
    assert all_problems(small, small[1]) == []


def test_shifted_objective_fails(small):
    g, rows, rumor_sets, adj = small
    groups = check.group_rows(rows, POINTS)
    _, blocked = check.walker_estimates(adj, POINTS, rumor_sets, groups, X,
                                        ALPHA, BETA, seed=11)
    est = blocked[1][1]  # greedy at |R| = 10
    se = math.sqrt(2 * est.var / X)
    row = groups[1][1]
    shift = (check.TOL_Z + 2) * se
    bad = corrupted(rows, "greedy", "10", objective=row["objective"] + shift,
                    blocking_pct=(row["objective"] + shift)
                    / check.influenced_mass(row))
    walker = check.walker_problems(adj, bad, POINTS, rumor_sets, X, X,
                                   ALPHA, BETA, seed=11)[0]
    assert [key for key, _ in walker] == [("10", "greedy")]
    assert ("10", "greedy") in {key for key, _ in all_problems(small, bad)}


def test_rumor_node_in_protectors_fails(small):
    _, rows, rumor_sets, _ = small
    row = check.group_rows(rows, POINTS)[0][0]  # topk at |R| = 5
    P = check.chosen_nodes(row)
    P[0] = min(rumor_sets[0])
    bad = corrupted(rows, "topk", "5", chosen_set="|".join(map(str, sorted(P))))
    messages = [m for key, m in all_problems(small, bad) if key == ("5", "topk")]
    assert any("rumor nodes" in m for m in messages)


def test_bab_below_greedy_and_changed_rows_fail(small):
    _, rows, rumor_sets, adj = small
    greedy = check.group_rows(rows, POINTS)[0][1]
    bad = corrupted(rows, "probab", "5", objective=greedy["objective"] * 0.99)
    problems = check.property_problems(bad, POINTS, rumor_sets, adj.top_decile(),
                                       adj.n, K, ALGORITHMS)
    assert [key for key, _ in problems] == [("5", "probab")]
    assert [key for key, _ in check.row_mismatches(rows, bad)] == [("5", "probab")]


def run_command(cwd, *args, timeout=400):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = run_command(ROOT, "--workload", "sample-deep", "--seed", "3",
                       "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_command(tmp_path, "--workload", "bab-p2p", "--seed", "0",
                       "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
