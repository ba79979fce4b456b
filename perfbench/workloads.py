"""Workload definitions shared by run.py and the job processes it starts.

Every workload runs on the same input: the Barabási–Albert graph of the
acceptance benchmark (n=8846, m=7, graph seed 42), written out as an edge
list by `rcic.synth` and pinned by its SHA-256.  The program's own seeds are
fixed (alpha=7, beta=3, rumor seed 0, sampling seed 0) so that figures
compare across commits; the benchmark's `--seed` seeds only the independent
walker that checks the program's estimates.

This module imports nothing from the package, so run.py can read the
workload table before it has checked that the package is there.
"""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

GRAPH_NODES, GRAPH_ATTACH, GRAPH_SEED = 8846, 7, 42
EDGES_NAME = f"ba-{GRAPH_NODES}-{GRAPH_ATTACH}-{GRAPH_SEED}.edges"
EDGES_SHA256 = "c10d3abb341d86f519642aeb22ef0a16ca36590f98ff28bbd50663dc81b6fc15"

ALPHA, BETA = 7.0, 3.0
RUMOR_SEED = 0
SAMPLE_SEED = 0

WORKLOADS: dict[str, dict] = {
    # ROADMAP baseline: solvers dominate (SAM bounds, greedy seeds of bab).
    "bab-p2p": dict(
        algorithms=("topk", "greedy", "bab", "probab"),
        rumor_size=50, T=6, X=500, k=50, node_cap=5, threads=1),
    # Sampling dominates (~99% of the run); solver changes should leave it flat.
    "sample-deep": dict(
        algorithms=("topk",), rumor_size=150, X=1000, k=50, T=3,
        sweep_axis="T", sweep_values=(3, 6, 9), threads=2),
    # The paper's |R| experiment: three store builds over nested rumor sets,
    # greedy over a growing hit set, and PRO bounds.
    "sweep-rumor": dict(
        algorithms=("topk", "greedy", "probab"),
        rumor_size=50, T=6, X=500, k=50, node_cap=5, threads=1,
        sweep_axis="rumor_size", sweep_values=(50, 100, 150)),
}


def experiment_kwargs(name: str) -> dict:
    """Keyword arguments of `rcic.bench.ExperimentConfig` for a workload."""
    return dict(WORKLOADS[name], alpha=ALPHA, beta=BETA,
                rumor_seed=RUMOR_SEED, seed=SAMPLE_SEED)


def sweep_points(name: str) -> list[dict]:
    """Each sweep point's key in the report rows, its |R| and its T."""
    spec = WORKLOADS[name]
    axis = spec.get("sweep_axis")
    values = spec.get("sweep_values") or (None,)
    points = []
    for v in values:
        point = dict(rumor_size=spec["rumor_size"], T=spec["T"])
        if axis is not None:
            point[axis] = int(v)
        # run_on_graph formats the sweep value with "%.6g"
        point["sweep_value"] = "" if v is None else f"{float(v):.6g}"
        points.append(point)
    return points
