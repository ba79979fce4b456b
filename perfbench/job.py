"""One benchmark job, in a process of its own.

    python3 perfbench/job.py timed   WORKLOAD EDGES ROWS_OUT [--trace]
    python3 perfbench/job.py checked WORKLOAD EDGES ROWS_IN

`timed` drives the package the way `rcic run` does (`load_edge_list`, then
`run_on_graph`, then `write_rows` as JSON to ROWS_OUT) and prints its
timings and this process's peak resident memory as one JSON line.  Each
timed run gets a fresh process because `ru_maxrss` is a process-lifetime
maximum.  With `--trace` the package's layers are wrapped by `spans.Tracer`
and the per-layer metrics are printed too.

`checked` rebuilds the program's sample store for each sweep point (stores
are bit-identical per seed) and re-evaluates the rows in ROWS_IN on it with
`check.exact_problems`; it prints the problems found as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time

from workloads import (ALPHA, BETA, RUMOR_SEED, SAMPLE_SEED, SRC,
                       experiment_kwargs, sweep_points)

sys.path.insert(0, str(SRC))

from rcic.bench import ExperimentConfig, generate_rumor_set, run_on_graph, write_rows  # noqa: E402
from rcic.graph import load_edge_list  # noqa: E402
from rcic.sampling import SampleConfig, build_sample_store  # noqa: E402

import check  # noqa: E402
from spans import Tracer  # noqa: E402


def timed(workload: str, edges: str, rows_out: str, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    span = contextlib.nullcontext if tracer is None else tracer.span
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    with span("graph.load_edge_list"), open(edges) as fh:
        g = load_edge_list(fh)
    load_s = time.perf_counter() - t0
    config = ExperimentConfig(graph_path=edges, **experiment_kwargs(workload))
    t0 = time.perf_counter()
    with span("bench.run_on_graph"):
        rows = run_on_graph(g, config)
    run_s = time.perf_counter() - t0
    with open(rows_out, "w") as fh:
        write_rows(rows, fh, "json")
    result = {"load_s": load_s, "run_s": run_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
    return result


def checked(workload: str, edges: str, rows_in: str) -> dict:
    with open(rows_in) as fh:
        rows = json.load(fh)["rows"]
    with open(edges) as fh:
        g = load_edge_list(fh)
    spec = experiment_kwargs(workload)
    X = spec["X"]
    points = sweep_points(workload)
    problems = []
    for point, group in zip(points, check.group_rows(rows, points)):
        rumor = generate_rumor_set(g, point["rumor_size"], RUMOR_SEED)
        store = build_sample_store(g, rumor, SampleConfig(T=point["T"], X=X,
                                                          seed=SAMPLE_SEED),
                                   threads=spec["threads"])
        if store.rumor_set != rumor:
            problems.append(((point["sweep_value"], None),
                             "store built for another rumor set"))
        problems += check.exact_problems(group, point["sweep_value"],
                                         store.hit_flags, store.prefix_indptr,
                                         store.prefix_nodes, X, g.n, ALPHA, BETA)
        del store
    return {"problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("timed", "checked"))
    parser.add_argument("workload")
    parser.add_argument("edges")
    parser.add_argument("rows")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "timed":
        result = timed(args.workload, args.edges, args.rows, args.trace)
    else:
        result = checked(args.workload, args.edges, args.rows)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
