"""rcic benchmark: one workload, timed end to end, optionally traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  A run is a closed loop of batch jobs: one client runs one job
(`load_edge_list`, `run_on_graph`, `write_rows`) in a fresh process, and the
next job starts only when the previous one has ended, until S seconds have
passed (at least one job).  `--trace 1` then adds one traced job and prints
the per-layer metrics in place of the end-to-end ones.

Every job's rows are checked (see check.py): against an independent walker
seeded with `--seed`, against the program's own stores (once per source
tree, cached in perfbench/_work), for the properties the method promises,
and for equality across jobs.  The last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import check
from workloads import (ALPHA, BETA, BENCH_DIR, EDGES_NAME, EDGES_SHA256,
                       GRAPH_ATTACH, GRAPH_NODES, GRAPH_SEED, ROOT, RUMOR_SEED,
                       SRC, WORK, WORKLOADS, experiment_kwargs, sweep_points)

# set-up is timed this many times before the jobs and again after them, so
# that its median spans the run rather than one moment of it
SETUP_REPEATS = 20
JOB_TIMEOUT_S = 170
# walks per start of the independent walker; its standard error enters the
# agreement tolerance, so fewer walks only widen it
WALKER_WALKS = 250


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def ensure_edges() -> str:
    """Write the workload graph once per checkout; return its path."""
    path = WORK / EDGES_NAME
    if not path.exists():
        from rcic.synth import barabasi_albert_graph
        g = barabasi_albert_graph(GRAPH_NODES, GRAPH_ATTACH, GRAPH_SEED)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w") as fh:
            for u in range(g.n):
                fh.writelines(f"{u} {v}\n" for v in g.neighbors(u) if u < v)
        os.replace(tmp, path)
    return str(path)


def time_setup(edges: str, points: list[dict]):
    """Wall times of loading the edge list and drawing the rumor sets."""
    from rcic.bench import generate_rumor_set
    from rcic.graph import load_edge_list
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with open(edges) as fh:
            g = load_edge_list(fh)
        rumor_sets = [generate_rumor_set(g, p["rumor_size"], RUMOR_SEED)
                      for p in points]
        times.append(time.perf_counter() - t0)
    return times, rumor_sets


def run_job(args: list[str]) -> dict | None:
    """Run job.py in a fresh process; None (stderr relayed) if it failed."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "job.py"), *args],
        capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_job(name: str, edges: str, tag: str, trace: bool) -> dict | None:
    rows_path = str(WORK / f"rows-{name}-{tag}.json")
    result = run_job(["timed", name, edges, rows_path] + (["--trace"] if trace else []))
    if result is not None:
        with open(rows_path) as fh:
            result["rows"] = json.load(fh)["rows"]
        result["rows_path"] = rows_path
    return result


def source_key(workload: str) -> str:
    """Hash of everything the checked rows depend on."""
    h = hashlib.sha256(f"{workload} {EDGES_SHA256}".encode())
    for path in sorted([*(SRC / "rcic").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def checked_reference(workload: str, edges: str, rows_path: str):
    """Rows re-evaluated on the program's stores, cached per source tree.

    Returns (rows, problems) or None when the checked job itself failed.
    """
    cache = WORK / f"checked-{workload}.json"
    key = source_key(workload)
    cached = None
    if cache.exists():
        with open(cache) as fh:
            cached = json.load(fh)
    if cached is None or cached["key"] != key:
        result = run_job(["checked", workload, edges, rows_path])
        if result is None:
            return None
        with open(rows_path) as fh:
            rows = json.load(fh)["rows"]
        cached = {"key": key, "rows": rows, "problems": result["problems"]}
        tmp = cache.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w") as fh:
            json.dump(cached, fh)
        os.replace(tmp, cache)
    return cached["rows"], [(tuple(k), msg) for k, msg in cached["problems"]]


def bad_rows(problems, reference: list[dict]) -> set:
    """Row keys hit by any problem; point-wide problems hit the whole point."""
    bad = set()
    for (sv, algo), _ in problems:
        for row in reference:
            key = (row["sweep_value"], row["algorithm"])
            if (sv is None or sv == key[0]) and (algo is None or algo == key[1]):
                bad.add(key)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rcic" / "__init__.py").is_file():
        return fail(f"no package source at {SRC.relative_to(ROOT)}/rcic; "
                    "run from a source checkout")
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    edges = ensure_edges()
    sha = file_sha256(edges)
    if sha != EDGES_SHA256:
        return fail(f"{EDGES_NAME} has SHA-256 {sha}, expected {EDGES_SHA256}; "
                    "the generated input changed")

    name = args.workload
    spec = experiment_kwargs(name)
    points = sweep_points(name)
    setup_times, rumor_sets = time_setup(edges, points)

    jobs, crashed = [], 0
    t0 = time.perf_counter()
    while True:
        job = timed_job(name, edges, str(len(jobs) + crashed), trace=False)
        if job is None:
            crashed += 1
        else:
            jobs.append(job)
        if time.perf_counter() - t0 >= args.seconds:
            break
    untraced = list(jobs)
    traced = None
    if args.trace:
        traced = timed_job(name, edges, "traced", trace=True)
        if traced is None:
            crashed += 1
        else:
            jobs.append(traced)
    if not untraced or (args.trace and traced is None):
        return fail("no job completed")
    setup_times += time_setup(edges, points)[0]

    reference = checked_reference(name, edges, jobs[0]["rows_path"])
    if reference is None:
        return fail("the checked run failed")
    ref_rows, problems = reference

    adj = check.Adjacency(check.read_edges(edges))
    problems += check.property_problems(
        ref_rows, points, rumor_sets, adj.top_decile(), adj.n, spec["k"],
        spec["algorithms"])
    walker, lines, program_se = check.walker_problems(
        adj, ref_rows, points, rumor_sets, spec["X"], WALKER_WALKS, ALPHA,
        BETA, args.seed)
    problems += walker
    bad = bad_rows(problems, ref_rows)
    failed = len(bad) * len(jobs)
    for job in jobs:
        mismatches = check.row_mismatches(ref_rows, job["rows"])
        failed += len(bad_rows(mismatches, ref_rows) - bad)
        problems += mismatches
    rows_per_job = len(points) * len(spec["algorithms"])
    failed += crashed * rows_per_job
    attempted = (len(jobs) + crashed) * rows_per_job

    for line in lines:
        print(line)
    for key, message in problems:
        print(f"PROBLEM {key}: {message}")

    best = [max(group, key=lambda r: r["objective"])
            for group in check.group_rows(ref_rows, points) if group]
    blocked = sum(r["objective"] for r in best)
    # the per-point estimates share a sampling seed, so bound the SE of their
    # sum by the sum of their SEs
    print(f"blocked_users Monte Carlo SE <= "
          f"{sum(program_se[(r['sweep_value'], r['algorithm'])] for r in best):.4f}")
    run_s = statistics.median(j["run_s"] for j in untraced)
    if traced is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (statistics.median(j["peak_rss_mb"] for j in untraced), "MB"),
            "blocked_users": (blocked, "users"),
        }
    else:
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.overhead_pct"] = (100.0 * (traced["run_s"] / run_s - 1.0), "%")
    print(f"{name}: {len(jobs)} jobs, seed {args.seed}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
