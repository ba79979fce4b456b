"""Experiment runner: parameter sweeps, rumor-set generation, report rows.

One experiment = one graph, one rumor protocol, one or more algorithms, and
optionally one sweep axis.  Rumor sets are drawn uniformly from the top
degree decile; the same rumor seed yields nested sets across sizes (a prefix
of one permutation), so growing |R| never swaps the rumor population.
Every sweep point's settings are checked, and its rumor set drawn, before
the first sampling pass.  `build_sample_stores` then gets every point's
store key, (rumor set, `SampleConfig`), and is the one place that plans
walk passes and stores: a k, rho, alpha or beta sweep reuses one store, and
an |R| sweep with one rumor seed shares one walk pass.  Each point's store
and index are built when the point runs, and dropped before the next
point's are built.  At each point, a greedy row seeds the search of the bab
and probab rows listed after it, so one greedy runs per point.
With epsilon and delta, X is derived from the sampling bound, so X cannot
also be swept.  A row's chosen_set holds the edge-list file's node ids
(`Graph.original_ids`), also on a scalability slice.

Reported blocking_pct divides the objective by influenced_mass, the expected
number of users the rumor reaches (sum of per-start hit probabilities;
estimated as hit_count/X under sampling); store_bytes is the size of the
sweep point's sample store and index arrays.  The runners only compute rows;
`write_rows` formats them as CSV (comment header, fixed column order,
6-significant-digit floats, integer milliseconds) or strict JSON (non-finite
floats written as the CSV writes them, e.g. "inf"), and the CLI decides where
they go.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import resource
from dataclasses import dataclass, replace

import numpy as np

from .blocking import LogisticParams
from .graph import Graph, bfs_subgraph, load_edge_list, top_decile_nodes
# build_sample_store stays importable from here because perfbench's tracer
# rebinds it, but run_on_graph builds through build_sample_stores, so the
# tracer's bench.build_sample_store span reads 0 for a run
from .sampling import (SampleConfig, SampleStore, build_sample_store,  # noqa: F401
                       build_sample_stores, check_count, hoeffding_sample_size)
from .solvers import (SolveReport, SolverLimits, _check_k, _check_rho,
                      run_solver)

ALGORITHMS = ("topk", "greedy", "bab", "probab")
SWEEP_AXES = ("k", "rumor_size", "T", "X", "rho", "alpha", "beta")
_INT_AXES = {"k", "rumor_size", "T", "X"}

_CSV_COMMENTS = (
    "# experiment report",
    "# blocking_pct = objective / influenced_mass, the expected number of users"
    " influenced by the rumor set",
    "#   (denominator: sum over non-rumor starts of the walk's rumor-hit"
    " probability; hit_count/X under sampling)",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one `run` needs; defaults follow the benchmark protocol."""

    graph_path: str
    directed: bool = False
    algorithms: tuple[str, ...] = ("bab",)
    k: int = 150
    rumor_size: int = 150
    rumor_seed: int = 0
    T: int = 9
    alpha: float = 7.0
    beta: float = 3.0
    X: int = 1000
    rho: float = 0.1
    epsilon: float | None = None
    delta: float | None = None
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] | None = None
    node_cap: int | None = None
    time_cap: float | None = None
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")
        if not self.algorithms:
            raise ValueError("no algorithm requested")
        if (self.sweep_axis is None) != (self.sweep_values is None):
            raise ValueError("sweep axis and values must be given together")
        if self.sweep_axis is not None:
            if self.sweep_axis not in SWEEP_AXES:
                raise ValueError(f"unknown sweep axis {self.sweep_axis!r}")
            if not self.sweep_values:
                raise ValueError("empty sweep value list")
            if self.sweep_axis in _INT_AXES and not all(
                    float(v).is_integer() for v in self.sweep_values):
                raise ValueError(f"sweep axis {self.sweep_axis} takes integers,"
                                 f" got {self.sweep_values}")
        if (self.epsilon is None) != (self.delta is None):
            raise ValueError("epsilon and delta must be given together")
        if self.sweep_axis == "X" and self.epsilon is not None:
            raise ValueError("epsilon and delta derive X; it cannot be swept")
        check_count(self.threads, "threads", 1)


@dataclass(frozen=True)
class ReportRow:
    """One (algorithm, sweep point, seed) outcome plus the config that ran it."""

    algorithm: str
    sweep_axis: str
    sweep_value: str
    fraction: float
    k: int
    rumor_size: int
    rumor_seed: int
    T: int
    alpha: float
    beta: float
    X: int
    rho: float
    seed: int
    chosen_size: int
    chosen_set: str
    objective: float
    blocking_pct: float
    influenced_mass: float
    wall_time_ms: int
    peak_mem_mb: float | None
    store_bytes: int
    expansions: int
    bound_calls: int
    gain_evals: int
    bound_gap: float | None
    truncated: bool
    status: str


def generate_rumor_set(g: Graph, size: int, seed: int) -> frozenset[int]:
    """`size` nodes uniformly without replacement from the top degree decile."""
    check_count(seed, "rumor seed", 0)
    decile = top_decile_nodes(g)
    if check_count(size, "rumor size", 1) > len(decile):
        raise ValueError(
            f"rumor size {size} infeasible; top decile holds {len(decile)} nodes")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(decile))
    return frozenset(int(decile[i]) for i in order[:size])


def _apply_sweep(config: ExperimentConfig, axis: str, value: float
                 ) -> ExperimentConfig:
    cast = int(value) if axis in _INT_AXES else float(value)
    return replace(config, **{axis: cast})


def _peak_mem_mb() -> float:
    # ru_maxrss is in KiB on Linux; best-effort estimate only
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _json_cell(value):
    # strict JSON has no Infinity or NaN; write them as the CSV does
    if isinstance(value, float) and not math.isfinite(value):
        return _format_cell(value)
    return value


def _sweep_points(config: ExperimentConfig):
    if config.sweep_axis is None:
        return [(None, None)]
    return [(config.sweep_axis, v) for v in config.sweep_values]


def _resolve_x(config: ExperimentConfig, n_candidates: int) -> int:
    if config.epsilon is not None:
        return hoeffding_sample_size(config.epsilon, config.delta, n_candidates)
    return config.X


def _make_row(cfg: ExperimentConfig, axis, value, fraction: float, algo: str,
              report: SolveReport | None, store: SampleStore, original_ids,
              status: str) -> ReportRow:
    if report is None:  # the solver raised; the row carries only the status
        report = SolveReport(algo, frozenset(), 0.0, 0.0, 0.0)
    chosen = sorted(original_ids[v] for v in report.chosen_set)
    return ReportRow(
        algorithm=algo,
        sweep_axis=axis or "",
        sweep_value="" if value is None else _format_cell(float(value)),
        fraction=fraction,
        k=cfg.k, rumor_size=cfg.rumor_size, rumor_seed=cfg.rumor_seed,
        T=cfg.T, alpha=cfg.alpha, beta=cfg.beta, X=store.X, rho=cfg.rho,
        seed=cfg.seed,
        chosen_size=len(chosen),
        chosen_set="|".join(str(v) for v in chosen),
        objective=report.objective,
        blocking_pct=report.blocking_percentage,
        influenced_mass=store.index.influenced_mass,
        wall_time_ms=int(round(report.wall_time * 1000)),
        peak_mem_mb=_peak_mem_mb(),
        store_bytes=store.store_bytes,
        expansions=report.expansions,
        bound_calls=report.bound_calls,
        gain_evals=report.gain_evals,
        bound_gap=report.bound_gap,
        truncated=report.truncated,
        status=status,
    )


def run_on_graph(g: Graph, config: ExperimentConfig, fraction: float = 1.0,
                 rows=None) -> list[ReportRow]:
    """Run the configured sweep on an already-loaded graph, appending to and
    returning `rows` (a new list by default).  A solver error appends its
    row and propagates."""
    rows = [] if rows is None else rows
    points = []
    for axis, value in _sweep_points(config):
        cfg = config if axis is None else _apply_sweep(config, axis, value)
        rumor = generate_rumor_set(g, cfg.rumor_size, cfg.rumor_seed)
        n_candidates = g.n - len(rumor)
        _check_k(cfg.k, n_candidates)
        _check_rho(cfg.rho)
        sample = SampleConfig(T=cfg.T, X=_resolve_x(cfg, n_candidates),
                              seed=cfg.seed)
        points.append((axis, value, cfg, (rumor, sample),
                       LogisticParams(cfg.alpha, cfg.beta),
                       SolverLimits(node_expansion_cap=cfg.node_cap,
                                    wall_time_cap=cfg.time_cap)))
    stores = build_sample_stores(g, [point[3] for point in points],
                                 threads=config.threads)
    for axis, value, cfg, _, params, limits in points:
        store = None  # free the last point's store before the next is built
        store = next(stores)
        greedy = None  # the point's greedy row seeds bab's and probab's search
        for algo in cfg.algorithms:
            try:
                report = run_solver(algo, store, params, cfg.k, rho=cfg.rho,
                                    limits=limits, incumbent=greedy)
            except Exception as exc:
                rows.append(_make_row(cfg, axis, value, fraction, algo, None,
                                      store, g.original_ids,
                                      f"error: {type(exc).__name__}: {exc}"))
                raise
            rows.append(_make_row(cfg, axis, value, fraction, algo, report,
                                  store, g.original_ids, "ok"))
            if algo == "greedy":
                greedy = report
    return rows


def run_experiment(config: ExperimentConfig, rows=None) -> list[ReportRow]:
    """Load the graph and run the sweep into `rows`."""
    with open(config.graph_path) as fh:
        g = load_edge_list(fh, directed=config.directed)
    return run_on_graph(g, config, rows=rows)


def run_scalability(config: ExperimentConfig, fractions, rows=None) -> list[ReportRow]:
    """Re-run the experiment on nested BFS slices of the graph, appending
    every slice's rows to `rows`.

    The BFS seed is the highest-degree node (ties to smaller id); the rumor
    set is regenerated per slice with the same rumor seed.
    """
    fractions = [float(f) for f in fractions]
    if not fractions:
        raise ValueError("no fractions given")
    if any(not 0 < f <= 1 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    if sorted(fractions) != fractions:
        raise ValueError("fractions must be ascending")
    with open(config.graph_path) as fh:
        g = load_edge_list(fh, directed=config.directed)
    degrees = g.degrees()
    bfs_seed = min(range(g.n), key=lambda u: (-degrees[u], u))
    rows = [] if rows is None else rows
    for frac in fractions:
        sub, _ = bfs_subgraph(g, bfs_seed, frac)
        run_on_graph(sub, config, fraction=frac, rows=rows)
    return rows


def write_rows(rows: list[ReportRow], sink, fmt: str = "csv") -> None:
    names = [f.name for f in dataclasses.fields(ReportRow)]
    if fmt == "csv":
        for line in _CSV_COMMENTS:
            sink.write(line + "\n")
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            writer.writerow([_format_cell(getattr(row, name)) for name in names])
    elif fmt == "json":
        payload = [{name: _json_cell(getattr(row, name)) for name in names}
                   for row in rows]
        json.dump({"rows": payload}, sink, indent=1, allow_nan=False)
        sink.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def _parse_cell(text: str, ftype: str):
    if ftype == "bool":
        return text == "true"
    if ftype == "float | None":
        return None if text == "" else float(text)
    if ftype == "int":
        return int(text)
    if ftype == "float":
        return float(text)
    return text


def read_rows(source) -> list[ReportRow]:
    """Parse a CSV report back into rows (comments skipped)."""
    specs = [(f.name, f.type) for f in dataclasses.fields(ReportRow)]
    lines = [ln for ln in source if not ln.startswith("#")]
    records = list(csv.reader(lines))
    if not records:
        return []
    if records[0] != [name for name, _ in specs]:
        raise ValueError("unexpected report header")
    rows = []
    for cells in records[1:]:
        if not cells:
            continue
        kwargs = {name: _parse_cell(cell, ftype)
                  for (name, ftype), cell in zip(specs, cells)}
        rows.append(ReportRow(**kwargs))
    return rows
