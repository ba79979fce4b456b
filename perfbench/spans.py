"""Per-layer spans recorded from outside the package.

`Tracer.install` rebinds the module attributes through which the package's
layers call each other (for example `rcic.bench.build_sample_store`, which
`run_on_graph` looks up at call time) to timing wrappers, so no file under
`src/` changes.  Spans nest: a span's self time is its duration minus the
durations of the spans opened inside it.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _array_bytes(*objects) -> int:
    return sum(v.nbytes for obj in objects for v in vars(obj).values()
               if isinstance(v, np.ndarray))


def _store_counts(span: Span, store) -> None:
    span.counts["walks"] = store.index.n_candidates * store.X
    span.counts["store_bytes"] = _array_bytes(store, store.index)


def _report_counts(span: Span, report) -> None:
    span.counts["gain_evals"] = report.gain_evals


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list = []

    @contextmanager
    def span(self, name: str, memory: bool = False):
        """Time a block; with `memory`, also record its tracemalloc peak."""
        s = Span(name, time.perf_counter())
        self._stack.append(s)
        if memory:
            tracemalloc.start()
        try:
            yield s
        finally:
            if memory:
                s.counts["traced_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            s.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_s += s.duration
            self.spans.append(s)

    def wrap(self, module, attr: str, name: str, after=None,
             memory: bool = False) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, memory) as s:
                result = original(*args, **kwargs)
                if after is not None:
                    after(s, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def install(self) -> None:
        import rcic.bench
        import rcic.blocking
        import rcic.sampling
        import rcic.solvers

        self.wrap(rcic.bench, "build_sample_store", "bench.build_sample_store",
                  after=_store_counts, memory=True)
        self.wrap(rcic.bench, "run_solver", "bench.run_solver",
                  after=_report_counts, memory=True)
        self.wrap(rcic.sampling, "SampleStore", "sampling.SampleStore")
        for module in (rcic.blocking, rcic.solvers):
            self.wrap(module, "estimate_objective", "blocking.estimate_objective")
        for attr in ("solve_topk", "solve_greedy", "sam_compute_bound",
                     "pro_sam_compute_bound", "branch_and_bound"):
            self.wrap(rcic.solvers, attr, f"solvers.{attr}")

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _of(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self._of(name))

    def calls(self, name: str) -> int:
        return len(self._of(name))

    def self_total(self, name: str) -> float:
        return sum(s.self_s for s in self._of(name))

    def count_sum(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self._of(name))

    def count_max(self, name: str, key: str) -> int:
        return max((s.counts.get(key, 0) for s in self._of(name)), default=0)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        build = self.total("bench.build_sample_store")
        index = self.total("sampling.SampleStore")
        walk_sim = build - index
        walks = self.count_sum("bench.build_sample_store", "walks")
        return {
            "graph.load_edge_list_s": (self.total("graph.load_edge_list"), "s"),
            "bench.self_s": (self.self_total("bench.run_on_graph"), "s"),
            "bench.store_builds": (self.calls("bench.build_sample_store"), "count"),
            "sampling.build_s": (build, "s"),
            "sampling.walk_sim_s": (walk_sim, "s"),
            "sampling.index_build_s": (index, "s"),
            "sampling.walks_per_s": (walks / walk_sim if walk_sim > 0 else 0.0, "1/s"),
            "sampling.store_mb": (
                self.count_max("bench.build_sample_store", "store_bytes") / MB, "MB"),
            "sampling.build_peak_mb": (
                self.count_max("bench.build_sample_store", "traced_peak_bytes") / MB,
                "MB"),
            "blocking.estimate_objective_s": (
                self.total("blocking.estimate_objective"), "s"),
            "blocking.estimate_objective_calls": (
                self.calls("blocking.estimate_objective"), "count"),
            "solvers.topk_s": (self.total("solvers.solve_topk"), "s"),
            "solvers.greedy_s": (self.total("solvers.solve_greedy"), "s"),
            "solvers.greedy_calls": (self.calls("solvers.solve_greedy"), "count"),
            "solvers.sam_bound_s": (self.total("solvers.sam_compute_bound"), "s"),
            "solvers.sam_bound_calls": (
                self.calls("solvers.sam_compute_bound"), "count"),
            "solvers.pro_bound_s": (self.total("solvers.pro_sam_compute_bound"), "s"),
            "solvers.pro_bound_calls": (
                self.calls("solvers.pro_sam_compute_bound"), "count"),
            "solvers.bab_self_s": (self.self_total("solvers.branch_and_bound"), "s"),
            "solvers.gain_evals": (self.count_sum("bench.run_solver", "gain_evals"),
                                   "count"),
            "solvers.peak_mb": (
                self.count_max("bench.run_solver", "traced_peak_bytes") / MB, "MB"),
        }
