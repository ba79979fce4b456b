"""Correctness checks on the program's report rows, written apart from the
package: this module imports nothing from `rcic`.

Four kinds of check:

* `walker_problems`: a numpy walker with its own RNG re-estimates each sweep
  point's influenced mass and each row's B(P|R); the program's value must
  agree within `TOL_Z` combined standard errors.
* `exact_problems`: each row's objective, re-evaluated on the program's own
  store arrays with the logistic written inline, must match to `REL_TOL`, and
  `blocking_pct * influenced mass` must equal the objective.
* `property_problems`: |P| = k with distinct, non-rumor nodes; rumor sets of
  the right size, inside the top degree decile and nested across points; bab
  and probab at least greedy at the same point.
* `row_mismatches`: rows of repeated runs must be identical, since stores are
  bit-identical per seed.

A problem is `(row_key, message)`; `row_key` is `(sweep_value, algorithm)`,
or `(sweep_value, None)` when the whole sweep point is wrong.
"""

from __future__ import annotations

import math

import numpy as np

TOL_Z = 5.0
REL_TOL = 1e-9
# walks held in memory at once by the independent walker
_WALKER_BATCH = 1_000_000
# report fields that legitimately differ between runs of the same rows
_VOLATILE_FIELDS = ("wall_time_ms", "peak_mem_mb")


def read_edges(path) -> np.ndarray:
    """(m, 2) int64 array of the "u v" lines of an edge-list file."""
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return np.array(" ".join(lines).split(), dtype=np.int64).reshape(-1, 2)


class Adjacency:
    """Undirected CSR adjacency over node ids 0..n-1, duplicates and
    self-loops dropped."""

    def __init__(self, edges: np.ndarray):
        edges = edges[edges[:, 0] != edges[:, 1]]
        self.n = int(edges.max()) + 1
        both = np.concatenate([edges, edges[:, ::-1]])
        both = np.unique(both, axis=0)
        self.degree = np.bincount(both[:, 0], minlength=self.n).astype(np.int64)
        self.indptr = np.concatenate([[0], np.cumsum(self.degree)])
        self.nbrs = both[:, 1].copy()

    def top_decile(self) -> set[int]:
        """The ceil(n/10) highest-degree nodes, ties toward smaller id."""
        order = np.lexsort((np.arange(self.n), -self.degree))
        return {int(v) for v in order[:math.ceil(self.n / 10)]}


def logistic_block(counts: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """f(C) = 1/(1+exp(alpha - beta*C)) for C > 0, and 0 at C = 0."""
    counts = np.asarray(counts, dtype=np.float64)
    return np.where(counts > 0, 1.0 / (1.0 + np.exp(alpha - beta * counts)), 0.0)


def chosen_nodes(row: dict) -> list[int]:
    text = row["chosen_set"]
    return [int(v) for v in text.split("|")] if text else []


def influenced_mass(row: dict) -> float | None:
    """The denominator the program divided by: objective / blocking_pct."""
    if row["blocking_pct"] <= 0:
        return None
    return row["objective"] / row["blocking_pct"]


def group_rows(rows: list[dict], points: list[dict]) -> list[list[dict]]:
    """Rows per sweep point, in the order of `points`."""
    return [[r for r in rows if r["sweep_value"] == p["sweep_value"]]
            for p in points]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def property_problems(rows: list[dict], points: list[dict], rumor_sets,
                      decile: set[int], n: int, k: int, algorithms) -> list:
    problems = []
    for point, rumor, group in zip(points, rumor_sets, group_rows(rows, points)):
        sv = point["sweep_value"]
        if len(rumor) != point["rumor_size"]:
            problems.append(((sv, None), f"rumor set has {len(rumor)} nodes, "
                             f"expected {point['rumor_size']}"))
        if not rumor <= decile:
            problems.append(((sv, None), f"{len(rumor - decile)} rumor nodes "
                             "outside the top degree decile"))
        if [r["algorithm"] for r in group] != list(algorithms):
            problems.append(((sv, None), "rows "
                             f"{[r['algorithm'] for r in group]} do not match "
                             f"the requested algorithms {list(algorithms)}"))
        greedy = next((r for r in group if r["algorithm"] == "greedy"), None)
        for row in group:
            key = (sv, row["algorithm"])
            P = chosen_nodes(row)
            if row["status"] != "ok":
                problems.append((key, f"status {row['status']!r}"))
            if len(P) != k or row["chosen_size"] != k:
                problems.append((key, f"|P| = {len(P)} (chosen_size "
                                 f"{row['chosen_size']}), expected {k}"))
            if len(set(P)) != len(P):
                problems.append((key, "P repeats a node"))
            if any(not 0 <= v < n for v in P):
                problems.append((key, "P holds a node outside the graph"))
            if set(P) & rumor:
                problems.append((key, f"P holds rumor nodes {sorted(set(P) & rumor)}"))
            if (row["algorithm"] in ("bab", "probab") and greedy is not None
                    and row["objective"] < greedy["objective"]):
                problems.append((key, f"objective {row['objective']!r} below "
                                 f"greedy's {greedy['objective']!r}"))
    for small, large in zip(rumor_sets, rumor_sets[1:]):
        if len(small) <= len(large) and not small <= large:
            problems.append(((None, None), "rumor sets are not nested"))
    return problems


def simulate_walks(adj: Adjacency, starts: np.ndarray, walks_per_start: int,
                   steps: int, rng) -> np.ndarray:
    """(steps+1, len(starts)*walks_per_start) node sequences of uniform random
    walks that ignore the rumor set; -1 after a dead end.

    A walk under rumor set R is the prefix of such a sequence up to its first
    node in R, so one simulation serves every sweep point of a workload.
    """
    cur = np.repeat(starts.astype(np.int64), walks_per_start)
    seq = np.full((steps + 1, cur.size), -1, dtype=np.int64)
    seq[0] = cur
    for t in range(1, steps + 1):
        alive = np.flatnonzero(cur >= 0)
        deg = adj.degree[cur[alive]]
        u = rng.random(alive.size)
        moving = deg > 0
        pick = adj.indptr[cur[alive[moving]]] + (u[moving] * deg[moving]).astype(np.int64)
        cur[alive[~moving]] = -1
        cur[alive[moving]] = adj.nbrs[pick]
        seq[t] = cur
    return seq


def _first_visits(seq: np.ndarray) -> np.ndarray:
    """Mask of positions where a walk visits a node for the first time."""
    new = seq >= 0
    for t in range(1, seq.shape[0]):
        for s in range(t):
            new[t] &= seq[t] != seq[s]
    return new


class _PerStartMoments:
    """Accumulates sum over starts of the per-start mean and of the per-start
    variance of a per-walk value."""

    def __init__(self):
        self.total = 0.0
        self.var = 0.0

    def add(self, values: np.ndarray, walks_per_start: int) -> None:
        per_start = values.reshape(-1, walks_per_start)
        self.total += float(per_start.mean(axis=1).sum())
        self.var += float(per_start.var(axis=1, ddof=1).sum())


def walker_estimates(adj: Adjacency, points: list[dict], rumor_sets,
                     row_groups: list[list[dict]], walks_per_start: int,
                     alpha: float, beta: float, seed: int):
    """Independent estimates of each point's influenced mass and each row's
    B(P|R), as `_PerStartMoments` (total = estimate, var = sum of per-start
    variances of one walk)."""
    steps = max(p["T"] for p in points)
    rng = np.random.default_rng(seed)
    masses = [_PerStartMoments() for _ in points]
    blocked = [[_PerStartMoments() for _ in g] for g in row_groups]
    rumor_masks, p_masks = [], []
    for rumor, group in zip(rumor_sets, row_groups):
        rm = np.zeros(adj.n + 1, dtype=bool)  # index -1 (dead end) reads False
        rm[list(rumor)] = True
        rumor_masks.append(rm)
        masks = []
        for row in group:
            pm = np.zeros(adj.n + 1, dtype=bool)
            pm[chosen_nodes(row)] = True
            masks.append(pm)
        p_masks.append(masks)

    batch = max(1, _WALKER_BATCH // walks_per_start)
    for lo in range(0, adj.n, batch):
        starts = np.arange(lo, min(adj.n, lo + batch))
        seq = simulate_walks(adj, starts, walks_per_start, steps, rng)
        new = _first_visits(seq)
        for i, point in enumerate(points):
            T = point["T"]
            in_rumor = rumor_masks[i][seq[:T + 1]]
            in_rumor[0] = False
            hit = in_rumor.any(axis=0)
            first_hit = np.where(hit, in_rumor.argmax(axis=0), T + 1)
            before = np.arange(T + 1)[:, None] < first_hit[None, :]
            counted = new[:T + 1] & before
            keep = np.repeat(~rumor_masks[i][starts], walks_per_start)
            masses[i].add(hit[keep].astype(np.float64), walks_per_start)
            for j, pm in enumerate(p_masks[i]):
                counts = (counted & pm[seq[:T + 1]]).sum(axis=0)
                value = np.where(hit, logistic_block(counts, alpha, beta), 0.0)
                blocked[i][j].add(value[keep], walks_per_start)
    return masses, blocked


def walker_problems(adj: Adjacency, rows: list[dict], points: list[dict],
                    rumor_sets, program_walks: int, walks_per_start: int,
                    alpha: float, beta: float, seed: int):
    """Compare the program's estimates with the independent walker's.

    Both estimate the same expectation from independent walks, so their
    difference has variance V/X_walker + V/X_program, V being the summed
    per-start variance of one walk, which the walker measures.  Returns the
    problems, one line per comparison for the log, and the Monte Carlo
    standard error of each row's program value, keyed by row.
    """
    groups = group_rows(rows, points)
    masses, blocked = walker_estimates(adj, points, rumor_sets, groups,
                                       walks_per_start, alpha, beta, seed)
    problems, lines, program_se = [], [], {}

    def compare(key, label, program, est):
        program_se[key] = math.sqrt(est.var / program_walks)
        se = math.sqrt(est.var / walks_per_start + est.var / program_walks)
        ok = abs(program - est.total) <= TOL_Z * se
        lines.append(f"{label}: program {program:.4f}, walker {est.total:.4f}, "
                     f"combined SE {se:.4f}{'' if ok else '  <-- disagrees'}")
        if not ok:
            problems.append((key, f"{label}: program {program!r} vs independent "
                             f"{est.total!r}, beyond {TOL_Z} x SE {se:.4g}"))

    for point, group, mass, row_ests in zip(points, groups, masses, blocked):
        sv = point["sweep_value"]
        program_masses = [m for m in map(influenced_mass, group) if m is not None]
        if program_masses:
            compare((sv, None), f"[{sv or '-'}] influenced mass",
                    program_masses[0], mass)
            if not all(_close(m, program_masses[0]) for m in program_masses):
                problems.append(((sv, None), "rows disagree on the influenced mass"))
        for row, est in zip(group, row_ests):
            compare((sv, row["algorithm"]),
                    f"[{sv or '-'}] {row['algorithm']} B(P|R)", row["objective"], est)
    return problems, lines, program_se


def exact_problems(group: list[dict], sweep_value: str, hit_flags: np.ndarray,
                   prefix_indptr: np.ndarray, prefix_nodes: np.ndarray,
                   walks_per_start: int, n: int, alpha: float, beta: float) -> list:
    """Re-evaluate one sweep point's rows on the program's store arrays.

    Walk w's prefix is prefix_nodes[prefix_indptr[w]:prefix_indptr[w+1]];
    hit_flags[w] says whether it reached the rumor set.
    """
    problems = []
    hits = np.flatnonzero(hit_flags)
    mass = hits.size / walks_per_start
    for row in group:
        key = (sweep_value, row["algorithm"])
        pm = np.zeros(n, dtype=np.int8)
        pm[chosen_nodes(row)] = 1
        # every prefix holds its start, so no reduceat segment is empty
        counts = np.add.reduceat(pm[prefix_nodes], prefix_indptr[:-1])[hits]
        value = float(logistic_block(counts, alpha, beta).sum()) / walks_per_start
        if not _close(value, row["objective"]):
            problems.append((key, f"objective {row['objective']!r} but the store "
                             f"gives {value!r}"))
        if not _close(row["blocking_pct"] * mass, row["objective"]):
            problems.append((key, f"blocking_pct x influenced mass "
                             f"{row['blocking_pct'] * mass!r} != objective "
                             f"{row['objective']!r}"))
    return problems


def row_mismatches(reference: list[dict], rows: list[dict]) -> list:
    """Rows that differ from the reference in any non-timing field."""
    if len(rows) != len(reference):
        return [((None, None), f"{len(rows)} rows, expected {len(reference)}")]
    problems = []
    for ref, row in zip(reference, rows):
        diff = [f for f in ref if f not in _VOLATILE_FIELDS and ref[f] != row.get(f)]
        if diff:
            problems.append(((ref["sweep_value"], ref["algorithm"]),
                             f"differs from the checked run in {diff}"))
    return problems
