import hashlib
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import rcic.sampling
from rcic.graph import Graph
from rcic.sampling import (
    SampleConfig,
    WalkIndex,
    build_sample_store,
    build_sample_stores,
    hoeffding_sample_size,
)
from rcic.sampling import (_CHUNK_NODES, _csr_take, _hit_prefixes, _pcg64_states,
                           _seed_words, _sorting_network)
from rcic.blocking import (LogisticParams, estimate_envelope_objective,
                           estimate_objective)
from rcic.exact import ExactStore, exact_hit_probabilities
from rcic.synth import barabasi_albert_graph, gnp_graph
from walk_oracle import sample_walk


def _node_rng(seed: int, u: int) -> np.random.Generator:
    """Start u's substream as numpy builds it; the oracle for `_pcg64_states`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(u,)))


def path3():
    # 0 - 1 - 2
    return Graph([[1], [0, 2], [1]], directed=False)


class _Script:
    """Feeds a fixed uniform sequence to sample_walk; raises if over-consumed."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)

    @property
    def unused(self):
        return len(self._values)


def test_sample_config_validation():
    SampleConfig(T=1, X=1)
    with pytest.raises(ValueError):
        SampleConfig(T=0, X=10)
    with pytest.raises(ValueError):
        SampleConfig(T=3, X=0)
    with pytest.raises(ValueError, match="seed"):
        SampleConfig(T=1, X=1, seed=-1)
    # a float T or X would fail only deep inside the walk pass; bool passes
    # numbers.Integral, and True would build a T=1 or X=1 config
    for bad in (2.5, 2.0, math.nan, True, False):
        for T, X, seed in ((bad, 10, 0), (2, bad, 0), (2, 10, bad)):
            with pytest.raises(ValueError, match="integers"):
                SampleConfig(T=T, X=X, seed=seed)
    SampleConfig(T=np.int64(2), X=np.int32(10), seed=np.uint64(3))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3,
                                  2**128 - 1, 2**128, 2**130 + 7, 2**200 + 9])
def test_substream_states_match_seed_sequence(seed):
    # seeds of 2**32 and above are several entropy words; 2**128 - 1 is the
    # last that fits the 4-word pool, and 2**128, 2**130 + 7 and 2**200 + 9
    # (7 words) each add hash rounds before the start's
    n = 8846
    starts = np.arange(n, dtype=np.int64)
    words = _seed_words(seed, starts)
    states, incs = _pcg64_states(seed, starts)
    assert words.shape == (n, 4) and words.dtype == np.uint64
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    X, T = 7, 3
    for u in (0, 1, 127, 128, 4000, n - 1):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(u,))
        assert np.array_equal(words[u], seq.generate_state(4, np.uint64))
        expected = np.random.PCG64(seq).state["state"]
        assert (states[u], incs[u]) == (expected["state"], expected["inc"])
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": states[u], "inc": incs[u]},
                      "has_uint32": 0, "uinteger": 0}
        block = np.empty((X, T))
        rng.random(out=block)
        assert block.tobytes() == _node_rng(seed, u).random((X, T)).tobytes()


def test_hoeffding_sample_size_values():
    assert hoeffding_sample_size(0.1, 0.01, 1000) == 576
    assert hoeffding_sample_size(0.05, 0.05, 2) == 738


def test_hoeffding_sample_size_scaling():
    # halving epsilon roughly quadruples X (up to ceiling)
    x = hoeffding_sample_size(0.1, 0.01, 1000)
    x_half = hoeffding_sample_size(0.05, 0.01, 1000)
    assert 4 * (x - 1) < x_half <= 4 * x


def test_hoeffding_sample_size_validation():
    for eps, delta, cand in ((0.0, 0.1, 5), (1.0, 0.1, 5), (0.1, 0.0, 5),
                             (0.1, 1.0, 5), (0.1, 0.1, 0), (0.1, 0.1, 2.5),
                             (0.1, 0.1, True), (0.1, 0.1, math.nan)):
        with pytest.raises(ValueError):
            hoeffding_sample_size(eps, delta, cand)
    assert hoeffding_sample_size(0.1, 0.01, np.int64(1000)) == 576


def test_sample_walk_hit_at_final_step():
    # step 2 of 2 lands on the rumor node; hits at exactly T still count
    script = _Script([0.0, 0.9])
    prof = sample_walk(path3(), 0, {2}, 2, script)
    assert prof.start == 0
    assert prof.hit
    assert prof.prefix == {0, 1}
    assert script.unused == 0


def test_sample_walk_miss_keeps_prefix():
    script = _Script([0.0, 0.3])  # 0 -> 1 -> 0, never reaches node 2
    prof = sample_walk(path3(), 0, {2}, 2, script)
    assert not prof.hit
    assert prof.prefix == {0, 1}


def test_sample_walk_stops_at_first_hit():
    # hit on step 1; the remaining T-1 steps must not draw
    script = _Script([0.9])
    prof = sample_walk(path3(), 1, {2}, 5, script)
    assert prof.hit
    assert prof.prefix == {1}
    assert script.unused == 0


def test_sample_walk_dead_end_consumes_nothing():
    g = Graph([[1], [2], []], directed=True)
    prof = sample_walk(g, 2, {1}, 4, _Script([]))
    assert not prof.hit
    assert prof.prefix == {2}


def test_sample_walk_rejects_rumor_start():
    with pytest.raises(ValueError):
        sample_walk(path3(), 2, {2}, 3, _Script([0.5]))


def hit_counts(store) -> np.ndarray:
    """Per candidate position, how many of its X walks hit."""
    return store.hit_flags.reshape(store.index.n_candidates, store.X).sum(axis=1)


def test_store_matches_exact_hit_probability():
    g = path3()
    store = build_sample_store(g, {2}, SampleConfig(T=2, X=10000, seed=7))
    # both starts hit with probability exactly 1/2
    for u in (0, 1):
        frac = hit_counts(store)[store.index.position(u)] / store.X
        assert 0.47 <= frac <= 0.53
    assert abs(store.index.influenced_mass
               - hit_counts(store).sum() / store.X) < 1e-9


def test_store_hit_frequencies_converge():
    g = gnp_graph(10, 0.4, seed=3)
    rumor = {0, 7}
    T, X = 3, 2000
    store = build_sample_store(g, rumor, SampleConfig(T=T, X=X, seed=11))
    exact = exact_hit_probabilities(g, rumor, T)
    for u in store.index.candidates:
        p = exact[int(u)]
        emp = hit_counts(store)[store.index.position(int(u))] / X
        sigma = (p * (1.0 - p) / X) ** 0.5
        assert abs(emp - p) <= 4.0 * sigma + 1e-12


def assert_store_replays_scalar_walks(g, rumor, cfg, store) -> int:
    """Check every walk of the store against sample_walk fed the same uniforms.

    Every walk's hit flag must match, and its row: a hit's prefix, ascending,
    or a miss's start alone.  Returns how many misses stopped at a dead end
    after at least one step.
    """
    hit_flags, indptr, nodes = (store.hit_flags, store.prefix_indptr,
                                store.prefix_nodes)
    dead_ends_mid_walk = 0
    for p, u in enumerate(store.index.candidates.tolist()):
        # step-major: walk i's step t is draw t * X + i of u's substream
        uniforms = _node_rng(cfg.seed, u).random((cfg.T, cfg.X))
        for i in range(cfg.X):
            script = _Script(uniforms[:, i])
            expected = sample_walk(g, u, rumor, cfg.T, script)
            w = p * cfg.X + i
            assert hit_flags[w] == expected.hit
            assert nodes[indptr[w]:indptr[w + 1]].tolist() == (
                sorted(expected.prefix) if expected.hit else [u])
            if not expected.hit and 0 < cfg.T - script.unused < cfg.T:
                dead_ends_mid_walk += 1
    return dead_ends_mid_walk


def test_store_profiles_match_scalar_walks():
    # vectorized simulation replays the exact per-walk uniform stream
    g = Graph([[1], [2], [0, 3], []], directed=True)
    rumor = {0}
    cfg = SampleConfig(T=4, X=8, seed=21)
    store = build_sample_store(g, rumor, cfg)
    assert_store_replays_scalar_walks(g, rumor, cfg, store)


def sink_graph(n=300, seed=3):
    """Directed graph where every tenth node is a sink (no out-arcs)."""
    rng = np.random.default_rng(seed)
    adj = []
    for u in range(n):
        k = 0 if u % 10 == 0 else int(rng.integers(1, 4))
        others = np.delete(np.arange(n), u)
        adj.append([int(v) for v in rng.choice(others, size=k, replace=False)])
    return Graph(adj, directed=True)


@pytest.mark.parametrize("threads", [1, 2])
def test_store_profiles_match_scalar_walks_across_chunks(threads):
    # more starts than one chunk holds, and sinks that end walks mid-way
    g = sink_graph()
    rumor = {5, 17, 42, 123, 250}
    cfg = SampleConfig(T=6, X=5, seed=4)
    store = build_sample_store(g, rumor, cfg, threads=threads)
    assert store.index.candidates.size > 2 * _CHUNK_NODES
    assert 0 < store.hit_flags.sum() < store.hit_flags.size
    assert assert_store_replays_scalar_walks(g, rumor, cfg, store) > 0


def test_store_keeps_only_the_start_of_a_miss():
    g = sink_graph()
    cfg = SampleConfig(T=6, X=5, seed=4)
    store = build_sample_store(g, {5, 17, 42, 123, 250}, cfg)
    miss = ~store.hit_flags
    assert miss.any()
    assert store.prefix_nodes.size == store.index.walk_cands.size + miss.sum()
    row_start = store.prefix_indptr[:-1][miss]
    assert np.all(np.diff(store.prefix_indptr)[miss] == 1)
    assert np.array_equal(store.prefix_nodes[row_start],
                          np.repeat(store.index.candidates, cfg.X)[miss])


def test_store_bytes_counts_the_built_arrays():
    g = barabasi_albert_graph(120, 3, seed=4)
    store = build_sample_store(g, {0, 1, 2}, SampleConfig(T=4, X=25, seed=6))
    index = store.index
    # the inverted lists are placed on first read, and count at their size
    # before it
    assert "walk_ids" not in vars(index)
    built = (store.hit_walks, index.candidates, index.cand_pos,
             index.group_sizes, index.group_weights, index.group_of,
             index.walk_indptr, index.walk_cands, index.indptr, index.walk_ids)
    assert vars(index)["walk_ids"] is index.walk_ids
    assert index.walk_ids.nbytes == 4 * index.walk_cands.size
    # hit_mass is built on first use, after the store; it does not count, and
    # the prefix arrays are derived on each read
    assert index.hit_mass.size == index.n_candidates
    assert store.store_bytes == sum(a.nbytes for a in built)
    assert store.store_bytes == sum(
        a.nbytes for obj in (store, index) for name, a in vars(obj).items()
        if isinstance(a, np.ndarray) and name != "hit_mass")
    for name in ("prefix_indptr", "prefix_nodes"):
        assert name not in vars(store)


@pytest.mark.parametrize("threads", [1, 2])
def test_derived_prefix_arrays_are_read_not_kept(threads):
    # misses that end at a sink and misses that run out of steps alike
    g = sink_graph()
    cfg = SampleConfig(T=6, X=5, seed=4)
    store = build_sample_store(g, {5, 17, 42, 123, 250}, cfg, threads=threads)
    size, kept = store.store_bytes, dict(vars(store))
    indptr, nodes = store.prefix_indptr, store.prefix_nodes
    assert indptr.dtype == np.int64 and nodes.dtype == np.int32
    assert indptr[0] == 0 and indptr[-1] == nodes.size
    miss = ~store.hit_flags
    assert miss.any()
    assert np.all(np.diff(indptr)[miss] == 1)
    assert np.array_equal(nodes[indptr[:-1][miss]],
                          np.repeat(store.index.candidates, cfg.X)[miss])
    assert store.store_bytes == size
    assert vars(store).keys() == kept.keys()
    assert all(vars(store)[k] is v for k, v in kept.items())


def test_store_build_is_deterministic():
    g = barabasi_albert_graph(120, 3, seed=4)
    cfg = SampleConfig(T=4, X=25, seed=6)
    a = build_sample_store(g, {0, 1, 2}, cfg)
    b = build_sample_store(g, {0, 1, 2}, cfg)
    assert np.array_equal(a.hit_flags, b.hit_flags)
    assert np.array_equal(a.prefix_indptr, b.prefix_indptr)
    assert np.array_equal(a.prefix_nodes, b.prefix_nodes)
    c = build_sample_store(g, {0, 1, 2}, SampleConfig(T=4, X=25, seed=7))
    assert not np.array_equal(a.hit_flags, c.hit_flags)


def test_numpy_integer_seed_builds_the_same_store():
    g = barabasi_albert_graph(120, 3, seed=4)
    stores = [build_sample_store(g, {0, 1, 2}, SampleConfig(T=4, X=25, seed=s))
              for s in (3, np.uint64(3), np.int64(3))]
    assert store_digest(stores[1]) == store_digest(stores[2]) == store_digest(
        stores[0])


def test_store_build_thread_count_invariant():
    g = barabasi_albert_graph(300, 3, seed=5)
    cfg = SampleConfig(T=5, X=20, seed=13)
    rumor = {0, 1, 2, 3, 4}
    serial = build_sample_store(g, rumor, cfg, threads=1)
    threaded = build_sample_store(g, rumor, cfg, threads=4)
    assert np.array_equal(serial.hit_flags, threaded.hit_flags)
    assert np.array_equal(serial.prefix_indptr, threaded.prefix_indptr)
    assert np.array_equal(serial.prefix_nodes, threaded.prefix_nodes)


def test_sink_graph_store_is_thread_count_invariant():
    # misses that end at a sink and misses that run out of steps alike
    g = sink_graph()
    cfg = SampleConfig(T=6, X=5, seed=4)
    rumor = {5, 17, 42, 123, 250}
    serial = build_sample_store(g, rumor, cfg, threads=1)
    threaded = build_sample_store(g, rumor, cfg, threads=2)
    for name in ("hit_flags", "prefix_indptr", "prefix_nodes"):
        a, b = getattr(serial, name), getattr(threaded, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_the_index_starts_no_thread(monkeypatch):
    # `threads` runs the walk pass alone: once the pass has returned, a
    # thread pool raises, so the index's build, its forward counts, the
    # placement of its inverted lists and its hit mass all run on the
    # caller's thread, and give a 1-thread build's bytes
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 1 << 8)
    g, rumor = barabasi_albert_graph(300, 3, seed=2), set(range(5))
    cfg = SampleConfig(T=5, X=40, seed=1)
    serial = build_sample_store(g, rumor, cfg, threads=1)
    nodes = serial.index.candidates[::7].tolist()
    serial_counts = serial.index.counts_for(nodes)
    pools = []
    sample_hit_rows = rcic.sampling._sample_hit_rows
    thread_pool = rcic.sampling.ThreadPoolExecutor

    def counted_pool(max_workers):
        pools.append(max_workers)
        return thread_pool(max_workers=max_workers)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started after the walk pass")

    def pass_then_no_pool(*args):
        rows = sample_hit_rows(*args)
        monkeypatch.setattr(rcic.sampling, "ThreadPoolExecutor", no_pool)
        return rows

    monkeypatch.setattr(rcic.sampling, "ThreadPoolExecutor", counted_pool)
    monkeypatch.setattr(rcic.sampling, "_sample_hit_rows", pass_then_no_pool)
    store = build_sample_store(g, rumor, cfg, threads=2)
    index = store.index
    assert pools == [2] and len(index._walk_blocks()) > 10
    forward = index.counts_for(nodes)
    assert "walk_ids" not in vars(index)
    assert index.walk_ids.tobytes() == serial.index.walk_ids.tobytes()
    assert index.hit_mass.tobytes() == serial.index.hit_mass.tobytes()
    inverted = inverted_list_counts(index, nodes)
    assert forward.tobytes() == inverted.tobytes() == serial_counts.tobytes()
    assert store_digest(store) == store_digest(serial)


def test_store_build_validation():
    g = path3()
    cfg = SampleConfig(T=2, X=5)
    # raised at the call, before any `next()`, for every key's rumor set
    with pytest.raises(ValueError):
        build_sample_stores(g, [])
    with pytest.raises(ValueError, match="outside"):
        build_sample_stores(g, [({2}, cfg), ({2, 3}, cfg)])
    # 1.5 would run the pass on 2 workers, True on 1
    for threads in (0, -1, 1.5, True, math.nan):
        with pytest.raises(ValueError, match="threads"):
            build_sample_stores(g, [({2}, cfg)], threads)
    assert next(build_sample_stores(g, [({2}, cfg)], np.int64(2))).X == 5
    with pytest.raises(ValueError):
        build_sample_store(g, set(), SampleConfig(T=2, X=5))
    with pytest.raises(ValueError):
        build_sample_store(g, {3}, SampleConfig(T=2, X=5))
    with pytest.raises(ValueError):
        build_sample_store(g, {0, 1, 2}, SampleConfig(T=2, X=5))


def test_index_structure_invariants():
    g = barabasi_albert_graph(50, 2, seed=9)
    rumor = {0, 1}
    store = build_sample_store(g, rumor, SampleConfig(T=4, X=30, seed=2))
    index = store.index

    assert list(index.candidates) == sorted(set(range(g.n)) - rumor)
    assert index.candidates.dtype == np.int64
    for pos, v in enumerate(index.candidates):
        assert index.position(int(v)) == pos
    assert index.indptr[0] == 0
    assert index.indptr[-1] == len(index.walk_ids) == len(index.walk_cands)
    assert np.all(np.diff(index.indptr) >= 0)
    for pos in range(index.n_candidates):
        lo, hi = index.indptr[pos], index.indptr[pos + 1]
        # each hit walk contributes a node at most once
        assert np.all(np.diff(index.walk_ids[lo:hi]) > 0)

    # forward CSR: row w is hit walk w's prefix, as candidate positions
    hit_ids = hit_walk_numbers(store)
    assert index.walk_indptr.size == index.n_hit_walks + 1 == hit_ids.size + 1
    for w, walk in enumerate(hit_ids):
        row = index.walk_cands[index.walk_indptr[w]:index.walk_indptr[w + 1]]
        lo, hi = store.prefix_indptr[walk], store.prefix_indptr[walk + 1]
        assert np.array_equal(row, index.cand_pos[store.prefix_nodes[lo:hi]])
    # transposing the forward CSR gives the inverted one
    walk_of_entry = np.repeat(np.arange(index.n_hit_walks),
                              np.diff(index.walk_indptr))
    order = np.argsort(index.walk_cands, kind="stable")
    assert np.array_equal(walk_of_entry[order], index.walk_ids)
    assert np.array_equal(
        np.bincount(index.walk_cands, minlength=index.n_candidates),
        np.diff(index.indptr))

    counts = index.counts_for(index.candidates)
    assert counts.sum() == len(index.walk_ids)
    assert counts.max() == index.max_count
    assert abs(index.influenced_mass
               - (index.group_sizes * index.group_weights).sum()) < 1e-12


def test_index_rejects_degenerate_input():
    with pytest.raises(ValueError):
        WalkIndex(2, {0, 1}, [0], [], [], [])
    with pytest.raises(ValueError):
        # prefix claims to contain the rumor node
        WalkIndex(3, {2}, [0, 1], [2], [1], [0.5])
    with pytest.raises(ValueError, match="empty"):
        # hit walk 0's prefix is empty: every prefix holds its start
        WalkIndex(3, {2}, [0, 0, 1], [0], [2], [0.5])
    with pytest.raises(ValueError, match="groups"):
        # the groups size three hit walks where there are two
        WalkIndex(3, {2}, [0, 1, 2], [0, 1], [1, 2], [0.5, 0.5])
    with pytest.raises(ValueError, match="groups"):
        # two groups, one weight
        WalkIndex(3, {2}, [0, 1, 2], [0, 1], [1, 1], [0.5])


def count_parity_sets(index, rng):
    """Node sets that `counts_for` reads: random ones, one with repeats, the
    empty set and every candidate."""
    cands = index.candidates.tolist()
    sets = [rng.choice(cands, size=k, replace=False).tolist()
            for k in (1, 2, 5, len(cands) // 3, len(cands) - 1)]
    return [*sets, sets[2] * 3, [], cands]


def inverted_list_counts(index, nodes) -> np.ndarray:
    """The reference for `counts_for`: each node's inverted list, placed by
    `walks_of`, adds 1 to its walks."""
    counts = np.zeros(index.n_hit_walks, dtype=index.count_dtype)
    for v in frozenset(nodes):
        counts[index.walks_of(index.position(v))] += 1
    return counts


def assert_forward_counts_match_inverted(index, rng):
    """The counts `counts_for` sums from the forward CSR, which places no
    inverted list, equal those the inverted lists give, dtype included, and
    keep their bytes once the lists are placed."""
    sets = count_parity_sets(index, rng)
    assert "walk_ids" not in vars(index)
    forward = [index.counts_for(nodes) for nodes in sets]
    assert "walk_ids" not in vars(index)
    for nodes, counts in zip(sets, forward):
        inverted = inverted_list_counts(index, nodes)
        assert counts.dtype == inverted.dtype == index.count_dtype
        assert np.array_equal(counts, inverted)
        assert index.counts_for(nodes).tobytes() == counts.tobytes()
    assert forward[-2].sum() == 0  # the empty set
    assert forward[-1].tolist() == np.diff(index.walk_indptr).tolist()


@pytest.mark.parametrize("threads", [1, 2])
def test_counts_from_the_forward_csr_match_the_inverted_lists(monkeypatch,
                                                              threads):
    # blocks of a few walks, so the forward counts span many of them
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 1 << 6)
    store = build_sample_store(barabasi_albert_graph(300, 3, seed=2),
                               set(range(5)), SampleConfig(T=5, X=20, seed=1),
                               threads=threads)
    assert len(store.index._walk_blocks()) > 50
    assert_forward_counts_match_inverted(store.index, np.random.default_rng(3))


def test_exact_counts_from_the_forward_csr_match_the_inverted_lists():
    index = ExactStore(gnp_graph(8, 0.5, seed=1), {3}, T=5).index
    assert_forward_counts_match_inverted(index, np.random.default_rng(4))
    # one walk whose prefix holds all 300 candidates: two-byte counts
    index = WalkIndex(301, {300}, [0, 300], np.arange(300), [1], [0.25])
    assert index.count_dtype == np.uint16
    assert_forward_counts_match_inverted(index, np.random.default_rng(5))


@pytest.mark.parametrize("case", ["sampled", "exact"])
def test_objectives_keep_their_bits_once_the_inverted_lists_are_placed(
        monkeypatch, case):
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 1 << 6)
    if case == "sampled":
        store = build_sample_store(barabasi_albert_graph(300, 3, seed=2),
                                   set(range(5)), SampleConfig(T=5, X=20, seed=1))
    else:
        store = ExactStore(gnp_graph(8, 0.5, seed=1), {3}, T=5)
    params = LogisticParams(alpha=3.0, beta=1.0)
    rng = np.random.default_rng(6)
    sets = count_parity_sets(store.index, rng)
    anchors = [rng.choice(nodes, size=len(nodes) // 2, replace=False).tolist()
               for nodes in sets]

    def values():
        return ([estimate_objective(store, params, P) for P in sets],
                [estimate_envelope_objective(store, params, A, P)
                 for A, P in zip(anchors, sets)])

    forward = values()
    assert "walk_ids" not in vars(store.index)
    store.index.walk_ids
    assert values() == forward


def rebuilt_index(index, rumor):
    """The index built again from `index`'s forward CSR, under the current
    block size."""
    return WalkIndex(index.n_nodes, rumor, index.walk_indptr, index.walk_cands,
                     index.group_sizes, index.group_weights)


def assert_one_stable_sort(index):
    walk_of_entry = np.repeat(np.arange(index.n_hit_walks, dtype=np.int32),
                              np.diff(index.walk_indptr))
    order = np.argsort(index.walk_cands, kind="stable")
    assert index.walk_ids.dtype == np.int32
    assert np.array_equal(index.walk_ids, walk_of_entry[order])
    assert np.array_equal(index.indptr, np.concatenate([[0], np.cumsum(
        np.bincount(index.walk_cands, minlength=index.n_candidates))]))


@pytest.mark.parametrize("case", ["sampled", "walk_longer_than_block",
                                  "exact", "no_hits"])
def test_block_placement_is_one_stable_sort(monkeypatch, case):
    block = 2 if case == "walk_longer_than_block" else 5
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", block)
    if case == "sampled":
        rumor = {5, 17, 42, 123, 250}
        store = build_sample_store(sink_graph(), rumor,
                                   SampleConfig(T=6, X=5, seed=4), threads=2)
    elif case == "walk_longer_than_block":
        rumor = {0, 1}
        store = build_sample_store(barabasi_albert_graph(50, 2, seed=9), rumor,
                                   SampleConfig(T=6, X=10, seed=2))
    elif case == "exact":
        rumor = {3}
        store = ExactStore(gnp_graph(8, 0.5, seed=2), rumor, T=3)
    else:  # node 2 has no in-arc, so no walk reaches it
        rumor = {2}
        store = build_sample_store(Graph([[1], [0], [0]], directed=True), rumor,
                                   SampleConfig(T=3, X=5, seed=1))
    index = store.index
    if case == "no_hits":
        assert index.n_hit_walks == 0 and index.max_count == 0
    else:
        assert index.walk_cands.size > 4 * block
    if case == "walk_longer_than_block":
        assert index.max_count > block
    assert_one_stable_sort(index)
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 1 << 40)
    one_block = rebuilt_index(index, rumor)
    for name in ("walk_ids", "indptr", "walk_cands", "walk_indptr", "max_count",
                 "group_of"):
        assert np.array_equal(getattr(one_block, name), getattr(index, name)), name


@pytest.mark.parametrize("case", ["sampled", "exact"])
def test_weighted_sum_matches_fsum(monkeypatch, case):
    # block-wise sums of weight * value, over every walk and over a walk
    # list, agree with the exactly rounded sum of the same terms
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 1 << 5)
    if case == "sampled":
        store = build_sample_store(barabasi_albert_graph(300, 3, seed=2),
                                   set(range(5)), SampleConfig(T=5, X=40, seed=1))
    else:  # realization probabilities, not one shared 1/X
        store = ExactStore(gnp_graph(8, 0.5, seed=1), {3}, T=5)
    index = store.index
    assert index.n_hit_walks > 4 * (1 << 5)
    assert case == "sampled" or np.unique(index.group_weights).size > 1
    weights = np.repeat(index.group_weights, index.group_sizes)
    values = np.random.default_rng(0).random(index.n_hit_walks)
    for walks in (None, np.arange(1, index.n_hit_walks, 3, dtype=np.int32)):
        picked = slice(None) if walks is None else walks
        exact = math.fsum((weights[picked] * values[picked]).tolist())
        total = index.weighted_sum(lambda w: values[w], walks)
        assert abs(total - exact) <= 1e-12 * exact


def test_index_build_scratch_is_bounded(monkeypatch):
    # many blocks: the build's scratch memory must not grow with the entries
    g = barabasi_albert_graph(2000, 3, seed=7)
    rumor = {0, 1, 2, 3, 4}
    source = build_sample_store(g, rumor, SampleConfig(T=6, X=100, seed=3)).index
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 1 << 10)
    assert source.walk_cands.size > 50 * (1 << 10)
    tracemalloc.start()
    try:
        index = rebuilt_index(source, rumor)
        index.walk_ids  # placed on first read
        kept_new, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in vars(index).values() if isinstance(a, np.ndarray))
    # one stable sort over every entry holds an int64 order and an int32 walk
    # id per entry at its peak, about as much again as the index keeps
    assert peak - kept_new < 0.25 * kept
    assert_one_stable_sort(index)


def pass_scratch_in_buffers(threads) -> float:
    """What a pass on `threads` workers holds beyond its rows at its traced
    peak, in units of one chunk's buffers.  At X = 5000 a chunk of
    _CHUNK_NODES starts would hold 640,000 walks; a chunk holds
    _CHUNK_WALKS."""
    g = barabasi_albert_graph(300, 3, seed=1)
    cfg = SampleConfig(T=2, X=5000)
    tracemalloc.start()
    try:
        (rows,) = rcic.sampling._sample_hit_rows(g, [{0, 1, 2}], cfg, threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows[0].size == rows[1].size > 0
    kept = sum(a.nbytes for a in rows)
    # a chunk's buffers, 8 bytes per walk each: T + 1 rows of the step
    # matrix, T rows of uniforms and three step temporaries
    buffers = rcic.sampling._CHUNK_WALKS * (2 * cfg.T + 4) * 8
    return (peak - kept) / buffers


def test_walk_pass_scratch_is_bounded_by_walks():
    # the pass's scratch must stay that of a chunk of _CHUNK_WALKS walks
    assert pass_scratch_in_buffers(1) < 2


def test_walk_pass_scratch_on_two_threads_is_bounded_by_walks():
    # each worker keeps one chunk's buffers until the pool shuts down, and
    # reuses them for every chunk it runs; beyond them the pass holds less
    # than one more
    assert pass_scratch_in_buffers(2) < 3


def test_walk_pass_holds_its_rows_once(monkeypatch):
    # chunks of two starts keep the kernel's scratch well below the rows, so
    # what the pass holds beyond its rows shows: a chunk's rows are copied
    # into each set's arrays as the chunk is done, so no array is ever held
    # twice, as a join of every chunk's rows would hold it
    monkeypatch.setattr(rcic.sampling, "_CHUNK_WALKS", 4000)
    g = barabasi_albert_graph(1500, 3, seed=1)
    cfg = SampleConfig(T=4, X=2000)
    tracemalloc.start()
    try:
        (rows,) = rcic.sampling._sample_hit_rows(g, [set(range(10))], cfg, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in rows)
    largest = max(a.nbytes for a in rows)
    buffers = rcic.sampling._CHUNK_WALKS * (2 * cfg.T + 4) * 8
    assert kept - largest > 4 * buffers
    assert peak - kept < largest


def walk_numbers(walks, per_start, X) -> np.ndarray:
    """Each hit walk's number start * X + i, in a store's or a pass's row
    order, from its i (`walks`) and its start's number of hit walks."""
    return np.repeat(np.arange(per_start.size) * X, per_start) + walks


def hit_walk_numbers(store) -> np.ndarray:
    """The walk number of each hit walk, in a store's order."""
    return walk_numbers(store.hit_walks, store.hit_counts, store.X)


def hit_walk_ranks(numbers) -> np.ndarray:
    """Per hit walk in a store's or a pass's order, by start, then hit
    step, then walk number: its rank among the hit walks by walk number."""
    return np.argsort(np.argsort(numbers))


def store_in_walk_order(store):
    """The store's hit flags and index with its hit walks listed by walk
    number: the layout `PINNED_DIGEST` and `PINNED_VALUE_DIGEST` digest."""
    index = store.index
    rank = hit_walk_ranks(hit_walk_numbers(store))
    rows = np.argsort(rank)  # the index's row of each hit walk by number
    indptr, cands = _csr_take(index.walk_indptr, index.walk_cands, rows)
    # each candidate's hit walks, renumbered, in ascending order again
    ids = rank[index.walk_ids].astype(index.walk_ids.dtype)
    owner = np.repeat(np.arange(index.n_candidates), np.diff(index.indptr))
    return SimpleNamespace(hit_flags=store.hit_flags, index=SimpleNamespace(
        candidates=index.candidates, cand_pos=index.cand_pos,
        group_sizes=index.group_sizes, group_weights=index.group_weights,
        group_of=index.group_of[rows],
        walk_indptr=indptr.astype(index.walk_indptr.dtype), walk_cands=cands,
        indptr=index.indptr, walk_ids=ids[np.lexsort((ids, owner))]))


def rows_in_walk_order(rows, X, T):
    """A pass at T's rows for one set in walk-number order: hit flags, then
    each hit walk's prefix size, prefix and hit step by walk number; the
    layout `PINNED_ROWS_DIGEST` digests.  A start's hit walks run by hit
    step, so their steps follow from its per-step hit counts."""
    walks, sizes, cands, walk_counts = rows[:4]
    walk_counts = walk_counts.reshape(-1, T)
    numbers = walk_numbers(walks, walk_counts.sum(axis=1, dtype=np.int64), X)
    rows_by_number = np.argsort(numbers)
    steps = np.repeat(np.tile(np.arange(1, T + 1, dtype=np.min_scalar_type(T)),
                              walk_counts.shape[0]), walk_counts.ravel())
    flags = np.zeros(walk_counts.shape[0] * X, dtype=bool)
    flags[numbers] = True
    indptr = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    return (flags, sizes[rows_by_number],
            _csr_take(indptr, cands, rows_by_number)[1], steps[rows_by_number])


# the index's per-group weights, in place of a weight per hit walk
GROUP_ARRAYS = ("group_sizes", "group_weights", "group_of")


def arrays_digest(store, names) -> str:
    h = hashlib.sha256()
    for name in names:
        a = getattr(store if name.startswith("hit_") else store.index, name)
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def store_digest(store) -> str:
    """Every byte of the store and index arrays that a store's own order
    and dtypes give."""
    return arrays_digest(store, ("hit_walks", "walk_ids", "indptr",
                                 "walk_cands", "walk_indptr", *GROUP_ARRAYS))


def walk_order_digest(store) -> str:
    """The digest of the store in walk order that `PINNED_DIGEST` pins."""
    return arrays_digest(store_in_walk_order(store), (
        "hit_flags", "walk_ids", "indptr", "walk_cands", "walk_indptr",
        *GROUP_ARRAYS))


PINNED_DIGEST = "25b4afd8567e142a7ef199f92a73bc881b66c3ebf3151c5c6e849fe881ffab04"


# every array an index keeps, and every array a store and its index keep
INDEX_ARRAYS = ("candidates", "cand_pos", *GROUP_ARRAYS, "walk_indptr",
                "walk_cands", "indptr", "walk_ids")
STORE_ARRAYS = ("hit_walks", *INDEX_ARRAYS)


def store_value_digest(store) -> str:
    """A digest of every store and index array's values alone, of the store
    in walk order: each array is cast to int64 (`group_weights` to float64)
    before it is hashed, so it holds across a change of the arrays' dtypes,
    where `walk_order_digest` does not."""
    h = hashlib.sha256()
    store = store_in_walk_order(store)
    for name in ("hit_flags", *INDEX_ARRAYS):
        a = getattr(store if name == "hit_flags" else store.index, name)
        cast = np.float64 if name == "group_weights" else np.int64
        h.update(name.encode())
        h.update(np.ascontiguousarray(a, dtype=cast).tobytes())
    return h.hexdigest()


PINNED_VALUE_DIGEST = (
    "7fd43205e00d4596ac9a36c05d2c16876f4fe5dd36c4fdd102ead0e8916b619a")


def pinned_store(threads):
    store = build_sample_store(barabasi_albert_graph(400, 3, seed=11),
                               {0, 3, 5, 8}, SampleConfig(T=5, X=40, seed=2),
                               threads=threads)
    assert store.index.candidates.size > 2 * _CHUNK_NODES
    return store


@pytest.mark.parametrize("threads", [1, 2])
def test_store_bytes_are_pinned(threads):
    # every byte of the store and index arrays, as the one-stable-sort index
    # build and the node-id kernel output made them, in walk order
    assert walk_order_digest(pinned_store(threads)) == PINNED_DIGEST


@pytest.mark.parametrize("threads", [1, 2])
def test_store_values_are_pinned(threads):
    # the same arrays' values, whatever dtypes hold them
    store = pinned_store(threads)

    def kept():
        return {name for obj in (store, store.index)
                for name, a in vars(obj).items() if isinstance(a, np.ndarray)}

    # the inverted lists are placed by the digest's first read of them
    assert kept() == set(STORE_ARRAYS) - {"walk_ids"}
    assert store_value_digest(store) == PINNED_VALUE_DIGEST
    assert kept() == set(STORE_ARRAYS)


@pytest.mark.parametrize("chunk_walks", [1, 121])
def test_chunks_of_fewer_starts_keep_the_pinned_bytes(monkeypatch, chunk_walks):
    # X = 40: chunks of one start and of three; each start's walks read only
    # its own substream, so the rows do not depend on the chunking
    monkeypatch.setattr(rcic.sampling, "_CHUNK_WALKS", chunk_walks)
    assert walk_order_digest(pinned_store(2)) == PINNED_DIGEST


@pytest.mark.parametrize("threads", [1, 2])
def test_nested_stores_equal_separate_builds(threads):
    assert_nested_stores_equal_separate_builds(threads)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_multi_block_placement_keeps_the_pinned_bytes(monkeypatch, threads):
    # a walk pass on `threads` workers, more of them than a small machine's
    # cores, switched between often; then about 90 blocks, placed on the
    # caller's thread
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 97)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        store = pinned_store(threads)
        assert len(store.index._walk_blocks()) > 50
        assert walk_order_digest(store) == PINNED_DIGEST
        assert store.index.max_count == 5
        assert_nested_stores_equal_separate_builds(threads)
    finally:
        sys.setswitchinterval(interval)


def nested_rumor_sets(graph):
    """A graph, its walks per start and seed, and three nested rumor sets.
    "sink_rumor" is "sink" with the dead end 10 in every set."""
    if graph in ("sink", "sink_rumor"):
        first = {5, 17} if graph == "sink" else {5, 10, 17}
        mid = first | {42, 123, 250}
        return sink_graph(), 5, 4, [first, mid, mid | {7, 90, 201}]
    small, mid = {0, 3, 5, 8}, {0, 3, 5, 8, 13, 40, 77}
    return (barabasi_albert_graph(400, 3, seed=11), 40, 2,
            [small, mid, set(range(0, 400, 9)) | mid])


def assert_nested_stores_equal_separate_builds(threads):
    g, X, seed, rumors = nested_rumor_sets("ba")
    cfg = SampleConfig(T=5, X=X, seed=seed)
    stores = build_sample_stores(g, [(rumor, cfg) for rumor in rumors],
                                 threads=threads)
    for rumor, store in zip(rumors, stores):
        alone = build_sample_store(g, rumor, cfg, threads=threads)
        assert alone.index.candidates.size > 2 * _CHUNK_NODES
        assert store.rumor_set == rumor
        assert store_digest(store) == store_digest(alone)
        assert store.index.hit_mass.tobytes() == alone.index.hit_mass.tobytes()
    assert next(stores, None) is None


@pytest.mark.parametrize("threads", [1, 2])
def test_nested_stores_replay_scalar_walks(threads):
    # starts in the larger sets are dropped; walks meet sinks before and after
    # they first step into a larger set
    g, X, seed, rumors = nested_rumor_sets("sink")
    cfg = SampleConfig(T=6, X=X, seed=seed)
    stores = build_sample_stores(g, [(rumor, cfg) for rumor in rumors],
                                 threads=threads)
    for rumor, store in zip(rumors, stores):
        assert store.index.candidates.size == g.n - len(rumor)
        assert assert_store_replays_scalar_walks(g, rumor, cfg, store) > 0


def test_nested_stores_cut_at_the_first_step_and_at_dead_ends():
    # 1 -> 2 -> {0, 3}, 2 -> 0 hits R_1 at step 1, 1 -> 2 hits R_2 at step 1,
    # and node 3 is a dead end; 32 walks from node 2 all take the same first
    # step with probability 2**-31
    g = Graph([[1], [2], [0, 3], []], directed=True)
    rumors = [{0}, {0, 2}]
    cfg = SampleConfig(T=4, X=32, seed=21)
    small, large = build_sample_stores(g, [(rumor, cfg) for rumor in rumors])
    for rumor, store in zip(rumors, (small, large)):
        assert_store_replays_scalar_walks(g, rumor, cfg, store)
    # small's candidates are 1, 2, 3, so its walks X..2X-1 are node 2's
    hit_flags, indptr, nodes = (small.hit_flags, small.prefix_indptr,
                                small.prefix_nodes)
    from_2 = range(cfg.X, 2 * cfg.X)
    assert any(hit_flags[w] and nodes[indptr[w]:indptr[w + 1]].tolist() == [2]
               for w in from_2)  # 2 -> 0
    assert not hit_flags[from_2].all()  # 2 -> 3, a dead end
    assert large.hit_flags.reshape(2, cfg.X)[0].all()  # every walk from 1
    assert not large.hit_flags.reshape(2, cfg.X)[1].any()  # from dead end 3
    assert large.prefix_nodes[large.prefix_indptr[0]:large.prefix_indptr[1]
                              ].tolist() == [1]


def test_build_sample_stores_plans_one_pass_per_nested_run(monkeypatch):
    # an equal key repeats its store; a shrinking set, a new X and a new seed
    # each start a pass, and a new T joins the pass at the run's largest T
    g = barabasi_albert_graph(60, 2, seed=3)
    cfg, other = SampleConfig(T=3, X=20, seed=1), SampleConfig(T=4, X=20, seed=1)
    new_x, new_seed = SampleConfig(T=4, X=30, seed=1), SampleConfig(T=4, X=30, seed=2)
    keys = [({0}, cfg), ({0, 1}, cfg), ({0, 1}, cfg), ({1}, cfg),
            ({1, 2}, cfg), ({1, 2}, other), ({1, 2}, new_x), ({1, 2}, new_seed)]
    passes = []
    sample_hit_rows = rcic.sampling._sample_hit_rows

    def tracking_pass(g, rumors, cfg, threads):
        passes.append((len(rumors), cfg.T))
        return sample_hit_rows(g, rumors, cfg, threads)

    monkeypatch.setattr(rcic.sampling, "_sample_hit_rows", tracking_pass)
    stores = list(build_sample_stores(g, keys))
    assert passes == [(2, 3), (2, 4), (1, 4), (1, 4)]
    assert [a is b for a, b in zip(stores, stores[1:])] == [
        False, True, False, False, False, False, False]
    for (rumor, key_cfg), store in zip(keys, stores):
        assert store.rumor_set == rumor and store.config == key_cfg
        assert store_digest(store) == store_digest(
            build_sample_store(g, rumor, key_cfg))


@pytest.mark.parametrize("rumors, passes", [([], None), ([{0, 1}, {0}], [1, 1]),
                                            ([{0}, {1}], [1, 1]),
                                            ([{0}, {0, 1}, {1, 2}], [2, 1])],
                         ids=["none", "shrinking", "disjoint", "not_nested"])
def test_build_sample_stores_rejects_sets_that_do_not_grow_nested(
        monkeypatch, rumors, passes):
    # no keys at all is an error; a set that does not grow the one before it
    # is kept out of that set's walk pass and starts its own
    g = barabasi_albert_graph(20, 2, seed=1)
    cfg = SampleConfig(T=2, X=5)
    if passes is None:
        with pytest.raises(ValueError):
            build_sample_stores(g, [(rumor, cfg) for rumor in rumors])
        return
    runs = []
    sample_hit_rows = rcic.sampling._sample_hit_rows

    def tracking_pass(g, rumors, cfg, threads):
        runs.append([set(rumor) for rumor in rumors])
        return sample_hit_rows(g, rumors, cfg, threads)

    monkeypatch.setattr(rcic.sampling, "_sample_hit_rows", tracking_pass)
    stores = list(build_sample_stores(g, [(rumor, cfg) for rumor in rumors]))
    assert [len(run) for run in runs] == passes
    assert all(a < b for run in runs for a, b in zip(run, run[1:]))
    for rumor, store in zip(rumors, stores):
        assert store_digest(store) == store_digest(
            build_sample_store(g, rumor, cfg))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("graph", ["sink", "ba", "sink_rumor"])
def test_t_and_rumor_runs_share_one_pass(monkeypatch, graph, threads):
    # T grows, falls and repeats along nested sets: one pass at the largest
    # T serves every key, and each store is cut from it to its set and T.
    # Under "sink_rumor" the pass's own rumor set holds a dead end.
    g, X, seed, rumors = nested_rumor_sets(graph)
    keys = [(rumors[r], SampleConfig(T=T, X=X, seed=seed))
            for r, T in ((0, 3), (0, 6), (0, 2), (1, 2), (1, 6), (2, 4))]
    passes = []
    sample_hit_rows = rcic.sampling._sample_hit_rows

    def tracking_pass(g, rumors, cfg, threads):
        passes.append((len(rumors), cfg.T))
        return sample_hit_rows(g, rumors, cfg, threads)

    monkeypatch.setattr(rcic.sampling, "_sample_hit_rows", tracking_pass)
    stores = list(build_sample_stores(g, keys, threads=threads))
    assert passes == [(3, 6)]
    for (rumor, cfg), store in zip(keys, stores):
        alone = build_sample_store(g, rumor, cfg, threads=threads)
        assert store.rumor_set == rumor and store.config == cfg
        assert store_digest(store) == store_digest(alone)
        assert store.index.hit_mass.tobytes() == alone.index.hit_mass.tobytes()
        assert_store_replays_scalar_walks(g, rumor, cfg, store)


@pytest.mark.parametrize("graph", ["sink", "ba"])
def test_longer_walks_keep_every_hit_and_its_prefix(graph):
    # a walk ends at its hit, so a walk that hits within T' steps hits within
    # every T >= T' with the same prefix: for a fixed P, B_T(P) and the
    # influenced mass cannot fall as T grows
    g, X, seed, rumors = nested_rumor_sets(graph)
    stores = list(build_sample_stores(
        g, [(rumors[-1], SampleConfig(T=T, X=X, seed=seed)) for T in (1, 2, 4, 7)]))
    params = LogisticParams(alpha=3.0, beta=1.0)
    # one P for every T: the ten candidates the longest walks reach most
    top = np.argsort(stores[-1].index.hit_mass, kind="stable")[-10:]
    P = set(int(v) for v in stores[-1].index.candidates[top])
    blocked = [estimate_objective(store, params, P) for store in stores]
    mass = [store.index.influenced_mass for store in stores]
    for short, long in zip(stores, stores[1:]):
        hits = np.flatnonzero(short.hit_flags)
        assert long.hit_flags[hits].all()
        for a, b in zip(_csr_take(short.prefix_indptr, short.prefix_nodes, hits),
                        _csr_take(long.prefix_indptr, long.prefix_nodes, hits)):
            assert np.array_equal(a, b)
    # each is a longer sum of the same non-negative terms, up to its rounding
    assert all(b >= a * (1 - 1e-12) for a, b in zip(blocked, blocked[1:]))
    assert all(b >= a * (1 - 1e-12) for a, b in zip(mass, mass[1:]))
    assert blocked[-1] > blocked[0] and mass[-1] > mass[0]


def test_hit_steps_above_255_cut_exactly():
    # on the directed cycle u -> u + 1 into rumor node 0, the walk from u
    # hits at step 300 - u, so the hit steps need more than one byte
    n = 300
    g = Graph([[(u + 1) % n] for u in range(n)], directed=True)
    (rows,) = rcic.sampling._sample_hit_rows(g, [{0}], SampleConfig(T=n, X=2), 1)
    steps = np.flatnonzero(rows[3].reshape(-1, n).any(axis=0)) + 1
    assert steps.min() == 1 and steps.max() == n - 1
    # the walk from u holds u..n-1 before its hit: prefix sizes up to n - 1
    assert rows[1].dtype == np.uint16 and rows[1].max() == n - 1
    keys = [({0}, SampleConfig(T=T, X=2)) for T in (280, 256, n, 255, 1)]
    for (rumor, cfg), store in zip(keys, build_sample_stores(g, keys)):
        assert np.array_equal(hit_counts(store),
                              2 * (n - store.index.candidates <= cfg.T))
        assert np.array_equal(store.hit_counts, hit_counts(store))
        assert store_digest(store) == store_digest(
            build_sample_store(g, rumor, cfg))


def two_path_graph():
    """Node 1 steps to node 2 or node 300 with equal odds.  From node 2 a
    path reaches rumor node 0 at step 250 of a walk from 1; from node 300,
    at step 301.  Nodes 251..299 have no arcs."""
    adj = [[] for _ in range(600)]
    adj[1] = [2, 300]
    for u in (*range(2, 250), *range(300, 599)):
        adj[u] = [u + 1]
    adj[250] = adj[599] = [0]
    return Graph(adj, directed=True)


def test_hit_steps_on_both_sides_of_256_order_and_cut_exactly():
    # node 1's walks hit at steps 250 and 301, so its hit walks sort by a
    # two-byte step; every cut, to T below, at and above each, and below
    # 256, where the steps take one byte, equals a build on its key alone
    g, X = two_path_graph(), 16
    keys = [({0}, SampleConfig(T=T, X=X, seed=3))
            for T in (320, 301, 300, 256, 255, 250, 249, 1)]
    # node 1's hit walks' steps in the pass, ascending, from its per-step
    # counts; node 1 is the first start
    (rows,) = rcic.sampling._sample_hit_rows(g, [{0}], keys[0][1], 1)
    pass_steps = np.repeat(np.arange(1, 321), rows[3].reshape(-1, 320)[0])
    for (rumor, cfg), store in zip(keys, build_sample_stores(g, keys)):
        alone = build_sample_store(g, rumor, cfg)
        assert store.hit_counts.shape == (store.index.n_candidates,)
        assert store_digest(store) == store_digest(alone)
        steps = pass_steps[pass_steps <= cfg.T]
        assert store.hit_counts[store.index.position(1)] == steps.size
        assert set(steps.tolist()) == (
            {250, 301} if cfg.T >= 301 else {250} if cfg.T >= 250 else set())
        # node 1 is the first start: its hit walks lead the index, the walks
        # that hit at step 250 (prefix size 250) before those at 301
        sizes = np.diff(store.index.walk_indptr)[:steps.size]
        assert sizes.tolist() == steps.tolist()


def test_t_cut_holds_no_scratch_the_size_of_the_walks(monkeypatch):
    # the cut copies ranges read off per-(start, step) counts: beyond its
    # outputs it holds O(n_candidates * T), and one block of walks' compare
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 1024)
    g = barabasi_albert_graph(300, 3, seed=1)
    rumor, X, T = {0, 1, 2}, 2000, 6
    (rows,) = rcic.sampling._sample_hit_rows(g, [rumor], SampleConfig(
        T=T, X=X), 1)
    n_cand = g.n - len(rumor)
    for cut_T in (2, 4):
        tracemalloc.start()
        try:
            cut = rcic.sampling._hit_rows_within(rows, T, cut_T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        hits = cut[2].size - 1
        assert 0 < hits < rows[0].size
        # an int64 per hit walk of the pass would alone pass the bound
        assert 8 * rows[0].size > 4 * 64 * n_cand * T
        assert peak - sum(a.nbytes for a in cut) < 64 * n_cand * T + 2048


@pytest.mark.parametrize("threads, chunk_walks", [(1, 1), (2, 1), (1, 121),
                                                  (2, 121)])
def test_each_store_keeps_the_first_hit_walks_of_each_start(
        monkeypatch, threads, chunk_walks):
    # the pass lists each start's hit walks by (hit step, walk), so a store
    # under any T' and any set of a nested run keeps each start's first
    # ones, at every thread count and chunking
    g, X, seed, rumors = nested_rumor_sets("sink")
    T = 6
    per_set = rcic.sampling._sample_hit_rows(g, rumors, SampleConfig(
        T=T, X=X, seed=seed), 1)
    monkeypatch.setattr(rcic.sampling, "_CHUNK_WALKS", chunk_walks)
    keys = [(rumors[r], SampleConfig(T=T_, X=X, seed=seed))
            for r, T_ in ((0, 2), (0, 4), (0, 6), (1, 3), (1, 6), (2, 5))]
    stores = build_sample_stores(g, keys, threads=threads)
    for (rumor, cfg), store in zip(keys, stores):
        walks, sizes, cands, walk_counts, entry_counts = per_set[
            rumors.index(rumor)]
        walk_counts = walk_counts.reshape(-1, T)
        n_starts = walk_counts.shape[0]
        assert store.index.n_candidates == n_starts
        assert store.hit_counts.dtype == walk_counts.dtype
        assert np.array_equal(store.hit_counts, walk_counts[:, :cfg.T].sum(1))
        walk_counts = walk_counts.astype(np.int64)
        entry_counts = entry_counts.reshape(n_starts, T).astype(np.int64)
        # each start's rows in the pass and in the store
        pass_walks = np.concatenate([[0], np.cumsum(walk_counts.sum(1))])
        pass_entries = np.concatenate([[0], np.cumsum(entry_counts.sum(1))])
        kept = walk_counts[:, :cfg.T].sum(1)
        store_walks = np.concatenate([[0], np.cumsum(kept)])
        assert (store.index.n_hit_walks == store.hit_walks.size
                == store_walks[-1])
        store_sizes = np.diff(store.index.walk_indptr)
        for u in range(n_starts):
            w0, s0, k = pass_walks[u], store_walks[u], kept[u]
            assert np.array_equal(store_sizes[s0:s0 + k], sizes[w0:w0 + k])
            assert np.array_equal(store.hit_walks[s0:s0 + k], walks[w0:w0 + k])
            e0 = pass_entries[u]
            e1 = e0 + entry_counts[u, :cfg.T].sum()
            assert np.array_equal(store.index.walk_cands[
                store.index.walk_indptr[s0]:store.index.walk_indptr[s0 + k]],
                cands[e0:e1])


def test_index_dtypes_follow_from_sizes():
    # positions: the smallest unsigned dtype that also holds n_candidates, so
    # a rumor node's -1 wraps to a position the range check rejects
    for n_cand, dtype in ((1, np.uint8), (255, np.uint8), (256, np.uint16),
                          (65_535, np.uint16), (65_536, np.uint32),
                          (2**32 - 1, np.uint32), (2**32, np.uint64)):
        assert WalkIndex.position_dtype(n_cand) == dtype
        assert np.array([-1]).astype(dtype)[0] >= n_cand
    # offsets: int32 while every offset, up to the entry count, fits in it;
    # the rule is read at its edge, with no array of that size
    assert WalkIndex.offset_dtype(0) == np.int32
    assert WalkIndex.offset_dtype(2**31 - 1) == np.int32
    assert WalkIndex.offset_dtype(2**31) == np.int64
    assert WalkIndex.offset_dtype(2**40) == np.int64


def test_more_than_65535_candidates_hold_uint32_positions():
    # on the directed cycle u -> u + 1 into rumor node 0, the walks from
    # n - 2 and n - 1 hit within 2 steps, at positions above 2**16
    n = 70_000
    g = Graph([[(u + 1) % n] for u in range(n)], directed=True)
    rumor, cfg = {0}, SampleConfig(T=2, X=1)
    store = build_sample_store(g, rumor, cfg)
    index = store.index
    assert index.walk_cands.dtype == np.uint32
    assert index.walk_indptr.dtype == np.int32
    assert index.walk_cands.tolist() == [n - 3, n - 2, n - 2]
    assert assert_store_replays_scalar_walks(g, rumor, cfg, store) == 0


def test_exact_and_sampled_stores_hold_one_index_dtype():
    g, rumor = gnp_graph(8, 0.5, seed=2), {3}
    exact = ExactStore(g, rumor, T=3).index
    sampled = build_sample_store(g, rumor, SampleConfig(T=3, X=20, seed=1)).index
    assert exact.n_candidates == sampled.n_candidates
    for name in INDEX_ARRAYS:
        assert getattr(exact, name).dtype == getattr(sampled, name).dtype, name
    assert sampled.walk_cands.dtype == np.uint8
    assert sampled.walk_indptr.dtype == np.int32


def test_pass_rows_take_two_bytes_per_hit_walk_and_two_per_entry():
    # what a pass holds per set until its stores are built: a walk number
    # and a prefix size per hit walk, a uint16 position per entry, and per
    # (start, step) the hit walks and entries, which X and X * T bound
    g, X, seed, rumors = nested_rumor_sets("ba")
    cfg = SampleConfig(T=5, X=X, seed=seed)
    per_set = rcic.sampling._sample_hit_rows(g, rumors, cfg, 1)
    assert len(per_set) == len(rumors)
    for rumor, (walks, lengths, cands, walk_counts, entry_counts) in zip(
            rumors, per_set):
        starts = g.n - len(rumor)
        hits = int(walk_counts.sum())
        assert walks.size == lengths.size == hits > 0
        assert walks.dtype == np.uint8 and int(walks.max()) < X
        assert cands.size == int(lengths.sum())
        assert cands.dtype == np.uint16
        assert walk_counts.dtype == entry_counts.dtype == np.uint8  # X T = 200
        assert walk_counts.size == entry_counts.size == starts * cfg.T
        assert int(entry_counts.sum(dtype=np.int64)) == cands.size
        assert (walks.nbytes + lengths.nbytes + cands.nbytes
                == 2 * hits + 2 * cands.size)


def test_nothing_is_kept_per_walk():
    # hit walks and entries are each fewer than the walks, so an array of
    # the pass's rows, the store or its index with one entry per walk
    # would show
    g = barabasi_albert_graph(300, 3, seed=2)
    rumor, cfg = {0}, SampleConfig(T=2, X=50, seed=1)
    n_walks = (g.n - len(rumor)) * cfg.X
    (rows,) = rcic.sampling._sample_hit_rows(g, [rumor], cfg, 1)
    store = build_sample_store(g, rumor, cfg)
    index = store.index
    assert 0 < index.n_hit_walks and index.walk_cands.size < n_walks

    def kept():
        arrays = {f"rows[{i}]": a for i, a in enumerate(rows)}
        arrays.update((name, a) for obj in (store, index)
                      for name, a in vars(obj).items()
                      if isinstance(a, np.ndarray))
        assert [name for name, a in arrays.items() if a.size >= n_walks] == []
        return arrays

    # before and after the inverted lists' first read, which places them
    assert "walk_ids" not in kept()
    assert len(kept()) == 5 + len(STORE_ARRAYS) - 1
    index.walk_ids
    assert len(kept()) == 5 + len(STORE_ARRAYS)


def rows_digest(per_set, X, T) -> str:
    """The digest of each set's rows in walk order that `PINNED_ROWS_DIGEST`
    pins."""
    h = hashlib.sha256()
    for rows in per_set:
        for name, a in zip(("hit_flags", "hit_lengths", "hit_cands", "hit_steps"),
                           rows_in_walk_order(rows, X, T)):
            h.update(name.encode())
            h.update(str(a.dtype).encode())
            h.update(a.tobytes())
    return h.hexdigest()


PINNED_ROWS_DIGEST = (
    "e347113a31250879c23f36af6a01eb075c85d14c49402f7d8f2340628a31bd5c")


@pytest.mark.parametrize("threads", [1, 2])
def test_pass_rows_are_pinned(threads):
    # every byte of a nested pass's rows, hit steps included, in walk order
    g, X, seed, rumors = nested_rumor_sets("ba")
    per_set = rcic.sampling._sample_hit_rows(
        g, rumors, SampleConfig(T=5, X=X, seed=seed), threads)
    assert rows_digest(per_set, X, 5) == PINNED_ROWS_DIGEST


def apply_network(network, rows):
    """`rows` sorted down its columns, one comparator at a time."""
    rows = rows.copy()
    for i, j in network:
        low = np.minimum(rows[i], rows[j])
        np.maximum(rows[i], rows[j], out=rows[j])
        rows[i] = low
    return rows


@pytest.mark.parametrize("m", range(1, 13))
def test_sorting_network_sorts_every_zero_one_input(m):
    # a comparator network that sorts every 0-1 input sorts every input
    network = _sorting_network(m)
    assert all(0 <= i < j < m for i, j in network)
    bits = (np.arange(2**m) >> np.arange(m)[:, None]) & 1
    assert np.array_equal(apply_network(network, bits), np.sort(bits, axis=0))


@pytest.mark.parametrize("m", [13, 17, 64, 100, 301])
def test_sorting_network_sorts_random_columns(m):
    # up to T + 1 = 301 rows, the longest walks a test samples
    rows = np.random.default_rng(m).integers(0, 50, size=(m, 200))
    assert np.array_equal(apply_network(_sorting_network(m), rows),
                          np.sort(rows, axis=0))


def test_sorting_network_size():
    # Batcher's count for m = 2**p is (p^2 - p + 4) 2^(p-2) - 1, in
    # O(m log^2 m); the walk lengths the benchmarks run take 16 and 32
    assert [len(_sorting_network(m)) for m in (1, 2, 4, 7, 8, 10, 16)] == [
        0, 1, 5, 16, 19, 32, 63]
    for m in range(2, 1025, 7):
        assert len(_sorting_network(m)) <= m * math.ceil(math.log2(m)) ** 2


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
@pytest.mark.parametrize("T", [1, 2, 5, 9])
def test_hit_prefixes_match_unique_per_column(dtype, T):
    # each column: s positions (repeats likely), then the dtype's top value
    # from the hit step s on; s = 1 holds the start alone.  Columns belong
    # to 30 starts in ascending order, some of them with no column.
    rng = np.random.default_rng(T)
    top = np.iinfo(dtype).max
    H, n_starts = 500, 30
    hit_steps = rng.integers(1, T + 1, size=H)
    hit_steps[:20] = 1
    col_starts = np.sort(rng.integers(0, n_starts, size=H))
    pos = rng.integers(0, 12, size=(T + 1, H)).astype(dtype)
    pos[np.arange(T + 1)[:, None] >= hit_steps] = top
    oracle = [np.unique(pos[:s, h]) for h, s in enumerate(hit_steps)]
    order = np.lexsort((hit_steps, col_starts))  # (start, step, column)
    size_dtype = np.min_scalar_type(T + 1)
    rows, sizes, flat, walk_counts, entry_counts = _hit_prefixes(
        pos.copy(), np.bincount(col_starts, minlength=n_starts), size_dtype)
    assert sizes.dtype == size_dtype and flat.dtype == dtype
    assert rows.tolist() == order.tolist()
    assert sizes.tolist() == [oracle[h].size for h in order]
    assert np.array_equal(flat, np.concatenate([oracle[h] for h in order]))
    key = col_starts * T + hit_steps - 1
    assert walk_counts.tolist() == np.bincount(key, minlength=n_starts * T
                                               ).tolist()
    assert entry_counts.tolist() == np.bincount(
        key, [u.size for u in oracle], n_starts * T).astype(int).tolist()


@pytest.mark.parametrize("threads", [1, 2])
def test_nested_sets_across_the_position_dtype_boundary(threads):
    # the pass's own set leaves 290 candidates (uint16 positions) and the
    # larger set 250 (uint8): each set's rows, and so its top value, are in
    # its own dtype, and each store equals a build on its key alone
    g = barabasi_albert_graph(300, 3, seed=5)
    rumors = [set(range(10)), set(range(50))]
    cfg = SampleConfig(T=6, X=20, seed=4)
    per_set = rcic.sampling._sample_hit_rows(g, rumors, cfg, threads)
    assert [rows[2].dtype for rows in per_set] == [np.uint16, np.uint8]
    for rumor, rows in zip(rumors, per_set):
        assert rows[1].size > 0 and rows[2].max() < g.n - len(rumor)
    stores = build_sample_stores(g, [(rumor, cfg) for rumor in rumors],
                                 threads=threads)
    for rumor, store in zip(rumors, stores):
        assert store.index.walk_cands.dtype == WalkIndex.position_dtype(
            g.n - len(rumor))
        assert store_digest(store) == store_digest(
            build_sample_store(g, rumor, cfg, threads=threads))
        assert_store_replays_scalar_walks(g, rumor, cfg, store)


@pytest.mark.parametrize("case", ["sampled", "exact"])
def test_hit_mass_is_one_bincount(monkeypatch, case):
    # summed a block at a time, in the order one bincount over every entry adds
    if case == "sampled":
        store = build_sample_store(barabasi_albert_graph(120, 3, seed=4),
                                   {0, 1, 2}, SampleConfig(T=4, X=25, seed=6))
    else:  # realization probabilities: sums that depend on their order
        store = ExactStore(gnp_graph(8, 0.5, seed=2), {3}, T=4)
    index = store.index
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 16)
    assert len(index._walk_blocks()) > 4
    weights = np.repeat(index.group_weights, index.group_sizes)
    oracle = np.bincount(index.walk_cands, np.repeat(
        weights, np.diff(index.walk_indptr)), index.n_candidates)
    assert index.hit_mass.dtype == oracle.dtype
    assert index.hit_mass.tobytes() == oracle.tobytes()


def test_profile_accessors():
    g = path3()
    store = build_sample_store(g, {2}, SampleConfig(T=2, X=50, seed=3))
    w = store.index.position(1) * store.X  # walk (1, 0)
    assert 1 in store.prefix_nodes[store.prefix_indptr[w]:store.prefix_indptr[w + 1]]
    with pytest.raises(ValueError):
        store.index.position(2)  # rumor node
    with pytest.raises(ValueError):
        store.index.position(99)
