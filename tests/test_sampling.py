import hashlib
import math
import sys
import tracemalloc

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
    sample_walk,
)
from rcic.sampling import _CHUNK_NODES, _pcg64_states, _seed_words, _stable_order
from rcic.exact import ExactStore, exact_hit_probabilities
from rcic.synth import barabasi_albert_graph, gnp_graph


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
                                  2**130 + 7])
def test_substream_states_match_seed_sequence(seed):
    # seeds of 2**32 and above are several entropy words, 2**130 + 7 more
    # than the 4-word pool holds
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


def test_store_matches_exact_hit_probability():
    g = path3()
    store = build_sample_store(g, {2}, SampleConfig(T=2, X=10000, seed=7))
    # both starts hit with probability exactly 1/2
    for u in (0, 1):
        frac = store.hit_counts[store.index.position(u)] / store.X
        assert 0.47 <= frac <= 0.53
    assert abs(store.index.influenced_mass
               - store.hit_counts.sum() / store.X) < 1e-9


def test_store_hit_frequencies_converge():
    g = gnp_graph(10, 0.4, seed=3)
    rumor = {0, 7}
    T, X = 3, 2000
    store = build_sample_store(g, rumor, SampleConfig(T=T, X=X, seed=11))
    exact = exact_hit_probabilities(g, rumor, T)
    for u in store.candidates:
        p = exact[int(u)]
        emp = store.hit_counts[store.index.position(int(u))] / X
        sigma = (p * (1.0 - p) / X) ** 0.5
        assert abs(emp - p) <= 4.0 * sigma + 1e-12


def assert_store_replays_scalar_walks(g, rumor, cfg, store) -> int:
    """Check every walk of the store against sample_walk fed the same uniforms.

    Every walk's start and hit flag must match, and every hit walk's prefix; a
    miss keeps only its start.  Returns how many misses stopped at a dead end
    after at least one step.
    """
    dead_ends_mid_walk = 0
    for u in store.candidates:
        u = int(u)
        uniforms = _node_rng(cfg.seed, u).random((cfg.X, cfg.T))
        for i in range(cfg.X):
            script = _Script(uniforms[i])
            expected = sample_walk(g, u, rumor, cfg.T, script)
            got = store.profile(u, i)
            assert got.hit == expected.hit
            assert got.prefix == (expected.prefix if expected.hit else {u})
            assert got.start == u
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
    assert store.candidates.size > 2 * _CHUNK_NODES
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
                          np.repeat(store.candidates, cfg.X)[miss])


def test_store_bytes_counts_the_built_arrays():
    g = barabasi_albert_graph(120, 3, seed=4)
    store = build_sample_store(g, {0, 1, 2}, SampleConfig(T=4, X=25, seed=6))
    index = store.index
    built = (store.hit_flags, index.candidates, index.cand_pos,
             index.walk_weights, index.walk_indptr, index.walk_cands,
             index.indptr, index.walk_ids)
    # hit_mass is built on first use, after the store; it does not count, and
    # hit_counts and the prefix arrays are derived on each read
    assert index.hit_mass.size == index.n_candidates
    assert store.hit_counts.size == index.n_candidates
    assert store.store_bytes == sum(a.nbytes for a in built)
    for name in ("hit_counts", "prefix_indptr", "prefix_nodes"):
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
                          np.repeat(store.candidates, cfg.X)[miss])
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
    for name in ("hit_flags", "prefix_indptr", "prefix_nodes", "hit_counts"):
        a, b = getattr(serial, name), getattr(threaded, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


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
    hit_ids = np.flatnonzero(store.hit_flags)
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
    assert abs(index.influenced_mass - index.walk_weights.sum()) < 1e-12


def test_index_rejects_degenerate_input():
    with pytest.raises(ValueError):
        WalkIndex(2, {0, 1}, [0], [], [])
    with pytest.raises(ValueError):
        # prefix claims to contain the rumor node
        WalkIndex(3, {2}, [0, 1], [2], [0.5])


def rebuilt_index(index, rumor):
    """The index built again from `index`'s forward CSR, under the current
    block size."""
    return WalkIndex(index.n_nodes, rumor, index.walk_indptr, index.walk_cands,
                     index.walk_weights)


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
    for name in ("walk_ids", "indptr", "walk_cands", "walk_indptr", "max_count"):
        assert np.array_equal(getattr(one_block, name), getattr(index, name)), name


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
        kept_new, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in vars(index).values() if isinstance(a, np.ndarray))
    # one stable sort over every entry holds an int64 order and an int32 walk
    # id per entry at its peak, about as much again as the index keeps
    assert peak - kept_new < 0.25 * kept
    assert_one_stable_sort(index)


def store_digest(store) -> str:
    h = hashlib.sha256()
    for name in ("hit_flags", "walk_ids", "indptr", "walk_cands", "walk_indptr",
                 "walk_weights"):
        a = store.hit_flags if name == "hit_flags" else getattr(store.index, name)
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


PINNED_DIGEST = "06c12ff38589584c9334c738ea555cce8bb315ac38c88b9011dadfac3468dd7d"


def pinned_store(threads):
    store = build_sample_store(barabasi_albert_graph(400, 3, seed=11),
                               {0, 3, 5, 8}, SampleConfig(T=5, X=40, seed=2),
                               threads=threads)
    assert store.candidates.size > 2 * _CHUNK_NODES
    return store


@pytest.mark.parametrize("threads", [1, 2])
def test_store_bytes_are_pinned(threads):
    # every byte of the store and index arrays, as the one-stable-sort index
    # build and the node-id kernel output made them
    assert store_digest(pinned_store(threads)) == PINNED_DIGEST


@pytest.mark.parametrize("threads", [1, 2])
def test_nested_stores_equal_separate_builds(threads):
    assert_nested_stores_equal_separate_builds(threads)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_multi_block_placement_keeps_the_pinned_bytes(monkeypatch, threads):
    # about 90 blocks, placed on `threads` workers, more of them than a small
    # machine's cores, switched between often
    monkeypatch.setattr(rcic.sampling, "_BLOCK_ENTRIES", 97)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        store = pinned_store(threads)
        assert len(store.index._walk_blocks()) > 50
        assert store_digest(store) == PINNED_DIGEST
        assert store.index.max_count == 5
        assert_nested_stores_equal_separate_builds(threads)
    finally:
        sys.setswitchinterval(interval)


def assert_nested_stores_equal_separate_builds(threads):
    g = barabasi_albert_graph(400, 3, seed=11)
    cfg = SampleConfig(T=5, X=40, seed=2)
    rumors = [{0, 3, 5, 8}, {0, 3, 5, 8, 13, 40, 77}, set(range(0, 400, 9)) | {
        0, 3, 5, 8, 13, 40, 77}]
    stores = build_sample_stores(g, [(rumor, cfg) for rumor in rumors],
                                 threads=threads)
    for rumor, store in zip(rumors, stores):
        alone = build_sample_store(g, rumor, cfg, threads=threads)
        assert alone.candidates.size > 2 * _CHUNK_NODES
        assert store.rumor_set == rumor
        assert store_digest(store) == store_digest(alone)
        assert store.index.hit_mass.tobytes() == alone.index.hit_mass.tobytes()
    assert next(stores, None) is None


@pytest.mark.parametrize("threads", [1, 2])
def test_nested_stores_replay_scalar_walks(threads):
    # starts in the larger sets are dropped; walks meet sinks before and after
    # they first step into a larger set
    g = sink_graph()
    rumors = [{5, 17}, {5, 17, 42, 123, 250}, {5, 17, 42, 123, 250, 7, 90, 201}]
    cfg = SampleConfig(T=6, X=5, seed=4)
    stores = build_sample_stores(g, [(rumor, cfg) for rumor in rumors],
                                 threads=threads)
    for rumor, store in zip(rumors, stores):
        assert store.candidates.size == g.n - len(rumor)
        assert assert_store_replays_scalar_walks(g, rumor, cfg, store) > 0


def test_nested_stores_cut_at_the_first_step_and_at_dead_ends():
    # 1 -> 2 -> {0, 3}, 2 -> 0 hits R_1 at step 1, 1 -> 2 hits R_2 at step 1,
    # and node 3 is a dead end
    g = Graph([[1], [2], [0, 3], []], directed=True)
    rumors = [{0}, {0, 2}]
    cfg = SampleConfig(T=4, X=8, seed=21)
    small, large = build_sample_stores(g, [(rumor, cfg) for rumor in rumors])
    for rumor, store in zip(rumors, (small, large)):
        assert_store_replays_scalar_walks(g, rumor, cfg, store)
    from_2 = [small.profile(2, i) for i in range(cfg.X)]
    assert any(w.hit and w.prefix == {2} for w in from_2)  # 2 -> 0
    assert not all(w.hit for w in from_2)  # 2 -> 3, a dead end
    assert large.hit_flags.reshape(2, cfg.X)[0].all()  # every walk from 1
    assert not large.hit_flags.reshape(2, cfg.X)[1].any()  # from dead end 3
    assert large.profile(1, 0).prefix == {1}


def test_build_sample_stores_plans_one_pass_per_nested_run(monkeypatch):
    # an equal key repeats its store; a shrinking set and a new SampleConfig
    # each start a pass
    g = barabasi_albert_graph(60, 2, seed=3)
    cfg, other = SampleConfig(T=3, X=20, seed=1), SampleConfig(T=4, X=20, seed=1)
    keys = [({0}, cfg), ({0, 1}, cfg), ({0, 1}, cfg), ({1}, cfg),
            ({1, 2}, cfg), ({1, 2}, other)]
    passes = []
    sample_hit_rows = rcic.sampling._sample_hit_rows

    def tracking_pass(g, rumors, cfg, threads):
        passes.append(len(rumors))
        return sample_hit_rows(g, rumors, cfg, threads)

    monkeypatch.setattr(rcic.sampling, "_sample_hit_rows", tracking_pass)
    stores = list(build_sample_stores(g, keys))
    assert passes == [2, 2, 1]
    assert [a is b for a, b in zip(stores, stores[1:])] == [
        False, True, False, False, False]
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
    oracle = np.bincount(index.walk_cands, np.repeat(
        index.walk_weights, np.diff(index.walk_indptr)), index.n_candidates)
    assert index.hit_mass.dtype == oracle.dtype
    assert index.hit_mass.tobytes() == oracle.tobytes()


def test_profile_accessors():
    g = path3()
    store = build_sample_store(g, {2}, SampleConfig(T=2, X=50, seed=3))
    prof = store.profile(1, 0)
    assert prof.start == 1
    assert 1 in prof.prefix
    with pytest.raises(ValueError):
        store.profile(1, 50)
    with pytest.raises(ValueError):
        store.index.position(2)  # rumor node
    with pytest.raises(ValueError):
        store.index.position(99)


@pytest.mark.parametrize("key_range", [1, 65_536, 65_537, 200_000, 5_000_000_000])
def test_stable_order_matches_stable_argsort(key_range):
    # ranges above 2**16 take the multi-digit path; the largest key is always
    # present, so an order over the low digit alone differs from the true one
    rng = np.random.default_rng(key_range % 1000)
    pool = rng.integers(0, key_range, size=500)
    keys = np.concatenate([rng.choice(pool, size=20_000), [key_range - 1]])
    rng.shuffle(keys)
    for dtype in (np.int64, np.int32):
        if key_range > np.iinfo(dtype).max:
            continue
        typed = keys.astype(dtype)
        assert np.array_equal(_stable_order(typed),
                              np.argsort(typed, kind="stable"))
    assert _stable_order(np.zeros(0, dtype=np.int64)).size == 0

