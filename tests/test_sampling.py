import numpy as np
import pytest

from rcic.graph import Graph
from rcic.sampling import (
    SampleConfig,
    WalkIndex,
    build_sample_store,
    hoeffding_sample_size,
    load_store,
    sample_walk,
    save_store,
)
from rcic.sampling import _node_rng
from rcic.exact import exact_hit_probabilities
from rcic.synth import barabasi_albert_graph, gnp_graph


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
                             (0.1, 1.0, 5), (0.1, 0.1, 0)):
        with pytest.raises(ValueError):
            hoeffding_sample_size(eps, delta, cand)


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


def test_store_profiles_match_scalar_walks():
    # vectorized simulation replays the exact per-walk uniform stream
    g = Graph([[1], [2], [0, 3], []], directed=True)
    rumor = {0}
    cfg = SampleConfig(T=4, X=8, seed=21)
    store = build_sample_store(g, rumor, cfg)
    for u in (1, 2, 3):
        uniforms = _node_rng(cfg.seed, u).random((cfg.X, cfg.T))
        for i in range(cfg.X):
            expected = sample_walk(g, u, rumor, cfg.T, _Script(uniforms[i]))
            got = store.profile(u, i)
            assert got.hit == expected.hit
            assert got.prefix == expected.prefix
            assert got.start == u


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


def test_store_build_validation():
    g = path3()
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


def test_store_round_trip(tmp_path):
    g = gnp_graph(20, 0.3, seed=8)
    store = build_sample_store(g, {0, 5}, SampleConfig(T=3, X=40, seed=17))
    path = tmp_path / "store.npz"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded.config == store.config
    assert loaded.n_nodes == store.n_nodes
    assert loaded.rumor_set == store.rumor_set
    assert np.array_equal(loaded.hit_flags, store.hit_flags)
    assert np.array_equal(loaded.prefix_indptr, store.prefix_indptr)
    assert np.array_equal(loaded.prefix_nodes, store.prefix_nodes)
    assert loaded.index.influenced_mass == store.index.influenced_mass


def test_store_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, format_version=np.int64(99))
    with pytest.raises(ValueError):
        load_store(path)
