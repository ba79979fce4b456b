import io
import itertools
import math
import warnings

import numpy as np
import pytest

from edge_list_oracle import load_edge_list_by_lines
from rcic.bench import ExperimentConfig, generate_rumor_set, run_scalability
from rcic.graph import (
    EdgeListParseError,
    Graph,
    bfs_subgraph,
    dump_edge_list,
    load_edge_list,
    top_decile_nodes,
)
from rcic.synth import barabasi_albert_graph, gnp_graph


def test_load_path_graph():
    g = load_edge_list(io.StringIO("0 1\n1 2"))
    assert g.n == 3
    assert g.m == 2
    assert g.neighbors(1) == [0, 2]
    assert g.neighbors(0) == [1]
    assert not g.directed


def test_load_cleans_self_loops_and_comments():
    g = load_edge_list(io.StringIO("# c\n5 5\n5 6"))
    assert g.n == 2
    assert g.m == 1
    # node 5 kept despite its self-loop being dropped
    assert g.neighbors(0) == [1]


def test_load_dedups_parallel_edges():
    g = load_edge_list(io.StringIO("0 1\n1 0\n0 1"))
    assert g.m == 1
    assert g.neighbors(0) == [1]


def test_load_directed():
    g = load_edge_list(io.StringIO("0 1"), directed=True)
    assert g.neighbors(0) == [1]
    assert g.neighbors(1) == []
    assert g.m == 1


def test_load_remaps_sparse_ids():
    g = load_edge_list(io.StringIO("10 30\n30 20"))
    assert g.n == 3
    assert g.original_ids == [10, 20, 30]
    # 30 is the middle of the path, remapped to id 2
    assert g.neighbors(2) == [0, 1]


def test_load_malformed_line_reports_number():
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(io.StringIO("0 1\n1 x"))
    assert exc.value.line_number == 2
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(io.StringIO("0 1 2"))
    assert exc.value.line_number == 1
    # the number is the file's line, not NumPy's count of data rows;
    # "1_0" is an int to Python only, 2**63 no int64; a trailing "#" comment
    # is a comment, so line 1 is well formed
    for src, line in (("0 1\n2 -3", 2), ("0 1\n# c\n\n1 x\n2 3", 4),
                      ("0 1\n1_0 2", 2), ("0 1\n\t2\n", 2),
                      (f"0 1\n0 {2**63}", 2), ("0 1 # note\n1 2 3", 2)):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(io.StringIO(src))
        assert exc.value.line_number == line
    g = load_edge_list(io.StringIO("0 1 # note\n"))
    assert (g.n, g.m, g.neighbors(0)) == (2, 1, [1])
    # comment-only input: loadtxt's "input contained no data" warning stays
    # inside the loader
    for src in ("# only comments\n", "", "\n  \r\n", "  # a\r\n#b"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty graph"):
                load_edge_list(io.StringIO(src))


def _random_edge_list(rng):
    """Edge-list text with comment and blank lines, tabs, CRLF endings, both
    directions of some edges, duplicates, self-loops and sparse ids."""
    ids = np.concatenate([rng.integers(0, 10**12, size=rng.integers(1, 40)),
                          rng.integers(0, 5, size=3)])
    edges = [(int(a), int(b)) for a, b in
             rng.choice(ids, size=(rng.integers(1, 80), 2))]
    edges += [(b, a) for a, b in edges[: rng.integers(0, 10)]]
    edges += edges[: rng.integers(0, 10)]
    edges += [(a, a) for a, _ in edges[: rng.integers(0, 3)]]
    rng.shuffle(edges)
    pads, seps = ["", " ", "\t"], [" ", "\t", "  ", " \t "]
    lines = []
    for a, b in edges:
        if rng.random() < 0.1:
            lines.append(rng.choice(["# comment", "#", "", "   ", "\t# c 1 2"]))
        lines.append(f"{rng.choice(pads)}{a}{rng.choice(seps)}{b}{rng.choice(pads)}")
    ending = "\r\n" if rng.random() < 0.3 else "\n"
    return ending.join(lines) + rng.choice(["", ending])


@pytest.mark.parametrize("directed", [False, True])
def test_load_matches_line_by_line_reference(directed):
    rng = np.random.default_rng(25)
    for _ in range(150):
        text = _random_edge_list(rng)
        _assert_same_graph(load_edge_list(io.StringIO(text), directed=directed),
                           load_edge_list_by_lines(io.StringIO(text), directed))


def _assert_same_graph(g, ref):
    assert (g.n, g.m, g.directed) == (ref.n, ref.m, ref.directed)
    assert g.original_ids == ref.original_ids
    assert [g.neighbors(u) for u in range(g.n)] == ref.adjacency
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert g.indptr.tolist() == [0, *itertools.accumulate(map(len, ref.adjacency))]
    assert g.indices.tolist() == [v for nbrs in ref.adjacency for v in nbrs]


def test_load_empty_graph_rejected():
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO("# only comments\n"))


def test_round_trip():
    src = "4 7\n1 4\n7 9\n# tail comment\n9 1"
    ba = barabasi_albert_graph(300, 3, seed=5)
    for g in (load_edge_list(io.StringIO(src)), ba):
        buf = io.StringIO()
        dump_edge_list(g, buf)
        g2 = load_edge_list(io.StringIO(buf.getvalue()))
        assert g2.n == g.n and g2.m == g.m
        assert all(g2.neighbors(u) == g.neighbors(u) for u in range(g.n))
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)
        _assert_same_graph(g2, load_edge_list_by_lines(io.StringIO(buf.getvalue())))


def test_degree_sum():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n2 3"))
    assert sum(g.degrees()) == 2 * g.m
    d = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n2 3"), directed=True)
    assert sum(d.degrees()) == d.m


def test_neighbors_out_of_range():
    g = load_edge_list(io.StringIO("0 1"))
    with pytest.raises(ValueError):
        g.neighbors(2)


def test_graph_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph([[1], [0, 2]], directed=False)  # neighbor 2 out of range
    with pytest.raises(ValueError):
        Graph([[0]], directed=False)  # self-loop


def test_top_decile_single_max():
    # 10 nodes with degrees 0..9: node 0 is the hub of a star over 1..9
    adj = [[i for i in range(1, 10)]] + [[0] for _ in range(9)]
    g = Graph(adj, directed=False)
    assert top_decile_nodes(g) == [0]


def test_top_decile_tie_rule(tmp_path, monkeypatch):
    # 20 nodes: two disjoint stars with centers 0 and 10, equal degree
    adj = [[] for _ in range(20)]
    for c, leaves in ((0, range(1, 10)), (10, range(11, 20))):
        adj[c] = list(leaves)
        for leaf in leaves:
            adj[leaf] = [c]
    g = Graph(adj, directed=False)
    assert top_decile_nodes(g) == [0, 10]

    # 46 nodes share the degree at the decile's cut, 24 of them inside it;
    # the reference is the rule as a Python sort
    ba = barabasi_albert_graph(1500, 2, seed=2)
    deg = [len(ba.neighbors(u)) for u in range(ba.n)]
    order = sorted(range(ba.n), key=lambda u: (-deg[u], u))
    assert top_decile_nodes(ba) == order[:150]
    for size in (50, 100, 150):
        picks = np.random.default_rng(3).permutation(150)[:size]
        assert generate_rumor_set(ba, size, 3) == {order[i] for i in picks}

    # run_scalability's BFS seed: the highest degree, ties to the smaller id
    seeds = []

    def spy(g, seed, fraction):
        seeds.append(seed)
        return g, None

    monkeypatch.setattr("rcic.bench.bfs_subgraph", spy)
    monkeypatch.setattr("rcic.bench.run_on_graph", lambda *args, **kw: None)
    stars = tmp_path / "stars.edges"  # centers 4 and 14, degree 9 each
    stars.write_text("".join(f"{c} {v}\n" for c in (4, 14)
                             for v in range(c - 4, c + 6) if v != c))
    with open(tmp_path / "ba.edges", "w") as fh:
        dump_edge_list(ba, fh)
    for path, expected in ((stars, 4), (tmp_path / "ba.edges", order[0])):
        run_scalability(ExperimentConfig(str(path)), [1.0])
        assert seeds.pop() == expected


def test_top_decile_requires_ten_nodes():
    g = load_edge_list(io.StringIO("0 1"))
    with pytest.raises(ValueError):
        top_decile_nodes(g)


def _path(n):
    return load_edge_list(
        io.StringIO("\n".join(f"{i} {i + 1}" for i in range(n - 1))))


def test_bfs_subgraph_prefix():
    g = _path(5)
    sub, keep = bfs_subgraph(g, seed=0, fraction=0.4)
    assert keep == [0, 1]
    assert sub.n == 2 and sub.m == 1
    assert sub.original_ids == [0, 1]


def test_bfs_subgraph_full_fraction():
    g = _path(5)
    sub, keep = bfs_subgraph(g, seed=2, fraction=1.0)
    assert sub.n == g.n and sub.m == g.m
    assert keep == [0, 1, 2, 3, 4]


def test_bfs_subgraph_component_only():
    # two components; BFS from 0 never reaches {3,4}
    g = load_edge_list(io.StringIO("0 1\n1 2\n3 4"))
    sub, keep = bfs_subgraph(g, seed=0, fraction=1.0)
    assert keep == [0, 1, 2]
    assert sub.n == 3 and sub.m == 2


def test_bfs_subgraph_nested():
    g = load_edge_list(io.StringIO("0 1\n0 2\n1 3\n2 4\n3 5\n4 6\n5 7"))
    prev = set()
    for frac in (0.25, 0.5, 0.75, 1.0):
        _, keep = bfs_subgraph(g, seed=0, fraction=frac)
        assert prev <= set(keep)
        prev = set(keep)


def test_synthetic_graph_sizes_are_counts():
    for n, m_attach in ((0, 1), (2.5, 1), (True, 1), (math.nan, 1), (5, 0),
                        (5, 1.0), (5, True)):
        with pytest.raises(ValueError, match="integers"):
            barabasi_albert_graph(n, m_attach)
    for n in (0, 2.5, True, math.nan):
        with pytest.raises(ValueError, match="integers"):
            gnp_graph(n, 0.5)
    assert barabasi_albert_graph(np.int64(6), np.int64(2)).n == 6
    assert gnp_graph(np.int64(6), 0.5).n == 6
