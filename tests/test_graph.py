import io
import math

import numpy as np
import pytest

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


def test_load_empty_graph_rejected():
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO("# only comments\n"))


def test_round_trip():
    src = "4 7\n1 4\n7 9\n# tail comment\n9 1"
    g = load_edge_list(io.StringIO(src))
    buf = io.StringIO()
    dump_edge_list(g, buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue()))
    assert g2.n == g.n and g2.m == g.m
    assert all(g2.neighbors(u) == g.neighbors(u) for u in range(g.n))


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


def test_top_decile_tie_rule():
    # 20 nodes: two disjoint stars with centers 0 and 10, equal degree
    adj = [[] for _ in range(20)]
    for c, leaves in ((0, range(1, 10)), (10, range(11, 20))):
        adj[c] = list(leaves)
        for leaf in leaves:
            adj[leaf] = [c]
    g = Graph(adj, directed=False)
    assert top_decile_nodes(g) == [0, 10]


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
