import random
import re

import numpy as np
import pytest

from gmine.graph import Graph, GraphFormatError, load_graph

from conftest import DEMO_EDGES, make_random_graph
from oracles import (check_link, degree, edge_endpoints, incident_edges, rank_dag_lists,
                     reference_graph_arrays, write_edge_list, write_labels)


def test_demo_graph_shape(demo_graph):
    g = demo_graph
    assert g.num_vertices == 5
    assert g.num_edges == 7
    # original id 5 is dense 4 and is adjacent to everything
    assert g.orig_ids.tolist() == [1, 2, 3, 4, 5]
    assert g.neighbors(4).tolist() == [0, 1, 2, 3]
    assert g.neighbors(0).tolist() == [1, 4]
    assert g.degrees.tolist() == [2, 3, 3, 2, 4]


def test_check_link(demo_graph):
    g = demo_graph
    assert check_link(g, 0, 1)
    assert check_link(g, 1, 0)
    assert not check_link(g, 0, 2)
    assert not check_link(g, 0, 3)
    assert check_link(g, 3, 4)


def test_densification_is_ascending():
    g = Graph.from_edges([(100, 7), (7, 42), (42, 100)])
    assert g.orig_ids.tolist() == [7, 42, 100]
    assert check_link(g, 0, 1) and check_link(g, 1, 2) and check_link(g, 0, 2)


def test_duplicates_and_self_loops_dropped():
    g = Graph.from_edges([(1, 2), (2, 1), (1, 2), (3, 3), (2, 3)])
    assert g.num_edges == 2
    # 3 appeared only in a self loop but is still a vertex
    assert g.num_vertices == 3
    assert degree(g, 2) == 0 or g.orig_ids.tolist() == [1, 2, 3]


def test_negative_ids_rejected(tmp_path):
    for edges, labels, msg in (([(0, -1)], None, "negative vertex id -1"),
                               ([(2 ** 63, 1)], None, "vertex id out of range"),
                               ([(1, -2 ** 70)], None, "vertex id out of range"),
                               ([(0, 1)], {-5: 1}, "negative vertex id -5")):
        with pytest.raises(GraphFormatError, match=msg):
            Graph.from_edges(edges, labels)
    ep = tmp_path / "g.txt"
    lp = tmp_path / "l.txt"
    for edge_text, label_text, msg in (
            ("0 1\n1 -3\n", "0 1\n", "g.txt:2: negative vertex id -3"),
            ("0 1\n%d 1\n" % 2 ** 63, "0 1\n",
             "g.txt:2: vertex id %d out of range 0..%d" % (2 ** 63, 2 ** 63 - 1)),
            ("0 1\n", "0 1\n-4 1\n", "l.txt:2: negative vertex id -4")):
        ep.write_text(edge_text)
        lp.write_text(label_text)
        with pytest.raises(GraphFormatError, match=re.escape(msg)):
            load_graph(str(ep), str(lp))


def test_adjacency_symmetric_random():
    rng = random.Random(7)
    for trial in range(20):
        g = make_random_graph(trial, rng.randrange(4, 25), rng.randrange(0, 30))
        for v in range(g.num_vertices):
            nb = g.neighbors(v)
            assert len(nb) <= 1 or (np.diff(nb) > 0).all()
            for w in nb.tolist():
                assert check_link(g, w, v)
                assert check_link(g, v, w)


def test_load_and_roundtrip(tmp_path, demo_graph):
    p = tmp_path / "g.txt"
    lines = ["# demo graph", "% another comment", ""]
    lines += ["%d %d" % e for e in DEMO_EDGES]
    p.write_text("\n".join(lines) + "\n")
    g = load_graph(str(p))
    assert g == demo_graph
    out = tmp_path / "out.txt"
    write_edge_list(g, str(out))
    assert load_graph(str(out)) == g


def test_labels_file(tmp_path):
    ep = tmp_path / "g.txt"
    lp = tmp_path / "l.txt"
    ep.write_text("10 20\n20 30\n")
    lp.write_text("10 1\n20 0\n30 1\n99 5\n")  # unseen id 99 ignored
    g = load_graph(str(ep), str(lp))
    assert g.labels.tolist() == [1, 0, 1]
    assert g.max_label == 1
    out_e = tmp_path / "oe.txt"
    out_l = tmp_path / "ol.txt"
    write_edge_list(g, str(out_e))
    write_labels(g, str(out_l))
    assert load_graph(str(out_e), str(out_l)) == g


def test_unlabeled_defaults_to_zero(demo_graph):
    assert demo_graph.labels.tolist() == [0] * 5
    assert demo_graph.max_label == 0


def test_parse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2\nnot numbers\n")
    with pytest.raises(GraphFormatError, match=":2:"):
        load_graph(str(p))
    p2 = tmp_path / "bad2.txt"
    p2.write_text("1 2\n3\n")
    with pytest.raises(GraphFormatError, match=":2:"):
        load_graph(str(p2))
    with pytest.raises(GraphFormatError, match="cannot read"):
        load_graph(str(tmp_path / "missing.txt"))
    p3 = tmp_path / "binary.txt"
    p3.write_bytes(b"1 2\n\xff\xfe 3\n")
    with pytest.raises(GraphFormatError, match="cannot read"):
        load_graph(str(p3))


def test_negative_label_rejected(tmp_path):
    ep = tmp_path / "g.txt"
    lp = tmp_path / "l.txt"
    ep.write_text("0 1\n")
    for line, msg in (("0 -3", "l.txt:1: negative label -3"),
                      ("0 %d" % 2 ** 31, "l.txt:1: label 2147483648 out of range 0..2147483647")):
        lp.write_text(line + "\n")
        with pytest.raises(GraphFormatError, match=re.escape(msg)):
            load_graph(str(ep), str(lp))
    # in-memory labels are checked too, also for ids outside the graph
    for labels, msg in (({0: -3}, "negative label -3"),
                        ({7: 2 ** 31}, "label 2147483648 out of range"),
                        ({0: 2 ** 70}, "label out of range")):
        with pytest.raises(GraphFormatError, match=msg):
            Graph.from_edges([(0, 1)], labels)


def test_from_edges_matches_reference_build():
    rng = random.Random(11)
    for trial in range(60):
        pool = [rng.randrange(2 ** 40) for _ in range(rng.randrange(1, 30))]
        pool += [0] if trial % 5 == 0 else []
        m = rng.randrange(60) if trial else 0  # trial 0 is the empty input
        edges = [(rng.choice(pool), rng.choice(pool)) for _ in range(m)]
        # duplicates as repeats and reversals, self-loops on otherwise isolated ids
        edges += rng.sample(edges, len(edges) // 4)
        edges += [(v, u) for u, v in rng.sample(edges, len(edges) // 3)]
        edges += [(x, x) for x in (rng.randrange(2 ** 40) for _ in range(trial % 3))]
        rng.shuffle(edges)
        labels = None
        if trial % 4:
            # a label for an id that is not in the graph is ignored
            labels = {x: rng.randrange(2 ** 31) for x in rng.sample(pool, len(pool) // 2)}
            labels[2 ** 40 + trial] = 3
        g = Graph.from_edges(iter(edges) if trial % 2 else edges, labels)
        got = (g.offsets, g.neighbor_ids, g.labels, g.orig_ids)
        for have, want in zip(got, reference_graph_arrays(edges, labels)):
            assert have.dtype == want.dtype
            assert np.array_equal(have, want)


def test_from_edges_takes_an_integer_array_as_it_is():
    # an (m, 2) array builds what its list of pairs builds, in every
    # integer dtype, and is range-checked before any cast can wrap it
    rng = random.Random(12)
    for trial in range(20):
        pool = [rng.randrange(120) for _ in range(rng.randrange(1, 12))]
        edges = [(rng.choice(pool), rng.choice(pool)) for _ in range(trial * 3)]
        want = Graph.from_edges(edges)
        for dtype in (np.int64, np.int32, np.uint64, np.uint8):
            g = Graph.from_edges(np.array(edges, dtype=dtype).reshape(-1, 2))
            for have, ref in zip((g.offsets, g.neighbor_ids, g.labels, g.orig_ids),
                                 (want.offsets, want.neighbor_ids, want.labels,
                                  want.orig_ids)):
                assert have.dtype == ref.dtype
                assert np.array_equal(have, ref)
    empty = Graph.from_edges(np.zeros((0, 2), dtype=np.int64))
    assert (empty.num_vertices, empty.num_edges, empty.offsets.tolist()) == (0, 0, [0])
    top = np.array([[2 ** 63 - 1, 3]], dtype=np.uint64)
    assert Graph.from_edges(top).orig_ids.tolist() == [3, 2 ** 63 - 1]
    for arr, msg in ((np.array([[0, -1]]), "negative vertex id -1"),
                     (np.array([[-2 ** 31, 0]], dtype=np.int32),
                      "negative vertex id -2147483648"),
                     (np.array([[2 ** 63, 1]], dtype=np.uint64),
                      "vertex id 9223372036854775808 out of range"),
                     (np.array([[1, 2 ** 64 - 1]], dtype=np.uint64),
                      "vertex id 18446744073709551615 out of range"),
                     (np.array([1, 2, 3, 4]), "edges must be")):
        with pytest.raises(GraphFormatError, match=msg):
            Graph.from_edges(arr)


def test_edge_table_order(demo_graph):
    g = demo_graph
    pairs = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)
    # incident lists ascending and consistent
    for v in range(g.num_vertices):
        ids = incident_edges(g, v).tolist()
        assert ids == sorted(ids)
        for e in ids:
            assert v in edge_endpoints(g, e)
    assert len(pairs) == g.num_edges


def test_incident_csr_matches_plain_construction():
    graphs = [make_random_graph(130 + t, 6 + t, 3 * t) for t in range(20)]
    # isolated vertices (a self-loop only) and a graph without edges
    graphs.append(Graph.from_edges([(0, 1), (2, 2), (1, 3), (5, 5), (3, 0)]))
    graphs.append(Graph.from_edges([(4, 4)]))
    for g in graphs:
        n = g.num_vertices
        pairs = sorted((u, w) for u in range(n) for w in g.neighbors(u).tolist() if u < w)
        inc = [[] for _ in range(n)]
        for e, (u, w) in enumerate(pairs):
            inc[u].append(e)
            inc[w].append(e)
        off, ids = g.incident_csr
        assert not off.flags.writeable and not ids.flags.writeable
        assert [ids[off[v]:off[v + 1]].tolist() for v in range(n)] == inc


def test_rank_dag_matches_plain_construction():
    for trial in range(20):
        g = make_random_graph(3700 + trial, 18, 3 * trial)
        n = g.num_vertices
        # isolated vertices: a self-loop adds its vertex and no edge
        g = Graph.from_edges([(u, v) for u in range(n) for v in g.neighbors(u).tolist()]
                             + [(n + i, n + i) for i in range(trial % 4)])
        off, ids = g.rank_dag
        assert off.dtype == ids.dtype == np.int32
        assert not off.flags.writeable and not ids.flags.writeable
        rows = [ids[off[r]:off[r + 1]].tolist() for r in range(g.num_vertices)]
        assert rows == rank_dag_lists(g)
        # each edge once, from the lower rank to the higher, rows ascending
        assert len(ids) == g.num_edges
        assert all(a < b for r, row in enumerate(rows) for a, b in zip([r] + row, row))


def test_rank_dag_keys_are_its_sorted_entries():
    for trial in range(6):
        g = make_random_graph(3720 + trial, 18, 4 * trial)
        n = g.num_vertices
        off, ids = g.rank_dag
        keys = g.rank_dag_keys
        assert keys.dtype == np.int64 and not keys.flags.writeable
        rows = np.repeat(np.arange(n), np.diff(off))
        assert keys.tolist() == (rows * n + ids).tolist()  # row * n + id, in CSR order
        assert (np.diff(keys) > 0).all()
    for g in (Graph.from_edges([(0, 0), (1, 1)]), Graph.from_edges([])):
        assert len(g.rank_dag_keys) == 0


def test_rank_dag_ties_and_empty():
    # a 6-cycle ties every degree, so ranks follow ids
    cyc = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)])
    off, ids = cyc.rank_dag
    assert [ids[off[r]:off[r + 1]].tolist() for r in range(6)] == \
        [[1, 5], [2], [3], [4], [5], []]
    for g in (Graph.from_edges([(0, 0), (1, 1)]), Graph.from_edges([])):
        off, ids = g.rank_dag
        assert off.tolist() == [0] * (g.num_vertices + 1) and len(ids) == 0
