import gc
import math
import os
import random
import re
import sys
import threading
import weakref

import numpy as np
import pytest

from gmine import fingerprint, mining, runtime
from gmine.explore import CLIQUE, partition_by_weight, uniform_ranges
from gmine.fingerprint import PAIR_BIT
from gmine.graph import Graph
from gmine.mining import (Session, clique_discovery, fsm, merge_counts,
                          merge_mni, motif_count, result_lines,
                          triangle_count)
from gmine.spill import BudgetTooSmallError
from gmine.store import level_columns

from conftest import make_random_graph
from oracles import (bitmap_rows, brute_cliques, brute_mni, brute_motif_counts,
                     brute_triangles, extract, gather_volume, iter_embeddings,
                     level_slices, min_perm_form, random_connected_edges,
                     rank_dag_lists, whole_arrays, write_result)


def pattern_form(pat):
    return min_perm_form(pat.labels, bitmap_rows(pat.k, pat.bits))


def motif_forms(counts):
    return {pattern_form(pat): c for pat, c in counts.items()}


def complete_graph(n):
    return Graph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


# -- motifs -------------------------------------------------------------------

def test_motif3_demo(demo_graph):
    counts, metrics = motif_count(demo_graph, 3)
    by_deg = {pat.degrees: c for pat, c in counts.items()}
    assert by_deg == {(1, 1, 2): 5, (2, 2, 2): 3}
    assert metrics["level_3_embeddings"] == 8


def test_motif_matches_brute():
    for trial in range(8):
        g = make_random_graph(2000 + trial, 14, 12)
        for k in (3, 4, 5):
            counts, _ = motif_count(g, k)
            assert motif_forms(counts) == brute_motif_counts(g, k)


def test_motif_complete_graph():
    g = complete_graph(5)
    c3, _ = motif_count(g, 3)
    assert len(c3) == 1 and sum(c3.values()) == 10
    c5, _ = motif_count(g, 5)
    assert len(c5) == 1 and sum(c5.values()) == 1


def test_motif_too_small_graph():
    counts, _ = motif_count(complete_graph(3), 5)
    assert counts == {}


def test_motif_rejects_bad_k(demo_graph):
    with pytest.raises(ValueError):
        motif_count(demo_graph, 2)
    with pytest.raises(ValueError):
        motif_count(demo_graph, 6)


# -- triangles and cliques ------------------------------------------------------

def test_triangles_demo(demo_graph):
    total, _ = triangle_count(demo_graph)
    assert total == 3


def test_triangles_match_brute():
    for trial in range(10):
        g = make_random_graph(2100 + trial, 25, 40)
        total, _ = triangle_count(g)
        assert total == brute_triangles(g)
    star = Graph.from_edges([(0, i) for i in range(1, 8)])
    assert triangle_count(star)[0] == 0


def test_cliques_demo_and_complete(demo_graph):
    assert clique_discovery(demo_graph, 3)[0] == 3
    for n in (5, 6):
        g = complete_graph(n)
        for k in range(3, n + 1):
            assert clique_discovery(g, k)[0] == math.comb(n, k)


def clique_gate_graphs():
    """Random graphs, a star joined to a 6-clique (one hub), a circulant
    graph whose ties on degree leave the rank to the id, and an edgeless
    graph."""
    graphs = [make_random_graph(3800 + t, 14, 20 + 5 * t) for t in range(12)]
    graphs.append(Graph.from_edges([(0, i) for i in range(1, 12)]
                                   + [(a, b) for a in range(6, 12)
                                      for b in range(a + 1, 12)]))
    graphs.append(Graph.from_edges([(i, (i + d) % 14) for i in range(14)
                                    for d in (1, 2, 3)]))
    graphs.append(Graph.from_edges([(i, i) for i in range(5)]))
    return graphs


def test_cliques_match_brute(tmp_path):
    for i, g in enumerate(clique_gate_graphs()):
        tri = brute_triangles(g)
        assert [triangle_count(g, workers=w)[0] for w in (1, 2)] == [tri, tri], i
        for k in range(3, 9):
            want = brute_cliques(g, k)
            got, m = clique_discovery(g, k)
            assert got == want, (i, k)
            assert clique_discovery(g, k, workers=2)[0] == want, (i, k)
            if g.num_edges == 0:
                continue  # no level holds an id, so nothing can spill
            # one byte below the peak forces the plan onto disk; at k = 3
            # the top is level 2, which never spills, so only the peak fits.
            # With 3 parts per level, two part files of a spilled level
            # outgrow that budget on some graphs; 8 parts fit on all
            peak = m["peak_resident_estimate"]
            got, sm = clique_discovery(g, k, memory_budget=peak - (k > 3),
                                       spill_dir=str(tmp_path / ("%d_%d" % (i, k))),
                                       parts_per_level=8)
            assert (sm.get("bytes_spilled", 0) > 0) == (k > 3), (i, k)
            assert got == want, (i, k)


def test_clique_levels_predict_their_newest_out_lists():
    # a clique's children lie in its newest member's out-list, the one
    # list its expansion gathers, so that list's length is its prediction
    for trial in range(6):
        g = make_random_graph(3900 + trial, 16, 30 + 6 * trial)
        dag = rank_dag_lists(g)
        with Session(g) as s:
            s.seed_vertices(dag=True)
            assert s.cse.top.pred.tolist() == [gather_volume(g, [r], dag)
                                               for r in range(len(dag))]
            preds = s.cse.top.pred.tolist()
            for size in range(2, 6):
                s.explore(flt=CLIQUE)
                top = s.cse.top
                children = np.diff(whole_arrays(top)[1])
                assert all(c <= p for c, p in zip(children, preds)), (trial, size)
                for o in range(top.count):
                    emb = extract(s.cse, top.index, o)
                    assert list(emb) == sorted(emb)
                    assert top.pred[o] == len(dag[emb[-1]]), (trial, size, o)
                preds = top.pred.tolist()


def test_clique_explores_over_adjacency_and_rank_dag_agree():
    # over the adjacency the clique rule keeps ascending vertex ids, over
    # the rank DAG ascending ranks: the same cliques, each once
    for trial in range(4):
        g = make_random_graph(3950 + trial, 16, 75 + 5 * trial)
        counts = []
        for dag in (False, True):
            with Session(g) as s:
                s.seed_vertices(dag=dag)
                for _ in range(2, 7):
                    s.explore(flt=CLIQUE)
                    counts.append(s.cse.top.count)
        want = [brute_cliques(g, k) for k in range(2, 7)]
        assert counts == want + want, trial
        assert want[4] > 0, trial  # the densest levels are not empty


def test_clique_rejects_bad_k(demo_graph):
    with pytest.raises(ValueError):
        clique_discovery(demo_graph, 2)
    with pytest.raises(ValueError):
        clique_discovery(demo_graph, 9)


# -- frequent subgraph mining ------------------------------------------------------

def expected_frequent(g, k_edges, support):
    want = {}
    for size in range(1, k_edges + 1):
        sup = brute_mni(g, size)
        stop = True
        for form, s in sup.items():
            if s >= support:
                want[form] = support
                stop = False
        if stop:
            break
    return want


def fsm_forms(result):
    return {pattern_form(pat): s for pat, s in result.items()}


def test_fsm_matches_brute_mni():
    for trial in range(5):
        g = make_random_graph(2300 + trial, 11, 7, n_labels=3)
        for support in (1, 2, 4):
            for k_edges in (1, 2, 3):
                result, _ = fsm(g, k_edges, support)
                assert fsm_forms(result) == expected_frequent(g, k_edges, support), \
                    (trial, support, k_edges)


def test_fsm_unlabeled_graph():
    g = make_random_graph(2400, 12, 10)
    result, _ = fsm(g, 2, 3)
    assert fsm_forms(result) == expected_frequent(g, 2, 3)


def test_fsm_nothing_frequent():
    g = Graph.from_edges([(0, 1)], {0: 0, 1: 1})
    result, _ = fsm(g, 3, 5)
    assert result == {}


def test_fsm_single_edge_patterns(demo_graph):
    result, _ = fsm(demo_graph, 1, 2)
    assert len(result) == 1  # one unlabeled edge pattern
    (pat, sup), = result.items()
    assert sup == 2 and pat.k == 2


def test_fsm_rejects_bad_args(demo_graph):
    with pytest.raises(ValueError):
        fsm(demo_graph, 0, 1)
    with pytest.raises(ValueError):
        fsm(demo_graph, 8, 1)
    with pytest.raises(ValueError):
        fsm(demo_graph, 2, 0)


# -- the chunked MNI kernel ---------------------------------------------------------

@pytest.mark.parametrize("trial", range(3))
def test_fsm_chunked_kernel_matches_brute(tmp_path, monkeypatch, trial):
    # 3-row chunks cross parent slices, childless parents and spill windows
    monkeypatch.setattr(mining, "MNI_CHUNK", 3)
    g = make_random_graph(2800 + trial, 12, 9, n_labels=3)
    for k_edges in range(1, 5):
        base, metrics = fsm(g, k_edges, 2)
        assert fsm_forms(base) == expected_frequent(g, k_edges, 2), (trial, k_edges)
        for workers in (2, 3):
            more, _ = fsm(g, k_edges, 2, workers=workers)
            assert result_lines(more) == result_lines(base), (trial, k_edges, workers)
    budget = int(metrics["peak_resident_estimate"] * 0.4)
    spilled, m = fsm(g, 4, 2, workers=2, memory_budget=budget,
                     spill_dir=str(tmp_path), parts_per_level=3)
    assert m["bytes_spilled"] > 0
    assert result_lines(spilled) == result_lines(base)


def test_mni_edge_range_matches_per_embedding_reference(monkeypatch):
    monkeypatch.setattr(mining, "MNI_CHUNK", 4)
    g = make_random_graph(2810, 14, 12, n_labels=3)
    eu, ev = g.edge_u.tolist(), g.edge_v.tolist()
    with Session(g) as s:
        s.seed_edges()
        s.explore()
        s.explore()
        slices = level_slices(s.cse)
        ctx = dict(s.ctx, slices=slices, cap=10 ** 9, want_ids=True)
        count = s.cse.top.count
        for lo, hi in ((0, count), (5, count - 3)):
            got, ids = mining.mni_edge_range((lo, hi), ctx)
            want_ids = []
            want = {}
            for _, emb in iter_embeddings(slices, lo, hi):
                vs = sorted({x for f in emb for x in (eu[f], ev[f])})
                pos = {v: i for i, v in enumerate(vs)}
                bits = 0
                for f in emb:
                    bits |= 1 << PAIR_BIT[len(vs)][pos[eu[f]]][pos[ev[f]]]
                e = s.hasher.classify(tuple(int(g.labels[v]) for v in vs), bits)
                want_ids.append(e.id)
                doms = want.setdefault(e.pattern, [set() for _ in range(max(e.orbits) + 1)])
                for v, o in zip(vs, e.orbits):
                    doms[o].add(v)
            assert ids.dtype == np.int64 and ids.tolist() == want_ids
            assert {pat: [set(d.tolist()) for d in doms]
                    for pat, doms in got.items()} == want


SIXTEEN_LABELS = (0, 2 ** 31 - 1) + tuple(range(5, 5 + 14 * 7919, 7919))


@pytest.mark.parametrize("trial", range(4))
def test_edge_rows_are_in_canonical_order(monkeypatch, trial):
    # positions sorted by (label, degree), ties by vertex id, so every key
    # the hasher caches is already in its canonical order; the labels
    # include 0 and the int32 maximum and repeat, which makes ties. Up to
    # 7 edges, every sorting network from 2 to 14 end rows runs; the
    # 16-label input carries every pool label on a matching of its own,
    # so its packed keys take 5-bit label fields and two words at 7 edges
    monkeypatch.setattr(mining, "MNI_CHUNK", 3)
    pool, top = ((0, 700, 1400, 2 ** 31 - 1), 4) if trial < 3 else (SIXTEEN_LABELS, 7)
    rng = random.Random(2830 + trial)
    n = 10 if top < 7 else 8  # brute_mni stays quick at 7 edges
    edges = random_connected_edges(rng, n, 8 if top < 7 else 1)
    labels = {v: rng.choice(pool) for v in range(n)}
    if top == 7:
        edges += [(n + 2 * i, n + 2 * i + 1) for i in range(len(pool) // 2)]
        labels.update((n + i, x) for i, x in enumerate(pool))
    g = Graph.from_edges(edges, labels)
    eu, ev, lab = g.edge_u.tolist(), g.edge_v.tolist(), g.labels.tolist()
    for k_edges in range(1, top + 1):
        with Session(g) as s:
            s.seed_edges()
            for _ in range(k_edges - 1):
                s.explore()
            slices = level_slices(s.cse)
            count = s.cse.top.count
            verts, rows = mining._edge_rows(level_columns(slices, 0, count),
                                            g.edge_u, g.edge_v, g.labels)
            want_verts, want_rows = [], []
            for _, emb in iter_embeddings(slices, 0, count):
                deg = {}
                for f in emb:
                    for x in (eu[f], ev[f]):
                        deg[x] = deg.get(x, 0) + 1
                vs = sorted(deg, key=lambda x: (lab[x], deg[x], x))
                pos = {x: i for i, x in enumerate(vs)}
                bits = 0
                for f in emb:
                    bits |= 1 << PAIR_BIT[len(vs)][pos[eu[f]]][pos[ev[f]]]
                pad = [-1] * (k_edges + 1 - len(vs))
                want_verts.append(vs + pad)
                want_rows.append([lab[x] for x in vs] + pad + [bits])
            assert verts.T.tolist() == want_verts
            assert rows.T.tolist() == want_rows
            s.aggregate(mining.mni_edge_range, lambda acc, res: acc, None,
                        {"cap": 10 ** 9, "want_ids": False})
            for labels, bits in s.hasher._by_raw:
                degrees = fingerprint.degrees_from_bits(len(labels), bits)
                perm = fingerprint.canonical_sort(labels, degrees, bits)[3]
                assert perm == list(range(len(labels)))
            assert len(s.hasher._poly) == len(brute_mni(g, k_edges))
    big = np.full(g.num_vertices, 1 << 58)  # (2^58 + 1) * 8 * n passes 2^63
    with pytest.raises(OverflowError, match="int64"):
        mining._edge_rows(np.zeros((7, 1), np.int64), g.edge_u, g.edge_v, big)
    if top == 7:  # by the 0-1 principle, each network sorts any column
        for r in range(2, 15):
            bits = list(np.arange(1 << r) >> np.arange(r)[:, None] & 1)
            srt = np.array(mining._sort_rows(bits))
            assert np.all(srt[1:] >= srt[:-1]), r


@pytest.mark.parametrize("cap", [1, 2, 5])
def test_mni_edge_range_caps_each_domain_when_the_range_returns(tmp_path, cap):
    g = make_random_graph(2810, 14, 12, n_labels=3)
    with Session(g) as s:
        s.seed_edges()
        s.explore()
        s.explore()
        ctx = dict(s.ctx, slices=level_slices(s.cse),
                   cap=10 ** 9, want_ids=False)
        full, _ = mining.mni_edge_range((0, s.cse.top.count), ctx)
        got, _ = mining.mni_edge_range((0, s.cse.top.count), dict(ctx, cap=cap))
    assert got.keys() == full.keys()
    for pat, doms in got.items():
        for d, whole in zip(doms, full[pat], strict=True):
            assert isinstance(d, np.ndarray) and d.dtype.kind == "i"
            assert np.all(d[1:] > d[:-1])
            ids, whole_ids = set(d.tolist()), set(whole.tolist())
            assert ids <= whole_ids and len(ids) == min(cap, len(whole_ids))
            assert d.tolist() == sorted(whole_ids)[:cap]
    # a larger graph keeps a spilling budget feasible for every cap
    g = make_random_graph(2810, 20, 24, n_labels=3)
    base, metrics = fsm(g, 3, cap)
    assert result_lines(fsm(g, 3, cap, workers=2)[0]) == result_lines(base)
    budget = int(metrics["peak_resident_estimate"] * 0.5)
    spilled, m = fsm(g, 3, cap, memory_budget=budget, spill_dir=str(tmp_path),
                     parts_per_level=3)
    assert m["bytes_spilled"] > 0
    assert result_lines(spilled) == result_lines(base)


@pytest.mark.parametrize("cap", [1, 2, 5, 10 ** 9])
def test_merge_mni_of_split_ranges_equals_the_whole_range(monkeypatch, cap):
    # the halves' domains are capped on return and merged as aggregate
    # folds them, so the merge must recover the whole range's lowest ids
    monkeypatch.setattr(mining, "MNI_CHUNK", 5)
    g = make_random_graph(2811, 14, 14, n_labels=2)
    with Session(g) as s:
        s.seed_edges()
        s.explore()
        s.explore()
        ctx = dict(s.ctx, slices=level_slices(s.cse),
                   cap=cap, want_ids=False)
        count = s.cse.top.count
        whole, _ = mining.mni_edge_range((0, count), ctx)
        for cut in (0, 1, 7, count // 3, count // 2, count - 1, count):
            got = {}
            for part in ((0, cut), (cut, count)):
                merge_mni(got, mining.mni_edge_range(part, ctx)[0], cap)
            assert got.keys() == whole.keys(), cut
            for pat, doms in got.items():
                for d, w in zip(doms, whole[pat], strict=True):
                    assert len(d) <= cap
                    assert d.tolist() == w.tolist(), (cut, pat)


def test_fsm_exact_with_labels_past_a_packed_key(tmp_path):
    # keys pack label ranks: at 8 vertices, 3 labels take 8 fields of 2
    # bits and the 28-bit bitmap, one int64 word; 16 labels take 5-bit
    # fields, so the bitmap moves to a second word. The 16 labels sit on
    # a matching beside the 8-vertex component, which draws from them
    for pool, words in (((0, 700, 1400), 1), (SIXTEEN_LABELS, 2)):
        rng = random.Random(2820)
        edges = random_connected_edges(rng, 8, 1)
        labels = {v: rng.choice(pool) for v in range(8)}
        if len(pool) > 8:
            edges += [(8 + 2 * i, 9 + 2 * i) for i in range(len(pool) // 2)]
            labels.update((8 + i, x) for i, x in enumerate(pool))
        g = Graph.from_edges(edges, labels)
        assert mining._RawKeyTable(None, 8, np.unique(g.labels)).words == words
        result, metrics = fsm(g, 7, 1)
        assert max(p.k for p in result) == 8
        assert fsm_forms(result) == expected_frequent(g, 7, 1)
        lines = result_lines(result)
        assert result_lines(fsm(g, 7, 1, workers=2)[0]) == lines
        budget = int(metrics["peak_resident_estimate"] * 0.75)
        spilled, m = fsm(g, 7, 1, workers=2, memory_budget=budget,
                         spill_dir=str(tmp_path / str(words)), parts_per_level=3)
        assert m["bytes_spilled"] > 0
        assert result_lines(spilled) == lines


# -- determinism across workers and budgets ------------------------------------------

def run_variants(tmp_path, fn, req_spill=True):
    outs = []
    spilled = 0
    base = fn(0, None)
    peak = base[1]["peak_resident_estimate"]
    outs.append(base)
    cases = [(0, 1), (0, 2), (0, 4),
             (int(peak * 0.75), 2), (int(peak * 0.5), 3)]
    for i, (budget, workers) in enumerate(cases):
        d = str(tmp_path / ("run%d" % i))
        try:
            out = fn(budget, d, workers=workers)
        except BudgetTooSmallError:
            assert budget, "unlimited budget must always be feasible"
            continue
        if out[1].get("bytes_spilled"):
            spilled += 1
            assert only_part_files(d)
        outs.append(out)
    if req_spill:
        assert spilled >= 1, "no budget case exercised the disk path"
    lines0 = result_lines_of(outs[0])
    for out in outs[1:]:
        assert result_lines_of(out) == lines0
        assert out[0] == outs[0][0]  # keyed by Pattern, not by a run's ids


def only_part_files(d):
    """True when d holds spill parts and nothing else."""
    names = os.listdir(d)
    return bool(names) and all(re.fullmatch(r"L\d+_P\d+\.cse", n) for n in names)


def result_lines_of(out):
    data = out[0]
    if isinstance(data, dict):
        return result_lines(data)
    return [str(data)]


def test_motif_worker_budget_invariance(tmp_path):
    g = make_random_graph(2500, 60, 110)

    def run(budget, d, workers=1):
        return motif_count(g, 4, workers=workers, memory_budget=budget,
                           spill_dir=d, parts_per_level=3)

    run_variants(tmp_path, run)


def test_fsm_worker_budget_invariance(tmp_path):
    g = make_random_graph(2600, 40, 60, n_labels=2)

    def run(budget, d, workers=1):
        return fsm(g, 3, 6, workers=workers, memory_budget=budget,
                   spill_dir=d, parts_per_level=3)

    run_variants(tmp_path, run)


def test_triangle_budget_invariance(tmp_path):
    g = make_random_graph(2700, 80, 160)

    def run(budget, d, workers=1):
        return triangle_count(g, workers=workers, memory_budget=budget,
                              spill_dir=d, parts_per_level=4)

    # triangle counting stops at the pair level, which always stays
    # resident, so tight budgets either fit or are rejected outright
    run_variants(tmp_path, run, req_spill=False)


def test_spilled_motif_matches_brute(tmp_path):
    # the unlimited peak is 4,408 bytes and the smallest feasible plan
    # 2,312: level 4 is folded, never stored
    g = make_random_graph(2800, 24, 30)
    counts, metrics = motif_count(g, 4, memory_budget=3300,
                                  spill_dir=str(tmp_path), parts_per_level=3)
    assert metrics.get("bytes_spilled", 0) > 0
    assert motif_forms(counts) == brute_motif_counts(g, 4)


def motif_budget(peak, k):
    """A budget between the smallest feasible plan of a k-motif or
    k-clique run and its unlimited peak. The fold phase keeps the top's
    predictions resident, which puts that plan near half the peak; at
    k = 3 the top is level 2, which never spills, so only the peak
    itself fits."""
    return peak if k == 3 else peak * 3 // 4


@pytest.mark.parametrize("k", [3, 4, 5])
def test_spilled_two_worker_motif_matches_brute(tmp_path, k):
    g = make_random_graph(2900, 30, 40)
    peak = motif_count(g, k)[1]["peak_resident_estimate"]
    counts, metrics = motif_count(g, k, workers=2, memory_budget=motif_budget(peak, k),
                                  spill_dir=str(tmp_path), parts_per_level=3)
    assert metrics.get("bytes_spilled", 0) > 0 or k == 3
    assert motif_forms(counts) == brute_motif_counts(g, k)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_folded_level_keeps_its_count(tmp_path, monkeypatch, k, workers):
    """The motif census and the clique count fold level k into their
    aggregation: the metrics still count level k's embeddings, charge it
    no bytes, and the store ends at level k - 1, with and without
    spilling. The clique graph is dense enough to hold 5-cliques."""
    sessions = []
    plans = []
    real_aggregate = Session.aggregate
    real_plan = mining.plan_spill

    def spy_aggregate(self, *a):
        sessions.append(self)
        return real_aggregate(self, *a)

    def spy_plan(cse, budget, next_estimate):
        plans.append((next_estimate, real_plan(cse, budget, next_estimate)))
        return plans[-1][1]

    monkeypatch.setattr(Session, "aggregate", spy_aggregate)
    monkeypatch.setattr(mining, "plan_spill", spy_plan)
    for app in (motif_count, clique_discovery):
        clique = app is clique_discovery
        g = make_random_graph(2905, 20, 80) if clique else make_random_graph(2905, 30, 40)
        with Session(g) as s:
            s.seed_vertices(dag=clique)
            for _ in range(2, k + 1):
                s.explore(flt=CLIQUE if clique else None)
        stored = s.cse.top.count
        assert stored > 0
        base = app(g, k, workers=workers)
        peak = base[1]["peak_resident_estimate"]
        for i, budget in enumerate((0, motif_budget(peak, k))):
            plans.clear()
            out = app(g, k, workers=workers, memory_budget=budget,
                      spill_dir=str(tmp_path / app.__name__ / str(i)), parts_per_level=3)
            m = out[1]
            assert m["level_%d_embeddings" % k] == stored, app
            assert m["level_%d_bytes" % k] == 0
            assert sessions[-1].cse.depth == k - 1
            assert (m.get("bytes_spilled", 0) > 0) == (budget > 0 and k > 3), app
            assert result_lines_of(out) == result_lines_of(base)
            # the fold phase is planned as an explore of a 0-byte level
            assert [est for est, _ in plans[k - 2:]] == [(0, 0, 0)]
            assert m["peak_resident_estimate"] == max(est for _, (_, est) in plans)


@pytest.mark.parametrize("app", [
    lambda g: motif_count(g, 4), lambda g: clique_discovery(g, 4),
    triangle_count, lambda g: fsm(g, 3, 2)],
    ids=["motif_count", "clique_discovery", "triangle_count", "fsm"])
def test_applications_build_no_adjacency_lists(app):
    g = make_random_graph(2901, 30, 40, n_labels=3)
    app(g)
    assert g._adj is None and g._adj_sets is None


def test_resident_phases_map_once_each(monkeypatch):
    """Without a budget a level is one in-memory part by default, so a
    replay has one window: each explore and each aggregate maps its
    ranges once, cut by the top's predictions when it has them and
    uniformly when it does not."""
    g = make_random_graph(2904, 40, 70)
    calls = []
    real = runtime.map_ranges

    def spy(fn, tasks, workers):
        # a task is the list of (lo, hi, slices) pieces it runs fn over
        calls.append((fn.args[0].__name__, [[p[:2] for p in t] for t in tasks], workers))
        return real(fn, tasks, workers)

    def tasks(cuts):
        return [[(int(a), int(b))] for a, b in zip(cuts[:-1], cuts[1:]) if a < b]

    monkeypatch.setattr(runtime, "map_ranges", spy)
    with Session(g, workers=2) as s:
        s.seed_vertices()
        for size in (2, 3, 4):
            want = tasks(partition_by_weight(s.cse.top.pred, 2))
            calls.clear()
            s.explore(want_pred=size < 4)
            assert calls == [("expand_vertex_range", want, 2)]
            assert len(s.cse.top.parts) == 1
        assert s.cse.top.pred is None
        calls.clear()
        s.aggregate(mining.count_patterns_range, merge_counts, {})
        assert calls == [("count_patterns_range",
                          tasks(uniform_ranges(s.cse.top.count, 2)), 2)]
    assert all(l.residency == "mem" for l in s.cse.levels)


def test_in_memory_parts_share_one_map(monkeypatch):
    """Replay steps over parts held in memory are mapped together: with
    3 parts per level and no budget, each phase still maps once, and
    some task runs over pieces of more than one step. A spilled run maps
    again only before a window reads a part file."""
    g = make_random_graph(2904, 40, 70)
    maps = []
    real = runtime.map_ranges

    def spy(fn, tasks, workers):
        maps.append(max(len(t) for t in tasks))
        return real(fn, tasks, workers)

    monkeypatch.setattr(runtime, "map_ranges", spy)
    base = motif_count(g, 4, workers=2)
    for budget in (0, below_peak(g, 3)):
        maps.clear()
        out = motif_count(g, 4, workers=2, memory_budget=budget, parts_per_level=3)
        assert result_lines_of(out) == result_lines_of(base)
        loads = out[1].get("parts_loaded", 0)
        assert (loads > 0) == (budget > 0)
        # two explores and the fold, plus one map per file read at most
        assert 3 + (loads > 0) <= len(maps) <= 3 + loads
        if not budget:
            assert max(maps) > 1


# -- spill directory lifetime ----------------------------------------------------

def below_peak(g, parts):
    """One byte below the unbudgeted 4-motif run's peak estimate: a
    budget that forces the plan onto disk."""
    return motif_count(g, 4, parts_per_level=parts)[1]["peak_resident_estimate"] - 1


def test_session_removes_its_own_spill_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GMINE_SPILL_DIR", str(tmp_path))
    g = make_random_graph(2900, 30, 40)
    _, metrics = motif_count(g, 4, memory_budget=below_peak(g, 3), parts_per_level=3)
    assert metrics["bytes_spilled"] > 0
    assert os.listdir(str(tmp_path)) == []


def test_session_removes_its_own_spill_dir_on_error(tmp_path, monkeypatch):
    monkeypatch.setenv("GMINE_SPILL_DIR", str(tmp_path))
    g = make_random_graph(2900, 30, 40)
    # level 3 spills, then level 5 cannot fit
    with pytest.raises(BudgetTooSmallError):
        motif_count(g, 5, memory_budget=4000, parts_per_level=3)
    assert os.listdir(str(tmp_path)) == []


def test_session_keeps_caller_spill_dir(tmp_path):
    g = make_random_graph(2900, 30, 40)
    d = str(tmp_path / "mine")
    motif_count(g, 4, memory_budget=below_peak(g, 3), spill_dir=d, parts_per_level=3)
    assert only_part_files(d)


def test_level_bytes_do_not_depend_on_the_budget(tmp_path):
    # a spilled level reports the footprint of its ids and offsets, as it
    # would in memory
    g = make_random_graph(2900, 30, 40)
    _, base = motif_count(g, 4, parts_per_level=3)
    _, spilled = motif_count(g, 4, memory_budget=base["peak_resident_estimate"] - 1,
                             spill_dir=str(tmp_path), parts_per_level=3)
    assert spilled["bytes_spilled"] > 0
    keys = [k for k in base if k.startswith("level_")]
    assert len(keys) == 8
    assert {k: spilled[k] for k in keys} == {k: base[k] for k in keys}


def test_session_rejects_a_negative_budget(demo_graph):
    with pytest.raises(ValueError, match="memory budget must not be negative"):
        Session(demo_graph, memory_budget=-5)
    with pytest.raises(ValueError, match="memory budget must not be negative"):
        clique_discovery(demo_graph, 3, memory_budget=-5)


def test_session_rejects_non_positive_workers(demo_graph):
    for bad in (0, -4):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            Session(demo_graph, workers=bad)


def test_finished_phases_and_calls_keep_nothing_alive():
    # an explore drops its phase context, alive mask included, when it
    # ends; a finished call holds no reference to its graph
    g = make_random_graph(2903, 20, 20, n_labels=2)
    with Session(g) as s:
        s.seed_edges()
        alive = np.ones(s.cse.top.count, dtype=bool)
        ref = weakref.ref(alive)
        s.explore(alive=alive)
        del alive
        gc.collect()
        assert ref() is None
    for app in (lambda g: motif_count(g, 3), lambda g: fsm(g, 2, 2)):
        g = make_random_graph(2903, 20, 20, n_labels=2)
        ref = weakref.ref(g)
        app(g)
        del g
        gc.collect()
        assert ref() is None


# -- overlapping calls ------------------------------------------------------------

def clique_phases(g, k):
    with Session(g) as s:
        s.seed_vertices(dag=True)
        for _ in range(2, k):
            yield
            s.explore(flt=CLIQUE)
        yield
        count = s.aggregate(mining.count_cliques_range, lambda a, b: a + b, 0)
    return count


def motif_phases(g, k):
    with Session(g) as s:
        s.seed_vertices()
        for _ in range(2, k):
            yield
            s.explore()
        yield
        counts = s.aggregate(mining.count_patterns_range, merge_counts, {})
    return result_lines(counts)


def mni_phases(g, k_edges):
    with Session(g) as s:
        s.seed_edges()
        out = []
        for size in range(1, k_edges + 1):
            yield
            pats = s.aggregate(mining.mni_edge_range,
                               lambda acc, res: merge_mni(acc, res[0], 2), {},
                               {"cap": 2, "want_ids": False})
            out.append(sorted((pat.serialize(), [d.tolist() for d in doms])
                              for pat, doms in pats.items()))
            if size < k_edges:
                yield
                s.explore()
    return out


def drive(*runs):
    """Advance each generator by one phase in turn; their return values."""
    results = [None] * len(runs)
    live = dict(enumerate(runs))
    while live:
        for i, run in list(live.items()):
            try:
                next(run)
            except StopIteration as e:
                results[i] = e.value
                del live[i]
    return results


def test_interleaved_sessions_match_their_solo_runs():
    dense = make_random_graph(1, 60, 400)
    sparse = make_random_graph(2, 80, 40)
    labeled = make_random_graph(3, 30, 30, n_labels=3)
    runs = [lambda: clique_phases(dense, 4), lambda: clique_phases(sparse, 4),
            lambda: motif_phases(sparse, 4), lambda: motif_phases(dense, 3),
            lambda: mni_phases(labeled, 3)]
    solo = [drive(run())[0] for run in runs]
    assert solo[0] == clique_discovery(dense, 4)[0] == 118
    assert drive(*(run() for run in runs)) == solo


def test_threads_mine_different_graphs_at_once(monkeypatch):
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 2)
    apps = [lambda: clique_discovery(make_random_graph(1, 60, 400), 4, workers=2)[0],
            lambda: result_lines(motif_count(make_random_graph(2, 80, 40), 4,
                                             workers=2)[0]),
            lambda: result_lines(fsm(make_random_graph(3, 30, 30, n_labels=3), 3, 2,
                                     workers=2)[0])]
    solo = [app() for app in apps]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the calls' Python code finely
    try:
        for trial in range(4):
            start = threading.Barrier(len(apps), timeout=60)
            got = [None] * len(apps)

            def run(i):
                start.wait()
                try:
                    got[i] = apps[i]()
                except Exception as e:
                    got[i] = e

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(apps))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == solo, trial
    finally:
        sys.setswitchinterval(switch)


# -- pattern key exactness ----------------------------------------------------------

def test_fsm_splits_trees_that_share_a_triple():
    """Two 2-labeled 7-vertex trees as components: they share (labels,
    degrees, polynomial) without being isomorphic, so a key of the triple
    alone would merge their 6-edge patterns."""
    a = [(0, 6), (1, 6), (2, 3), (3, 4), (4, 5), (4, 6)]
    b = [(0, 6), (1, 4), (2, 4), (3, 5), (3, 6), (4, 6)]
    labels = {v + base: int(v >= 5) for v in range(7) for base in (0, 7)}
    g = Graph.from_edges(a + [(u + 7, v + 7) for u, v in b], labels)
    result, _ = fsm(g, 6, 1)
    assert fsm_forms(result) == expected_frequent(g, 6, 1)
    assert sum(p.k == 7 for p in result) == 2


# -- output -------------------------------------------------------------------------

def test_result_lines_sorted_and_formatted(demo_graph):
    counts, _ = motif_count(demo_graph, 3)
    lines = result_lines(counts)
    assert lines == ["3;L=0,0,0;D=1,1,2;B=06\t5",
                     "3;L=0,0,0;D=2,2,2;B=07\t3"]


def test_write_result_roundtrip(tmp_path, demo_graph):
    counts, _ = motif_count(demo_graph, 3)
    p = str(tmp_path / "out.txt")
    write_result(p, counts, "# patterns=2 embeddings=8")
    lines = open(p).read().splitlines()
    assert lines[-1] == "# patterns=2 embeddings=8"
    assert lines[:-1] == result_lines(counts)


def test_metrics_track_levels(demo_graph):
    _, metrics = motif_count(demo_graph, 3)
    assert metrics["level_1_embeddings"] == 5
    assert metrics["level_2_embeddings"] == 7
    assert metrics["level_3_embeddings"] == 8
    assert metrics["explore_seconds"] > 0
    assert metrics["aggregate_seconds"] > 0


# -- the benchmark tracer's hooks ---------------------------------------------------

def load_tracer():
    import importlib.util
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod


def test_benchmark_tracer_installs_and_uninstalls():
    """perfbench/tracer.py wraps gmine's functions by name from outside.
    Renaming or deleting one must fail here, not in every traced job;
    each traced app must still run and count, and uninstall must put
    every original back."""
    tracer_mod = load_tracer()
    before = dict(vars(mining)), dict(vars(Session))
    g = make_random_graph(2906, 24, 70)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert mining.triangle_range is not before[0]["triangle_range"]
        assert mining.triangle_count(g)[0] == brute_triangles(g)
        assert mining.clique_discovery(g, 4, workers=2)[0] == brute_cliques(g, 4)
        assert motif_forms(mining.motif_count(g, 4)[0]) == brute_motif_counts(g, 4)
        assert mining.fsm(g, 2, 2)[0]
    finally:
        tracer.uninstall()
    assert {"explore.expand", "mining.explore", "mining.aggregate"} <= {
        s[1] for s in tracer.spans}
    assert (dict(vars(mining)), dict(vars(Session))) == before


def test_benchmark_tracer_reads_the_hasher():
    """layer_metrics reads the sizes of the hasher's caches by their
    private names, so renaming one must fail here, not only in traced
    jobs."""
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    g = make_random_graph(2907, 24, 70, n_labels=3)
    try:
        tracer.install()
        result, metrics = mining.fsm(g, 3, 2)
    finally:
        tracer.uninstall()
    assert result
    layers = tracer_mod.layer_metrics(tracer, metrics)
    [h] = tracer.hashers
    assert layers["fingerprint.raw_keys"] == len(h._by_raw) > 0
    assert layers["fingerprint.poly_count"] == len(h._poly) > 0
