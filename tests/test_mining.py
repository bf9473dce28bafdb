import math
import os
import random

import numpy as np
import pytest

from gmine import fingerprint, mining, runtime
from gmine.explore import partition_by_weight, uniform_ranges
from gmine.fingerprint import PAIR_BIT, HashCollisionError, Pattern
from gmine.graph import Graph
from gmine.mining import (Session, clique_discovery, fsm, merge_counts,
                          merge_mni, motif_count, result_lines,
                          triangle_count, write_result)
from gmine.spill import BudgetTooSmallError
from gmine.store import LevelSlice, iter_embeddings

from conftest import make_random_graph
from oracles import (brute_cliques, brute_mni, brute_motif_counts,
                     brute_triangles, min_perm_form, random_connected_edges)


def pattern_rows(pat):
    tab = PAIR_BIT[pat.k]
    rows = [[0] * pat.k for _ in range(pat.k)]
    for i in range(pat.k):
        for j in range(i + 1, pat.k):
            if pat.bits >> tab[i][j] & 1:
                rows[i][j] = rows[j][i] = 1
    return tuple(tuple(r) for r in rows)


def pattern_form(pat):
    return min_perm_form(pat.labels, pattern_rows(pat))


def motif_forms(counts):
    return {pattern_form(pat): c for pat, c in counts.values()}


def complete_graph(n):
    return Graph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


# -- motifs -------------------------------------------------------------------

def test_motif3_demo(demo_graph):
    counts, metrics = motif_count(demo_graph, 3)
    by_deg = {pat.degrees: c for pat, c in counts.values()}
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
    assert len(c3) == 1 and sum(c for _, c in c3.values()) == 10
    c5, _ = motif_count(g, 5)
    assert len(c5) == 1 and sum(c for _, c in c5.values()) == 1


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


def test_cliques_match_brute():
    for trial in range(8):
        g = make_random_graph(2200 + trial, 16, 40)
        for k in (3, 4, 5):
            assert clique_discovery(g, k)[0] == brute_cliques(g, k)


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
    return {pattern_form(pat): s for pat, s in result.values()}


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
    (pat, sup), = result.values()
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
        two, _ = fsm(g, k_edges, 2, workers=2)
        assert result_lines(two) == result_lines(base)
    budget = int(metrics["peak_resident_estimate"] * 0.4)
    spilled, m = fsm(g, 4, 2, workers=2, memory_budget=budget,
                     spill_dir=str(tmp_path), parts_per_level=3)
    assert m["bytes_spilled"] > 0
    assert result_lines(spilled) == result_lines(base)


def test_mni_edge_range_matches_per_embedding_reference(monkeypatch):
    monkeypatch.setattr(mining, "MNI_CHUNK", 4)
    g = make_random_graph(2810, 14, 12, n_labels=3)
    eu, ev = g.edge_u.tolist(), g.edge_v.tolist()
    with Session(g, "edge", labeled=True) as s:
        s.seed_edges()
        s.explore()
        s.explore()
        slices = [LevelSlice.of(l) for l in s.cse.levels]
        runtime.set_context(slices=slices, cap=10 ** 9, want_hashes=True)
        count = s.cse.top.count
        for lo, hi in ((0, count), (5, count - 3)):
            got, hashes = mining.mni_edge_range((lo, hi))
            want_hashes = []
            want = {}
            for _, emb in iter_embeddings(slices, lo, hi):
                vs = sorted({x for f in emb for x in (eu[f], ev[f])})
                pos = {v: i for i, v in enumerate(vs)}
                bits = 0
                for f in emb:
                    bits |= 1 << PAIR_BIT[len(vs)][pos[eu[f]]][pos[ev[f]]]
                e = s.hasher.classify(tuple(int(g.labels[v]) for v in vs), bits)
                want_hashes.append(e.hash)
                rec = want.setdefault(e.hash, [e.pattern,
                                               [set() for _ in range(e.orbit_count)]])
                for v, o in zip(vs, e.position_orbits()):
                    rec[1][o].add(v)
            assert hashes.tolist() == want_hashes
            assert got == want


def test_fsm_exact_with_labels_past_a_packed_key():
    # (max label + 2)^8 * 2^28 overflows 63 bits, so a key packing labels
    # and bitmap into one int64 would wrap at 8 vertices
    rng = random.Random(2820)
    edges = random_connected_edges(rng, 8, 1)
    g = Graph.from_edges(edges, {v: 700 * rng.randrange(3) for v in range(8)})
    assert (g.max_label + 2) ** 8 << 28 >= 1 << 63
    result, _ = fsm(g, 7, 1)
    assert max(p.k for p, _ in result.values()) == 8
    assert fsm_forms(result) == expected_frequent(g, 7, 1)


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
            assert os.path.exists(os.path.join(d, "plan.txt"))
        outs.append(out)
    if req_spill:
        assert spilled >= 1, "no budget case exercised the disk path"
    lines0 = result_lines_of(outs[0])
    for out in outs[1:]:
        assert result_lines_of(out) == lines0


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
    g = make_random_graph(2800, 24, 30)
    counts, metrics = motif_count(g, 4, memory_budget=6000,
                                  spill_dir=str(tmp_path), parts_per_level=3)
    assert metrics.get("bytes_spilled", 0) > 0
    assert motif_forms(counts) == brute_motif_counts(g, 4)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_spilled_two_worker_motif_matches_brute(tmp_path, k):
    g = make_random_graph(2900, 30, 40)
    peak = motif_count(g, k)[1]["peak_resident_estimate"]
    counts, metrics = motif_count(g, k, workers=2, memory_budget=peak // 2,
                                  spill_dir=str(tmp_path), parts_per_level=3)
    assert metrics["bytes_spilled"] > 0
    assert motif_forms(counts) == brute_motif_counts(g, k)


def test_motif_count_builds_no_adjacency_sets():
    g = make_random_graph(2901, 30, 40)
    motif_count(g, 4)
    assert g._adj_sets is None


def test_resident_phases_map_once_each(monkeypatch):
    """A resident top is a replay with one window: each explore and each
    aggregate maps its ranges once, cut by the top's predictions when it
    has them and uniformly when it does not."""
    g = make_random_graph(2904, 40, 70)
    calls = []
    real = runtime.map_ranges

    def spy(fn, tasks, workers):
        calls.append((fn.__name__, list(tasks), workers))
        return real(fn, tasks, workers)

    def tasks(cuts):
        return [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:]) if a < b]

    monkeypatch.setattr(runtime, "map_ranges", spy)
    with Session(g, "vertex", workers=2) as s:
        s.seed_vertices()
        for size in (2, 3, 4):
            want = tasks(partition_by_weight(s.cse.top.pred, 2))
            calls.clear()
            s.explore(want_pred=size < 4)
            assert calls == [("expand_vertex_range", want, 2)]
        assert s.cse.top.pred is None
        calls.clear()
        s.aggregate(mining.count_patterns_range, merge_counts, {},
                    {"edge_keys": g.edge_keys, "num_vertices": g.num_vertices})
        assert calls == [("count_patterns_range",
                          tasks(uniform_ranges(s.cse.top.count, 2)), 2)]
    assert all(l.residency == "mem" for l in s.cse.levels)


# -- spill directory lifetime ----------------------------------------------------

def test_session_removes_its_own_spill_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GMINE_SPILL_DIR", str(tmp_path))
    g = make_random_graph(2900, 30, 40)
    _, metrics = motif_count(g, 4, memory_budget=3500, parts_per_level=3)
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
    motif_count(g, 4, memory_budget=3500, spill_dir=d, parts_per_level=3)
    assert "plan.txt" in os.listdir(d)


def test_sessions_clear_the_worker_context():
    g = make_random_graph(2903, 20, 20, n_labels=2)
    motif_count(g, 3)
    assert runtime.get_context() == {}
    fsm(g, 2, 2)
    assert runtime.get_context() == {}


# -- pattern hash exactness ----------------------------------------------------------

def test_motif_count_raises_on_hash_collision(monkeypatch):
    monkeypatch.setattr(fingerprint, "triple_hash", lambda *a: 7)
    g = make_random_graph(2902, 14, 12)
    with pytest.raises(HashCollisionError):
        motif_count(g, 4)


def test_merges_raise_on_hash_collision():
    path = Pattern(3, (0, 0, 0), (1, 1, 2), 0b110)
    tri = Pattern(3, (0, 0, 0), (2, 2, 2), 0b111)
    assert merge_counts({7: [path, 1]}, {7: [path, 2]}) == {7: [path, 3]}
    with pytest.raises(HashCollisionError):
        merge_counts({7: [path, 1]}, {7: [tri, 2]})
    with pytest.raises(HashCollisionError):
        merge_mni({7: [path, [set()]]}, {7: [tri, [set()]]})


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
