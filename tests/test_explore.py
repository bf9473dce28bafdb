import itertools
import random

import numpy as np
import pytest

from gmine.explore import (edge_seed_preds, partition_by_weight, uniform_ranges,
                           vertex_seed_preds)
from gmine.graph import Graph
from gmine.mining import Session
from gmine.spill import read_part

from conftest import make_random_graph
from oracles import (connected_edge_subsets, enumerate_connected_subsets,
                     is_canonical_edge_extension, is_canonical_extension,
                     is_connected_subset, ordering_is_canonical,
                     ordering_is_canonical_edges, predict_candidate_size,
                     predict_candidate_size_edges)
from test_store import L2_OFF, L2_VERT, L3_OFF, L3_VERT


def vertex_store_to(g, k, workers=1):
    with Session(g, "vertex", workers=workers) as s:
        s.seed_vertices()
        for _ in range(2, k + 1):
            s.explore()
    return s.cse


def edge_store_to(g, k, workers=1, **kw):
    with Session(g, "edge", workers=workers, **kw) as s:
        s.seed_edges()
        for _ in range(2, k + 1):
            s.explore()
    return s.cse


# -- single-step predicate ---------------------------------------------------

def test_extension_rules_demo(demo_graph):
    g = demo_graph
    # dense <1,2> (original <2,3>): 0 fails the head rule, 3 and 4 extend
    assert not is_canonical_extension(g, [1, 2], 0)
    assert is_canonical_extension(g, [1, 2], 3)
    assert is_canonical_extension(g, [1, 2], 4)
    # dense <1,4> (original <2,5>): 2 attaches at position 0 but 2 < 4
    assert not is_canonical_extension(g, [1, 4], 2)
    assert is_canonical_extension(g, [1, 4], 3)
    # members and non-neighbors are rejected
    assert not is_canonical_extension(g, [1, 2], 1)
    assert not is_canonical_extension(g, [0, 1], 3) or g.check_link(0, 3)


def test_extension_agrees_with_ordering_oracle():
    for trial in range(25):
        g = make_random_graph(900 + trial, 12, 14)
        subs = enumerate_connected_subsets(g.adj_sets, g.num_vertices, 4)
        rng = random.Random(trial)
        for s in subs[:40]:
            perm = list(s)
            rng.shuffle(perm)
            for cut in (2, 3):
                emb, v = perm[:cut], perm[cut]
                if not ordering_is_canonical(g, emb):
                    continue
                want = ordering_is_canonical(g, emb + [v])
                assert is_canonical_extension(g, emb, v) == want


def test_edge_extension_agrees_with_ordering_oracle():
    for trial in range(15):
        g = make_random_graph(950 + trial, 10, 8)
        subs = connected_edge_subsets(g, 3)
        rng = random.Random(trial)
        for s in subs[:40]:
            perm = list(s)
            rng.shuffle(perm)
            emb, e = perm[:2], perm[2]
            if not ordering_is_canonical_edges(g, emb):
                continue
            want = ordering_is_canonical_edges(g, emb + [e])
            assert is_canonical_edge_extension(g, emb, e) == want


# -- level-by-level expansion ------------------------------------------------

def test_demo_levels(demo_graph):
    s = vertex_store_to(demo_graph, 3)
    assert s.level(2).vert.tolist() == L2_VERT
    assert s.level(2).off.tolist() == L2_OFF
    assert s.level(3).vert.tolist() == L3_VERT
    assert s.level(3).off.tolist() == L3_OFF


def test_star_levels():
    # star 0-1, 0-2, 0-3: only <0,x> pairs and no canonical triple repeats
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    s = vertex_store_to(g, 3)
    assert s.level(2).vert.tolist() == [1, 2, 3]
    assert s.level(2).off.tolist() == [0, 3, 3, 3, 3]
    assert s.level(3).vert.tolist() == [2, 3, 3]
    assert s.level(3).off.tolist() == [0, 2, 3, 3]


def test_exactly_one_ordering_per_vertex_set():
    rng = random.Random(77)
    for trial in range(12):
        g = make_random_graph(1200 + trial, 9, 10)
        for k in (3, 4, 5):
            subs = enumerate_connected_subsets(g.adj_sets, g.num_vertices, k)
            pick = subs if len(subs) <= 30 else rng.sample(subs, 30)
            for sub in pick:
                wins = [p for p in itertools.permutations(sub)
                        if ordering_is_canonical(g, list(p))]
                assert len(wins) == 1, (sub, wins)


def test_exactly_one_ordering_per_edge_set():
    rng = random.Random(78)
    for trial in range(8):
        g = make_random_graph(1300 + trial, 8, 6)
        for k in (2, 3, 4):
            subs = connected_edge_subsets(g, k)
            pick = subs if len(subs) <= 25 else rng.sample(subs, 25)
            for sub in pick:
                wins = [p for p in itertools.permutations(sub)
                        if ordering_is_canonical_edges(g, list(p))]
                assert len(wins) == 1, (sub, wins)


def test_expansion_complete_and_duplicate_free():
    for trial in range(10):
        g = make_random_graph(1400 + trial, 11, 12)
        for k in (3, 4):
            s = vertex_store_to(g, k)
            got = sorted(tuple(sorted(s.extract(k, o)))
                         for o in range(s.top.count))
            want = sorted(enumerate_connected_subsets(
                g.adj_sets, g.num_vertices, k))
            assert got == want


def test_edge_expansion_complete_and_duplicate_free():
    for trial in range(8):
        g = make_random_graph(1500 + trial, 9, 7)
        for k in (2, 3):
            s = edge_store_to(g, k)
            got = sorted(tuple(sorted(s.extract(k, o)))
                         for o in range(s.top.count))
            want = connected_edge_subsets(g, k)
            assert got == want


def test_filter_false_empties_level(demo_graph):
    with Session(demo_graph, "vertex") as s:
        s.seed_vertices()
        s.explore(flt=lambda e, v: False)
    top = s.cse.top
    assert len(top.vert) == 0
    assert top.off.tolist() == [0] * 6


def test_alive_mask_prunes_parents(demo_graph):
    with Session(demo_graph, "vertex") as s:
        s.seed_vertices()
        s.explore()
        alive = np.zeros(7, dtype=bool)
        alive[0] = True  # only <0,1> expands
        s.explore(alive=alive)
    top = s.cse.top
    assert top.off.tolist()[:2] == [0, 2]
    assert int(top.off[-1]) == 2
    assert top.vert.tolist() == [2, 4]


# -- prediction ----------------------------------------------------------------

def test_predict_demo(demo_graph):
    # dense <0,1> is original <1,2>: candidates {3,5} original = {2,4} dense
    assert predict_candidate_size(demo_graph, [0, 1]) == 2
    assert predict_candidate_size(demo_graph, [4]) == 4
    assert predict_candidate_size(demo_graph, [0, 1, 2, 3, 4]) == 0


def test_predict_equals_brute_union():
    for trial in range(10):
        g = make_random_graph(1600 + trial, 12, 15)
        subs = enumerate_connected_subsets(g.adj_sets, g.num_vertices, 3)
        for s in subs[:50]:
            union = set()
            for u in s:
                union |= g.adj_sets[u]
            union -= set(s)
            assert predict_candidate_size(g, list(s)) == len(union)


def test_predict_streamed_matches_brute(demo_graph):
    g = demo_graph
    s = vertex_store_to(g, 3)
    pred = s.level(3).pred
    for o in range(s.level(3).count):
        emb = list(s.extract(3, o))
        assert pred[o] == predict_candidate_size(g, emb)


def test_predict_streamed_matches_brute_edges():
    graphs = [(make_random_graph(1700 + trial, 9, 7), (3,)) for trial in range(6)]
    # a hub touches most edges, so most candidates have one endpoint
    # already in the embedding and one new
    hub = [(0, v) for v in range(1, 12)] + [(1, 2), (2, 3), (3, 12), (12, 13),
                                            (5, 13), (7, 8), (9, 14)]
    graphs.append((Graph.from_edges(hub), (2, 3, 4)))
    for g, levels in graphs:
        for li in levels:
            s = edge_store_to(g, li)
            pred = s.level(li).pred
            for o in range(s.level(li).count):
                emb = list(s.extract(li, o))
                assert pred[o] == predict_candidate_size_edges(g, emb)


def test_seed_preds(demo_graph):
    assert vertex_seed_preds(demo_graph).tolist() == [2, 3, 3, 2, 4]
    ep = edge_seed_preds(demo_graph)
    u, v = demo_graph.edge_endpoints(0)
    assert ep[0] == demo_graph.degree(u) + demo_graph.degree(v) - 2


# -- partitioning ----------------------------------------------------------------

def test_partition_bound_holds():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 60)
        w = [rng.randrange(0, 50) for _ in range(n)]
        t = rng.choice([1, 2, 3, 8])
        cuts = partition_by_weight(w, t)
        assert cuts[0] == 0 and cuts[-1] == n
        assert (np.diff(cuts) >= 0).all()
        total = sum(w)
        wmax = max(w) if w else 0
        for j in range(t):
            part = sum(w[cuts[j]:cuts[j + 1]])
            assert part <= total / t + wmax


def test_partition_zero_and_empty():
    assert partition_by_weight([], 4).tolist() == [0] * 5
    cuts = partition_by_weight([0, 0, 0], 2)
    assert cuts[-1] == 3  # zero-weight tail still assigned
    assert uniform_ranges(10, 3).tolist() == [0, 3, 6, 10]


def level_arrays(lvl):
    """(vert, off, pred) of a level as lists, read back from its part
    files when it is spilled; only the top level keeps its pred."""
    pred = None if lvl.pred is None else lvl.pred.tolist()
    if lvl.residency == "mem":
        return lvl.vert.tolist(), lvl.off.tolist(), pred
    vert, off = [], [0]
    for p in lvl.parts:
        v, o, _ = read_part(p.path, np.int32)
        vert += v.tolist()
        off += o[1:].tolist()
    return vert, off, pred


def test_worker_counts_agree(tmp_path):
    for trial in range(6):
        g = make_random_graph(1800 + trial, 30, 45)
        base = None
        for w in (1, 2, 8):
            s = vertex_store_to(g, 4, workers=w)
            sig = (s.level(4).vert.tolist(), s.level(4).off.tolist(),
                   s.level(4).pred.tolist())
            if base is None:
                base = sig
            else:
                assert sig == base
    for trial in range(4):
        g = make_random_graph(1850 + trial, 14, 16)
        with Session(g, "edge") as s:
            s.seed_edges()
            for _ in range(3):
                s.explore()
        want = [level_arrays(s.cse.level(li)) for li in (2, 3, 4)]
        for w in (2, 3):
            cse = edge_store_to(g, 4, workers=w)
            assert [level_arrays(cse.level(li)) for li in (2, 3, 4)] == want
        # half the peak puts levels 3 and 4 on disk: level 4 is explored
        # from a spilled top through a window chain
        cse = edge_store_to(g, 4, workers=2,
                            memory_budget=s.metrics["peak_resident_estimate"] // 2,
                            spill_dir=str(tmp_path / str(trial)), parts_per_level=3)
        assert [l.residency for l in cse.levels] == ["mem", "mem", "disk", "disk"]
        assert [level_arrays(cse.level(li)) for li in (2, 3, 4)] == want
