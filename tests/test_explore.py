import itertools
import random

import numpy as np
import pytest

from gmine import explore
from gmine.explore import (CLIQUE, edge_seed_preds, partition_by_weight,
                           uniform_ranges)
from gmine.graph import Graph
from gmine.mining import Session
from gmine.spill import read_part

from conftest import make_random_graph
from oracles import (check_link, connected_edge_subsets,
                     enumerate_connected_subsets, extract, gather_volume,
                     gather_volume_edges, is_canonical_edge_extension,
                     is_canonical_extension, is_connected_subset, iter_embeddings,
                     level_slices, ordering_is_canonical, ordering_is_canonical_edges,
                     predict_candidate_size, predict_candidate_size_edges,
                     random_connected_edges, reference_expand, whole_arrays)
from test_store import L2_OFF, L2_VERT, L3_OFF, L3_VERT


def vertex_store_to(g, k, workers=1, parts_per_level=None):
    with Session(g, workers=workers, parts_per_level=parts_per_level) as s:
        s.seed_vertices()
        for _ in range(2, k + 1):
            s.explore()
    return s.cse


def edge_store_to(g, k, workers=1, **kw):
    with Session(g, workers=workers, **kw) as s:
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
    assert not is_canonical_extension(g, [0, 1], 3) or check_link(g, 0, 3)


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
    assert [a.tolist() for a in whole_arrays(s.level(2))] == [L2_VERT, L2_OFF]
    assert [a.tolist() for a in whole_arrays(s.level(3))] == [L3_VERT, L3_OFF]


def test_star_levels():
    # star 0-1, 0-2, 0-3: only <0,x> pairs and no canonical triple repeats
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    s = vertex_store_to(g, 3)
    assert [a.tolist() for a in whole_arrays(s.level(2))] == [[1, 2, 3], [0, 3, 3, 3, 3]]
    assert [a.tolist() for a in whole_arrays(s.level(3))] == [[2, 3, 3], [0, 2, 3, 3]]


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
            got = sorted(tuple(sorted(extract(s, k, o)))
                         for o in range(s.top.count))
            want = sorted(enumerate_connected_subsets(
                g.adj_sets, g.num_vertices, k))
            assert got == want


def test_edge_expansion_complete_and_duplicate_free():
    for trial in range(8):
        g = make_random_graph(1500 + trial, 9, 7)
        for k in (2, 3):
            s = edge_store_to(g, k)
            got = sorted(tuple(sorted(extract(s, k, o)))
                         for o in range(s.top.count))
            want = connected_edge_subsets(g, k)
            assert got == want


def test_filter_false_empties_level(demo_graph):
    with Session(demo_graph) as s:
        s.seed_vertices()
        s.explore(flt=np.zeros(demo_graph.num_vertices, dtype=bool))
    vert, off = whole_arrays(s.cse.top)
    assert len(vert) == 0
    assert off.tolist() == [0] * 6


def test_alive_mask_prunes_parents(demo_graph):
    with Session(demo_graph) as s:
        s.seed_vertices()
        s.explore()
        alive = np.zeros(7, dtype=bool)
        alive[0] = True  # only <0,1> expands
        s.explore(alive=alive)
    vert, off = whole_arrays(s.cse.top)
    assert off.tolist()[:2] == [0, 2]
    assert int(off[-1]) == 2
    assert vert.tolist() == [2, 4]


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
    # a prediction is the gather volume, which bounds the distinct
    # candidates, which bound the children
    g = demo_graph
    s = vertex_store_to(g, 3)
    pred = s.level(3).pred
    children = np.diff(whole_arrays(vertex_store_to(g, 4).level(4))[1])
    for o in range(s.level(3).count):
        emb = list(extract(s, 3, o))
        assert pred[o] == gather_volume(g, emb)
        assert children[o] <= predict_candidate_size(g, emb) <= pred[o]


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
            children = np.diff(whole_arrays(edge_store_to(g, li + 1).level(li + 1))[1])
            for o in range(s.level(li).count):
                emb = list(extract(s, li, o))
                assert pred[o] == gather_volume_edges(g, emb)
                assert children[o] <= predict_candidate_size_edges(g, emb) <= pred[o]


def test_seed_preds(demo_graph):
    with Session(demo_graph) as s:
        s.seed_vertices()
        assert s.cse.top.pred.tolist() == [gather_volume(demo_graph, [v])
                                           for v in range(demo_graph.num_vertices)]
    assert edge_seed_preds(demo_graph).tolist() == [
        gather_volume_edges(demo_graph, [e]) for e in range(demo_graph.num_edges)]


def test_explore_checks_its_level_against_the_charged_bound(demo_graph):
    # the plan charges the alive parents' summed predictions; a level
    # with more embeddings raises instead of passing as planned
    with Session(demo_graph) as s:
        s.seed_vertices()
        s.explore()
        s.cse.top.pred[:] = 1
        with pytest.raises(AssertionError, match="more than the 7 its plan charged"):
            s.explore()
    with Session(demo_graph) as s:
        s.seed_vertices()
        s.explore(want_pred=False)
        with pytest.raises(ValueError, match="no predictions"):
            s.explore()


def test_predictions_raise_before_they_overflow_int32(demo_graph, monkeypatch):
    big = np.array([3, explore.PRED_MAX + 1], dtype=np.int64)
    with pytest.raises(OverflowError, match="does not fit an int32"):
        explore.pred32(big)
    assert explore.pred32(big - 1).tolist() == [2, explore.PRED_MAX]
    # demo degrees are at most 4, and a 2-embedding sums two of them
    monkeypatch.setattr(explore, "PRED_MAX", 4)
    with Session(demo_graph) as s:
        s.seed_vertices()
        with pytest.raises(OverflowError, match="does not fit an int32"):
            s.explore()
    with pytest.raises(OverflowError):
        edge_seed_preds(demo_graph)


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
        return tuple(a.tolist() for a in whole_arrays(lvl)) + (pred,)
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
            sig = level_arrays(vertex_store_to(g, 4, workers=w).level(4))
            if base is None:
                base = sig
            else:
                assert sig == base
    for trial in range(4):
        g = make_random_graph(1850 + trial, 14, 16)
        with Session(g) as s:
            s.seed_edges()
            for _ in range(3):
                s.explore()
        want = [level_arrays(s.cse.level(li)) for li in (2, 3, 4)]
        for w in (2, 3):
            cse = edge_store_to(g, 4, workers=w)
            assert [level_arrays(cse.level(li)) for li in (2, 3, 4)] == want
        # half the peak puts levels 3 and 4 on disk: level 4 is explored
        # from a spilled top through a window chain (with 3 parts, two
        # part files of level 3, headers and offsets included, cost more
        # than half the peak leaves)
        cse = edge_store_to(g, 4, workers=2,
                            memory_budget=s.metrics["peak_resident_estimate"] // 2,
                            spill_dir=str(tmp_path / str(trial)), parts_per_level=4)
        assert [l.residency for l in cse.levels] == ["mem", "mem", "disk", "disk"]
        assert [level_arrays(cse.level(li)) for li in (2, 3, 4)] == want


# -- the array kernel against the reference expander ----------------------------

def reference_filter(g, flt):
    """The per-candidate callback form of an explore filter."""
    if flt is None:
        return None
    if flt is CLIQUE:
        sets = g.adj_sets
        return lambda emb, v: all(v in sets[u] for u in emb)
    return lambda emb, v: bool(flt[v])


def explore_checked(g, mode, depth, flt=None, alive_p=None, seed=0, **kw):
    """Grow a store to depth, each explore with flt and (if alive_p is
    set) a random alive mask; while the store is resident, check each new
    level's vert/off/pred against reference_expand. Returns each new
    top's (vert, off, pred) and the session metrics."""
    rng = np.random.default_rng(seed)
    candidates = (predict_candidate_size if mode == "vertex"
                  else predict_candidate_size_edges)
    tops = []
    with Session(g, **kw) as s:
        s.seed_vertices() if mode == "vertex" else s.seed_edges()
        for size in range(2, depth + 1):
            top = s.cse.top
            alive = None if alive_p is None else rng.random(top.count) < alive_p
            want_pred = size < depth
            resident = all(l.residency == "mem" for l in s.cse.levels)
            if resident:
                slices = level_slices(s.cse)
                want = reference_expand(g, mode, slices, 0, top.count,
                                        reference_filter(g, flt), alive, want_pred,
                                        clique=flt is CLIQUE)
                top_pred = top.pred.tolist()
            s.explore(flt, alive, want_pred)
            got = level_arrays(s.cse.top)
            if resident:
                vert, counts, pred = want
                assert got[0] == vert.tolist()
                assert got[1] == [0] + np.cumsum(counts).tolist()
                # an empty parent level maps no ranges and keeps no pred
                assert (got[2] or []) == (pred.tolist() if want_pred else [])
                for o, emb in iter_embeddings(slices, 0, top.count):
                    if flt is CLIQUE:  # a prediction is the newest member's list
                        assert counts[o] <= candidates(g, emb)
                        assert counts[o] <= top_pred[o]
                    else:
                        assert counts[o] <= candidates(g, emb) <= top_pred[o]
            tops.append(got)
    return tops, s.metrics


def kernel_cases(trial):
    """(graph, mode, depth, filter, alive share): parents of 1..5 ids in
    both modes, with id masks, the clique rule and alive masks."""
    g = make_random_graph(3300 + trial, 13, 10 + trial)
    dense = make_random_graph(3350 + trial, 11, 26)
    rng = np.random.default_rng(trial)
    vmask = rng.random(g.num_vertices) < 0.9
    emask = rng.random(g.num_edges) < 0.8
    return [(g, "vertex", 6, None, None), (g, "vertex", 6, vmask, 0.9),
            (dense, "vertex", 6, CLIQUE, None), (dense, "vertex", 5, CLIQUE, 0.9),
            (g, "edge", 6, None, 0.8), (g, "edge", 5, emask, None)]


def gapped_graph(trial):
    """A random graph on 20 vertices of which 0, 2, 3, 5 and 19 are
    isolated (each written as a self-loop): in blocks of 3 parents, level
    1's empty CSR slices sit at both edges of the first two blocks, and
    at the end of the whole range."""
    rng = random.Random(3380 + trial)
    isolated = [0, 2, 3, 5, 19]
    rest = [v for v in range(20) if v not in isolated]
    edges = [(rest[a], rest[b]) for a, b in random_connected_edges(rng, len(rest), 6)]
    return Graph.from_edges(edges + [(v, v) for v in isolated])


def layout_cases(trial):
    """Kernel cases at the edges of the key layout: id counts of 16 (the
    largest id fills its field) and of 2, and empty CSR slices at chunk
    edges. Too small for a spill plan, so only checked resident."""
    v16 = make_random_graph(3360 + trial, 16, 9)
    e16 = make_random_graph(3370 + trial, 12, 5)
    assert v16.num_vertices == 16 and e16.num_edges == 16
    gap = gapped_graph(trial)
    return [(v16, "vertex", 5, None, None), (e16, "edge", 4, None, None),
            (Graph.from_edges([(0, 1)]), "vertex", 3, None, None),
            (Graph.from_edges([(0, 1), (1, 2)]), "edge", 3, None, None),
            (gap, "vertex", 5, None, None), (gap, "vertex", 4, CLIQUE, 0.9)]


def fold_checked(g, depth, flt=None, alive_p=None, seed=0):
    """Grow a vertex store to depth as explore_checked does, first folding
    each top instead of storing its children: the fold's (parent, child,
    mask) records must list the reference's children in order, each mask
    the OR of 1 << i over the members i adjacent to the child, and the
    range must return their count."""
    rng = np.random.default_rng(seed)
    sets = g.adj_sets
    with Session(g) as s:
        s.seed_vertices()
        for _ in range(2, depth + 1):
            top = s.cse.top
            alive = None if alive_p is None else rng.random(top.count) < alive_p
            slices = level_slices(s.cse)
            got = []

            def fold(emb, cp, cv, masks):
                got.extend(zip(map(tuple, emb.T[cp].tolist()), cv.tolist(), masks().tolist()))

            ctx = dict(s.ctx, slices=slices, filter=flt, alive=alive, fold=fold)
            folded = explore.expand_vertex_range((0, top.count), ctx)
            vert, counts, _ = reference_expand(g, "vertex", slices, 0, top.count,
                                               reference_filter(g, flt), alive, False)
            assert folded == len(vert)
            want, j = [], 0
            for o, emb in iter_embeddings(slices, 0, top.count):
                for v in vert[j:j + counts[o]].tolist():
                    want.append((tuple(emb), v,
                                 sum(1 << i for i, u in enumerate(emb) if v in sets[u])))
                j += counts[o]
            assert got == want
            s.explore(flt, alive)


@pytest.mark.parametrize("gather, block", [(explore.GATHER, explore.BLOCK),
                                           (1 << 13, 1 << 13),
                                           (1, explore.BLOCK), (7, 3)])
def test_kernel_matches_reference_expander(monkeypatch, gather, block):
    # the module's sizes, and a gather as large as the block (the sizes
    # before GATHER grew to 2^14); gather 1: every parent and child is
    # heavier than a gather and runs alone; gather 7 over blocks of 3
    # parents cuts inside each block, so chunk cuts fall next to the key
    # runs a fold sums its masks over
    monkeypatch.setattr(explore, "GATHER", gather)
    monkeypatch.setattr(explore, "BLOCK", block)
    for trial in range(2):
        cases = kernel_cases(trial) + layout_cases(trial)
        for i, (g, mode, depth, flt, alive_p) in enumerate(cases):
            explore_checked(g, mode, depth, flt, alive_p, seed=i)
            if mode == "vertex":
                fold_checked(g, depth, flt, alive_p, seed=i)


def test_kernel_worker_and_budget_invariance(tmp_path):
    for i, (g, mode, depth, flt, alive_p) in enumerate(kernel_cases(2)):
        base, m = explore_checked(g, mode, depth, flt, alive_p, seed=i)
        two, _ = explore_checked(g, mode, depth, flt, alive_p, seed=i, workers=2)
        assert two == base
        # two part files per spilled level, headers and offsets included,
        # put the smallest feasible plan of the clique cases at 57-58%
        budget = m["peak_resident_estimate"] * 5 // 8
        spilled, sm = explore_checked(g, mode, depth, flt, alive_p, seed=i, workers=2,
                                      memory_budget=budget, parts_per_level=3,
                                      spill_dir=str(tmp_path / str(i)))
        assert sm["bytes_spilled"] > 0
        assert spilled == base


def test_clique_level_over_unfiltered_levels():
    # levels explored without a filter hold embeddings whose newest
    # member is not their largest (a path v1-v2-v3 with v1 < v3 < v2
    # attaches v3 at v2 only), so the clique rule must compare each
    # candidate with the largest member, stored and folded alike
    for trial in range(3):
        g = make_random_graph(3390 + trial, 12, 30)
        rule = reference_filter(g, CLIQUE)
        for depth in (3, 4):
            with Session(g) as s:
                s.seed_vertices()
                for _ in range(2, depth + 1):
                    s.explore()
                top = s.cse.top
                slices = level_slices(s.cse)
                assert any(e[-1] < max(e) for _, e in iter_embeddings(slices, 0, top.count))
                vert, counts, pred = reference_expand(g, "vertex", slices, 0, top.count,
                                                      rule, clique=True)
                folded = []
                ctx = dict(s.ctx, slices=slices, filter=CLIQUE,
                           fold=lambda emb, cp, cv, masks: folded.extend(
                               zip(cv.tolist(), masks().tolist())))
                assert explore.expand_vertex_range((0, top.count), ctx) == len(vert)
                assert folded == [(v, (1 << depth) - 1) for v in vert.tolist()]
                s.explore(CLIQUE)
                assert level_arrays(s.cse.top) == (
                    vert.tolist(), [0] + np.cumsum(counts).tolist(), pred.tolist())
            assert len(vert), (trial, depth)


def test_kernel_checks_key_packing(monkeypatch):
    g = Graph.from_edges([(v, v + 1) for v in range(10)])
    with Session(g) as s:
        s.seed_vertices()
        for _ in range(8):
            s.explore()
        with pytest.raises(ValueError, match="3 bits"):
            s.explore()  # a 10th id would attach at index 8
    # 11 ids take 4 bits and the attach 3, so parent << 7 must stay below
    # 2^63: 2^56 parents per block fit exactly, one more does not (the
    # block only bounds the loop; arrays follow the range)
    want = level_arrays(vertex_store_to(g, 3).level(3))
    monkeypatch.setattr(explore, "BLOCK", 1 << 56)
    assert level_arrays(vertex_store_to(g, 3).level(3)) == want
    monkeypatch.setattr(explore, "BLOCK", (1 << 56) + 1)
    with Session(g) as s:
        s.seed_vertices()
        with pytest.raises(OverflowError, match="int64"):
            s.explore()
