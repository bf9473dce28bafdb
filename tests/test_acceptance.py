"""End-to-end acceptance gate: eleven numbered checks, one test each.

Each test asserts its stated tolerance exactly and prints one summary
line (visible with -s). The two large synthetic graphs and the
exhaustive small-graph class catalogs are session-scoped so they are
built once.
"""

import itertools
import os
import random
import time

import numpy as np
import pytest

from gmine import runtime
from gmine.explore import partition_by_weight
from gmine.fingerprint import (PAIR_BIT, PatternHasher, char_polynomial,
                               degrees_from_bits, weighted_matrix)
from gmine.graph import Graph
from gmine.mining import (Session, clique_discovery, fsm, motif_count,
                          result_lines, triangle_count)

from conftest import DEMO_EDGES, make_random_graph
from oracles import (bits_from_pairs, brute_cliques, brute_triangles,
                     classify_triple, cofactor_charpoly, edge_endpoints,
                     enumerate_connected_subsets, incident_edges,
                     is_canonical_edge_extension, is_canonical_extension,
                     iso_oracle, min_perm_form,
                     ordering_is_canonical, ordering_is_canonical_edges,
                     subgraph_form, write_result)


def _rows(k, bits):
    """0/1 adjacency rows for a k-vertex bitmap, the oracles' format."""
    tab = PAIR_BIT[k]
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if bits >> tab[i][j] & 1:
                rows[i][j] = rows[j][i] = 1
    return tuple(tuple(r) for r in rows)


# -- shared inputs ------------------------------------------------------------

@pytest.fixture(scope="session")
def corpus():
    """200 random connected graphs with 8..30 vertices."""
    graphs = []
    for i in range(200):
        n = 8 + (i * 7) % 23
        extra = (i * 5) % 14
        graphs.append(make_random_graph(5000 + i, n, extra))
    return graphs


@pytest.fixture(scope="session")
def dense_graph():
    """105k-edge labeled graph, mean degree 7: deep enough levels that
    tight budgets genuinely force spilling."""
    return make_random_graph(777, 30000, 75001, n_labels=5)


@pytest.fixture(scope="session")
def sparse_graph():
    """105k-edge unlabeled graph, mean degree 3.5: fast full 4-level
    exploration for the partitioning and worker checks."""
    return make_random_graph(4242, 60000, 45001)


# connected graphs on 1..7 vertices (OEIS A001349)
KNOWN_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.fixture(scope="session")
def unlabeled_classes():
    """All connected unlabeled graphs on 1..7 vertices as canonical
    patterns, built by single-vertex augmentation.

    Every connected graph has a vertex whose removal leaves it
    connected, so attaching a new vertex to each representative by
    every nonempty neighbor subset reaches every class one size up.
    Returns (levels, candidates): levels[n] maps canonical bitmap to
    the pattern, candidates[n] lists every (raw bitmap, pattern) pair
    produced on the way, for oracle cross-checks.
    """
    hasher = PatternHasher(2)
    levels = {1: {0: hasher.classify((0,), 0).pattern}}
    candidates = {}
    for n in range(2, 8):
        tab = PAIR_BIT[n - 1]
        found = {}
        cand = []
        for prev in levels[n - 1].values():
            base = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)
                    if prev.bits >> tab[i][j] & 1]
            for mask in range(1, 1 << (n - 1)):
                pairs = base + [(i, n - 1) for i in range(n - 1)
                                if mask >> i & 1]
                bits = bits_from_pairs(n, pairs)
                pat = hasher.classify((0,) * n, bits).pattern
                found[pat.bits] = pat
                cand.append((bits, pat))
        levels[n] = found
        candidates[n] = cand
    return levels, candidates


@pytest.fixture(scope="session")
def labeled_classes():
    """Connected graphs on 1..5 vertices with labels in {0, 1}, same
    augmentation scheme with the new vertex's label enumerated too.
    Candidates carry (labels, raw bitmap, pattern)."""
    hasher = PatternHasher(3)
    levels = {1: {}}
    for lab in (0, 1):
        pat = hasher.classify((lab,), 0).pattern
        levels[1][(pat.labels, pat.bits)] = pat
    candidates = {}
    for n in range(2, 6):
        tab = PAIR_BIT[n - 1]
        found = {}
        cand = []
        for prev in levels[n - 1].values():
            base = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)
                    if prev.bits >> tab[i][j] & 1]
            for lab in (0, 1):
                labels = prev.labels + (lab,)
                for mask in range(1, 1 << (n - 1)):
                    pairs = base + [(i, n - 1) for i in range(n - 1)
                                    if mask >> i & 1]
                    bits = bits_from_pairs(n, pairs)
                    pat = hasher.classify(labels, bits).pattern
                    found[(pat.labels, pat.bits)] = pat
                    cand.append((labels, bits, pat))
        levels[n] = found
        candidates[n] = cand
    return levels, candidates


# -- checks -------------------------------------------------------------------

def test_01_worked_example():
    """The hand-checkable 5-vertex, 7-edge graph: 5 chains and 3
    triangles among 3-motifs, 3 triangles, 3 3-cliques, all inside 1s."""
    g = Graph.from_edges(DEMO_EDGES)
    t0 = time.perf_counter()
    items, _ = motif_count(g, 3)
    by_deg = {tuple(p.degrees): c for p, c in items.values()}
    tri, _ = triangle_count(g)
    clq, _ = clique_discovery(g, 3)
    took = time.perf_counter() - t0
    assert by_deg == {(1, 1, 2): 5, (2, 2, 2): 3}
    assert tri == 3
    assert clq == 3
    assert took < 1.0
    print("[check 1] chains=5 triangles=3 cliques=3 in %.3fs" % took)


class IsoCensus:
    """Classifies adjacency rows into isomorphism classes using only the
    backtracking oracle, caching by the raw rows."""

    def __init__(self):
        self.reps = []
        self.by_rows = {}

    def classify_rows(self, rows):
        idx = self.by_rows.get(rows)
        if idx is None:
            k = len(rows)
            zeros = (0,) * k
            for i, (rl, rr) in enumerate(self.reps):
                if len(rl) == k and iso_oracle(zeros, rows, rl, rr):
                    idx = i
                    break
            else:
                idx = len(self.reps)
                self.reps.append((zeros, rows))
            self.by_rows[rows] = idx
        return idx


def test_02_motif_census_matches_oracle(corpus):
    """motif_count equals a brute enumeration of connected induced
    k-subsets classified by the backtracking isomorphism oracle."""
    assert len(corpus) == 200
    census = IsoCensus()
    checked = 0
    for g in corpus:
        assert g.num_vertices <= 30
        for k in (3, 4, 5):
            items, _ = motif_count(g, k)
            mine = {}
            for pat, cnt in items.values():
                rid = census.classify_rows(_rows(pat.k, pat.bits))
                assert rid not in mine, "two patterns in one iso class"
                mine[rid] = cnt
            want = {}
            for sub in enumerate_connected_subsets(g.adj_sets,
                                                   g.num_vertices, k):
                _, rows = subgraph_form(g, sub)
                rid = census.classify_rows(rows)
                want[rid] = want.get(rid, 0) + 1
            assert mine == want
            checked += 1
    print("[check 2] %d (graph, k) censuses matched, %d iso classes seen"
          % (checked, len(census.reps)))


def test_03_clique_and_triangle_counts_match_brute_force(corpus):
    for g in corpus:
        tri, _ = triangle_count(g)
        assert tri == brute_triangles(g)
        for k in (3, 4, 5):
            got, _ = clique_discovery(g, k)
            assert got == brute_cliques(g, k)
    print("[check 3] cliques k=3..5 and triangles exact on %d graphs"
          % len(corpus))


def _chain_ok(g, order):
    emb = [order[0]]
    for v in order[1:]:
        if not is_canonical_extension(g, emb, v):
            return False
        emb.append(v)
    return True


def _edge_chain_ok(g, order):
    emb = [order[0]]
    for e in order[1:]:
        if not is_canonical_edge_extension(g, emb, e):
            return False
        emb.append(e)
    return True


def _grow_vertex_set(g, rng, k):
    v0 = rng.randrange(g.num_vertices)
    chosen = {v0}
    frontier = set(g.adj_sets[v0])
    while len(chosen) < k:
        frontier -= chosen
        if not frontier:
            return None
        v = rng.choice(sorted(frontier))
        chosen.add(v)
        frontier |= g.adj_sets[v]
    return tuple(sorted(chosen))


def _grow_edge_set(g, rng, k):
    e0 = rng.randrange(g.num_edges)
    chosen = {e0}
    verts = set(edge_endpoints(g, e0))
    while len(chosen) < k:
        cand = set()
        for v in verts:
            cand.update(incident_edges(g, v).tolist())
        cand -= chosen
        if not cand:
            return None
        e = rng.choice(sorted(cand))
        chosen.add(e)
        verts |= set(edge_endpoints(g, e))
    return tuple(sorted(chosen))


def test_04_exactly_one_ordering_per_subgraph(corpus):
    """Exhaustively over permutations of random connected sets, exactly
    one ordering is accepted, and the incremental extension test agrees
    with the direct rule check on every permutation."""
    rng = random.Random(20260814)
    v_sets = 0
    for g in corpus[:30]:
        for k, reps in ((2, 3), (3, 4), (4, 4), (5, 4), (6, 3), (7, 2)):
            seen = set()
            for _ in range(reps):
                s = _grow_vertex_set(g, rng, k)
                if s is None or s in seen:
                    continue
                seen.add(s)
                wins = 0
                for perm in itertools.permutations(s):
                    got = _chain_ok(g, perm)
                    assert got == ordering_is_canonical(g, list(perm))
                    wins += got
                assert wins == 1, ("vertex set", s, wins)
                v_sets += 1
    e_sets = 0
    for g in corpus[:30]:
        for k, reps in ((2, 3), (3, 3), (4, 3), (5, 2)):
            seen = set()
            for _ in range(reps):
                s = _grow_edge_set(g, rng, k)
                if s is None or s in seen:
                    continue
                seen.add(s)
                wins = 0
                for perm in itertools.permutations(s):
                    got = _edge_chain_ok(g, perm)
                    assert got == ordering_is_canonical_edges(g, list(perm))
                    wins += got
                assert wins == 1, ("edge set", s, wins)
                e_sets += 1
    assert v_sets >= 500 and e_sets >= 300
    print("[check 4] unique ordering on %d vertex sets (size<=7) and "
          "%d edge sets (size<=5)" % (v_sets, e_sets))


def test_05_hash_triple_invariant_under_relabeling():
    """100000 random (embedding, shuffled copy) pairs, sizes 2..8 and up
    to 4 labels, produce identical sorted-label/degree/polynomial
    triples."""
    sizes = ([2] * 5 + [3] * 15 + [4] * 22 + [5] * 22 +
             [6] * 16 + [7] * 12 + [8] * 8)
    rng = random.Random(97531)
    pairs = 0
    for i in range(100000):
        k = sizes[i % 100]
        edges = {(rng.randrange(v), v) for v in range(1, k)}
        for _ in range(rng.randrange(k)):
            a, b = rng.randrange(k), rng.randrange(k)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        bits = bits_from_pairs(k, edges)
        nlab = rng.choice((1, 2, 3, 4))
        labels = tuple(rng.randrange(nlab) for _ in range(k))
        t1 = classify_triple(labels, degrees_from_bits(k, bits), bits, 6)
        perm = list(range(k))
        rng.shuffle(perm)
        p_edges = [(min(perm[a], perm[b]), max(perm[a], perm[b]))
                   for a, b in edges]
        p_labels = [0] * k
        for old, new in enumerate(perm):
            p_labels[new] = labels[old]
        p_bits = bits_from_pairs(k, p_edges)
        t2 = classify_triple(tuple(p_labels), degrees_from_bits(k, p_bits),
                             p_bits, 6)
        assert t1 == t2, (k, labels, sorted(edges), perm)
        pairs += 1
    assert pairs == 100000
    print("[check 5] %d relabeling pairs hashed identically" % pairs)


def test_06_hash_triple_separates_all_small_classes(unlabeled_classes,
                                                    labeled_classes):
    """Over every connected graph class on <=7 vertices (and <=5 with 2
    labels): equal triple implies isomorphic, non-isomorphic implies
    unequal triple, and the known 6-vertex equal-polynomial pair is
    split by the degree component."""
    levels, candidates = unlabeled_classes
    for n, want in KNOWN_CLASS_COUNTS.items():
        assert len(levels[n]) == want, (n, len(levels[n]))
    zeros = {n: (0,) * n for n in range(1, 8)}
    for n, cand in candidates.items():
        for bits, pat in cand:
            assert iso_oracle(zeros[n], _rows(n, bits),
                              zeros[n], _rows(n, pat.bits))
    # representatives pairwise non-isomorphic: explicit up to 6 vertices,
    # forced at 7 by the class count plus the candidate checks above
    for n in range(2, 7):
        pats = list(levels[n].values())
        for i in range(len(pats)):
            ri = _rows(n, pats[i].bits)
            for j in range(i + 1, len(pats)):
                assert not iso_oracle(zeros[n], ri,
                                      zeros[n], _rows(n, pats[j].bits))
    triples = {}
    for n in range(1, 8):
        for pat in levels[n].values():
            t = classify_triple(pat.labels, pat.degrees, pat.bits, 2)
            assert t not in triples, (pat, triples[t])
            triples[t] = pat
    by_poly = {}
    for pat in levels[6].values():
        t = classify_triple(pat.labels, pat.degrees, pat.bits, 2)
        by_poly.setdefault(t[2], []).append((pat, t))
    twins = [grp for grp in by_poly.values() if len(grp) > 1]
    assert twins, "no equal-polynomial pair among 6-vertex classes"
    for grp in twins:
        degs = [t[1] for _, t in grp]
        assert len(set(degs)) == len(degs), "polynomial twins share degrees"
    a, b = twins[0][0][0], twins[0][1][0]
    assert not iso_oracle(a.labels, _rows(6, a.bits),
                          b.labels, _rows(6, b.bits))

    lab_levels, lab_candidates = labeled_classes
    assert len(lab_levels[1]) == 2
    assert len(lab_levels[2]) == 3
    assert len(lab_levels[3]) == 10
    pat_to_form = {}
    form_to_pat = {}
    for n, cand in lab_candidates.items():
        for labels, bits, pat in cand:
            assert iso_oracle(labels, _rows(n, bits),
                              pat.labels, _rows(n, pat.bits))
            form = min_perm_form(labels, _rows(n, bits))
            key = (pat.labels, pat.bits)
            pat_to_form.setdefault(key, set()).add(form)
            form_to_pat.setdefault(form, set()).add(key)
    assert all(len(s) == 1 for s in pat_to_form.values())
    assert all(len(s) == 1 for s in form_to_pat.values())
    lab_triples = set()
    lab_total = 0
    for n, found in lab_levels.items():
        for pat in found.values():
            t = classify_triple(pat.labels, pat.degrees, pat.bits, 3)
            assert t not in lab_triples
            lab_triples.add(t)
            lab_total += 1
    print("[check 6] %d unlabeled + %d labeled classes, all triples "
          "distinct; 6-vertex polynomial twins split by degrees: %s vs %s"
          % (sum(KNOWN_CLASS_COUNTS.values()), lab_total,
             a.serialize(), b.serialize()))


def test_07_charpoly_matches_cofactor_expansion(unlabeled_classes,
                                                labeled_classes):
    """The trace-based polynomial equals cofactor-expansion det(xI - M)
    on every class matrix; the exactness of each internal division is
    asserted inside the implementation."""
    checked = 0
    for levels, base in ((unlabeled_classes[0], 2), (labeled_classes[0], 3)):
        for found in levels.values():
            for pat in found.values():
                m = weighted_matrix(pat.labels, pat.bits, base)
                assert tuple(char_polynomial(m)) == tuple(cofactor_charpoly(m))
                checked += 1
    assert checked >= 996
    print("[check 7] %d weighted matrices, coefficients identical" % checked)


def test_08_level_counts_on_reference_dataset(corpus):
    """The published citation graph is not bundled, so per the stated
    fallback: verify unfiltered level counts 1..5 against brute subset
    enumeration on corpus graphs, then mark skipped."""
    checked = 0
    for g in corpus[:25]:
        s = Session(g)
        s.seed_vertices()
        for size in range(2, 6):
            s.explore(want_pred=size < 5)
        for k in range(1, 6):
            want = len(enumerate_connected_subsets(g.adj_sets,
                                                   g.num_vertices, k))
            assert s.cse.level(k).count == want, (checked, k)
        checked += 1
    pytest.skip("reference dataset not bundled; level counts 1..5 verified "
                "against subset enumeration on %d substitute graphs" % checked)


def test_09_spill_transparency_and_overhead(dense_graph, tmp_path):
    """4-motif and 3-edge frequent mining on a 105k-edge graph: two
    budgets below the observed unlimited peak must spill, produce
    byte-identical result files, and the tighter run stays within 2x
    the unlimited wall time. FSM runs at 50% and 25% of the peak. The
    motif census never stores level 4, so level 3 and its predictions
    are most of its peak, and its folding phase needs those predictions
    resident: it runs at 75% and 62.5%, above its floor of about 51%."""
    g = dense_graph
    assert g.num_edges >= 100000
    report = []
    for app, fracs, run in (
            ("4-motif", ((3, 4), (5, 8)), lambda b, d: motif_count(
                g, 4, memory_budget=b, spill_dir=d, parts_per_level=8)),
            ("3-fsm", ((1, 2), (1, 4)), lambda b, d: fsm(
                g, 3, 2500, memory_budget=b, spill_dir=d, parts_per_level=8))):
        base = tmp_path / app
        base.mkdir()
        t0 = time.perf_counter()
        items, met = run(0, str(base / "d0"))
        t_unlimited = time.perf_counter() - t0
        peak = met["peak_resident_estimate"]
        assert met.get("bytes_spilled", 0) == 0
        ref = base / "r0.txt"
        write_result(ref, items, "# app=%s" % app)
        blob = ref.read_bytes()
        t_tight = None
        for num, den in fracs:
            budget = peak * num // den
            t0 = time.perf_counter()
            items, met = run(budget, str(base / ("d%d_%d" % (num, den))))
            took = time.perf_counter() - t0
            assert met.get("bytes_spilled", 0) > 0, \
                "budget %d (%d/%d of peak %d) did not spill" % (budget, num, den, peak)
            out = base / ("r%d_%d.txt" % (num, den))
            write_result(out, items, "# app=%s" % app)
            assert out.read_bytes() == blob, "results differ at budget %d/%d" % (num, den)
            t_tight = took
        assert t_tight <= 2.0 * t_unlimited, \
            "%s: %d/%d budget took %.1fs vs %.1fs unlimited" % (
                app, num, den, t_tight, t_unlimited)
        report.append("%s %.1fs -> %.1fs at %d/%d" % (app, t_unlimited, t_tight, num, den))
    print("[check 9] byte-identical under spill; " + "; ".join(report))


def test_10_partition_weight_bound(corpus, sparse_graph):
    """Predicted-weight partitioning into 8 parts never loads one part
    beyond total/8 plus one maximal embedding weight."""
    tested = 0

    def check_top(g, s):
        nonlocal tested
        w = np.asarray(s.cse.top.pred, dtype=np.int64)
        if w.size == 0:
            return
        cuts = partition_by_weight(w, 8)
        pre = np.concatenate(([0], np.cumsum(w)))
        parts = pre[cuts[1:]] - pre[cuts[:-1]]
        assert 8 * int(parts.max()) <= int(pre[-1]) + 8 * int(w.max()), \
            (g.num_vertices, s.cse.top.index)
        tested += 1

    def check_levels(g, depth):
        # prediction weights only live on the current top level, which
        # is exactly where partitioning reads them
        s = Session(g)
        s.seed_vertices()
        check_top(g, s)
        for _ in range(2, depth + 1):
            s.explore()
            check_top(g, s)

    check_levels(sparse_graph, 4)
    for g in corpus[:40]:
        check_levels(g, 5)
    assert tested >= 160
    print("[check 10] balance bound held on %d levels" % tested)


def test_11_worker_determinism_and_scaling(sparse_graph):
    """Identical 4-motif results for 1, 2 and 8 workers on the 105k-edge
    graph; 2 workers beat 1, and 8 beat 2 on a host with more than 2
    usable CPUs."""
    g = sparse_graph
    assert g.num_edges >= 100000
    lines = {}
    times = {}
    for w in (1, 2, 8):
        t0 = time.perf_counter()
        items, _ = motif_count(g, 4, workers=w)
        times[w] = time.perf_counter() - t0
        lines[w] = result_lines(items)
    assert lines[1] == lines[2] == lines[8]
    print("[check 11] identical results for 1/2/8 workers; wall times "
          "%.2fs / %.2fs / %.2fs on a %d-cpu host"
          % (times[1], times[2], times[8], os.cpu_count() or 1))
    assert times[2] < times[1], \
        "2 workers not faster than 1 (%.2fs vs %.2fs, %d cpu present)" % (
            times[2], times[1], os.cpu_count() or 1)
    # ranges run on at most one thread per usable CPU, so with 2 or fewer
    # the 8-worker run uses the same threads as the 2-worker one
    if runtime.usable_cpus() > 2:
        assert times[8] < times[2], \
            "8 workers not faster than 2 (%.2fs vs %.2fs, %d usable cpus)" % (
                times[8], times[2], runtime.usable_cpus())
