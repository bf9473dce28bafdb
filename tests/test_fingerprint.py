import itertools
import random
import sys
import threading

import pytest

from gmine import fingerprint
from gmine.fingerprint import (FNV_OFFSET, MAX_K, Pattern, PatternHasher,
                               SizeLimitError, canonical_sort, char_polynomial,
                               degrees_from_bits, fnv1a64, permute_bits,
                               triple_hash, weighted_matrix)
from gmine.graph import Graph

from conftest import make_random_graph
from oracles import (bits_from_pairs, brute_orbits, classify_triple,
                     cofactor_charpoly, induced_bitmap, min_perm_form, subgraph_form)


def test_single_edge_char_polynomial():
    # unit weights: x^2 - 1
    assert char_polynomial([[0, 1], [1, 0]]) == (0, -1)


def test_triangle_and_chain_weighted_polys():
    # unlabeled weight is 3: triangle -> x^3 - 27x - 54, chain -> x^3 - 18x
    tri = weighted_matrix([0, 0, 0], bits_from_pairs(3, [(0, 1), (0, 2), (1, 2)]), 2)
    assert char_polynomial(tri) == (0, -27, -54)
    chain = weighted_matrix([0, 0, 0], bits_from_pairs(3, [(0, 1), (0, 2)]), 2)
    assert char_polynomial(chain) == (0, -18, 0)


def test_zero_matrix_poly():
    assert char_polynomial([[0] * 4 for _ in range(4)]) == (0, 0, 0, 0)


def test_leading_trace_coefficient_vanishes():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randrange(2, 7)
        bits = rng.randrange(1 << (k * (k - 1) // 2))
        m = weighted_matrix([0] * k, bits, 2)
        assert char_polynomial(m)[0] == 0


def test_hasher_rejects_a_trace_term(monkeypatch):
    # an explicit raise, not an assert, so python -O keeps the check
    monkeypatch.setattr(fingerprint, "char_polynomial", lambda m: (1, 0, 0))
    with pytest.raises(AssertionError, match="trace term"):
        PatternHasher(2).classify((0, 0, 0), bits_from_pairs(3, [(0, 1), (1, 2)]))


def test_faddeev_leverrier_matches_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(120):
        k = rng.randrange(2, 8)
        labels = [rng.randrange(3) for _ in range(k)]
        bits = rng.randrange(1 << (k * (k - 1) // 2))
        m = weighted_matrix(sorted(labels), bits, 5)
        assert char_polynomial(m) == cofactor_charpoly(m)


def test_canonical_sort_all_permutations_agree():
    # a fixed labeled 5-vertex pattern; every input ordering sorts to the
    # same (L, D) and the classifier maps all of them to one hash
    base_labels = (1, 0, 2, 0, 1)
    base_pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
    h = PatternHasher(4)
    seen = set()
    ld = set()
    for perm in itertools.permutations(range(5)):
        labels = tuple(base_labels[perm[i]] for i in range(5))
        pairs = [(perm.index(a), perm.index(b)) for a, b in base_pairs]
        bits = bits_from_pairs(5, pairs)
        ls, ds, sbits, sp = canonical_sort(labels, degrees_from_bits(5, bits), bits)
        ld.add((tuple(ls), tuple(ds)))
        seen.add(h.classify(labels, bits).hash)
    assert len(ld) == 1
    assert len(seen) == 1


def test_sort_orders_by_label_then_degree():
    labels = (2, 0, 1, 0)
    bits = bits_from_pairs(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    ds = degrees_from_bits(4, bits)
    ls, dss, _, perm = canonical_sort(labels, ds, bits)
    assert ls == sorted(ls)
    for i in range(3):
        if ls[i] == ls[i + 1]:
            assert dss[i] <= dss[i + 1]
    # perm really maps slots back to input positions
    assert [labels[p] for p in perm] == ls


def test_permute_bits_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randrange(2, 8)
        bits = rng.randrange(1 << (k * (k - 1) // 2))
        perm = list(range(k))
        rng.shuffle(perm)
        inv = [perm.index(i) for i in range(k)]
        assert permute_bits(permute_bits(bits, perm), inv) == bits


def test_labeled_pair_example_equal_hash():
    # two triangles sharing an edge, the off-edge vertices equally labeled:
    # <1,2,5> and <3,2,5> are isomorphic embeddings and must collide
    g = Graph.from_edges([(1, 2), (2, 5), (1, 5), (3, 2), (3, 5)],
                         labels={1: 1, 3: 1, 2: 2, 5: 3})
    h = PatternHasher(g.max_label + 2)
    a = [0, 1, 3]  # dense ids of 1, 2, 5
    b = [2, 1, 3]  # dense ids of 3, 2, 5
    ha = h.classify(tuple(int(g.labels[v]) for v in a), induced_bitmap(g.adj_sets, a))
    hb = h.classify(tuple(int(g.labels[v]) for v in b), induced_bitmap(g.adj_sets, b))
    assert ha.hash == hb.hash
    assert ha.pattern == hb.pattern


def test_triple_separates_triangle_from_chain():
    ta = classify_triple((0, 0, 0), [2, 2, 2],
                         bits_from_pairs(3, [(0, 1), (0, 2), (1, 2)]), 2)
    tb = classify_triple((0, 0, 0), [1, 1, 2],
                         bits_from_pairs(3, [(0, 1), (0, 2)]), 2)
    assert ta != tb
    assert triple_hash(*ta) != triple_hash(*tb)


def test_size_limit():
    with pytest.raises(SizeLimitError):
        classify_triple((0,) * (MAX_K + 1), [0] * (MAX_K + 1), 0, 2)
    with pytest.raises(SizeLimitError):
        PatternHasher(2).classify((0,) * 9, 0)


def test_fnv_constants():
    assert fnv1a64(b"") == FNV_OFFSET
    assert fnv1a64(b"a") == ((FNV_OFFSET ^ 0x61) * 0x100000001B3) % (1 << 64)


def test_pattern_serialization_format():
    p = Pattern(3, (0, 0, 0), (2, 2, 2), 0b111)
    assert p.serialize() == "3;L=0,0,0;D=2,2,2;B=07"
    p2 = Pattern(5, (0, 1, 1, 2, 2), (1, 2, 2, 1, 2), 0b1010011010)
    ser = p2.serialize()
    assert ser.startswith("5;L=0,1,1,2,2;D=1,2,2,1,2;B=")
    assert len(ser.split("B=")[1]) == 4  # ceil(10/8) = 2 bytes -> 4 hex chars


def test_hash_equals_relabeled_subgraphs_oracle():
    # random graphs: equal min-perm form <=> equal classifier hash on
    # every pair of same-size induced connected subgraphs
    rng = random.Random(23)
    for trial in range(30):
        g = make_random_graph(500 + trial, 10, 8, n_labels=2)
        h = PatternHasher(g.max_label + 2)
        from oracles import enumerate_connected_subsets
        subs = enumerate_connected_subsets(g.adj_sets, g.num_vertices, 4)
        by_form = {}
        by_hash = {}
        for s in subs:
            form = min_perm_form(*subgraph_form(g, s, labeled=True))
            labels = tuple(int(g.labels[v]) for v in s)
            hv = h.classify(labels, induced_bitmap(g.adj_sets, s)).hash
            by_form.setdefault(form, set()).add(hv)
            by_hash.setdefault(hv, set()).add(form)
        assert all(len(v) == 1 for v in by_form.values())
        assert all(len(v) == 1 for v in by_hash.values())


def test_position_orbits_star_and_path():
    h = PatternHasher(2)
    # path a-b-c: ends share an orbit, middle is alone
    e = h.classify((0, 0, 0), bits_from_pairs(3, [(0, 1), (1, 2)]))
    orb = e.orbits
    assert orb[0] == orb[2] != orb[1]
    assert max(orb) == 1
    # star with 3 leaves: center position 0
    e2 = h.classify((0, 0, 0, 0), bits_from_pairs(4, [(0, 1), (0, 2), (0, 3)]))
    orb2 = e2.orbits
    assert orb2[1] == orb2[2] == orb2[3] != orb2[0]
    # triangle: single orbit
    e3 = h.classify((0, 0, 0), 0b111)
    assert e3.orbits == (0, 0, 0)


def test_orbits_match_brute_force():
    # every bitmap on k <= 5 positions, unlabeled and under 2-label
    # assignments, then seeded random keys at k = 6..8: the orbits taken
    # from the canonical search's ties partition the positions as a
    # search over all k! label-keeping automorphisms does. Every key of
    # a class numbers them as its canonical form does, in order of their
    # lowest canonical slot.
    def check(h, labels, bits):
        e = h.classify(labels, bits)
        got = {frozenset(p for p, o in enumerate(e.orbits) if o == x)
               for x in set(e.orbits)}
        assert got == brute_orbits(labels, bits), (labels, bits)
        pat = e.pattern
        canon = h.classify(pat.labels, pat.bits).orbits
        assert sorted(set(canon), key=canon.index) == list(range(max(canon) + 1))
        iso = next(p for p in itertools.permutations(range(len(labels)))
                   if [labels[q] for q in p] == list(pat.labels)
                   and permute_bits(bits, p) == pat.bits)
        assert tuple(e.orbits[q] for q in iso) == canon

    h = PatternHasher(3)
    for k in range(1, 6):
        assignments = {(0,) * k, tuple(p % 2 for p in range(k)),
                       (1,) + (0,) * (k - 1), tuple(int(p >= k - 2) for p in range(k))}
        for labels in assignments:
            for bits in range(1 << k * (k - 1) // 2):
                check(h, labels, bits)
    rng = random.Random(2017)
    for k, n in ((6, 40), (7, 12), (8, 4)):
        for i in range(n):
            labels = tuple(rng.randrange(2) if i % 2 else 0 for _ in range(k))
            check(h, labels, rng.randrange(1 << k * (k - 1) // 2))


def test_canonical_pattern_stable_across_variants():
    # all 24 orderings of a 4-cycle produce the same canonical Pattern
    pats = set()
    h = PatternHasher(2)
    cyc = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for perm in itertools.permutations(range(4)):
        pairs = [(perm.index(a), perm.index(b)) for a, b in cyc]
        pats.add(h.classify((0,) * 4, bits_from_pairs(4, pairs)).pattern)
    assert len(pats) == 1


def test_hasher_shared_by_threads_matches_a_serial_one():
    # range threads share one hasher: its caches may classify a key twice
    # at once, and every thread must still get the serial hasher's entry
    labels = (0, 0, 1, 1, 2)
    keys = range(1 << 10)  # every bitmap over 5 positions
    serial = PatternHasher(4)
    want = {b: serial.classify(labels, b) for b in keys}
    shared = PatternHasher(4)
    start = threading.Barrier(4, timeout=10)
    got = [{} for _ in range(4)]
    errors = []

    def classify_all(i):
        try:
            start.wait()
            for b in itertools.islice(itertools.cycle(keys), 256 * i, 256 * i + len(keys)):
                got[i][b] = shared.classify(labels, b)
        except Exception as e:
            errors.append(e)

    threads = [threading.Thread(target=classify_all, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside _classify too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for seen in got:
        assert seen.keys() == want.keys()
        for b, e in seen.items():
            w = want[b]
            assert e == w, b
