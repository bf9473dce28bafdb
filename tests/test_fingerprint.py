import itertools
import random
import sys
import threading

import pytest

from gmine.fingerprint import (MAX_K, Pattern, PatternHasher, SizeLimitError,
                               canonical_sort, char_polynomial, degrees_from_bits,
                               permute_bits)
from gmine.graph import Graph

from conftest import augmentation_classes, make_random_graph
from oracles import (bitmap_rows, bits_from_pairs, brute_orbits, classify_triple,
                     cofactor_charpoly, induced_bitmap, iso_oracle, min_perm_form,
                     subgraph_form, weighted_matrix)


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
    # same (L, D) and the classifier maps all of them to one pattern
    base_labels = (1, 0, 2, 0, 1)
    base_pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
    h = PatternHasher()
    seen = set()
    ld = set()
    for perm in itertools.permutations(range(5)):
        labels = tuple(base_labels[perm[i]] for i in range(5))
        pairs = [(perm.index(a), perm.index(b)) for a, b in base_pairs]
        bits = bits_from_pairs(5, pairs)
        ls, ds, sbits, sp = canonical_sort(labels, degrees_from_bits(5, bits), bits)
        ld.add((tuple(ls), tuple(ds)))
        e = h.classify(labels, bits)
        seen.add((e.id, e.pattern))
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
    # <1,2,5> and <3,2,5> are isomorphic embeddings and must share a key
    g = Graph.from_edges([(1, 2), (2, 5), (1, 5), (3, 2), (3, 5)],
                         labels={1: 1, 3: 1, 2: 2, 5: 3})
    h = PatternHasher()
    a = [0, 1, 3]  # dense ids of 1, 2, 5
    b = [2, 1, 3]  # dense ids of 3, 2, 5
    ha = h.classify(tuple(int(g.labels[v]) for v in a), induced_bitmap(g.adj_sets, a))
    hb = h.classify(tuple(int(g.labels[v]) for v in b), induced_bitmap(g.adj_sets, b))
    assert ha.id == hb.id
    assert ha.pattern == hb.pattern


def test_triple_separates_triangle_from_chain():
    ta = classify_triple((0, 0, 0), [2, 2, 2],
                         bits_from_pairs(3, [(0, 1), (0, 2), (1, 2)]), 2)
    tb = classify_triple((0, 0, 0), [1, 1, 2],
                         bits_from_pairs(3, [(0, 1), (0, 2)]), 2)
    assert ta != tb


@pytest.mark.parametrize("weight_base, labels, degrees, pair", [
    (2, (0,) * 8, (1, 1, 1, 2, 2, 2, 3, 4), ("40086909", "4090b003")),
    (4, (0, 0, 1, 1, 2, 2), (1, 3, 1, 3, 1, 3), ("7031", "c429")),
], ids=["unlabeled-8", "3-labels-6"])
def test_hasher_splits_patterns_that_share_a_triple(weight_base, labels, degrees, pair):
    """Two non-isomorphic canonical patterns with one (labels, degrees,
    polynomial) triple get two patterns and two ids: the key is the
    canonical form, which the triple does not enter."""
    k = len(labels)
    bits = [int.from_bytes(bytes.fromhex(b), "little") for b in pair]
    assert not iso_oracle(labels, bitmap_rows(k, bits[0]), labels, bitmap_rows(k, bits[1]))
    assert (classify_triple(labels, degrees, bits[0], weight_base)
            == classify_triple(labels, degrees, bits[1], weight_base))
    h = PatternHasher()
    a, b = (h.classify(labels, x) for x in bits)
    assert a.pattern != b.pattern and a.id != b.id
    head = "%d;L=%s;D=%s;B=" % (k, ",".join(map(str, labels)), ",".join(map(str, degrees)))
    assert [a.pattern.serialize(), b.pattern.serialize()] == [head + x for x in pair]


def test_size_limit():
    with pytest.raises(SizeLimitError):
        classify_triple((0,) * (MAX_K + 1), [0] * (MAX_K + 1), 0, 2)
    with pytest.raises(SizeLimitError):
        PatternHasher().classify((0,) * 9, 0)


def test_keys_name_the_3_labeled_classes_exactly():
    """Every connected graph on up to 5 vertices with labels in {0, 1, 2}:
    each (labels, bitmap) key the hasher gives holds one brute-force
    min-perm form, and each form one key. At 6 vertices, where the
    (labels, degrees, polynomial) triple first collides with 3 labels,
    the same check takes 2 minutes and runs in the slow suite."""
    levels, candidates = augmentation_classes((0, 1, 2), 5)
    assert [len(levels[n]) for n in (1, 2, 3)] == [3, 6, 28]
    key_forms = {}
    form_keys = {}
    for n, cand in candidates.items():
        for labels, bits, pat in cand:
            form = min_perm_form(labels, bitmap_rows(n, bits))
            key_forms.setdefault((pat.labels, pat.bits), set()).add(form)
            form_keys.setdefault(form, set()).add((pat.labels, pat.bits))
    assert all(len(v) == 1 for v in key_forms.values())
    assert all(len(v) == 1 for v in form_keys.values())
    assert len(key_forms) == sum(len(levels[n]) for n in range(2, 6)) == 2410


@pytest.mark.slow
def test_keys_name_the_6_vertex_3_labeled_classes_exactly():
    """Every connected graph on 6 vertices with labels in {0, 1, 2}:
    each candidate is isomorphic to its key's pattern, and the patterns'
    brute-force min-perm forms are distinct."""
    levels, candidates = augmentation_classes((0, 1, 2), 6)
    for labels, bits, pat in candidates[6]:
        assert iso_oracle(labels, bitmap_rows(6, bits), pat.labels, bitmap_rows(6, pat.bits))
    forms = {min_perm_form(pat.labels, bitmap_rows(6, pat.bits)) for pat in levels[6].values()}
    assert len(forms) == len(levels[6])


@pytest.mark.slow
def test_keys_name_the_8_vertex_classes_exactly():
    """Every connected unlabeled graph on up to 8 vertices. Each
    candidate is isomorphic to its key's pattern, so equal keys are
    isomorphic; augmentation reaches every class, so the class counts
    of OEIS A001349 leave no class with two keys."""
    levels, candidates = augmentation_classes((0,), 8)
    assert [len(levels[n]) for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11117]
    for n, cand in candidates.items():
        for labels, bits, pat in cand:
            assert iso_oracle(labels, bitmap_rows(n, bits), pat.labels, bitmap_rows(n, pat.bits))


def test_pattern_serialization_format():
    p = Pattern(3, (0, 0, 0), (2, 2, 2), 0b111)
    assert p.serialize() == "3;L=0,0,0;D=2,2,2;B=07"
    p2 = Pattern(5, (0, 1, 1, 2, 2), (1, 2, 2, 1, 2), 0b1010011010)
    ser = p2.serialize()
    assert ser.startswith("5;L=0,1,1,2,2;D=1,2,2,1,2;B=")
    assert len(ser.split("B=")[1]) == 4  # ceil(10/8) = 2 bytes -> 4 hex chars


def test_hash_equals_relabeled_subgraphs_oracle():
    # random graphs: equal min-perm form <=> equal classifier pattern
    # and id on every pair of same-size induced connected subgraphs
    for trial in range(30):
        g = make_random_graph(500 + trial, 10, 8, n_labels=2)
        h = PatternHasher()
        from oracles import enumerate_connected_subsets
        subs = enumerate_connected_subsets(g.adj_sets, g.num_vertices, 4)
        by_form = {}
        by_key = {}
        for s in subs:
            form = min_perm_form(*subgraph_form(g, s, labeled=True))
            labels = tuple(int(g.labels[v]) for v in s)
            e = h.classify(labels, induced_bitmap(g.adj_sets, s))
            by_form.setdefault(form, set()).add((e.id, e.pattern))
            by_key.setdefault((e.id, e.pattern), set()).add(form)
        assert all(len(v) == 1 for v in by_form.values())
        assert all(len(v) == 1 for v in by_key.values())


def test_position_orbits_star_and_path():
    h = PatternHasher()
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

    h = PatternHasher()
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
    h = PatternHasher()
    cyc = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for perm in itertools.permutations(range(4)):
        pairs = [(perm.index(a), perm.index(b)) for a, b in cyc]
        pats.add(h.classify((0,) * 4, bits_from_pairs(4, pairs)).pattern)
    assert len(pats) == 1


def test_hasher_shared_by_threads_matches_a_serial_one():
    # range threads share one hasher: its caches may classify a key twice
    # at once, and every thread must still get the serial hasher's
    # pattern and orbits; ids follow first sight, so they only have to
    # name the same patterns
    labels = (0, 0, 1, 1, 2)
    keys = range(1 << 10)  # every bitmap over 5 positions
    serial = PatternHasher()
    want = {b: serial.classify(labels, b) for b in keys}
    shared = PatternHasher()
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
    rename = {}
    for seen in got:
        assert seen.keys() == want.keys()
        for b, e in seen.items():
            w = want[b]
            assert e[1:] == w[1:], b
            assert rename.setdefault(w.id, e.id) == e.id, b
    assert len(set(rename.values())) == len(rename)


def test_threads_racing_on_new_patterns_agree_on_their_ids():
    # every thread classifies the same keys in the same order, each of a
    # pattern not seen before, so they race to issue every id
    levels, _ = augmentation_classes((0, 1, 2), 5)
    keys = [key for n in levels for key in levels[n]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between drawing and setting an id
    try:
        for trial in range(5):
            shared = PatternHasher()
            start = threading.Barrier(4, timeout=10)
            got = [[] for _ in range(4)]
            errors = []

            def classify_all(i):
                try:
                    start.wait()
                    got[i] = [shared.classify(*key) for key in keys]
                except Exception as e:
                    errors.append(e)

            threads = [threading.Thread(target=classify_all, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert got[1:] == got[:1] * 3, trial  # one id per pattern
            ids = [e.id for e in got[0]]
            assert len(set(ids)) == len(keys) == len(shared._poly)  # one pattern per id
            assert [shared.id_of(e.pattern) for e in got[0]] == ids
    finally:
        sys.setswitchinterval(interval)
