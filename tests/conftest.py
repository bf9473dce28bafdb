import random
import threading

import pytest

from gmine.fingerprint import PAIR_BIT, PatternHasher
from gmine.graph import Graph

# The 5-vertex worked example used throughout: vertices 1..5, vertex 5
# adjacent to everything, triangle counts and level arrays known by hand.
DEMO_EDGES = [(1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail any test that leaves more threads running than it found."""
    before = threading.active_count()
    yield
    left = threading.active_count() - before
    if left > 0:
        pytest.fail("test left %d thread(s) running: %s"
                    % (left, [t.name for t in threading.enumerate()]))


@pytest.fixture
def demo_graph():
    return Graph.from_edges(DEMO_EDGES)


def make_random_graph(seed, n, extra, n_labels=1):
    from oracles import random_connected_edges
    rng = random.Random(seed)
    edges = random_connected_edges(rng, n, extra)
    labels = None
    if n_labels > 1:
        labels = {v: rng.randrange(n_labels) for v in range(n)}
    return Graph.from_edges(edges, labels)


def augmentation_classes(labels, top):
    """All connected graphs on 1..top vertices with vertex labels drawn
    from labels, as the hasher's canonical patterns, built by
    single-vertex augmentation.

    Every connected graph has a vertex whose removal leaves it
    connected, so attaching a new vertex of every label to each
    representative by every nonempty neighbor subset reaches every
    class one size up. Returns (levels, candidates): levels[n] maps each
    canonical (labels, bitmap) key to its pattern, and candidates[n]
    lists every (labels, raw bitmap, pattern) produced on the way, for
    oracle cross-checks.
    """
    from oracles import bits_from_pairs
    hasher = PatternHasher()
    levels = {1: {}}
    for lab in labels:
        pat = hasher.classify((lab,), 0).pattern
        levels[1][pat.labels, pat.bits] = pat
    candidates = {}
    for n in range(2, top + 1):
        tab = PAIR_BIT[n - 1]
        found = {}
        cand = []
        for prev in levels[n - 1].values():
            base = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)
                    if prev.bits >> tab[i][j] & 1]
            for lab in labels:
                raw = prev.labels + (lab,)
                for mask in range(1, 1 << (n - 1)):
                    bits = bits_from_pairs(n, base + [(i, n - 1) for i in range(n - 1)
                                                      if mask >> i & 1])
                    pat = hasher.classify(raw, bits).pattern
                    found[pat.labels, pat.bits] = pat
                    cand.append((raw, bits, pat))
        levels[n] = found
        candidates[n] = cand
    return levels, candidates
