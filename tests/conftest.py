import random
import threading

import pytest

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
