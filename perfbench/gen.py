"""Seeded input generators for the benchmark.

Each generator is a pure function of its arguments and the seed (Python's
Mersenne Twister, no numpy), so one seed always yields byte-identical edge
and label files. Vertex ids are written in a seeded random order so the
program's id densification does real work.
"""

import math
import random


def uniform_connected(n, m, seed):
    """Edges of a uniform random connected simple graph with n vertices
    and m edges: a random recursive spanning tree over a shuffled vertex
    order, then uniformly drawn extra edges until m distinct ones exist."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError("need n-1 <= m <= n(n-1)/2")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((u, v) if u < v else (v, u))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return _shuffled(edges, rng)


def chung_lu(n, avg_degree, gamma, seed, offset=0.0):
    """Edges of a Chung-Lu graph with power-law expected degrees.

    Vertex i has weight c * (i + 1 + offset) ** (-1 / (gamma - 1)), scaled
    so the mean weight is avg_degree; edge {u, v} appears independently
    with probability min(1, w_u * w_v / sum(w)). Sampled in O(n + m) by
    geometric skipping over the weight-sorted vertex list (Miller and
    Hagberg, 2011). A larger offset lowers the largest expected degree.
    """
    rng = random.Random(seed)
    expo = -1.0 / (gamma - 1.0)
    raw = [(i + 1 + offset) ** expo for i in range(n)]
    scale = avg_degree * n / sum(raw)
    w = [x * scale for x in raw]  # descending
    total = sum(w)
    edges = set()
    for u in range(n - 1):
        v = u + 1
        p = min(1.0, w[u] * w[v] / total)
        while v < n and p > 0:
            if p != 1.0:
                r = rng.random()
                v += int(math.floor(math.log(r) / math.log(1.0 - p))) if r > 0 else n
            if v < n:
                q = min(1.0, w[u] * w[v] / total)
                if rng.random() < q / p:
                    edges.add((u, v))
                p = q
                v += 1
    return _shuffled(edges, rng)


def _shuffled(edges, rng):
    out = sorted(edges)
    rng.shuffle(out)
    return out


def random_labels(n, num_labels, seed):
    rng = random.Random(seed ^ 0x5EED)
    return [rng.randrange(num_labels) for _ in range(n)]


def write_edges(path, edges, id_map):
    with open(path, "w") as fh:
        fh.write("# generated by perfbench/gen.py\n")
        fh.writelines("%d %d\n" % (id_map[u], id_map[v]) for u, v in edges)


def write_labels(path, labels, id_map):
    with open(path, "w") as fh:
        fh.writelines("%d %d\n" % (id_map[v], lab) for v, lab in enumerate(labels))


def id_map(n, seed):
    """Seeded sparse relabeling: dense vertex i is written as id_map[i]."""
    rng = random.Random(seed ^ 0x1D5)
    return rng.sample(range(4 * n), n)
