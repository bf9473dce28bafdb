"""Level-by-level expansion of canonical embeddings.

A size-k embedding <v1..vk> is canonical when every vertex after the
first is larger than v1, every prefix is connected, and each vertex is
larger than everything appended after its earliest attachment point.
Exactly one ordering per connected vertex set survives these rules, and
every prefix of a canonical embedding is canonical, so expanding level
k to k+1 visits each subgraph exactly once with no duplicate checks.

The edge-induced variant orders edges by their id in the sorted edge
table and applies the same head/attachment rules to edge ids. One
kernel expands both: each member id touches ascending candidate lists,
its neighbors for a vertex and the incident edges of both endpoints
for an edge, and the rules only ever compare ids.
"""

import numpy as np

from . import runtime
from .store import iter_embeddings


def vertex_seed_preds(g):
    return g.degrees.astype(np.int32)


def edge_seed_preds(g):
    du = g.degrees[g.edge_u]
    dv = g.degrees[g.edge_v]
    return (du + dv - 2).astype(np.int32)


def touch_lists(g, mode):
    """Per id, the ascending candidate lists it touches: a vertex its
    neighbor list, an edge the incident-edge lists of both endpoints
    (one list per vertex, sharing one int object per edge id)."""
    if mode == "vertex":
        return [(a,) for a in g.adj]
    ids = list(range(g.num_edges))
    inc = [list(map(ids.__getitem__, g.incident_edges(v).tolist()))
           for v in range(g.num_vertices)]
    return list(zip(map(inc.__getitem__, g.edge_u.tolist()),
                    map(inc.__getitem__, g.edge_v.tolist())))


# -- weight-balanced range partition ------------------------------------

def partition_by_weight(weights, t):
    """Split 0..n into t contiguous ranges of near-equal total weight.

    Returns t+1 ascending cut points; cut j is the first index whose
    weight prefix reaches j/t of the total, so no part exceeds total/t
    plus one maximal single weight. Integer arithmetic throughout keeps
    the cuts exactly reproducible.
    """
    w = np.asarray(weights, dtype=np.int64)
    n = len(w)
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(w, out=prefix[1:])
    total = int(prefix[-1])
    cuts = np.searchsorted(prefix * t, np.arange(t + 1, dtype=np.int64) * total,
                           side="left").astype(np.int64)
    cuts[0] = 0
    cuts[-1] = n  # zero-weight tails still belong to the last part
    return cuts


def uniform_ranges(n, t):
    return np.linspace(0, n, t + 1).astype(np.int64)


# -- range expansion ---------------------------------------------------

def expand_vertex_range(task):
    """Expand top-level offsets [lo, hi) by one id.

    Reads the touch table, slices and filter from the published worker
    context and returns (vert, counts, preds) arrays for the range.
    Candidates are gathered into one dict per parent keyed first-touch,
    which records the earliest attachment index; embedding members
    carry a sentinel. A candidate's prediction counts the ids its lists
    add to the parent's; the lists of an edge's old endpoint add none,
    since every member that touches that endpoint already walked them.
    """
    lo, hi = task
    ctx = runtime.get_context()
    touch = ctx["touch"]
    slices = ctx["slices"]
    flt = ctx.get("filter")
    alive = ctx.get("alive")
    want_pred = ctx.get("want_pred", True)
    out_vert = []
    counts = np.zeros(hi - lo, dtype=np.int32)
    out_pred = [] if want_pred else None
    for off, emb in iter_embeddings(slices, lo, hi):
        if alive is not None and not alive[off]:
            continue
        k = len(emb)
        head = emb[0]
        seen = {}
        for u in emb:
            seen[u] = -1
        for i in range(k):
            for lst in touch[emb[i]]:
                for w in lst:
                    if w not in seen:
                        seen[w] = i
        base = len(seen) - k - 1  # parent candidates minus the one consumed
        sm = [-1] * k  # sm[i] = max of emb[i+1:]
        m = -1
        for i in range(k - 1, -1, -1):
            sm[i] = m
            if emb[i] > m:
                m = emb[i]
        produced = 0
        for v in sorted(seen):
            a0 = seen[v]
            if a0 < 0 or v <= head or v <= sm[a0]:
                continue
            if flt is not None and not flt(emb, v):
                continue
            out_vert.append(v)
            produced += 1
            if want_pred:
                grow = 0
                for lst in touch[v]:
                    for w in lst:
                        if w not in seen:
                            grow += 1
                out_pred.append(base + grow)
        counts[off - lo] = produced
    vert = np.array(out_vert, dtype=ctx["id_dtype"])
    pred = np.array(out_pred, dtype=np.int32) if want_pred else None
    return vert, counts, pred


# The one kernel expands edge embeddings too; this name stays only
# because the benchmark tracer wraps it (ROADMAP item 1).
expand_edge_range = expand_vertex_range
