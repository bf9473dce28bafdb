"""Level-by-level expansion of canonical embeddings.

A size-k embedding <v1..vk> is canonical when every vertex after the
first is larger than v1, every prefix is connected, and each vertex is
larger than everything appended after its earliest attachment point.
Exactly one ordering per connected vertex set survives these rules, and
every prefix of a canonical embedding is canonical, so expanding level
k to k+1 visits each subgraph exactly once with no duplicate checks.

The edge-induced variant orders edges by their id in the sorted edge
table and applies the same head/attachment rules to edge ids.
"""

import numpy as np

from . import runtime
from .store import iter_embeddings


# -- canonicality predicates ------------------------------------------

def is_canonical_extension(g, emb, v):
    """True iff appending vertex v to canonical emb stays canonical."""
    if v in emb or v <= emb[0]:
        return False
    a0 = None
    for i, u in enumerate(emb):
        if g.check_link(u, v):
            a0 = i
            break
    if a0 is None:
        return False
    return all(emb[b] < v for b in range(a0 + 1, len(emb)))


def is_canonical_edge_extension(g, emb, eid):
    """Edge-id analogue: emb is a list of edge ids."""
    if eid in emb or eid <= emb[0]:
        return False
    x, y = g.edge_endpoints(eid)
    a0 = None
    for i, f in enumerate(emb):
        u, v = g.edge_endpoints(f)
        if x == u or x == v or y == u or y == v:
            a0 = i
            break
    if a0 is None:
        return False
    return all(emb[b] < eid for b in range(a0 + 1, len(emb)))


# -- candidate prediction ----------------------------------------------

def predict_candidate_size(g, emb):
    """|union of neighborhoods minus emb|: the width of the next level's
    slice for this embedding before canonicality filtering."""
    cand = set()
    for u in emb:
        cand.update(g.adj[u])
    cand.difference_update(emb)
    return len(cand)


def predict_candidate_size_edges(g, emb):
    cand = set()
    for f in emb:
        u, v = g.edge_endpoints(f)
        cand.update(g.incident_edges(u).tolist())
        cand.update(g.incident_edges(v).tolist())
    cand.difference_update(emb)
    return len(cand)


def vertex_seed_preds(g):
    return g.degrees.astype(np.int32)


def edge_seed_preds(g):
    du = g.degrees[g.edge_u]
    dv = g.degrees[g.edge_v]
    return (du + dv - 2).astype(np.int32)


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
    """Expand top-level offsets [lo, hi) by one vertex.

    Reads graph/slices/filter from the published worker context and
    returns (vert, counts, preds) arrays for the range. Candidates are
    gathered into one dict per parent keyed first-touch, which records
    the earliest attachment index; embedding members carry a sentinel.
    """
    lo, hi = task
    ctx = runtime.get_context()
    adj = ctx["adj"]
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
            for w in adj[emb[i]]:
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
                for w in adj[v]:
                    if w not in seen:
                        grow += 1
                out_pred.append(base + grow)
        counts[off - lo] = produced
    vert = np.array(out_vert, dtype=ctx["id_dtype"])
    pred = np.array(out_pred, dtype=np.int32) if want_pred else None
    return vert, counts, pred


def expand_edge_range(task):
    """Edge-induced analogue of expand_vertex_range; ids are edge ids."""
    lo, hi = task
    ctx = runtime.get_context()
    g = ctx["graph"]
    inc = ctx["incident"]
    eu = ctx["edge_u"]
    ev = ctx["edge_v"]
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
        vset = set()
        for f in emb:
            vset.add(eu[f])
            vset.add(ev[f])
        seen = {}
        for f in emb:
            seen[f] = -1
        for i in range(k):
            f = emb[i]
            for w in inc[eu[f]]:
                if w not in seen:
                    seen[w] = i
            for w in inc[ev[f]]:
                if w not in seen:
                    seen[w] = i
        base = len(seen) - k - 1
        sm = [-1] * k
        m = -1
        for i in range(k - 1, -1, -1):
            sm[i] = m
            if emb[i] > m:
                m = emb[i]
        produced = 0
        for f in sorted(seen):
            a0 = seen[f]
            if a0 < 0 or f <= head or f <= sm[a0]:
                continue
            if flt is not None and not flt(emb, f):
                continue
            out_vert.append(f)
            produced += 1
            if want_pred:
                grow = 0
                for u in (eu[f], ev[f]):
                    if u not in vset:
                        for w in inc[u]:
                            if w not in seen:
                                grow += 1
                out_pred.append(base + grow)
        counts[off - lo] = produced
    vert = np.array(out_vert, dtype=ctx["id_dtype"])
    pred = np.array(out_pred, dtype=np.int32) if want_pred else None
    return vert, counts, pred
