"""Level-by-level expansion of canonical embeddings.

A size-k embedding <v1..vk> is canonical when every vertex after the
first is larger than v1, every prefix is connected, and each vertex is
larger than everything appended after its earliest attachment point.
Exactly one ordering per connected vertex set survives these rules, and
every prefix of a canonical embedding is canonical, so expanding level
k to k+1 visits each subgraph exactly once with no duplicate checks.

The edge-induced variant orders edges by their id in the sorted edge
table and applies the same head/attachment rules to edge ids. One
array kernel expands both, over whatever CSR the session's context holds.
Each member id touches ascending candidate lists in it: a vertex its
own row (its neighbors, or for cliques its out-neighbors in the rank
DAG, whose ids are ranks), an edge the incident-edge rows of both
endpoints. The kernel reads blocks of parents as id columns, gathers
every member's lists tagged with the member's position, and sorts the
(parent, candidate, position) keys: the first key of each run is the
candidate's earliest attachment, and the rules, the filters and the
predictions become array compares.
"""

import numpy as np

from .store import level_columns

# Parents read as one block of id columns, and list entries per gather.
# Keys pack (parent in block, id, attach) as (parent * n + id) * 8 +
# attach; the kernel checks that both fields fit.
BLOCK = 1 << 13
GATHER = 1 << 13

# Filter that keeps a vertex candidate only when it is in every member's
# list, a run of length k: adjacent to every member over the adjacency,
# and also ranked above every member over the rank DAG.
CLIQUE = "clique"


PRED_MAX = np.iinfo(np.int32).max


def pred32(volumes):
    """int64 gather volumes as int32 predictions; raises, never wraps."""
    if len(volumes) and volumes.max() > PRED_MAX:
        raise OverflowError("a gather volume of %d does not fit an int32 "
                            "prediction" % volumes.max())
    return volumes.astype(np.int32)


def edge_seed_preds(g):
    """Each edge's gather volume, the sum of its endpoints' degrees."""
    return pred32(g.degrees[g.edge_u] + g.degrees[g.edge_v])


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
    cuts[-1] = n  # zero-weight tails still belong to the last part
    return cuts


def uniform_ranges(n, t):
    return np.linspace(0, n, t + 1).astype(np.int64)


def chunks(weights, cap):
    """Yield consecutive ranges [a, b) of 0..n whose weights total at
    most cap; an item heavier than cap forms a range alone."""
    cum = np.cumsum(weights)
    a = 0
    while a < len(cum):
        b = max(a + 1, int(np.searchsorted(cum, (cum[a - 1] if a else 0) + cap,
                                           side="right")))
        yield a, b
        a = b


# -- array helpers --------------------------------------------------------

def run_heads(a):
    """True at the first entry of each run of equal values in sorted a.
    Sort plus this mask dedupes: np.unique's hash path on numpy 2.4 ran
    25-50x slower on 40k-1M random int64 keys (2-vCPU x86 VM)."""
    h = np.empty(len(a), dtype=bool)
    h[:1] = True
    np.not_equal(a[1:], a[:-1], out=h[1:])
    return h


def in_sorted(a, q):
    """Mask of the entries of q present in the sorted, non-empty a."""
    return a[np.minimum(np.searchsorted(a, q), len(a) - 1)] == q


def ragged(starts, lens):
    """Flat indices of the slices [starts[j], starts[j] + lens[j]), in
    order, and the slice number j of each."""
    owner = np.repeat(np.arange(len(lens)), lens)
    return (starts - np.cumsum(lens) + lens)[owner] + np.arange(len(owner)), owner


def _sources(ids, ends):
    """The CSR rows whose slices ids touch: a vertex its own row, an edge
    its first endpoints' rows stacked over its second endpoints'."""
    return np.atleast_2d(ids) if ends is None else np.vstack((ends[0][ids], ends[1][ids]))


# -- range expansion ---------------------------------------------------

def expand_vertex_range(task, ctx):
    """Expand top-level offsets [lo, hi) by one id.

    Reads the CSR, slices, filter, alive mask and the top's predictions
    from the phase context ctx and returns (vert, counts, preds) arrays
    for the range, children ascending per parent. The filter is None, a
    boolean mask over ids, or CLIQUE. A prediction is the gather volume
    the next explore reads, which bounds the children: the list lengths
    of an embedding's distinct sources. A child's is its parent's plus
    those of its sources no member has, with no gather.

    With ctx["fold"], no child is stored: each gather chunk calls
    fold(emb, cp, cv, mask) with its parents' (k, p) id columns, the
    kept children as parent column cp and id cv, and each child's mask
    of attach positions, the OR of 1 << attach over its key run (in
    vertex mode, the members adjacent to the new vertex), and the range
    returns None.
    """
    lo, hi = task
    slices = ctx["slices"]
    off, ids = ctx["csr"]
    ends = ctx["ends"]
    n = ctx["num_ids"]
    flt = ctx.get("filter")
    alive = ctx.get("alive")
    fold = ctx.get("fold")
    want_pred = ctx.get("want_pred", True)
    k = len(slices)
    if k > 8:
        raise ValueError("cannot expand %d-member embeddings: attach indices "
                         "pack into 3 bits" % k)
    if BLOCK * n * 8 > 1 << 63:
        raise OverflowError("%d parents of %d ids overflow an int64 key"
                            % (BLOCK, n))
    deg = np.diff(off)
    id_dtype = ctx["id_dtype"]
    counts = np.zeros(hi - lo, dtype=np.int32)
    out_vert = [np.zeros(0, id_dtype)]
    out_pred = [np.zeros(0, np.int32)]
    for b0 in range(lo, hi, BLOCK):
        b1 = min(b0 + BLOCK, hi)
        live = np.arange(b1 - b0) if alive is None else np.flatnonzero(alive[b0:b1])
        cols = level_columns(slices, b0, b1)[:, live]
        src = _sources(cols, ends)  # row = source * k + attach
        lens = deg[src]
        for s0, s1 in chunks(lens.sum(axis=0), GATHER):
            emb = cols[:, s0:s1]
            p = s1 - s0
            idx, owner = ragged(off[src[:, s0:s1]].ravel(), lens[:, s0:s1].ravel())
            row, par = np.divmod(owner, p)
            keys = (par * n + ids[idx]) * 8 + row % k
            del idx, owner, row, par  # not held through the sort
            keys.sort()
            first = np.flatnonzero(run_heads(keys >> 3))
            head = keys[first]  # each run's earliest attachment
            rp, rw = np.divmod(head >> 3, n)
            # a child attached at i exceeds the head and every member after
            # i, so no member passes (a later one attaches before itself)
            lim = np.empty_like(emb)
            lim[:-1] = np.maximum.accumulate(emb[::-1], axis=0)[-2::-1]
            lim[-1] = emb[0]  # members after the head already exceed it
            keep = rw > lim[head & 7, rp]
            if flt is CLIQUE:
                keep &= np.diff(first, append=len(keys)) == k
            elif flt is not None:
                keep &= flt[rw]
            cp = rp[keep]
            cv = rw[keep]
            if fold is not None:
                mask = np.bitwise_or.reduceat(1 << (keys & 7), first)[keep]
                fold(emb, cp, cv, mask)
                continue
            counts[b0 - lo + live[s0:s1]] = np.bincount(cp, minlength=p)
            out_vert.append(cv.astype(id_dtype))
            if want_pred:
                csrc = _sources(cv, ends)
                new = ~(src[:, s0:s1][:, cp] == csrc[:, None]).any(axis=1)
                vol = ctx["pred"][b0 + live[s0:s1]][cp] + (deg[csrc] * new).sum(axis=0)
                out_pred.append(pred32(vol))
    if fold is not None:
        return None
    return (np.concatenate(out_vert), counts,
            np.concatenate(out_pred) if want_pred else None)


# The one kernel expands edge embeddings too; this name stays only
# because the benchmark tracer wraps it (ROADMAP item 3).
expand_edge_range = expand_vertex_range
