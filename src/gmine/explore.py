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
DAG, whose ids are ranks), an edge the incident-edge rows of its
endpoints, each endpoint gathered once per parent, from the lowest
member that has it. The kernel reads blocks of parents as id columns,
gathers those lists, and sorts one int64 key per gathered entry, the
bit field parent << sh | id << 3 | attach with sh = bit_length(n - 1)
+ 3 for n ids: the parent's column in its gather chunk, the candidate
id and the member's position. A run of equal key >> 3 is one candidate
of one parent and its first key the earliest attachment, so shifts and
masks unpack it, and the rules, the filters and the predictions become
array compares. A shared endpoint's copies at higher members would
only add later keys to runs its lowest member's entries already head.
A fold's attach masks, built only when the fold asks for them, are one
prefix sum of 1 << attach, differenced at the run bounds.

A clique child is adjacent to every member, so it lies in the newest
member's list: under the CLIQUE filter the kernel gathers that list
only, keeps the entries above the largest member, and tests them
against each other member's row by binary search over the CSR's sorted
row * n + id keys (Chiba and Nishizeki, 1985; Danisch et al., WWW
2018). No key is built or sorted, and a clique child's prediction is
the length of its own list.
"""

import numpy as np

from .store import level_columns

# Parents read as one block of id columns, and list entries per gather.
# A key is parent << sh | id << 3 | attach with parent < BLOCK, and the
# kernel checks that it fits an int64. Each gather chunk makes a few
# dozen numpy calls whose Python overhead holds the GIL. On a 2-vCPU VM,
# test_11's 4-motif census ran 0.42-0.56 s on 1 thread and 0.38-0.42 s
# on 2 with 2^13 entries, 0.36-0.53 and 0.27-0.35 s with 2^14. At 2^15
# one thread took 45% longer on the motif4 benchmark input. Against
# 2^13, 2^14 raises peak_rss_mb by 0.7 MiB on motif4-spill and by
# 0.9 MiB on clique4-powerlaw (41.2 and 41.3 MiB).
BLOCK = 1 << 13
GATHER = 1 << 14

# Filter that keeps a vertex candidate only when it is in every member's
# list and above the largest member: adjacent to every member over the
# adjacency, and also ranked above every member over the rank DAG.
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


def ragged(starts, lens, tags):
    """Flat indices of the slices [starts[j], starts[j] + lens[j]), in
    order, and the tag tags[j] of each slice's entries."""
    shift = np.repeat(starts - np.cumsum(lens) + lens, lens)
    return shift + np.arange(len(shift)), np.repeat(tags, lens)


def _sources(ids, ends):
    """The CSR rows whose slices ids touch: a vertex its own row, an edge
    its first endpoints' rows stacked over its second endpoints'."""
    return np.atleast_2d(ids) if ends is None else np.vstack((ends[0][ids], ends[1][ids]))


# -- range expansion ---------------------------------------------------

def _clique_children(emb, starts, lens, ids, keys, n):
    """The kept (parent column, id) pairs of a gather chunk under CLIQUE,
    in child order: the entries of the newest members' slices [starts,
    starts + lens) that exceed the largest member and are found in each
    other member's row, member by member on the survivors. Slices ascend
    and parents come in column order, so no sort is due."""
    idx, cp = ragged(starts, lens, np.arange(emb.shape[1]))
    cv = ids[idx].astype(np.int64)
    sel = np.flatnonzero(cv > emb.max(axis=0)[cp])
    cp, cv = cp[sel], cv[sel]
    for row in emb[:-1]:
        sel = np.flatnonzero(in_sorted(keys, row[cp].astype(np.int64) * n + cv))
        cp, cv = cp[sel], cv[sel]
    return cp, cv


def expand_vertex_range(task, ctx):
    """Expand top-level offsets [lo, hi) by one id.

    Reads the CSR, slices, filter, alive mask and the top's predictions
    from the phase context ctx and returns (vert, counts, preds) arrays
    for the range, children ascending per parent. The filter is None, a
    boolean mask over ids, or CLIQUE. A prediction is the gather volume
    the next explore reads, which bounds the children: the list lengths
    of an embedding's distinct sources, each of which it gathers once
    (an endpoint that edge members share, from the lowest of them). A
    child's is its parent's plus those of its sources no member has,
    with no gather. Under CLIQUE it
    is the length of the child's own list, the one list a CLIQUE explore
    gathers, so a CLIQUE level's predictions bound only a CLIQUE
    explore.

    With ctx["fold"], no child is stored: each gather chunk calls
    fold(emb, cp, cv, masks) with its parents' (k, p) id columns, the
    kept children as parent column cp and id cv, and a function whose
    call builds each child's mask of attach positions, the OR of 1 <<
    attach over its key run (in vertex mode, the members adjacent to
    the new vertex; under CLIQUE, every member), and the range returns
    the number of children it handed to the fold.
    """
    lo, hi = task
    slices = ctx["slices"]
    off, ids = ctx["csr"]
    ends = ctx["ends"]
    n = ctx["num_ids"]
    flt = ctx.get("filter")
    clique = flt is CLIQUE
    alive = ctx.get("alive")
    fold = ctx.get("fold")
    want_pred = ctx.get("want_pred", True)
    k = len(slices)
    if k > 8:
        raise ValueError("cannot expand %d-member embeddings: attach indices "
                         "pack into 3 bits" % k)
    sh = (n - 1).bit_length() + 3  # key = parent << sh | id << 3 | attach
    if (BLOCK - 1) << sh >= 1 << 63:
        raise OverflowError("%d parents of %d ids overflow an int64 key"
                            % (BLOCK, n))
    id_mask = (1 << sh - 3) - 1
    deg = np.diff(off)
    id_dtype = ctx["id_dtype"]
    counts = np.zeros(hi - lo, dtype=np.int32)
    folded = 0
    out_vert = [np.zeros(0, id_dtype)]
    out_pred = [np.zeros(0, np.int32)]

    def masks():
        # the current chunk's, read from this scope: a clique child is
        # adjacent to every member, and a non-member's attaches in a run
        # are distinct, so the sum of 1 << attach over the run is their OR
        if clique:
            return np.full(len(cv), (1 << k) - 1, dtype=np.int64)
        cum = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(1 << (keys & 7), out=cum[1:])
        return cum[np.append(first, len(keys))[sel + 1]] - cum[first[sel]]

    for b0 in range(lo, hi, BLOCK):
        b1 = min(b0 + BLOCK, hi)
        live = np.arange(b1 - b0) if alive is None else np.flatnonzero(alive[b0:b1])
        cols = level_columns(slices, b0, b1)[:, live]
        # row = source * k + attach; CLIQUE gathers the newest member's only
        src = cols[-1:] if clique else _sources(cols, ends)
        lens = deg[src]
        attach = (np.arange(len(src)) % k)[:, None]
        if ends is not None:  # each endpoint once, from the lowest member that has it
            # a row pair per compare: one (2k, 2k, p) broadcast compares
            # every pair and took 15% longer per fsm3-labeled explore
            for r, q in zip(*np.nonzero(attach > attach.T)):
                lens[r][src[r] == src[q]] = 0
        for s0, s1 in chunks(lens.sum(axis=0), GATHER):
            emb = cols[:, s0:s1]
            p = s1 - s0
            if clique:
                cp, cv = _clique_children(emb, off[src[0, s0:s1]], lens[0, s0:s1],
                                          ids, ctx["keys"], n)
            else:
                base = (np.arange(p, dtype=np.int64) << sh) | attach
                idx, keys = ragged(off[src[:, s0:s1]].ravel(), lens[:, s0:s1].ravel(),
                                   base.ravel())
                keys += ids[idx].astype(np.int64) << 3
                del idx  # not held through the sort
                keys.sort()
                first = np.flatnonzero(run_heads(keys >> 3))
                head = keys[first]  # each run's earliest attachment
                rw = head >> 3 & id_mask
                # a child attached at i exceeds the head and every member
                # after i, so no member passes (a later one attaches
                # before itself)
                lim = np.empty_like(emb)
                lim[:-1] = np.maximum.accumulate(emb[::-1], axis=0)[-2::-1]
                lim[-1] = emb[0]  # members after the head already exceed it
                keep = rw > lim.ravel()[(head & 7) * p + (head >> sh)]  # lim[attach, parent]
                if flt is not None:
                    keep &= flt[rw]
                sel = np.flatnonzero(keep)
                kept = head[sel]
                cp = kept >> sh
                cv = kept >> 3 & id_mask
            if fold is not None:
                fold(emb, cp, cv, masks)
                folded += len(cv)
                continue
            counts[b0 - lo + live[s0:s1]] = np.bincount(cp, minlength=p)
            out_vert.append(cv.astype(id_dtype))
            if want_pred and clique:
                out_pred.append(pred32(deg[cv]))
            elif want_pred:
                csrc = _sources(cv, ends)
                new = ~(src[:, s0:s1][:, cp] == csrc[:, None]).any(axis=1)
                vol = ctx["pred"][b0 + live[s0:s1]][cp] + (deg[csrc] * new).sum(axis=0)
                out_pred.append(pred32(vol))
    if fold is not None:
        return folded
    return (np.concatenate(out_vert), counts,
            np.concatenate(out_pred) if want_pred else None)


# The one kernel expands edge embeddings too; this name stays only
# because the benchmark tracer wraps it (ROADMAP item 3).
expand_edge_range = expand_vertex_range
