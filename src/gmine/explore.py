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
own row (its neighbors, or its out-neighbors in the rank DAG, whose
ids are ranks), an edge the incident-edge rows of its endpoints, each
endpoint gathered once per parent, from the lowest member that has it. The kernel reads blocks of parents as id columns,
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

Under the CLIQUE filter the store itself holds the candidates (the
kClist recursion: Chiba and Nishizeki, 1985; Danisch et al., WWW
2018). A clique P's children are the ids adjacent to and above every
member of P, ascending, so the children of its child P + c are c's
later siblings that are adjacent to c. The kernel gathers each top
embedding's later siblings from its own slice of the top part and
tests each once, against the newest member's row, by binary search
over the CSR's sorted row * n + id keys. No key is built or sorted,
and a clique child's prediction is its number of later kept siblings,
what the next CLIQUE explore gathers. This holds only over a top that
a CLIQUE explore built, so the session names that level in its
context and the kernel refuses any other top. Siblings never leave a
part: parts are cut at parent boundaries.

A vertex session's level 2 needs no kernel: vertex v's children are
the entries of its CSR row above v (over the rank DAG, its whole
out-row), and expand_identity copies them.
"""

import numpy as np

from .store import level_columns, parent_rows

# Parents read as one block of id columns, and list entries per gather.
# A key is parent << sh | id << 3 | attach with parent < BLOCK, and the
# kernel checks that it fits an int64. Each gather chunk makes a few
# dozen numpy calls whose Python overhead holds the GIL. On a 2-vCPU VM,
# test_11's 4-motif census ran 0.42-0.56 s on 1 thread and 0.38-0.42 s
# on 2 with 2^13 entries, 0.36-0.53 and 0.27-0.35 s with 2^14. At 2^15
# one thread took 45% longer on the motif4 benchmark input. Against
# 2^13, 2^14 raises peak_rss_mb by 0.7 MiB on motif4-spill and by
# 0.9 MiB on clique4-powerlaw (41.2 and 41.3 MiB). A block's gather chunks
# are cut by partition_by_weight into ceil(volume / GATHER) parts, so a
# chunk can exceed GATHER by one parent's volume.
BLOCK = 1 << 13
GATHER = 1 << 14

# Filter that keeps a vertex candidate only when it is in every member's
# list and above the largest member: adjacent to every member over the
# adjacency, and also ranked above every member over the rank DAG. The
# kernel applies it to the later siblings of a level it built.
CLIQUE = "clique"


PRED_MAX = np.iinfo(np.int32).max


def pred32(volumes):
    """int64 gather volumes as int32 predictions; raises, never wraps."""
    if len(volumes) and volumes.max() > PRED_MAX:
        raise OverflowError("a gather volume of %d does not fit an int32 "
                            "prediction" % volumes.max())
    return volumes.astype(np.int32)


# -- weight-balanced range partition ------------------------------------

def partition_by_weight(weights, t):
    """Split 0..n into t contiguous ranges of near-equal total weight.

    Returns t+1 ascending cut points; cut j is the first index whose
    weight prefix reaches j/t of the total, so no part exceeds total/t
    plus one maximal single weight. Integer arithmetic throughout keeps
    the cuts exactly reproducible. The prefix is the one n-long array
    built: prefix * t reaches j * total where prefix reaches j * total / t
    rounded up, so that is what is searched.
    """
    w = np.asarray(weights)
    n = len(w)
    if n and w.strides == (0,) and w[0] > 0:
        # equal weights, as np.broadcast_to gives them: the prefix is the
        # index times the weight, so cut j is j * n / t rounded up
        return -(-np.arange(t + 1, dtype=np.int64) * n // t)
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(w, dtype=np.int64, out=prefix[1:])
    total = int(prefix[-1])
    cuts = np.searchsorted(prefix, -(-np.arange(t + 1, dtype=np.int64) * total // t),
                           side="left").astype(np.int64)
    cuts[-1] = n  # zero-weight tails still belong to the last part
    return cuts


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


def seed_preds(csr, ends, n):
    """Level 1's predictions over ids 0..n-1: each id's gather volume,
    the summed list lengths of its (distinct) sources."""
    return pred32(np.diff(csr[0])[_sources(np.arange(n), ends)].sum(axis=0))


# -- range expansion ---------------------------------------------------

def expand_identity(task, ctx):
    """Expand vertices [lo, hi) of a vertex session's identity level 1
    without the kernel.

    Vertex v's children are the entries of its CSR row above v, kept
    where the filter (None, a boolean id mask, or CLIQUE, which all of
    them pass) and alive[v] allow: ascending, canonical, and adjacent
    to and above v. Returns (vert, counts, preds) as expand_vertex_range
    does: a prediction is the kernel's rule, the two rows' lengths, or
    under CLIQUE the number of the child's later kept siblings.
    """
    lo, hi = task
    off, ids = ctx["csr"]
    flt = ctx.get("filter")
    alive = ctx.get("alive")
    deg = np.diff(off)
    rows = np.repeat(np.arange(lo, hi, dtype=ids.dtype), deg[lo:hi])
    vert = ids[off[lo]:off[hi]]
    keep = vert > rows
    if alive is not None:
        keep &= alive[rows]
    if flt is not None and flt is not CLIQUE:
        keep &= flt[vert]
    vert = vert[keep].astype(ctx["id_dtype"], copy=False)
    rows = rows[keep] - lo
    del keep
    counts = np.bincount(rows, minlength=hi - lo)
    if not ctx.get("want_pred", True):
        return vert, counts, None
    if flt is CLIQUE:
        pred = np.cumsum(counts)[rows]  # one past each child's last sibling
        pred -= np.arange(1, len(vert) + 1)
        return vert, counts, pred32(pred)
    return vert, counts, pred32(np.add(deg[rows + lo], deg[vert], dtype=np.int64))


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
    with no gather. Under CLIQUE the candidates are each top
    embedding's later siblings, which only a top that a CLIQUE explore
    built holds (ctx["clique_level"] names it; any other top raises
    ValueError), and a child's prediction is its number of later kept
    siblings, so a CLIQUE level's predictions bound only a CLIQUE
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
    if clique and ctx.get("clique_level") != k:
        raise ValueError("level %d was not built by a CLIQUE explore, so its "
                         "slices are not clique candidates" % k)
    sh = (n - 1).bit_length() + 3  # key = parent << sh | id << 3 | attach
    if (BLOCK - 1) << sh >= 1 << 63:
        raise OverflowError("%d parents of %d ids overflow an int64 key"
                            % (BLOCK, n))
    id_mask = (1 << sh - 3) - 1
    deg = np.diff(off)
    id_dtype = ctx["id_dtype"]
    tp = slices[-1]
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
        if clique:
            # offset o's later siblings: tp.vert[o + 1 - vs : end(o) - vs]
            sib = b0 + 1 - tp.vs + live
            stop = tp.off[parent_rows(tp, b0, b1)[live] + 1] - tp.vs
            if len(stop) and stop[-1] > tp.ve - tp.vs:
                raise AssertionError("a sibling slice at level %d ends at %d, past "
                                     "its part's end %d"
                                     % (k, stop[-1] + tp.vs, tp.ve))
            vol = lens = stop - sib
        else:
            # row = source * k + attach
            src = _sources(cols, ends)
            lens = deg[src]
            attach = (np.arange(len(src)) % k)[:, None]
            if ends is not None:  # each endpoint once, from the lowest member that has it
                # a row pair per compare: one (2k, 2k, p) broadcast compares
                # every pair and took 15% longer per fsm3-labeled explore
                for r, q in zip(*np.nonzero(attach > attach.T)):
                    lens[r][src[r] == src[q]] = 0
            vol = lens.sum(axis=0)
        t = max(1, -(-int(vol.sum()) // GATHER))
        cuts = partition_by_weight(vol, t).tolist()
        for s0, s1 in zip(cuts, cuts[1:]):
            if s0 == s1:
                continue
            emb = cols[:, s0:s1]
            p = s1 - s0
            if clique:
                idx, cp = ragged(sib[s0:s1], lens[s0:s1], np.arange(p))
                cv = tp.vert[idx].astype(np.int64)
                sel = np.flatnonzero(in_sorted(ctx["keys"], emb[-1][cp] * n + cv))
                cp, cv = cp[sel], cv[sel]
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
            born = np.bincount(cp, minlength=p)
            counts[b0 - lo + live[s0:s1]] = born
            out_vert.append(cv.astype(id_dtype))
            if want_pred and clique:
                # a parent's children are one run of cp, in order
                out_pred.append(pred32(np.cumsum(born)[cp] - np.arange(1, len(cp) + 1)))
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
