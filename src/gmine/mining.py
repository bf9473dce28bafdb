"""Mining applications: motif counting, clique discovery, triangle
counting, and frequent subgraph mining with exact minimum-image support.

A Session owns one graph, one embedding store, the worker/budget
configuration, and the metrics dict. Exploration and aggregation both
run range-parallel over the top level through one driver, the windowed
replay. Every explore builds its level as parts cut by the parents'
predictions, held in memory or written out as the plan says, so the
same worker functions see the same offsets in the same order and
results are identical for any worker count, budget, or part layout.
The motif census and the clique count (triangles are 3-cliques) store
levels up to k-1 only: their aggregation runs the explore kernel over
the top in fold mode, and the kernel hands each gather chunk's kept
children to the fold. The census classifies them, asking the kernel
for their attach masks; the clique count only counts them.
"""

import os
import shutil
import tempfile
import time
from functools import partial

import numpy as np

from .explore import (CLIQUE, edge_seed_preds, expand_vertex_range, in_sorted,
                      partition_by_weight, pred32, run_heads)
from .explore import expand_edge_range  # noqa: F401  perfbench/tracer.py wraps it (ROADMAP item 3)
from .fingerprint import MAX_K, PAIR_BIT, PatternHasher
from .spill import PartWriter, plan_spill, replay_top, spill_existing_level
from .store import EmbeddingStore, level_columns


# -- aggregation workers (range functions for runtime.map_ranges) -------

def count_patterns_range(task, ctx):
    """Fold the motif census over the children of top-level offsets
    [lo, hi) without storing them; returns {Pattern: count}.

    The kernel expands the range in fold mode. Per gather chunk, every
    pair of parent positions is tested for adjacency in one binary
    search over the adjacency's sorted keys, a child's bitmap is its
    parent's ORed with the pair bits of the members its new vertex is
    adjacent to (the kernel's attach mask), and one bincount tallies
    the bitmaps. The hasher sees each distinct bitmap of the range once.
    """
    keys = ctx["keys"]
    n = ctx["num_ids"]
    hasher = ctx["hasher"]
    k = len(ctx["slices"]) + 1
    tab = PAIR_BIT[k]
    pi, pj = np.triu_indices(k - 1, 1)
    shift = np.array([tab[i][j] for i, j in zip(pi, pj)], dtype=np.int64)[:, None]
    new = np.array([sum(1 << tab[i][k - 1] for i in range(k - 1) if m >> i & 1)
                    for m in range(1 << (k - 1))], dtype=np.int64)
    tally = np.zeros(1 << k * (k - 1) // 2, dtype=np.int64)

    def fold(emb, cp, cv, masks):
        hit = in_sorted(keys, emb[pi] * n + emb[pj]).astype(np.int64)
        bits = np.bitwise_or.reduce(hit << shift, axis=0)
        np.add(tally, np.bincount(bits[cp] | new[masks()], minlength=len(tally)),
               out=tally)

    expand_vertex_range(task, dict(ctx, fold=fold))
    zeros = (0,) * k
    out = {}
    for b in np.flatnonzero(tally).tolist():
        pat = hasher.classify(zeros, b).pattern
        out[pat] = out.get(pat, 0) + int(tally[b])
    return out


def count_cliques_range(task, ctx):
    """Count the children of top-level offsets [lo, hi) that the CLIQUE
    filter keeps, folding them without storing them or their masks."""
    return expand_vertex_range(task, dict(ctx, filter=CLIQUE, fold=lambda *a: None))


triangle_range = count_cliques_range  # perfbench/tracer.py wraps it (ROADMAP item 3)


# Edge embeddings per chunk of mni_edge_range. Its temporaries (columns,
# key rows, domain codes) grow the peak RSS with the chunk: fsm(g, 3, 180)
# on the seed-1 fsm3-labeled input 0 grows ru_maxrss by 6.4 MiB in 0.125 s
# at 2^12, 4.6 MiB in 0.127 s at 2^11, 6.5 MiB in 0.112 s at 2^13 and
# 10.9 MiB in 0.112 s at 2^14 (medians of 10 fresh processes, 2-vCPU x86
# VM). At 2^13 the fsm3-labeled benchmark read 4.5% less wall_s but 1.3 MiB
# more peak_rss_mb.
MNI_CHUNK = 1 << 12

# A range's domain codes are int32 while its groups * n stays at most
# this, so the largest code, groups * n - 1, fits.
CODE32_MAX = np.iinfo(np.int32).max

_NO_VERTEX = np.iinfo(np.int64).max


# odd-even transposition networks, one per row count (2k end rows for
# k <= MAX_K - 1 edges): r rounds of compare-exchanges on the row pairs
# (i, i+1), i of the round's parity, sort r rows
_NETWORKS = [[(i, i + 1) for t in range(r) for i in range(t % 2, r - 1, 2)]
             for r in range(2 * MAX_K - 1)]


def _sort_rows(rows):
    """Sort the columns of a list of equal-length int64 rows in place."""
    for i, j in _NETWORKS[len(rows)]:
        rows[i], rows[j] = np.minimum(rows[i], rows[j]), np.maximum(rows[i], rows[j])
    return rows


def _edge_rows(cols, eu, ev, labels):
    """Vertex and key rows of edge embeddings given as (k, m) id columns.

    Returns verts, (k+1, m): each embedding's distinct endpoints in the
    hasher's canonical order, ascending by (label, degree inside the
    embedding) with ties by vertex id, padded with -1; and rows,
    (k+2, m): the label of each verts entry (-1 for padding) and then
    the adjacency bitmap over those positions, as PAIR_BIT numbers the
    pairs. Listings of a pattern that differ only inside its tied
    (label, degree) blocks share one key, and the hasher never has to
    reorder a key.

    Each of the 2k ends gets the int64 key (label*(k+1) + degree)*n +
    vertex, with its degree counted by comparing the end rows. A sorting
    network orders the keys per column, so a vertex's ends sit side by
    side; every repeat becomes the int64 maximum, and a second pass of
    the network moves the repeats after the distinct keys, whose first
    k+1 rows are then the canonical order.
    """
    k, m = cols.shape
    n = len(labels)
    if (int(labels.max()) + 1) * (k + 1) * n >= 1 << 63:
        raise OverflowError("labels up to %d on %d vertices overflow the int64 "
                            "key of a %d-edge embedding" % (labels.max(), n, k))
    ends = np.concatenate((eu[cols], ev[cols]))
    key = labels[ends].astype(np.int64, copy=False)
    key *= k + 1
    key += (ends[:, None] == ends[None]).sum(axis=1, dtype=np.int8)
    key *= n
    key += ends
    srt = np.array(_sort_rows(list(key)))
    srt[1:][srt[1:] == srt[:-1]] = _NO_VERTEX
    canon = np.array(_sort_rows(list(srt))[:k + 1])
    pad = canon == _NO_VERTEX
    q = canon // n
    verts = (canon - q * n).astype(ends.dtype)
    verts[pad] = -1
    rows = np.empty((k + 2, m), dtype=labels.dtype)  # a bitmap has at most 28 bits
    np.floor_divide(q, k + 1, out=rows[:-1], casting="unsafe")
    rows[:-1][pad] = -1
    # an end's slot is the number of distinct keys below its own
    slot = (key[:, None] > canon[None]).sum(axis=1, dtype=np.int8)
    nv = k + 1 - pad.sum(axis=0, dtype=np.int8)
    i = np.minimum(slot[:k], slot[k:])
    j = np.maximum(slot[:k], slot[k:])
    bit = i * nv - i * (i + 1) // 2 + (j - i - 1)  # PAIR_BIT[nv][i][j]
    rows[-1] = np.bitwise_or.reduce(1 << bit.astype(np.int64), axis=0)
    return verts, rows


class _RawKeyTable:
    """Per-range map from (label ranks, bitmap) key rows to the pattern
    id and one MNI domain group per position, classifying each key
    once.

    A key row packs into as few int64 words as hold it: width fields of
    rank + 1 (0 for padding), bit_length(#labels) bits each, then the
    bitmap's width*(width-1)/2 bits, no field straddling two words. A
    chunk's keys are deduplicated by one sort (an argsort of one-word
    keys, a lexsort over several words), so only its distinct keys
    become bytes and probe the dict, and only keys new to the range
    reach the hasher, with their ranks mapped back to the labels.
    """

    def __init__(self, hasher, width, label_values):
        self.hasher = hasher
        self.width = width                     # positions: edges + 1
        self.label_values = label_values       # label of each rank
        self.fields = []                       # (word, shift) per key row
        words = used = 0
        for size in ([len(label_values).bit_length()] * width
                     + [width * (width - 1) // 2]):
            if not words or used + size > 63:
                words += 1
                used = 0
            self.fields.append((words - 1, used))
            used += size
        self.words = words
        self.index = {}                        # packed key bytes -> entry
        self.id = np.zeros(0, dtype=np.int64)
        self.group = np.zeros((0, width), dtype=np.int64)
        self.patterns = {}                     # id -> (Pattern, first group, orbit count)
        self.groups = 0                        # domain groups numbered so far

    def lookup(self, rows):
        """Pattern id per column of rows, and its groups as a (width, m) array."""
        m = rows.shape[1]
        packed = np.zeros((self.words, m), dtype=np.int64)
        for f, (w, s) in enumerate(self.fields):  # rank + 1, then the bitmap
            packed[w] |= np.left_shift(rows[f] + (f < self.width), s, dtype=np.int64)
        # only grouping matters, and equal packed words are equal rows
        order = np.argsort(packed[0]) if self.words == 1 else np.lexsort(packed)
        srt = packed[:, order]
        head = np.ones(m, dtype=bool)
        np.any(srt[:, 1:] != srt[:, :-1], axis=0, out=head[1:])
        inv = np.empty(m, dtype=np.int64)
        inv[order] = np.cumsum(head) - 1
        uniq = np.ascontiguousarray(srt[:, head].T)
        keys = uniq.view(np.dtype((np.void, 8 * self.words))).ravel().tolist()
        new = [u for u, key in enumerate(keys) if key not in self.index]
        if new:
            # each new key's row from a column that holds it
            self._add([keys[u] for u in new], rows[:, order[head][new]])
        e = np.fromiter(map(self.index.__getitem__, keys), dtype=np.int64,
                        count=len(keys))[inv]
        return self.id[e], self.group[e].T

    def _add(self, keys, reps):
        ids = []
        gs = []
        labels = self.label_values[reps[:-1]].T.tolist()  # padding cut below
        sizes = (reps[:-1] >= 0).sum(axis=0).tolist()
        for key, lab, nv, bits in zip(keys, labels, sizes, reps[-1].tolist()):
            self.index[key] = len(self.index)
            e = self.hasher.classify(tuple(lab[:nv]), bits)
            rec = self.patterns.get(e.id)
            if rec is None:
                n = max(e.orbits) + 1
                rec = self.patterns[e.id] = (e.pattern, self.groups, n)
                self.groups += n
            ids.append(e.id)
            gs.append([rec[1] + o for o in e.orbits] + [-1] * (self.width - nv))
        self.id = np.concatenate((self.id, np.array(ids, dtype=np.int64)))
        self.group = np.concatenate((self.group, np.array(gs, dtype=np.int64)))

    def results(self, domains):
        """{Pattern: its orbits' domains}, given the domain of every
        group in group order."""
        return {pat: domains[g:g + c] for pat, g, c in self.patterns.values()}


def mni_edge_range(task, ctx):
    """Classify edge embeddings and collect per-orbit vertex domains.

    Works on chunks of id columns: the endpoints give each embedding's
    canonically ordered vertex list, label-rank row and adjacency bitmap
    as arrays, and a per-range table classifies each distinct (ranks,
    bitmap) key once. The domains are one sorted, deduplicated array of
    (domain group) * n + vertex codes per range, one per distinct pair.
    Codes are int32 while table.groups * n is at most CODE32_MAX; from
    the first chunk past it on, a chunk's codes are int64, and so is
    every merge, which promotes the int32 codes it takes. Each chunk's
    codes, sorted and deduplicated, wait until they add up to the
    merged array, which then takes them in one sort and dedupe, and the
    last chunk merges what is left.
    When the range returns, each group becomes the sorted int64 array of
    its lowest cap vertex ids: the reported support min(|domain|, cap)
    is then independent of visit order and worker count. Optionally
    records each embedding's pattern id so the caller can keep only
    embeddings of frequent patterns alive.
    """
    lo, hi = task
    slices = ctx["slices"]
    g = ctx["graph"]
    cap = ctx["cap"]
    n = g.num_vertices
    table = _RawKeyTable(ctx["hasher"], len(slices) + 1, ctx["label_values"])
    ids = np.zeros(hi - lo, dtype=np.int64) if ctx.get("want_ids") else None
    codes = np.zeros(0, dtype=np.int32)
    fresh = []  # sorted chunk codes waiting to merge into codes
    queued = 0
    for a in range(lo, hi, MNI_CHUNK):
        b = min(a + MNI_CHUNK, hi)
        verts, rows = _edge_rows(level_columns(slices, a, b), g.edge_u, g.edge_v,
                                 ctx["label_ranks"])
        pid, groups = table.lookup(rows)
        if ids is not None:
            ids[a - lo:b - lo] = pid
        new = (groups * n + verts)[verts >= 0]
        if table.groups * n <= CODE32_MAX:  # past it, the next merge promotes
            new = new.astype(np.int32)
        new.sort()
        fresh.append(new[run_heads(new)])
        queued += len(fresh[-1])
        # merged once they add up to codes, so each code takes part in
        # O(log) merges and no chunk is searched against codes: on test_09's
        # graph, unbudgeted fsm(g, 3, 2500) took 3.0-3.5 s, 3.6-4.0 s with
        # int64 codes, 5.3-6.1 s with int64 codes searched per chunk and
        # merged at 1/8 of codes, and 31 s with a merge per chunk, 68 s with
        # int64 codes (2-vCPU x86 VM)
        if queued >= len(codes) or b == hi:
            fresh.append(codes)
            codes = np.concatenate(fresh)
            fresh = []  # frees the old codes before the merged ones are built
            codes.sort()
            codes = codes[run_heads(codes)]
            queued = 0
    # bounds in the codes' dtype, so the search casts no copy of codes
    bounds = (np.arange(table.groups + 1) * n).astype(codes.dtype)
    starts = np.searchsorted(codes, bounds).tolist()
    doms = [np.subtract(codes[s:min(e, s + cap)], gi * n, dtype=np.int64)
            for gi, (s, e) in enumerate(zip(starts, starts[1:]))]
    return table.results(doms), ids


# -- merges --------------------------------------------------------------

def merge_counts(acc, part):
    for pat, c in part.items():
        acc[pat] = acc.get(pat, 0) + c
    return acc


def merge_mni(acc, part, cap):
    """Fold part's per-orbit domains into acc's. Each orbit keeps the
    lowest cap ids of the union, so of its whole domain for any split."""
    for pat, doms in part.items():
        have = acc.get(pat)
        acc[pat] = doms if have is None else [
            _sorted_unique(np.concatenate(pair))[:cap] for pair in zip(have, doms)]
    return acc


def _sorted_unique(a):
    """The distinct values of a, ascending; sorts a in place. On two
    concatenated sorted runs the sort is one timsort merge pass."""
    a.sort(kind="stable")
    return a[run_heads(a)]


def mni_support(doms, cap):
    return min(cap, min(len(d) for d in doms))


# -- session --------------------------------------------------------------

class Session:
    """One mining run: graph, store, plan state, workers, metrics.

    Seeding sets ctx, the base context that every phase passes its
    range functions: the CSR the kernel expands over, in vertex mode
    with its sorted row * n + id keys, the id count, the edge ends and
    label ranks in edge mode, the hasher and the id dtype. A phase
    passes a copy extended with its own inputs, which goes when the
    phase ends, so sessions that overlap in one process share nothing.
    """

    def __init__(self, g, workers=1, memory_budget=0, spill_dir=None,
                 parts_per_level=None):
        self.g = g
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError("workers must be at least 1, got %d" % self.workers)
        self.budget = int(memory_budget or 0)
        if self.budget < 0:
            raise ValueError("memory budget must not be negative, got %d"
                             % self.budget)
        # a part is the unit a spilled level is read back in; without a
        # budget none is, and each part only adds a piece to every range
        # that crosses it (replay maps in-memory parts together)
        if parts_per_level is None:
            parts_per_level = self.workers if self.budget else 1
        self.parts_per_level = int(parts_per_level)
        if self.parts_per_level < 1:
            raise ValueError("parts per level must be at least 1, got %d"
                             % self.parts_per_level)
        self._own_dir = spill_dir is None
        self.spill_dir = spill_dir
        self.hasher = PatternHasher()
        self.cse = EmbeddingStore(np.int32)
        self.metrics = {"workers": self.workers, "budget": self.budget}
        self.ctx = None

    # -- seeding -----------------------------------------------------

    def seed_vertices(self, dag=False):
        """Seed level 1 as the identity over the vertices, or with dag
        over the ranks of Graph.rank_dag, each predicting its gather
        volume, its row length, and expand every level over that CSR;
        keys are its sorted row * n + id keys."""
        g = self.g
        csr, keys = ((g.rank_dag, g.rank_dag_keys) if dag
                     else ((g.offsets, g.neighbor_ids), g.edge_keys))
        self._seed(pred32(np.diff(csr[0])), csr=csr, keys=keys, ends=None,
                   num_ids=g.num_vertices)

    def seed_edges(self):
        g = self.g
        values, ranks = np.unique(g.labels, return_inverse=True)
        self._seed(edge_seed_preds(g), graph=g, csr=g.incident_csr,
                   ends=(g.edge_u, g.edge_v), num_ids=g.num_edges,
                   label_values=values, label_ranks=ranks)

    def _seed(self, pred, **base):
        """Seed level 1 as the identity with predictions pred, and set
        the base context to base plus the hasher and the id dtype."""
        self.ctx = dict(base, hasher=self.hasher, id_dtype=self.cse.id_dtype)
        self.cse.seed_identity(len(pred), pred=pred)
        self._note_level()

    def _note_level(self):
        lvl = self.cse.top
        self.metrics["level_%d_embeddings" % lvl.index] = lvl.count
        self.metrics["level_%d_bytes" % lvl.index] = lvl.size_bytes()

    # -- spill directory -----------------------------------------------

    def _ensure_dir(self):
        if self.spill_dir is None:
            root = os.environ.get("GMINE_SPILL_DIR", tempfile.gettempdir())
            self.spill_dir = tempfile.mkdtemp(prefix="gmine_", dir=root)
        os.makedirs(self.spill_dir, exist_ok=True)
        return self.spill_dir

    def close(self):
        """Remove the spill dir if this session created it."""
        if self._own_dir and self.spill_dir is not None:
            shutil.rmtree(self.spill_dir)
            self.spill_dir = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- phases --------------------------------------------------------

    def _next_estimate(self, alive, want_pred):
        """(vert, off, pred) bytes of the next level, whose count the
        alive parents' summed gather volumes bound."""
        top = self.cse.top
        if top.pred is None:
            raise ValueError("level %d has no predictions to plan from" % top.index)
        w = int(top.pred.sum(dtype=np.int64, where=True if alive is None else alive))
        idw = self.cse.id_dtype.itemsize
        return (w * idw, (top.count + 1) * 8, w * 4 if want_pred else 0)

    def plan(self, next_estimate):
        """Plan a phase that builds a level of next_estimate bytes, spill
        what the plan puts on disk, and say whether the new level goes
        there too. A fold phase builds no level: (0, 0, 0) charges its
        windows and the top's predictions."""
        cse = self.cse
        spill_from, est = plan_spill(cse, self.budget, next_estimate)
        self.metrics["peak_resident_estimate"] = max(
            self.metrics.get("peak_resident_estimate", 0), est)
        spill_next = spill_from <= cse.depth + 1
        if spill_next:
            self._ensure_dir()
        for lvl in cse.levels[spill_from - 1:]:
            spill_existing_level(lvl, self.spill_dir, self.metrics)
        return spill_next

    def explore(self, flt=None, alive=None, want_pred=True):
        """Grow the store by one level, spilling per the plan.

        flt keeps a candidate id c only where the boolean id mask flt[c]
        is true, or, as explore.CLIQUE, only where c is in every member's
        list of the session's CSR and above its largest member (a CLIQUE
        level predicts only its newest members' lists, so explore it with
        CLIQUE again); alive keeps a top-level parent only where
        alive[parent].
        """
        t0 = time.perf_counter()
        cse = self.cse
        top = cse.top
        est = self._next_estimate(alive, want_pred)
        spill_next = self.plan(est)
        pred_chunks = [np.zeros(0, np.int32)]
        cuts = partition_by_weight(top.pred, self.parts_per_level)
        writer = PartWriter(self.spill_dir if spill_next else None, top.index + 1,
                            cse.id_dtype, cuts, self.metrics)

        def consume(lo, hi, res):
            vert, counts, pred = res
            pred_chunks.append(pred)
            writer.feed(vert, counts)

        # the phase context is never named, so it goes when the replay ends
        replay_top(cse, self.workers, expand_vertex_range,
                   dict(self.ctx, filter=flt, alive=alive, want_pred=want_pred,
                        pred=top.pred),
                   consume, self.metrics)
        cse.append_level(writer.close(),
                         np.concatenate(pred_chunks) if want_pred else None)
        top.pred = None  # only the newest level needs its predictions
        bound = est[0] // cse.id_dtype.itemsize
        if cse.top.count > bound:
            raise AssertionError("level %d holds %d embeddings, more than the %d its "
                                 "plan charged" % (cse.top.index, cse.top.count, bound))
        self._note_level()
        self.metrics["explore_seconds"] = (self.metrics.get("explore_seconds", 0.0)
                                           + time.perf_counter() - t0)

    def aggregate(self, fn, merge, init, extra_ctx=None):
        """Fold fn over the whole top level in offset order, passing fn
        the session's context plus extra_ctx."""
        t0 = time.perf_counter()
        acc = init

        def consume(lo, hi, res):
            nonlocal acc
            acc = merge(acc, res)

        replay_top(self.cse, self.workers, fn, dict(self.ctx, **(extra_ctx or {})),
                   consume, self.metrics)
        self.metrics["aggregate_seconds"] = (self.metrics.get("aggregate_seconds", 0.0)
                                             + time.perf_counter() - t0)
        return acc


# -- applications ----------------------------------------------------------

def motif_count(g, k, workers=1, memory_budget=0, spill_dir=None,
                parts_per_level=None):
    """Count induced connected k-vertex patterns, 3 <= k <= 5.

    Labels are ignored: motif classes are structural. Level k is folded
    into count_patterns_range, never stored; its metrics keep its count
    and report 0 bytes. Returns ({Pattern: count}, metrics).
    """
    if not 3 <= k <= 5:
        raise ValueError("motif size must be 3..5")
    with Session(g, workers, memory_budget, spill_dir, parts_per_level) as s:
        s.seed_vertices()
        for _ in range(2, k):
            s.explore()
        s.plan((0, 0, 0))
        counts = s.aggregate(count_patterns_range, merge_counts, {})
    # every child of the top falls in exactly one pattern's count
    s.metrics["level_%d_embeddings" % k] = sum(counts.values())
    s.metrics["level_%d_bytes" % k] = 0
    return counts, s.metrics


def clique_discovery(g, k, workers=1, memory_budget=0, spill_dir=None,
                     parts_per_level=None):
    """Count k-cliques, 3 <= k <= 8, over the graph's rank DAG.

    Level 1 holds the ranks of Graph.rank_dag and every level expands
    over its out-lists with the CLIQUE filter. A clique's children are
    the entries of its newest (highest) member's out-list that every
    other member's out-list holds, found by binary search over the
    DAG's sorted keys: each is adjacent to and ranked above every
    member, so level j holds each j-clique once, as its ascending rank
    sequence. A clique's prediction is its newest member's out-degree,
    the one list its expansion gathers. Level k is folded into
    count_cliques_range, never stored; its metrics keep its count and
    report 0 bytes.
    """
    if not 3 <= k <= 8:
        raise ValueError("clique size must be 3..8")
    with Session(g, workers, memory_budget, spill_dir, parts_per_level) as s:
        s.seed_vertices(dag=True)
        for _ in range(2, k):
            s.explore(flt=CLIQUE)
        s.plan((0, 0, 0))
        count = s.aggregate(count_cliques_range, lambda a, b: a + b, 0)
    s.metrics["level_%d_embeddings" % k] = count
    s.metrics["level_%d_bytes" % k] = 0
    return count, s.metrics


def triangle_count(g, workers=1, memory_budget=0, spill_dir=None,
                   parts_per_level=None):
    """Count triangles as 3-cliques."""
    return clique_discovery(g, 3, workers, memory_budget, spill_dir, parts_per_level)


def fsm(g, k_edges, support, workers=1, memory_budget=0, spill_dir=None,
        parts_per_level=None):
    """Frequent subgraph mining with exact minimum-image support.

    Returns ({Pattern: support}, metrics) over all frequent
    patterns of 1..k_edges edges; reported supports are capped at the
    threshold. Infrequent edges are dropped after the size-1 round and
    embeddings of infrequent patterns are not expanded, which is exact
    because minimum-image support never grows when a pattern does.
    """
    if not 1 <= k_edges <= 7:
        raise ValueError("edge count must be 1..7")
    if support < 1:
        raise ValueError("support threshold must be positive")
    result = {}
    with Session(g, workers, memory_budget, spill_dir, parts_per_level) as s:
        s.seed_edges()
        for size in range(1, k_edges + 1):
            agg = s.aggregate(mni_edge_range, partial(_merge_mni_ids, cap=support),
                              ({}, []), {"cap": support, "want_ids": size < k_edges})
            frequent, alive = _frequent(agg, s.cse.top.count, support, s.hasher)
            result.update(frequent)
            if size == k_edges or not frequent:
                break
            if size == 1:
                edge_ok = alive  # level 1 is the identity over edge ids
            s.explore(flt=edge_ok, alive=alive, want_pred=size + 1 < k_edges)
    return result, s.metrics


def _merge_mni_ids(acc, res, cap):
    pats, id_chunks = acc
    part, ids = res
    merge_mni(pats, part, cap)
    if ids is not None:
        id_chunks.append(ids)
    return pats, id_chunks


def _frequent(agg, count, support, hasher):
    """The frequent patterns of an aggregated level with their supports,
    and the mask of its embeddings whose pattern is frequent (None when
    no ids were recorded or nothing is frequent)."""
    pats, id_chunks = agg
    frequent = {p: sup for p, d in pats.items()
                if (sup := mni_support(d, support)) >= support}
    if not id_chunks:
        return frequent, None
    ids = np.concatenate(id_chunks)
    if len(ids) != count:
        raise AssertionError("pattern id coverage mismatch")
    if not frequent:
        return frequent, None
    ok = np.zeros(int(ids.max()) + 1, dtype=bool)  # a frequent pattern's id is in ids
    ok[[hasher.id_of(p) for p in frequent]] = True
    return frequent, ok[ids]


# -- result serialization ---------------------------------------------------

def result_lines(items):
    """Deterministic text form: one '<pattern>\\t<value>' line per entry,
    ordered by the serialized pattern text."""
    rows = sorted((pat.serialize(), val) for pat, val in items.items())
    return ["%s\t%d" % (ser, val) for ser, val in rows]

