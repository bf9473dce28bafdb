"""Mining applications: motif counting, clique discovery, triangle
counting, and frequent subgraph mining with exact minimum-image support.

A Session owns one graph, one embedding store, the worker/budget
configuration, and the metrics dict. Exploration and aggregation both
run range-parallel over the top level through one driver, the windowed
replay: a memory-resident top is a replay with one window, so the same
worker functions see the same offsets in the same order and results
are identical for any worker count, budget, or part layout.
"""

import os
import shutil
import tempfile
import time
from bisect import bisect_right

import numpy as np

from . import runtime
from .explore import (edge_seed_preds, expand_vertex_range, partition_by_weight,
                      touch_lists, uniform_ranges, vertex_seed_preds)
from .explore import expand_edge_range  # noqa: F401  perfbench/tracer.py wraps it (ROADMAP item 1)
from .fingerprint import PAIR_BIT, PatternHasher, check_same_pattern
from .spill import (PartWriter, plan_spill, replay_top, spill_existing_level,
                    write_manifest)
from .store import EmbeddingStore, iter_embeddings, level_columns


# -- aggregation workers (module level so pools can address them) -------

# Embeddings classified per chunk of the range: bounds the column and
# bitmap arrays to a few hundred KiB whatever the range length.
CHUNK = 1 << 14


def count_patterns_range(task):
    """Classify vertex embeddings in [lo, hi) and count per pattern.

    Works on chunks of id columns: each position pair is tested for
    adjacency in one binary search over the graph's sorted edge keys,
    the hits form one adjacency bitmap per embedding, and the hasher
    sees each distinct bitmap once.
    """
    lo, hi = task
    ctx = runtime.get_context()
    slices = ctx["slices"]
    keys = ctx["edge_keys"]
    n = ctx["num_vertices"]
    hasher = ctx["hasher"]
    k = len(slices)
    tab = PAIR_BIT[k]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    last = len(keys) - 1
    zeros = (0,) * k
    out = {}
    for a in range(lo, hi, CHUNK):
        cols = level_columns(slices, a, min(a + CHUNK, hi))
        bits = np.zeros(cols.shape[1], dtype=np.int64)
        for i, j in pairs:
            q = cols[i] * n + cols[j]
            hit = keys[np.minimum(np.searchsorted(keys, q), last)] == q
            bits |= hit.astype(np.int64) << tab[i][j]
        uniq, cnt = np.unique(bits, return_counts=True)
        for b, c in zip(uniq.tolist(), cnt.tolist()):
            e = hasher.classify(zeros, b)
            rec = out.get(e.hash)
            if rec is None:
                out[e.hash] = [e.pattern, c]
            else:
                rec[1] += c
    return out


# Edge embeddings per chunk of mni_edge_range. Its temporaries (columns,
# key rows, domain codes) grow the peak RSS with the chunk: on the
# fsm3-labeled benchmark input 2^12 stays below the peak of a
# per-embedding loop, and 2^14 adds about 6.5 MiB.
MNI_CHUNK = 1 << 12


def _edge_rows(cols, eu, ev, labels):
    """Vertex and key rows of edge embeddings given as (k, m) id columns.

    Returns verts, (k+1, m): each embedding's distinct endpoints in
    ascending order, padded with -1; and rows, (k+2, m): the label of
    each verts entry (-1 for padding) and then the adjacency bitmap over
    those positions, as PAIR_BIT numbers the pairs.
    """
    k, m = cols.shape
    ends = np.concatenate((eu[cols], ev[cols]))
    order = np.argsort(ends, axis=0)
    srt = np.take_along_axis(ends, order, axis=0)
    first = np.ones(srt.shape, dtype=bool)
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    rank = np.cumsum(first, axis=0, dtype=np.int8) - 1  # positions stay below 9
    nv = rank[-1] + 1
    pos = np.empty_like(rank)
    np.put_along_axis(pos, order, rank, axis=0)
    i = np.minimum(pos[:k], pos[k:])
    j = np.maximum(pos[:k], pos[k:])
    bit = i * nv - i * (i + 1) // 2 + (j - i - 1)  # PAIR_BIT[nv][i][j]
    verts = np.full((k + 1, m), -1, dtype=ends.dtype)
    verts[rank[first], np.nonzero(first)[1]] = srt[first]
    rows = np.empty((k + 2, m), dtype=labels.dtype)  # a bitmap has at most 28 bits
    rows[:-1] = np.where(verts >= 0, labels[verts], -1)
    rows[-1] = np.bitwise_or.reduce(np.int32(1) << bit, axis=0)
    return verts, rows


class _RawKeyTable:
    """Per-range map from (labels, bitmap) key rows to the pattern hash
    and one MNI domain group per position, classifying each key once.

    A row's bytes are its exact key whatever the label values, so
    looking up a chunk costs one dict probe per embedding and only keys
    new to the range reach the hasher.
    """

    def __init__(self, hasher, width):
        self.hasher = hasher
        self.width = width                     # positions: edges + 1
        self.index = {}                        # row bytes -> entry
        self.hash = np.zeros(0, dtype=np.uint64)
        self.group = np.zeros((0, width), dtype=np.int64)
        self.patterns = {}                     # hash -> (Pattern, first group, orbit count)
        self.domains = []                      # one vertex set per group

    def lookup(self, rows):
        """Hash per column of rows, and its groups as a (width, m) array."""
        keys = np.ascontiguousarray(rows.T).view(
            np.dtype((np.void, rows.itemsize * len(rows)))).ravel().tolist()
        new = sorted(set(keys).difference(self.index))
        if new:
            self._add(new, rows.dtype)
        e = np.fromiter(map(self.index.__getitem__, keys), dtype=np.int64,
                        count=len(keys))
        return self.hash[e], self.group[e].T

    def _add(self, keys, dtype):
        hs = []
        gs = []
        for key in keys:
            self.index[key] = len(self.index)
            row = np.frombuffer(key, dtype=dtype).tolist()
            nv = row.index(-1) if row[-2] < 0 else self.width
            e = self.hasher.classify(tuple(row[:nv]), row[-1])
            rec = self.patterns.get(e.hash)
            if rec is None:
                rec = self.patterns[e.hash] = (e.pattern, len(self.domains), e.orbit_count)
                self.domains.extend(set() for _ in range(e.orbit_count))
            hs.append(e.hash)
            gs.append([rec[1] + o for o in e.position_orbits()] + [-1] * (self.width - nv))
        self.hash = np.concatenate((self.hash, np.array(hs, dtype=np.uint64)))
        self.group = np.concatenate((self.group, np.array(gs, dtype=np.int64)))

    def results(self):
        return {h: [pat, self.domains[g:g + c]]
                for h, (pat, g, c) in self.patterns.items()}


def mni_edge_range(task):
    """Classify edge embeddings and accumulate per-orbit vertex domains.

    Works on chunks of id columns: the endpoints give each embedding's
    sorted vertex list, label row and adjacency bitmap as arrays, a
    per-range table classifies each distinct (labels, bitmap) key once,
    and each chunk's deduplicated (domain group, vertex) codes feed the
    domains. Domains stop growing at the support threshold; the
    reported support min(|domain|, cap) is then independent of visit
    order and worker count. Optionally records each embedding's pattern
    hash so the caller can keep only embeddings of frequent patterns
    alive.
    """
    lo, hi = task
    ctx = runtime.get_context()
    slices = ctx["slices"]
    g = ctx["graph"]
    vid = ctx["vertex_ids"]  # shared int objects for the domain sets
    cap = ctx["cap"]
    n = g.num_vertices
    table = _RawKeyTable(ctx["hasher"], len(slices) + 1)
    doms = table.domains
    hashes = np.zeros(hi - lo, dtype=np.uint64) if ctx.get("want_hashes") else None
    for a in range(lo, hi, MNI_CHUNK):
        b = min(a + MNI_CHUNK, hi)
        verts, rows = _edge_rows(level_columns(slices, a, b), g.edge_u, g.edge_v,
                                 g.labels)
        h, groups = table.lookup(rows)
        if hashes is not None:
            hashes[a - lo:b - lo] = h
        codes = np.unique((groups * n + verts)[verts >= 0])
        grp = codes // n
        vl = (codes - grp * n).tolist()
        cuts = (np.flatnonzero(grp[1:] != grp[:-1]) + 1).tolist()
        starts = [0] + cuts
        for gi, s, e in zip(grp[starts].tolist(), starts, cuts + [len(vl)]):
            d = doms[gi]
            if len(d) + e - s <= cap:
                d.update(map(vid.__getitem__, vl[s:e]))
            else:  # one at a time, so that no set outgrows the cap
                for v in vl[s:e]:
                    if len(d) >= cap:
                        break
                    d.add(vid[v])
    return table.results(), hashes


def triangle_range(task):
    """Count common neighbors above the larger endpoint per 2-embedding."""
    lo, hi = task
    ctx = runtime.get_context()
    slices = ctx["slices"]
    adj = ctx["adj"]
    sets = ctx["adj_sets"]
    total = 0
    for _, emb in iter_embeddings(slices, lo, hi):
        u, v = emb
        au = adj[u]
        sv = sets[v]
        for w in au[bisect_right(au, v):]:
            if w in sv:
                total += 1
    return total


# -- merges --------------------------------------------------------------

def merge_counts(acc, part):
    for h, (pat, c) in part.items():
        rec = acc.get(h)
        if rec is None:
            acc[h] = [pat, c]
        else:
            check_same_pattern(h, rec[0], pat)
            rec[1] += c
    return acc


def merge_mni(acc, part):
    for h, (pat, doms) in part.items():
        rec = acc.get(h)
        if rec is None:
            acc[h] = [pat, doms]
        else:
            check_same_pattern(h, rec[0], pat)
            for mine, theirs in zip(rec[1], doms):
                mine |= theirs
    return acc


def mni_support(doms, cap):
    return min(cap, min(len(d) for d in doms))


# -- session --------------------------------------------------------------

class Session:
    """One mining run: graph, store, plan state, workers, metrics."""

    def __init__(self, g, mode="vertex", workers=1, memory_budget=0,
                 spill_dir=None, parts_per_level=None, labeled=False):
        self.g = g
        self.mode = mode
        self.workers = max(1, int(workers))
        self.budget = int(memory_budget or 0)
        self.parts_per_level = int(parts_per_level or self.workers)
        self._own_dir = spill_dir is None
        self.spill_dir = spill_dir
        self.labeled = labeled
        self.hasher = PatternHasher((g.max_label if labeled else 0) + 2)
        self.cse = EmbeddingStore(mode, np.int32)
        self.metrics = {"workers": self.workers, "budget": self.budget}
        self._base_ctx_set = False

    # -- seeding -----------------------------------------------------

    def seed_vertices(self):
        self.cse.seed_identity(self.g.num_vertices, pred=vertex_seed_preds(self.g))
        self._note_level()

    def seed_edges(self, ids=None):
        """Level 1 over edge ids (all of them, or a filtered ascending set)."""
        if ids is None:
            ids = np.arange(self.g.num_edges, dtype=np.int32)
            pred = edge_seed_preds(self.g)
        else:
            ids = np.asarray(ids, dtype=np.int32)
            pred = edge_seed_preds(self.g)[ids]
        self.cse.seed_level1(ids, pred=pred)
        self._note_level()

    def _note_level(self):
        lvl = self.cse.top
        self.metrics["level_%d_embeddings" % lvl.index] = lvl.count
        self.metrics["level_%d_bytes" % lvl.index] = lvl.size_bytes()

    # -- shared context ----------------------------------------------

    def _publish_base(self):
        g = self.g
        if self.mode == "vertex":
            runtime.set_context(adj=g.adj)
        else:
            runtime.set_context(graph=g, vertex_ids=list(range(g.num_vertices)))
        runtime.set_context(touch=touch_lists(g, self.mode), hasher=self.hasher,
                            id_dtype=self.cse.id_dtype)
        self._base_ctx_set = True

    def _ensure_dir(self):
        if self.spill_dir is None:
            root = os.environ.get("GMINE_SPILL_DIR", tempfile.gettempdir())
            self.spill_dir = tempfile.mkdtemp(prefix="gmine_", dir=root)
        os.makedirs(self.spill_dir, exist_ok=True)
        return self.spill_dir

    def close(self):
        """Drop the worker context and remove the spill dir if this
        session created it."""
        runtime.clear_context()
        self._base_ctx_set = False
        if self._own_dir and self.spill_dir is not None:
            shutil.rmtree(self.spill_dir)
            self.spill_dir = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- phases --------------------------------------------------------

    def _next_estimate(self, want_pred):
        top = self.cse.top
        w = int(top.pred.sum()) if top.pred is not None else top.count
        idw = self.cse.id_dtype.itemsize
        return (w * idw, (top.count + 1) * 8, w * 4 if want_pred else 0)

    def explore(self, flt=None, alive=None, want_pred=True):
        """Grow the store by one level, spilling per the plan."""
        t0 = time.perf_counter()
        if not self._base_ctx_set:
            self._publish_base()
        cse = self.cse
        top = cse.top
        plan = plan_spill(cse, self.budget, self._next_estimate(want_pred),
                          self.spill_dir, self.parts_per_level)
        self.metrics["peak_resident_estimate"] = max(
            self.metrics.get("peak_resident_estimate", 0), plan.resident_estimate)
        if plan.any_spill:
            self._ensure_dir()
        for idx in plan.spill_levels:
            spill_existing_level(cse.level(idx), self.spill_dir,
                                 self.parts_per_level, self.metrics, plan.keep_off)
        if not plan.keep_off:
            for lvl in cse.levels:
                if lvl.residency == "disk":
                    lvl.off = None
        runtime.set_context(filter=flt, alive=alive, want_pred=want_pred)
        counts_chunks = []
        pred_chunks = [] if want_pred else None
        writer = None
        vert_chunks = []
        if plan.spill_next:
            cuts = (partition_by_weight(top.pred, self.parts_per_level)
                    if top.pred is not None
                    else uniform_ranges(top.count, self.parts_per_level))
            writer = PartWriter(self.spill_dir, top.index + 1, cse.id_dtype,
                                cuts, self.metrics)

        def consume(lo, hi, res):
            vert, counts, pred = res
            counts_chunks.append(counts)
            if want_pred:
                pred_chunks.append(pred)
            if writer is not None:
                writer.feed(vert, counts)
            else:
                vert_chunks.append(vert)

        replay_top(cse, self.workers, expand_vertex_range, consume, self.metrics)
        counts = (np.concatenate(counts_chunks) if counts_chunks
                  else np.zeros(0, np.int32))
        pred = (np.concatenate(pred_chunks) if want_pred and pred_chunks
                else None)
        if writer is not None:
            parts = writer.close()
            off = None
            if plan.keep_off:
                off = np.zeros(len(counts) + 1, dtype=np.int64)
                np.cumsum(counts, out=off[1:])
            cse.append_spilled(int(counts.sum()), off, pred, parts)
        else:
            vert = (np.concatenate(vert_chunks) if vert_chunks
                    else np.zeros(0, cse.id_dtype))
            off = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=off[1:])
            cse.append_level(vert, off, pred)
        top.pred = None  # only the newest level needs its predictions
        if any(l.residency == "disk" for l in cse.levels):
            write_manifest(self.spill_dir, cse)
        self._note_level()
        self.metrics["explore_seconds"] = (self.metrics.get("explore_seconds", 0.0)
                                           + time.perf_counter() - t0)

    def aggregate(self, fn, merge, init, extra_ctx=None):
        """Fold fn over the whole top level in offset order."""
        t0 = time.perf_counter()
        if not self._base_ctx_set:
            self._publish_base()
        runtime.set_context(**(extra_ctx or {}))
        acc = init

        def consume(lo, hi, res):
            nonlocal acc
            acc = merge(acc, res)

        replay_top(self.cse, self.workers, fn, consume, self.metrics)
        self.metrics["aggregate_seconds"] = (self.metrics.get("aggregate_seconds", 0.0)
                                             + time.perf_counter() - t0)
        return acc


# -- applications ----------------------------------------------------------

def motif_count(g, k, workers=1, memory_budget=0, spill_dir=None,
                parts_per_level=None):
    """Count induced connected k-vertex patterns, 3 <= k <= 5.

    Labels are ignored: motif classes are structural. Returns
    ({hash: [Pattern, count]}, metrics).
    """
    if not 3 <= k <= 5:
        raise ValueError("motif size must be 3..5")
    with Session(g, "vertex", workers, memory_budget, spill_dir,
                 parts_per_level, labeled=False) as s:
        s.seed_vertices()
        for size in range(2, k + 1):
            s.explore(want_pred=size < k)
        counts = s.aggregate(count_patterns_range, merge_counts, {},
                             {"edge_keys": g.edge_keys,
                              "num_vertices": g.num_vertices})
    return counts, s.metrics


def clique_discovery(g, k, workers=1, memory_budget=0, spill_dir=None,
                     parts_per_level=None):
    """Count k-cliques, 3 <= k <= 8, by filtered exploration."""
    if not 3 <= k <= 8:
        raise ValueError("clique size must be 3..8")
    with Session(g, "vertex", workers, memory_budget, spill_dir,
                 parts_per_level, labeled=False) as s:
        s.seed_vertices()
        sets = g.adj_sets

        def all_adjacent(emb, v):
            for u in emb:
                if v not in sets[u]:
                    return False
            return True

        for size in range(2, k + 1):
            s.explore(flt=all_adjacent if size > 2 else None, want_pred=size < k)
    return s.cse.top.count, s.metrics


def triangle_count(g, workers=1, memory_budget=0, spill_dir=None,
                   parts_per_level=None):
    """Count triangles without materializing level 3."""
    with Session(g, "vertex", workers, memory_budget, spill_dir,
                 parts_per_level, labeled=False) as s:
        s.seed_vertices()
        s.explore(want_pred=False)
        total = s.aggregate(triangle_range, lambda a, b: a + b, 0,
                            {"adj_sets": g.adj_sets})
    return total, s.metrics


def fsm(g, k_edges, support, workers=1, memory_budget=0, spill_dir=None,
        parts_per_level=None):
    """Frequent subgraph mining with exact minimum-image support.

    Returns ({hash: [Pattern, support]}, metrics) over all frequent
    patterns of 1..k_edges edges; reported supports are capped at the
    threshold. Infrequent edges are dropped after the size-1 round and
    embeddings of infrequent patterns are not expanded, which is exact
    because minimum-image support never grows when a pattern does.
    """
    if not 1 <= k_edges <= 7:
        raise ValueError("edge count must be 1..7")
    if support < 1:
        raise ValueError("support threshold must be positive")
    with Session(g, "edge", workers, memory_budget, spill_dir,
                 parts_per_level, labeled=True) as s:
        s.seed_edges()
        cap_ctx = {"cap": support, "want_hashes": True}
        agg = s.aggregate(mni_edge_range, _merge_mni_hashes, ({}, []), cap_ctx)
        pats, hashes = _finish_mni(agg, s.cse.top.count)
        frequent = {h: [p, mni_support(d, support)] for h, (p, d) in pats.items()
                    if mni_support(d, support) >= support}
        result = dict(frequent)
        if k_edges == 1 or not frequent:
            return result, s.metrics
        fh = np.fromiter(frequent.keys(), dtype=np.uint64, count=len(frequent))
        edge_alive = np.isin(hashes, fh)
        keep = np.flatnonzero(edge_alive).astype(np.int32)
        s.cse = EmbeddingStore("edge", np.int32)
        s.seed_edges(keep)
        edge_ok = np.zeros(g.num_edges, dtype=bool)
        edge_ok[keep] = True

        def freq_edge(emb, eid):
            return bool(edge_ok[eid])

        alive = None
        for size in range(2, k_edges + 1):
            s.explore(flt=freq_edge, alive=alive, want_pred=size < k_edges)
            cap_ctx = {"cap": support, "want_hashes": size < k_edges}
            agg = s.aggregate(mni_edge_range, _merge_mni_hashes, ({}, []), cap_ctx)
            pats, hashes = _finish_mni(agg, s.cse.top.count)
            frequent = {h: [p, mni_support(d, support)] for h, (p, d) in pats.items()
                        if mni_support(d, support) >= support}
            result.update(frequent)
            if not frequent:
                break
            if size < k_edges:
                fh = np.fromiter(frequent.keys(), dtype=np.uint64, count=len(frequent))
                alive = np.isin(hashes, fh)
        return result, s.metrics


def _merge_mni_hashes(acc, res):
    pats, hashes = acc
    part, h = res
    merge_mni(pats, part)
    if h is not None:
        hashes.append(h)
    return pats, hashes


def _finish_mni(agg, count):
    pats, hash_chunks = agg
    hashes = np.concatenate(hash_chunks) if hash_chunks else None
    if hashes is not None and len(hashes) != count:
        raise AssertionError("hash coverage mismatch")
    return pats, hashes


# -- result serialization ---------------------------------------------------

def result_lines(items):
    """Deterministic text form: one '<pattern>\\t<value>' line per entry,
    ordered by the serialized pattern text."""
    rows = sorted((rec[0].serialize(), rec[1]) for rec in items.values())
    return ["%s\t%d" % (ser, val) for ser, val in rows]


def write_result(path, items, summary):
    lines = result_lines(items)
    with open(path, "w") as fh:
        for ln in lines:
            fh.write(ln + "\n")
        fh.write(summary + "\n")
