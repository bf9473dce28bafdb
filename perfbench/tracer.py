"""Out-of-program tracing: wrap gmine's public functions, keep spans in
memory, and derive per-layer metrics from them after a job.

Nothing inside gmine changes. Each wrapper is installed where the caller
looks the function up (``gmine.mining.plan_spill``, not only
``gmine.spill.plan_spill``), and ``Tracer.uninstall`` puts every original
back. A span is ``(id, name, start, end, parent, thread, attrs)``; the
parent is the innermost open span of the same thread. Work that forked
pool workers do is invisible here and shows up as ``runtime.map`` time.
"""

import functools
import resource
import threading
import time

import numpy as np

LAYERS = ("graph", "explore", "store", "fingerprint", "mining", "spill",
          "runtime")
LEVELS = (1, 2, 3, 4)
# Aggregation workers that call PatternHasher.classify once per embedding.
CLASSIFYING = ("count_patterns_range", "mni_edge_range")


class Tracer:
    def __init__(self):
        self.spans = []
        self.hashers = []
        self._local = threading.local()
        self._ids = 0
        self._id_lock = threading.Lock()
        self._saved = []      # (owner, attr, original) in install order
        self._workers = 1     # worker count of the session being traced

    # -- spans -----------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name, **attrs):
        with self._id_lock:
            self._ids += 1
            sid = self._ids
        st = self._stack()
        rec = [sid, name, time.perf_counter(), None, st[-1][0] if st else None,
               threading.get_ident(), attrs]
        st.append(rec)
        return rec

    def end(self, rec, **attrs):
        rec[3] = time.perf_counter()
        rec[6].update(attrs)
        st = self._stack()
        st.pop()
        self.spans.append(tuple(rec))

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            rec = self.begin(name)
            try:
                return fn(*a, **kw)
            finally:
                self.end(rec)
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, modules, attr, new):
        for mod in modules:
            self._patch(mod, attr, new)

    def _first_access(self, cls, attr, cache_attr, name):
        prop = cls.__dict__[attr]
        build = self.timed(name, prop.fget)

        def get(obj):
            if getattr(obj, cache_attr) is not None:
                return prop.fget(obj)
            return build(obj)
        self._patch(cls, attr, property(get, doc=prop.__doc__))

    def install(self):
        """Wrap the layer boundaries of the imported gmine package."""
        import gmine.explore as explore
        import gmine.fingerprint as fingerprint
        import gmine.graph as graph
        import gmine.mining as mining
        import gmine.runtime as runtime
        import gmine.spill as spill
        import gmine.store as store
        if self._saved:
            raise RuntimeError("tracer already installed")

        self._patch(graph, "load_graph", self.timed("graph.load", graph.load_graph))
        self._first_access(graph.Graph, "adj", "_adj", "graph.adj")
        self._first_access(graph.Graph, "adj_sets", "_adj_sets", "graph.adj_sets")
        self._first_access(graph.Graph, "edge_u", "_edge_u", "graph.edge_table")

        # Pools pickle workers by module path, so the defining module must
        # hand out the same wrapper the caller uses.
        for fn_name in ("expand_vertex_range", "expand_edge_range"):
            w = self.timed("explore.expand", getattr(explore, fn_name))
            self._patch_everywhere((explore, mining), fn_name, w)

        for fn_name in CLASSIFYING + ("triangle_range",):
            self._patch(mining, fn_name, self.timed("mining.aggregate_range",
                                                    getattr(mining, fn_name)))

        part = self._partition_wrapper(explore.partition_by_weight)
        self._patch_everywhere((mining, spill), "partition_by_weight", part)

        store_cls = store.EmbeddingStore
        for meth in ("append_level", "append_spilled"):
            self._patch(store_cls, meth, self.timed("store.append", store_cls.__dict__[meth]))

        self._patch(fingerprint, "char_polynomial",
                    self.timed("fingerprint.poly", fingerprint.char_polynomial))
        real_hasher = mining.PatternHasher

        def hasher_factory(*a, **kw):
            h = real_hasher(*a, **kw)
            self.hashers.append(h)
            return h
        self._patch(mining, "PatternHasher", hasher_factory)

        self._patch(mining.Session, "explore", self._explore_wrapper(mining.Session.explore))
        self._patch(mining.Session, "aggregate", self._aggregate_wrapper(mining.Session.aggregate))
        for app in ("motif_count", "fsm", "clique_discovery", "triangle_count"):
            self._patch(mining, app, self.timed("mining." + app, getattr(mining, app)))

        self._patch(mining, "plan_spill", self.timed("spill.plan", spill.plan_spill))
        self._patch(spill, "write_part", self.timed("spill.write", spill.write_part))
        self._patch(spill, "read_part", self.timed("spill.read", spill.read_part))
        self._patch(mining, "replay_top", self.timed("spill.replay", mining.replay_top))

        self._patch(runtime, "map_ranges", self._map_wrapper(runtime.map_ranges))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- wrappers that also record counts -----------------------------------

    def _explore_wrapper(self, orig):
        tracer = self

        @functools.wraps(orig)
        def explore(sess, flt=None, alive=None, want_pred=True):
            top = sess.cse.top
            level = top.index + 1
            cand = int(top.pred.sum()) if top.pred is not None else top.count
            alive_ratio = float(np.mean(alive)) if alive is not None and len(alive) else 1.0
            tracer._workers = sess.workers
            rec = tracer.begin("mining.explore", level=level, candidates=cand,
                               alive_ratio=alive_ratio)
            try:
                return orig(sess, flt, alive, want_pred)
            finally:
                tracer.end(rec, out=sess.cse.top.count if sess.cse.depth == level else 0)
        return explore

    def _aggregate_wrapper(self, orig):
        tracer = self

        @functools.wraps(orig)
        def aggregate(sess, fn, merge, init, extra_ctx=None):
            top = sess.cse.top
            tracer._workers = sess.workers
            rec = tracer.begin("mining.aggregate", level=top.index, count=top.count,
                               classifies=getattr(fn, "__name__", "") in CLASSIFYING)
            try:
                return orig(sess, fn, merge, init, extra_ctx)
            finally:
                tracer.end(rec)
        return aggregate

    def _partition_wrapper(self, orig):
        tracer = self

        @functools.wraps(orig)
        def partition_by_weight(weights, t):
            cuts = orig(weights, t)
            if t == tracer._workers and t > 1:
                prefix = np.concatenate(([0], np.cumsum(np.asarray(weights, np.int64))))
                per = np.diff(prefix[cuts])
                rec = tracer.begin("runtime.partition")
                tracer.end(rec, max_w=int(per.max()), mean_w=float(per.mean()))
            return cuts
        return partition_by_weight

    def _map_wrapper(self, orig):
        tracer = self

        @functools.wraps(orig)
        def map_ranges(fn, tasks, workers):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            rec = tracer.begin("runtime.map", workers=workers,
                               forked=workers > 1 and len(tasks) > 1)
            try:
                return orig(fn, tasks, workers)
            finally:
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
                tracer.end(rec, child_cpu_s=cpu)
        return map_ranges

    # -- output ----------------------------------------------------------

    def span_dicts(self):
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "thread": s[5], "attrs": s[6]}
                for s in sorted(self.spans, key=lambda s: s[2])]


def self_times(spans):
    """Seconds per layer spent in a span of that layer and in none of its
    children. Children of one span run on its thread, nested, so their
    durations never overlap."""
    child = {}
    for s in spans:
        if s[4] is not None:
            child[s[4]] = child.get(s[4], 0.0) + (s[3] - s[2])
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s[1].split(".", 1)[0]
        if layer in out:
            out[layer] += (s[3] - s[2]) - child.get(s[0], 0.0)
    return out


def layer_metrics(tracer, program_metrics):
    """Per-layer metrics of one traced job, from its spans, the hasher it
    captured, and the metrics dict the program returned."""
    spans = tracer.spans
    pm = program_metrics

    def total(name):
        return sum(s[3] - s[2] for s in spans if s[1] == name)

    out = {}
    loads = [s for s in spans if s[1] == "graph.load"]
    out["graph.load_s"] = total("graph.load") / len(loads) if loads else 0.0
    out["graph.adj_build_s"] = (self_times([s for s in spans if s[1] in ("graph.adj", "graph.adj_sets")])
                                ["graph"])
    out["graph.edge_table_s"] = total("graph.edge_table")

    explores = {s[6]["level"]: s for s in spans if s[1] == "mining.explore"}
    aggregates = [s for s in spans if s[1] == "mining.aggregate"]

    def at(k, key):
        s = explores.get(k)
        return s[6][key] if s else 0

    out["explore.expand_s"] = total("explore.expand")
    grown = LEVELS[1:]  # level 1 is seeded, not explored
    for k in grown:
        out["explore.candidates.L%d" % k] = at(k, "candidates")
    for k in grown:
        out["explore.embeddings_out.L%d" % k] = at(k, "out")
    for k in grown:
        cand = at(k, "candidates")
        out["explore.yield_ratio.L%d" % k] = at(k, "out") / cand if cand else 0.0

    out["store.append_s"] = total("store.append")
    for k in LEVELS:
        out["store.level_bytes.L%d" % k] = pm.get("level_%d_bytes" % k, 0)
    depth = max(int(key.split("_")[1]) for key in pm if key.startswith("level_")
                and key.endswith("_embeddings"))
    emb = pm["level_%d_embeddings" % depth]
    out["store.bytes_per_embedding"] = pm["level_%d_bytes" % depth] / emb if emb else 0.0

    calls = sum(a[6]["count"] for a in aggregates if a[6]["classifies"])
    raw = sum(len(h._by_raw) for h in tracer.hashers)
    out["fingerprint.classify_calls"] = calls
    out["fingerprint.raw_keys"] = raw
    out["fingerprint.poly_count"] = sum(len(h._poly) for h in tracer.hashers)
    out["fingerprint.hit_ratio"] = 1.0 - raw / calls if calls else 0.0
    out["fingerprint.poly_s"] = total("fingerprint.poly")

    for k in grown:
        s = explores.get(k)
        out["mining.explore_s.L%d" % k] = s[3] - s[2] if s else 0.0
    for k in LEVELS:
        out["mining.aggregate_s.L%d" % k] = sum(a[3] - a[2] for a in aggregates
                                                if a[6]["level"] == k)
    for k in grown:
        out["mining.alive_ratio.L%d" % k] = at(k, "alive_ratio")

    out["spill.plan_s"] = total("spill.plan")
    out["spill.write_s"] = total("spill.write")
    out["spill.read_s"] = total("spill.read")
    out["spill.replay_s"] = total("spill.replay")
    written = pm.get("bytes_spilled", 0)
    out["spill.bytes_written"] = written
    out["spill.parts_written"] = pm.get("parts_written", 0)
    out["spill.bytes_read"] = pm.get("bytes_read", 0)
    out["spill.parts_loaded"] = pm.get("parts_loaded", 0)
    out["spill.read_amplification"] = pm.get("bytes_read", 0) / written if written else 0.0
    out["spill.resident_estimate_bytes"] = pm.get("peak_resident_estimate", 0)

    maps = [s for s in spans if s[1] == "runtime.map"]
    forked = [s for s in maps if s[6]["forked"]]
    fork_s = sum(s[3] - s[2] for s in forked)
    child_cpu = sum(s[6]["child_cpu_s"] for s in forked)
    out["runtime.map_calls"] = len(forked)
    out["runtime.map_s"] = sum(s[3] - s[2] for s in maps)
    out["runtime.child_cpu_s"] = child_cpu
    out["runtime.parallel_util"] = (child_cpu / (fork_s * forked[0][6]["workers"])
                                    if forked and fork_s > 0 else 0.0)
    parts = [s[6] for s in spans if s[1] == "runtime.partition"]
    mean_sum = sum(p["mean_w"] for p in parts)
    out["runtime.weight_imbalance"] = (sum(p["max_w"] for p in parts) / mean_sum
                                       if mean_sum else 1.0)

    # runtime.partition spans are zero-length markers, not time.
    for layer, sec in self_times([s for s in spans if s[1] != "runtime.partition"]).items():
        out["%s.self_s" % layer] = sec
    return out
