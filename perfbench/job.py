"""Run one mining job in this (fresh) process and print its record.

Usage: python3 perfbench/job.py '<spec json>'

The spec names the application and its arguments, the generated input
files, a spill directory of the job's own, and whether to trace. The
last line of stdout is a JSON record with the job's set-up times (one
per load; the last loaded graph is mined), wall time, peak RSS,
embedding count, result lines and their digest and, when traced, its per-layer metrics.
Spans of a traced job go to spec["spans_path"].
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback

from tracer import Tracer, layer_metrics

# Loads per job: set-up is short, so a run takes several samples of it.
SETUP_REPS = 3


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def peak_rss_mb():
    """Largest ru_maxrss of this process and of its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_gmine(src):
    """Import gmine from the checkout's source tree and nowhere else."""
    sys.path.insert(0, src)
    import gmine
    here = os.path.realpath(gmine.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise ImportError("gmine imported from %s, not from %s" % (here, src))


def run(spec):
    import_gmine(spec["src"])
    import gmine.graph
    import gmine.mining
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    try:
        setup = []
        for _ in range(SETUP_REPS):
            g = None  # one graph alive at a time, as in a single-load job
            t0 = time.perf_counter()
            g = gmine.graph.load_graph(spec["edges"], spec.get("labels"))
            setup.append(time.perf_counter() - t0)
        t1 = time.perf_counter()
        app = spec["app"]
        common = dict(workers=spec["workers"], memory_budget=spec["budget"],
                      spill_dir=spec["spill_dir"],
                      parts_per_level=spec.get("parts_per_level"))
        if app == "motif":
            res, pm = gmine.mining.motif_count(g, spec["k"], **common)
        elif app == "fsm":
            res, pm = gmine.mining.fsm(g, spec["k"], spec["support"], **common)
        elif app == "clique":
            res, pm = gmine.mining.clique_discovery(g, spec["k"], **common)
        else:
            raise ValueError("unknown application %r" % app)
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()

    levels = sorted(int(key.split("_")[1]) for key in pm
                    if key.startswith("level_") and key.endswith("_embeddings"))
    if app == "clique":
        lines = ["cliques\t%d" % res]
        embeddings = res
    else:
        lines = gmine.mining.result_lines(res)
        embeddings = pm["level_%d_embeddings" % levels[-1]]
        if app == "fsm":
            # FSM aggregates every level: all edges once, then each
            # explored level; level 1 metrics describe the filtered reseed.
            embeddings = g.num_edges + sum(pm["level_%d_embeddings" % k]
                                           for k in levels if k > 1)
    rec = {"ok": True, "setup_s": setup, "wall_s": t2 - t1,
           "embeddings": int(embeddings), "digest": digest(lines), "lines": lines,
           "program": {k: v for k, v in pm.items() if isinstance(v, (int, float))}}
    if tracer is not None:
        rec["layers"] = layer_metrics(tracer, pm)
        with open(spec["spans_path"], "w") as fh:
            json.dump(tracer.span_dicts(), fh)
    rec["peak_rss_mb"] = peak_rss_mb()
    return rec


def main():
    spec = json.loads(sys.argv[1])
    try:
        rec = run(spec)
    except Exception as e:  # the run loop counts it as a failed job
        traceback.print_exc()
        rec = {"ok": False, "error": "%s: %s" % (type(e).__name__, e)}
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
