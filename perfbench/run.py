"""gmine benchmark: mining jobs through the public Python API.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload motif4-uniform --seed 1 --seconds 25 --trace 0

One client runs one job at a time, each in a fresh process (so peak RSS
is that job's), until --seconds have passed and at least MIN_JOBS jobs
ran. Inputs are generated from --seed before the clock starts. Every
result is checked; the last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With --trace 0
the metrics are the end-to-end ones (medians over the run's jobs); with
--trace 1 untraced and traced jobs alternate and the metrics are the
per-layer ones (medians over the traced jobs), plus the tracing overhead.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")    # inputs and spill dirs, removed after the run
OUT = os.path.join(HERE, "out")      # span files of traced runs

MIN_JOBS = 3
JOB_TIMEOUT_S = 60

# Sizes keep one job at 1.5-3.5 s on a 2-core host, so a 25 s run holds
# several jobs. Jobs cycle over "inputs" graphs generated from the seed:
# how long a job takes depends on the sampled graph (hub placement, core
# density), and a median over several graphs varies less between seeds.
UNIFORM = {"kind": "uniform", "n": 12000, "m": 21000}
WORKLOADS = {
    # The paper's headline application: explore and aggregate split about
    # 40/60 and every classify hits the fingerprint cache (few raw keys).
    # Spill and the worker pool are bypassed.
    "motif4-uniform": {"graph": UNIFORM, "inputs": 3, "app": "motif", "k": 4,
                       "workers": 1, "budget": 0},
    # The same graph and job under an absolute budget, about 25% of the
    # unlimited peak resident estimate and 45% of the level footprint, with
    # 8 parts per level. The computation is identical, so the difference
    # from motif4-uniform is spill write plus windowed replay. A fixed byte
    # count, not a share of the program's own estimate, lets a tighter
    # store show up as fewer bytes spilled. One input (motif4-uniform's
    # input 0), because each needs an untimed unbudgeted reference job.
    "motif4-spill": {"graph": UNIFORM, "inputs": 1, "app": "motif", "k": 4,
                     "workers": 1, "budget": 1_200_000, "parts_per_level": 8},
    # The only edge-induced path: edge table, expand_edge_range, labeled
    # fingerprint misses, orbits, MNI domain sets. Support 180 sits on a
    # plateau where the alive mask keeps about 80% of level 2 for every
    # seed (120 keeps all, 240 under 15%).
    "fsm3-labeled": {"graph": {"kind": "uniform", "n": 3000, "m": 7000, "labels": 5},
                     "inputs": 3, "app": "fsm", "k": 3, "support": 180, "workers": 1, "budget": 0},
    # Skew: every embedding holding a hub scans the hub's whole adjacency.
    # The only workload on the fork pool and on weight partitioning under
    # skew; fingerprint and spill are bypassed.
    "clique4-powerlaw": {"graph": {"kind": "chung_lu", "n": 5000, "avg_degree": 8.0,
                                   "gamma": 2.3, "offset": 5.0},
                         "inputs": 3, "app": "clique", "k": 4, "workers": 2, "budget": 0},
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "embeddings_per_s": "1/s",
              "peak_rss_mb": "MiB"}


def make_inputs(graph, seed, d):
    """Write the workload's edge (and label) file.

    Returns the paths, and the edges and labels over generator ids.
    """
    if graph["kind"] == "uniform":
        edges = gen.uniform_connected(graph["n"], graph["m"], seed)
    else:
        edges = gen.chung_lu(graph["n"], graph["avg_degree"], graph["gamma"], seed,
                             graph["offset"])
    ids = gen.id_map(graph["n"], seed)
    paths = {"edges": os.path.join(d, "graph.edges"), "labels": None}
    gen.write_edges(paths["edges"], edges, ids)
    labels = None
    if graph.get("labels"):
        labels = gen.random_labels(graph["n"], graph["labels"], seed)
        paths["labels"] = os.path.join(d, "graph.labels")
        gen.write_labels(paths["labels"], labels, ids)
    return paths, edges, labels


def run_job(spec):
    """Run one job in a fresh process group; always remove its spill dir."""
    env = dict(os.environ, GMINE_SPILL_DIR=spec["spill_dir"])
    cmd = [sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "error": "timed out after %d s" % JOB_TIMEOUT_S}
    except BaseException:  # interrupted: leave no job or pool worker behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(spec["spill_dir"], ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "error": "exit %d: %s" % (proc.returncode, err.strip()[-500:])}


def input_seed(seed, i):
    """Generator seed of a run's input i; input 0 uses the run's seed."""
    return seed + 1_000_003 * i


def job_spec(wl, inp, i, traced, budget=None):
    return {"src": SRC, "edges": inp["paths"]["edges"], "labels": inp["paths"]["labels"],
            "app": wl["app"], "k": wl["k"], "support": wl.get("support"),
            "workers": wl["workers"], "budget": wl["budget"] if budget is None else budget,
            "parts_per_level": wl.get("parts_per_level"),
            "spill_dir": os.path.join(inp["dir"], "spill-%s" % i), "trace": traced,
            "spans_path": os.path.join(inp["dir"], "spans-%s.json" % i)}


def prepare(name, wl, seed, d):
    """Generate the run's inputs and their untimed references.

    One dict per input: its files, the digest every job on it must give
    (None: whatever its first job gives) and what checks.covered() must
    find in each job's result.
    """
    stored = checks.stored_digests(name, seed)
    inputs = []
    for i in range(wl["inputs"]):
        sub = os.path.join(d, "input-%d" % i)
        os.makedirs(sub)
        paths, edges, labels = make_inputs(wl["graph"], input_seed(seed, i), sub)
        inp = {"paths": paths, "dir": sub, "digest": stored[i] if stored else None,
               "expect": checks.independent(wl["app"], edges, labels, wl.get("support"))}
        if wl["budget"]:
            rec = run_job(job_spec(wl, inp, "ref", False, budget=0))
            if not rec.get("ok"):
                raise RuntimeError("unbudgeted reference job failed: %s" % rec.get("error"))
            if inp["digest"] not in (None, rec["digest"]):
                raise RuntimeError("unbudgeted reference digest differs from the stored one")
            inp["digest"] = rec["digest"]
        inputs.append(inp)
    return inputs


def judge(wl, jobs, inputs):
    """Count failed jobs and say why each failed."""
    problems = ["job %d raised: %s" % (i, r.get("error"))
                for i, r in enumerate(jobs) if not r.get("ok")]
    bad = set(checks.mismatches(jobs, [inp["digest"] for inp in inputs]))
    problems += ["job %d: digest mismatch" % i for i in sorted(bad)]
    for i, r in enumerate(jobs):
        if not r.get("ok"):
            continue
        got, want = checks.covered(wl["app"], r["lines"]), inputs[r["input"]]["expect"]
        if got != want:
            problems.append("job %d: result has %s, independent check %s" % (i, got, want))
            bad.add(i)
        if wl["budget"] and not r["program"].get("bytes_spilled"):
            problems.append("job %d did not spill" % i)
    failed = sum(1 for r in jobs if not r.get("ok")) + len(bad)
    return failed, problems


def measure(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    d = os.path.join(WORK, "%s-seed%d-%d" % (name, seed, os.getpid()))
    os.makedirs(d)
    try:
        inputs = prepare(name, wl, seed, d)
        jobs = []
        t0 = time.perf_counter()
        while len(jobs) < (2 * MIN_JOBS if trace else MIN_JOBS) or \
                time.perf_counter() - t0 < seconds:
            j = len(jobs)
            inp = inputs[j % len(inputs)]
            traced = bool(trace) and j % 2 == 1
            spec = job_spec(wl, inp, j, traced)
            rec = run_job(spec)
            rec["input"] = j % len(inputs)
            rec["traced"] = traced
            if traced and rec.get("ok"):
                with open(spec["spans_path"]) as fh:
                    rec["spans"] = json.load(fh)
            jobs.append(rec)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    failed, problems = judge(wl, jobs, inputs)
    return jobs, failed, problems


def end_to_end(jobs):
    ok = [r for r in jobs if r.get("ok")]
    if not ok:
        return {}
    vals = {"setup_s": [t for r in ok for t in r["setup_s"]],
            "wall_s": [r["wall_s"] for r in ok],
            "embeddings_per_s": [r["embeddings"] / r["wall_s"] for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok]}
    return {k: {"value": statistics.median(v), "unit": END_TO_END[k]}
            for k, v in vals.items()}


def per_layer(jobs):
    ok = [r for r in jobs if r.get("ok")]
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    if not traced or not plain:
        return {}
    out = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.median(r["layers"][key] for r in traced)
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "gmine", "__init__.py")):
        print("perfbench: no gmine source tree at %s" % SRC, file=sys.stderr)
        return 2

    jobs, failed, problems = measure(args.workload, args.seed, args.seconds, args.trace)
    for p in problems:
        print("perfbench: %s" % p, file=sys.stderr)
    attempted = len(jobs)
    print("# %s seed=%d jobs=%d traced=%d error_rate=%.4f" % (
        args.workload, args.seed, attempted, sum(r["traced"] for r in jobs),
        failed / attempted))
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "jobs": [{"job": i, "spans": r["spans"]}
                                for i, r in enumerate(jobs) if "spans" in r]}, fh)
        print("# spans written to %s" % os.path.relpath(spans_path, ROOT))
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in per_layer(jobs).items()}
    else:
        metrics = end_to_end(jobs)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name):
    if re.search(r"_s(\.L\d+)?$", name):
        return "s"
    if "bytes" in name:
        return "bytes"
    if "ratio" in name or "util" in name or "imbalance" in name or "amplification" in name:
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
