"""The benchmark's own tests: generators, output checks, tracer hygiene.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import filecmp
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import job  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _write_all(d, seed):
    for name, graph in (("uniform", {"kind": "uniform", "n": 300, "m": 700, "labels": 5}),
                        ("powerlaw", {"kind": "chung_lu", "n": 400, "avg_degree": 6.0,
                                      "gamma": 2.3, "offset": 2.0})):
        sub = os.path.join(d, name)
        os.makedirs(sub)
        run.make_inputs(graph, seed, sub)
    return d


def test_generators_identical_files_for_one_seed(tmp_path):
    a = _write_all(str(tmp_path / "a"), 7)
    b = _write_all(str(tmp_path / "b"), 7)
    c = _write_all(str(tmp_path / "c"), 8)
    files = ["uniform/graph.edges", "uniform/graph.labels", "powerlaw/graph.edges"]
    match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    assert match == files and not mismatch and not errors
    _, differ, _ = filecmp.cmpfiles(a, c, files, shallow=False)
    assert differ == files


def test_uniform_graph_is_connected_and_simple():
    n, m = 200, 450
    edges = gen.uniform_connected(n, m, 3)
    assert len(edges) == m == len(set(edges))
    assert all(u < v for u, v in edges)
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    assert len(seen) == n


def test_digest_check_catches_one_altered_line():
    lines = ["4;L=0,0,0,0;D=1,1,1,3;B=07\t10", "4;L=0,0,0,0;D=1,1,2,2;B=0b\t20"]
    altered = lines[:1] + ["4;L=0,0,0,0;D=1,1,2,2;B=0b\t21"]
    good = job.digest(lines)
    records = [{"ok": True, "input": 0, "digest": good, "lines": lines},
               {"ok": True, "input": 0, "digest": job.digest(altered), "lines": altered},
               {"ok": True, "input": 0, "digest": good, "lines": lines}]
    assert checks.mismatches(records, [good]) == [1]
    assert checks.mismatches(records, [None]) == [1]  # first job sets the reference
    inputs = [{"digest": None, "expect": checks.covered("motif", lines)}]
    failed, problems = run.judge(run.WORKLOADS["motif4-uniform"], records, inputs)
    assert failed == 1 and problems[0] == "job 1: digest mismatch"


def test_wrong_counts_and_exceptions_count_as_failures():
    wl = run.WORKLOADS["clique4-powerlaw"]
    records = [{"ok": True, "input": 0, "digest": "d", "lines": ["cliques\t5"]},
               {"ok": True, "input": 1, "digest": "e", "lines": ["cliques\t6"]},
               {"ok": False, "error": "BudgetTooSmallError: x"}]
    inputs = [{"digest": None, "expect": {"cliques": 5}},
              {"digest": None, "expect": {"cliques": 6}}]
    assert run.judge(wl, records, inputs) == (1, ["job 2 raised: BudgetTooSmallError: x"])
    inputs[1]["expect"] = {"cliques": 7}
    failed, problems = run.judge(wl, records, inputs)
    assert failed == 2 and problems[1].startswith("job 1: result has {'cliques': 6}")


def _brute_adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def test_independent_clique_counter_matches_brute_force():
    edges = gen.chung_lu(60, 12.0, 2.3, 5)
    adj = _brute_adjacency(edges)
    brute = sum(1 for q in itertools.combinations(sorted(adj), 4)
                if all(b in adj[a] for a, b in itertools.combinations(q, 2)))
    assert brute > 0
    assert checks.count_4cliques(edges) == brute


def test_independent_motif_census_matches_brute_force():
    for seed in range(3):
        edges = gen.uniform_connected(25, 70, seed)
        adj = _brute_adjacency(edges)
        brute = {}
        for q in itertools.combinations(range(25), 4):
            seen, todo = {q[0]}, [q[0]]
            while todo:
                x = todo.pop()
                for y in q:
                    if y not in seen and y in adj[x]:
                        seen.add(y)
                        todo.append(y)
            if len(seen) == 4:
                key = "D=" + ",".join(map(str, sorted(len(adj[x] & set(q)) for x in q)))
                brute[key] = brute.get(key, 0) + 1
        assert checks.motif4_census(edges) == brute


def test_frequent_edges_use_minimum_image_support():
    # 0-labelled 0, 1, 2 and 1-labelled 3, 4: edges 0-3, 1-3, 2-4, 0-1
    labels = [0, 0, 0, 1, 1]
    edges = [(0, 3), (1, 3), (2, 4), (0, 1)]
    assert checks.frequent_edges(edges, labels, 2) == {"L=0,1": 2, "L=0,0": 2}
    assert checks.frequent_edges(edges, labels, 3) == {}  # 3 ends labelled 0, but 2 labelled 1


def _originals():
    import gmine.explore as explore
    import gmine.fingerprint as fingerprint
    import gmine.graph as graph
    import gmine.mining as mining
    import gmine.runtime as runtime
    import gmine.spill as spill
    import gmine.store as store
    owners = (explore, fingerprint, graph, mining, runtime, spill, store,
              graph.Graph, store.EmbeddingStore, mining.Session)
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_restore_the_original_functions():
    before = _originals()
    t = Tracer()
    t.install()
    during = _originals()
    changed = [k for k in before if during[k] is not before[k]]
    t.uninstall()
    after = _originals()
    assert len(changed) >= 20
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_job_reports_every_declared_metric(tmp_path):
    import gmine.graph
    import gmine.mining
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = json.load(fh)["per_layer"]
    declared = [m["name"] for m in per_layer]
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in per_layer)
    edges = gen.uniform_connected(150, 260, 2)
    path = str(tmp_path / "g.edges")
    gen.write_edges(path, edges, list(range(150)))
    t = Tracer()
    t.install()
    try:
        g = gmine.graph.load_graph(path)
        _, pm = gmine.mining.motif_count(g, 4, memory_budget=40_000,
                                         spill_dir=str(tmp_path / "spill"), parts_per_level=4)
    finally:
        t.uninstall()
    got = layer_metrics(t, pm)
    assert sorted([*got, "trace.overhead_s"]) == sorted(declared)
    assert got["spill.bytes_written"] > 0 and got["fingerprint.classify_calls"] > 0
    spans = t.span_dicts()
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
