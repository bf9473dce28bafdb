"""The range threads: task order, the thread cap, a raising range
surfacing as its exception, the move off the caller's CPU, and the
malloc arena bound.

The autouse no_leaked_threads fixture fails any test here that returns
while one of map_ranges' threads still runs.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from gmine import mining, runtime
from gmine.cli import main
from gmine.mining import clique_discovery, fsm, motif_count

from conftest import make_random_graph
from oracles import write_edge_list

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_script(code, timeout=60):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=timeout, env=env)


def span(task):
    lo, hi = task
    return list(range(lo, hi))


def test_map_ranges_keeps_task_order(monkeypatch):
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 4)
    tasks = [(0, 3), (3, 4), (4, 9), (9, 9), (9, 12)]
    for workers in (1, 2, 3, 8):
        assert runtime.map_ranges(span, tasks, workers) == [span(t) for t in tasks]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_ranges_run_on_at_most_one_thread_per_usable_cpu(monkeypatch, cpus):
    # The first n tasks each hold their thread at a barrier of n parties,
    # so the barrier breaks (and map_ranges raises) unless n threads run
    # them at once; no thread beyond those n may run a task.
    monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
    for workers in (1, 2, 3, 8):
        for n_tasks in (1, 2, 5):
            n = min(workers, n_tasks, cpus)
            barrier = threading.Barrier(n, timeout=10)
            seen = set()

            def fn(task):
                seen.add(threading.get_ident())
                if task < n:
                    barrier.wait()
                return task

            assert runtime.map_ranges(fn, list(range(n_tasks)), workers) == list(range(n_tasks))
            assert len(seen) == n, (workers, n_tasks, cpus)
            assert threading.get_ident() in seen  # the caller runs its share


class RangeFailed(Exception):
    pass


@pytest.mark.parametrize("where", ["caller", "thread"])
def test_raising_range_surfaces_after_every_thread_joins(monkeypatch, where):
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 2)
    caller = threading.get_ident()
    started, finished = set(), set()

    def fn(task):
        started.add(task)
        if (threading.get_ident() == caller) == (where == "caller"):
            raise RangeFailed(task)
        time.sleep(0.05)
        finished.add(task)
        return task

    tasks = list(range(20))
    with pytest.raises(RangeFailed):
        runtime.map_ranges(fn, tasks, 2)
    # only the failed range did not end, and the failure stopped claims
    assert len(started - finished) == 1
    assert len(started) < len(tasks)


def test_cli_reports_failing_range(tmp_path, monkeypatch, capsys):
    ep = str(tmp_path / "g.edges")
    write_edge_list(make_random_graph(3100, 30, 40), ep)

    def fail(task):
        raise OSError("range %d-%d failed" % task)

    monkeypatch.setattr(runtime, "usable_cpus", lambda: 2)
    monkeypatch.setattr(mining, "expand_vertex_range", fail)
    assert main(["clique", ep, "-k", "3", "--workers", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("gmine: range ")


@pytest.mark.skipif(runtime.current_cpu() < 0, reason="no sched_getcpu")
def test_range_threads_leave_the_callers_cpu_and_keep_its_affinity(monkeypatch):
    allowed = os.sched_getaffinity(0)
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 2)
    seen = []

    def fn(task):
        seen.append(os.sched_getaffinity(0))
        return task

    assert runtime.map_ranges(fn, list(range(6)), 2) == list(range(6))
    assert seen == [allowed] * 6
    for cpu in (-1, runtime.current_cpu()):
        runtime.leave_cpu(cpu)
        assert os.sched_getaffinity(0) == allowed

    def refuse(pid, mask):
        raise OSError("refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    runtime.leave_cpu(runtime.current_cpu())  # a refused move is ignored
    assert runtime.map_ranges(fn, [0, 1], 2) == [0, 1]


def test_single_worker_runs_leave_the_allocator_alone(monkeypatch):
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 2)
    calls = []
    monkeypatch.setattr(runtime, "bound_malloc_arenas", lambda: calls.append(1))
    g = make_random_graph(3200, 30, 40, n_labels=2)
    motif_count(g, 4, workers=1)
    fsm(g, 3, 2, workers=1)
    clique_discovery(g, 3, workers=1)
    assert calls == []
    clique_discovery(g, 3, workers=2)
    assert calls


def test_import_does_not_load_the_pool():
    # ranges run on threading.Thread objects; nothing may pull
    # concurrent.futures in when gmine or its CLI is imported
    r = run_script("""
        import sys
        import gmine
        print("concurrent.futures" in sys.modules)
        import gmine.cli
        print("concurrent.futures" in sys.modules)
    """)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "False"]
