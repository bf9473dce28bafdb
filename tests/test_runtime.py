"""The fork pool: task order, and a dead worker surfacing as an error.

Dead-worker cases run in a subprocess with a timeout, so a pool that
waits forever for a lost result fails the test instead of hanging it.
"""

import os
import subprocess
import sys
import textwrap

from gmine import runtime

from conftest import make_random_graph

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_script(code, timeout=60):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=timeout, env=env)


def span(task):
    lo, hi = task
    return list(range(lo, hi))


def test_map_ranges_keeps_task_order():
    tasks = [(0, 3), (3, 4), (4, 9), (9, 9), (9, 12)]
    for workers in (1, 2, 3):
        assert runtime.map_ranges(span, tasks, workers) == [span(t) for t in tasks]


def test_dead_worker_raises_instead_of_hanging():
    r = run_script("""
        import os
        from concurrent.futures.process import BrokenProcessPool
        from gmine import runtime

        def die_in_second_task(task):
            if task[0] == 1:
                os._exit(3)
            return task

        try:
            runtime.map_ranges(die_in_second_task, [(0, 1), (1, 2), (2, 3)], 2)
        except BrokenProcessPool:
            print("broken")
    """)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["broken"]


def test_cli_reports_dead_worker(tmp_path):
    g = make_random_graph(3100, 30, 40)
    ep = str(tmp_path / "g.edges")
    with open(ep, "w") as fh:
        for e in range(g.num_edges):
            fh.write("%d %d\n" % g.edge_endpoints(e))
    r = run_script("""
        import os
        import sys
        from gmine import mining
        from gmine.cli import main

        def die(task):
            os._exit(3)

        mining.expand_vertex_range = die
        sys.exit(main(["clique", %r, "-k", "3", "--workers", "2"]))
    """ % ep)
    assert r.returncode == 1, r.stderr
    assert r.stderr.splitlines()[-1].startswith("gmine: ")
