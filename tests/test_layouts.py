"""Results do not depend on the layout a run picks: the worker count, the
parts per level and the memory budget.

Each application runs at workers {1, 2, 3} x parts_per_level {1, 3, 8}
x budget {0, 3/4, 1/2 of its unbudgeted peak estimate}. Every run must
print what the 1-worker unbudgeted run prints, or raise
BudgetTooSmallError when the plan cannot fit the budget.
"""

import itertools

import pytest

from gmine.mining import clique_discovery, fsm, motif_count, result_lines
from gmine.spill import BudgetTooSmallError

from conftest import make_random_graph


def text(data):
    return result_lines(data) if isinstance(data, dict) else [str(data)]


# (application, graph, sizes): motif and clique sizes in vertices, FSM in
# edges; the clique graph is dense enough to hold 5-cliques
APPS = [
    ("motif", lambda g, k, **kw: motif_count(g, k, **kw),
     lambda: make_random_graph(4100, 400, 300), (3, 4, 5)),
    ("clique", lambda g, k, **kw: clique_discovery(g, k, **kw),
     lambda: make_random_graph(4101, 120, 2400), (3, 4, 5)),
    ("fsm", lambda g, k, **kw: fsm(g, k, 3, **kw),
     lambda: make_random_graph(4102, 300, 300, n_labels=3), (3, 4)),
]


@pytest.mark.slow
@pytest.mark.parametrize("name, run, graph, sizes", APPS, ids=[a[0] for a in APPS])
def test_results_are_layout_invariant(tmp_path, name, run, graph, sizes):
    g = graph()
    spills = 0
    for k in sizes:
        want, m = run(g, k)
        peak = m["peak_resident_estimate"]
        for workers, parts, share in itertools.product((1, 2, 3), (1, 3, 8),
                                                       (0, 3, 2)):
            budget = peak * share // 4
            case = (name, k, workers, parts, budget)
            try:
                got, m = run(g, k, workers=workers, memory_budget=budget,
                             parts_per_level=parts,
                             spill_dir=str(tmp_path / ("%d_%d_%d_%d" % case[1:])))
            except BudgetTooSmallError:
                assert budget, case  # an unbudgeted plan always fits
                continue
            assert text(got) == text(want), case
            spills += m.get("bytes_spilled", 0) > 0
    assert spills, name  # some layout really went to disk
