"""Process-pool plumbing for range-parallel phases.

Workers are forked, so the heavy shared state (graph, level slices,
filters) is published to module globals before the pool is created and
inherited copy-on-write; only small (lo, hi) tasks and per-range result
arrays cross the pipe. Results are consumed in task order, which makes
every phase's output independent of the worker count.
"""

import multiprocessing

_WORK = {}


def set_context(**kw):
    _WORK.update(kw)


def get_context():
    return _WORK


def clear_context():
    _WORK.clear()


def map_ranges(fn, tasks, workers):
    """Run fn over tasks, in order, optionally on a fork pool.

    fn must be a module-level function reading its big inputs from the
    published context. Falls back to in-process execution for a single
    worker or a single task. A worker that dies raises BrokenProcessPool
    instead of leaving the run waiting for its result.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported on first use: the import alone adds about 0.5 MiB to the
    # peak RSS of runs that never fork
    from concurrent.futures import ProcessPoolExecutor
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(min(workers, len(tasks)), mp_context=ctx) as pool:
        return list(pool.map(fn, tasks))

