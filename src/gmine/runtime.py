"""Thread plumbing for range-parallel phases.

Ranges run on threads of the calling process. The heavy shared state
(graph, level slices, filters, the pattern hasher) is published to a
module-global context before a phase and read by every thread; the
kernels spend their time in numpy sorts, searches and gathers, which
release the GIL. Results come back in task order, which makes every
phase's output independent of the worker count.
"""

import ctypes
import os
import threading

_WORK = {}

# glibc's mallopt parameter for the number of malloc arenas
M_ARENA_MAX = -8
_arenas_bounded = False


def set_context(**kw):
    _WORK.update(kw)


def get_context():
    return _WORK


def clear_context():
    _WORK.clear()


def usable_cpus():
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def bound_malloc_arenas():
    """Keep glibc malloc to one arena, once per process.

    glibc gives each thread that allocates an arena of its own, and
    memory freed in an arena stays with it. On the clique4-powerlaw
    benchmark's seed-1 input 0 (2 CPUs), one clique_discovery(g, 4,
    workers=2) grew ru_maxrss after the load by 0.9-2.9 MiB with an
    arena per thread and by 0.2-0.3 MiB with one. Skipped where the C
    library has no mallopt.
    """
    global _arenas_bounded
    if _arenas_bounded:
        return
    _arenas_bounded = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def current_cpu():
    """The calling thread's CPU, or -1 where the C library cannot say."""
    try:
        return ctypes.CDLL(None).sched_getcpu()
    except (AttributeError, OSError):
        return -1


def leave_cpu(cpu):
    """Move the calling thread off CPU cpu, then let it use every CPU it
    may again. A new thread sometimes stayed on its caller's CPU for a
    whole phase while the other CPU idled: on a 2-vCPU x86 VM, in 9 of
    72 fresh processes the first motif_count(g, 4, workers=2) on
    test_11's graph ran its ranges in turn, and in 0 of 40 with this
    move. Placement is a hint, so a refused move is ignored."""
    if cpu < 0:
        return
    allowed = os.sched_getaffinity(0)
    try:
        if allowed - {cpu}:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def map_ranges(fn, tasks, workers):
    """Run fn over tasks and return the results in task order.

    fn must read its big inputs from the published context. A single
    worker or a single task runs in the calling thread. Otherwise the
    caller and up to min(workers, tasks, usable CPUs) - 1 threads claim
    tasks one at a time: more threads than CPUs would only add
    switching. fn then runs concurrently with itself, so shared state it
    writes must allow that, as the PatternHasher caches do. An exception
    in any task stops further claims and is raised here once every
    thread has joined. Each thread first leaves the caller's CPU.
    """
    n = min(workers, len(tasks), usable_cpus())
    if n <= 1:
        return [fn(t) for t in tasks]
    bound_malloc_arenas()
    results = [None] * len(tasks)
    errors = []
    claim = iter(range(len(tasks)))
    lock = threading.Lock()

    def run(home=-1):
        try:
            leave_cpu(home)
            while not errors:
                with lock:
                    i = next(claim, None)
                if i is None:
                    return
                results[i] = fn(tasks[i])
        except BaseException as e:
            errors.append(e)

    home = current_cpu()
    threads = [threading.Thread(target=run, args=(home,)) for _ in range(n - 1)]
    for t in threads:
        t.start()
    run()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results
