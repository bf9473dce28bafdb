"""Command line front end.

One subcommand per mining application. Result lines go to stdout (and
to --output when given); counters and timings go to stderr. Exit codes:
0 success, 1 runtime failure (unreadable input, budget too small, a
corrupt part file), 2 usage errors.
"""

import argparse
import sys
import time

from .graph import GraphFormatError, load_graph
from .mining import (clique_discovery, fsm, motif_count, result_lines,
                     triangle_count)
from .spill import BudgetTooSmallError, CorruptPartError
from .store import InvariantError

RUN_FAILURES = (BudgetTooSmallError, CorruptPartError, GraphFormatError,
                InvariantError, OverflowError, ValueError, OSError)


def parse_size(text):
    """'512K', '64M', '2G' or plain bytes; 0 means unlimited."""
    s = str(text).strip().upper()
    mult = 1
    if s and s[-1] in "KMG":
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[s[-1]]
        s = s[:-1]
    try:
        n = int(float(s) * mult)
    except (ValueError, OverflowError):  # OverflowError: inf, 1e400
        raise argparse.ArgumentTypeError("bad size %r" % text) from None
    if n < 0:
        raise argparse.ArgumentTypeError("size must not be negative")
    return n


def _common(p, k_help=None, k_range=None, needs_support=False):
    p.add_argument("graph", help="edge list file (u v per line, # comments)")
    p.add_argument("--labels", help="vertex label file (id label per line)")
    if k_help:
        p.add_argument("-k", type=int, required=True, metavar="K",
                       help="%s (%d..%d)" % (k_help, k_range[0], k_range[1]))
    if needs_support:
        p.add_argument("--support", type=int, required=True,
                       help="minimum-image support threshold")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel ranges, on at most one thread per CPU (default 1)")
    p.add_argument("--memory-budget", type=parse_size, default=0,
                   metavar="BYTES", help="level-array budget, e.g. 64M; "
                   "0 = unlimited (default)")
    p.add_argument("--spill-dir", default=None,
                   help="directory for spilled level parts "
                   "(default: $GMINE_SPILL_DIR or a temp dir)")
    p.add_argument("--parts-per-level", type=int, default=None,
                   help="parts per level (default: worker count with a memory "
                        "budget, else 1)")
    p.add_argument("--output", default=None, help="also write results here")


def build_parser():
    ap = argparse.ArgumentParser(prog="gmine",
                                 description="out-of-core subgraph mining")
    sub = ap.add_subparsers(dest="cmd", required=True)
    _common(sub.add_parser("motif", help="count induced k-vertex patterns"),
            "motif size", (3, 5))
    _common(sub.add_parser("clique", help="count k-cliques"),
            "clique size", (3, 8))
    _common(sub.add_parser("tc", help="count triangles"))
    _common(sub.add_parser("fsm", help="mine frequent edge subgraphs"),
            "pattern size in edges", (1, 7), needs_support=True)
    return ap


def _emit(lines, out_path, summary):
    """Write --output first, so a failed write prints no result."""
    if out_path:
        with open(out_path, "w") as fh:
            for ln in lines:
                fh.write(ln + "\n")
            if summary:
                fh.write(summary + "\n")
    for ln in lines:
        print(ln)


def main(argv=None):
    args = build_parser().parse_args(argv)
    kw = dict(workers=args.workers, memory_budget=args.memory_budget,
              spill_dir=args.spill_dir, parts_per_level=args.parts_per_level)
    try:
        t0 = time.perf_counter()
        g = load_graph(args.graph, args.labels)
        load_s = time.perf_counter() - t0
        if args.cmd == "motif":
            items, metrics = motif_count(g, args.k, **kw)
            lines = result_lines(items)
            summary = "# patterns=%d embeddings=%d" % (
                len(items), sum(items.values()))
        elif args.cmd == "clique":
            n, metrics = clique_discovery(g, args.k, **kw)
            lines = ["%d-cliques\t%d" % (args.k, n)]
            summary = None
        elif args.cmd == "tc":
            n, metrics = triangle_count(g, **kw)
            lines = ["triangles\t%d" % n]
            summary = None
        else:
            items, metrics = fsm(g, args.k, args.support, **kw)
            lines = result_lines(items)
            summary = "# patterns=%d threshold=%d" % (len(items), args.support)
        _emit(lines, args.output, summary)
    except RUN_FAILURES as e:
        print("gmine: %s" % e, file=sys.stderr)
        return 1
    print("load_seconds=%.3f" % load_s, file=sys.stderr)
    print("graph_vertices=%d graph_edges=%d" % (g.num_vertices, g.num_edges),
          file=sys.stderr)
    for key in sorted(metrics):
        val = metrics[key]
        if isinstance(val, float):
            print("%s=%.3f" % (key, val), file=sys.stderr)
        else:
            print("%s=%s" % (key, val), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
