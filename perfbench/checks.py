"""Output checks that decide whether a job failed.

A job fails when it raises or when its result differs from a reference
for its input. The result's digest must equal the digests stored in
digests.json for the default seed, the digest of an unbudgeted run of the
same job (a spilled run must be byte-identical to it) and that of the
first job on the same input (every job must agree). Independently of
gmine, plain Python here computes the 4-motif census, the frequent
single-edge patterns of FSM and the 4-clique count of every input, and
the result must contain them.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def stored_digests(workload, seed):
    """Digests recorded for this workload's inputs at this seed, or None."""
    with open(DIGESTS) as fh:
        rec = json.load(fh).get(workload)
    if rec is None or rec["seed"] != seed:
        return None
    return rec["digests"]


def mismatches(records, expected):
    """Indexes of successful job records whose digest is wrong.

    expected[i] is the digest for input i; where it is None, the first
    successful record on that input sets it, so all jobs must agree.
    """
    want = list(expected)
    bad = []
    for i, r in enumerate(records):
        if not r.get("ok"):
            continue
        k = r["input"]
        if want[k] is None:
            want[k] = r["digest"]
        elif r["digest"] != want[k]:
            bad.append(i)
    return bad


def count_4cliques(edges):
    """4-cliques of a simple undirected graph given as (u, v) pairs.

    Edges are oriented from lower to higher (degree, id) rank, so each
    clique is counted once, from its lowest-ranked vertex, by
    intersecting out-neighbour sets; out-degrees stay small on skewed
    graphs because hubs rank last.
    """
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    out = {v: set() for v in deg}
    for u, v in edges:
        if (deg[u], u) < (deg[v], v):
            out[u].add(v)
        else:
            out[v].add(u)
    total = 0
    for u, nu in out.items():
        for v in nu:
            common = nu & out[v]
            for w in common:
                total += len(common & out[w])
    return total


def _adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def motif4_census(edges):
    """Induced connected 4-vertex subgraph counts, keyed by the sorted
    degree sequence that tells the six classes apart (as in gmine's
    ``D=`` field), from closed-form subgraph counts.

    Non-induced counts S come from degrees, triangles, common neighbours
    and 4-cliques; induced counts I follow by inverting how often each
    class contains the others (a K4 holds 4 stars, 12 paths, 12 paws,
    3 cycles and 6 diamonds, and so on down).
    """
    adj = _adjacency(edges)
    common = {}                       # edge -> common neighbours
    tri_at = dict.fromkeys(adj, 0)    # vertex -> triangles through it
    for u, v in edges:
        c = len(adj[u] & adj[v])
        common[u, v] = c
        tri_at[u] += c
        tri_at[v] += c
    tri_at = {v: t // 2 for v, t in tri_at.items()}
    triangles = sum(tri_at.values()) // 3
    wedge_ends = {}                   # vertex pair -> common neighbours
    for nb in adj.values():
        s = sorted(nb)
        for i, a in enumerate(s):
            for b in s[i + 1:]:
                wedge_ends[a, b] = wedge_ends.get((a, b), 0) + 1

    def c2(n):
        return n * (n - 1) // 2

    s_star = sum(len(nb) * (len(nb) - 1) * (len(nb) - 2) // 6 for nb in adj.values())
    s_path = sum((len(adj[u]) - 1) * (len(adj[v]) - 1) for u, v in edges) - 3 * triangles
    s_paw = sum(t * (len(adj[v]) - 2) for v, t in tri_at.items())
    s_cycle = sum(c2(n) for n in wedge_ends.values()) // 2
    s_diamond = sum(c2(c) for c in common.values())
    k4 = count_4cliques(edges)
    diamond = s_diamond - 6 * k4
    cycle = s_cycle - diamond - 3 * k4
    paw = s_paw - 4 * diamond - 12 * k4
    path = s_path - 2 * paw - 4 * cycle - 6 * diamond - 12 * k4
    star = s_star - paw - 2 * diamond - 4 * k4
    census = {"D=1,1,1,3": star, "D=1,1,2,2": path, "D=1,2,2,3": paw,
              "D=2,2,2,2": cycle, "D=2,2,3,3": diamond, "D=3,3,3,3": k4}
    return {key: n for key, n in census.items() if n}


def frequent_edges(edges, labels, support):
    """Frequent single-edge patterns, keyed by gmine's ``L=a,b`` field,
    with their minimum-image support capped at the threshold.

    For labels a != b the support is the smaller of the number of
    a-labelled and b-labelled endpoints of a-b edges; for a == b both
    endpoints share one orbit, so it is the number of such endpoints.
    """
    ends = {}
    for u, v in edges:
        a, b = sorted((labels[u], labels[v]))
        sides = ends.setdefault((a, b), (set(), set()))
        if a == b:
            sides[0].update((u, v))
        else:
            sides[0].add(u if labels[u] == a else v)
            sides[1].add(v if labels[u] == a else u)
    out = {}
    for (a, b), (sa, sb) in ends.items():
        got = len(sa) if a == b else min(len(sa), len(sb))
        if got >= support:
            out["L=%d,%d" % (a, b)] = support
    return out


def covered(app, lines):
    """The part of a job's result lines the independent references cover."""
    if app == "motif":
        return {ln.split(";")[2]: int(ln.split("\t")[1]) for ln in lines}
    if app == "fsm":
        return {ln.split(";")[1]: int(ln.split("\t")[1]) for ln in lines
                if ln.startswith("2;")}
    return {"cliques": int(lines[0].split("\t")[1])}


def independent(app, edges, labels, support=None):
    """What covered() must return for a correct result on this input."""
    if app == "motif":
        return motif4_census(edges)
    if app == "fsm":
        return frequent_edges(edges, labels, support)
    return {"cliques": count_4cliques(edges)}
