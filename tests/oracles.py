"""Independent reference implementations used to validate the engine.

Everything here is deliberately naive: exhaustive enumeration,
permutation search, Laplace expansion. Nothing imports engine internals
beyond the Graph container, so an engine bug cannot hide in its oracle.
"""

import itertools
from functools import lru_cache


# -- enumeration -----------------------------------------------------------

def connected_subsets_brute(adj_sets, n, k):
    """All connected k-vertex subsets via combinations + connectivity."""
    out = []
    for combo in itertools.combinations(range(n), k):
        if is_connected_subset(adj_sets, combo):
            out.append(combo)
    return out


def is_connected_subset(adj_sets, verts):
    vs = set(verts)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        u = stack.pop()
        for w in adj_sets[u]:
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def enumerate_connected_subsets(adj_sets, n, k):
    """ESU-style enumeration: each connected k-subset exactly once."""
    out = []

    def extend(sub, ext, v):
        if len(sub) == k:
            out.append(tuple(sorted(sub)))
            return
        ext = list(ext)
        while ext:
            w = ext.pop()
            ext2 = list(ext)
            excl = set(sub)
            for s in sub:
                excl |= adj_sets[s]
            for u in adj_sets[w]:
                if u > v and u not in excl:
                    ext2.append(u)
            extend(sub + [w], ext2, v)

    for v in range(n):
        extend([v], sorted(u for u in adj_sets[v] if u > v), v)
    return out


def connected_edge_subsets(g, k_edges):
    """All connected k-edge subsets (as sorted edge-id tuples), each once."""
    m = g.num_edges
    inc = [set(g.incident_edges(v).tolist()) for v in range(g.num_vertices)]
    out = set()

    def neighbors_of_edge(e):
        u, v = g.edge_endpoints(e)
        return (inc[u] | inc[v]) - {e}

    def grow(sub, frontier):
        if len(sub) == k_edges:
            out.add(tuple(sorted(sub)))
            return
        for f in list(frontier):
            if f in sub:
                continue
            grow(sub | {f}, frontier | neighbors_of_edge(f))

    for e in range(m):
        grow({e}, neighbors_of_edge(e))
    return sorted(out)


# -- isomorphism ------------------------------------------------------------

def subgraph_form(g, verts, labeled=False):
    """(labels, adjacency matrix rows as tuples) for an induced subgraph."""
    k = len(verts)
    labels = tuple(int(g.labels[v]) if labeled else 0 for v in verts)
    rows = []
    sets = g.adj_sets
    for i in range(k):
        rows.append(tuple(1 if j != i and verts[j] in sets[verts[i]] else 0
                          for j in range(k)))
    return labels, tuple(rows)


def induced_bitmap(adj_sets, verts):
    """Adjacency bitmap of the subgraph induced on a vertex sequence: bit
    b stands for the b-th position pair (i, j), i < j, in row-major order."""
    bits = 0
    b = 0
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if verts[j] in adj_sets[verts[i]]:
                bits |= 1 << b
            b += 1
    return bits


def edge_subgraph_form(g, eids, labeled=True):
    """Form for the subgraph made of the given edges (not induced)."""
    vs = sorted({x for e in eids for x in g.edge_endpoints(e)})
    pos = {v: i for i, v in enumerate(vs)}
    k = len(vs)
    a = [[0] * k for _ in range(k)]
    for e in eids:
        u, v = g.edge_endpoints(e)
        a[pos[u]][pos[v]] = 1
        a[pos[v]][pos[u]] = 1
    labels = tuple(int(g.labels[v]) if labeled else 0 for v in vs)
    return labels, tuple(tuple(r) for r in a), vs


def iso_oracle(labels_a, rows_a, labels_b, rows_b):
    """Backtracking labeled-graph isomorphism test on tiny graphs."""
    k = len(labels_a)
    if len(labels_b) != k:
        return False
    if sorted(labels_a) != sorted(labels_b):
        return False
    da = sorted(sum(r) for r in rows_a)
    db = sorted(sum(r) for r in rows_b)
    if da != db:
        return False
    used = [False] * k
    mapping = [-1] * k

    def place(i):
        if i == k:
            return True
        for j in range(k):
            if used[j] or labels_a[i] != labels_b[j]:
                continue
            ok = True
            for p in range(i):
                if rows_a[i][p] != rows_b[j][mapping[p]]:
                    ok = False
                    break
            if ok:
                used[j] = True
                mapping[i] = j
                if place(i + 1):
                    return True
                used[j] = False
                mapping[i] = -1
        return False

    return place(0)


def all_isomorphisms(labels_a, rows_a, labels_b, rows_b):
    """Every bijection a->b preserving labels and adjacency."""
    k = len(labels_a)
    found = []
    used = [False] * k
    mapping = [-1] * k

    def place(i):
        if i == k:
            found.append(tuple(mapping))
            return
        for j in range(k):
            if used[j] or labels_a[i] != labels_b[j]:
                continue
            if any(rows_a[i][p] != rows_b[j][mapping[p]] for p in range(i)):
                continue
            used[j] = True
            mapping[i] = j
            place(i + 1)
            used[j] = False
            mapping[i] = -1

    place(0)
    return found


def min_perm_form(labels, rows):
    """Lexicographically minimal (labels, flattened adjacency) over all
    permutations: a true canonical form by definition."""
    k = len(labels)
    best = None
    for perm in itertools.permutations(range(k)):
        lab = tuple(labels[perm[i]] for i in range(k))
        flat = tuple(rows[perm[i]][perm[j]] for i in range(k) for j in range(k))
        cand = (lab, flat)
        if best is None or cand < best:
            best = cand
    return best


# -- counting ---------------------------------------------------------------

def brute_motif_counts(g, k):
    """Induced connected k-pattern census keyed by min-perm form."""
    counts = {}
    for sub in enumerate_connected_subsets(g.adj_sets, g.num_vertices, k):
        form = min_perm_form(*subgraph_form(g, sub, labeled=False))
        counts[form] = counts.get(form, 0) + 1
    return counts


def brute_triangles(g):
    n = g.num_vertices
    sets = g.adj_sets
    total = 0
    for a in range(n):
        for b in range(a + 1, n):
            if b not in sets[a]:
                continue
            for c in range(b + 1, n):
                if c in sets[a] and c in sets[b]:
                    total += 1
    return total


def brute_cliques(g, k):
    sets = g.adj_sets
    total = 0
    for combo in itertools.combinations(range(g.num_vertices), k):
        if all(combo[j] in sets[combo[i]]
               for i in range(k) for j in range(i + 1, k)):
            total += 1
    return total


def brute_mni(g, k_edges):
    """Exact minimum-image supports for every connected k-edge pattern.

    Returns {min-perm form: support} computed from scratch: for every
    embedding, every isomorphism onto the pattern representative
    contributes its vertex images to the per-position domains.
    """
    groups = {}
    reps = {}
    for eids in connected_edge_subsets(g, k_edges):
        labels, rows, vs = edge_subgraph_form(g, eids)
        form = min_perm_form(labels, rows)
        if form not in reps:
            reps[form] = (labels, rows)
        groups.setdefault(form, []).append((labels, rows, vs))
    supports = {}
    for form, members in groups.items():
        rl, rr = reps[form]
        k = len(rl)
        domains = [set() for _ in range(k)]
        for labels, rows, vs in members:
            for mapping in all_isomorphisms(labels, rows, rl, rr):
                for i, slot in enumerate(mapping):
                    domains[slot].add(vs[i])
        supports[form] = min(len(d) for d in domains)
    return supports


# -- canonicality (straight from the ordering rules) -------------------------

def ordering_is_canonical(g, seq):
    """Direct check of the three ordering rules for a vertex sequence."""
    k = len(seq)
    sets = g.adj_sets
    for c in range(1, k):
        if seq[c] <= seq[0]:
            return False
        a = None
        for i in range(c):
            if seq[c] in sets[seq[i]]:
                a = i
                break
        if a is None:
            return False  # disconnected prefix
        for b in range(a + 1, c):
            if seq[b] >= seq[c]:
                return False
    return True


def ordering_is_canonical_edges(g, seq):
    """Direct check for an edge-id sequence (adjacency = shared endpoint)."""
    k = len(seq)
    ends = [set(g.edge_endpoints(e)) for e in seq]
    for c in range(1, k):
        if seq[c] <= seq[0]:
            return False
        a = None
        for i in range(c):
            if ends[i] & ends[c]:
                a = i
                break
        if a is None:
            return False
        for b in range(a + 1, c):
            if seq[b] >= seq[c]:
                return False
    return True


def is_canonical_extension(g, emb, v):
    """True iff appending vertex v to canonical emb stays canonical."""
    if v in emb or v <= emb[0]:
        return False
    a0 = None
    for i, u in enumerate(emb):
        if g.check_link(u, v):
            a0 = i
            break
    if a0 is None:
        return False
    return all(emb[b] < v for b in range(a0 + 1, len(emb)))


def is_canonical_edge_extension(g, emb, eid):
    """Edge-id analogue: emb is a list of edge ids."""
    if eid in emb or eid <= emb[0]:
        return False
    x, y = g.edge_endpoints(eid)
    a0 = None
    for i, f in enumerate(emb):
        u, v = g.edge_endpoints(f)
        if x == u or x == v or y == u or y == v:
            a0 = i
            break
    if a0 is None:
        return False
    return all(emb[b] < eid for b in range(a0 + 1, len(emb)))


# -- candidate prediction ------------------------------------------------------

def predict_candidate_size(g, emb):
    """|union of neighborhoods minus emb|: the width of the next level's
    slice for this embedding before canonicality filtering."""
    cand = set()
    for u in emb:
        cand.update(g.adj[u])
    cand.difference_update(emb)
    return len(cand)


def predict_candidate_size_edges(g, emb):
    cand = set()
    for f in emb:
        u, v = g.edge_endpoints(f)
        cand.update(g.incident_edges(u).tolist())
        cand.update(g.incident_edges(v).tolist())
    cand.difference_update(emb)
    return len(cand)


# -- characteristic polynomial by Laplace expansion ---------------------------

def cofactor_charpoly(m):
    """det(lambda*I - M) by cofactor expansion along the first remaining
    row, minors shared through memoization. Returns (p_{k-1}, .., p_0)."""
    k = len(m)

    def padd(a, b):
        n = max(len(a), len(b))
        return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n))

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return tuple(out)

    entries = [[((-m[i][j],) if i != j else (-m[i][j], 1)) for j in range(k)]
               for i in range(k)]

    @lru_cache(maxsize=None)
    def det(colmask):
        cols = [j for j in range(k) if colmask >> j & 1]
        if not cols:
            return (1,)
        r = k - len(cols)
        acc = (0,)
        sign = 1
        for t, j in enumerate(cols):
            sub = det(colmask & ~(1 << j))
            term = pmul(entries[r][j], sub)
            if sign < 0:
                term = tuple(-x for x in term)
            acc = padd(acc, term)
            sign = -sign
        return acc

    poly = det((1 << k) - 1)  # ascending coefficients, degree k
    det.cache_clear()
    assert len(poly) == k + 1 and poly[k] == 1
    return tuple(poly[k - 1 - i] for i in range(k))


# -- random graphs ------------------------------------------------------------

def random_connected_edges(rng, n, extra):
    """Random spanning tree plus `extra` random edges (original ids 0..n-1)."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[rng.randrange(i)]
        b = order[i]
        edges.add((min(a, b), max(a, b)))
    tries = 0
    while len(edges) < n - 1 + extra and tries < 20 * (extra + 1):
        a, b = rng.randrange(n), rng.randrange(n)
        tries += 1
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)
