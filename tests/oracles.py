"""Independent reference implementations used to validate the engine.

Everything here is deliberately naive: exhaustive enumeration,
permutation search, Laplace expansion. Nothing imports engine internals
beyond the Graph container, the store's level types and error type and
the result-line format, so an engine bug cannot hide in its oracle. The one exception is the fingerprint section:
classify_triple chains the engine's own canonical sort and
characteristic polynomial into the paper's (labels, degrees,
polynomial) triple, which gmine no longer keys patterns by, for tests
that check that invariant.
"""

import itertools
from functools import lru_cache

import numpy as np

from gmine.fingerprint import PAIR_BIT, _check_k, canonical_sort, char_polynomial
from gmine.mining import result_lines
from gmine.store import InvariantError, PartInfo


# -- graph and store helpers -------------------------------------------------

def degree(g, v):
    return int(g.offsets[v + 1] - g.offsets[v])


def check_link(g, u, v):
    """True iff edge {u, v} exists; binary search in the shorter slice."""
    if degree(g, u) > degree(g, v):
        u, v = v, u
    sl = g.neighbors(u)
    i = int(np.searchsorted(sl, v))
    return i < len(sl) and sl[i] == v


def edge_endpoints(g, eid):
    return int(g.edge_u[eid]), int(g.edge_v[eid])


def reference_graph_arrays(edges, labels=None):
    """Graph.from_edges' (offsets, neighbor_ids, labels, orig_ids) built
    the plain way: a sorted set of dense directed pairs without
    self-loops, a dict of neighbor lists, one label lookup per vertex."""
    edges = [(int(u), int(v)) for u, v in edges]
    ids = sorted({x for e in edges for x in e})
    dense = {o: i for i, o in enumerate(ids)}
    pairs = sorted({(dense[u], dense[v]) for u, v in edges if u != v}
                   | {(dense[v], dense[u]) for u, v in edges if u != v})
    adj = {i: [] for i in range(len(ids))}
    for a, b in pairs:
        adj[a].append(b)
    offsets = np.array([0] + [len(adj[i]) for i in range(len(ids))], dtype=np.int64).cumsum()
    nbr = np.array([w for i in range(len(ids)) for w in adj[i]], dtype=np.int32)
    lab = np.array([(labels or {}).get(o, 0) for o in ids], dtype=np.int32)
    return offsets, nbr, lab, np.array(ids, dtype=np.int64)


def write_edge_list(g, path):
    """Write back as a sorted edge list over original ids (round-trips)."""
    with open(path, "w") as fh:
        for u, v in zip(g.edge_u, g.edge_v):
            fh.write("%d %d\n" % (g.orig_ids[u], g.orig_ids[v]))


def write_labels(g, path):
    with open(path, "w") as fh:
        for v in range(g.num_vertices):
            fh.write("%d %d\n" % (g.orig_ids[v], g.labels[v]))


def write_result(path, items, summary):
    """Result lines as the CLI's --output writes them, then summary."""
    with open(path, "w") as fh:
        for ln in result_lines(items):
            fh.write(ln + "\n")
        fh.write(summary + "\n")


def append_whole(store, vert, off, pred=None):
    """Push a level given as whole vert and off arrays, as one in-memory
    part spanning every parent of the top, through append_level."""
    vert = np.asarray(vert, dtype=store.id_dtype)
    off = np.asarray(off, dtype=np.int64)
    part = PartInfo(None, store.depth + 1, 0, store.top.count, 0, len(vert), 0,
                    vert, off)
    return store.append_level([part], pred)


def whole_arrays(level):
    """A resident level's whole (vert, off) arrays, joined from its
    parts; vert is None for the identity level."""
    parts = level.parts
    if any(p.off is None for p in parts):
        raise InvariantError("level %d is not memory resident" % level.index)
    if not parts:
        return np.zeros(0, "i%d" % level.id_width), np.zeros(1, np.int64)
    if len(parts) == 1:
        return parts[0].vert, parts[0].off
    return (np.concatenate([p.vert for p in parts]),
            np.concatenate([parts[0].off] + [p.off[1:] for p in parts[1:]]))


def part_of(index, vert, off, ps=0):
    """An in-memory part of level index: ids vert under the absolute
    off segment of the parents from ps on, as replay hands a window to
    the kernels."""
    return PartInfo(None, index, ps, ps + len(off) - 1, int(off[0]), int(off[-1]),
                    0, vert, off)


def level_slices(store):
    """Each level of a resident store as one part of its whole arrays."""
    return [part_of(l.index, *whole_arrays(l)) for l in store.levels]


def is_identity(level):
    return whole_arrays(level)[0] is None


def level_size_bytes(store, index):
    return store.level(index).size_bytes()


def total_bytes(store):
    return sum(l.size_bytes() for l in store.levels)


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


def incident_edges(g, v):
    """Ascending ids of the edges touching vertex v."""
    off, ids = g.incident_csr
    return ids[off[v]:off[v + 1]]


def connected_edge_subsets(g, k_edges):
    """All connected k-edge subsets (as sorted edge-id tuples), each once."""
    m = g.num_edges
    inc = [set(incident_edges(g, v).tolist()) for v in range(g.num_vertices)]
    out = set()

    def neighbors_of_edge(e):
        u, v = edge_endpoints(g, e)
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
    vs = sorted({x for e in eids for x in edge_endpoints(g, e)})
    pos = {v: i for i, v in enumerate(vs)}
    k = len(vs)
    a = [[0] * k for _ in range(k)]
    for e in eids:
        u, v = edge_endpoints(g, e)
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


def rank_dag_lists(g):
    """Per rank, the ascending ranks of the higher-ranked neighbors of
    the vertex of that rank, vertices ranked by (degree, id): the plain
    form of Graph.rank_dag."""
    order = sorted(range(g.num_vertices), key=lambda v: (degree(g, v), v))
    rank = {v: r for r, v in enumerate(order)}
    return [sorted(rank[w] for w in g.neighbors(v).tolist() if rank[w] > r)
            for r, v in enumerate(order)]


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
    ends = [set(edge_endpoints(g, e)) for e in seq]
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
        if check_link(g, u, v):
            a0 = i
            break
    if a0 is None:
        return False
    return all(emb[b] < v for b in range(a0 + 1, len(emb)))


def is_canonical_edge_extension(g, emb, eid):
    """Edge-id analogue: emb is a list of edge ids."""
    if eid in emb or eid <= emb[0]:
        return False
    x, y = edge_endpoints(g, eid)
    a0 = None
    for i, f in enumerate(emb):
        u, v = edge_endpoints(g, f)
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
        u, v = edge_endpoints(g, f)
        cand.update(incident_edges(g, u).tolist())
        cand.update(incident_edges(g, v).tolist())
    cand.difference_update(emb)
    return len(cand)


def gather_volume(g, emb, rows=None):
    """Entries the explore kernel gathers for vertex embedding emb: the
    summed lengths of its members' rows, by default their neighbor
    lists. Every candidate is one of them, so the volume bounds
    predict_candidate_size."""
    rows = g.adj if rows is None else rows
    return sum(len(rows[u]) for u in emb)


def gather_volume_edges(g, emb):
    """The edge analogue: the summed incident-list lengths of the
    distinct endpoints of emb's edges."""
    ends = {x for f in emb for x in edge_endpoints(g, f)}
    return sum(len(incident_edges(g, x)) for x in ends)


# -- store walks -----------------------------------------------------------------

def slice_value(sl, i):
    """Id at global offset i of an in-memory part (i itself for identity)."""
    return int(i) if sl.vert is None else int(sl.vert[i - sl.vs])


def slice_parent_of(sl, offset):
    i = int(np.searchsorted(sl.off, offset, side="right")) - 1
    return i + sl.ps


def slice_end(sl, parent):
    return int(sl.off[parent - sl.ps + 1])


def iter_embeddings(slices, lo, hi):
    """Yield (offset, ids) for top-level offsets in [lo, hi).

    slices[0..L-1] cover levels 1..L and must each contain the offsets
    the walk touches. The ids list is reused between yields; callers
    that keep it must copy. Runs as an odometer: successive offsets
    share their prefix until a parent slice boundary is crossed.
    """
    depth = len(slices)
    if lo >= hi:
        return
    anc = [0] * depth
    emb = [0] * depth
    o = lo
    for li in range(depth - 1, -1, -1):
        anc[li] = o
        emb[li] = slice_value(slices[li], o)
        if li:
            o = slice_parent_of(slices[li], o)
    yield lo, emb
    top = depth - 1
    for o in range(lo + 1, hi):
        anc[top] = o
        emb[top] = slice_value(slices[top], o)
        li = top
        cur = o
        while li > 0:
            p = anc[li - 1]
            if cur < slice_end(slices[li], p):
                break
            while cur >= slice_end(slices[li], p):  # skip childless parents
                p += 1
            anc[li - 1] = p
            emb[li - 1] = slice_value(slices[li - 1], p)
            cur = p
            li -= 1
        yield o, emb


def extract(store, level_index, offset):
    """Recover the full id tuple of one embedding of an EmbeddingStore.

    Walks parents by binary search: the parent of offset o at level l
    is the slice whose off interval contains o. All touched levels
    must be memory resident.
    """
    lvl = store.level(level_index)
    if not 0 <= offset < lvl.count:
        raise IndexError("offset %d out of range at level %d" % (offset, level_index))
    out = []
    o = int(offset)
    for li in range(level_index, 0, -1):
        vert, off = whole_arrays(store.level(li))
        out.append(int(o) if vert is None else int(vert[o]))
        if li > 1:
            o = int(np.searchsorted(off, o, side="right")) - 1
    out.reverse()
    return tuple(out)


# -- reference expander ------------------------------------------------------------

def touch_lists(g, mode):
    """Per id, the ascending candidate lists it touches: a vertex its
    neighbor list, an edge the incident-edge lists of both endpoints
    (one list per vertex, sharing one int object per edge id)."""
    if mode == "vertex":
        return [(a,) for a in g.adj]
    ids = list(range(g.num_edges))
    inc = [list(map(ids.__getitem__, incident_edges(g, v).tolist()))
           for v in range(g.num_vertices)]
    return list(zip(map(inc.__getitem__, g.edge_u.tolist()),
                    map(inc.__getitem__, g.edge_v.tolist())))


def reference_expand(g, mode, slices, lo, hi, flt=None, alive=None,
                     want_pred=True, id_dtype=np.int32, clique=False):
    """Expand top-level offsets [lo, hi) by one id, one dict per parent.

    Returns (vert, counts, preds) arrays for the range, as the engine's
    expand_vertex_range does. flt(emb, v) is a per-candidate callback.
    Candidates are gathered into one dict per parent keyed first-touch,
    which records the earliest attachment index; embedding members
    carry a sentinel. A child's prediction is its gather volume, or
    with clique (vertex mode) the length of its new vertex's list, the
    one list a clique explore gathers.
    """
    if clique:
        def volume(g, emb):
            return len(g.adj[emb[-1]])
    else:
        volume = gather_volume if mode == "vertex" else gather_volume_edges
    touch = touch_lists(g, mode)
    out_vert = []
    counts = np.zeros(hi - lo, dtype=np.int32)
    out_pred = [] if want_pred else None
    for off, emb in iter_embeddings(slices, lo, hi):
        if alive is not None and not alive[off]:
            continue
        k = len(emb)
        head = emb[0]
        seen = {}
        for u in emb:
            seen[u] = -1
        for i in range(k):
            for lst in touch[emb[i]]:
                for w in lst:
                    if w not in seen:
                        seen[w] = i
        sm = [-1] * k  # sm[i] = max of emb[i+1:]
        m = -1
        for i in range(k - 1, -1, -1):
            sm[i] = m
            if emb[i] > m:
                m = emb[i]
        produced = 0
        for v in sorted(seen):
            a0 = seen[v]
            if a0 < 0 or v <= head or v <= sm[a0]:
                continue
            if flt is not None and not flt(emb, v):
                continue
            out_vert.append(v)
            produced += 1
            if want_pred:
                out_pred.append(volume(g, emb + [v]))
        counts[off - lo] = produced
    vert = np.array(out_vert, dtype=id_dtype)
    pred = np.array(out_pred, dtype=np.int32) if want_pred else None
    return vert, counts, pred


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


# -- fingerprint helpers --------------------------------------------------------

def bits_from_pairs(k, pairs):
    """Pack undirected position pairs into an upper-triangle bitmap."""
    tab = PAIR_BIT[k]
    bits = 0
    for i, j in pairs:
        bits |= 1 << tab[i][j]
    return bits


def bitmap_rows(k, bits):
    """0/1 adjacency rows of a k-vertex upper-triangle bitmap."""
    tab = PAIR_BIT[k]
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if bits >> tab[i][j] & 1:
                rows[i][j] = rows[j][i] = 1
    return tuple(tuple(r) for r in rows)


def weighted_matrix(sorted_labels, bits, weight_base):
    """Symmetric integer matrix with edge {i,j} weighted by the label pair.

    weight_base must exceed max_label + 1 so distinct unordered label
    pairs get distinct weights; unlabeled graphs use uniform weight 3.
    """
    k = len(sorted_labels)
    tab = PAIR_BIT[k]
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        li = sorted_labels[i]
        for j in range(i + 1, k):
            if bits >> tab[i][j] & 1:
                lj = sorted_labels[j]
                a, b = (li, lj) if li <= lj else (lj, li)
                w = (a + 1) * weight_base + (b + 1)
                m[i][j] = w
                m[j][i] = w
    return m


def classify_triple(labels, degrees, bits, weight_base):
    """One-shot (L, D, P) triple for a raw embedding, no caching."""
    _check_k(len(labels))
    ls, ds, sbits, _ = canonical_sort(labels, degrees, bits)
    poly = char_polynomial(weighted_matrix(ls, sbits, weight_base))
    return tuple(ls), tuple(ds), poly


def brute_orbits(labels, bits):
    """The orbits of positions 0..k-1, as a set of position sets, under
    every permutation of the positions that keeps the labels and the
    bitmap: a search over all k! permutations, not the hasher's blocks."""
    k = len(labels)
    tab = PAIR_BIT[k]
    adj = [[i != j and bool(bits >> tab[i][j] & 1) for j in range(k)] for i in range(k)]
    auts = [p for p in itertools.permutations(range(k))
            if all(labels[p[i]] == labels[i] for i in range(k))
            and all(adj[p[i]][p[j]] == adj[i][j] for i in range(k) for j in range(i))]
    return {frozenset(p[i] for p in auts) for i in range(k)}


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
