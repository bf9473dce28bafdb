"""Immutable compressed-sparse graph with optional vertex labels."""

import numpy as np


class GraphFormatError(ValueError):
    """Malformed graph or label file (message carries a 1-based line number)."""


def _dtype_for(n):
    # 32-bit ids unless the id space outgrows them
    return np.int32 if n <= 0x7FFFFFFF else np.int64


class Graph:
    """Undirected simple graph stored as sorted adjacency in CSR form.

    Input vertex ids are densified to 0..n-1 in ascending order of the
    original ids; ``orig_ids[v]`` recovers the input id. Neighbor slices
    are strictly ascending, adjacency is symmetric, and self-loops and
    duplicate edges are dropped during construction.
    """

    def __init__(self, offsets, neighbors, labels, orig_ids):
        self.offsets = offsets        # int64, len n+1
        self.neighbor_ids = neighbors  # id dtype, len 2m, ascending per slice
        self.labels = labels          # int32, len n (zeros when unlabeled)
        self.orig_ids = orig_ids      # dense id -> original input id
        self.num_vertices = len(offsets) - 1
        self.num_edges = len(neighbors) // 2
        self.max_label = int(labels.max()) if len(labels) else 0
        self._adj = None
        self._adj_sets = None
        self._edge_keys = None
        self._edge_u = None
        self._edge_v = None
        self._inc_ids = None
        self._dag = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, edges, labels=None):
        """Build from an iterable of (u, v) pairs with arbitrary ids.

        ``labels`` is an optional {orig_id: label} mapping; vertices it
        does not cover get label 0.
        """
        pairs = set()
        ids = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u < 0 or v < 0:
                raise GraphFormatError("negative vertex id %d" % min(u, v))
            ids.add(u)
            ids.add(v)
            if u == v:
                continue
            pairs.add((u, v) if u < v else (v, u))
        orig = np.array(sorted(ids), dtype=np.int64)
        n = len(orig)
        remap = {int(o): i for i, o in enumerate(orig)}
        dt = _dtype_for(n)
        deg = np.zeros(n, dtype=np.int64)
        ulist = np.empty(len(pairs), dtype=dt)
        vlist = np.empty(len(pairs), dtype=dt)
        for i, (a, b) in enumerate(pairs):
            a, b = remap[a], remap[b]
            ulist[i] = a
            vlist[i] = b
            deg[a] += 1
            deg[b] += 1
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=offsets[1:])
        fill = offsets[:-1].copy()
        nbr = np.empty(len(pairs) * 2, dtype=dt)
        for a, b in zip(ulist, vlist):
            nbr[fill[a]] = b
            fill[a] += 1
            nbr[fill[b]] = a
            fill[b] += 1
        for i in range(n):  # per-slice sort keeps slices strictly ascending
            nbr[offsets[i]:offsets[i + 1]].sort()
        lab = np.zeros(n, dtype=np.int32)
        if labels:
            for o, l in labels.items():
                l = int(l)
                if l < 0:
                    raise GraphFormatError("negative label %d for vertex %d" % (l, o))
                i = remap.get(int(o))
                if i is not None:
                    lab[i] = l
        return cls(offsets, nbr, lab, orig)

    # -- queries ------------------------------------------------------

    def neighbors(self, v):
        """Ascending neighbor ids of dense vertex v (a view, not a copy)."""
        return self.neighbor_ids[self.offsets[v]:self.offsets[v + 1]]

    def degree(self, v):
        return int(self.offsets[v + 1] - self.offsets[v])

    @property
    def degrees(self):
        return np.diff(self.offsets)

    # -- lazy derived structures ---------------------------------------

    @property
    def adj(self):
        """Neighbor lists as plain Python lists (fast scalar iteration)."""
        if self._adj is None:
            self._adj = [self.neighbors(v).tolist() for v in range(self.num_vertices)]
        return self._adj

    @property
    def adj_sets(self):
        if self._adj_sets is None:
            self._adj_sets = [set(l) for l in self.adj]
        return self._adj_sets

    @property
    def edge_keys(self):
        """Sorted int64 keys u * n + v, one per ordered adjacent pair.

        CSR order is already key order, so the build is one pass; edge
        {u, v} exists iff a binary search finds u * n + v here.
        """
        if self._edge_keys is None:
            n = self.num_vertices
            src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.offsets))
            self._edge_keys = src * n + self.neighbor_ids
        return self._edge_keys

    def _build_edge_table(self):
        # edge ids follow lexicographic (min endpoint, max endpoint) order
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=self.neighbor_ids.dtype),
                        np.diff(self.offsets))
        mask = src < self.neighbor_ids
        self._edge_u = src[mask]
        self._edge_v = self.neighbor_ids[mask]
        m = len(self._edge_u)
        # At vertex x, every edge (w, x) with w < x precedes every (x, w),
        # so a stable sort of second endpoints, then first endpoints,
        # lists each vertex's edge ids ascending, in CSR slice sizes.
        order = np.argsort(np.concatenate((self._edge_v, self._edge_u)), kind="stable")
        self._inc_ids = (order % max(m, 1)).astype(_dtype_for(m))
        self._inc_ids.flags.writeable = False

    @property
    def incident_csr(self):
        """(offsets, ids), read-only: the ascending ids of the edges
        touching v are ids[offsets[v]:offsets[v + 1]]."""
        if self._inc_ids is None:
            self._build_edge_table()
        off = self.offsets.view()
        off.flags.writeable = False
        return off, self._inc_ids

    @property
    def rank_dag(self):
        """(offsets, ids), read-only: the graph oriented by rank, where
        vertices rank by (degree, id). Row r holds, ascending, the ranks
        above r among the neighbors of the vertex ranked r, so each edge
        appears once (Chiba and Nishizeki, 1985)."""
        if self._dag is None:
            n = self.num_vertices
            rank = np.empty(n, dtype=self.neighbor_ids.dtype)
            rank[np.argsort(self.degrees, kind="stable")] = np.arange(n)
            src = np.repeat(rank, self.degrees)
            dst = rank[self.neighbor_ids]
            up = src < dst
            src, dst = src[up], dst[up]
            del up
            ids = dst[np.argsort(src * np.int64(n) + dst, kind="stable")]
            off = np.zeros(n + 1, dtype=_dtype_for(self.num_edges))
            np.cumsum(np.bincount(src, minlength=n), out=off[1:])
            off.flags.writeable = ids.flags.writeable = False
            self._dag = off, ids
        return self._dag

    @property
    def edge_u(self):
        if self._edge_u is None:
            self._build_edge_table()
        return self._edge_u

    @property
    def edge_v(self):
        if self._edge_v is None:
            self._build_edge_table()
        return self._edge_v

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.neighbor_ids, other.neighbor_ids)
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.orig_ids, other.orig_ids))

    def __repr__(self):
        return "Graph(n=%d, m=%d, labels=%d)" % (
            self.num_vertices, self.num_edges, self.max_label + 1)


def _parse_pairs(path):
    with open(path) as fh:
        for no, line in enumerate(fh, 1):
            s = line.strip()
            if not s or s[0] in "#%":
                continue
            parts = s.split()
            if len(parts) < 2:
                raise GraphFormatError("%s:%d: expected two ids, got %r" % (path, no, s))
            try:
                yield no, int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("%s:%d: non-integer field in %r" % (path, no, s)) from None


def load_graph(edge_path, label_path=None):
    """Load an undirected graph from a whitespace edge list.

    Lines starting with '#' or '%' and blank lines are skipped. Each data
    line is "u v". The optional label file holds "vertex_id label_id"
    lines in the same format; original ids are matched before
    densification and ids unseen in the edge list are ignored.
    """
    try:
        edges = [(u, v) for _, u, v in _parse_pairs(edge_path)]
    except GraphFormatError:
        raise
    except OSError as e:
        raise GraphFormatError("cannot read %s: %s" % (edge_path, e)) from None
    labels = None
    if label_path is not None:
        labels = {}
        for _, vid, lab in _parse_pairs(label_path):
            labels[vid] = lab
    return Graph.from_edges(edges, labels)
