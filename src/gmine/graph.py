"""Immutable compressed-sparse graph with optional vertex labels."""

import numpy as np

from .explore import run_heads

ID_MAX = 2 ** 63 - 1      # input vertex ids are int64
LABEL_MAX = 2 ** 31 - 1   # labels are int32


class GraphFormatError(ValueError):
    """Malformed graph or label input (from a file: path and 1-based line)."""


def _dtype_for(n):
    # 32-bit ids unless the id space outgrows them
    return np.int32 if n <= 0x7FFFFFFF else np.int64


def _out_of_range(what, value, top):
    return ("negative %s %d" % (what, value) if value < 0
            else "%s %d out of range 0..%d" % (what, value, top))


def _keyed_csr(keys, n, off_dtype):
    """(offsets, ids) of the CSR over n rows whose sorted int64 keys are
    row * n + id, one per entry."""
    off = np.zeros(n + 1, dtype=off_dtype)
    np.cumsum(np.bincount(keys // n, minlength=n), out=off[1:])
    return off, (keys % n).astype(_dtype_for(n))


def _int64_array(values, what, top):
    """values as an int64 array, each checked to lie in 0..top. An
    integer ndarray is checked as it is, before the cast, so no value
    wraps."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        a = values
    else:
        try:
            a = np.array(values, dtype=np.int64)
        except OverflowError:
            raise GraphFormatError("%s out of range 0..%d" % (what, top)) from None
    if a.size and not 0 <= a.min() <= a.max() <= top:
        bad = a.min() if a.min() < 0 else a.max()
        raise GraphFormatError(_out_of_range(what, int(bad), top))
    return a.astype(np.int64, copy=False)


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
        self._dag_keys = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, edges, labels=None):
        """Build from an iterable of (u, v) pairs, or an (m, 2) integer
        ndarray, with ids in 0..2^63-1.

        ``labels`` is an optional {orig_id: label} mapping with labels in
        0..2^31-1; vertices it does not cover get label 0, and ids that
        are not in the graph are ignored.
        """
        e = _int64_array(edges if isinstance(edges, np.ndarray) else list(edges),
                         "vertex id", ID_MAX)
        if e.size and e.shape[1:] != (2,):
            raise GraphFormatError("edges must be (u, v) pairs")
        orig, inv = np.unique(e, return_inverse=True)
        n = len(orig)
        # the inverse's shape changed across numpy 2.0.x; fix it to (m, 2)
        a, b = inv.reshape(-1, 2).T
        keep = a != b  # drop self-loops; each other pair goes in both directions
        a, b = a[keep], b[keep]
        keys = np.sort(np.concatenate((a * n + b, b * n + a)))
        offsets, nbr = _keyed_csr(keys[run_heads(keys)], n, np.int64)
        lab = np.zeros(n, dtype=np.int32)
        if labels:
            ids = _int64_array(list(labels), "vertex id", ID_MAX)
            vals = _int64_array(list(labels.values()), "label", LABEL_MAX)
            hit = np.isin(ids, orig)
            lab[np.searchsorted(orig, ids[hit])] = vals[hit]
        return cls(offsets, nbr, lab, orig)

    # -- queries ------------------------------------------------------

    def neighbors(self, v):
        """Ascending neighbor ids of dense vertex v (a view, not a copy)."""
        return self.neighbor_ids[self.offsets[v]:self.offsets[v + 1]]

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

    def _build_rank_dag(self):
        n = self.num_vertices
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(self.degrees, kind="stable")] = np.arange(n)
        src = np.repeat(rank, self.degrees)
        dst = rank[self.neighbor_ids]
        up = src < dst
        keys = src[up] * n + dst[up]
        del src, dst, up
        keys.sort()
        off, ids = _keyed_csr(keys, n, _dtype_for(self.num_edges))
        off.flags.writeable = ids.flags.writeable = keys.flags.writeable = False
        self._dag = off, ids
        self._dag_keys = keys

    @property
    def rank_dag(self):
        """(offsets, ids), read-only: the graph oriented by rank, where
        vertices rank by (degree, id). Row r holds, ascending, the ranks
        above r among the neighbors of the vertex ranked r, so each edge
        appears once (Chiba and Nishizeki, 1985)."""
        if self._dag is None:
            self._build_rank_dag()
        return self._dag

    @property
    def rank_dag_keys(self):
        """The rank DAG's entries as sorted int64 keys r * n + s,
        read-only: rank s is in row r iff a binary search finds the key."""
        if self._dag is None:
            self._build_rank_dag()
        return self._dag_keys

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


def _read_pairs(path, what="vertex id", top=ID_MAX):
    """The (vertex id, second column) int pairs of path's data lines,
    each checked against its range; errors name path:line."""
    pairs = []
    try:
        with open(path) as fh:
            for no, line in enumerate(fh, 1):
                parts = line.split()
                if not parts or parts[0][0] in "#%":
                    continue
                try:
                    u, v = int(parts[0]), int(parts[1])
                except (IndexError, ValueError):
                    raise GraphFormatError("%s:%d: expected two integers, got %r"
                                           % (path, no, line.strip())) from None
                if not (0 <= u <= ID_MAX and 0 <= v <= top):
                    bad = (what, v, top) if 0 <= u <= ID_MAX else ("vertex id", u, ID_MAX)
                    raise GraphFormatError("%s:%d: %s" % (path, no, _out_of_range(*bad)))
                pairs.append((u, v))
    except (OSError, UnicodeDecodeError) as e:
        raise GraphFormatError("cannot read %s: %s" % (path, e)) from None
    return pairs


def load_graph(edge_path, label_path=None):
    """Load an undirected graph from a whitespace edge list.

    Blank lines and lines starting with '#' or '%' are skipped. Each data
    line is "u v"; further columns are ignored. The optional label file
    holds "vertex_id label" lines in the same format, and a later line for
    an id overrides an earlier one. Original ids are matched before
    densification and ids unseen in the edge list are ignored.
    """
    labels = None if label_path is None else dict(_read_pairs(label_path, "label", LABEL_MAX))
    return Graph.from_edges(_read_pairs(edge_path), labels)
