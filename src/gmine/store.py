"""Level-structured succinct store for partial embeddings.

Level l keeps one id per embedding of size l (its last element) in
``vert`` plus an ``off`` array mapping each parent embedding at level
l-1 to the slice of its children, so a full embedding is recovered by
walking offsets upward instead of storing k ids per embedding. A level
is a list of parts, each the ``(vert, off-segment)`` of a contiguous run
of parents, cut once when the level is built. A part holds its arrays
in memory or only in its part file, and spilling a level writes all of
its parts. Level 1 is always the identity over the seed ids 0..n-1: one
in-memory part whose ``vert`` is never materialized.
"""

from dataclasses import dataclass

import numpy as np


class InvariantError(ValueError):
    """A level array violates the store's structural invariants."""


@dataclass
class PartInfo:
    """One contiguous run of a level's parents and their children.
    Holding its arrays, it is also what replay hands the kernels as the
    level's window."""
    path: str     # its part file, or None while it has not been written
    level: int
    ps: int       # parent index range [ps, pe)
    pe: int
    vs: int       # child offset range [vs, ve)
    ve: int
    nbytes: int   # size of its part file, written or not
    vert: np.ndarray = None  # the part's ids and absolute off segment while
    off: np.ndarray = None   # in memory, None once only its file holds them


class Level:
    __slots__ = ("index", "parts", "pred", "count", "id_width")

    def __init__(self, index, parts, pred, id_width):
        self.index = index          # 1-based size of embeddings here
        self.parts = parts          # PartInfo list covering every parent in order
        self.pred = pred            # int32 gather volume per embedding, or None
        self.id_width = id_width
        self.count = parts[-1].ve if parts else 0

    @property
    def residency(self):
        return "disk" if any(p.off is None for p in self.parts) else "mem"

    def size_bytes(self):
        """Footprint of vert plus off, resident or spilled.

        Offsets are 64-bit regardless of id width, so a level of v ids
        over p parents occupies v * id_width + (p + 1) * 8 bytes; the
        identity level 1 contributes only its off bytes.
        """
        parents = self.parts[-1].pe if self.parts else 0
        vb = 0 if self.index == 1 else self.count * self.id_width
        return vb + (parents + 1) * 8


def _check_part(p):
    """Raise unless an in-memory part's arrays match its ranges and its
    child slices ascend."""
    vert, off = p.vert, p.off
    where = "part parents [%d, %d)" % (p.ps, p.pe)
    if len(off) != p.pe - p.ps + 1:
        raise InvariantError("%s: off must have %d entries, got %d"
                             % (where, p.pe - p.ps + 1, len(off)))
    if off[0] != p.vs:
        raise InvariantError("%s: off[0]=%d, not the part's first child %d"
                             % (where, int(off[0]), p.vs))
    if (np.diff(off) < 0).any():
        raise InvariantError("%s: off must be nondecreasing" % where)
    if int(off[-1]) - p.vs != len(vert) or p.ve != int(off[-1]):
        raise InvariantError("%s: off ends at %d, children [%d, %d) hold %d ids"
                             % (where, int(off[-1]), p.vs, p.ve, len(vert)))
    if len(vert) > 1:
        rising = vert[1:] > vert[:-1]  # no int temporary as long as vert
        starts = np.zeros(len(vert), dtype=bool)
        inner = off[1:-1] - p.vs
        starts[inner[inner < len(vert)]] = True  # a new slice may restart low
        bad = ~rising & ~starts[1:]
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise InvariantError("slice not strictly ascending at vert[%d]"
                                 % (p.vs + i + 1))


class EmbeddingStore:
    """Ordered stack of levels for one exploration run.

    Ids are vertex or edge ids, as the session seeds them; the store
    itself only checks structure, not graph membership.
    """

    def __init__(self, id_dtype=np.int32):
        self.id_dtype = np.dtype(id_dtype)
        self.levels = []

    @property
    def depth(self):
        return len(self.levels)

    @property
    def top(self):
        return self.levels[-1]

    def level(self, index):
        return self.levels[index - 1]

    def seed_identity(self, n, pred=None):
        """Level 1 over seeds 0..n-1 without materializing vert."""
        if self.levels:
            raise InvariantError("store already seeded")
        off = np.array([0, n], dtype=np.int64)
        lvl = Level(1, [PartInfo(None, 1, 0, 1, 0, n, 0, None, off)], pred,
                    self.id_dtype.itemsize)
        self.levels.append(lvl)
        return lvl

    def append_level(self, parts, pred=None):
        """Push level depth+1 given as its parts; validates the structural
        invariants.

        The parts must cover the parents 0..top.count and their child
        offsets contiguously, in order, and each in-memory part's arrays
        must match its ranges; the level's count is where the last
        part's children end.
        """
        if not self.levels:
            raise InvariantError("seed level 1 first")
        ps = vs = 0
        for p in parts:
            if p.ps != ps or p.vs != vs or p.pe < p.ps or p.ve < p.vs:
                raise InvariantError(
                    "part parents [%d, %d) children [%d, %d) do not continue "
                    "at parent %d, child %d" % (p.ps, p.pe, p.vs, p.ve, ps, vs))
            if p.off is not None:
                _check_part(p)
            ps, vs = p.pe, p.ve
        if ps != self.top.count:
            raise InvariantError("parts cover parents 0..%d, not 0..%d"
                                 % (ps, self.top.count))
        lvl = Level(self.depth + 1, list(parts), pred, self.id_dtype.itemsize)
        self.levels.append(lvl)
        return lvl

    append_spilled = append_level  # perfbench/tracer.py wraps it (ROADMAP item 3)


def parent_rows(part, a, b):
    """The parent of each offset in [a, b), which part covers, as its
    row in part.off. Each parent's children are one run of offsets, so
    the rows are one np.repeat of the parents from the parent of a to
    that of b - 1 over their clipped child counts; a childless parent
    repeats zero times."""
    off = part.off
    p0 = int(np.searchsorted(off, a, side="right")) - 1
    p1 = int(np.searchsorted(off, b - 1, side="right"))
    return np.repeat(np.arange(p0, p1), np.diff(np.clip(off[p0:p1 + 1], a, b)))


def level_columns(slices, lo, hi):
    """The ids of top-level offsets [lo, hi) as a (depth, hi - lo) int64
    array: row i holds position i of every embedding. slices holds one
    part per level, with its arrays, that covers those offsets.

    A level's offsets ascend, so their parents come from parent_rows
    over the span from the first to the last, and a part's place in its
    level (vs, ps) and childless parents need no special case.
    """
    depth = len(slices)
    cols = np.empty((depth, hi - lo), dtype=np.int64)
    o = np.arange(lo, hi, dtype=np.int64)
    for li in range(depth - 1, -1, -1):
        s = slices[li]
        cols[li] = o if s.vert is None else s.vert[o - s.vs]
        if li and len(o):
            a = int(o[0])
            o = parent_rows(s, a, int(o[-1]) + 1)[o - a] + s.ps
    return cols
