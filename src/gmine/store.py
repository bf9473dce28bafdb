"""Level-structured succinct store for partial embeddings.

Level l keeps one id per embedding of size l (its last element) in
``vert`` plus an ``off`` array mapping each parent embedding at level
l-1 to the slice of its children, so a full embedding is recovered by
walking offsets upward instead of storing k ids per embedding. Level 1
is always the identity over the seed ids 0..n-1, so its ``vert`` is
never materialized. A level is either resident (its arrays) or spilled
(its part files only): a spilled level holds its part list, its
embedding count and its predictions, and neither ids nor offsets.
"""

import numpy as np


class InvariantError(ValueError):
    """A level array violates the store's structural invariants."""


class Level:
    __slots__ = ("index", "vert", "off", "pred", "parts", "count", "id_width")

    def __init__(self, index, vert, off, pred, id_width, parts=None):
        self.index = index          # 1-based size of embeddings here
        self.vert = vert            # last-id array, or None (identity or spilled)
        self.off = off              # int64 child-slice boundaries, or None if spilled
        self.pred = pred            # int32 gather volume per embedding, or None
        self.parts = parts          # PartInfo list of a spilled level, else None
        self.id_width = id_width
        if parts is None:
            self.count = int(off[-1])
        else:
            self.count = parts[-1].ve if parts else 0

    @property
    def residency(self):
        return "mem" if self.parts is None else "disk"

    def size_bytes(self):
        """Footprint of vert plus off, resident or spilled.

        Offsets are 64-bit regardless of id width, so a level of v ids
        over p parents occupies v * id_width + (p + 1) * 8 bytes; the
        identity level 1 contributes only its off bytes.
        """
        if self.parts is None:
            parents = len(self.off) - 1
        else:
            parents = self.parts[-1].pe if self.parts else 0
        vb = 0 if self.index == 1 else self.count * self.id_width
        return vb + (parents + 1) * 8


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
        lvl = Level(1, None, off, pred, self.id_dtype.itemsize)
        self.levels.append(lvl)
        return lvl

    def append_level(self, vert, off, pred=None):
        """Push level depth+1; validates the structural invariants."""
        if not self.levels:
            raise InvariantError("seed level 1 first")
        vert = np.asarray(vert, dtype=self.id_dtype)
        off = np.asarray(off, dtype=np.int64)
        parent_n = self.top.count
        if len(off) != parent_n + 1:
            raise InvariantError("off must have %d entries, got %d"
                                 % (parent_n + 1, len(off)))
        if len(off) and off[0] != 0:
            raise InvariantError("off[0] must be 0")
        if len(off) > 1 and (np.diff(off) < 0).any():
            raise InvariantError("off must be nondecreasing")
        if int(off[-1]) != len(vert):
            raise InvariantError("off[-1]=%d does not match len(vert)=%d"
                                 % (int(off[-1]), len(vert)))
        if len(vert) > 1:
            rising = vert[1:] > vert[:-1]  # no int temporary as long as vert
            starts = np.zeros(len(vert), dtype=bool)
            inner = off[1:-1]
            starts[inner[inner < len(vert)]] = True  # a new slice may restart low
            bad = ~rising & ~starts[1:]
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise InvariantError("slice not strictly ascending at vert[%d]" % (i + 1))
        lvl = Level(self.depth + 1, vert, off, pred, self.id_dtype.itemsize)
        self.levels.append(lvl)
        return lvl

    def append_spilled(self, pred, parts):
        """Push a level whose ids and offsets live only in part files.

        The parts must cover the parents 0..top.count and their child
        offsets contiguously, in order; the level's count is where the
        last part's children end.
        """
        if not self.levels:
            raise InvariantError("seed level 1 first")
        ps = vs = 0
        for p in parts:
            if p.ps != ps or p.vs != vs or p.pe < p.ps or p.ve < p.vs:
                raise InvariantError(
                    "part parents [%d, %d) children [%d, %d) do not continue "
                    "at parent %d, child %d" % (p.ps, p.pe, p.vs, p.ve, ps, vs))
            ps, vs = p.pe, p.ve
        if ps != self.top.count:
            raise InvariantError("parts cover parents 0..%d, not 0..%d"
                                 % (ps, self.top.count))
        lvl = Level(self.depth + 1, None, None, pred, self.id_dtype.itemsize,
                    parts)
        self.levels.append(lvl)
        return lvl


class LevelSlice:
    """A contiguous window of one level, with global offsets preserved.

    vert covers global ids [vbase, vbase+len(vert)); off covers parent
    indices [obase, obase+len(off)-1) with absolute child offsets. A
    full in-memory level is the special case vbase = obase = 0.
    """

    __slots__ = ("vert", "vbase", "off", "obase")

    def __init__(self, vert, off, vbase=0, obase=0):
        self.vert = vert
        self.off = off
        self.vbase = vbase
        self.obase = obase

    @classmethod
    def of(cls, level):
        if level.residency != "mem":
            raise InvariantError("level %d not memory resident" % level.index)
        return cls(level.vert, level.off)


def level_columns(slices, lo, hi):
    """The ids of top-level offsets [lo, hi) as a (depth, hi - lo) int64
    array: row i holds position i of every embedding.

    Each level's parents come from one binary search of its off array,
    so spill windows (vbase/obase) and childless parents need no special
    case.
    """
    depth = len(slices)
    cols = np.empty((depth, hi - lo), dtype=np.int64)
    o = np.arange(lo, hi, dtype=np.int64)
    for li in range(depth - 1, -1, -1):
        s = slices[li]
        cols[li] = o if s.vert is None else s.vert[o - s.vbase]
        if li:
            o = np.searchsorted(s.off, o, side="right") - 1 + s.obase
    return cols
