"""Disk spill for level arrays and the windowed replay that drives
every range-parallel phase.

A spilled level is cut into parts at parent-slice boundaries, so each
part carries a self-contained (vert, off-segment) pair, and the level
keeps only its part list in memory: its ids and offsets are read back
from the parts. The budget plan is one number, the lowest level on
disk; levels 1 (the identity) and 2 always stay resident. Replay walks
the top level part by part; every lower spilled level keeps a sliding
window of one loaded part, which is enough because ancestor offsets
grow monotonically with the top offset. A memory-resident top is the
one-part case: a single window spanning all of its parents, so
resident and spilled stores share one driver. Part boundaries are
derived from predicted weights before any worker runs, so the files
and the processing order are identical for every worker count and
stride size. Parts are written and loaded in the calling thread: an
I/O error surfaces where it happened, and no thread outlives a call.
"""

import os
import struct
import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import runtime
from .explore import partition_by_weight, uniform_ranges
from .store import LevelSlice

MAGIC = b"CSE1"
_HEADER = struct.Struct("<4sIBQQ")  # magic, level, id_width, vert count, off count


class BudgetTooSmallError(RuntimeError):
    """Even with every spillable level on disk the plan exceeds budget."""


class CorruptPartError(RuntimeError):
    """Part file failed its magic or checksum validation."""


def write_part(path, level_index, id_width, vert, off_seg):
    """Write one part file; returns bytes written.

    Layout: header, raw vert ids, raw absolute off values, then the
    CRC-32 of all preceding bytes as a u64.
    """
    head = _HEADER.pack(MAGIC, level_index, id_width, len(vert), len(off_seg))
    vb = vert.tobytes()
    ob = off_seg.astype(np.int64).tobytes()
    total = zlib.crc32(ob, zlib.crc32(vb, zlib.crc32(head)))
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(vb)
        fh.write(ob)
        fh.write(struct.pack("<Q", total))
    return len(head) + len(vb) + len(ob) + 8


def read_part(path, id_dtype):
    """Load one part file back as (vert, off_seg); validates checksum."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size + 8:
        raise CorruptPartError("%s: truncated" % path)
    magic, level, id_width, nv, no = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptPartError("%s: bad magic %r" % (path, magic))
    body_end = _HEADER.size + nv * id_width + no * 8
    if len(data) != body_end + 8:
        raise CorruptPartError("%s: size mismatch" % path)
    (want,) = struct.unpack_from("<Q", data, body_end)
    if zlib.crc32(memoryview(data)[:body_end]) != want:
        raise CorruptPartError("%s: checksum mismatch" % path)
    vert = np.frombuffer(data, dtype=id_dtype, count=nv, offset=_HEADER.size)
    off = np.frombuffer(data, dtype=np.int64, count=no,
                        offset=_HEADER.size + nv * id_width)
    return vert, off, level


@dataclass
class PartInfo:
    path: str
    level: int
    ps: int   # parent index range [ps, pe)
    pe: int
    vs: int   # child offset range [vs, ve)
    ve: int
    nbytes: int


def window_bytes(level, parts_per_level):
    """What a window over level holds at most: two of its part files,
    while a slide reads the next one. A resident level is charged the
    parts that spill_existing_level would cut it into."""
    if level.parts is not None:
        sizes = [p.nbytes for p in level.parts]
    else:
        cuts = partition_by_weight(np.diff(level.off), parts_per_level)
        sizes = (_HEADER.size + 8 + np.diff(level.off[cuts]) * level.id_width
                 + (np.diff(cuts) + 1) * 8)
    return 2 * int(max(sizes, default=0))


def plan_spill(cse, budget, next_estimate, parts_per_level):
    """Choose the lowest level to keep on disk.

    Returns (spill_from, estimate): after the explore, every level from
    spill_from up, the new one included, lives on disk; depth + 2 means
    none does. next_estimate is (vert_bytes, off_bytes, pred_bytes) for
    the level about to be built. The estimate charges resident levels
    their full vert+off footprint, the top level's and the new level's
    predictions, and each spilled source level its window_bytes during
    replay. The candidates are tried from none to the longest suffix,
    and the first within budget wins (the first one when budget is 0,
    unlimited). Levels 1 and 2 never spill, and a level once on disk
    stays there.
    """
    nv, no, npred = next_estimate
    k = cse.depth
    fixed = npred + (cse.top.pred.nbytes if cse.top.pred is not None else 0)
    lowest = min((l.index for l in cse.levels if l.residency == "disk"),
                 default=k + 2)

    def resident(spill_from):
        total = fixed if spill_from <= k + 1 else fixed + nv + no
        for lvl in cse.levels:
            if lvl.index < spill_from:
                total += lvl.size_bytes()
            else:
                total += window_bytes(lvl, parts_per_level)
        return total

    floor = None
    for spill_from in range(lowest, 2, -1):
        est = resident(spill_from)
        if not budget or est <= budget:
            return spill_from, est
        floor = est if floor is None else min(floor, est)
    raise BudgetTooSmallError(
        "smallest feasible resident estimate %d exceeds budget %d"
        % (floor, budget))


def part_name(level, part):
    return "L%d_P%d.cse" % (level, part)


class PartWriter:
    """Streams one level to disk as parts cut at precomputed parent cuts.

    feed() is called with (vert, counts) chunks in parent order; chunks
    are re-sliced at the part cuts, so the written files depend only on
    the cuts, not on how the chunks were produced. Each part is written
    in the caller as soon as its last parent arrives.
    """

    def __init__(self, spill_dir, level_index, id_dtype, parent_cuts, metrics):
        self.dir = spill_dir
        self.level = level_index
        self.id_dtype = np.dtype(id_dtype)
        self.cuts = [int(c) for c in parent_cuts]
        self.metrics = metrics
        self.parts = []
        self._cur = 0          # current cut interval
        self._parent = 0       # next global parent index expected
        self._child = 0        # next global child offset
        self._vert = []        # the current part's id and count chunks
        self._counts = []

    def _flush(self):
        vert = np.concatenate(self._vert or [np.zeros(0, self.id_dtype)])
        counts = np.concatenate(self._counts or [np.zeros(0, np.int64)])
        off = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        off += self._child - off[-1]  # the part's children end at _child
        ps = self.cuts[self._cur]
        pe = self._parent
        if len(vert) or pe > ps:
            path = os.path.join(self.dir, part_name(self.level, len(self.parts)))
            n = write_part(path, self.level, self.id_dtype.itemsize,
                           vert.astype(self.id_dtype, copy=False), off)
            self.parts.append(PartInfo(path, self.level, ps, pe, int(off[0]),
                                       self._child, n))
            self.metrics["bytes_spilled"] = self.metrics.get("bytes_spilled", 0) + n
            self.metrics["parts_written"] = self.metrics.get("parts_written", 0) + 1
        self._vert = []
        self._counts = []

    def feed(self, vert, counts):
        """Append one ordered chunk covering the next len(counts) parents."""
        pos = 0  # consumed parents of this chunk
        vpos = 0
        while pos < len(counts):
            end_cut = self.cuts[self._cur + 1]
            take = min(len(counts) - pos, end_cut - self._parent)
            if take > 0:
                self._counts.append(counts[pos:pos + take])
                vtake = int(self._counts[-1].sum())
                self._vert.append(vert[vpos:vpos + vtake])
                self._parent += take
                self._child += vtake
                pos += take
                vpos += vtake
            if self._parent == end_cut and self._cur + 1 < len(self.cuts) - 1:
                self._flush()
                self._cur += 1

    def close(self):
        """Write the tail part; returns all parts in order."""
        self._flush()
        return self.parts


def spill_existing_level(level, spill_dir, parts_per_level, metrics):
    """Write an in-memory level out and drop its resident arrays."""
    if level.vert is None:  # identity level: never spilled (levels 1-2 stay resident)
        raise ValueError("cannot spill an identity level")
    counts = np.diff(level.off)
    cuts = partition_by_weight(counts, parts_per_level)
    w = PartWriter(spill_dir, level.index, np.dtype("i%d" % level.id_width),
                   cuts, metrics)
    for j in range(len(cuts) - 1):
        lo, hi = int(cuts[j]), int(cuts[j + 1])
        w.feed(level.vert[level.off[lo]:level.off[hi]], counts[lo:hi])
    level.parts = w.close()
    level.vert = level.off = None


class _Window:
    """Sliding window over one level: one loaded part at a time, in
    order. A slide reads the next part before dropping the current one,
    so two parts are held only while it runs. A resident level is one
    part spanning all of its parents, backed by its in-memory arrays."""

    def __init__(self, level, id_dtype, metrics):
        self.level = level
        self.id_dtype = id_dtype
        self.metrics = metrics
        self.idx = -1
        self.main = self.main_vert = self.main_off = None
        if level.residency == "mem":
            self.parts = [PartInfo(None, level.index, 0, len(level.off) - 1,
                                   0, level.count, 0)]
            self.idx, self.main = 0, self.parts[0]
            self.main_vert, self.main_off = level.vert, level.off
        else:
            self.parts = level.parts
            if self.parts:
                self.slide()

    def slide(self):
        """Load the next part in place of the current one."""
        if self.idx + 1 >= len(self.parts):
            raise AssertionError("window at level %d slid past its last part"
                                 % self.level.index)
        p = self.parts[self.idx + 1]
        vert, off, lv = read_part(p.path, self.id_dtype)
        if lv != self.level.index:
            raise CorruptPartError("%s: level %d, expected %d"
                                   % (p.path, lv, self.level.index))
        self.metrics["bytes_read"] = self.metrics.get("bytes_read", 0) + p.nbytes
        self.metrics["parts_loaded"] = self.metrics.get("parts_loaded", 0) + 1
        self.idx += 1
        self.main, self.main_vert, self.main_off = p, vert, off

    def slice(self):
        return LevelSlice(self.main_vert, self.main_off,
                          vbase=self.main.vs, obase=self.main.ps)


def _chain_bound(chain):
    """Largest processable top offset bound and the window that binds it.

    Walks the windows bottom-up, ending at the top level's, converting
    each window's offset limit through the off segment one level
    above; clamping against each part's parent range keeps every lookup
    inside loaded data. A bound at or below the current offset means
    the binding window must slide.
    """
    bound = None
    binder = None
    for w in chain:
        p = w.main
        if bound is None or bound >= p.pe:
            bound = p.ve
            binder = w
        elif bound <= p.ps:
            bound = p.vs
        else:
            bound = int(w.main_off[bound - p.ps])
    return bound, binder


def replay_top(cse, workers, fn, ctx, consume, metrics):
    """Run fn over every top-level offset of the store, in order.

    The one range driver for resident and spilled tops alike: a
    resident top is a single window, so it runs as one map over all of
    its offsets. fn is a range function fn(task, ctx); each window's
    map passes it the phase context ctx plus that window's level
    slices. consume(lo, hi, result) is called in global offset order.
    Ranges are cut by the top level's predictions when it has them,
    else uniformly.
    """
    top = cse.top
    spilled = [l for l in cse.levels if l.residency == "disk"]
    if spilled != cse.levels[len(cse.levels) - len(spilled):]:
        raise AssertionError("spilled levels must form a suffix")
    mem_slices = [LevelSlice.of(l) for l in cse.levels[:-1] if l.residency == "mem"]
    chain = [_Window(l, cse.id_dtype, metrics) for l in spilled or [top]]
    tw = chain[-1]
    while tw.parts:
        tp = tw.main
        cur = tp.vs
        while cur < tp.ve:
            hi, binder = _chain_bound(chain)
            if hi <= cur:
                binder.slide()
                continue
            slices = mem_slices + [w.slice() for w in chain]
            if top.pred is None:
                cuts = uniform_ranges(hi - cur, workers) + cur
            else:
                cuts = partition_by_weight(top.pred[cur:hi], workers) + cur
            tasks = [(int(cuts[i]), int(cuts[i + 1])) for i in range(workers)
                     if cuts[i] < cuts[i + 1]]
            window_fn = partial(fn, ctx=dict(ctx, slices=slices))
            for (lo, rhi), res in zip(tasks, runtime.map_ranges(window_fn, tasks, workers)):
                consume(lo, rhi, res)
            cur = hi
        if tw.idx + 1 >= len(tw.parts):
            break
        tw.slide()
