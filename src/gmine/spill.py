"""Disk spill for level parts and the windowed replay that drives
every range-parallel phase.

Every level of 2 or more is built as parts, cut at the parent cuts of
its parents' predicted weights before any worker runs, so the parts
and the processing order are identical for every worker count and
stride size. A spilled level's parts live only in their files: the
level keeps its part list, and a part's ids and offsets are read back
when a window reaches it. Spilling a level after it was built writes
the same parts, so it gives the same files. The budget plan is one
number, the lowest level on disk; levels 1 (the identity) and 2 always
stay resident. Replay walks the top level part by part; every lower
level keeps a sliding window of one part, which is enough because
ancestor offsets grow monotonically with the top offset, and only a
window over a spilled level reads a file. Steps over parts in memory
are mapped together; a map ends only where a window is about to read
a file. Parts are written and loaded in the calling thread: an I/O
error surfaces where it happened, and no thread outlives a call.
"""

import os
import struct
import zlib
from dataclasses import replace
from functools import partial

import numpy as np

from . import runtime
from .explore import partition_by_weight, uniform_ranges
from .store import PartInfo

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


def window_bytes(level):
    """What a window over level holds at most: two of its part files,
    while a slide reads the next one."""
    return 2 * max((p.nbytes for p in level.parts), default=0)


def plan_spill(cse, budget, next_estimate):
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
                total += window_bytes(lvl)
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


def _write_out(part, spill_dir, index, metrics):
    """Write an in-memory part to its file and drop its arrays."""
    part.path = os.path.join(spill_dir, part_name(part.level, index))
    n = write_part(part.path, part.level, part.vert.itemsize, part.vert, part.off)
    part.vert = part.off = None
    metrics["bytes_spilled"] = metrics.get("bytes_spilled", 0) + n
    metrics["parts_written"] = metrics.get("parts_written", 0) + 1


class PartWriter:
    """Builds one level as parts cut at precomputed parent cuts.

    feed() is called with (vert, counts) chunks in parent order; chunks
    are re-sliced at the part cuts, so the parts depend only on the
    cuts, not on how the chunks were produced. A part that one whole
    chunk covers holds that chunk, not a copy; any other part is copied
    together, so it never holds a neighbour's bytes. With a spill_dir,
    each part is written in the caller as soon as its last parent
    arrives, and only its file keeps it; without one, parts stay in
    memory.
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
        self._whole = False    # its last id piece is its chunk's whole array

    def _flush(self):
        vert = (self._vert[0] if len(self._vert) == 1 and self._whole
                else np.concatenate(self._vert or [np.zeros(0, self.id_dtype)]))
        counts = np.concatenate(self._counts or [np.zeros(0, np.int64)])
        off = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        off += self._child - off[-1]  # the part's children end at _child
        ps = self.cuts[self._cur]
        pe = self._parent
        if len(vert) or pe > ps:
            vert = vert.astype(self.id_dtype, copy=False)
            p = PartInfo(None, self.level, ps, pe, int(off[0]), self._child,
                         _HEADER.size + vert.nbytes + off.nbytes + 8, vert, off)
            if self.dir is not None:
                _write_out(p, self.dir, len(self.parts), self.metrics)
            self.parts.append(p)
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
                self._whole = vtake == len(vert)
                self._parent += take
                self._child += vtake
                pos += take
                vpos += vtake
            if self._parent == end_cut and self._cur + 1 < len(self.cuts) - 1:
                self._flush()
                self._cur += 1

    def close(self):
        """Flush the tail part; returns all parts in order."""
        self._flush()
        return self.parts


def spill_existing_level(level, spill_dir, metrics):
    """Write an in-memory level's parts out and drop their arrays."""
    if level.index == 1:  # the identity: never spilled (levels 1-2 stay resident)
        raise ValueError("cannot spill an identity level")
    for i, p in enumerate(level.parts):
        if p.off is not None:
            _write_out(p, spill_dir, i, metrics)


class _Window:
    """Sliding window over one level: one part at a time, in order.
    main is the current part with its arrays. A slide takes the next
    part in place of it, reading its file first if it is on disk, so two
    parts are held only while it runs."""

    def __init__(self, level, id_dtype, metrics):
        self.level = level
        self.parts = level.parts
        self.id_dtype = id_dtype
        self.metrics = metrics
        self.idx = -1
        self.main = None
        if self.parts:
            self.slide()

    def slide(self):
        """Take the next part in place of the current one."""
        if self.idx + 1 >= len(self.parts):
            raise AssertionError("window at level %d slid past its last part"
                                 % self.level.index)
        p = self.parts[self.idx + 1]
        if p.off is None:
            vert, off, lv = read_part(p.path, self.id_dtype)
            if lv != self.level.index:
                raise CorruptPartError("%s: level %d, expected %d"
                                       % (p.path, lv, self.level.index))
            self.metrics["bytes_read"] = self.metrics.get("bytes_read", 0) + p.nbytes
            self.metrics["parts_loaded"] = self.metrics.get("parts_loaded", 0) + 1
            p = replace(p, vert=vert, off=off)
        self.idx += 1
        self.main = p


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
            bound = int(p.off[bound - p.ps])
    return bound, binder


def _run_pieces(fn, ctx, task):
    """fn over each (lo, hi, slices) piece of one range's task."""
    return [fn((a, b), ctx=dict(ctx, slices=sl)) for a, b, sl in task]


def _map_steps(steps, pred, workers, fn, ctx, consume):
    """Map gathered steps in one call. Their offsets are cut into
    workers ranges, by the top's predictions when it has them, else
    uniformly, and each range runs fn over its piece of every step it
    crosses, with that step's parts as the slices."""
    if not steps:
        return
    lo, hi = steps[0][0], steps[-1][1]
    cuts = ((uniform_ranges(hi - lo, workers) if pred is None
             else partition_by_weight(pred[lo:hi], workers)) + lo).tolist()
    tasks = [[(max(a, s), min(b, e), sl) for s, e, sl in steps if s < b and a < e]
             for a, b in zip(cuts, cuts[1:]) if a < b]
    results = runtime.map_ranges(partial(_run_pieces, fn, ctx), tasks, workers)
    for task, res in zip(tasks, results):
        for (a, b, _), r in zip(task, res):
            consume(a, b, r)
    steps.clear()


def replay_top(cse, workers, fn, ctx, consume, metrics):
    """Run fn over every top-level offset of the store, in order.

    The one range driver for resident and spilled levels alike: every
    level has a window, and a step covers the top offsets that every
    window's current part covers. The identity level 1 is one part that
    never slides. Steps are gathered and mapped together until a slide
    would read a file, so parts held in memory add no map of their own
    and a window still holds at most two part files. fn is a range
    function fn(task, ctx); the map passes it the phase context ctx
    plus, as "slices", its step's parts, one per level and holding their
    arrays. consume(lo, hi, result) is called in global offset order.
    """
    top = cse.top
    disk = [l.residency == "disk" for l in cse.levels if l.parts]
    if disk != sorted(disk):
        raise AssertionError("spilled levels must form a suffix")
    chain = [_Window(l, cse.id_dtype, metrics) for l in cse.levels]
    tw = chain[-1]
    steps = []  # (lo, hi, slices) not yet mapped

    def slide(w):
        nxt = w.parts[w.idx + 1:w.idx + 2]
        if nxt and nxt[0].off is None:  # the steps hold the part it replaces
            _map_steps(steps, top.pred, workers, fn, ctx, consume)
        w.slide()

    while tw.parts:
        tp = tw.main
        cur = tp.vs
        while cur < tp.ve:
            hi, binder = _chain_bound(chain)
            if hi <= cur:
                slide(binder)
                continue
            steps.append((cur, hi, [w.main for w in chain]))
            cur = hi
        if tw.idx + 1 >= len(tw.parts):
            break
        slide(tw)
    _map_steps(steps, top.pred, workers, fn, ctx, consume)
