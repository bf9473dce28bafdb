"""Disk spill for level arrays and the windowed replay that drives
every range-parallel phase.

A spilled level is cut into parts at parent-slice boundaries, so each
part carries a self-contained (vert, off-segment) pair. Replay walks
the top level part by part; every lower spilled level keeps a sliding
window of one loaded part plus one prefetched candidate, which is
enough because ancestor offsets grow monotonically with the top offset.
A memory-resident top is the one-part case: a single window spanning
all of its parents, so resident and spilled stores share one driver.
Part boundaries are derived from predicted weights before any worker
runs, so the files and the processing order are identical for every
worker count and stride size.
"""

import os
import queue
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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


@dataclass
class SpillPlan:
    budget: int                 # 0 means unlimited
    spill_dir: str
    parts_per_level: int
    spill_levels: tuple         # existing level indexes to push out now
    spill_next: bool            # the level about to be appended goes to disk
    keep_off: bool              # spilled levels keep their off arrays in memory
    resident_estimate: int

    @property
    def any_spill(self):
        return bool(self.spill_levels) or self.spill_next


def plan_spill(cse, budget, next_estimate=(0, 0, 0), spill_dir=None,
               parts_per_level=8):
    """Choose the cheapest suffix of levels to push to disk.

    next_estimate is (vert_bytes, off_bytes, pred_bytes) for the level
    about to be built. Residency charges in-memory levels their full
    vert+off payload, spilled levels their off payload when kept, plus
    the top level's predictions and the new level's predictions, plus
    two window parts per spilled source level during replay. Levels 1
    and 2 and prediction arrays always stay resident. Spilling is
    monotone: a level once on disk stays there, and the on-disk set is
    always a suffix ending at the newest level.
    """
    nv, no, npred = next_estimate
    k = cse.depth
    already = [l.index for l in cse.levels if l.residency == "disk"]

    def resident(spill_from, spill_next, keep_off):
        # spill_from: lowest existing level index on disk (k+1 = none)
        total = 0
        for lvl in cse.levels:
            if lvl.index >= spill_from or lvl.residency == "disk":
                if keep_off and lvl.off is not None:
                    total += len(lvl.off) * 8
                total += 2 * (lvl.vert_count * lvl.id_width // max(1, parts_per_level))
            else:
                total += lvl.size_bytes()
        top = cse.top
        if top.pred is not None:
            total += top.pred.nbytes
        total += npred
        if spill_next:
            if keep_off:
                total += no
        else:
            total += nv + no
        return total

    if not budget:
        est = resident(k + 1, False, True)
        return SpillPlan(0, spill_dir or ".", parts_per_level, (), False, True, est)

    options = []
    if not already:
        options.append((k + 1, False))   # nothing on disk
    if k + 1 >= 3:                       # levels 1 and 2 always stay resident
        options.append((k + 1, True))    # only the new level
        lowest = min(already) if already else k + 1
        for frm in range(min(k, lowest - 1), 2, -1):
            options.append((frm, True))  # suffix frm..k plus the new level

    floor = None
    for keep_off in (True, False):
        for frm, nxt in options:
            if already and not nxt:
                continue  # suffix must include the newest level
            est = resident(frm, nxt, keep_off)
            if est <= budget:
                newly = tuple(l.index for l in cse.levels
                              if l.index >= frm and l.residency == "mem")
                return SpillPlan(budget, spill_dir or ".", parts_per_level,
                                 newly, nxt, keep_off, est)
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
    the cuts, not on how the chunks were produced. A single writer
    thread drains an ordered queue; producers block only on queue
    backpressure.
    """

    def __init__(self, spill_dir, level_index, id_dtype, parent_cuts, metrics):
        self.dir = spill_dir
        self.level = level_index
        self.id_dtype = np.dtype(id_dtype)
        self.cuts = [int(c) for c in parent_cuts]
        self.metrics = metrics
        self.parts = []
        self._q = queue.Queue(maxsize=4)
        self._err = None
        self._emit = 0         # parts enqueued so far, names follow this
        self._cur = 0          # current cut interval
        self._parent = 0       # next global parent index expected
        self._child = 0        # next global child offset
        self._acc_vert = []
        self._acc_off = [0]
        self._part_vs = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            job = self._q.get()
            if job is None:
                return
            try:
                idx, ps, pe, vs, vert, off_seg = job
                path = os.path.join(self.dir, part_name(self.level, idx))
                n = write_part(path, self.level, self.id_dtype.itemsize, vert, off_seg)
                self.parts.append(PartInfo(path, self.level, ps, pe, vs,
                                           vs + len(vert), n))
                self.metrics["bytes_spilled"] = self.metrics.get("bytes_spilled", 0) + n
                self.metrics["parts_written"] = self.metrics.get("parts_written", 0) + 1
            except Exception as e:  # surfaced on close()
                self._err = e
                return

    def _flush(self):
        if self._err:
            raise self._err
        vert = (np.concatenate(self._acc_vert).astype(self.id_dtype)
                if self._acc_vert else np.array([], dtype=self.id_dtype))
        off = np.array(self._acc_off, dtype=np.int64)
        ps = self.cuts[self._cur]
        pe = self._parent
        if len(vert) or pe > ps:
            self._q.put((self._emit, ps, pe, self._part_vs, vert, off))
            self._emit += 1
        self._acc_vert = []
        self._acc_off = [self._child]
        self._part_vs = self._child

    def feed(self, vert, counts):
        """Append one ordered chunk covering the next len(counts) parents."""
        if self._err:
            raise self._err
        pos = 0  # consumed parents of this chunk
        vpos = 0
        n = len(counts)
        csum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=csum[1:])
        while pos < n:
            end_cut = self.cuts[self._cur + 1]
            take = min(n - pos, end_cut - self._parent)
            if take > 0:
                vtake = int(csum[pos + take] - csum[pos])
                self._acc_vert.append(vert[vpos:vpos + vtake])
                base = self._child - int(csum[pos])
                self._acc_off.extend(
                    (csum[pos + 1:pos + take + 1] + base).tolist())
                self._parent += take
                self._child += vtake
                pos += take
                vpos += vtake
            if self._parent == end_cut and self._cur + 1 < len(self.cuts) - 1:
                self._flush()
                self._cur += 1

    def close(self):
        """Flush the tail part, stop the thread, return parts in order."""
        self._flush()
        self._q.put(None)
        self._thread.join()
        if self._err:
            raise self._err
        self.parts.sort(key=lambda p: p.vs)
        return self.parts


def spill_existing_level(level, spill_dir, parts_per_level, metrics, keep_off):
    """Write an in-memory level out and drop its resident arrays."""
    counts = np.diff(level.off)
    cuts = partition_by_weight(counts, parts_per_level)
    w = PartWriter(spill_dir, level.index, np.dtype("i%d" % level.id_width),
                   cuts, metrics)
    vert = level.vert
    if vert is None:  # identity level: never spilled (levels 1-2 stay resident)
        raise ValueError("cannot spill an identity level")
    for j in range(len(cuts) - 1):
        lo, hi = int(cuts[j]), int(cuts[j + 1])
        w.feed(vert[level.off[lo]:level.off[hi]],
               counts[lo:hi])
    level.parts = w.close()
    level.residency = "disk"
    level.vert = None
    if not keep_off:
        level.off = None


def write_manifest(spill_dir, cse):
    lines = []
    for lvl in cse.levels:
        if lvl.residency != "disk":
            continue
        lines.append("level=%d parts=%d count=%d" %
                     (lvl.index, len(lvl.parts), lvl.vert_count))
        for p in lvl.parts:
            lines.append("  part=%s ps=%d pe=%d vs=%d ve=%d bytes=%d" %
                         (os.path.basename(p.path), p.ps, p.pe, p.vs, p.ve, p.nbytes))
    with open(os.path.join(spill_dir, "plan.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


class _Window:
    """Sliding window over one level: one loaded part, one prefetched
    candidate, never more. A resident level is one part spanning all
    of its parents, backed by its in-memory arrays."""

    def __init__(self, level, loader, id_dtype, metrics):
        self.level = level
        self.loader = loader
        self.id_dtype = id_dtype
        self.metrics = metrics
        self.idx = 0
        self.main = None
        self.main_off = None
        self.main_vert = None
        self._cand = None
        if level.residency == "mem":
            self.parts = [PartInfo(None, level.index, 0, len(level.off) - 1,
                                   0, level.count, 0)]
            self.main_vert, self.main_off = level.vert, level.off
        else:
            self.parts = level.parts
            if self.parts:
                self.main_vert, self.main_off = self._load(0)
        if self.parts:
            self.main = self.parts[0]
            self._prefetch()

    def _load(self, i):
        p = self.parts[i]
        vert, off, lv = read_part(p.path, self.id_dtype)
        if lv != self.level.index:
            raise CorruptPartError("%s: level %d, expected %d"
                                   % (p.path, lv, self.level.index))
        self.metrics["bytes_read"] = self.metrics.get("bytes_read", 0) + p.nbytes
        self.metrics["parts_loaded"] = self.metrics.get("parts_loaded", 0) + 1
        return vert, off

    def _prefetch(self):
        nxt = self.idx + 1
        self._cand = (self.loader.submit(self._load, nxt)
                      if nxt < len(self.parts) else None)

    def slide(self):
        if self._cand is None:
            raise AssertionError("window at level %d slid past its last part"
                                 % self.level.index)
        self.idx += 1
        self.main_vert, self.main_off = self._cand.result()
        self.main = self.parts[self.idx]
        self._prefetch()

    def in_flight(self):
        return 1 + (1 if self._cand is not None else 0)

    def slice(self):
        return LevelSlice(self.main_vert, self.main_off,
                          vbase=self.main.vs, obase=self.main.ps)


def _chain_bound(windows_asc, top_part):
    """Largest processable top offset bound and the binding window.

    Walks the spilled suffix bottom-up converting each window's offset
    limit through the off segment one level above; clamping against
    each part's parent range keeps every lookup inside loaded data.
    """
    bound = None
    binder = None
    for w in windows_asc:
        p = w.main
        if bound is None or bound >= p.pe:
            bound = p.ve
            binder = w
        elif bound <= p.ps:
            bound = p.vs
        else:
            bound = int(w.main_off[bound - p.ps])
    if bound is None or bound >= top_part.pe:
        return top_part.ve, binder
    if bound <= top_part.ps:
        return top_part.vs, binder
    return None, (binder, bound)  # caller resolves via the loaded segment


def replay_top(cse, workers, fn, consume, metrics):
    """Run fn over every top-level offset of the store, in order.

    The one range driver for resident and spilled tops alike: a
    resident top is a single window, so it runs as one map over all of
    its offsets. fn is a module-level worker reading slices from the
    runtime context; consume(lo, hi, result) is called in global offset
    order. Ranges are cut by the top level's predictions when it has
    them, else uniformly.
    """
    top = cse.top
    spilled = [l for l in cse.levels if l.residency == "disk"]
    if spilled != cse.levels[len(cse.levels) - len(spilled):]:
        raise AssertionError("spilled levels must form a suffix")
    mem_slices = [LevelSlice.of(l) for l in cse.levels[:-1] if l.residency == "mem"]
    loader = ThreadPoolExecutor(max_workers=1)
    try:
        windows = [_Window(l, loader, cse.id_dtype, metrics)
                   for l in spilled[:-1]]
        tw = _Window(top, loader, cse.id_dtype, metrics)
        while tw.parts:
            tp = tw.main
            cur = tp.vs
            while cur < tp.ve:
                hi, binder = _chain_bound(windows, tp)
                if hi is None:
                    bw, bnd = binder
                    hi = int(tw.main_off[bnd - tp.ps])
                    binder = bw
                if hi <= cur:
                    binder.slide()
                    continue
                slices = mem_slices + [w.slice() for w in windows + [tw]]
                t = max(1, workers)
                if top.pred is None:
                    cuts = uniform_ranges(hi - cur, t) + cur
                else:
                    cuts = partition_by_weight(top.pred[cur:hi], t) + cur
                tasks = [(int(cuts[i]), int(cuts[i + 1])) for i in range(t)
                         if cuts[i] < cuts[i + 1]]
                runtime.set_context(slices=slices)
                for (lo, rhi), res in zip(tasks, runtime.map_ranges(fn, tasks, workers)):
                    consume(lo, rhi, res)
                cur = hi
            if tw.idx + 1 >= len(tw.parts):
                break
            tw.slide()
    finally:
        loader.shutdown(wait=True)
