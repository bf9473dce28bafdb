import os
import re
import shutil
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace

import numpy as np
import pytest

from gmine import mining, runtime, spill
from gmine.explore import partition_by_weight
from gmine.graph import Graph
from gmine.spill import (BudgetTooSmallError, CorruptPartError, PartWriter,
                         _Window, part_name, plan_spill, read_part, replay_top,
                         spill_existing_level, window_bytes, write_part)
from gmine.store import EmbeddingStore, InvariantError, PartInfo, level_columns

from conftest import make_random_graph
from oracles import append_whole, extract, iter_embeddings, whole_arrays
from test_explore import vertex_store_to

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def collect_range(task, ctx):
    lo, hi = task
    slices = ctx["slices"]
    return [(o, tuple(emb)) for o, emb in iter_embeddings(slices, lo, hi)]


def columns_range(task, ctx):
    lo, hi = task
    slices = ctx["slices"]
    cols = level_columns(slices, lo, hi)
    return [(lo + i, tuple(r)) for i, r in enumerate(cols.T.tolist())]


NEXT_EST = (4000, 800, 4000)


# -- part files ---------------------------------------------------------------

def make_part(level, ps, vert, off):
    """A part holding vert and off, whose first parent is ps, sized as
    PartWriter sizes its parts."""
    return PartInfo(None, level, ps, ps + len(off) - 1, int(off[0]), int(off[-1]),
                    spill._HEADER.size + vert.nbytes + off.nbytes + 8, vert, off)


def test_part_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    vert = rng.integers(0, 1000, 257).astype(np.int32)
    off = np.concatenate(([0], np.sort(rng.integers(0, 257, 38)), [257])) + 100
    part = make_part(5, 7, vert, off)
    p = str(tmp_path / "x.cse")
    n = write_part(p, part, 2)
    assert n == os.path.getsize(p) == part.nbytes
    rv, ro = read_part(p, np.int32, part, 2)
    assert rv.tolist() == vert.tolist() and rv.dtype == np.int32
    assert ro.tolist() == off.tolist() and ro.dtype == np.int64


def test_part_names_its_place(tmp_path):
    # a valid file read for another part: each field of its place is checked
    vert = np.arange(50, dtype=np.int32)
    off = np.array([10, 30, 60], dtype=np.int64)
    part = make_part(3, 4, vert, off)
    p = str(tmp_path / "x.cse")
    write_part(p, part, 1)
    for other, index, dtype, msg in (
            (replace(part, level=4), 1, np.int32, "level 3, expected 4"),
            (part, 2, np.int32, "part 1, expected 2"),
            (replace(part, ps=5, pe=7), 1, np.int32, r"parents \[4, 6\) and children "
             r"\[10, 60\), expected \[5, 7\) and \[10, 60\)"),
            (replace(part, vs=11), 1, np.int32, r"parents \[4, 6\) and children "
             r"\[10, 60\), expected \[4, 6\) and \[11, 60\)"),
            (part, 1, np.int64, "4-byte ids, expected 8"),
            (replace(part, nbytes=part.nbytes + 8), 1, np.int32,
             "%d bytes, expected %d" % (part.nbytes, part.nbytes + 8))):
        with pytest.raises(CorruptPartError, match=re.escape(p) + ": " + msg):
            read_part(p, dtype, other, index)
    assert read_part(p, np.int32, part, 1)[0].tolist() == vert.tolist()


def test_part_corruption_detected(tmp_path):
    vert = np.arange(50, dtype=np.int32)
    off = np.array([0, 20, 50], dtype=np.int64)
    part = make_part(2, 0, vert, off)
    p = str(tmp_path / "x.cse")
    write_part(p, part, 0)
    data = bytearray(open(p, "rb").read())
    at = spill._HEADER.size + 30  # a byte of the ids
    flipped = bytes(data[:at]) + bytes([data[at] ^ 0xFF]) + bytes(data[at + 1:])
    open(p, "wb").write(flipped)
    with pytest.raises(CorruptPartError, match="checksum"):
        read_part(p, np.int32, part, 0)
    at = spill._HEADER.size - 1  # the last header field, the child range's end
    open(p, "wb").write(bytes(data[:at]) + bytes([data[at] ^ 0x01]) + bytes(data[at + 1:]))
    with pytest.raises(CorruptPartError, match="size"):
        read_part(p, np.int32, part, 0)
    open(p, "wb").write(bytes(data[:-12]))
    with pytest.raises(CorruptPartError, match="size|truncated"):
        read_part(p, np.int32, part, 0)
    open(p, "wb").write(b"NOPE" + bytes(data[4:]))
    with pytest.raises(CorruptPartError, match="magic"):
        read_part(p, np.int32, part, 0)
    open(p, "wb").write(b"")
    with pytest.raises(CorruptPartError, match="truncated"):
        read_part(p, np.int32, part, 0)


def test_part_swapped_ids_detected(tmp_path):
    # a byte sum cannot see two ids trading places; the checksum must
    vert = np.array([5, 9, 2, 7], dtype=np.int32)
    off = np.array([0, 2, 4], dtype=np.int64)
    part = make_part(3, 0, vert, off)
    p = str(tmp_path / "x.cse")
    write_part(p, part, 0)
    write_part(str(tmp_path / "y.cse"), replace(part, vert=vert[[1, 0, 2, 3]]), 0)
    swapped = bytearray(open(str(tmp_path / "y.cse"), "rb").read())
    good = open(p, "rb").read()
    swapped[-8:] = good[-8:]  # keep the original part's checksum
    open(p, "wb").write(bytes(swapped))
    with pytest.raises(CorruptPartError, match="checksum"):
        read_part(p, np.int32, part, 0)


def misplace(fault, path, index):
    """Put a valid part file in the wrong place once level 4's part
    index 2 was written to path: its neighbour's file copied over it,
    the files of parts 0 and 1 swapped, or the file of level 3's part
    2 copied over it."""
    d = os.path.dirname(path)
    if fault == "copied":
        shutil.copyfile(os.path.join(d, part_name(4, 1)), path)
    elif fault == "swapped":
        p0, p1 = (os.path.join(d, part_name(4, i)) for i in (0, 1))
        os.replace(p0, path + ".tmp")
        os.replace(p1, p0)
        os.replace(path + ".tmp", p1)
    else:
        shutil.copyfile(os.path.join(d, part_name(3, index)), path)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fault, name, message", [
    ("copied", part_name(4, 2), "part 1, expected 2"),
    ("swapped", part_name(4, 0), "part 1, expected 0"),
    ("other level", part_name(4, 2), "level 3, expected 4")])
def test_misplaced_part_file_raises(tmp_path, monkeypatch, workers, fault, name,
                                    message):
    # without the place in the header, a copied part gave a wrong census
    # and swapped parts an IndexError naming no file
    monkeypatch.setenv("GMINE_SPILL_DIR", str(tmp_path))
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 2)
    g = make_random_graph(2960, 60, 130)
    want, m = mining.motif_count(g, 5, parts_per_level=4)
    budget = int(m["peak_resident_estimate"] * 0.5)
    got, m = mining.motif_count(g, 5, workers=workers, memory_budget=budget,
                                parts_per_level=4)
    assert got == want
    assert m["parts_written"] >= 8  # levels 3 and 4 go to disk
    real = spill.write_part
    written = []

    def misplacing_write(path, part, index):
        n = real(path, part, index)
        if (part.level, index) == (4, 2):
            misplace(fault, path, index)
            written.append(path)
        return n

    monkeypatch.setattr(spill, "write_part", misplacing_write)
    before = threading.active_count()
    with pytest.raises(CorruptPartError) as err:
        mining.motif_count(g, 5, workers=workers, memory_budget=budget,
                           parts_per_level=4)
    assert written
    assert str(err.value).endswith("%s: %s" % (name, message))
    assert os.path.isabs(str(err.value).split(": ")[0])
    assert threading.active_count() == before
    assert os.listdir(str(tmp_path)) == []


# -- planning -------------------------------------------------------------------

def test_plan_unlimited_never_spills(demo_graph):
    s = vertex_store_to(demo_graph, 3)
    spill_from, est = plan_spill(s, 0, NEXT_EST)
    assert spill_from == s.depth + 2
    assert est > 0


def test_plan_progression():
    # depth 3: nothing on disk, then the new level 4, then levels 3-4
    s = vertex_store_to(make_random_graph(2950, 30, 40), 3, parts_per_level=4)
    plans = []
    budget = plan_spill(s, 0, NEXT_EST)[1]
    while True:
        try:
            p = plan_spill(s, budget, NEXT_EST)
        except BudgetTooSmallError:
            break
        assert p[1] <= budget
        plans.append(p)
        budget = p[1] - 1
    assert [frm for frm, _ in plans] == [5, 4, 3]
    # each plan charges only what stays resident: levels below spill_from
    # in full, two part files of each spilled source level, the
    # predictions of the top and the new level, and the new level's
    # arrays if it stays in memory
    nv, no, npred = NEXT_EST
    l1, l2, l3 = s.levels
    fixed = l1.size_bytes() + l2.size_bytes() + l3.pred.nbytes + npred
    assert [est for _, est in plans] == [
        fixed + l3.size_bytes() + nv + no,
        fixed + l3.size_bytes(),
        fixed + window_bytes(l3)]


@pytest.mark.parametrize("parts", [1, 3, 8])
def test_plan_charges_a_spilled_level_its_largest_part_twice(tmp_path, parts):
    """A window holds one part file and, while it slides, the next: the
    plan charges a level twice its largest part file, whether it is
    spilled or its parts are still in memory."""
    g = make_random_graph(2951, 40, 70)
    with mining.Session(g, spill_dir=str(tmp_path),
                        parts_per_level=parts) as s:
        s.seed_vertices()
        for _ in range(2):
            s.explore()
        l3 = s.cse.level(3)
        ahead = window_bytes(l3)
        spill_existing_level(l3, str(tmp_path), {})
        assert ahead == 2 * max(p.nbytes for p in l3.parts)
        # level 3 is on disk, so level 4 is written as it is explored,
        # cut by predicted weight
        s.explore()
        l4 = s.cse.level(4)
        assert l4.residency == "disk"
        _, est = plan_spill(s.cse, 0, (0, 0, 0))
        fixed = s.cse.level(1).size_bytes() + s.cse.level(2).size_bytes() + l4.pred.nbytes
        assert est == fixed + window_bytes(l3) + window_bytes(l4)
        for lvl in (l3, l4):
            largest = max(os.path.getsize(p.path) for p in lvl.parts)
            assert largest == max(p.nbytes for p in lvl.parts)
            assert window_bytes(lvl) == 2 * largest


def test_plan_once_spilled_stays_spilled(demo_graph, tmp_path):
    s = vertex_store_to(demo_graph, 3, parts_per_level=2)
    spill_existing_level(s.level(3), str(tmp_path), {})
    assert plan_spill(s, 10 ** 12, NEXT_EST)[0] == 3
    assert plan_spill(s, 0, NEXT_EST)[0] == 3


def test_plan_shallow_store_cannot_spill():
    s = EmbeddingStore()
    s.seed_identity(5)
    with pytest.raises(BudgetTooSmallError):
        plan_spill(s, 8, (10 ** 6, 10 ** 6, 0))


def test_spill_refuses_identity(demo_graph, tmp_path):
    s = EmbeddingStore()
    s.seed_identity(5)
    with pytest.raises(ValueError):
        spill_existing_level(s.level(1), str(tmp_path), {})


# -- part writer -------------------------------------------------------------------

def rebuild_from_parts(parts, id_dtype):
    verts, offs = [], []
    for i, p in enumerate(parts):
        v, o = read_part(p.path, id_dtype, p, i)
        assert (p.vs, p.ve) == (int(o[0]), int(o[-1]))
        assert len(o) == p.pe - p.ps + 1
        assert len(v) == p.ve - p.vs
        verts.append(v)
        offs.append(o if i == 0 else o[1:])
    return np.concatenate(verts), np.concatenate(offs)


def test_explored_parts_join_their_pieces(tmp_path, monkeypatch):
    """The replay ends every step at the new level's part cuts, so a part
    is the join of the kernel's pieces inside it. Level 4, cut in 4
    parts, is byte-identical at 1, 2 and 3 workers over lower levels of
    1, 3 and 8 parts, spilled or resident. A one-piece part holds the
    kernel's own array, a part of more pieces a fresh one."""
    g = make_random_graph(2952, 40, 70)
    with mining.Session(g, parts_per_level=4) as s:
        s.seed_vertices()
        for _ in range(3):
            s.explore()
    # one byte below the peak, the last explore's, spills the new level 4
    budget = s.metrics["peak_resident_estimate"] - 1
    real = mining.expand_vertex_range
    pieces = []

    def recording_range(task, ctx):
        res = real(task, ctx)
        pieces.append((task[0], res[0]))
        return res

    monkeypatch.setattr(mining, "expand_vertex_range", recording_range)
    blobs = []
    joined = set()  # whether a part was one piece, over every run
    for low in (1, 3, 8):
        for workers in (1, 2, 3):
            for spilled in (False, True):
                d = tmp_path / ("%d_%d_%d" % (low, workers, spilled))
                d.mkdir()
                with mining.Session(g, workers=workers, memory_budget=budget * spilled,
                                    spill_dir=str(d), parts_per_level=low) as s:
                    s.seed_vertices()
                    s.explore()
                    s.explore()
                    s.parts_per_level = 4
                    pieces.clear()
                    s.explore()
                l4 = s.cse.level(4)
                assert len(l4.parts) == 4
                assert l4.residency == ("disk" if spilled else "mem")
                for i, p in enumerate(l4.parts):
                    if not spilled:
                        own = [v for lo, v in pieces if p.ps <= lo < p.pe]
                        joined.add(len(own) == 1)
                        if len(own) == 1:
                            assert p.vert is own[0]
                        else:
                            assert not any(np.shares_memory(p.vert, v) for v in own)
                        write_part(str(d / part_name(4, i)), p, i)
                blobs.append([(d / part_name(4, i)).read_bytes() for i in range(4)])
                assert [len(b) for b in blobs[-1]] == [p.nbytes for p in l4.parts]
    assert joined == {True, False}
    assert all(b == blobs[0] for b in blobs)


def test_partwriter_rejects_a_piece_across_a_cut():
    w = PartWriter(None, 3, [0, 4, 9], {})
    w.feed(0, 2, np.arange(3, dtype=np.int32), np.array([1, 2], np.int32))
    with pytest.raises(AssertionError, match=r"parents \[2, 6\) crosses the part cut at 4"):
        w.feed(2, 6, np.zeros(0, np.int32), np.zeros(4, np.int32))


def test_partwriter_empty_level(monkeypatch):
    # level 3 of a lone edge is empty, so level 4 is cut [0, 0, 0]: the
    # replay feeds its writer no piece, and the level has no part
    writers = []

    def recording_writer(*args):
        writers.append(PartWriter(*args))
        return writers[-1]

    monkeypatch.setattr(mining, "PartWriter", recording_writer)
    with mining.Session(Graph.from_edges([(0, 1)]), parts_per_level=2) as s:
        s.seed_vertices()
        for _ in range(3):
            s.explore()
    assert s.cse.level(3).count == 0
    assert writers[-1].cuts == [0, 0, 0] and s.cse.level(4).parts == []


def test_spill_existing_roundtrip(tmp_path):
    g = make_random_graph(21, 15, 20)
    s = vertex_store_to(g, 3, parts_per_level=4)
    lvl = s.level(3)
    orig_vert, orig_off = (a.copy() for a in whole_arrays(lvl))
    footprint = lvl.size_bytes()
    m = {}
    spill_existing_level(lvl, str(tmp_path), m)
    assert lvl.residency == "disk"
    assert all(p.vert is None and p.off is None for p in lvl.parts)
    assert lvl.count == len(orig_vert)
    assert lvl.size_bytes() == footprint
    assert m["bytes_spilled"] > 0
    rv, ro = rebuild_from_parts(lvl.parts, np.int32)
    assert rv.tolist() == orig_vert.tolist()
    assert ro.tolist() == orig_off.tolist()
    names = sorted(os.path.basename(p.path) for p in lvl.parts)
    assert names[0] == part_name(3, 0)
    with pytest.raises(InvariantError):
        extract(s, 3, 0)


def test_append_spilled_checks_part_coverage():
    s = EmbeddingStore()
    s.seed_identity(5)
    append_whole(s, [1, 4, 2, 4, 3, 4, 4], [0, 2, 4, 6, 7, 7])

    def parts(*spans):
        return [PartInfo("L3_P%d.cse" % i, 3, ps, pe, vs, ve, 0)
                for i, (ps, pe, vs, ve) in enumerate(spans)]

    bad = {
        "parent gap": parts((0, 3, 0, 4), (4, 7, 4, 8)),
        "parent overlap": parts((0, 3, 0, 4), (2, 7, 4, 8)),
        "child gap": parts((0, 3, 0, 4), (3, 7, 5, 8)),
        "child overlap": parts((0, 3, 0, 4), (3, 7, 3, 8)),
        "short coverage": parts((0, 3, 0, 4), (3, 6, 4, 8)),
        "no parts": [],
    }
    for name, spans in bad.items():
        with pytest.raises(InvariantError):
            s.append_level(spans)
        assert s.depth == 2, name
    lvl = s.append_level(parts((0, 3, 0, 4), (3, 3, 4, 4), (3, 7, 4, 8)))
    assert lvl.residency == "disk" and lvl.count == 8
    assert lvl.size_bytes() == 8 * 4 + 8 * 8


@pytest.mark.parametrize("workers", [1, 2])
def test_spilling_a_built_level_writes_its_build_time_parts(tmp_path, workers):
    """One cut rule: level 3 spilled after it was built writes the part
    files that an explore writing level 3 straight to disk does. Both are
    cut by level 2's predictions, not by level 3's child counts."""
    g = make_random_graph(2952, 40, 70)
    files = {}
    for how in ("built", "later"):
        d = tmp_path / how
        d.mkdir()
        budget = 0
        if how == "built":  # one byte below the peak spills the new level 3
            with mining.Session(g, parts_per_level=4) as s:
                s.seed_vertices()
                s.explore()
                s.explore()
            budget = s.metrics["peak_resident_estimate"] - 1
        with mining.Session(g, workers=workers, memory_budget=budget, spill_dir=str(d),
                            parts_per_level=4) as s:
            s.seed_vertices()
            s.explore()
            s.explore()
            l3 = s.cse.level(3)
            assert l3.residency == ("disk" if how == "built" else "mem")
            if how == "later":
                counts = np.diff(whole_arrays(l3)[1])
                assert len(l3.parts) == 4
                spill_existing_level(l3, str(d), s.metrics)
        assert s.metrics["parts_written"] == len(l3.parts)
        files[how] = {p.name: p.read_bytes() for p in d.iterdir()}
    assert files["built"] == files["later"]
    assert len(files["later"]) == 4
    # level 3's child counts would cut it elsewhere, so the check has teeth
    assert [p.ps for p in l3.parts[1:]] != partition_by_weight(counts, 4)[1:-1].tolist()


@pytest.mark.parametrize("app", [
    lambda g, **kw: mining.motif_count(g, 4, **kw),
    lambda g, **kw: mining.clique_discovery(g, 4, **kw),
    lambda g, **kw: mining.fsm(g, 3, 2, **kw)], ids=["motif", "clique", "fsm"])
def test_resident_parts_never_touch_disk(monkeypatch, app):
    """Without a budget, parts stay in memory: no spill dir is made, no
    part file is written or read, and the spill counters stay 0. Levels
    of three parts give the results of levels of one."""
    g = make_random_graph(2953, 40, 80, n_labels=2)
    base = app(g, parts_per_level=1)

    def no_disk(*a):
        raise AssertionError("a resident run touched the disk")

    sessions = []
    real_aggregate = mining.Session.aggregate

    def spy_aggregate(self, *a):
        sessions.append(self)
        return real_aggregate(self, *a)

    monkeypatch.setattr(mining.Session, "_ensure_dir", no_disk)
    monkeypatch.setattr(spill, "write_part", no_disk)
    monkeypatch.setattr(spill, "read_part", no_disk)
    monkeypatch.setattr(mining.Session, "aggregate", spy_aggregate)
    got, m = app(g, workers=2, parts_per_level=3)
    for key in ("bytes_spilled", "parts_written", "bytes_read", "parts_loaded"):
        assert not m.get(key), key
    assert sessions[-1].spill_dir is None
    assert all(len(l.parts) == 3 for l in sessions[-1].cse.levels[1:])
    assert (mining.result_lines(got) if isinstance(got, dict) else got) == \
        (mining.result_lines(base[0]) if isinstance(got, dict) else base[0])


# -- windows ----------------------------------------------------------------------

def test_window_loads_one_part_at_a_time(tmp_path, monkeypatch):
    g = make_random_graph(22, 16, 24)
    s = vertex_store_to(g, 3, parts_per_level=5)
    spill_existing_level(s.level(3), str(tmp_path), {})
    lvl = s.level(3)
    assert len(lvl.parts) > 2
    loaded = []
    real = spill.read_part

    def spy(path, id_dtype, part, index):
        loaded.append(path)
        return real(path, id_dtype, part, index)

    monkeypatch.setattr(spill, "read_part", spy)
    m = {}
    w = _Window(lvl, np.int32, m)
    seen = [(w.main.vs, w.main.ve)]
    while w.idx + 1 < len(lvl.parts):
        w.slide()
        seen.append((w.main.vs, w.main.ve))
        assert loaded == [p.path for p in lvl.parts[:w.idx + 1]]
    assert m["parts_loaded"] == len(lvl.parts)
    assert seen[0][0] == 0 and seen[-1][1] == lvl.count
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
    with pytest.raises(AssertionError, match="past its last part"):
        w.slide()
    assert len(loaded) == len(lvl.parts)


def test_window_rejects_level_mismatch(tmp_path):
    g = make_random_graph(23, 12, 14)
    s = vertex_store_to(g, 3, parts_per_level=2)
    spill_existing_level(s.level(3), str(tmp_path), {})
    p0, p1 = s.level(3).parts[:2]
    good = open(p1.path, "rb").read()
    v, o = read_part(p1.path, np.int32, p1, 1)
    write_part(p1.path, replace(p1, level=9, vert=v, off=o), 1)
    w = _Window(s.level(3), np.int32, {})
    with pytest.raises(CorruptPartError, match="level 9, expected 3"):
        w.slide()
    open(p1.path, "wb").write(good)
    v, o = read_part(p0.path, np.int32, p0, 0)
    write_part(p0.path, replace(p0, level=9, vert=v, off=o), 0)
    with pytest.raises(CorruptPartError, match="level 9, expected 3"):
        _Window(s.level(3), np.int32, {})


# -- replay ------------------------------------------------------------------------

def expected_embeddings(g, depth):
    s = vertex_store_to(g, depth)
    return [(o, extract(s, depth, o)) for o in range(s.top.count)]


def run_replay(g, depth, spill_from, parts, workers, tmp_path):
    s = vertex_store_to(g, depth, parts_per_level=parts)
    m = {}
    for li in range(spill_from, depth + 1):
        spill_existing_level(s.level(li), str(tmp_path), m)
    got = []

    def consume(lo, hi, res):
        got.extend(res)

    replay_top(s, workers, collect_range, {}, consume, m)
    return got, m


@pytest.mark.parametrize("spill_from,parts", [
    (4, 3),     # top level only
    (3, 3),     # two-level window chain
    (3, 2),     # two parts per level
    (3, 7),     # more parts than some levels have slices
])
def test_replay_matches_memory(tmp_path, spill_from, parts):
    g = make_random_graph(31, 14, 18)
    want = expected_embeddings(g, 4)
    got, m = run_replay(g, 4, spill_from, parts, 1, tmp_path)
    assert got == want
    assert m["parts_loaded"] >= parts
    assert m["bytes_read"] > 0


@pytest.mark.parametrize("spill_lower", [True, False])
def test_level_columns_match_replay_windows(tmp_path, spill_lower):
    # the top's windows alone, or chained to a spilled level 3
    g = make_random_graph(34, 16, 22)
    s = vertex_store_to(g, 4, parts_per_level=9)
    assert (np.diff(whole_arrays(s.level(4))[1]) == 0).any()  # childless parents
    want = expected_embeddings(g, 4)
    for li in (3, 4) if spill_lower else (4,):
        spill_existing_level(s.level(li), str(tmp_path), {})
    assert len(s.level(4).parts) > 4
    got = []
    replay_top(s, 1, columns_range, {}, lambda lo, hi, res: got.extend(res), {})
    assert got == want


def test_replay_multiprocess_matches(tmp_path):
    g = make_random_graph(32, 14, 18)
    want = expected_embeddings(g, 4)
    got, _ = run_replay(g, 4, 3, 3, 3, tmp_path)
    assert got == want


def test_replay_requires_suffix(tmp_path):
    g = make_random_graph(33, 12, 14)
    s = vertex_store_to(g, 4, parts_per_level=2)
    spill_existing_level(s.level(3), str(tmp_path), {})
    with pytest.raises(AssertionError):
        replay_top(s, 1, collect_range, {}, lambda *a: None, {})


def test_replay_requires_suffix_under_optimize(tmp_path):
    # the layout check is an explicit raise, so python -O keeps it
    tests = os.path.dirname(os.path.abspath(__file__))
    code = textwrap.dedent("""
        assert False, "asserts are stripped under -O"
        from gmine.spill import replay_top, spill_existing_level
        from conftest import make_random_graph
        from test_explore import vertex_store_to
        from test_spill import collect_range
        s = vertex_store_to(make_random_graph(33, 12, 14), 4, parts_per_level=2)
        spill_existing_level(s.level(3), %r, {})
        try:
            replay_top(s, 1, collect_range, {}, lambda *a: None, {})
        except AssertionError as e:
            print("raised:", e)
    """ % str(tmp_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, tests)))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                       text=True, timeout=60, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("raised: spilled levels must form a suffix")


def test_write_failure_raises_instead_of_hanging(tmp_path):
    # a slow failing write with many parts to go: the error must reach
    # the caller, and the session must still remove its spill dir
    tests = os.path.dirname(os.path.abspath(__file__))
    code = textwrap.dedent("""
        import errno
        import time
        from gmine import spill
        from gmine.mining import motif_count
        from conftest import make_random_graph

        def failing_write(*args):
            time.sleep(0.5)
            raise OSError(errno.ENOSPC, "No space left on device")

        g = make_random_graph(2900, 30, 40)
        _, m = motif_count(g, 4, parts_per_level=32)
        spill.write_part = failing_write
        try:
            # one byte below the peak forces the plan onto disk
            motif_count(g, 4, memory_budget=m["peak_resident_estimate"] - 1,
                        parts_per_level=32)
        except OSError as e:
            print("raised:", errno.errorcode[e.errno])
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, tests)),
               GMINE_SPILL_DIR=str(tmp_path))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=60, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["raised:", "ENOSPC"]
    assert os.listdir(str(tmp_path)) == []


def test_failed_spilled_explore_leaves_no_thread(tmp_path, monkeypatch):
    monkeypatch.setenv("GMINE_SPILL_DIR", str(tmp_path))
    g = make_random_graph(2900, 30, 40)
    writers = []

    def recording_writer(*args):
        writers.append(PartWriter(*args))
        return writers[-1]

    def failing_range(task, ctx):
        raise RuntimeError("range worker failed")

    with mining.Session(g, parts_per_level=3) as s:
        s.seed_vertices()
        s.explore()
        s.explore()
    # one byte below the peak: the second explore writes its level
    budget = s.metrics["peak_resident_estimate"] - 1
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="range worker failed"):
        with mining.Session(g, memory_budget=budget,
                            parts_per_level=3) as s:
            s.seed_vertices()
            s.explore()
            monkeypatch.setattr(mining, "PartWriter", recording_writer)
            monkeypatch.setattr(mining, "expand_vertex_range", failing_range)
            s.explore()
    assert len(writers) == 1  # the failed explore was writing its level
    assert threading.active_count() == before
    assert os.listdir(str(tmp_path)) == []

