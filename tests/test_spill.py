import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gmine import runtime
from gmine.spill import (BudgetTooSmallError, CorruptPartError, PartWriter,
                         _Window, part_name, plan_spill, read_part,
                         replay_top, spill_existing_level, write_manifest,
                         write_part)
from gmine.store import (EmbeddingStore, InvariantError, iter_embeddings,
                         level_columns)

from conftest import make_random_graph
from test_explore import vertex_store_to

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def collect_range(task):
    lo, hi = task
    slices = runtime.get_context()["slices"]
    return [(o, tuple(emb)) for o, emb in iter_embeddings(slices, lo, hi)]


def columns_range(task):
    lo, hi = task
    slices = runtime.get_context()["slices"]
    cols = level_columns(slices, lo, hi)
    return [(lo + i, tuple(r)) for i, r in enumerate(cols.T.tolist())]


NEXT_EST = (4000, 800, 4000)


# -- part files ---------------------------------------------------------------

def test_part_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    vert = rng.integers(0, 1000, 257).astype(np.int32)
    off = np.sort(rng.integers(0, 257, 40)).astype(np.int64)
    p = str(tmp_path / "x.cse")
    n = write_part(p, 5, 4, vert, off)
    assert n == os.path.getsize(p)
    rv, ro, lv = read_part(p, np.int32)
    assert lv == 5
    assert rv.tolist() == vert.tolist() and rv.dtype == np.int32
    assert ro.tolist() == off.tolist() and ro.dtype == np.int64


def test_part_corruption_detected(tmp_path):
    vert = np.arange(50, dtype=np.int32)
    off = np.array([0, 20, 50], dtype=np.int64)
    p = str(tmp_path / "x.cse")
    write_part(p, 2, 4, vert, off)
    data = bytearray(open(p, "rb").read())
    flipped = bytes(data[:30]) + bytes([data[30] ^ 0xFF]) + bytes(data[31:])
    open(p, "wb").write(flipped)
    with pytest.raises(CorruptPartError, match="checksum"):
        read_part(p, np.int32)
    open(p, "wb").write(bytes(data[:-12]))
    with pytest.raises(CorruptPartError, match="size|truncated"):
        read_part(p, np.int32)
    open(p, "wb").write(b"NOPE" + bytes(data[4:]))
    with pytest.raises(CorruptPartError, match="magic"):
        read_part(p, np.int32)
    open(p, "wb").write(b"")
    with pytest.raises(CorruptPartError, match="truncated"):
        read_part(p, np.int32)


def test_part_swapped_ids_detected(tmp_path):
    # a byte sum cannot see two ids trading places; the checksum must
    vert = np.array([5, 9, 2, 7], dtype=np.int32)
    off = np.array([0, 2, 4], dtype=np.int64)
    p = str(tmp_path / "x.cse")
    write_part(p, 3, 4, vert, off)
    write_part(str(tmp_path / "y.cse"), 3, 4, vert[[1, 0, 2, 3]], off)
    swapped = bytearray(open(str(tmp_path / "y.cse"), "rb").read())
    good = open(p, "rb").read()
    swapped[-8:] = good[-8:]  # keep the original part's checksum
    open(p, "wb").write(bytes(swapped))
    with pytest.raises(CorruptPartError, match="checksum"):
        read_part(p, np.int32)


# -- planning -------------------------------------------------------------------

def test_plan_unlimited_never_spills(demo_graph, tmp_path):
    s = vertex_store_to(demo_graph, 3)
    plan = plan_spill(s, 0, NEXT_EST, str(tmp_path))
    assert not plan.any_spill and plan.keep_off
    assert plan.resident_estimate > 0


def test_plan_progression(demo_graph, tmp_path):
    s = vertex_store_to(demo_graph, 3)
    d = str(tmp_path)
    plans = []
    budget = plan_spill(s, 0, NEXT_EST, d).resident_estimate
    while True:
        try:
            p = plan_spill(s, budget, NEXT_EST, d)
        except BudgetTooSmallError:
            break
        plans.append(p)
        budget = p.resident_estimate - 1
    assert not plans[0].any_spill
    last = plans[-1]
    assert last.spill_next and not last.keep_off
    assert last.spill_levels == (3,)
    for p in plans:
        assert 1 not in p.spill_levels and 2 not in p.spill_levels
        if p.spill_levels:
            assert p.spill_levels == tuple(range(p.spill_levels[0], 4))
            assert p.spill_next  # on-disk set is a suffix ending at the newest
        assert p.resident_estimate <= p.budget


def test_plan_once_spilled_stays_spilled(demo_graph, tmp_path):
    s = vertex_store_to(demo_graph, 3)
    spill_existing_level(s.level(3), str(tmp_path), 2, {}, keep_off=True)
    plan = plan_spill(s, 10 ** 12, NEXT_EST, str(tmp_path))
    assert plan.spill_next
    assert 3 not in plan.spill_levels


def test_plan_shallow_store_cannot_spill(demo_graph, tmp_path):
    s = EmbeddingStore("vertex")
    s.seed_identity(5)
    with pytest.raises(BudgetTooSmallError):
        plan_spill(s, 8, (10 ** 6, 10 ** 6, 0), str(tmp_path))


def test_spill_refuses_identity(demo_graph, tmp_path):
    s = EmbeddingStore("vertex")
    s.seed_identity(5)
    with pytest.raises(ValueError):
        spill_existing_level(s.level(1), str(tmp_path), 2, {}, True)


# -- part writer -------------------------------------------------------------------

def rebuild_from_parts(parts, id_dtype):
    verts, offs = [], []
    for i, p in enumerate(parts):
        v, o, _ = read_part(p.path, id_dtype)
        assert (p.vs, p.ve) == (int(o[0]), int(o[-1]))
        assert len(o) == p.pe - p.ps + 1
        assert len(v) == p.ve - p.vs
        verts.append(v)
        offs.append(o if i == 0 else o[1:])
    return np.concatenate(verts), np.concatenate(offs)


def test_partwriter_rechunking_is_invisible(tmp_path):
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 6, 40).astype(np.int64)
    vert = rng.integers(0, 99, int(counts.sum())).astype(np.int32)
    cuts = [0, 7, 7, 19, 40]
    feeds = {
        "whole": [(0, 40)],
        "single": [(i, i + 1) for i in range(40)],
        "ragged": [(0, 3), (3, 7), (7, 26), (26, 40)],
    }
    blobs = {}
    for name, ranges in feeds.items():
        d = str(tmp_path / name)
        os.mkdir(d)
        m = {}
        w = PartWriter(d, 4, np.int32, cuts, m)
        csum = np.zeros(41, dtype=np.int64)
        np.cumsum(counts, out=csum[1:])
        for a, b in ranges:
            w.feed(vert[csum[a]:csum[b]], counts[a:b])
        parts = w.close()
        rv, ro = rebuild_from_parts(parts, np.int32)
        assert rv.tolist() == vert.tolist()
        assert np.array_equal(np.diff(ro), counts)
        assert m["parts_written"] == len(parts)
        blobs[name] = [open(p.path, "rb").read() for p in parts]
    assert blobs["whole"] == blobs["single"] == blobs["ragged"]


def test_partwriter_empty_level(tmp_path):
    w = PartWriter(str(tmp_path), 3, np.int32, [0, 0, 0], {})
    w.feed(np.zeros(0, np.int32), np.zeros(0, np.int64))
    assert w.close() == []


def test_spill_existing_roundtrip(tmp_path):
    g = make_random_graph(21, 15, 20)
    s = vertex_store_to(g, 3)
    lvl = s.level(3)
    orig_vert = lvl.vert.copy()
    orig_off = lvl.off.copy()
    m = {}
    spill_existing_level(lvl, str(tmp_path), 4, m, keep_off=True)
    assert lvl.residency == "disk" and lvl.vert is None
    assert lvl.off is not None and lvl.vert_count == len(orig_vert)
    assert m["bytes_spilled"] > 0
    rv, ro = rebuild_from_parts(lvl.parts, np.int32)
    assert rv.tolist() == orig_vert.tolist()
    assert ro.tolist() == orig_off.tolist()
    names = sorted(os.path.basename(p.path) for p in lvl.parts)
    assert names[0] == part_name(3, 0)
    with pytest.raises(InvariantError):
        s.extract(3, 0)


# -- windows ----------------------------------------------------------------------

def test_window_holds_at_most_two_parts(tmp_path):
    g = make_random_graph(22, 16, 24)
    s = vertex_store_to(g, 3)
    spill_existing_level(s.level(3), str(tmp_path), 5, {}, keep_off=True)
    lvl = s.level(3)
    assert len(lvl.parts) > 2
    loader = ThreadPoolExecutor(max_workers=1)
    try:
        w = _Window(lvl, loader, np.int32, {})
        seen = [(w.main.vs, w.main.ve)]
        assert w.in_flight() <= 2
        while w.idx + 1 < len(lvl.parts):
            w.slide()
            assert w.in_flight() <= 2
            seen.append((w.main.vs, w.main.ve))
        assert seen[0][0] == 0 and seen[-1][1] == lvl.vert_count
        assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
        with pytest.raises(AssertionError):
            w.slide()
    finally:
        loader.shutdown(wait=True)


def test_window_rejects_level_mismatch(tmp_path):
    g = make_random_graph(23, 12, 14)
    s = vertex_store_to(g, 3)
    spill_existing_level(s.level(3), str(tmp_path), 2, {}, keep_off=True)
    p0 = s.level(3).parts[0]
    v, o, _ = read_part(p0.path, np.int32)
    write_part(p0.path, 9, 4, v, o)
    loader = ThreadPoolExecutor(max_workers=1)
    try:
        with pytest.raises(CorruptPartError, match="level"):
            _Window(s.level(3), loader, np.int32, {})
    finally:
        loader.shutdown(wait=True)


# -- replay ------------------------------------------------------------------------

def expected_embeddings(g, depth):
    s = vertex_store_to(g, depth)
    return [(o, s.extract(depth, o)) for o in range(s.top.count)]


def run_replay(g, depth, spill_from, parts, keep_off, workers, tmp_path):
    s = vertex_store_to(g, depth)
    m = {}
    for li in range(spill_from, depth + 1):
        spill_existing_level(s.level(li), str(tmp_path), parts, m, keep_off)
    got = []

    def consume(lo, hi, res):
        got.extend(res)

    replay_top(s, workers, collect_range, consume, m)
    return got, m


@pytest.mark.parametrize("spill_from,parts,keep_off", [
    (4, 3, True),     # top level only
    (3, 3, True),     # two-level window chain
    (3, 2, False),    # offsets dropped from memory entirely
    (3, 7, True),     # more parts than some levels have slices
])
def test_replay_matches_memory(tmp_path, spill_from, parts, keep_off):
    g = make_random_graph(31, 14, 18)
    want = expected_embeddings(g, 4)
    got, m = run_replay(g, 4, spill_from, parts, keep_off, 1, tmp_path)
    assert got == want
    assert m["parts_loaded"] >= parts
    assert m["bytes_read"] > 0


@pytest.mark.parametrize("keep_off", [True, False])
def test_level_columns_match_replay_windows(tmp_path, keep_off):
    g = make_random_graph(34, 16, 22)
    s = vertex_store_to(g, 4)
    assert (np.diff(s.level(4).off) == 0).any()  # childless parents
    want = expected_embeddings(g, 4)
    for li in (3, 4):
        spill_existing_level(s.level(li), str(tmp_path), 9, {}, keep_off)
    assert len(s.level(4).parts) > 4
    got = []
    replay_top(s, 1, columns_range, lambda lo, hi, res: got.extend(res), {})
    assert got == want


def test_replay_multiprocess_matches(tmp_path):
    g = make_random_graph(32, 14, 18)
    want = expected_embeddings(g, 4)
    got, _ = run_replay(g, 4, 3, 3, True, 3, tmp_path)
    assert got == want


def test_replay_requires_suffix(tmp_path):
    g = make_random_graph(33, 12, 14)
    s = vertex_store_to(g, 4)
    spill_existing_level(s.level(3), str(tmp_path), 2, {}, True)
    with pytest.raises(AssertionError):
        replay_top(s, 1, collect_range, lambda *a: None, {})


def test_replay_requires_suffix_under_optimize(tmp_path):
    # the layout check is an explicit raise, so python -O keeps it
    tests = os.path.dirname(os.path.abspath(__file__))
    code = textwrap.dedent("""
        assert False, "asserts are stripped under -O"
        from gmine.spill import replay_top, spill_existing_level
        from conftest import make_random_graph
        from test_explore import vertex_store_to
        from test_spill import collect_range
        s = vertex_store_to(make_random_graph(33, 12, 14), 4)
        spill_existing_level(s.level(3), %r, 2, {}, True)
        try:
            replay_top(s, 1, collect_range, lambda *a: None, {})
        except AssertionError as e:
            print("raised:", e)
    """ % str(tmp_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, tests)))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                       text=True, timeout=60, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("raised: spilled levels must form a suffix")


def test_manifest_lists_parts(tmp_path, demo_graph):
    s = vertex_store_to(demo_graph, 3)
    spill_existing_level(s.level(3), str(tmp_path), 2, {}, True)
    write_manifest(str(tmp_path), s)
    text = open(str(tmp_path / "plan.txt")).read()
    assert "level=3" in text
    for p in s.level(3).parts:
        assert os.path.basename(p.path) in text
