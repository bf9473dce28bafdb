import numpy as np
import pytest

from gmine.store import EmbeddingStore, InvariantError, PartInfo, level_columns

from oracles import (append_whole, extract, is_identity, iter_embeddings,
                     level_size_bytes, level_slices, part_of, slice_end,
                     slice_parent_of, slice_value, total_bytes, whole_arrays)

# Hand-derived canonical levels for the demo graph in dense ids
# (vertices 1..5 densify to 0..4; 4 is the hub).
L2_VERT = [1, 4, 2, 4, 3, 4, 4]
L2_OFF = [0, 2, 4, 6, 7, 7]
L3_VERT = [2, 4, 2, 3, 3, 4, 3, 4]
L3_OFF = [0, 2, 4, 6, 7, 8, 8, 8]
L3_EMBEDDINGS = [
    (0, 1, 2), (0, 1, 4), (0, 4, 2), (0, 4, 3),
    (1, 2, 3), (1, 2, 4), (1, 4, 3), (2, 3, 4),
]


def demo_store():
    s = EmbeddingStore()
    s.seed_identity(5)
    append_whole(s, L2_VERT, L2_OFF)
    append_whole(s, L3_VERT, L3_OFF)
    return s


def test_identity_level():
    s = EmbeddingStore()
    lvl = s.seed_identity(5)
    assert lvl.count == 5
    assert is_identity(lvl)
    assert extract(s, 1, 3) == (3,)


def test_append_and_counts():
    s = demo_store()
    assert s.level(2).count == 7
    assert s.level(3).count == 8
    assert s.depth == 3


def test_extraction_known_offsets():
    s = demo_store()
    # original-id walk <2,3,5> is dense <1,2,4> at level-3 offset 5
    assert extract(s, 3, 5) == (1, 2, 4)
    assert extract(s, 2, 0) == (0, 1)
    assert extract(s, 2, 6) == (3, 4)
    for off, want in enumerate(L3_EMBEDDINGS):
        assert extract(s, 3, off) == want


def test_extraction_bounds():
    s = demo_store()
    with pytest.raises(IndexError):
        extract(s, 3, 8)
    with pytest.raises(IndexError):
        extract(s, 2, -1)


def test_iteration_matches_extraction():
    s = demo_store()
    slices = level_slices(s)
    got = [(o, tuple(e)) for o, e in iter_embeddings(slices, 0, 8)]
    assert got == list(enumerate(L3_EMBEDDINGS))
    # ranges not starting at zero position correctly
    got2 = [(o, tuple(e)) for o, e in iter_embeddings(slices, 3, 6)]
    assert got2 == [(i, L3_EMBEDDINGS[i]) for i in range(3, 6)]


def columns_as_rows(slices, lo, hi):
    return [tuple(r) for r in level_columns(slices, lo, hi).T.tolist()]


def test_level_columns_match_iteration():
    s = demo_store()
    assert (np.diff(whole_arrays(s.level(3))[1]) == 0).any()  # childless parents
    slices = level_slices(s)
    for lo in range(9):
        for hi in range(lo, 9):
            want = [tuple(e) for _, e in iter_embeddings(slices, lo, hi)]
            assert columns_as_rows(slices, lo, hi) == want
    assert level_columns(slices, 4, 4).shape == (3, 0)


def test_level_columns_explicit_seeds_and_windows():
    s = EmbeddingStore()
    s.seed_identity(5)
    append_whole(s, [1, 3, 4, 3, 4], [0, 3, 3, 5, 5, 5])
    slices = level_slices(s)
    want = [tuple(e) for _, e in iter_embeddings(slices, 0, 5)]
    assert columns_as_rows(slices, 0, 5) == want
    # the same top level seen through a window over parents 1..4
    vert, off = whole_arrays(s.level(2))
    win = slices[:1] + [part_of(2, vert[3:5], off[1:5], ps=1)]
    assert columns_as_rows(win, 3, 5) == want[3:5]


def test_iteration_lexicographic_order():
    s = demo_store()
    slices = level_slices(s)
    embs = [tuple(e) for _, e in iter_embeddings(slices, 0, 8)]
    # offset order equals lexicographic order of the id sequences
    assert embs == sorted(embs)


def test_empty_level_append():
    s = demo_store()
    append_whole(s, [], [0] * 9)
    assert s.top.count == 0
    assert s.top.size_bytes() == 9 * 8


def test_size_bytes_exact():
    s = demo_store()
    # 32-bit ids, 64-bit offsets
    assert level_size_bytes(s, 2) == 7 * 4 + 6 * 8
    assert level_size_bytes(s, 3) == 8 * 4 + 8 * 8
    assert level_size_bytes(s, 1) == 2 * 8  # identity: off only
    assert total_bytes(s) == sum(level_size_bytes(s, i) for i in (1, 2, 3))


def test_invariant_off_length():
    s = EmbeddingStore()
    s.seed_identity(5)
    with pytest.raises(InvariantError):
        append_whole(s, L2_VERT, L2_OFF + [7])


def test_invariant_off_monotone():
    s = EmbeddingStore()
    s.seed_identity(5)
    with pytest.raises(InvariantError):
        append_whole(s, L2_VERT, [0, 4, 2, 6, 7, 7])


def test_invariant_off_total():
    s = EmbeddingStore()
    s.seed_identity(5)
    with pytest.raises(InvariantError):
        append_whole(s, L2_VERT, [0, 2, 4, 6, 7, 8])


def test_invariant_slices_ascending():
    s = EmbeddingStore()
    s.seed_identity(5)
    with pytest.raises(InvariantError, match="ascending"):
        append_whole(s, [1, 1, 2, 4, 3, 4, 4], [0, 2, 4, 6, 7, 7])
    # descending restart at a slice boundary is fine
    append_whole(s, [3, 4, 1], [0, 2, 3, 3, 3, 3])


def test_seed_twice_rejected():
    s = EmbeddingStore()
    s.seed_identity(3)
    with pytest.raises(InvariantError):
        s.seed_identity(3)


def test_level_slice_windows():
    s = demo_store()
    vert, off = whole_arrays(s.level(3))
    # a window holding only parents 2..4 of level 3 (child offsets 4..7)
    sl = part_of(3, vert[4:8], off[2:6], ps=2)
    assert slice_value(sl, 5) == L3_VERT[5]
    assert slice_parent_of(sl, 5) == 2
    assert slice_end(sl, 2) == 6
    assert slice_end(sl, 4) == 8
    whole = level_slices(s)[:2]
    assert columns_as_rows(whole + [sl], 4, 8) == L3_EMBEDDINGS[4:8]


def test_invariants_hold_per_in_memory_part():
    """A level of in-memory parts passes each part through the checks a
    whole level gets, and the parts through the coverage check."""
    def two_parts(vert, off, split=2):
        # parents [0, split) and [split, 5) of level 2, cut from whole arrays
        vert = np.asarray(vert, dtype=np.int32)
        off = np.asarray(off, dtype=np.int64)
        mid = int(off[split])
        return [PartInfo(None, 2, 0, split, 0, mid, 0, vert[:mid], off[:split + 1]),
                PartInfo(None, 2, split, 5, mid, len(vert), 0, vert[mid:], off[split:])]

    def append(parts):
        s = EmbeddingStore()
        s.seed_identity(5)
        return s.append_level(parts)

    lvl = append(two_parts(L2_VERT, L2_OFF))
    assert lvl.count == 7 and lvl.residency == "mem"
    assert [a.tolist() for a in whole_arrays(lvl)] == [L2_VERT, L2_OFF]
    bad = {
        "descending off": two_parts(L2_VERT, [0, 2, 4, 3, 7, 7], split=3),
        "ids not ascending": two_parts([1, 4, 2, 4, 4, 3, 4], L2_OFF),
        "ids past the part's last child": two_parts(L2_VERT + [4], L2_OFF),
    }
    short = two_parts(L2_VERT, L2_OFF)
    short[1].off = short[1].off[:-1]
    bad["off shorter than the part's parents"] = short
    moved = two_parts(L2_VERT, L2_OFF)
    moved[1].off = moved[1].off + 1
    bad["off not starting at the part's first child"] = moved
    gap = two_parts(L2_VERT, L2_OFF)
    gap[1].ps = 3
    bad["parent gap"] = gap
    for parts in bad.values():
        with pytest.raises(InvariantError):
            append(parts)
    with pytest.raises(InvariantError, match=r"ascending at vert\[5\]"):
        append(bad["ids not ascending"])
