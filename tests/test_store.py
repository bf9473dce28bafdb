import numpy as np
import pytest

from gmine.store import EmbeddingStore, InvariantError, LevelSlice, level_columns

from oracles import (extract, is_identity, iter_embeddings, level_size_bytes,
                     slice_end, slice_parent_of, slice_value, total_bytes)

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
    s.append_level(L2_VERT, L2_OFF)
    s.append_level(L3_VERT, L3_OFF)
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
    slices = [LevelSlice.of(l) for l in s.levels]
    got = [(o, tuple(e)) for o, e in iter_embeddings(slices, 0, 8)]
    assert got == list(enumerate(L3_EMBEDDINGS))
    # ranges not starting at zero position correctly
    got2 = [(o, tuple(e)) for o, e in iter_embeddings(slices, 3, 6)]
    assert got2 == [(i, L3_EMBEDDINGS[i]) for i in range(3, 6)]


def columns_as_rows(slices, lo, hi):
    return [tuple(r) for r in level_columns(slices, lo, hi).T.tolist()]


def test_level_columns_match_iteration():
    s = demo_store()
    assert (np.diff(s.level(3).off) == 0).any()  # childless parents
    slices = [LevelSlice.of(l) for l in s.levels]
    for lo in range(9):
        for hi in range(lo, 9):
            want = [tuple(e) for _, e in iter_embeddings(slices, lo, hi)]
            assert columns_as_rows(slices, lo, hi) == want
    assert level_columns(slices, 4, 4).shape == (3, 0)


def test_level_columns_explicit_seeds_and_windows():
    s = EmbeddingStore()
    s.seed_identity(5)
    s.append_level([1, 3, 4, 3, 4], [0, 3, 3, 5, 5, 5])
    slices = [LevelSlice.of(l) for l in s.levels]
    want = [tuple(e) for _, e in iter_embeddings(slices, 0, 5)]
    assert columns_as_rows(slices, 0, 5) == want
    # the same top level seen through a window over parents 1..4
    l2 = s.level(2)
    win = slices[:1] + [LevelSlice(l2.vert[3:5], l2.off[1:5], vbase=3, obase=1)]
    assert columns_as_rows(win, 3, 5) == want[3:5]


def test_iteration_lexicographic_order():
    s = demo_store()
    slices = [LevelSlice.of(l) for l in s.levels]
    embs = [tuple(e) for _, e in iter_embeddings(slices, 0, 8)]
    # offset order equals lexicographic order of the id sequences
    assert embs == sorted(embs)


def test_empty_level_append():
    s = demo_store()
    s.append_level([], [0] * 9)
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
        s.append_level(L2_VERT, L2_OFF + [7])


def test_invariant_off_monotone():
    s = EmbeddingStore()
    s.seed_identity(5)
    with pytest.raises(InvariantError):
        s.append_level(L2_VERT, [0, 4, 2, 6, 7, 7])


def test_invariant_off_total():
    s = EmbeddingStore()
    s.seed_identity(5)
    with pytest.raises(InvariantError):
        s.append_level(L2_VERT, [0, 2, 4, 6, 7, 8])


def test_invariant_slices_ascending():
    s = EmbeddingStore()
    s.seed_identity(5)
    with pytest.raises(InvariantError, match="ascending"):
        s.append_level([1, 1, 2, 4, 3, 4, 4], [0, 2, 4, 6, 7, 7])
    # descending restart at a slice boundary is fine
    s.append_level([3, 4, 1], [0, 2, 3, 3, 3, 3])


def test_seed_twice_rejected():
    s = EmbeddingStore()
    s.seed_identity(3)
    with pytest.raises(InvariantError):
        s.seed_identity(3)


def test_level_slice_windows():
    s = demo_store()
    l3 = s.level(3)
    # a window holding only parents 2..4 of level 3 (child offsets 4..7)
    sl = LevelSlice(l3.vert[4:8], l3.off[2:6], vbase=4, obase=2)
    assert slice_value(sl, 5) == L3_VERT[5]
    assert slice_parent_of(sl, 5) == 2
    assert slice_end(sl, 2) == 6
    assert slice_end(sl, 4) == 8
    whole = [LevelSlice.of(s.level(1)), LevelSlice.of(s.level(2))]
    assert columns_as_rows(whole + [sl], 4, 8) == L3_EMBEDDINGS[4:8]
