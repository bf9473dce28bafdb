"""Exact pattern classification for small subgraph embeddings.

An embedding of k vertices is reduced to the triple (L, D, P): sorted
vertex labels, their degrees inside the embedding, and the integer
coefficients of the characteristic polynomial of a label-weighted
adjacency matrix. The triple is invariant under isomorphism, so
isomorphic embeddings share it, but the converse fails: non-isomorphic
patterns share a triple from 8 vertices unlabeled, and from 6 or 7 with
labels. A pattern's key therefore also folds in its canonical bitmap,
the least adjacency bitmap over the orders that keep (L, D) sorted,
which with L is an exact canonical form; the hasher checks that one
64-bit key never names two canonical patterns. The search for the
canonical bitmap also gives each position's orbit under the pattern's
automorphisms, from the permutations that tie for the least bitmap;
FSM's minimum-image support counts vertices per orbit.
"""

import itertools
import struct
from dataclasses import dataclass
from typing import NamedTuple

MAX_K = 8

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


class SizeLimitError(ValueError):
    """Embedding has more than MAX_K vertices, past the pair tables and
    the k!-bounded canonical search that the hasher is built for."""


class HashCollisionError(RuntimeError):
    """Two different canonical patterns folded to the same 64-bit hash."""


def check_same_pattern(h, have, got):
    """Raise unless the pattern already keyed by hash h is got."""
    if have != got:
        raise HashCollisionError("hash %016x keys both %s and %s"
                                 % (h, have.serialize(), got.serialize()))


def _check_k(k):
    if k > MAX_K:
        raise SizeLimitError("embeddings of %d vertices exceed the %d-vertex "
                             "limit" % (k, MAX_K))
    if k < 1:
        raise ValueError("empty embedding")


# upper-triangle bit index tables, PAIR_BIT[k][i][j] for i < j <= k-1
def _pair_table(k):
    t = [[0] * k for _ in range(k)]
    b = 0
    for i in range(k):
        for j in range(i + 1, k):
            t[i][j] = b
            t[j][i] = b
            b += 1
    return t


PAIR_BIT = [None] + [_pair_table(k) for k in range(1, MAX_K + 1)]


def degrees_from_bits(k, bits):
    d = [0] * k
    b = 0
    for i in range(k):
        for j in range(i + 1, k):
            if bits >> b & 1:
                d[i] += 1
                d[j] += 1
            b += 1
    return d


def canonical_sort(labels, degrees, bits):
    """Reorder positions ascending by (label, degree), stably.

    Applies the same order to the adjacency bitmap, returning (L', D',
    bits', perm) where perm[p] is the input position now sitting at slot
    p. Any (label, degree) order serves: the block permutations of the
    canonical search reach every other one.
    """
    perm = sorted(range(len(labels)), key=lambda p: (labels[p], degrees[p]))
    return ([labels[p] for p in perm], [degrees[p] for p in perm],
            permute_bits(bits, perm), perm)


def permute_bits(bits, perm):
    """Bitmap of the graph with slot p relabeled from input position perm[p]."""
    k = len(perm)
    tab = PAIR_BIT[k]
    out = 0
    b = 0
    for i in range(k):
        ti = tab[perm[i]]
        for j in range(i + 1, k):
            if bits >> ti[perm[j]] & 1:
                out |= 1 << b
            b += 1
    return out


def weighted_matrix(sorted_labels, bits, weight_base):
    """Symmetric integer matrix with edge {i,j} weighted by the label pair.

    weight_base must exceed max_label + 1 so distinct unordered label
    pairs get distinct weights; unlabeled graphs use uniform weight 3.
    """
    k = len(sorted_labels)
    tab = PAIR_BIT[k]
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        li = sorted_labels[i]
        for j in range(i + 1, k):
            if bits >> tab[i][j] & 1:
                lj = sorted_labels[j]
                a, b = (li, lj) if li <= lj else (lj, li)
                w = (a + 1) * weight_base + (b + 1)
                m[i][j] = w
                m[j][i] = w
    return m


def char_polynomial(m):
    """Exact characteristic polynomial coefficients (p_{k-1}, .., p_0).

    Faddeev-LeVerrier over Python integers; every trace division must be
    exact, which is asserted. The leading coefficient (1) is implicit.
    """
    k = len(m)
    rng = range(k)
    c = [row[:] for row in m]
    coeffs = []
    p = -sum(c[i][i] for i in rng)  # tr/1 is exact
    coeffs.append(p)
    for step in range(2, k + 1):
        for i in rng:
            c[i][i] += p
        nxt = [[sum(m[i][t] * c[t][j] for t in rng) for j in rng] for i in rng]
        c = nxt
        tr = sum(c[i][i] for i in rng)
        if tr % step:
            raise AssertionError("inexact trace division at step %d" % step)
        p = -tr // step
        coeffs.append(p)
    return tuple(coeffs)


def fnv1a64(data):
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _ser_ints(vals):
    return b"".join(struct.pack("<I", v) for v in vals)


def _ser_coeffs(coeffs):
    # each coefficient: sign byte, magnitude length byte, little-endian magnitude
    out = []
    for c in coeffs:
        mag = abs(c)
        body = mag.to_bytes((mag.bit_length() + 7) // 8, "little") if mag else b""
        out.append(bytes([1 if c < 0 else 0, len(body)]) + body)
    return b"".join(out)


def triple_hash(sorted_labels, sorted_degrees, coeffs):
    """64-bit fold of the (L, D, P) triple."""
    return (fnv1a64(_ser_ints(sorted_labels))
            ^ fnv1a64(_ser_ints(sorted_degrees))
            ^ fnv1a64(_ser_coeffs(coeffs)))


def pattern_hash(sorted_labels, sorted_degrees, coeffs, bits):
    """64-bit key of a pattern: the triple's fold with the canonical
    bitmap folded in, which splits the patterns that share a triple."""
    return (triple_hash(sorted_labels, sorted_degrees, coeffs)
            ^ fnv1a64(bits.to_bytes(4, "little")))


@dataclass(frozen=True)
class Pattern:
    """Canonical description of a pattern class."""
    k: int
    labels: tuple   # ascending by (label, degree)
    degrees: tuple
    bits: int       # canonical adjacency bitmap under that ordering

    def serialize(self):
        nbytes = (self.k * (self.k - 1) // 2 + 7) // 8
        return "%d;L=%s;D=%s;B=%s" % (
            self.k,
            ",".join(map(str, self.labels)),
            ",".join(map(str, self.degrees)),
            self.bits.to_bytes(nbytes, "little").hex())


def _block_perms(labels, degrees):
    """All slot permutations that respect equal-(label, degree) runs."""
    k = len(labels)
    blocks = []
    s = 0
    for i in range(1, k + 1):
        if i == k or (labels[i], degrees[i]) != (labels[s], degrees[s]):
            blocks.append(range(s, i))
            s = i
    for combo in itertools.product(*(itertools.permutations(b) for b in blocks)):
        flat = [p for blk in combo for p in blk]
        yield flat


class Entry(NamedTuple):
    """A raw key's class: the pattern's hash, its canonical Pattern, and
    the orbit id of each input position under the pattern's automorphisms.
    Orbits are numbered by their lowest canonical slot, so every raw key
    of the class numbers them identically."""
    hash: int
    pattern: Pattern
    orbits: tuple


class PatternHasher:
    """Caches the full classification pipeline per raw (labels, bitmap) key.

    weight_base is fixed per graph (max label + 2) so all embeddings of a
    run share the weight encoding. Range threads share one hasher: two
    of them may classify the same new key at once, which stores equal
    entries, and every hash is still checked against its pattern.
    """

    def __init__(self, weight_base):
        self.weight_base = weight_base
        self._by_raw = {}
        # canonical (labels, bitmap) -> (hash, Pattern): one characteristic
        # polynomial per pattern
        self._poly = {}
        self._by_hash = {}  # hash -> Pattern, checks the hash is exact

    def classify(self, labels, bits):
        """Map an embedding's raw labels/bitmap to its cached entry."""
        key = (labels, bits)
        e = self._by_raw.get(key)
        if e is None:
            e = self._classify(labels, bits)
            self._by_raw[key] = e
        return e

    def _classify(self, labels, bits):
        """One search over the block permutations finds the least bitmap
        and its orbits. Each tie with the first minimizer differs from it
        by an automorphism, and every automorphism keeps (label, degree),
        so it shows up as a tie: the lowest slot a tie maps canonical slot
        s to is the lowest member of s's orbit."""
        k = len(labels)
        _check_k(k)
        degrees = degrees_from_bits(k, bits)
        ls, ds, sbits, sperm = canonical_sort(labels, degrees, bits)
        best = None
        for bp in _block_perms(ls, ds):  # canonical slot -> sorted position
            cand = permute_bits(sbits, bp)
            if best is None or cand < best:
                best, first, low = cand, bp, list(range(k))
                slot_of = {p: s for s, p in enumerate(bp)}
            elif cand == best:
                low = [min(m, slot_of[p]) for m, p in zip(low, bp)]
        pkey = (tuple(ls), best)
        known = self._poly.get(pkey)
        if known is None:
            poly = char_polynomial(weighted_matrix(ls, best, self.weight_base))
            if poly[0] != 0:  # zero diagonal, so the trace term vanishes
                raise AssertionError("trace term %d for pattern key %r" % (poly[0], pkey))
            h = pattern_hash(ls, ds, poly, best)
            pat = Pattern(k, pkey[0], tuple(ds), best)
            check_same_pattern(h, self._by_hash.setdefault(h, pat), pat)
            known = self._poly[pkey] = (h, pat)
        roots = {}
        orbits = [0] * k
        for s, p in enumerate(first):
            orbits[sperm[p]] = roots.setdefault(low[s], len(roots))
        return Entry(*known, tuple(orbits))
