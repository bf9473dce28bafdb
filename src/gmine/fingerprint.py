"""Exact pattern classification for small subgraph embeddings.

An embedding of k vertices is reduced to the triple (L, D, P): sorted
vertex labels, their degrees inside the embedding, and the integer
coefficients of the characteristic polynomial of a label-weighted
adjacency matrix. The triple is invariant under isomorphism, and for
k < 9 distinct triples imply non-isomorphic embeddings, so a 64-bit
fold of the triple keys a pattern map without false merges.
"""

import itertools
import struct
from dataclasses import dataclass

MAX_K = 8

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


class SizeLimitError(ValueError):
    """Embedding has more than MAX_K vertices; the triple is only proven
    collision-free below 9 vertices."""


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
                             "exactness bound" % (k, MAX_K))
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


def bits_from_pairs(k, pairs):
    """Pack undirected position pairs into an upper-triangle bitmap."""
    tab = PAIR_BIT[k]
    bits = 0
    for i, j in pairs:
        bits |= 1 << tab[i][j]
    return bits


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
    """Reorder positions ascending by (label, degree).

    Runs the pairwise swap pass over (L, D) and applies the same swaps
    to the adjacency bitmap, returning (L', D', bits', perm) where
    perm[p] is the input position now sitting at slot p.
    """
    k = len(labels)
    L = list(labels)
    D = list(degrees)
    perm = list(range(k))
    for i in range(k):
        for j in range(i + 1, k):
            if L[i] > L[j] or (L[i] == L[j] and D[i] > D[j]):
                L[i], L[j] = L[j], L[i]
                D[i], D[j] = D[j], D[i]
                perm[i], perm[j] = perm[j], perm[i]
    return L, D, permute_bits(bits, perm), perm


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


def _slot_orbits(pat):
    """Orbit id of each canonical slot under the pattern's automorphisms."""
    parent = list(range(pat.k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in _block_perms(pat.labels, pat.degrees):
        if permute_bits(pat.bits, perm) == pat.bits:
            for p, q in enumerate(perm):
                ra, rb = find(p), find(q)
                if ra != rb:
                    parent[rb] = ra
    roots = {}
    return tuple(roots.setdefault(find(p), len(roots)) for p in range(pat.k))


class _Entry:
    __slots__ = ("hash", "pattern", "_pos_orbit")

    def __init__(self, h, pattern, pos_orbit):
        self.hash = h
        self.pattern = pattern
        self._pos_orbit = pos_orbit

    def position_orbits(self):
        """orbit id for each input position; orbits are those of the
        canonical form under its automorphisms, so every worker that sees
        any member of the class numbers them identically."""
        return self._pos_orbit

    @property
    def orbit_count(self):
        return max(self._pos_orbit) + 1


class PatternHasher:
    """Caches the full classification pipeline per raw (labels, bitmap) key.

    weight_base is fixed per graph (max label + 2) so all embeddings of a
    run share the weight encoding.
    """

    def __init__(self, weight_base):
        self.weight_base = weight_base
        self._by_raw = {}
        # canonical (labels, bitmap) -> (hash, Pattern, slot orbits): one
        # characteristic polynomial per pattern
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
        k = len(labels)
        _check_k(k)
        degrees = degrees_from_bits(k, bits)
        ls, ds, sbits, sperm = canonical_sort(labels, degrees, bits)
        best = None
        best_perm = None
        for bp in _block_perms(ls, ds):
            cand = permute_bits(sbits, bp)
            if best is None or cand < best:
                best = cand
                best_perm = [sperm[p] for p in bp]
        pkey = (tuple(ls), best)
        known = self._poly.get(pkey)
        if known is None:
            poly = char_polynomial(weighted_matrix(ls, best, self.weight_base))
            if poly[0] != 0:  # zero diagonal, so the trace term vanishes
                raise AssertionError("trace term %d for pattern key %r" % (poly[0], pkey))
            h = triple_hash(ls, ds, poly)
            pat = Pattern(k, pkey[0], tuple(ds), best)
            check_same_pattern(h, self._by_hash.setdefault(h, pat), pat)
            known = self._poly[pkey] = (h, pat, _slot_orbits(pat))
        h, pat, orbits = known
        pos_orbit = [0] * k
        for slot, pos in enumerate(best_perm):  # canonical slot -> input position
            pos_orbit[pos] = orbits[slot]
        return _Entry(h, pat, tuple(pos_orbit))


def classify_triple(labels, degrees, bits, weight_base):
    """One-shot (L, D, P) triple for a raw embedding, no caching."""
    _check_k(len(labels))
    ls, ds, sbits, _ = canonical_sort(labels, degrees, bits)
    poly = char_polynomial(weighted_matrix(ls, sbits, weight_base))
    return tuple(ls), tuple(ds), poly
