"""Exact pattern classification for small subgraph embeddings.

A pattern is keyed by its canonical form: its vertex labels and its
canonical bitmap, the least adjacency bitmap over the orders that sort
the positions by (label, degree inside the pattern). Two embeddings get
the same key exactly when they are isomorphic, so the key needs no
collision check. The search for the canonical bitmap also gives each
position's orbit under the pattern's automorphisms, from the
permutations that tie for the least bitmap; FSM's minimum-image support
counts vertices per orbit.

The paper keys patterns by the characteristic polynomial of the
adjacency matrix instead. That invariant is kept here, in
char_polynomial, for the tests that check it; it does not separate
non-isomorphic patterns from 8 vertices unlabeled, or from 6 with
labels, and gmine does not use it.
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

MAX_K = 8


class SizeLimitError(ValueError):
    """Embedding has more than MAX_K vertices, past the pair tables and
    the k!-bounded canonical search that the hasher is built for."""


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


def char_polynomial(m):  # perfbench/tracer.py wraps it (ROADMAP item 3)
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
    """A raw key's class: its canonical Pattern's id, the Pattern, and
    the orbit id of each input position under the pattern's automorphisms.
    Orbits are numbered by their lowest canonical slot, so every raw key
    of the class numbers them identically."""
    id: int
    pattern: Pattern
    orbits: tuple


class PatternHasher:
    """Caches the classification of each raw (labels, bitmap) key, and
    issues each canonical pattern one small integer id.

    Range threads share one hasher: two of them may classify the same
    new key, or two keys of one new pattern, at once. They store equal
    entries, because a pattern's id is set once, by setdefault; an id
    drawn by the thread that lost is never used. Ids follow the order
    in which patterns are first seen, so they serve as array indexes
    within a run but are not a stable name for a pattern.
    """

    def __init__(self):
        # perfbench/tracer.py reads the sizes of both tables by name
        self._by_raw = {}
        self._poly = {}  # canonical (labels, bitmap) -> (id, Pattern)
        self._ids = itertools.count()

    def classify(self, labels, bits):
        """Map an embedding's raw labels/bitmap to its cached entry."""
        key = (labels, bits)
        e = self._by_raw.get(key)
        if e is None:
            e = self._classify(labels, bits)
            self._by_raw[key] = e
        return e

    def id_of(self, pattern):
        """The id issued to a pattern that classify returned."""
        return self._poly[pattern.labels, pattern.bits][0]

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
            known = self._poly.setdefault(
                pkey, (next(self._ids), Pattern(k, pkey[0], tuple(ds), best)))
        roots = {}
        orbits = [0] * k
        for s, p in enumerate(first):
            orbits[sperm[p]] = roots.setdefault(low[s], len(roots))
        return Entry(*known, tuple(orbits))
