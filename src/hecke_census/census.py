"""Class census: exact per-length, per-category counts of infinite-order classes.

An infinite-order conjugacy class is a necklace of blocks: the rotation
class of the tuple (k1, ..., kn) of ``i g^k1 ... i g^kn``, with nonzero
canonical exponents and word length ``n + sum |ki|``.  ``census`` counts
these necklaces by Burnside's lemma over the dihedral action; the
categories are those of the source paper, arXiv:2411.00739.  Summed over
the block count n, the Burnside terms are coefficients of two series in
``B(x) = sum_k x^(1+|k|)``, whose coefficients are
``GroupParams.block_weights`` (Flajolet and Sedgewick, Analytic
Combinatorics, 2009, I.2 and V.1): ``h = 1/(1 - B)`` and ``g = x B' h``,
x times the derivative of ``-log(1 - B)``.  ``block_series``, the one loop
that runs the recurrence of a series over a law, runs both over whichever
law has fewer terms within the budget: ``1 - B``, or the five-term
``S_p = (1 - x)(1 - B)``, which makes them O(L) at any p (Stanley,
Enumerative Combinatorics 1, Theorem 4.1.1; ``census_series``).

- Rotations: ``all_classes(L) = (1/L) sum_{d|L} phi(d) g[L/d]``.
- Reflections: a class is reciprocal when one of the n maps
  ``s -> rotate(rev_neg(s))`` fixes one of its tuples.  Such a map fixes
  two of the 2n syllables, each an ``i`` or g^r (the one block that is its
  own negative; none for odd p), and pairs every other block with its
  negative, so it fixes ``h[(L - w)/2]`` tuples, w being the weight on its
  axis.  For odd n that is one ``i`` and one g^r: ``O(L) = h[(L-r-1)/2]``.
- Categories: a necklace whose primitive root has an odd number of blocks
  is symmetric_p; for even n it counts once on each kind of axis.  One
  with an even root is symmetric or p_reciprocal and counts twice on its
  own kind.  The odd-root necklaces of even n are the squares of the
  symmetric_p ones of half the length, ``D(L) = symmetric_p(L/2)``, so
  ``symmetric = (h[L/2] - D)/2``, ``p_reciprocal = (h[L/2-r-1] - D)/2``
  and ``symmetric_p = O + D``.
- The power column is the one class ``(g^r ... g^r)``: ``[(r+1) | L]``.

Every division is exact or raises.  ``enumeration_census`` is the
enumeration oracle: ``_scan``, a recursive prenecklace walk, returns the
bytes of every necklace once, as its least rotation, in one bucket per
word length.  Every child of a prenecklace but its first is a Lyndon
word, and block weights do not decrease with the byte, so once one of
those cannot extend within budget, no later one can: the walk appends
that run of leaves without visiting them.  ``tally`` counts buckets by
category, those of ``reciprocal.normal_form_generate`` (the reciprocal
classes) too.  A key of ``enumerate_classes`` holds its bytes, as every
class key does (``CyclicWord.code``, the classifier's input), and its
bucket, as its length, in the tuple that is its storage, built in C
(``CyclicWord.of_length``); its blocks are decoded from the bytes only if
they are read.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, NamedTuple

from .necklaces import reflection_category
from .words import WEIGHTS, CyclicWord, DomainError, GroupParams
from .writers import table_to_csv, table_to_json  # re-exported: callers read them here

_ONE_BYTE = [bytes((o,)) for o in range(len(WEIGHTS))]  # a child of pre is pre + _ONE_BYTE[o]

# Hand-verified counts (p, column, word length, expected), checked by
# ``hecke-census verify`` and the acceptance suite.
FIXTURES = (
    (4, "reciprocal_total", 3, 1),
    (4, "reciprocal_total", 4, 1),
    (4, "reciprocal_total", 7, 2),
    (6, "reciprocal_total", 4, 2),
    (6, "reciprocal_total", 6, 1),
    (4, "symmetric", 4, 1),
    (6, "symmetric", 6, 1),
    (6, "symmetric", 8, 2),
    (4, "p_reciprocal", 10, 1),
    (4, "p_reciprocal", 8, 0),
)


class CensusRow(NamedTuple):
    symmetric: int
    p_reciprocal: int
    symmetric_p: int
    power: int
    all_classes: int

    @property
    def reciprocal_total(self) -> int:
        return self.symmetric + self.p_reciprocal + self.symmetric_p


class CensusTable(NamedTuple):
    params: GroupParams
    max_len: int
    rows: dict[int, CensusRow]


def _scan(params: GroupParams, max_len: int) -> list[list[bytes]]:
    """The bytes of every necklace within budget, once each, as its least
    rotation: bucket L lists those of word length L in lexicographic order.

    This is the FKM prenecklace generator (Cattell, Ruskey, Sawada, Serra
    and Miers, J. Algorithms 37, 2000), walked depth first by
    ``_children``, one level per byte: a block weighs >= 2, so at most
    max_len // 2 deep.  Every prefix of a necklace is a prenecklace of no
    larger weight, and block weights do not decrease with the byte, so each
    extension range stops at the budget, and the children that cannot
    extend come as one run of leaves (see ``_children``).
    """
    if max_len < 2:
        raise DomainError("max_len must be >= 2")
    # room[w]: the bytes that fit after weight w.  Z_p has p - 1 bytes, and
    # the 2b - 2 bytes of g^+-1 .. g^+-(b-1) weigh <= b
    room = [min(params.p - 1, 2 * (max_len - w) - 2) for w in range(max_len + 1)]
    if room[0] > len(WEIGHTS):
        raise DomainError(f"g^k with |k| > 128 has no byte: p={params.p} needs max_len <= 129")
    buckets: list[list[bytes]] = [[] for _ in range(max_len + 1)]
    for o in range(room[0]):  # each byte is a Lyndon word
        w = WEIGHTS[o]
        buckets[w].append(_ONE_BYTE[o])
        if o < room[w]:
            _children(_ONE_BYTE[o], w, 1, room, buckets)
    return buckets


def _children(pre: bytes, u: int, q: int, room: list[int], buckets: list[list[bytes]]) -> None:
    """Append to ``buckets`` every necklace that extends the prenecklace
    ``pre`` of weight u, whose longest Lyndon prefix has length q, given
    that some byte does.

    ``pre`` extends by the bytes o in ``[back, room[u])``, back the byte q
    places back, and ``pre + o`` is a necklace exactly when its own Lyndon
    prefix length divides its length.  o = back keeps q.  Every o > back
    makes a Lyndon word, so a necklace, whose own range starts at
    ``pre[0]``: it extends only if ``pre[0] < room[u + WEIGHTS[o]]``, a test
    that can only turn false as o grows.  From the first o that fails it,
    the rest of the range is a run of leaves, appended without a visit.
    """
    t = len(pre)
    back, stop = pre[t - q], room[u]
    w = u + WEIGHTS[back]
    child = pre + _ONE_BYTE[back]
    if (t + 1) % q == 0:
        buckets[w].append(child)
    if child[t + 1 - q] < room[w]:
        _children(child, w, q, room, buckets)
    first = pre[0]
    for o in range(back + 1, stop):
        w = u + WEIGHTS[o]
        if first >= room[w]:
            break
        child = pre + _ONE_BYTE[o]
        buckets[w].append(child)
        _children(child, w, t + 1, room, buckets)
    else:
        return
    for o in range(o, stop):
        buckets[u + WEIGHTS[o]].append(pre + _ONE_BYTE[o])


def block_series(weights: dict[int, int], terms: list, n: int,
                 numerator: dict[int, int] | None = None) -> list:
    """``terms`` continued to index n, as a new list, by the recurrence over
    ``1 - sum_w weights[w] x^w`` (w >= 1):
    ``a_j = numerator[j] + sum_{w <= j} weights[w] a_{j-w}``, the missing
    numerator terms 0.  The numerator is that of the series past ``terms``."""
    a, items, extra = list(terms), sorted(weights.items()), (numerator or {}).get
    for j in range(len(a), n + 1):
        s = extra(j, 0)
        for w, c in items:
            if w > j:
                break
            s += c * a[j - w]
        a.append(s)
    return a


def census_series(params: GroupParams, max_len: int, sparse: bool) -> tuple[list, list]:
    """The series ``h = 1/(1 - B)`` and ``g = x B' h`` to index ``max_len``,
    both from ``block_series`` over one law L: ``1 - B``, or, when
    ``sparse``, ``S_p = (1 - x)(1 - B)`` (``GroupParams.sparse_weights``).
    Over L, ``h = (1 - x)^e / L`` and ``g = -x L'/L - e x/(1 - x)``, with
    e = 1 for ``S_p`` and 0 for ``1 - B``; ``-x L'/L`` has the numerator
    ``sum_w w c_w x^w`` (Newton's identities for the power sums of the
    zeros of L)."""
    law = params.sparse_weights() if sparse else params.block_weights(max_len)
    h = block_series(law, [1, 0] if sparse else [1], max_len)
    g = block_series(law, [0], max_len, {w: w * c for w, c in law.items()})
    if sparse:
        g = [0] + [u - 1 for u in g[1:]]
    return h, g


def _inexact(what: str, num: int, den: int, length: int) -> ArithmeticError:
    return ArithmeticError(
        f"census engine: {what} {num} (len={length}) is not divisible by {den}"
    )


def census(params: GroupParams, max_len: int) -> CensusTable:
    """Exact per-length, per-category class counts up to ``max_len``, by
    Burnside's lemma over the dihedral action (see the module docstring).

    The series h and g run over whichever law has fewer terms that the
    budget reaches: ``1 - B``, with ``min(p/2, max_len - 1)`` weights, or
    the at most four of ``S_p = (1 - x)(1 - B)``, which makes their cost
    O(max_len) at any p (``census_series``)."""
    if max_len < 2:
        raise DomainError("max_len must be >= 2")
    h, g = census_series(params, max_len, min(params.p // 2, max_len - 1) > 4)
    top = max_len // 2  # g[1] = 0, so only k >= 2, and d <= max_len/2, count below
    phi = list(range(top + 1))  # Euler's totient, by sieve
    for i in range(2, top + 1):
        if phi[i] == i:
            for j in range(i, top + 1, i):
                phi[j] -= phi[j] // i
    rotation_fixed = [0] * (max_len + 1)
    for d in range(1, top + 1):
        phi_d = phi[d]
        for k in range(2, max_len // d + 1):
            rotation_fixed[d * k] += phi_d * g[k]
    # symmetric_p starts as O(L): the tuples fixed by a reflection with g^r,
    # of weight f, on its axis, the other blocks matched with their negatives;
    # the row pass adds D(L).  gamma[m] = h[m - f], and power[L] = [f | L]
    f = params.r + 1 if params.even else 0
    symmetric_p, gamma, power = [0] * (max_len + 1), [0] * (max_len + 1), [0] * (max_len + 1)
    if params.even and f <= max_len:
        symmetric_p[f::2] = h[:len(range(f, max_len + 1, 2))]
        gamma[f:] = h[:max_len + 1 - f]
        power[::f] = [1] * len(range(0, max_len + 1, f))
    rows = {}
    for length in range(2, max_len + 1):
        all_classes, rem = divmod(rotation_fixed[length], length)
        if rem:
            raise _inexact("rotation-fixed sum", rotation_fixed[length], length, length)
        if length % 2:
            rows[length] = CensusRow(0, 0, symmetric_p[length], power[length], all_classes)
            continue
        half = length // 2
        odd_roots = symmetric_p[half]  # D(L)
        symmetric, rem = divmod(h[half] - odd_roots, 2)
        if rem:
            raise _inexact("iota-axis count", h[half] - odd_roots, 2, length)
        p_reciprocal, rem = divmod(gamma[half] - odd_roots, 2)
        if rem:
            raise _inexact("gamma-axis count", gamma[half] - odd_roots, 2, length)
        symmetric_p[length] += odd_roots
        rows[length] = CensusRow(symmetric, p_reciprocal, symmetric_p[length], power[length],
                                 all_classes)
    return CensusTable(params, max_len, rows)


def tally(params: GroupParams, buckets: list[list[bytes]]) -> CensusTable:
    """The census table of classes given as least rotations in buckets by
    word length, as ``_scan`` and ``reciprocal.normal_form_generate``
    return them: each counts where ``classify`` would put it, read from its
    bytes alone, with no class key, and ``all_classes`` is its bucket's size."""
    r, r_code = params.r_byte, params.r_code
    rows = {}
    for length, bucket in enumerate(buckets[2:], 2):
        n = [0] * 5  # indexed by Category, then the powers of i g^r
        for s in bucket:
            category = reflection_category(r, s)
            n[category] += 1
            if category == 3:  # only (i g^r)^m can be a power, and it is symmetric_p
                n[4] += s == r_code * len(s)
        rows[length] = CensusRow(*n[1:], len(bucket))
    return CensusTable(params, len(buckets) - 1, rows)


def enumeration_census(params: GroupParams, max_len: int) -> CensusTable:
    """The census table by enumeration: the tally of every necklace."""
    return tally(params, _scan(params, max_len))


def enumerate_classes(params: GroupParams, max_len: int) -> Iterator[CyclicWord]:
    """Every infinite-order class of word length <= max_len, exactly once.

    Ordered by (word length, class-key order).  ``_scan`` lists least
    rotations in byte order, which is class-key order, one bucket per
    length, so no sort is needed.  Unlike ``census``, this holds the bytes
    of every class before yielding the first.  The scan runs on the first
    ``next()``, so that is where a ``DomainError`` comes.

    Each key equals ``CyclicWord(params, s)`` for the scan's bytes s.  It is
    built in C, with no Python frame per key, by ``CyclicWord.of_length``,
    with its bucket as its word length.  Its blocks are decoded only when
    first read, so a sweep that only classifies decodes nothing.
    """
    def keys() -> Iterator[Iterator[CyclicWord]]:
        for length, bucket in enumerate(_scan(params, max_len)):
            yield CyclicWord.of_length(params, length, bucket)

    return chain.from_iterable(keys())
