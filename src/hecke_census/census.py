"""Class census: exact per-length, per-category counts of infinite-order classes.

An infinite-order conjugacy class is a necklace of blocks: the rotation
class of the tuple (k1, ..., kn) of ``i g^k1 ... i g^kn``, with nonzero
canonical exponents and word length ``n + sum |ki|``.  ``census`` counts
these necklaces by Burnside's lemma over the dihedral action; the
categories are those of the source paper, arXiv:2411.00739.  Summed over
the block count n, the Burnside terms are coefficients of two series in
``B(x) = sum_k x^(1+|k|)``, whose coefficients are
``GroupParams.block_weights`` (Flajolet and Sedgewick, Analytic
Combinatorics, 2009, I.2 and V.1): ``h = 1/(1 - B)``, from
``block_series``, the one loop that runs the recurrence of a series over
``1 - B``, and ``g = x B' h``, x times the derivative of ``-log(1 - B)``.

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
bucket, as its length; its blocks are decoded from the bytes only if they
are read.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .necklaces import reflection_category
from .spectral import json_block
from .words import WEIGHTS, CyclicWord, DomainError, GroupParams

_ONE_BYTE = [bytes((o,)) for o in range(len(WEIGHTS))]  # a child of pre is pre + _ONE_BYTE[o]

CSV_HEADER = "len,symmetric,p_reciprocal,symmetric_p,power,reciprocal_total,all_classes"

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


def block_series(weights: dict[int, int], terms: list, n: int) -> list:
    """``terms`` continued to index n, as a new list, by the recurrence over
    ``1 - sum_w weights[w] x^w`` (w >= 1): ``a_j = sum_{w <= j} weights[w] a_{j-w}``."""
    a, items = list(terms), sorted(weights.items())
    for j in range(len(a), n + 1):
        s = 0
        for w, c in items:
            if w > j:
                break
            s += c * a[j - w]
        a.append(s)
    return a


def _exact_div(num: int, den: int, what: str, length: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"census engine: {what} {num} (len={length}) is not divisible by {den}"
        )
    return q


def census(params: GroupParams, max_len: int) -> CensusTable:
    """Exact per-length, per-category class counts up to ``max_len``, by
    Burnside's lemma over the dihedral action (see the module docstring)."""
    if max_len < 2:
        raise DomainError("max_len must be >= 2")
    weights = params.block_weights(max_len)
    h, g = block_series(weights, [1], max_len), [0] * (max_len + 1)
    for w, c in weights.items():  # g = x B' h
        for j in range(w, max_len + 1):
            g[j] += w * c * h[j - w]
    phi = list(range(max_len + 1))  # Euler's totient, by sieve
    for i in range(2, max_len + 1):
        if phi[i] == i:
            for j in range(i, max_len + 1, i):
                phi[j] -= phi[j] // i
    rotation_fixed = [0] * (max_len + 1)
    for d in range(1, max_len + 1):
        for k in range(1, max_len // d + 1):
            rotation_fixed[d * k] += phi[d] * g[k]
    fixed_block = params.r + 1 if params.even else 0  # weight of g^r

    def axis(length: int) -> int:
        """Tuples fixed by one reflection with g^r on its axis: the other
        blocks are matched with their negatives."""
        rest = length - fixed_block
        return h[rest // 2] if fixed_block and rest >= 0 and rest % 2 == 0 else 0

    rows = {}
    symmetric_p = [0] * (max_len + 1)
    for length in range(2, max_len + 1):
        symmetric = p_reciprocal = 0
        symmetric_p[length] = axis(length)
        if length % 2 == 0:
            odd_roots = symmetric_p[length // 2]  # D(L)
            iota, gamma = h[length // 2], axis(length - fixed_block)
            symmetric = _exact_div(iota - odd_roots, 2, "iota-axis count", length)
            p_reciprocal = _exact_div(gamma - odd_roots, 2, "gamma-axis count", length)
            symmetric_p[length] += odd_roots
        all_classes = _exact_div(rotation_fixed[length], length, "rotation-fixed sum", length)
        power = int(params.even and length % fixed_block == 0)
        rows[length] = CensusRow(symmetric, p_reciprocal, symmetric_p[length], power, all_classes)
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
    of every class before yielding the first.

    Each key is ``CyclicWord(params, s)`` for the scan's bytes s, with its
    bucket as its word length.  Its instance dict is filled in one update
    from a dict per bucket, and its blocks are decoded only when first
    read, so a sweep that only classifies decodes nothing.
    """
    new = object.__new__
    for length, bucket in enumerate(_scan(params, max_len)):
        shared = {"params": params, "_length": length}
        for s in bucket:
            c = new(CyclicWord)
            d = vars(c)
            d.update(shared)
            d["code"] = s
            yield c


def table_to_csv(table: CensusTable) -> str:
    lines = [CSV_HEADER]
    for length in range(2, table.max_len + 1):
        row = table.rows[length]
        lines.append(
            f"{length},{row.symmetric},{row.p_reciprocal},{row.symmetric_p},"
            f"{row.power},{row.reciprocal_total},{row.all_classes}"
        )
    return "\n".join(lines) + "\n"


def table_to_json(table: CensusTable) -> str:
    """The table as ``json.dumps(doc, indent=2)`` writes it, plus a newline,
    one f-string per row, the counts as decimal strings."""
    rows = [f'{{\n      "len": {length},\n      "symmetric": "{row.symmetric}",\n'
            f'      "p_reciprocal": "{row.p_reciprocal}",\n'
            f'      "symmetric_p": "{row.symmetric_p}",\n      "power": "{row.power}",\n'
            f'      "reciprocal_total": "{row.reciprocal_total}",\n'
            f'      "all_classes": "{row.all_classes}"\n    }}'
            for length, row in sorted(table.rows.items())]
    return (f'{{\n  "p": {table.params.p},\n  "max_len": {table.max_len},\n'
            f'  "rows": {json_block(rows, "  ")}\n}}\n')
