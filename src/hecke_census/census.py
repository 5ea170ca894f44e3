"""Class census: exact per-length, per-category counts of infinite-order classes.

An infinite-order conjugacy class is a necklace of blocks: the rotation
class of the tuple (k1, ..., kn) of ``i g^k1 ... i g^kn``, with nonzero
canonical exponents and word length ``n + sum |ki|``.  ``census`` counts
these necklaces with Burnside's lemma over the dihedral action instead of
enumerating them (compare Sawada, "Generating bracelets in constant
amortized time", SIAM J. Comput. 31, 2001); the categories are those of
the source paper, arXiv:2411.00739.  With ``B(x) = sum_k x^(1+|k|)``:

- Rotations: there are ``(1/n) sum_{d|n} phi(d) [x^L] B(x^d)^(n/d)``
  n-block classes of word length L.
- Reflections: a class is reciprocal when reverse-and-negate maps its
  necklace to itself, i.e. when one of the n maps ``s -> rotate(rev_neg(s))``
  fixes one of its tuples.  Such a map fixes two of the 2n syllables.  A
  fixed ``i`` constrains nothing (an iota axis); a fixed block must be its
  own negative, g^r, so ``S(x) = x^(r+1)`` (0 for odd p).  For odd n each
  map fixes one ``i`` and one block: ``S(x) B(x^2)^((n-1)/2)`` tuples.  For
  even n, n/2 iota axes fix ``B(x^2)^(n/2)`` tuples and n/2 gamma axes fix
  ``S(x)^2 B(x^2)^((n-2)/2)``.
- Categories: a reciprocal necklace whose primitive root has d blocks has
  d tuples, each fixed by n/d maps whose axes lie d syllable pairs apart.
  Odd d alternates iota and gamma axes (symmetric_p); even d keeps one
  type (symmetric or p_reciprocal).  Per axis, odd n counts each necklace
  once, all symmetric_p.  For even n an odd-d necklace counts once on each
  axis type and an even-d one twice on its own, so ``symmetric =
  (iota - odd_d) / 2`` and ``p_reciprocal = (gamma - odd_d) / 2``.  With
  n = 2^a * m (m odd), the odd-d necklaces are the 2^a-th powers of the
  reciprocal m-block necklaces of length L / 2^a.
- The power column is the one class ``(g^r ... g^r)``: ``[(r+1) | L]``.

Every division is exact or raises.  ``enumerate_classes`` is the
brute-force oracle: ``_scan`` walks every self-minimal necklace, and
``enumerate_classes`` materializes and sorts them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .necklaces import BlockAlphabet, exponent_ordinal, is_minimal_rotation
from .words import CyclicWord, DomainError, GroupParams

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


@dataclass(frozen=True)
class CensusRow:
    symmetric: int
    p_reciprocal: int
    symmetric_p: int
    power: int
    all_classes: int

    @property
    def reciprocal_total(self) -> int:
        return self.symmetric + self.p_reciprocal + self.symmetric_p


@dataclass(frozen=True)
class CensusTable:
    params: GroupParams
    max_len: int
    rows: dict[int, CensusRow]

    def row(self, length: int) -> CensusRow:
        return self.rows[length]

    def reciprocal_total(self, length: int) -> int:
        return self.rows[length].reciprocal_total


def _scan(params: GroupParams, max_len: int, visit: Callable[[int, bytes], None]) -> None:
    """Visit ``(word length, bytes)`` of every self-minimal necklace within budget.

    The first block of a self-minimal necklace is its least block, so the
    search runs once per first block and extends only with blocks >= it.
    """
    if max_len < 2:
        raise DomainError("max_len must be >= 2")
    alphabet = BlockAlphabet.for_params(params)
    all_pairs = [(exponent_ordinal(k), 1 + abs(k)) for k in alphabet.exponents]
    for first in range(len(all_pairs)):
        pairs = all_pairs[first:]
        o1, w1 = pairs[0]
        if w1 > max_len:
            continue
        buf = bytearray([o1])

        def dfs(used: int) -> None:
            s = bytes(buf)
            if is_minimal_rotation(s):
                visit(used, s)
            for o, w in pairs:
                if used + w <= max_len:
                    buf.append(o)
                    dfs(used + w)
                    buf.pop()

        dfs(w1)


def _block_powers(params: GroupParams, max_len: int) -> list[list[int]]:
    """``powers[m][j]`` = [x^j] B(x)^m for m <= max_len // 2 and j <= max_len.

    ``B(x) = sum_k x^(1+|k|)`` over the canonical nonzero exponents k; only
    |k| < max_len can occur, so the loop never depends on the size of p.
    """
    b = [0] * (max_len + 1)
    for a in range(1, min(params.p // 2, max_len - 1) + 1):
        b[1 + a] = 2 if params.canonical_exponent(-a) == -a else 1
    terms = [(w, c) for w, c in enumerate(b) if c]
    powers = [[1] + [0] * max_len]
    for _ in range(max_len // 2):
        prev, nxt = powers[-1], [0] * (max_len + 1)
        for i, c in enumerate(prev):
            if c:
                for w, bw in terms:
                    if i + w > max_len:
                        break
                    nxt[i + w] += c * bw
        powers.append(nxt)
    return powers


def _exact_div(num: int, den: int, what: str, n: int, length: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"census engine: {what} {num} (n={n}, len={length}) is not divisible by {den}"
        )
    return q


def census(params: GroupParams, max_len: int) -> CensusTable:
    """Exact per-length, per-category class counts up to ``max_len``, by
    Burnside's lemma over the dihedral action (see the module docstring)."""
    if max_len < 2:
        raise DomainError("max_len must be >= 2")
    powers = _block_powers(params, max_len)
    phi = list(range(max_len + 1))  # Euler's totient, by sieve
    for i in range(2, max_len + 1):
        if phi[i] == i:
            for j in range(i, max_len + 1, i):
                phi[j] -= phi[j] // i
    r = params.r

    def paired(length: int, m: int) -> int:
        """[x^length] B(x^2)^m: m blocks, each matched with its negative."""
        return powers[m][length // 2] if length >= 0 and length % 2 == 0 else 0

    def odd_axis(n: int, length: int) -> int:
        """Fixed tuples of one reflection of an odd n-block necklace: the
        block on the axis is g^r, the other (n-1)/2 are matched in pairs."""
        return paired(length - (r + 1), (n - 1) // 2) if params.even else 0

    rows = {}
    for length in range(2, max_len + 1):
        all_classes = symmetric = p_reciprocal = symmetric_p = 0
        for n in range(1, length // 2 + 1):
            g = math.gcd(n, length)
            divisors = (d for d in range(1, g + 1) if g % d == 0)
            fixed = sum(phi[d] * powers[n // d][length // d] for d in divisors)
            all_classes += _exact_div(fixed, n, "rotation-fixed sum", n, length)
            if n % 2 == 1:
                symmetric_p += odd_axis(n, length)
                continue
            # odd-d necklaces: 2^a-th powers of the odd-block ones, n = 2^a * odd
            two = n & -n
            odd_d = odd_axis(n // two, length // two) if length % two == 0 else 0
            iota = paired(length, n // 2)
            gamma = paired(length - 2 * (r + 1), n // 2 - 1) if params.even else 0
            symmetric += _exact_div(iota - odd_d, 2, "iota-axis count", n, length)
            p_reciprocal += _exact_div(gamma - odd_d, 2, "gamma-axis count", n, length)
            symmetric_p += odd_d
        rows[length] = CensusRow(
            symmetric=symmetric,
            p_reciprocal=p_reciprocal,
            symmetric_p=symmetric_p,
            power=int(params.even and length % (r + 1) == 0),
            all_classes=all_classes,
        )
    return CensusTable(params=params, max_len=max_len, rows=rows)


def enumerate_classes(params: GroupParams, max_len: int) -> Iterator[CyclicWord]:
    """Every infinite-order class of word length <= max_len, exactly once.

    Ordered by (word length, class-key order).  Unlike ``census``, this
    materializes and sorts every class before yielding the first.
    """
    found: list[tuple[int, bytes]] = []
    _scan(params, max_len, lambda length, s: found.append((length, s)))
    found.sort()
    alphabet = BlockAlphabet.for_params(params)
    for _, s in found:
        yield CyclicWord.from_blocks(params, alphabet.decode(s))


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
    doc = {
        "p": table.params.p,
        "max_len": table.max_len,
        "rows": [
            {
                "len": length,
                "symmetric": str(row.symmetric),
                "p_reciprocal": str(row.p_reciprocal),
                "symmetric_p": str(row.symmetric_p),
                "power": str(row.power),
                "reciprocal_total": str(row.reciprocal_total),
                "all_classes": str(row.all_classes),
            }
            for length, row in sorted(table.rows.items())
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
