"""Brute-force class census: every infinite-order conjugacy class once.

Classes are enumerated as block-exponent necklaces: tuples (k1, ..., kn)
with nonzero canonical exponents and word length ``n + sum |ki|`` within
budget, emitted only when the tuple equals its own minimal rotation.
``census`` only counts, so its memory stays linear in the word length
and no global dedup set is needed; ``enumerate_classes`` materializes
and sorts every class.  Both run one scan; ``census`` classifies each
necklace with ``necklaces.reflection_category``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator

from .necklaces import (
    NONE,
    PREC,
    SYM,
    SYMP,
    BlockAlphabet,
    exponent_ordinal,
    reflection_category,
)
from .words import CyclicWord, DomainError, GroupParams

CSV_HEADER = "len,symmetric,p_reciprocal,symmetric_p,power,reciprocal_total,all_classes"

_POWER = 4  # counter index after the reflection categories

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

    def column(self, name: str) -> dict[int, int]:
        if name == "reciprocal_total":
            return {l: row.reciprocal_total for l, row in self.rows.items()}
        return {l: getattr(row, name) for l, row in self.rows.items()}


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
        first_byte = bytes([o1])
        buf = bytearray([o1])

        def dfs(used: int) -> None:
            s = bytes(buf)
            n = len(s)
            # is_minimal_rotation inlined: a call per DFS node cost 11% of census time.
            # Compare only rotations starting at o1.
            s2 = s + s
            i = s2.find(first_byte, 1)
            minimal = True
            while 0 < i < n:
                if s2[i : i + n] < s:
                    minimal = False
                    break
                i = s2.find(first_byte, i + 1)
            if minimal:
                visit(used, s)
            for o, w in pairs:
                if used + w <= max_len:
                    buf.append(o)
                    dfs(used + w)
                    buf.pop()

        dfs(w1)


def census(params: GroupParams, max_len: int) -> CensusTable:
    """Exact per-length, per-category class counts up to ``max_len``."""
    alphabet = BlockAlphabet.for_params(params)
    # counts[length] = [NONE, SYM, PREC, SYMP, power] tallies
    counts = [[0] * 5 for _ in range(max_len + 1)]

    def visit(length: int, s: bytes) -> None:
        cat = reflection_category(alphabet, s)
        row = counts[length]
        row[cat] += 1
        if cat == SYMP and all(o == alphabet.r_ord for o in s):
            row[_POWER] += 1

    _scan(params, max_len, visit)
    rows = {
        length: CensusRow(
            symmetric=c[SYM],
            p_reciprocal=c[PREC],
            symmetric_p=c[SYMP],
            power=c[_POWER],
            all_classes=c[NONE] + c[SYM] + c[PREC] + c[SYMP],
        )
        for length, c in enumerate(counts)
        if length >= 2
    }
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
