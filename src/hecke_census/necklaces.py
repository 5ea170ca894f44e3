"""Byte-encoded block necklaces for the enumeration oracle and the classifier.

A cyclically reduced word with 2n syllables is the alternating form
``i g^k1 ... i g^kn``; its conjugacy class is the rotation class of the
block tuple ``(k1, ..., kn)``.  Each block is one byte, the position of
its exponent in the syllable order of ``words`` (g^1 < g^-1 < g^2 < ...), so
lexicographic comparison of the byte strings matches the class-key order,
a class key is the least rotation of its bytes, and reversal/negation is a
C-speed ``translate``.  Block weights do not decrease with the ordinal,
which lets the enumeration oracle stop at the weight budget.

``reflection_category`` is the reflection classifier behind
``reciprocal.classify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import DomainError, GroupParams, exponent_ordinal, make_params

# reflection categories, as bit sets: SYMP == SYM | PREC
NONE, SYM, PREC, SYMP = range(4)


@dataclass(frozen=True)
class BlockAlphabet:
    """Canonical nonzero exponents of Z_p, byte-encoded by ``exponent_ordinal``."""

    p: int
    exponents: tuple[int, ...]     # exponents[o] has ordinal o
    weights: tuple[int, ...]       # 1 + |k|, aligned with exponents
    neg_table: bytes               # ordinal -> ordinal of canonical(-k)
    r_ord: int | None              # ordinal of g^r, the self-negating block; None for odd p

    @staticmethod
    @lru_cache(maxsize=None)
    def for_p(p: int) -> "BlockAlphabet":
        if p > 257:  # the largest ordinal, p - 2, must fit in one byte
            raise DomainError(f"byte-encoded block necklaces need p <= 257, got p={p}")
        params = make_params(p)
        exps = tuple(params.exponent_range())
        table = bytearray(256)
        for k in exps:
            table[exponent_ordinal(k)] = exponent_ordinal(params.canonical_exponent(-k))
        return BlockAlphabet(
            p=p,
            exponents=exps,
            weights=tuple(1 + abs(k) for k in exps),
            neg_table=bytes(table),
            r_ord=exponent_ordinal(params.r) if params.even else None,
        )

    @staticmethod
    def for_params(params: GroupParams) -> "BlockAlphabet":
        return BlockAlphabet.for_p(params.p)

    def encode(self, blocks: tuple[int, ...]) -> bytes:
        return bytes(map(exponent_ordinal, blocks))

    def decode(self, s: bytes) -> tuple[int, ...]:
        return tuple(map(self.exponents.__getitem__, s))

    def rev_neg(self, s: bytes) -> bytes:
        """Byte string of the inverse class (reverse and negate)."""
        return s[::-1].translate(self.neg_table)


def reflection_category(alphabet: BlockAlphabet, s: bytes) -> int:
    """Reciprocal category of a necklace: NONE, SYM, PREC or SYMP.

    A reversal at offset t (the inverse class rotated left by t equals s)
    acts on the 2n syllable positions as the reflection
    ``pos -> 2c - pos (mod 2n)`` with ``c = -t mod n``, fixing syllables
    ``c`` and ``c + n``.  Even positions carry ``i`` and make the class
    symmetric (inverted by a conjugate of iota); odd positions carry a
    gamma block, which must equal its own negative, hence g^r, and make
    it p-reciprocal.  For odd n the two fixed syllables have opposite
    parity, so one reversal gives both families.  The offsets are the
    matches of s in the doubled inverse, found by ``bytes.find``.
    """
    n = len(s)
    r_ord = alphabet.r_ord
    u2 = alphabet.rev_neg(s) * 2
    iota_t = gamma_t = False
    odd_n = n % 2 == 1
    t = u2.find(s)
    while 0 <= t < n:  # u2[t : t + n] == s; offset n repeats offset 0
        c = (-t) % n
        if odd_n:
            pos = c if c % 2 == 1 else c + n
            assert s[(pos - 1) // 2] == r_ord, "fixed gamma block must be g^r"
            iota_t = gamma_t = True
            break
        if c % 2 == 0:
            iota_t = True
        else:
            assert s[(c - 1) // 2] == r_ord and s[((c - 1) // 2 + n // 2) % n] == r_ord
            gamma_t = True
        if iota_t and gamma_t:
            break
        t = u2.find(s, t + 1)
    return SYM * iota_t | PREC * gamma_t
