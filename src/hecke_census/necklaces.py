"""Byte-encoded block necklaces for the enumeration oracle and the classifier.

A cyclically reduced word with 2n syllables is the alternating form
``i g^k1 ... i g^kn``; its conjugacy class is the rotation class of the
block tuple ``(k1, ..., kn)``.  Each block is one byte, the position of
its exponent in the syllable order of ``words`` (g^1 < g^-1 < g^2 < ...).
That order does not depend on p, so one table serves every Z_p: byte o
names the same exponent wherever that exponent is canonical, Z_p uses
exactly the bytes 0..p-2, and a byte holds any |k| <= 128.  Lexicographic
comparison of the byte strings matches the class-key order, a class key is
the least rotation of its bytes, and reversal/negation is a C-speed
``translate``: negation flips the low bit, except that g^r (p = 2r) is its
own negative.  Block weights do not decrease with the byte, which lets the
enumeration oracle stop at the weight budget.

``reflection_category`` is the reflection classifier behind
``reciprocal.classify``; ``Category`` is the package's category type.
``classify`` hands it a class key's byte code (``CyclicWord.code``), which
every key is built from: the bytes that ``census._scan`` or
``reciprocal.normal_form_generate`` generated, so no key is encoded, nor
decoded unless its blocks are read.  This module is the package's one
codec; ``words`` imports it only when a key first needs its blocks or its
length, since this module builds its table from ``words``.
"""

from __future__ import annotations

import enum

from .words import DomainError, exponent_ordinal


class Category(enum.IntEnum):
    """Reciprocal category, as the bit set of a class's reflection axes."""

    NOT_RECIPROCAL = 0
    SYMMETRIC = 1  # an i axis
    P_RECIPROCAL = 2  # a g^r axis
    SYMMETRIC_P_RECIPROCAL = 3


_CATEGORIES = tuple(Category)  # indexed by the bit set, without an enum call
_NOT_RECIPROCAL = Category.NOT_RECIPROCAL  # a global: an enum attribute read is slow

_BYTE = {k: exponent_ordinal(k) for a in range(1, 129) for k in (a, -a)}
EXPONENTS = tuple(sorted(_BYTE, key=_BYTE.__getitem__))  # EXPONENTS[o] has byte o
WEIGHTS = tuple(1 + abs(k) for k in EXPONENTS)             # 1 + |k|, aligned with EXPONENTS

_FLIP = bytes(o ^ 1 for o in range(256))  # g^k <-> g^-k
# byte of g^r -> negation table of Z_2r, which keeps g^r
_NEGATE = {o: _FLIP[:o] + bytes((o,)) + _FLIP[o + 1 :] for o in range(0, 256, 2)}


def encode(blocks: tuple[int, ...]) -> bytes:
    try:
        return bytes([_BYTE[k] for k in blocks])
    except KeyError as exc:
        raise DomainError(f"block g^{exc.args[0]} has no byte: blocks need |k| <= 128") from None


def decode(s: bytes) -> tuple[int, ...]:
    return tuple([EXPONENTS[o] for o in s])


def rev_neg(s: bytes, r: int | None) -> bytes:
    """Byte string of the inverse class (reverse and negate), with ``r`` the
    byte of g^r (``GroupParams.r_byte``)."""
    return s[::-1].translate(_NEGATE.get(r, _FLIP))


def reflection_category(r: int | None, s: bytes) -> Category:
    """Reciprocal category of a necklace; ``r`` is the byte of g^r
    (``GroupParams.r_byte``).

    A reversal at offset t (the inverse class rotated left by t equals s)
    acts on the 2n syllable positions as the reflection
    ``pos -> 2c - pos (mod 2n)`` with ``c = -t mod n``, fixing syllables
    ``c`` and ``c + n``.  Even positions carry ``i`` and make the class
    symmetric (inverted by a conjugate of iota); odd positions carry a
    gamma block, which must equal its own negative, hence g^r, and make
    it p-reciprocal.  For odd n the two fixed syllables have opposite
    parity, so one reversal gives both families.  The offsets are the
    matches of s in the doubled inverse, found by ``bytes.find``.

    Most classes are rejected before that by one byte count.  If
    ``rev_neg(s)`` is a rotation of s, negation maps the byte multiset of s
    onto itself.  Under negation the only preimage of a byte o other than
    r and r + 1 is ``o ^ 1``, and byte r + 1, the non-canonical g^-r, has
    none: negation sends both r and r + 1 to r.  So a reciprocal class has
    ``s.count(o) == s.count(o ^ 1)`` for every such o, and no byte r + 1.
    The test on o = s[0] != r is therefore sound for any byte string, not
    only least rotations: it rejects no reciprocal class, and when s[0] is
    r + 1 there is none to reject.  That one test decides most classes.
    """
    if s and (o := s[0]) != r and s.count(o) != s.count(o ^ 1):
        return _NOT_RECIPROCAL
    u2 = rev_neg(s, r) * 2
    t = u2.find(s)
    if t < 0:  # the other classes that are not reciprocal
        return _NOT_RECIPROCAL
    n = len(s)
    iota_t = gamma_t = False
    odd_n = n % 2 == 1
    while 0 <= t < n:  # u2[t : t + n] == s; offset n repeats offset 0
        c = (-t) % n
        if odd_n:
            pos = c if c % 2 == 1 else c + n
            assert s[(pos - 1) // 2] == r, "fixed gamma block must be g^r"
            iota_t = gamma_t = True
            break
        if c % 2 == 0:
            iota_t = True
        else:
            assert s[(c - 1) // 2] == r and s[((c - 1) // 2 + n // 2) % n] == r
            gamma_t = True
        if iota_t and gamma_t:
            break
        t = u2.find(s, t + 1)
    return _CATEGORIES[iota_t + 2 * gamma_t]
