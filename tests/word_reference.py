"""Reference word helpers for the tests, written over the public API and
``Word._cyclic_core``, which ``test_words`` holds to a quadratic reference.

The library builds words only from class keys; these helpers parse and
reduce arbitrary syllables, cyclically reduce a word and key a block
tuple, and ``coset_witnesses`` walks the witness search's whole coset.
Torsion lives only here: a class key is of infinite order, and
``element_order`` reads the core that ``cyclic_reduce`` returns.
"""

from math import gcd
from typing import Iterable, Iterator

from hecke_census.words import IOTA, CyclicWord, DomainError, GroupParams, InvolutionType, Word, encode


def reduce(params: GroupParams, seq: Iterable[int]) -> Word:
    """The reduced word of a syllable sequence."""
    stack: list[int] = []
    for s in seq:
        if s == IOTA:
            if stack and stack[-1] == IOTA:
                stack.pop()
            else:
                stack.append(IOTA)
        elif k := params.canonical_exponent(s):
            if stack and stack[-1] != IOTA:
                k = params.canonical_exponent(stack.pop() + k)
            if k:
                stack.append(k)
    return Word(params, tuple(stack))


def parse(params: GroupParams, text: str) -> Word:
    """Parse the plain-text syntax: ``i``, ``g^k`` (k != 0), ``g``, ``1``."""
    syls: list[int] = []
    for tok in text.replace("*", " ").split():
        if tok == "1":
            continue
        if tok == "i":
            syls.append(IOTA)
        elif tok == "g":
            syls.append(1)
        else:
            try:
                k = int(tok[2:]) if tok.startswith("g^") else 0
            except ValueError:  # g^x, g^ and g^1.5
                k = 0
            if not k:
                raise DomainError(f"unrecognized token {tok!r}")
            syls.append(k)
    return reduce(params, syls)


def length(word: Word) -> int:
    return sum(abs(s) or 1 for s in word.syllables)  # i weighs 1


def key(params: GroupParams, blocks: Iterable[int]) -> CyclicWord:
    """The class key of ``i g^k1 i g^k2 ... i g^kn``: the least rotation of
    the bytes of the canonical blocks."""
    s = encode(tuple(map(params.canonical_exponent, blocks)))  # g^0 has no byte
    if not s:
        raise DomainError("a class key needs at least one block")
    return CyclicWord(params, min(s[i:] + s[:i] for i in range(len(s))))


def cyclic_reduce(word: Word) -> tuple[tuple[int, ...], Word]:
    """``(core, h)`` with ``word = h * core * h^-1`` and the syllables
    ``core`` cyclically reduced.  A core of two or more syllables starts at
    an ``i`` and at the least rotation of its blocks, so that it is the
    syllables of its class key; a shorter one is the identity or a
    syllable, a torsion class."""
    params = word.params
    syls, peeled = word._cyclic_core()
    h = Word(params, word.syllables[:peeled])
    if len(syls) > 1:
        shift = int(syls[0] != IOTA)  # start the cycle at an i
        blocks = tuple((syls[shift:] + syls[:shift])[1::2])
        least = key(params, blocks).block_exponents
        rotate = shift + 2 * next(d for d in range(len(blocks)) if blocks[d:] + blocks[:d] == least)
        h = h * Word(params, tuple(syls[:rotate]))
        syls = syls[rotate:] + syls[:rotate]
    return tuple(syls), h


def class_key(word: Word) -> CyclicWord:
    """The class key of a word of infinite order."""
    core, _ = cyclic_reduce(word)
    return key(word.params, core[1::2])


def all_reduced_words(params: GroupParams, length: int) -> Iterator[Word]:
    """Every reduced word of exactly the given length."""

    def extend(syls: list[int], used: int) -> Iterator[Word]:
        if used == length:
            yield Word(params, tuple(syls))
            return
        last = syls[-1] if syls else None
        if (last is None or last != IOTA) and used + 1 <= length:
            syls.append(IOTA)
            yield from extend(syls, used + 1)
            syls.pop()
        if last is None or last == IOTA:
            for k in params.exponent_range(params.p):
                if used + abs(k) <= length:
                    syls.append(k)
                    yield from extend(syls, used + abs(k))
                    syls.pop()

    yield from extend([], 0)


def element_order(word: Word) -> int | None:
    """Order of the element; ``None`` means infinite.  A conjugate of a
    syllable has that syllable's order."""
    core, _ = cyclic_reduce(word)
    if len(core) > 1:
        return None
    if not core:
        return 1
    if core[0] == IOTA:
        return 2
    p = word.params.p
    return p // gcd(core[0] % p, p)


def inverse_key(c: CyclicWord) -> CyclicWord:
    """Class key of the inverse class of the class key ``c``."""
    return class_key(c.to_word().inverse())


def coset_witnesses(c: CyclicWord) -> list[Word]:
    """``reciprocal.reciprocator_witnesses`` over 2n + 1 candidates of the
    coset ``h c0^k``, n the block count of ``c``, where the library tries
    k = 0 and k = 1: the first involution of each family, and its check."""
    w = c.to_word()
    g_inv = w.inverse()
    syls = w.syllables
    for d in range(len(syls)):
        if syls[d:] + syls[:d] == g_inv.syllables:
            break
    else:
        return []
    c0 = c.primitive_decomposition()[0].to_word()
    witnesses: dict[InvolutionType, Word] = {}
    cand = Word(c.params, syls[:d]).inverse()
    for _ in range(2 * len(c.code) + 1):
        typ = cand.involution_type()
        if typ is not InvolutionType.NOT_INVOLUTION and typ not in witnesses:
            if (cand * w * cand.inverse()) == g_inv:
                witnesses[typ] = cand
        cand = cand * c0
    return [witnesses[t] for t in sorted(witnesses, key=lambda t: t.value)]
