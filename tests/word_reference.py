"""Reference word helpers for the tests, written over the public API."""

from math import gcd
from typing import Iterator

from hecke_census.words import IOTA, GroupParams, Word


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
    key = word.class_key()
    if not key.is_torsion():
        return None
    if not key.torsion:
        return 1
    (syl,) = key.torsion
    if syl == IOTA:
        return 2
    p = word.params.p
    return p // gcd(syl % p, p)


def inverse_key(c):
    """Class key of the inverse class of the class key ``c``."""
    return c.to_word().inverse().class_key()
