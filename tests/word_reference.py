"""Reference word helpers for the tests, written over the public API."""

from math import gcd
from typing import Iterator

from hecke_census.words import GroupParams, Syllable, Word


def all_reduced_words(params: GroupParams, length: int) -> Iterator[Word]:
    """Every reduced word of exactly the given length."""

    def extend(syls: list[Syllable], used: int) -> Iterator[Word]:
        if used == length:
            yield Word(params, tuple(syls))
            return
        last = syls[-1] if syls else None
        if (last is None or not last.is_iota) and used + 1 <= length:
            syls.append(Syllable.iota())
            yield from extend(syls, used + 1)
            syls.pop()
        if last is None or last.is_iota:
            for k in params.exponent_range():
                if used + abs(k) <= length:
                    syls.append(Syllable.gamma(k))
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
    if syl.is_iota:
        return 2
    p = word.params.p
    return p // gcd(syl.exponent % p, p)


def inverse_key(c):
    """Class key of the inverse class of the class key ``c``."""
    return c.to_word().inverse().class_key()
