"""Reciprocity analysis of conjugacy classes.

A class ``[g]`` is reciprocal when ``g`` is conjugate to ``g^-1``.  For
infinite-order classes this is a rotation condition on the block tuple:
the reversed, negated tuple must be a rotation of the original.  Each
valid reversal acts on the syllable cycle as a reflection fixing two
antipodal syllables, and the fixed syllables (``i`` or ``g^r``) name the
two possible conjugacy families of involutions that invert ``g``.

Two independent classification routes are provided: the reflection
fixed-point method (primary, ``necklaces.reflection_category``) and an
explicit involution search in the reciprocator coset (oracle).  They must
always agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .necklaces import NONE, encode, r_byte, reflection_category
from .words import CyclicWord, DomainError, GroupParams, InvolutionType, Word


class Category(enum.Enum):
    NOT_RECIPROCAL = "not_reciprocal"
    SYMMETRIC = "symmetric"
    P_RECIPROCAL = "p_reciprocal"
    SYMMETRIC_P_RECIPROCAL = "symmetric_p_reciprocal"


class ConsistencyError(RuntimeError):
    """An internal guarantee failed; indicates an implementation bug."""


@dataclass(frozen=True)
class ReciprocalInfo:
    is_reciprocal: bool
    category: Category
    is_power_of_iota_tilde_gamma: bool
    power_exponent: int | None
    reciprocator_types: frozenset[InvolutionType]
    witnesses: tuple[Word, ...] = ()


_IOTA, _TILDE = InvolutionType.IOTA_TYPE, InvolutionType.TILDE_GAMMA_TYPE

# the verdict, without witnesses, of every class that is not a power of
# i g^r; indexed by necklaces.reflection_category: NONE, SYM, PREC, SYMP
_VERDICTS = tuple(
    ReciprocalInfo(category is not Category.NOT_RECIPROCAL, category, False, None, types)
    for category, types in (
        (Category.NOT_RECIPROCAL, frozenset()),
        (Category.SYMMETRIC, frozenset({_IOTA})),
        (Category.P_RECIPROCAL, frozenset({_TILDE})),
        (Category.SYMMETRIC_P_RECIPROCAL, frozenset({_IOTA, _TILDE})),
    )
)


def _require_blocks(c: CyclicWord) -> tuple[int, ...]:
    if c.block_exponents is None:
        raise DomainError("reciprocity analysis is defined for infinite-order classes only")
    return c.block_exponents


def _reflection_category(c: CyclicWord) -> int:
    return reflection_category(r_byte(c.params), encode(_require_blocks(c)))


def is_reciprocal(c: CyclicWord) -> bool:
    return _reflection_category(c) != NONE


def classify(c: CyclicWord, with_witnesses: bool = True) -> ReciprocalInfo:
    """Full reciprocity verdict for an infinite-order class.

    The verdict is frozen and may be shared between classes: only a power
    of ``i g^r`` or a call with witnesses gets an instance of its own.
    """
    info = _VERDICTS[_reflection_category(c)]
    blocks = c.block_exponents
    if blocks.count(c.params.r) == len(blocks):  # r is None for odd p
        info = replace(info, is_power_of_iota_tilde_gamma=True, power_exponent=len(blocks))
    if with_witnesses and info.is_reciprocal:
        info = replace(info, witnesses=tuple(reciprocator_witnesses(c)))
    return info


def reciprocator_witnesses(c: CyclicWord) -> list[Word]:
    """Involution witnesses ``h`` with ``h c h^-1 = c^-1``, one per family.

    Independent of the reflection method: builds a conjugator from a
    syllable rotation aligning ``c^-1`` with ``c`` and searches its coset
    by the primitive root for involutions.
    """
    blocks = _require_blocks(c)
    w = c.to_word()
    syls = w.syllables
    inv_syls = w.inverse().syllables
    m = len(syls)
    h0: Word | None = None
    for d in range(m):
        if syls[d:] + syls[:d] == inv_syls:
            h0 = Word(c.params, syls[:d]).inverse()
            break
    if h0 is None:
        raise DomainError("class is not reciprocal")

    root, _ = c.primitive_decomposition()
    c0 = root.to_word()
    witnesses: dict[InvolutionType, Word] = {}
    g_inv = w.inverse()
    cand = h0
    for _ in range(2 * len(blocks) + 1):
        typ = cand.involution_type()
        if typ is not InvolutionType.NOT_INVOLUTION and typ not in witnesses:
            if (cand * w * cand.inverse()) == g_inv:
                witnesses[typ] = cand
        cand = cand * c0
    if not witnesses:
        raise ConsistencyError(
            f"no involution found in the reciprocator coset of {c}"
        )
    return [witnesses[t] for t in sorted(witnesses, key=lambda t: t.value)]


def _signed_tuples(total: int, n: int, params: GroupParams):
    """All tuples of n nonzero canonical exponents with |k| summing to total."""
    # the exponents that can fit, in syllable order, so |k| never decreases
    exps = [k for a in range(1, total + 1) for k in (a, -a) if params.canonical_exponent(k) == k]

    def rec(remaining: int, left: int, prefix: list[int]):
        if left == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        for k in exps:
            if abs(k) > remaining - (left - 1):
                break
            prefix.append(k)
            yield from rec(remaining - abs(k), left - 1, prefix)
            prefix.pop()

    yield from rec(total, n, [])


def normal_form_generate(params: GroupParams, length: int) -> set[CyclicWord]:
    """Class keys of all reciprocal normal-form words of the given length.

    Patterns: plain palindrome, g^r-bracketed palindrome, single-g^r
    mixed forms, and powers of ``i g^r``.  Deduplicated by class key;
    every emitted class is reciprocal by construction.
    """
    r = params.require_even()
    if length < 2:
        raise DomainError("length must be >= 2")
    out: set[CyclicWord] = set()

    def neg_rev(ks: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(params.canonical_exponent(-k) for k in reversed(ks))

    # powers (i g^r)^m
    if length % (r + 1) == 0:
        mth = length // (r + 1)
        out.add(CyclicWord.from_blocks(params, (r,) * mth))

    # plain palindrome: i g^k1 ... i g^kn i g^-kn ... i g^-k1
    if length % 2 == 0:
        half = length // 2
        for n in range(1, half + 1):
            for ks in _signed_tuples(half - n, n, params):
                out.add(CyclicWord.from_blocks(params, ks + neg_rev(ks)))

    # bracketed palindrome: i g^r (palindrome halves) with two g^r blocks
    rem = length - 2 * (r + 1)
    if rem >= 0 and rem % 2 == 0:
        for n in range(1, rem // 2 + 1):
            for ks in _signed_tuples(rem // 2 - n, n, params):
                out.add(CyclicWord.from_blocks(params, (r,) + ks + (r,) + neg_rev(ks)))

    # single g^r, palindrome on either side
    rem = length - (r + 1)
    if rem >= 2 and rem % 2 == 0:
        for n in range(1, rem // 2 + 1):
            for ks in _signed_tuples(rem // 2 - n, n, params):
                out.add(CyclicWord.from_blocks(params, (r,) + ks + neg_rev(ks)))
                out.add(CyclicWord.from_blocks(params, ks + (r,) + neg_rev(ks)))

    return out
