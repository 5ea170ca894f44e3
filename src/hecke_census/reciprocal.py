"""Reciprocity analysis of conjugacy classes.

A class ``[g]`` is reciprocal when ``g`` is conjugate to ``g^-1``.  The
classes here are of infinite order, each keyed by the bytes of its blocks
(``CyclicWord.code``), and reciprocity is a rotation condition on them:
the reversed, negated bytes must be a rotation of the original.  Each
valid reversal acts on the syllable cycle as a reflection fixing two
antipodal syllables, and the fixed syllables (``i`` or ``g^r``) name the
two possible conjugacy families of involutions that invert ``g``.

Two independent classification routes are provided: the reflection
fixed-point method (primary, ``necklaces.reflection_category``) and an
explicit involution search in the reciprocator coset (oracle).  They must
agree on every class: ``classify`` with witnesses runs both, whatever the
first one says.  A verdict (``ReciprocalInfo``) stores three fields and
derives the rest from them.  ``normal_form_generate`` buckets the
reciprocal classes as ``census._scan`` does, from the Lemma 3.2 shapes.
"""

from __future__ import annotations

from typing import NamedTuple

from .necklaces import Category, reflection_category, rev_neg
from .words import WEIGHTS, CyclicWord, DomainError, GroupParams, InvolutionType, Word, encode


class ConsistencyError(RuntimeError):
    """An internal guarantee failed; indicates an implementation bug."""


# the involution families that invert a class, indexed by its Category
_TYPES = (
    frozenset(),
    frozenset({InvolutionType.IOTA_TYPE}),
    frozenset({InvolutionType.TILDE_GAMMA_TYPE}),
    frozenset({InvolutionType.IOTA_TYPE, InvolutionType.TILDE_GAMMA_TYPE}),
)


class ReciprocalInfo(NamedTuple):
    """``power_exponent`` is m when the class is ``(i g^r)^m``, else None."""

    category: Category
    power_exponent: int | None = None
    witnesses: tuple[Word, ...] = ()

    @property
    def is_reciprocal(self) -> bool:
        return self.category is not Category.NOT_RECIPROCAL

    @property
    def is_power_of_iota_tilde_gamma(self) -> bool:
        return self.power_exponent is not None

    @property
    def reciprocator_types(self) -> frozenset[InvolutionType]:
        return _TYPES[self.category]


# the verdict without witnesses of each Category, for classes not a power of i g^r
_VERDICTS = tuple(map(ReciprocalInfo, Category))


def classify(c: CyclicWord, with_witnesses: bool = True) -> ReciprocalInfo:
    """Full reciprocity verdict for an infinite-order class.

    With witnesses, ``witnesses`` is the search's answer for every class,
    empty when it finds the class not reciprocal, so it checks the
    category rather than follows it.  The verdict is frozen and may be
    shared between classes: only a power of ``i g^r`` or a call with
    witnesses gets an instance of its own.  Without witnesses it reads
    only the class's byte code, so an enumerated key is never decoded.
    """
    params, s = c.params, c.code
    category = reflection_category(params.r_byte, s)
    info = _VERDICTS[category]
    # (i g^r)^m is symmetric_p, 3; never a power if r_code is empty
    if category == 3 and s == params.r_code * len(s):
        info = info._replace(power_exponent=len(s))
    if with_witnesses:
        info = info._replace(witnesses=tuple(reciprocator_witnesses(c)))
    return info


def reciprocator_witnesses(c: CyclicWord) -> list[Word]:
    """Involution witnesses ``h`` with ``h c h^-1 = c^-1``, one per family;
    ``[]`` when the class is not reciprocal.

    Independent of the reflection method: builds a conjugator ``h`` from a
    syllable rotation aligning ``c^-1`` with ``c`` and searches its coset
    ``h c0^k`` by the primitive root ``c0`` for involutions.  Only k = 0
    and k = 1 can find a new one.  ``h`` inverts ``c = c0^m``, so it
    inverts ``c0``, roots being unique in a free product.  Hence
    ``c0 (h c0^k) c0^-1 = h c0^(k-2)``: every later candidate is conjugate
    to one of the first two and is of the same family, or of none.
    """
    w = c.to_word()
    g_inv = w.inverse()
    syls = w.syllables
    for d in range(len(syls)):
        if syls[d:] + syls[:d] == g_inv.syllables:
            break
    else:
        return []

    root, _ = c.primitive_decomposition()
    h = Word(c.params, syls[:d]).inverse()
    witnesses: dict[InvolutionType, Word] = {}
    for cand in (h, h * root.to_word()):
        typ = cand.involution_type()
        if typ is not InvolutionType.NOT_INVOLUTION and typ not in witnesses:
            if (cand * w * cand.inverse()) == g_inv:
                witnesses[typ] = cand
    if not witnesses:
        raise ConsistencyError(
            f"no involution found in the reciprocator coset of {c}"
        )
    return [witnesses[t] for t in sorted(witnesses, key=lambda t: t.value)]


def normal_form_generate(params: GroupParams, max_len: int) -> list[list[bytes]]:
    """The reciprocal classes of word length <= max_len, bucketed like
    ``census._scan``: bucket L holds the least rotations of the Lemma 3.2
    normal forms of word length L, once each, in byte order.

    A form is ``before + ks + middle + rev_neg(ks)``, with ``ks`` a block
    word of half the weight its g^r blocks leave.  Three shapes give every
    form: ``ks rev_neg(ks)``, ``g^r ks rev_neg(ks)`` and
    ``g^r ks g^r rev_neg(ks)``.  The paper's fourth, ``ks g^r rev_neg(ks)``,
    is the second's rotation for the half-word ``rev_neg(ks)``; odd p has
    no g^r.  The half-words come from one table by weight, of the bytes
    within budget as in ``_scan``, so the cost does not depend on p.
    """
    if max_len < 2:
        raise DomainError("max_len must be >= 2")
    half = max_len // 2
    top = min(params.p - 1, 2 * half - 2)  # the bytes that weigh <= half
    if top > len(WEIGHTS):
        raise DomainError(f"g^k with |k| > 128 has no byte: p={params.p} needs max_len <= 259")
    shapes = [(b"", b"", 0)]  # before, middle and the word length of their g^r blocks
    if params.even and params.r < max_len:  # a g^r shape fits
        g = encode((params.r,))
        shapes += [(g, b"", params.r + 1), (g, g, 2 * params.r + 2)]
    halves = [[b""]]  # halves[w]: the byte words of weight w
    for w in range(1, half + 1):
        halves.append([bytes((o,)) + rest for o in range(top) if WEIGHTS[o] <= w
                       for rest in halves[w - WEIGHTS[o]]])
    buckets: list[set[bytes]] = [set() for _ in range(max_len + 1)]
    for before, middle, fixed in shapes:
        for w in range(0 if fixed else 1, (max_len - fixed) // 2 + 1):  # no empty form
            bucket = buckets[fixed + 2 * w]
            for ks in halves[w]:
                s = before + ks + middle + rev_neg(ks, params.r_byte)
                m = min(s)  # the least rotation starts at a least byte
                bucket.add(min([s[i:] + s[:i] for i, o in enumerate(s) if o == m]))
    return [sorted(bucket) for bucket in buckets]
