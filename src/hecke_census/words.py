"""Exact word arithmetic in the free product Z_2 * Z_p.

The group is ``<i, g | i^2, g^p>``.  Elements are reduced alternating
sequences of syllables ``i`` and ``g^k`` with canonical exponents in the
integer interval ``(-p/2, p/2]``.  A conjugacy class of infinite-order
elements is keyed by a ``CyclicWord``: the bytes of its blocks in their
least rotation.

Word length is the generator count of the reduced word: 1 per ``i`` and
``|k|`` per ``g^k``.  The norm on exponents is taken to be the absolute
value of the canonical representative; see README for the discussion of
this convention.

The syllable order ``g^1 < g^-1 < g^2 < g^-2 < ...`` is defined here
(``exponent_ordinal``), and with it the block alphabet: a block's byte is
its position in that order (``encode``, ``decode``, with the tables
``EXPONENTS`` and ``WEIGHTS``).  The order does not depend on p, so one
alphabet serves every Z_p: byte o names the same exponent wherever that
exponent is canonical, Z_p uses exactly the bytes 0..p-2, and a byte
holds any |k| <= 128.  Byte order is class-key order, and block weights do
not decrease with the byte, which lets the enumeration oracle stop at the
weight budget.  ``GroupParams.exponent_range`` lists the exponents in this
order, and ``GroupParams.block_weights`` counts them by block weight
``1 + |k|``: the block law that the census series, the class-count
recurrence and its characteristic polynomial read.

A syllable is an int: ``IOTA = 0`` is ``i`` and a nonzero k is ``g^k``
(a canonical exponent is never 0).  Two syllables of the same kind meet
as their sum: ``i i`` gives 0 and cancels like ``g^a g^-a``.

Products and the cyclic core that ``involution_type`` reads assume
reduced operands and cost time linear in their length: a product only
cancels or merges where its two factors meet, and the core is found by
peeling matching syllables off both ends at once.
"""

from __future__ import annotations

import enum
from functools import cached_property


class DomainError(ValueError):
    """Raised when an operation is called outside its domain."""


class UnsupportedParameterError(DomainError):
    """Raised when an operation requires even p but p is odd."""


class _Frozen:
    """Fields named in ``_fields``, which ``__repr__`` prints, and set once:
    by ``__init__``, or on first read for a ``cached_property``.  The
    instance dict also holds what ``__init__`` stores besides the fields
    and the values that ``cached_property`` computes.  Each subclass defines
    ``__eq__`` and ``__hash__`` on its field tuple itself, because a loop
    over ``_fields`` would slow the sets of class keys."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class GroupParams(_Frozen):
    """Parameters of the group Z_2 * Z_p, for p >= 3 (a smaller p is a
    ``DomainError``).

    ``r = p/2`` and the parity witness ``u`` (``r = 2u`` or ``r = 2u+1``)
    are defined only for even ``p``; for odd ``p`` both are None.
    """

    _fields = ("p",)
    p: int

    def __init__(self, p: int) -> None:
        object.__setattr__(self, "p", p)
        if p < 3:
            raise DomainError(f"p must be >= 3, got {p}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.p,) == (other.p,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p,))

    @property
    def even(self) -> bool:
        return self.p % 2 == 0

    @cached_property
    def r(self) -> int | None:
        return self.p // 2 if self.even else None

    @cached_property
    def u(self) -> int | None:
        return self.p // 4 if self.even else None

    @cached_property
    def r_byte(self) -> int | None:
        """Byte of g^r (its ``exponent_ordinal``), the one block that is its
        own negative; None for odd p.  From p = 258 on it exceeds 255, so it
        is in no byte string."""
        return exponent_ordinal(self.r) if self.even else None

    @cached_property
    def r_code(self) -> bytes:
        """The byte code of the block g^r, so that ``(i g^r)^m`` has the code
        ``r_code * m``; empty when g^r has no byte: for odd p, which has no
        g^r, and from p = 258 on, where ``r_byte`` exceeds 255."""
        return bytes((self.r_byte,)) if self.even and self.r_byte < 256 else b""

    def canonical_exponent(self, k: int) -> int:
        """Reduce ``k`` mod p into the canonical range ``(-p/2, p/2]``."""
        k %= self.p
        if 2 * k > self.p:
            k -= self.p
        return k

    def require_even(self) -> int:
        if self.r is None:
            raise UnsupportedParameterError(
                f"operation requires even p, got p={self.p}"
            )
        return self.r

    def exponent_range(self, max_abs: int) -> list[int]:
        """The nonzero canonical exponents with ``|k| <= max_abs``, in the
        syllable order; the bound keeps the cost independent of p."""
        top = min(self.p // 2, max_abs)
        exps = [k for a in range(1, top + 1) for k in (a, -a)]
        return exps[:-1] if 2 * top == self.p else exps  # -p/2 is not canonical

    def block_weights(self, max_weight: int) -> dict[int, int]:
        """The block law: ``{1 + |k|: number of such k}`` over the exponents
        of ``exponent_range``, for weights up to ``max_weight``.  These are
        the coefficients of ``B(x) = sum_k x^(1+|k|)``: 2 for each weight,
        from k and -k, but 1 for the weight ``1 + p/2`` of even p."""
        top = min(self.p // 2, max_weight - 1)
        weights = dict.fromkeys(range(2, top + 2), 2)
        if 2 * top == self.p:
            weights[top + 1] = 1  # -p/2 is not canonical
        return weights


def make_params(p: int) -> GroupParams:
    """``GroupParams(p)``, which rejects p < 3 itself."""
    return GroupParams(p)


def exponent_ordinal(k: int) -> int:
    """Position of g^k in the syllable order g^1 < g^-1 < g^2 < g^-2 < ...,
    0-based; ``exponent_range`` lists the exponents in this order."""
    return 2 * k - 2 if k > 0 else -2 * k - 1


EXPONENTS = tuple(k for a in range(1, 129) for k in (a, -a))  # EXPONENTS[o] has byte o
WEIGHTS = tuple(1 + abs(k) for k in EXPONENTS)                # 1 + |k|, aligned with EXPONENTS


def encode(blocks: tuple[int, ...]) -> bytes:
    for k in blocks:
        if not 0 < abs(k) <= 128:
            raise DomainError(f"block g^{k} has no byte: blocks need |k| <= 128")
    return bytes([exponent_ordinal(k) for k in blocks])


def decode(s: bytes) -> tuple[int, ...]:
    return tuple([EXPONENTS[o] for o in s])


IOTA = 0  # the syllable i; a nonzero int k is the syllable g^k


class InvolutionType(enum.Enum):
    IOTA_TYPE = "iota"
    TILDE_GAMMA_TYPE = "tilde_gamma"
    NOT_INVOLUTION = "none"


class Word(_Frozen):
    """A reduced word; the empty sequence is the identity.

    ``syllables`` must already be reduced (alternating, canonical nonzero
    exponents): products and the cyclic core rely on it.  The library
    builds words only from class keys, their products and inverses.
    """

    _fields = ("params", "syllables")
    params: GroupParams
    syllables: tuple[int, ...]

    def __init__(self, params: GroupParams, syllables: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "syllables", syllables)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.params, self.syllables) == (other.params, other.syllables)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.params, self.syllables))

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join("i" if s == IOTA else f"g^{s}" for s in self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        if other.params.p != self.params.p:
            raise DomainError("cannot multiply words over different groups")
        # both factors are reduced, so only the seam can cancel or merge
        left, right = self.syllables, other.syllables
        i, j, n = len(left), 0, len(right)
        while i and j < n and (left[i - 1] == IOTA) == (right[j] == IOTA):
            k = left[i - 1] + right[j]  # i i and g^a g^-a sum to 0
            if k and (k := self.params.canonical_exponent(k)):
                return Word(self.params, left[: i - 1] + (k,) + right[j + 1 :])
            i -= 1
            j += 1
        return Word(self.params, left[:i] + right[j:])

    def inverse(self) -> "Word":
        canonical = self.params.canonical_exponent
        syls = tuple(canonical(-s) if s != IOTA else IOTA for s in reversed(self.syllables))
        return Word(self.params, syls)

    def _cyclic_core(self) -> tuple[list[int], int]:
        """The cyclically reduced core and the number of syllables peeled.

        ``self = h * core * h^-1`` with ``h`` the first ``peeled`` syllables.
        Each step moves the first syllable to the end: a pair of ``i`` ends
        cancels, a pair ``g^a ... g^b`` merges into ``g^(a+b)`` at the end.
        """
        syls = list(self.syllables)
        start = 0
        while len(syls) - start >= 2 and (syls[start] == IOTA) == (syls[-1] == IOTA):
            k = syls.pop() + syls[start]  # i i and g^a g^-a sum to 0
            start += 1
            if k and (k := self.params.canonical_exponent(k)):
                syls.append(k)
        return syls[start:], start

    def involution_type(self) -> InvolutionType:
        syls = self._cyclic_core()[0]
        if len(syls) != 1:
            return InvolutionType.NOT_INVOLUTION
        if syls[0] == IOTA:
            return InvolutionType.IOTA_TYPE
        if syls[0] == self.params.r:  # r is None for odd p
            return InvolutionType.TILDE_GAMMA_TYPE
        return InvolutionType.NOT_INVOLUTION




class CyclicWord(_Frozen):
    """Rotation-canonical cyclically reduced word: the key of an
    infinite-order conjugacy class.

    A key stores its ``params`` and its byte ``code``: the bytes (``encode``)
    of the blocks ``(k1, ..., kn)`` of ``i g^k1 ... i g^kn``, in the least
    rotation, which is the classifier's input.  ``block_exponents``
    is decoded from ``code`` on first read, so a key that is only
    classified is never decoded.  ``repr``, equality and hashing read
    ``(params, block_exponents)``: a tuple of ints hashes alike in every
    process, bytes do not, so set orders do not depend on
    ``PYTHONHASHSEED``.  ``syllables`` and the word length are derived.
    """

    _fields = ("params", "block_exponents")
    params: GroupParams
    code: bytes

    def __init__(self, params: GroupParams, code: bytes) -> None:
        """``code`` must be a least rotation; the constructor does not rotate it."""
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "code", code)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.params, self.block_exponents) == (other.params, other.block_exponents)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.params, self.block_exponents))

    @cached_property
    def block_exponents(self) -> tuple[int, ...]:
        return decode(self.code)

    @property
    def syllables(self) -> tuple[int, ...]:
        return tuple(s for k in self.block_exponents for s in (IOTA, k))

    @cached_property
    def _length(self) -> int:
        """The word length.  The enumeration oracle fills it with the length
        of the bucket it generated the class in; any other key sums the
        weights of its bytes on first use."""
        return sum([WEIGHTS[o] for o in self.code])

    def word_length(self) -> int:
        return self._length

    def to_word(self) -> Word:
        return Word(self.params, self.syllables)

    def primitive_decomposition(self) -> tuple["CyclicWord", int]:
        """Minimal-period root ``c0`` and ``m`` with ``self = c0^m``.  A period
        of a least rotation is its own least rotation, so it keys the root."""
        s = self.code
        n = len(s)
        for d in range(1, n + 1):
            if n % d == 0 and s == s[d:] + s[:d]:
                return CyclicWord(self.params, s[:d]), n // d
        raise AssertionError("unreachable: period n always works")

    def __str__(self) -> str:
        return str(self.to_word())
