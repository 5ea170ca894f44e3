"""Exact word arithmetic in the free product Z_2 * Z_p.

The group is ``<i, g | i^2, g^p>``.  Elements are reduced alternating
sequences of syllables ``i`` and ``g^k`` with canonical exponents in the
integer interval ``(-p/2, p/2]``.  Conjugacy classes of infinite-order
elements are represented by rotation-canonical cyclic words.

Word length is the generator count of the reduced word: 1 per ``i`` and
``|k|`` per ``g^k``.  The norm on exponents is taken to be the absolute
value of the canonical representative; see README for the discussion of
this convention.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class DomainError(ValueError):
    """Raised when an operation is called outside its domain."""


class UnsupportedParameterError(DomainError):
    """Raised when an operation requires even p but p is odd."""


@dataclass(frozen=True)
class GroupParams:
    """Parameters of the group Z_2 * Z_p.

    ``r = p/2`` and the parity witness ``u`` (``r = 2u`` or ``r = 2u+1``)
    are defined only for even ``p``.
    """

    p: int
    r: int | None
    u: int | None

    def canonical_exponent(self, k: int) -> int:
        """Reduce ``k`` mod p into the canonical range ``(-p/2, p/2]``."""
        k %= self.p
        if 2 * k > self.p:
            k -= self.p
        return k

    @property
    def even(self) -> bool:
        return self.p % 2 == 0

    def require_even(self) -> int:
        if self.r is None:
            raise UnsupportedParameterError(
                f"operation requires even p, got p={self.p}"
            )
        return self.r

    def exponent_range(self) -> list[int]:
        """All nonzero canonical exponents, in the fixed syllable order."""
        out = []
        for a in range(1, self.p // 2 + 1):
            out.append(a)
            if self.canonical_exponent(-a) == -a:
                out.append(-a)
        return out


def make_params(p: int) -> GroupParams:
    if p < 3:
        raise DomainError(f"p must be >= 3, got {p}")
    if p % 2 == 0:
        r = p // 2
        u = r // 2
    else:
        r = None
        u = None
    return GroupParams(p=p, r=r, u=u)


IOTA = "i"
GAMMA = "g"


@dataclass(frozen=True)
class Syllable:
    """A single generator block: ``i`` or ``g^k`` with canonical k != 0."""

    kind: str
    exponent: int = 0

    @staticmethod
    def iota() -> "Syllable":
        return Syllable(IOTA, 0)

    @staticmethod
    def gamma(k: int) -> "Syllable":
        if k == 0:
            raise DomainError("gamma syllable exponent must be nonzero")
        return Syllable(GAMMA, k)

    @property
    def is_iota(self) -> bool:
        return self.kind == IOTA

    def weight(self) -> int:
        return 1 if self.is_iota else abs(self.exponent)

    def sort_key(self) -> tuple[int, int, int]:
        # fixed total order: i < g^1 < g^-1 < g^2 < g^-2 < ... < g^r
        if self.is_iota:
            return (0, 0, 0)
        return (1, abs(self.exponent), 0 if self.exponent > 0 else 1)

    def __str__(self) -> str:
        return "i" if self.is_iota else f"g^{self.exponent}"


class InvolutionType(enum.Enum):
    IOTA_TYPE = "iota"
    TILDE_GAMMA_TYPE = "tilde_gamma"
    NOT_INVOLUTION = "none"


def reduce_syllables(
    seq: Iterable[Syllable], params: GroupParams
) -> tuple[Syllable, ...]:
    """Fold a syllable sequence into the unique reduced form."""
    stack: list[Syllable] = []
    for syl in seq:
        if syl.is_iota:
            if stack and stack[-1].is_iota:
                stack.pop()
            else:
                stack.append(syl)
        else:
            k = params.canonical_exponent(syl.exponent)
            if k == 0:
                continue
            if stack and not stack[-1].is_iota:
                k = params.canonical_exponent(stack.pop().exponent + k)
                if k != 0:
                    stack.append(Syllable.gamma(k))
            else:
                stack.append(Syllable.gamma(k))
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A reduced word; the empty sequence is the identity."""

    params: GroupParams
    syllables: tuple[Syllable, ...] = ()

    @staticmethod
    def identity(params: GroupParams) -> "Word":
        return Word(params, ())

    @staticmethod
    def from_syllables(params: GroupParams, seq: Iterable[Syllable]) -> "Word":
        return Word(params, reduce_syllables(seq, params))

    @staticmethod
    def parse(params: GroupParams, text: str) -> "Word":
        """Parse the plain-text syntax: ``i``, ``g^k``, ``g``, ``1``."""
        tokens = text.replace("*", " ").split()
        syls: list[Syllable] = []
        for tok in tokens:
            if tok == "1":
                continue
            if tok == "i":
                syls.append(Syllable.iota())
            elif tok == "g":
                syls.append(Syllable.gamma(1))
            elif tok.startswith("g^"):
                syls.append(Syllable.gamma(int(tok[2:])))
            else:
                raise DomainError(f"unrecognized token {tok!r}")
        return Word.from_syllables(params, syls)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(str(s) for s in self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def length(self) -> int:
        return sum(s.weight() for s in self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        if other.params.p != self.params.p:
            raise DomainError("cannot multiply words over different groups")
        return Word.from_syllables(self.params, self.syllables + other.syllables)

    def inverse(self) -> "Word":
        syls = tuple(
            s if s.is_iota else Syllable.gamma(self.params.canonical_exponent(-s.exponent))
            for s in reversed(self.syllables)
        )
        return Word(self.params, syls)

    def conjugate_by(self, h: "Word") -> "Word":
        return h * self * h.inverse()

    def cyclic_reduce(self) -> tuple["CyclicWord", "Word"]:
        """Return ``(c, h)`` with ``self = h * c * h^-1`` and c cyclically reduced."""
        syls = list(self.syllables)
        h: list[Syllable] = []
        while len(syls) >= 2 and syls[0].kind == syls[-1].kind:
            first = syls[0]
            h.append(first)
            syls = list(reduce_syllables(syls[1:] + [first], self.params))
        conjugator = Word.from_syllables(self.params, h)
        c = CyclicWord._from_reduced(self.params, tuple(syls))
        # canonicalization rotated the cycle; fold that rotation into h
        if len(syls) >= 2 and tuple(syls) != c.syllables:
            m = len(syls)
            for d in range(1, m):
                if tuple(syls[d:] + syls[:d]) == c.syllables:
                    conjugator = conjugator * Word.from_syllables(self.params, syls[:d])
                    break
            else:
                raise AssertionError("canonical form is not a rotation")
        return c, conjugator

    def class_key(self) -> "CyclicWord":
        return self.cyclic_reduce()[0]

    def involution_type(self) -> InvolutionType:
        c = self.class_key()
        syls = c.syllables
        if len(syls) != 1:
            return InvolutionType.NOT_INVOLUTION
        s = syls[0]
        if s.is_iota:
            return InvolutionType.IOTA_TYPE
        if self.params.even and s.exponent == self.params.r:
            return InvolutionType.TILDE_GAMMA_TYPE
        return InvolutionType.NOT_INVOLUTION

    def order(self) -> int | None:
        """Element order; ``None`` means infinite."""
        syls = self.class_key().syllables
        if not syls:
            return 1
        if len(syls) > 1:
            return None
        s = syls[0]
        if s.is_iota:
            return 2
        return self.p_order(s.exponent)

    def p_order(self, k: int) -> int:
        return self.params.p // math.gcd(k % self.params.p, self.params.p)


@dataclass(frozen=True, eq=False)
class CyclicWord:
    """Rotation-canonical cyclically reduced word: a conjugacy-class key.

    For syllable count >= 2 the word alternates ``i g^k1 i g^k2 ...`` and
    ``block_exponents`` holds ``(k1, ..., kn)`` for the canonical rotation.
    """

    params: GroupParams
    syllables: tuple[Syllable, ...]
    block_exponents: tuple[int, ...] | None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return self.params.p == other.params.p and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash((self.params.p, self.syllables))

    @staticmethod
    def _from_reduced(params: GroupParams, syls: tuple[Syllable, ...]) -> "CyclicWord":
        if len(syls) <= 1:
            return CyclicWord(params, syls, None)
        if syls[0].kind == syls[-1].kind:
            raise DomainError("sequence is not cyclically reduced")
        if not syls[0].is_iota:
            syls = syls[1:] + syls[:1]
        blocks = tuple(s.exponent for s in syls if not s.is_iota)
        return CyclicWord.from_blocks(params, blocks)

    @staticmethod
    def from_blocks(params: GroupParams, blocks: Sequence[int]) -> "CyclicWord":
        """Build the class key of ``i g^k1 i g^k2 ... i g^kn``."""
        blocks = tuple(params.canonical_exponent(k) for k in blocks)
        if not blocks or any(k == 0 for k in blocks):
            raise DomainError("block exponents must be nonzero")
        n = len(blocks)
        keyed = [(abs(k), 0 if k > 0 else 1) for k in blocks]
        best = min(range(n), key=lambda i: keyed[i:] + keyed[:i])
        blocks = blocks[best:] + blocks[:best]
        syls = []
        for k in blocks:
            syls.append(Syllable.iota())
            syls.append(Syllable.gamma(k))
        return CyclicWord(params, tuple(syls), blocks)

    def word_length(self) -> int:
        return sum(s.weight() for s in self.syllables)

    @property
    def n_blocks(self) -> int | None:
        return None if self.block_exponents is None else len(self.block_exponents)

    def to_word(self) -> Word:
        return Word(self.params, self.syllables)

    def inverse_key(self) -> "CyclicWord":
        return self.to_word().inverse().class_key()

    def is_torsion(self) -> bool:
        return len(self.syllables) <= 1

    def primitive_decomposition(self) -> tuple["CyclicWord", int]:
        """Minimal-period root ``c0`` and ``m`` with ``self = c0^m``."""
        blocks = self.block_exponents
        if blocks is None:
            raise DomainError("primitive decomposition undefined for torsion classes")
        n = len(blocks)
        for d in range(1, n + 1):
            if n % d == 0 and blocks == blocks[d:] + blocks[:d]:
                return CyclicWord.from_blocks(self.params, blocks[:d]), n // d
        raise AssertionError("unreachable: period n always works")

    def __str__(self) -> str:
        return str(self.to_word())


def all_reduced_words(params: GroupParams, length: int) -> Iterator[Word]:
    """Every reduced word of exactly the given length (reference enumerator)."""

    def extend(syls: list[Syllable], used: int) -> Iterator[Word]:
        if used == length:
            yield Word(params, tuple(syls))
            return
        last_kind = syls[-1].kind if syls else None
        if last_kind != IOTA and used + 1 <= length:
            syls.append(Syllable.iota())
            yield from extend(syls, used + 1)
            syls.pop()
        if last_kind != GAMMA:
            for k in params.exponent_range():
                if used + abs(k) <= length:
                    syls.append(Syllable.gamma(k))
                    yield from extend(syls, used + abs(k))
                    syls.pop()

    yield from extend([], 0)
