"""Byte-encoded necklace layer: encoding, rotation, reflection categories."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_census.necklaces import (
    NONE,
    SYM,
    SYMP,
    BlockAlphabet,
    exponent_ordinal,
    reflection_category,
)
from hecke_census.words import make_params
from necklace_reference import is_minimal_rotation, minimal_rotation


P4 = make_params(4)
P6 = make_params(6)
A4 = BlockAlphabet.for_params(P4)
A6 = BlockAlphabet.for_params(P6)


def test_ordinal_round_trip():
    exponents = BlockAlphabet.for_p(15).exponents
    for k in (1, -1, 2, -2, 3, -3, 7, -7):
        assert exponents[exponent_ordinal(k)] == k


def test_ordinal_order_matches_syllable_order():
    # g^1 < g^-1 < g^2 < g^-2 < g^3
    assert [exponent_ordinal(k) for k in (1, -1, 2, -2, 3)] == [0, 1, 2, 3, 4]


def test_alphabet_exponents():
    assert A4.exponents == (1, -1, 2)
    assert A6.exponents == (1, -1, 2, -2, 3)
    assert A4.weights == (2, 2, 3)


def test_encode_decode_round_trip():
    blocks = (1, -2, 3, -1)
    assert A6.decode(A6.encode(blocks)) == blocks


def test_rev_neg_is_involution():
    for blocks in [(1,), (2,), (1, -1), (1, 2, -2), (3, 1, -1)]:
        s = A6.encode(blocks)
        assert A6.rev_neg(A6.rev_neg(s)) == s


def test_rev_neg_fixes_half_turn():
    # canonical(-r) = r, so g^r blocks are self-negative
    assert A4.rev_neg(A4.encode((2,))) == A4.encode((2,))
    assert A6.rev_neg(A6.encode((3,))) == A6.encode((3,))


def test_rev_neg_matches_word_inverse():
    from hecke_census.words import CyclicWord

    for blocks in [(1,), (1, 2), (2, 1, -1), (1, -2, 3)]:
        c = CyclicWord.from_blocks(P6, blocks)
        via_words = c.inverse_key().block_exponents
        via_bytes = A6.decode(minimal_rotation(A6.rev_neg(A6.encode(blocks))))
        assert via_bytes == via_words


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8))
def test_minimal_rotation_properties(ordinals):
    s = bytes(ordinals)
    m = minimal_rotation(s)
    assert is_minimal_rotation(m)
    assert sorted(m) == sorted(s)
    # m really is a rotation of s
    assert m in s + s


def test_reflection_category_examples():
    # i g^2 (p=4): one block, so its one reversal fixes an i and a g^2
    assert reflection_category(A4, A4.encode((2,))) == SYMP
    # i g i g^-1: symmetric, the reversal fixes two i syllables
    assert reflection_category(A4, A4.encode((1, -1))) == SYM
    # i g: not reciprocal
    assert reflection_category(A4, A4.encode((1,))) == NONE


def test_reflection_category_of_power():
    # every rotation of (i g^2)^3 is a reversal; odd block count
    assert reflection_category(A4, A4.encode((2, 2, 2))) == SYMP
