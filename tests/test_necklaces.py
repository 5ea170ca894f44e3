"""Byte-encoded necklace layer: encoding, rotation, reflection categories."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import necklace_reference
from hecke_census.census import _scan
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
from word_reference import inverse_key


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
        via_words = inverse_key(c).block_exponents
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


@pytest.mark.parametrize("p", range(3, 13))
def test_reflection_category_matches_reference_on_every_necklace(p):
    params = make_params(p)
    alphabet = BlockAlphabet.for_params(params)
    necklaces = []
    _scan(params, 14, lambda length, s: necklaces.append(s))
    for s in necklaces:
        assert reflection_category(alphabet, s) == necklace_reference.reflection_category(
            alphabet, s
        ), s


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(3, 60),
    raw=st.lists(st.integers(0, 255), max_size=12),
    repeat=st.integers(1, 3),
)
@example(p=4, raw=[], repeat=1)
def test_reflection_category_matches_reference_on_random_bytes(p, raw, repeat):
    """Random strings, and reciprocal ones built from them: x + rev_neg(x),
    the same with g^r blocks between, and powers of each."""
    alphabet = BlockAlphabet.for_p(p)
    x = bytes(o % (p - 1) for o in raw)
    y = alphabet.rev_neg(x)
    candidates = [x, x + y]
    if alphabet.r_ord is not None:
        r = bytes([alphabet.r_ord])
        candidates += [x + r + y, r + x + r + y]
    for s in candidates:
        s *= repeat
        assert reflection_category(alphabet, s) == necklace_reference.reflection_category(
            alphabet, s
        ), s
