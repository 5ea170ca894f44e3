"""Byte-encoded necklace layer: encoding, rotation, reflection categories."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import necklace_reference
from hecke_census.census import _scan
from hecke_census.necklaces import Category, reflection_category, rev_neg
from hecke_census.reciprocal import normal_form_generate
from hecke_census.words import (
    EXPONENTS,
    WEIGHTS,
    DomainError,
    decode,
    encode,
    exponent_ordinal,
    make_params,
)
from necklace_reference import is_minimal_rotation, minimal_rotation
from word_reference import inverse_key, key


P4 = make_params(4)
P6 = make_params(6)
R4 = P4.r_byte
R6 = P6.r_byte


def test_ordinal_round_trip():
    for k in (1, -1, 2, -2, 3, -3, 7, -7):
        assert EXPONENTS[exponent_ordinal(k)] == k


def test_ordinal_order_matches_syllable_order():
    # g^1 < g^-1 < g^2 < g^-2 < g^3
    assert [exponent_ordinal(k) for k in (1, -1, 2, -2, 3)] == [0, 1, 2, 3, 4]


def test_alphabet_exponents():
    # Z_p uses exactly the bytes 0..p-2
    assert decode(bytes(range(P4.p - 1))) == (1, -1, 2) == tuple(P4.exponent_range(P4.p))
    assert decode(bytes(range(P6.p - 1))) == (1, -1, 2, -2, 3) == tuple(P6.exponent_range(P6.p))
    assert WEIGHTS[: P4.p - 1] == (2, 2, 3)


def test_encode_decode_round_trip():
    blocks = (1, -2, 3, -1)
    assert decode(encode(blocks)) == blocks
    every_byte = bytes(range(256))
    assert encode(decode(every_byte)) == every_byte
    assert set(decode(every_byte)) == {k for a in range(1, 129) for k in (a, -a)}


def test_blocks_beyond_one_byte_are_a_domain_error():
    for blocks in [(129,), (1, -129), (150, 1), (0,), (2, 0)]:
        with pytest.raises(DomainError, match=r"\|k\| <= 128"):
            encode(blocks)


def test_rev_neg_is_involution():
    for blocks in [(1,), (2,), (1, -1), (1, 2, -2), (3, 1, -1)]:
        s = encode(blocks)
        assert rev_neg(rev_neg(s, R6), R6) == s


def test_rev_neg_fixes_half_turn():
    # canonical(-r) = r, so g^r blocks are self-negative
    assert rev_neg(encode((2,)), R4) == encode((2,))
    assert rev_neg(encode((3,)), R6) == encode((3,))


def test_one_byte_table_for_every_group():
    """Z_p uses the bytes 0..p-2 in its syllable order (all 256 from p = 257
    on), and on them rev_neg is an involution that negates each exponent and
    fixes g^r alone, when g^r has a byte."""
    for p in [*range(3, 262), 300, 1000]:
        params = make_params(p)
        r = params.r_byte
        s = bytes(range(min(p - 1, 256)))
        assert decode(s) == tuple(params.exponent_range(params.p)[: len(s)])
        assert rev_neg(rev_neg(s, r), r) == s
        negated = tuple(params.canonical_exponent(-k) for k in decode(s)[::-1])
        assert decode(rev_neg(s, r)) == negated
        fixed = [o for o in s if rev_neg(bytes((o,)), r) == bytes((o,))]
        assert fixed == ([r] if params.even and p <= 256 else []), p


def test_rev_neg_matches_word_inverse():
    for blocks in [(1,), (1, 2), (2, 1, -1), (1, -2, 3)]:
        c = key(P6, blocks)
        via_words = inverse_key(c).block_exponents
        via_bytes = decode(minimal_rotation(rev_neg(encode(blocks), R6)))
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
    assert reflection_category(R4, encode((2,))) is Category.SYMMETRIC_P_RECIPROCAL
    # i g i g^-1: symmetric, the reversal fixes two i syllables
    assert reflection_category(R4, encode((1, -1))) is Category.SYMMETRIC
    # i g: not reciprocal
    assert reflection_category(R4, encode((1,))) is Category.NOT_RECIPROCAL


def test_reflection_category_of_power():
    # every rotation of (i g^2)^3 is a reversal; odd block count
    assert reflection_category(R4, encode((2, 2, 2))) is Category.SYMMETRIC_P_RECIPROCAL


@pytest.mark.parametrize("p", range(3, 13))
def test_reflection_category_matches_reference_on_every_necklace(p):
    params = make_params(p)
    r = params.r_byte
    necklaces = [s for bucket in _scan(params, 14) for s in bucket]
    for s in necklaces:
        assert reflection_category(r, s) == necklace_reference.reflection_category(r, s), s


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
    r_ord = make_params(p).r_byte
    x = bytes(o % (p - 1) for o in raw)
    y = rev_neg(x, r_ord)
    candidates = [x, x + y]
    if r_ord is not None:
        r = bytes([r_ord])
        candidates += [x + r + y, r + x + r + y]
    for s in candidates:
        s *= repeat
        assert reflection_category(r_ord, s) == necklace_reference.reflection_category(
            r_ord, s
        ), s


@settings(max_examples=400, deadline=None)
@given(
    p=st.one_of(st.integers(3, 40), st.integers(250, 300)),
    raw=st.binary(max_size=12),
    r_plus_one=st.integers(-1, 12),
    repeat=st.integers(1, 3),
)
@example(p=4, raw=b"", r_plus_one=-1, repeat=1)
@example(p=6, raw=b"\x05", r_plus_one=-1, repeat=1)  # g^-3 of Z_6, non-canonical
@example(p=6, raw=b"\x05\x04", r_plus_one=-1, repeat=1)  # as many g^-3 as g^3
@example(p=258, raw=b"\x00\xff", r_plus_one=-1, repeat=2)  # g^r has no byte
def test_reflection_category_matches_reference_on_every_byte(p, raw, r_plus_one, repeat):
    """Strings over all 256 bytes, so also those that hold byte r + 1 (the
    non-canonical g^-r) or lie outside Z_p, and from p = 258 on, where g^r
    has no byte; then reciprocal ones built from them: x + rev_neg(x), the
    same with g^r blocks between, and powers of each.  Both exits of the
    byte-count test are reached, and the full check behind it."""
    params = make_params(p)
    r_ord = params.r_byte
    x = raw
    if params.r_code and 0 <= r_plus_one <= len(x):  # put byte r + 1 in x
        x = x[:r_plus_one] + bytes((r_ord + 1,)) + x[r_plus_one:]
    y = rev_neg(x, r_ord)
    candidates = [x, x + y]
    if params.r_code:
        r = params.r_code
        candidates += [x + r + y, r + x + r + y]
    for s in candidates:
        s *= repeat
        assert reflection_category(r_ord, s) is necklace_reference.reflection_category(
            r_ord, s
        ), s


@pytest.mark.parametrize("p,max_len", [(3, 30), (4, 24), (6, 22), (8, 20), (300, 16)])
def test_reciprocal_classes_hold_each_byte_as_often_as_its_negative(p, max_len):
    """The lemma behind the classifier's early exit.  Negation maps the bytes
    of a reciprocal class onto themselves, so each byte o other than r and
    r + 1 occurs as often as o ^ 1, and r + 1 (the non-canonical g^-r, which
    negation sends to r) never occurs."""
    params = make_params(p)
    r = params.r_byte
    others = [o for o in range(256) if r is None or o not in (r, r + 1)]
    for bucket in normal_form_generate(params, max_len):
        for s in bucket:
            assert all(s.count(o) == s.count(o ^ 1) for o in others), s
            assert r is None or r > 254 or s.count(r + 1) == 0, s
