"""Reciprocity classification: reflection method vs explicit witnesses."""

import random

import pytest

import necklace_reference
from hecke_census import census as census_module
from hecke_census import necklaces, words
from hecke_census import reciprocal as reciprocal_module
from hecke_census.census import _scan, enumerate_classes
from hecke_census.necklaces import reflection_category
from hecke_census.reciprocal import (
    Category,
    ConsistencyError,
    classify,
    normal_form_generate,
    reciprocator_witnesses,
)
from hecke_census.words import (
    IOTA,
    CyclicWord,
    InvolutionType,
    Word,
    encode,
    make_params,
)
from word_reference import class_key, coset_witnesses, cyclic_reduce, inverse_key, reduce
from word_reference import key as cls


P4 = make_params(4)
P6 = make_params(6)


# ---------------------------------------------------------------------------
# category fixtures


def test_power_class_is_symmetric_p():
    info = classify(cls(P4, (2,)))
    assert info.category is Category.SYMMETRIC_P_RECIPROCAL
    assert info.is_power_of_iota_tilde_gamma
    assert info.power_exponent == 1


def test_palindrome_is_symmetric():
    info = classify(cls(P4, (1, -1)))
    assert info.category is Category.SYMMETRIC
    assert not info.is_power_of_iota_tilde_gamma
    assert info.reciprocator_types == frozenset({InvolutionType.IOTA_TYPE})


def test_p_reciprocal_fixture():
    # blocks (2, 1, 2, -1): both fixed syllables are g^2 blocks
    info = classify(cls(P4, (2, 1, 2, -1)))
    assert info.category is Category.P_RECIPROCAL
    assert info.reciprocator_types == frozenset({InvolutionType.TILDE_GAMMA_TYPE})


def test_symmetric_p_mixed_fixture():
    # odd block count: one iota and one g^r fixed syllable
    info = classify(cls(P4, (2, 1, -1)))
    assert info.category is Category.SYMMETRIC_P_RECIPROCAL
    assert info.reciprocator_types == frozenset(
        {InvolutionType.IOTA_TYPE, InvolutionType.TILDE_GAMMA_TYPE}
    )


def test_non_reciprocal():
    info = classify(cls(P4, (1,)))
    assert not info.is_reciprocal
    assert info.category is Category.NOT_RECIPROCAL
    assert info.witnesses == ()


_IOTA, _TILDE = InvolutionType.IOTA_TYPE, InvolutionType.TILDE_GAMMA_TYPE
_REFERENCE_TYPES = {
    Category.NOT_RECIPROCAL: frozenset(),
    Category.SYMMETRIC: frozenset({_IOTA}),
    Category.P_RECIPROCAL: frozenset({_TILDE}),
    Category.SYMMETRIC_P_RECIPROCAL: frozenset({_IOTA, _TILDE}),
}


@pytest.mark.parametrize("p", range(3, 9))
def test_classify_matches_field_reference(p):
    """The three stored fields and the three derived properties of every
    verdict, with and without witnesses, against the slice-loop classifier
    and a direct power test."""
    params = make_params(p)
    for c in enumerate_classes(params, 14):
        blocks = c.block_exponents
        category = necklace_reference.reflection_category(params.r_byte, encode(blocks))
        reciprocal = category is not Category.NOT_RECIPROCAL
        power = params.even and all(k == params.r for k in blocks)
        for with_witnesses in (False, True):
            info = classify(c, with_witnesses=with_witnesses)
            assert info._asdict() == {
                "category": category,
                "power_exponent": len(blocks) if power else None,
                "witnesses": (
                    tuple(reciprocator_witnesses(c)) if with_witnesses else ()
                ),
            }, c
            assert type(info.category) is Category, c
            assert info.is_reciprocal is reciprocal, c
            assert info.is_power_of_iota_tilde_gamma is power, c
            assert info.reciprocator_types == _REFERENCE_TYPES[category], c


@pytest.mark.parametrize("p", [3, 5, 7, 4, 6, 8, 10, 258, 260])
def test_power_exponent_from_bytes_matches_the_block_reference(p):
    """Without witnesses, ``classify`` finds the powers ``(i g^r)^m`` in the
    byte code alone: its ``power_exponent`` agrees with the test on the
    blocks, every power within the budget is found, and none is found for
    odd p or past p = 257, where g^r has no byte."""
    params = make_params(p)
    max_len = 14 if p < 258 else 9
    found = []
    for c in enumerate_classes(params, max_len):
        info = classify(c, with_witnesses=False)
        assert "block_exponents" not in vars(c), c  # decoded only below
        blocks = c.block_exponents
        power = all(k == params.r for k in blocks)
        assert info.power_exponent == (len(blocks) if power else None), c
        if power:
            found.append(c)
    if params.r_code:
        top = max_len // (params.r + 1)
        assert found == [cls(params, (params.r,) * m) for m in range(1, top + 1)]
    else:
        assert found == [] and (p % 2 or params.r_byte > 255)


def test_power_exponent_at_the_last_byte():
    """At p = 256, g^128 has the last byte of Z_p, 254, and is still found."""
    params = make_params(256)
    assert params.r_code == b"\xfe" and make_params(258).r_code == b""
    for blocks, power in (((128,), 1), ((128,) * 3, 3), ((128, 1), None), ((127,), None)):
        info = classify(cls(params, blocks), with_witnesses=False)
        assert info.power_exponent == power, blocks


# ---------------------------------------------------------------------------
# class keys


def _random_word(params, rng, size):
    syllables = [IOTA] + params.exponent_range(params.p)
    return reduce(params, rng.choices(syllables, k=size))


@pytest.mark.parametrize("p", [3, 4, 5, 6, 8])
def test_one_class_one_key_four_ways(p):
    """The key of a shifted rotation, the key of a conjugate,
    enumerate_classes and normal_form_generate give equal, equally hashed
    keys."""
    params = make_params(p)
    rng = random.Random(p)
    enumerated = {c: c for c in enumerate_classes(params, 10)}
    for c in enumerated:
        blocks = c.block_exponents
        d = rng.randrange(len(blocks))
        shifted = [k + p * rng.randint(-2, 2) for k in blocks[d:] + blocks[:d]]
        h = _random_word(params, rng, rng.randint(0, 6))
        for key in (
            cls(params, shifted),
            class_key(h * c.to_word() * h.inverse()),
        ):
            assert key == c and hash(key) == hash(c), (key, c)
    for bucket in normal_form_generate(params, 10):
        for s in bucket:
            key = CyclicWord(params, s)
            c = enumerated[key]
            assert key == c and hash(key) == hash(c), (key, c)


# ---------------------------------------------------------------------------
# reflection structure


def test_inverse_class_closure():
    for c in enumerate_classes(P6, 10):
        if classify(c, with_witnesses=False).is_reciprocal:
            assert inverse_key(c) == c


# ---------------------------------------------------------------------------
# witnesses


def test_witnesses_invert_the_class():
    for blocks in [(2,), (1, -1), (2, 1, -1), (2, 1, 2, -1)]:
        c = cls(P4, blocks)
        g = c.to_word()
        for h in reciprocator_witnesses(c):
            assert h.involution_type() is not InvolutionType.NOT_INVOLUTION
            assert h * g * h.inverse() == g.inverse()


def test_witnesses_are_empty_for_non_reciprocal():
    assert reciprocator_witnesses(cls(P4, (1,))) == []


def _witness_classes():
    """Every class of p in {3, 4, 5, 6, 8} to L = 14, then the normal forms
    of (4, 20) and (6, 18), where the coset is longest."""
    for p in (3, 4, 5, 6, 8):
        yield from enumerate_classes(make_params(p), 14)
    for p, max_len in ((4, 20), (6, 18)):
        params = make_params(p)
        for bucket in normal_form_generate(params, max_len):
            yield from (CyclicWord(params, s) for s in bucket)


def test_witnesses_match_the_whole_coset():
    """The two candidates find the words that the whole coset walk finds."""
    for c in _witness_classes():
        assert reciprocator_witnesses(c) == coset_witnesses(c), c


def test_witness_search_tries_two_candidates(monkeypatch):
    calls = []
    involution_type = Word.involution_type

    def counted(self):
        calls.append(self)
        return involution_type(self)

    monkeypatch.setattr(Word, "involution_type", counted)
    for c in _witness_classes():
        calls.clear()
        reciprocator_witnesses(c)
        assert len(calls) <= 2, c


def test_witness_search_without_an_involution_is_an_error(monkeypatch):
    monkeypatch.setattr(Word, "involution_type", lambda self: InvolutionType.NOT_INVOLUTION)
    with pytest.raises(ConsistencyError, match="no involution found"):
        reciprocator_witnesses(cls(P4, (1, -1)))
    assert reciprocator_witnesses(cls(P4, (1,))) == []


@pytest.mark.parametrize("p,budget", [(4, 12), (6, 12)])
def test_classification_agrees_with_witness_search(p, budget):
    params = make_params(p)
    checked = 0
    for c in enumerate_classes(params, budget):
        info = classify(c, with_witnesses=True)
        witness_types = frozenset(h.involution_type() for h in info.witnesses)
        assert witness_types == info.reciprocator_types, c
        checked += info.is_reciprocal
    assert checked > 0


# ---------------------------------------------------------------------------
# normal forms


@pytest.mark.parametrize("p", [3, 4, 5, 6, 300])
def test_normal_form_buckets_hold_least_rotations_once_in_order(p):
    """Bucket L of the normal forms is sorted, repeats nothing, and holds
    least rotations of word length L, like the buckets of ``_scan``."""
    params = make_params(p)
    buckets = normal_form_generate(params, 16)
    assert len(buckets) == 17 and buckets[0] == buckets[1] == []
    for length, bucket in enumerate(buckets):
        assert bucket == sorted(set(bucket)), length
        for s in bucket:
            assert s == min(s[i:] + s[:i] for i in range(len(s))), (length, s)
            assert CyclicWord(params, s).word_length() == length, (length, s)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_normal_forms_are_reciprocal(p):
    params = make_params(p)
    for bucket in normal_form_generate(params, 14):
        for s in bucket:
            c = CyclicWord(params, s)
            assert classify(c, with_witnesses=False).is_reciprocal, c


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8, 9, 10, 12])
def test_normal_forms_match_oracle_at_small_lengths(p):
    """Each bucket of normal forms is the reciprocal part of the
    enumeration's bucket of the same word length."""
    params = make_params(p)
    forms, scanned = normal_form_generate(params, 14), _scan(params, 14)
    for length in range(2, 15):
        oracle = [s for s in scanned[length] if reflection_category(params.r_byte, s)]
        assert forms[length] == oracle, length


def test_normal_form_probe_cost_does_not_grow_with_p(monkeypatch):
    # up to length 12 no g^r block fits when r >= 16, so p = 32 and p = 16384
    # have the same normal forms and must try the same bytes
    calls = []

    class Counted(tuple):
        def __getitem__(self, o):
            calls.append(o)
            return tuple.__getitem__(self, o)

    monkeypatch.setattr(reciprocal_module, "WEIGHTS", Counted(words.WEIGHTS))
    found = {}
    for p in (32, 16384):
        calls.clear()
        found[p] = normal_form_generate(make_params(p), 12), len(calls)
    assert found[32] == found[16384]


def test_normal_form_power_classes():
    assert cls(P4, (2,)).code in normal_form_generate(P4, 3)[3]
    assert cls(P4, (2, 2)).code in normal_form_generate(P4, 6)[6]
    assert cls(P6, (3,)).code in normal_form_generate(P6, 4)[4]
    # every power (i g^r)^m comes from the shapes, odd m from a single g^r
    # and even m from the bracketed palindrome
    for p in (4, 6, 8):
        params = make_params(p)
        r = params.r
        buckets = normal_form_generate(params, 4 * (r + 1))
        for m in range(1, 5):
            assert cls(params, (r,) * m).code in buckets[m * (r + 1)], (p, m)


# ---------------------------------------------------------------------------
# the byte code: the enumeration's bytes are the classifier's input


@pytest.mark.parametrize("p,max_len", [(4, 14), (5, 12)])
def test_enumeration_is_not_re_encoded(monkeypatch, p, max_len):
    """A sweep over the enumeration reads the bytes that ``_scan``
    generated: with every ``encode`` in the package raising, each verdict
    still equals the reference classifier's on those bytes, and each key
    decodes, measures and decomposes."""

    def no_encode(blocks):
        raise AssertionError(f"re-encoded {blocks}")

    for module in (census_module, necklaces, reciprocal_module, words):
        if hasattr(module, "encode"):
            monkeypatch.setattr(module, "encode", no_encode)
    with pytest.raises(AssertionError, match="re-encoded"):  # the patch is live
        normal_form_generate(P4, 3)  # which encodes the byte of g^2
    params = make_params(p)
    for c in enumerate_classes(params, max_len):
        category = necklace_reference.reflection_category(params.r_byte, c.code)
        assert classify(c, with_witnesses=False).category == category, c
        root, m = c.primitive_decomposition()
        assert root.block_exponents * m == c.block_exponents, c
        assert c.word_length() == len(c.code) + sum(map(abs, c.block_exponents)), c


@pytest.mark.parametrize("p", range(3, 13))
def test_enumerated_code_is_the_encoded_key(p):
    """Every enumerated class carries ``encode`` of its blocks as its code
    and their length as its word length, holds every field, and
    equals, hashes and prints like the key the constructor builds."""
    params = make_params(p)
    names = set(CyclicWord._fields)
    for c in enumerate_classes(params, 14):
        blocks = c.block_exponents
        assert names <= vars(c).keys(), c
        assert c.code == encode(blocks), c
        assert c.word_length() == len(blocks) + sum(map(abs, blocks)), c
        assert repr(c) == repr(CyclicWord(params, encode(blocks))), c
        built = cls(params, blocks)
        assert built == c and hash(built) == hash(c), c


@pytest.mark.parametrize("p", [3, 4, 5, 6, 8])
def test_keys_built_elsewhere_classify_by_their_encoded_blocks(monkeypatch, p):
    """Keys from the reference constructor, a cyclic reduction and
    ``normal_form_generate`` hold their bytes: none encodes its blocks, and
    each classifies as the reflection classifier reads their encoding."""
    params = make_params(p)
    rng = random.Random(p)
    keys = [cls(params, c.block_exponents[::-1]) for c in enumerate_classes(params, 10)]
    while len(keys) < 400:
        word = _random_word(params, rng, rng.randint(2, 12))
        if len(cyclic_reduce(word)[0]) > 1:  # infinite order
            keys.append(class_key(word))
    keys += [CyclicWord(params, s) for bucket in normal_form_generate(params, 10) for s in bucket]
    expected = [reflection_category(params.r_byte, encode(key.block_exponents)) for key in keys]
    encoded = []

    def counted(blocks):
        encoded.append(blocks)
        return encode(blocks)

    for module in (census_module, necklaces, reciprocal_module, words):
        if hasattr(module, "encode"):
            monkeypatch.setattr(module, "encode", counted)
    for key, category in zip(keys, expected):
        for _ in range(2):
            assert classify(key, with_witnesses=False).category is category, key
        assert key.code == encode(key.block_exponents), key
        assert key.primitive_decomposition()[0].word_length() <= key.word_length(), key
    assert encoded == []


def test_code_stays_out_of_repr_and_equality():
    """A key's byte code and its cached word length are in no field,
    ``repr``, equality or hash: those read the blocks."""
    c = next(c for c in enumerate_classes(P6, 6) if c.block_exponents == (1, 2))
    fresh = CyclicWord(P6, encode((1, 2)))
    assert "_length" in vars(c) and "_length" not in vars(fresh)  # filled by the enumeration
    assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
    forged = CyclicWord(P6, encode((1, 2)))
    assert forged.block_exponents == (1, 2)  # decoded, then the bytes are forged
    vars(forged).update(code=b"\xff", _length=99)
    assert forged == c and hash(forged) == hash(c) and repr(forged) == repr(c)
    assert "code" not in repr(c) and repr(c.code) not in repr(c)
    assert "_length" not in repr(c)
    assert {"code", "_length"}.isdisjoint(CyclicWord._fields)
    assert fresh.word_length() == 5 and vars(fresh)["_length"] == 5  # computed on first use
