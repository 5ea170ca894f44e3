"""Reciprocity classification: reflection method vs explicit witnesses."""

import pytest

from hecke_census.census import enumerate_classes
from hecke_census.reciprocal import (
    Category,
    classify,
    is_reciprocal,
    normal_form_generate,
    reciprocator_witnesses,
)
from hecke_census.words import CyclicWord, DomainError, InvolutionType, Word, make_params


P4 = make_params(4)
P6 = make_params(6)


def cls(params, blocks):
    return CyclicWord.from_blocks(params, blocks)


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


def test_torsion_rejected():
    c, _ = Word.parse(P6, "g^2").cyclic_reduce()
    with pytest.raises(DomainError):
        classify(c)
    with pytest.raises(DomainError):
        is_reciprocal(c)


# ---------------------------------------------------------------------------
# reflection structure


def test_inverse_class_closure():
    for c in enumerate_classes(P6, 10):
        if is_reciprocal(c):
            assert c.inverse_key() == c


# ---------------------------------------------------------------------------
# witnesses


def test_witnesses_invert_the_class():
    for blocks in [(2,), (1, -1), (2, 1, -1), (2, 1, 2, -1)]:
        c = cls(P4, blocks)
        g = c.to_word()
        for h in reciprocator_witnesses(c):
            assert h.involution_type() is not InvolutionType.NOT_INVOLUTION
            assert h * g * h.inverse() == g.inverse()


def test_witnesses_raise_for_non_reciprocal():
    with pytest.raises(DomainError):
        reciprocator_witnesses(cls(P4, (1,)))


@pytest.mark.parametrize("p,budget", [(4, 12), (6, 12)])
def test_classification_agrees_with_witness_search(p, budget):
    params = make_params(p)
    checked = 0
    for c in enumerate_classes(params, budget):
        info = classify(c, with_witnesses=True)
        if not info.is_reciprocal:
            continue
        witness_types = frozenset(h.involution_type() for h in info.witnesses)
        assert witness_types == info.reciprocator_types, c
        checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# normal forms


@pytest.mark.parametrize("p", [4, 6])
def test_normal_forms_are_reciprocal(p):
    params = make_params(p)
    for length in range(2, 13):
        for c in normal_form_generate(params, length):
            assert c.word_length() == length
            assert is_reciprocal(c), c


@pytest.mark.parametrize("p", [4, 6])
def test_normal_forms_match_oracle_at_small_lengths(p):
    params = make_params(p)
    oracle: dict[int, set] = {length: set() for length in range(2, 13)}
    for c in enumerate_classes(params, 12):
        if is_reciprocal(c):
            oracle[c.word_length()].add(c)
    for length in range(2, 13):
        assert normal_form_generate(params, length) == oracle[length]


def test_normal_form_power_classes():
    assert cls(P4, (2,)) in normal_form_generate(P4, 3)
    assert cls(P4, (2, 2)) in normal_form_generate(P4, 6)
    assert cls(P6, (3,)) in normal_form_generate(P6, 4)
