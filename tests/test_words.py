"""Word arithmetic: reduction, group laws, cyclic reduction, torsion."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_census.necklaces import encode
from hecke_census.words import (
    IOTA,
    CyclicWord,
    DomainError,
    GroupParams,
    InvolutionType,
    Word,
    make_params,
    reduce_syllables,
)
from necklace_reference import is_minimal_rotation
from word_reference import all_reduced_words, element_order


P4 = make_params(4)
P6 = make_params(6)
P7 = make_params(7)


def w(params, text):
    return Word.parse(params, text)


# ---------------------------------------------------------------------------
# parameters and canonical exponents


def test_make_params_even():
    assert (P6.p, P6.r, P6.u) == (6, 3, 1)
    assert (P4.p, P4.r, P4.u) == (4, 2, 1)


def test_make_params_odd_has_no_r():
    assert P7.r is None and P7.u is None
    with pytest.raises(DomainError):
        P7.require_even()


def test_group_params_stores_only_p():
    assert GroupParams._fields == ("p",)
    for p in range(3, 41):
        params = make_params(p)
        assert vars(params) == {"p": p}  # r and u are computed on first use
        if p % 2 == 0:
            assert (params.r, params.u) == (p // 2, p // 4)
        else:
            assert params.r is None and params.u is None


def test_make_params_rejects_small_p():
    with pytest.raises(DomainError):
        make_params(2)


@pytest.mark.parametrize("p", [2, 1, 0, -6])
def test_group_params_rejects_small_p(p):
    # the constructor checks p itself: no census or class count of Z_2 * Z_2
    with pytest.raises(DomainError, match=f"^p must be >= 3, got {p}$"):
        GroupParams(p)


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8])
def test_canonical_exponent_range(p):
    params = make_params(p)
    for k in range(-3 * p, 3 * p + 1):
        c = params.canonical_exponent(k)
        assert -p < 2 * c <= p
        assert (c - k) % p == 0


def test_exponent_range_order():
    assert P4.exponent_range(P4.p) == [1, -1, 2]
    assert P6.exponent_range(P6.p) == [1, -1, 2, -2, 3]
    assert P7.exponent_range(P7.p) == [1, -1, 2, -2, 3, -3]
    # the bound cuts the list at |k| <= max_abs, whatever p is
    assert make_params(10**9).exponent_range(2) == [1, -1, 2, -2]
    assert P6.exponent_range(2) == [1, -1, 2, -2]
    assert P6.exponent_range(0) == []
    assert P6.exponent_range(-1) == []


def test_block_weights_match_exponent_range():
    # the block law is the weight census of the exponent set, cut at max_weight
    for p in range(3, 61):
        params = make_params(p)
        exps = params.exponent_range(params.p)
        for max_weight in range(2, p + 3):
            want = Counter(1 + abs(k) for k in exps if 1 + abs(k) <= max_weight)
            got = params.block_weights(max_weight)
            assert got == want
            # the closed-form count of each weight, in the same key order
            closed = {
                1 + a: 2 if params.canonical_exponent(-a) == -a else 1
                for a in range(1, min(p // 2, max_weight - 1) + 1)
            }
            assert list(got.items()) == list(closed.items())
    # the bound keeps huge p cheap: 11 weights, 2..12, each from k and -k
    assert make_params(10**9).block_weights(12) == {w: 2 for w in range(2, 13)}


# ---------------------------------------------------------------------------
# parsing and reduction


def test_parse_round_trip():
    for text in ("i", "g^2", "i g^2 i g^-1", "1"):
        word = w(P4, text)
        assert str(Word.parse(P4, str(word))) == str(word)


def test_parse_star_separator():
    assert w(P4, "i * g^2") == w(P4, "i g^2")


def test_parse_bare_g():
    assert w(P4, "g") == w(P4, "g^1")


def test_parse_rejects_garbage():
    with pytest.raises(DomainError):
        Word.parse(P4, "x^2")


def test_iota_squared_is_identity():
    assert (w(P4, "i") * w(P4, "i")).is_identity


def test_gamma_p_is_identity():
    assert (w(P4, "g^2") * w(P4, "g^2")).is_identity
    assert (w(P6, "g^4") * w(P6, "g^2")).is_identity


def test_reduction_merges_adjacent_gammas():
    assert w(P6, "g^2 g^2") == w(P6, "g^-2")


def test_word_length_examples():
    assert w(P4, "i g^2 i g^-1").length() == 5
    assert w(P6, "g^3").length() == 3
    assert Word.identity(P4).length() == 0


# ---------------------------------------------------------------------------
# group laws (randomized)


def syllable_texts(params):
    return ["i"] + [f"g^{k}" for k in params.exponent_range(params.p)]


@st.composite
def words(draw, params):
    parts = draw(st.lists(st.sampled_from(syllable_texts(params)), max_size=8))
    return Word.parse(params, " ".join(parts))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=9))
def test_associativity(data, p):
    params = make_params(p)
    a, b, c = (data.draw(words(params)) for _ in range(3))
    assert (a * b) * c == a * (b * c)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=9))
def test_inverse_law(data, p):
    params = make_params(p)
    a = data.draw(words(params))
    assert (a * a.inverse()).is_identity
    assert (a.inverse() * a).is_identity
    assert a.inverse().inverse() == a


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=9))
def test_reduction_idempotent(data, p):
    params = make_params(p)
    a = data.draw(words(params))
    assert Word.from_syllables(params, a.syllables) == a


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=9))
def test_class_key_conjugation_invariant(data, p):
    params = make_params(p)
    a = data.draw(words(params))
    h = data.draw(words(params))
    assert a.conjugate_by(h).class_key() == a.class_key()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_length_subadditive(data):
    a = data.draw(words(P6))
    b = data.draw(words(P6))
    assert (a * b).length() <= a.length() + b.length()


# ---------------------------------------------------------------------------
# cyclic reduction


def test_cyclic_reduce_wrap_around():
    # g^2 i g i g^-2 conjugates down to the torsion class of g
    word = w(P6, "g^2 i g i g^-2")
    c, h = word.cyclic_reduce()
    assert c.syllables == (1,) and str(c) == "g^1"
    assert h * c.to_word() * h.inverse() == word


def test_cyclic_reduce_already_reduced():
    word = w(P4, "i g^1 i g^-1")
    c, h = word.cyclic_reduce()
    assert h.is_identity
    assert c.word_length() == 4


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=9))
def test_cyclic_reduce_conjugator_witness(data, p):
    params = make_params(p)
    word = data.draw(words(params))
    c, h = word.cyclic_reduce()
    assert h * c.to_word() * h.inverse() == word
    assert c.word_length() <= word.length()


def test_class_key_rotation_invariance():
    blocks = (1, -1, 2)
    n = len(blocks)
    keys = {
        CyclicWord.from_blocks(P6, blocks[i:] + blocks[:i]) for i in range(n)
    }
    assert len(keys) == 1


# ---------------------------------------------------------------------------
# torsion, involutions, primitive decomposition


def test_involution_fixtures():
    assert w(P4, "i").involution_type() is InvolutionType.IOTA_TYPE
    assert w(P6, "g^3").involution_type() is InvolutionType.TILDE_GAMMA_TYPE
    assert w(P6, "i g^3").involution_type() is InvolutionType.NOT_INVOLUTION
    # conjugates of involutions are involutions
    conj = w(P6, "g^2 i g^1") * w(P6, "i") * (w(P6, "g^2 i g^1")).inverse()
    assert conj.involution_type() is InvolutionType.IOTA_TYPE


def test_orders():
    assert element_order(Word.identity(P6)) == 1
    assert element_order(w(P6, "i")) == 2
    assert element_order(w(P6, "g^2")) == 3
    assert element_order(w(P6, "g^3")) == 2
    assert element_order(w(P6, "i g^1")) is None


def test_primitive_decomposition():
    c = CyclicWord.from_blocks(P4, (1, -1, 1, -1))
    root, m = c.primitive_decomposition()
    assert m == 2
    assert root.block_exponents in {(1, -1), (-1, 1)}
    prim = CyclicWord.from_blocks(P4, (1, 2))
    assert prim.primitive_decomposition()[1] == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=12))
def test_primitive_root_is_the_from_blocks_key(data, p):
    params = make_params(p)
    blocks = data.draw(st.lists(st.sampled_from(params.exponent_range(params.p)), min_size=1, max_size=6))
    m = data.draw(st.integers(1, 4))
    c = CyclicWord.from_blocks(params, blocks * m)
    root, k = c.primitive_decomposition()
    assert root == CyclicWord.from_blocks(params, root.block_exponents)
    assert k % m == 0
    assert CyclicWord.from_blocks(params, root.block_exponents * k) == c


def test_primitive_decomposition_rejects_torsion():
    c, _ = w(P6, "g^2").cyclic_reduce()
    with pytest.raises(DomainError):
        c.primitive_decomposition()


def test_cyclic_words_distinguish_p():
    a = CyclicWord.from_blocks(P4, (1,))
    b = CyclicWord.from_blocks(P6, (1,))
    assert a != b


def test_all_reduced_words_counts():
    # length 2 over p=4: i g^k (3 with |k|=1? no: i g^1, i g^-1, g^1 i, g^-1 i,
    # g^2, g^1 g^... -- enumerate and check basic sanity instead
    seen = set(str(x) for x in all_reduced_words(P4, 2))
    assert seen == {"i g^1", "i g^-1", "g^1 i", "g^-1 i", "g^2"}


# ---------------------------------------------------------------------------
# the linear word layer against the quadratic references it replaced


def test_parse_rejects_zero_gamma_exponent():
    # 0 is the syllable i, so g^0 is not a gamma syllable; an exponent that
    # is no int is the same error
    for token in ("g^0", "g^x", "g^", "g^1.5"):
        with pytest.raises(DomainError, match="unrecognized token"):
            Word.parse(P6, f"i {token}")


@st.composite
def long_words(draw, params):
    parts = draw(st.lists(st.sampled_from(syllable_texts(params)), max_size=30))
    return Word.parse(params, " ".join(parts))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=12))
def test_product_equals_full_reduction(data, p):
    params = make_params(p)
    a, b, c = (data.draw(long_words(params)) for _ in range(3))
    for x, y in ((a, b), (a, a.inverse() * c), (a, a.inverse()), (a * b, b.inverse())):
        assert x * y == Word.from_syllables(params, x.syllables + y.syllables)


def _reference_class_key(params, blocks):
    """Least rotation of the canonical blocks by (|k|, sign), over all n starts."""
    blocks = tuple(params.canonical_exponent(k) for k in blocks)
    keyed = [(abs(k), k < 0) for k in blocks]
    best = min(range(len(blocks)), key=lambda i: keyed[i:] + keyed[:i])
    return blocks[best:] + blocks[:best]


def _reference_cyclic_reduce(word):
    """The rotate-and-re-reduce loop: move the first syllable to the end and
    reduce the whole sequence again, until the ends differ in kind."""
    params = word.params
    syls = list(word.syllables)
    h = []
    while len(syls) >= 2 and (syls[0] == IOTA) == (syls[-1] == IOTA):
        h.append(syls[0])
        syls = list(reduce_syllables(syls[1:] + syls[:1], params))
    if len(syls) <= 1:
        return tuple(syls), None, tuple(h)
    if syls[0] != IOTA:
        h.append(syls[0])
        syls = syls[1:] + syls[:1]
    blocks = tuple(syls[1::2])
    key = _reference_class_key(params, blocks)
    d = next(d for d in range(len(blocks)) if blocks[d:] + blocks[:d] == key)
    h.extend(syls[: 2 * d])
    canonical = tuple(s for k in key for s in (IOTA, k))
    return canonical, key, reduce_syllables(h, params)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=12))
def test_cyclic_reduce_matches_reference(data, p):
    params = make_params(p)
    a, b = (data.draw(long_words(params)) for _ in range(2))
    for word in (a, b * a * b.inverse(), a * b * a.inverse()):
        c, h = word.cyclic_reduce()
        assert (c.syllables, c.block_exponents, h.syllables) == _reference_cyclic_reduce(word)
        assert c.word_length() == sum(abs(s) or 1 for s in c.syllables)


@pytest.mark.parametrize(
    "blocks",
    [(1, -1, 1, -1), (2, 1, 2, 1, 1), (-1, 1, -1, 1), (1, 1, 2, 1, 1, 2), (3, 3, 3), (2, -2, 1)],
)
def test_from_blocks_periodic_and_tied_least_blocks(blocks):
    c = CyclicWord.from_blocks(P6, blocks)
    assert c.block_exponents == _reference_class_key(P6, blocks)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=12))
def test_from_blocks_matches_reference(data, p):
    params = make_params(p)
    nonzero = st.integers(-3 * p, 3 * p).filter(lambda k: k % p)
    blocks = data.draw(st.lists(nonzero, min_size=1, max_size=15))
    if data.draw(st.booleans()):  # a power, so the least block repeats
        blocks = blocks * data.draw(st.integers(2, 3))
    c = CyclicWord.from_blocks(params, blocks)
    key = _reference_class_key(params, blocks)
    assert c.block_exponents == key
    assert c.syllables == tuple(
        s for k in key for s in (IOTA, k)
    )
    assert c.word_length() == sum(abs(s) or 1 for s in c.syllables)
    assert is_minimal_rotation(encode(key))  # byte order is key order


def test_from_blocks_rejects_zero_blocks():
    for blocks in ((), (1, 6), (0,)):
        with pytest.raises(DomainError):
            CyclicWord.from_blocks(P6, blocks)
