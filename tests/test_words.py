"""Word arithmetic: group laws, the cyclic core, involutions, class keys."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_census.words import (
    IOTA,
    DomainError,
    GroupParams,
    InvolutionType,
    Word,
    encode,
    make_params,
)
from necklace_reference import is_minimal_rotation
from word_reference import (
    all_reduced_words,
    class_key,
    cyclic_reduce,
    element_order,
    key,
    length,
    parse,
    reduce,
)


P4 = make_params(4)
P6 = make_params(6)
P7 = make_params(7)


def w(params, text):
    return parse(params, text)


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
    # large even and odd p, cut below, at and above the weight 1 + p/2 that
    # even p counts once
    for p in (199_999, 200_000, 200_001, 200_002):
        params = make_params(p)
        for max_weight in (p // 2, p // 2 + 1, p // 2 + 2, p):
            want = Counter(1 + abs(k) for k in params.exponent_range(max_weight - 1))
            got = params.block_weights(max_weight)
            assert list(got.items()) == list(want.items()), (p, max_weight)
    # the bound keeps huge p cheap: 11 weights, 2..12, each from k and -k
    assert make_params(10**9).block_weights(12) == {w: 2 for w in range(2, 13)}


# ---------------------------------------------------------------------------
# parsing and reduction


def test_parse_round_trip():
    for text in ("i", "g^2", "i g^2 i g^-1", "1"):
        word = w(P4, text)
        assert str(parse(P4, str(word))) == str(word)


def test_parse_star_separator():
    assert w(P4, "i * g^2") == w(P4, "i g^2")


def test_parse_bare_g():
    assert w(P4, "g") == w(P4, "g^1")


def test_parse_rejects_garbage():
    with pytest.raises(DomainError):
        parse(P4, "x^2")


def test_iota_squared_is_identity():
    assert w(P4, "i") * w(P4, "i") == Word(P4)


def test_gamma_p_is_identity():
    assert w(P4, "g^2") * w(P4, "g^2") == Word(P4)
    assert w(P6, "g^4") * w(P6, "g^2") == Word(P6)


def test_reduction_merges_adjacent_gammas():
    assert w(P6, "g^2 g^2") == w(P6, "g^-2")


def test_word_length_examples():
    assert length(w(P4, "i g^2 i g^-1")) == 5
    assert length(w(P6, "g^3")) == 3
    assert length(Word(P4)) == 0


# ---------------------------------------------------------------------------
# group laws (randomized)


def syllable_texts(params):
    return ["i"] + [f"g^{k}" for k in params.exponent_range(params.p)]


@st.composite
def words(draw, params):
    parts = draw(st.lists(st.sampled_from(syllable_texts(params)), max_size=8))
    return parse(params, " ".join(parts))


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
    assert a * a.inverse() == Word(params)
    assert a.inverse() * a == Word(params)
    assert a.inverse().inverse() == a


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=9))
def test_reduction_idempotent(data, p):
    params = make_params(p)
    a = data.draw(words(params))
    assert reduce(params, a.syllables) == a


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=9))
def test_class_key_conjugation_invariant(data, p):
    params = make_params(p)
    a = data.draw(words(params))
    h = data.draw(words(params))
    assert cyclic_reduce(h * a * h.inverse())[0] == cyclic_reduce(a)[0]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_length_subadditive(data):
    a = data.draw(words(P6))
    b = data.draw(words(P6))
    assert length(a * b) <= length(a) + length(b)


# ---------------------------------------------------------------------------
# cyclic reduction


def test_cyclic_reduce_wrap_around():
    # g^2 i g i g^-2 conjugates down to the torsion class of g
    word = w(P6, "g^2 i g i g^-2")
    core, h = cyclic_reduce(word)
    assert core == (1,) and str(Word(P6, core)) == "g^1"
    assert h * Word(P6, core) * h.inverse() == word


def test_cyclic_reduce_already_reduced():
    word = w(P4, "i g^1 i g^-1")
    core, h = cyclic_reduce(word)
    assert h == Word(P4)
    assert class_key(word).word_length() == 4


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=9))
def test_cyclic_reduce_conjugator_witness(data, p):
    params = make_params(p)
    word = data.draw(words(params))
    core, h = cyclic_reduce(word)
    c = Word(params, core)
    assert h * c * h.inverse() == word
    assert length(c) <= length(word)


def test_class_key_rotation_invariance():
    blocks = (1, -1, 2)
    n = len(blocks)
    keys = {
        key(P6, blocks[i:] + blocks[:i]) for i in range(n)
    }
    assert len(keys) == 1


# ---------------------------------------------------------------------------
# element orders, involutions, primitive decomposition


def test_involution_fixtures():
    assert w(P4, "i").involution_type() is InvolutionType.IOTA_TYPE
    assert w(P6, "g^3").involution_type() is InvolutionType.TILDE_GAMMA_TYPE
    assert w(P6, "i g^3").involution_type() is InvolutionType.NOT_INVOLUTION
    # conjugates of involutions are involutions
    conj = w(P6, "g^2 i g^1") * w(P6, "i") * (w(P6, "g^2 i g^1")).inverse()
    assert conj.involution_type() is InvolutionType.IOTA_TYPE


def test_orders():
    assert element_order(Word(P6)) == 1
    assert element_order(w(P6, "i")) == 2
    assert element_order(w(P6, "g^2")) == 3
    assert element_order(w(P6, "g^3")) == 2
    assert element_order(w(P6, "i g^1")) is None


def test_primitive_decomposition():
    c = key(P4, (1, -1, 1, -1))
    root, m = c.primitive_decomposition()
    assert m == 2
    assert root.block_exponents in {(1, -1), (-1, 1)}
    prim = key(P4, (1, 2))
    assert prim.primitive_decomposition()[1] == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=12))
def test_primitive_root_is_the_from_blocks_key(data, p):
    params = make_params(p)
    blocks = data.draw(st.lists(st.sampled_from(params.exponent_range(params.p)), min_size=1, max_size=6))
    m = data.draw(st.integers(1, 4))
    c = key(params, blocks * m)
    root, k = c.primitive_decomposition()
    assert root == key(params, root.block_exponents)
    assert k % m == 0
    assert key(params, root.block_exponents * k) == c


def test_cyclic_words_distinguish_p():
    a = key(P4, (1,))
    b = key(P6, (1,))
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
            parse(P6, f"i {token}")


@st.composite
def long_words(draw, params):
    parts = draw(st.lists(st.sampled_from(syllable_texts(params)), max_size=30))
    return parse(params, " ".join(parts))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=12))
def test_product_equals_full_reduction(data, p):
    params = make_params(p)
    a, b, c = (data.draw(long_words(params)) for _ in range(3))
    for x, y in ((a, b), (a, a.inverse() * c), (a, a.inverse()), (a * b, b.inverse())):
        assert x * y == reduce(params, x.syllables + y.syllables)


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
        syls = list(reduce(params, syls[1:] + syls[:1]).syllables)
    if len(syls) <= 1:
        return tuple(syls), tuple(h)
    if syls[0] != IOTA:
        h.append(syls[0])
        syls = syls[1:] + syls[:1]
    blocks = tuple(syls[1::2])
    least = _reference_class_key(params, blocks)
    d = next(d for d in range(len(blocks)) if blocks[d:] + blocks[:d] == least)
    h.extend(syls[: 2 * d])
    canonical = tuple(s for k in least for s in (IOTA, k))
    return canonical, reduce(params, h).syllables


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=12))
def test_cyclic_reduce_matches_reference(data, p):
    params = make_params(p)
    a, b = (data.draw(long_words(params)) for _ in range(2))
    for word in (a, b * a * b.inverse(), a * b * a.inverse()):
        core, h = cyclic_reduce(word)
        assert (core, h.syllables) == _reference_cyclic_reduce(word)
        if len(core) > 1:  # infinite order: the core is its key's syllables
            c = class_key(word)
            assert c.syllables == core and c.word_length() == length(Word(params, core))


@pytest.mark.parametrize(
    "blocks",
    [(1, -1, 1, -1), (2, 1, 2, 1, 1), (-1, 1, -1, 1), (1, 1, 2, 1, 1, 2), (3, 3, 3), (2, -2, 1)],
)
def test_from_blocks_periodic_and_tied_least_blocks(blocks):
    c = key(P6, blocks)
    assert c.block_exponents == _reference_class_key(P6, blocks)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.integers(min_value=3, max_value=12))
def test_from_blocks_matches_reference(data, p):
    params = make_params(p)
    nonzero = st.integers(-3 * p, 3 * p).filter(lambda k: k % p)
    blocks = data.draw(st.lists(nonzero, min_size=1, max_size=15))
    if data.draw(st.booleans()):  # a power, so the least block repeats
        blocks = blocks * data.draw(st.integers(2, 3))
    c = key(params, blocks)
    least = _reference_class_key(params, blocks)
    assert c.block_exponents == least
    assert c.syllables == tuple(s for k in least for s in (IOTA, k))
    assert c.word_length() == sum(abs(s) or 1 for s in c.syllables)
    assert c.code == encode(least) and is_minimal_rotation(c.code)  # byte order is key order


def test_from_blocks_rejects_zero_blocks():
    for blocks in ((), (1, 6), (0,)):
        with pytest.raises(DomainError):
            key(P6, blocks)
