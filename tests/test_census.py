"""Census engine and enumeration oracle: fixtures, engine vs oracle,
exactly-once emission, determinism."""

import gc
import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hecke_census.census import (
    CSV_HEADER,
    CensusRow,
    _scan,
    census,
    enumerate_classes,
    enumeration_census,
    table_to_csv,
    tally,
    table_to_json,
)
from hecke_census.reciprocal import classify, normal_form_generate, reciprocator_witnesses
from hecke_census.spectral import build_growth_poly, dominant_root
from hecke_census.words import DomainError, InvolutionType, decode, encode, make_params
from composition_reference import block_powers
from necklace_reference import is_minimal_rotation
from word_reference import all_reduced_words, cyclic_reduce, inverse_key, key


P4 = make_params(4)
P5 = make_params(5)
P6 = make_params(6)


# ---------------------------------------------------------------------------
# hand-verified fixtures


def test_p4_reciprocal_totals():
    t = census(P4, 7)
    assert t.rows[3].reciprocal_total == 1
    assert t.rows[4].reciprocal_total == 1
    assert t.rows[7].reciprocal_total == 2


def test_p6_reciprocal_totals():
    t = census(P6, 6)
    assert t.rows[4].reciprocal_total == 2
    assert t.rows[6].reciprocal_total == 1


def test_category_fixtures():
    t4 = census(P4, 10)
    t6 = census(P6, 8)
    assert t4.rows[4].symmetric == 1
    assert t6.rows[6].symmetric == 1
    assert t6.rows[8].symmetric == 2
    assert t4.rows[10].p_reciprocal == 1
    assert t4.rows[8].p_reciprocal == 0


def test_length3_row_p4():
    t = census(P4, 4)
    row = t.rows[3]
    assert (row.symmetric, row.p_reciprocal, row.symmetric_p) == (0, 0, 1)
    assert row.power == 1
    assert row.reciprocal_total == 1


def test_row_invariants():
    t = census(P6, 14)
    for length, row in t.rows.items():
        assert row.reciprocal_total == row.symmetric + row.p_reciprocal + row.symmetric_p
        assert row.power <= row.symmetric_p
        if row.power:
            assert length % (P6.r + 1) == 0


def test_max_len_validation():
    with pytest.raises(DomainError):
        census(P4, 1)


# ---------------------------------------------------------------------------
# enumeration contract


def test_enumerate_small_universe_p4():
    got = {c.block_exponents for c in enumerate_classes(P4, 3)}
    assert got == {(1,), (-1,), (2,)}


def test_enumerate_length4_p4():
    got = {c.block_exponents for c in enumerate_classes(P4, 4) if c.word_length() == 4}
    assert got == {(1, 1), (-1, -1), (1, -1)}


def test_enumerate_sorted_and_unique():
    """Strictly increasing (word length, key bytes), and every key is the
    one that the reference ``key`` builds: the least rotation of its bytes."""
    for params in (P4, P5, P6):
        seen = list(enumerate_classes(params, 12))
        assert len(seen) == len(set(seen))
        order = [(c.word_length(), encode(c.block_exponents)) for c in seen]
        assert all(a < b for a, b in zip(order, order[1:]))
        for c in seen:
            built = key(params, c.block_exponents)
            assert (built.code, built.syllables) == (c.code, c.syllables)


@pytest.mark.parametrize("p", [3, 4, 5, 6, 8, 258])
def test_enumerated_keys_decode_their_blocks_only_when_read(p):
    """An enumerated key holds its byte code and not its blocks, and a
    classification without witnesses leaves it so.  Once read, its blocks
    are ``decode`` of its code, and it equals, hashes, prints, measures and
    decomposes as the key that the reference ``key`` builds from them."""
    params = make_params(p)
    keys = list(enumerate_classes(params, 12 if p < 258 else 9))
    assert all("block_exponents" not in vars(c) for c in keys)
    for c in keys:
        classify(c, with_witnesses=False)
        assert "block_exponents" not in vars(c), c
        built = key(params, decode(c.code))
        assert hash(c) == hash(built) and c == built, c
        assert repr(c) == repr(built), c
        assert c.block_exponents == built.block_exponents == decode(c.code), c
        assert c.word_length() == built.word_length(), c
        assert c.primitive_decomposition() == built.primitive_decomposition(), c


def test_enumeration_leaves_no_garbage_cycle():
    """An exhausted enumeration frees its bytes by reference counting: it
    leaves nothing for the cyclic garbage collector to reclaim."""
    gc.collect()
    gc.disable()
    try:
        for _ in enumerate_classes(P6, 12):
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def _block_words(weights, max_len):
    """Every (weight, bytes) of a nonempty block word within the budget."""
    out = []
    buf = bytearray()

    def extend(used):
        if buf:
            out.append((used, bytes(buf)))
        for o, w in enumerate(weights):
            if used + w <= max_len:
                buf.append(o)
                extend(used + w)
                buf.pop()

    extend(0)
    return out


def _check_scan(params, max_len, necklaces):
    buckets = _scan(params, max_len)
    assert len(buckets) == max_len + 1
    for bucket in buckets:
        assert all(a < b for a, b in zip(bucket, bucket[1:])), "duplicate or out of lexicographic order"
    strings = [s for bucket in buckets for s in bucket]
    assert len(strings) == len(set(strings)), "a byte string in two buckets"
    got = {(length, s) for length, bucket in enumerate(buckets) for s in bucket}
    assert got == {(w, s) for w, s in necklaces if w <= max_len}


@pytest.mark.parametrize("p", range(3, 13))
def test_scan_is_complete_and_exact(p):
    """The prenecklace generator emits exactly the least rotations that a
    filter over every block word within the budget keeps."""
    params = make_params(p)
    words = _block_words([1 + abs(k) for k in params.exponent_range(params.p)], 14)
    necklaces = [(w, s) for w, s in words if is_minimal_rotation(s)]
    for max_len in range(2, 15):
        _check_scan(params, max_len, necklaces)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(3, 60), max_len=st.integers(2, 12))
def test_scan_is_complete_and_exact_property(p, max_len):
    params = make_params(p)
    words = _block_words([1 + abs(k) for k in params.exponent_range(params.p)], max_len)
    _check_scan(params, max_len, [(w, s) for w, s in words if is_minimal_rotation(s)])


@pytest.mark.parametrize("params,budget", [(P4, 8), (P5, 8), (P6, 8)])
def test_exactly_once_vs_reference_dedup(params, budget):
    """Necklace enumeration equals hash-set dedup over all reduced words."""
    reference: dict[int, set] = {}
    for length in range(2, budget + 1):
        for word in all_reduced_words(params, length):
            core, _ = cyclic_reduce(word)
            if len(core) < 2:  # a torsion class
                continue
            c = key(params, core[1::2])
            if c.word_length() == length:
                reference.setdefault(length, set()).add(c)
    enumerated: dict[int, set] = {}
    for c in enumerate_classes(params, budget):
        enumerated.setdefault(c.word_length(), set()).add(c)
    assert enumerated == reference


def test_all_classes_column_matches_enumeration():
    t = census(P6, 10)
    by_len: dict[int, int] = {}
    for c in enumerate_classes(P6, 10):
        by_len[c.word_length()] = by_len.get(c.word_length(), 0) + 1
    for length in range(2, 11):
        assert t.rows[length].all_classes == by_len.get(length, 0)


def test_reciprocal_total_matches_classifier():
    t = census(P6, 10)
    by_len: dict[int, int] = {}
    for c in enumerate_classes(P6, 10):
        if classify(c, with_witnesses=False).is_reciprocal:
            by_len[c.word_length()] = by_len.get(c.word_length(), 0) + 1
    for length in range(2, 11):
        assert t.rows[length].reciprocal_total == by_len.get(length, 0)


@pytest.mark.parametrize("p", range(3, 11))
def test_category_columns_match_witness_search(p):
    """Every census column equals a tally of the involution witness search,
    a route that shares no code with the reflection classifier."""
    params = make_params(p)
    max_len = 12
    column = {
        frozenset({InvolutionType.IOTA_TYPE}): 0,
        frozenset({InvolutionType.TILDE_GAMMA_TYPE}): 1,
        frozenset({InvolutionType.IOTA_TYPE, InvolutionType.TILDE_GAMMA_TYPE}): 2,
    }
    tally = {length: [0] * 5 for length in range(2, max_len + 1)}  # sym, prec, symp, power, all
    for c in enumerate_classes(params, max_len):
        counts = tally[c.word_length()]
        counts[4] += 1
        witnesses = reciprocator_witnesses(c)
        if not witnesses:  # not reciprocal
            continue
        counts[column[frozenset(h.involution_type() for h in witnesses)]] += 1
        if params.even and all(k == params.r for k in c.block_exponents):
            counts[3] += 1
    expected = {length: CensusRow(*counts) for length, counts in tally.items()}
    assert census(params, max_len).rows == expected


@pytest.mark.parametrize("p", range(3, 13))
def test_engine_matches_enumeration_at_every_budget(p):
    params = make_params(p)
    oracle = enumeration_census(params, 20).rows
    for max_len in range(2, 21):  # at 2 and 3 only the first block weights fit
        expected = {length: oracle[length] for length in range(2, max_len + 1)}
        assert census(params, max_len).rows == expected, max_len


@pytest.mark.parametrize("p,max_len", [(4, 22), (6, 20), (5, 20)])
def test_tally_of_normal_forms_is_the_reciprocal_census(p, max_len):
    """The normal forms, tallied like the enumeration, fill every census
    column but ``all_classes``, which counts only the reciprocal classes."""
    params = make_params(p)
    forms = tally(params, normal_form_generate(params, max_len))
    assert forms.max_len == max_len
    assert forms.rows == {
        length: row._replace(all_classes=row.reciprocal_total)
        for length, row in census(params, max_len).rows.items()
    }


@settings(max_examples=60, deadline=None)
@given(p=st.integers(3, 40), max_len=st.integers(2, 14))
def test_engine_matches_enumeration_property(p, max_len):
    params = make_params(p)
    assert census(params, max_len) == enumeration_census(params, max_len)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(3, 60), short=st.integers(2, 80), long=st.integers(2, 80))
def test_engine_properties(p, short, long):
    params = make_params(p)
    short, long = sorted((short, long))
    rows = census(params, long).rows
    assert census(params, short).rows == {length: rows[length] for length in range(2, short + 1)}
    for length, row in rows.items():
        if params.even:
            assert row.power == (length % (params.r + 1) == 0)
        else:
            assert row.p_reciprocal == row.symmetric_p == row.power == 0
        assert row.reciprocal_total <= row.all_classes


def _block_power_rows(params, max_len):
    """Census rows from a table of B(x)^m and one Burnside sum per block
    count n: the sums that ``block_series`` collapses, kept as a reference."""
    powers = block_powers(params, max_len)  # powers[m][j] = [x^j] B(x)^m
    phi = list(range(max_len + 1))  # Euler's totient, by sieve
    for i in range(2, max_len + 1):
        if phi[i] == i:
            for j in range(i, max_len + 1, i):
                phi[j] -= phi[j] // i
    r = params.r

    def paired(length, m):  # [x^length] B(x^2)^m
        return powers[m][length // 2] if length >= 0 and length % 2 == 0 else 0

    def odd_axis(n, length):
        return paired(length - (r + 1), (n - 1) // 2) if params.even else 0

    def exact_div(num, den):
        q, rem = divmod(num, den)
        assert rem == 0
        return q

    rows = {}
    for length in range(2, max_len + 1):
        all_classes = symmetric = p_reciprocal = symmetric_p = 0
        for n in range(1, length // 2 + 1):
            g = math.gcd(n, length)
            divisors = (d for d in range(1, g + 1) if g % d == 0)
            fixed = sum(phi[d] * powers[n // d][length // d] for d in divisors)
            all_classes += exact_div(fixed, n)
            if n % 2 == 1:
                symmetric_p += odd_axis(n, length)
                continue
            two = n & -n
            odd_d = odd_axis(n // two, length // two) if length % two == 0 else 0
            iota = paired(length, n // 2)
            gamma = paired(length - 2 * (r + 1), n // 2 - 1) if params.even else 0
            symmetric += exact_div(iota - odd_d, 2)
            p_reciprocal += exact_div(gamma - odd_d, 2)
            symmetric_p += odd_d
        power = int(params.even and length % (r + 1) == 0)
        rows[length] = CensusRow(symmetric, p_reciprocal, symmetric_p, power, all_classes)
    return rows


@pytest.mark.parametrize(
    "p,max_len",
    [(p, 120) for p in range(3, 21)] + [(p, 200) for p in (4, 6, 8, 41, 257, 10**9)],
)
def test_series_match_block_power_reference(p, max_len):
    """The two series equal the B(x)^m engine far past the enumeration's reach."""
    params = make_params(p)
    assert census(params, max_len).rows == _block_power_rows(params, max_len)


@pytest.mark.parametrize("p", [6, 8, 10, 14])
def test_all_classes_law_at_large_length(p):
    """all_classes(L) ~ rho^L / L, with rho the dominant root of the growth
    polynomial; the tolerance covers L times the float error of rho."""
    params = make_params(p)
    rows = census(params, 1000).rows
    log_rho = math.log(dominant_root(build_growth_poly(params.r)))
    for length in (999, 1000):
        log_ratio = math.log(rows[length].all_classes) + math.log(length) - length * log_rho
        assert abs(math.expm1(log_ratio)) < 1e-8, (length, log_ratio)


# sha256 of the census CSV at lengths past the B(x)^m reference's reach (200)
CENSUS_CSV_SHA256 = {
    (3, 2000): "356eda9feeb406ec36fb508645d39d15c30cc46d827d6d62e5bbc72c42ecf5b6",
    (4, 2000): "3912a8372df164eddfe941b831fac652b57b3aa636c41637536454bb20bb080b",
    (5, 2000): "b7eeca4561a400248d65d689a32d47d95cfe0dd58806e7b19b482a10c3b9e545",
    (6, 2000): "f1dac42f09b4b948485e61c6c7f937cd1f6273c11df2f86d12fb1c4c8c708306",
    (7, 2000): "b09adb8f170f31aa0c013016342e312ba021f3930aa96917f234f8087ad0872c",
    (8, 2000): "9145ee66e160852a4a704fcfb9d28260fad7aef158c04143a2791f56a4e7b2e8",
    (41, 1000): "4b9da2c5510b4738676be09424d87650f04ecc91aa39f12a077971338495749e",
    (10**9, 600): "14af2e493ded15781616767b8af815fca199fcebad2ebfbda6270c8dca09b813",
}


@pytest.mark.parametrize("p,max_len", sorted(CENSUS_CSV_SHA256))
def test_census_csv_pinned(p, max_len):
    text = table_to_csv(census(make_params(p), max_len))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CENSUS_CSV_SHA256[(p, max_len)]


# sha256 of the census JSON, the bytes that ``census --p P --max-len L``
# writes in its default format, as ``json.dumps(doc, indent=2)`` wrote them
CENSUS_JSON_SHA256 = {
    (3, 300): "30ca4e595189c8d965147092de258569876b8b39fe98d751e25ce8311e949b01",
    (5, 2000): "a38ed8690164f428d3cc53fd249641d7eb14b636618c10b68ed4a4c077816b55",
    (6, 2000): "8c7182aa5529616558746ec3d7ed8e3f1e76a3298eab0e9c3c868602d54805ef",
    (8, 1000): "0b28564e47dac4bb115305e72f938aff9c4d145ea122205b4edad6de6706d516",
    (41, 1000): "4f87c4173c7e832b68314810d725bafa6477aef5335b66e4cfa7bd834333de45",
    (300, 600): "8d923d8fc9c22527cfb6b9e204c3fc679e2f79497809539081db8dec0ddffba0",
    (10**6, 2000): "63b41ab9e46789f307696f34f2b18238ed9d331df3c0e1ce97a091fe60855267",
    (10**9, 600): "152741e0ccb7469d49221c42609a91f1c26827eb5a3e425e98d0b1079bb7bc1f",
}


@pytest.mark.parametrize("p,max_len", sorted(CENSUS_JSON_SHA256))
def test_census_json_pinned(p, max_len):
    text = table_to_json(census(make_params(p), max_len))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CENSUS_JSON_SHA256[(p, max_len)]


def census_doc(table) -> dict:
    """The document that ``table_to_json`` writes, for ``json.dumps``."""
    columns = CSV_HEADER.split(",")[1:]
    return {
        "p": table.params.p,
        "max_len": table.max_len,
        "rows": [{"len": length, **{c: str(getattr(row, c)) for c in columns}}
                 for length, row in sorted(table.rows.items())],
    }


@pytest.mark.parametrize("p", [*range(3, 41), 10**6])
@settings(max_examples=8, deadline=None)
@given(max_len=st.integers(2, 120))
@example(max_len=120)
def test_census_json_is_that_of_json_dumps(p, max_len):
    table = census(make_params(p), max_len)
    assert table_to_json(table) == json.dumps(census_doc(table), indent=2) + "\n"


def test_engine_ignores_exponents_beyond_the_budget():
    # at max-len 12 only |k| <= 11 fits, and g^r does not fit for p >= 24
    tables = [census(make_params(p), 12).rows for p in (24, 25, 41, 300, 301, 10**9)]
    assert all(rows == tables[0] for rows in tables)


def test_blocks_beyond_one_byte_are_a_domain_error():
    # |k| <= 128 has a byte in every Z_p; a budget or a class past that does not
    params = make_params(300)
    with pytest.raises(DomainError, match=r"\|k\| > 128"):
        list(enumerate_classes(params, 130))
    with pytest.raises(DomainError, match=r"\|k\| > 128"):
        list(enumerate_classes(make_params(258), 130))  # g^129 is its own negative
    with pytest.raises(DomainError, match=r"\|k\| > 128"):
        normal_form_generate(make_params(258), 260)
    with pytest.raises(DomainError, match=r"g\^129 has no byte"):
        normal_form_generate(make_params(258), 130)  # a g^r shape fits
    with pytest.raises(DomainError, match=r"g\^129 has no byte"):
        key(params, (1, 129))
    for p in (257, 258, 300):
        params = make_params(p)
        counted = sum(row.all_classes for row in census(params, 4).rows.values())
        assert sum(1 for _ in enumerate_classes(params, 4)) == counted == 9


@pytest.mark.parametrize("p", [258, 259, 300, 1000])
def test_large_p_enumeration_and_classifier(p):
    """Past p = 257 the census equals the enumeration, and every verdict of
    the classifier names the involution types that the witness search finds."""
    params = make_params(p)
    assert census(params, 9) == enumeration_census(params, 9)
    for c in enumerate_classes(params, 9):
        info = classify(c)
        assert frozenset(h.involution_type() for h in info.witnesses) == info.reciprocator_types


def test_inverse_closure():
    emitted = set(enumerate_classes(P6, 9))
    for c in emitted:
        assert inverse_key(c) in emitted


# ---------------------------------------------------------------------------
# determinism and serialization


def test_csv_shape():
    text = table_to_csv(census(P4, 4))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "2,0,0,0,0,0,2"
    assert lines[2].startswith("3,0,0,1,1,1,")
    assert lines[3].startswith("4,1,0,0,0,1,")
    assert text.endswith("\n")


def test_json_counts_are_decimal_strings():
    doc = json.loads(table_to_json(census(P4, 5)))
    assert doc["p"] == 4 and doc["max_len"] == 5
    for row in doc["rows"]:
        for key in ("symmetric", "p_reciprocal", "symmetric_p", "power",
                    "reciprocal_total", "all_classes"):
            assert isinstance(row[key], str) and row[key].isdigit()


def test_json_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    schema = json.loads(
        resources.files("hecke_census").joinpath("schemas/census.schema.json").read_text()
    )
    jsonschema.validate(json.loads(table_to_json(census(P6, 8))), schema)
