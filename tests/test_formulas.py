"""Counting formulas: composition layer, dual-mode sums, recurrence, ledger."""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hecke_census.census import census
from hecke_census.cli import main
from hecke_census.formulas import (
    ClaimLedger,
    NotApplicable,
    _jsonable,
    bounded_compositions,
    claims_check,
    lemma26_sum,
    marmolejo_word_count,
    p_reciprocal_count,
    p_reciprocal_sum,
    recurrence_extend,
    signed_syllable_count,
    symmetric_count,
    symmetric_p_count,
    symmetric_p_word_length,
    total_count_even,
    total_count_odd,
)
from hecke_census.spectral import IntPoly, build_growth_poly, dominant_root, eisenstein_check
from hecke_census.words import DomainError, make_params
from composition_reference import block_powers, bounded_compositions_dp, compositions
from ledger_queries import find_entries, ledger_ids


P4 = make_params(4)
P6 = make_params(6)


def all_compositions(x):
    """Every ordered tuple of positive integers summing to x."""
    if x == 0:
        yield ()
        return
    for first in range(1, x + 1):
        for rest in all_compositions(x - first):
            yield (first,) + rest


def brute_tables(x):
    """(by_n, by_n_and_bound) tally of the compositions of x."""
    by_n = {}
    by_bound = {}
    for parts in all_compositions(x):
        n = len(parts)
        by_n[n] = by_n.get(n, 0) + 1
        top = max(parts, default=0)
        by_bound[(n, top)] = by_bound.get((n, top), 0) + 1
    return by_n, by_bound


# ---------------------------------------------------------------------------
# composition layer


def test_composition_examples():
    assert compositions(1, 5) == 1
    assert compositions(2, 4) == 3
    assert compositions(3, 3) == 1
    assert compositions(0, 0) == 1
    assert compositions(0, 3) == 0


def test_compositions_vs_brute_force():
    for x in range(0, 13):
        by_n, _ = brute_tables(x)
        for n in range(0, x + 1):
            assert compositions(n, x) == by_n.get(n, 0)


def test_bounded_composition_examples():
    assert bounded_compositions(2, 2, 4) == 1
    assert bounded_compositions(3, 1, 3) == 1
    assert bounded_compositions(2, 3, 7) == 0
    assert bounded_compositions(0, 2, 0) == 1


def test_bounded_vs_brute_and_dp():
    for x in range(0, 13):
        _, by_bound = brute_tables(x)
        for r in range(1, 6):
            for n in range(0, x + 1):
                brute = sum(
                    v for (nn, top), v in by_bound.items() if nn == n and top <= r
                )
                closed = bounded_compositions(n, r, x)
                assert closed == brute
                assert closed == bounded_compositions_dp(n, r, x)


@pytest.mark.parametrize("r", [0, -1])
def test_bounded_compositions_rejects_part_bound_below_one(r):
    with pytest.raises(DomainError, match="r must be >= 1"):
        bounded_compositions(2, r, 3)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=10),
    r=st.integers(min_value=1, max_value=8),
    x=st.integers(min_value=0, max_value=14),
)
def test_bounded_monotone_in_bound(n, r, x):
    assert bounded_compositions(n, r, x) <= compositions(n, x)
    if r >= x - n + 1:
        assert bounded_compositions(n, r, x) == compositions(n, x)


# ---------------------------------------------------------------------------
# signed-syllable double sum


def test_signed_syllable_examples():
    assert signed_syllable_count(2, 2) == 2
    assert signed_syllable_count(3, 2) == 1
    assert signed_syllable_count(4, 2) == 4


def test_lemma26_examples():
    assert lemma26_sum(4, 2, corrected=False) == 4
    assert lemma26_sum(3, 2, corrected=False) == 0  # excludes the all-r solution
    assert lemma26_sum(3, 2, corrected=True) == 1


def test_lemma26_corrected_equals_ground_truth_exhaustive():
    for r in range(2, 6):
        for x in range(2, 15):
            assert lemma26_sum(x, r, corrected=True) == signed_syllable_count(x, r)


# ---------------------------------------------------------------------------
# category formulas


def test_symmetric_count_examples():
    assert symmetric_count(2, P4) == 1
    assert symmetric_count(3, P4) == 0
    assert symmetric_count(4, P6) == 2


def test_p_reciprocal_examples():
    assert p_reciprocal_count(5, P4) == 1
    assert p_reciprocal_count(4, P4) == 0
    assert p_reciprocal_count(3, P4) == 0  # below minimal length
    for p in range(4, 41, 2):
        params = make_params(p)
        for l in range(0, params.r + 2):  # the double sum is empty below l = r + 2
            assert p_reciprocal_count(l, params) == 0, (p, l)


def test_symmetric_p_power_only_length():
    # p=4, word length 3: the power class alone
    assert symmetric_p_word_length(1, P4) == 3
    assert symmetric_p_count(1, P4) == 1


def test_symmetric_p_known_divergence():
    # word length 7 at p=4: formula 1, oracle 2 (ledger finding L3.5)
    l = 3  # 2l+1 = 7
    assert symmetric_p_word_length(l, P4) == 7
    assert symmetric_p_count(l, P4) == 1
    assert census(P4, 7).rows[7].symmetric_p == 2


def test_formulas_require_even_p():
    p5 = make_params(5)
    with pytest.raises(DomainError):
        symmetric_count(2, p5)


def _total_count(l, params):
    return (total_count_even if params.r % 2 == 1 else total_count_odd)(l, params)


# evaluator and its smallest accepted l (for the piecewise totals: the family
# that the parity of r allows, from l = 1 for odd r and l = 2 for even r)
PUBLISHED = {
    "symmetric_count": (symmetric_count, lambda r: 2),
    "p_reciprocal_count": (p_reciprocal_count, lambda r: 1),
    "symmetric_p_count": (symmetric_p_count, lambda r: 1),
    "total_count": (_total_count, lambda r: 1 if r % 2 == 1 else 2),
}

# sha256 of the lines "p l repr(value)" for every even p from 4 to 40 and
# every l from the smallest accepted one to 40, and of "r x verbatim corrected"
# for the Lemma 2.6 sum at r = 2..8, x = 2..40: the printed values are the contract
PUBLISHED_SHA256 = {
    "symmetric_count": "7bb1b49b052de9fd9e765d05eeba4ee93b7a3daa6f54c82b8438652873f145f0",
    "p_reciprocal_count": "353e276c2ea6c565eb7ec0ff6a189eea15d9075290cdc4857dcb9c01d5b3fcb0",
    "symmetric_p_count": "6df41360577c69ae7d99031aefe14b260352f93e314320cb89a9e371eb41b990",
    "total_count": "fb59142dd335ddbdb3ef96d42416a5bae558f2199056fa9ae906d1f407878fb1",
    "lemma26_sum": "2c10645d869a739ee487347897b240e3299d0bcb4924d8f2ff141804487b1777",
}


def published_lines(name):
    if name == "lemma26_sum":
        return [f"{r} {x} {lemma26_sum(x, r)!r} {lemma26_sum(x, r, corrected=True)!r}"
                for r in range(2, 9) for x in range(2, 41)]
    formula, first = PUBLISHED[name]
    return [f"{p} {l} {formula(l, make_params(p))!r}"
            for p in range(4, 41, 2) for l in range(first(p // 2), 41)]


@pytest.mark.parametrize("name", sorted(PUBLISHED_SHA256))
def test_published_values_pinned(name):
    digest = hashlib.sha256("\n".join(published_lines(name)).encode("utf-8")).hexdigest()
    assert digest == PUBLISHED_SHA256[name]


# ---------------------------------------------------------------------------
# piecewise totals and recurrence


def test_total_count_even_examples():
    assert total_count_even(3, P6) == 1
    assert total_count_even(2, P6) == 1  # paper value; oracle observes 2
    with pytest.raises(NotApplicable):
        total_count_even(2, P4)  # r even


def test_total_count_odd_examples():
    assert total_count_odd(4, P4) == 1  # paper value; oracle observes 2
    assert total_count_odd(2, P4) == Fraction(1, 2)  # non-integral: finding
    with pytest.raises(NotApplicable):
        total_count_odd(2, P6)  # r odd


def test_marmolejo_values():
    assert marmolejo_word_count(1) == 0
    assert marmolejo_word_count(2) == 2
    assert marmolejo_word_count(3) == 2


def test_recurrence_extend_examples():
    # a_l = 2*(a_{l-2} + a_{l-3}) + a_{l-4} for r = 3
    assert recurrence_extend([0, 1, 1, 3], 3, 1)[-1] == 4
    assert recurrence_extend([0, 0, 0, 0], 3, 5) == [0] * 9
    assert recurrence_extend([1, 0, 0, 0], 3, 2)[-2:] == [1, 0]


def test_recurrence_extend_short_seed():
    with pytest.raises(DomainError):
        recurrence_extend([1, 2], 3, 1)


@pytest.mark.parametrize("r", [1, 0, -2])
def test_recurrence_extend_rejects_r_below_two(r):
    with pytest.raises(DomainError, match="^r must be >= 2$"):
        recurrence_extend([1, 2, 3], r, 2)


def _explicit_recurrence(seed, r, count):
    """The docstring's form, a_l = 2 sum_{j=1}^{r-1} a_{l-j-1} + a_{l-r-1}."""
    out = list(seed)
    for l in range(len(seed), len(seed) + count):
        out.append(2 * sum(out[l - j - 1] for j in range(1, r)) + out[l - r - 1])
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_recurrence_extend_explicit_form(data):
    r = data.draw(st.integers(min_value=2, max_value=12), label="r")
    term = data.draw(st.sampled_from([
        st.integers(min_value=-10**6, max_value=10**6),
        st.fractions(min_value=-100, max_value=100, max_denominator=36),
    ]))
    seed = data.draw(st.lists(term, min_size=r + 1, max_size=r + 4), label="seed")
    count = data.draw(st.integers(min_value=-3, max_value=25), label="count")
    kept = list(seed)
    out = recurrence_extend(seed, r, count)
    assert seed == kept and out is not seed
    assert out == _explicit_recurrence(seed, r, max(count, 0))  # the seed itself for count <= 0


@settings(max_examples=100, deadline=None)
@given(
    seed_a=st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=6),
    seed_b=st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=6),
)
def test_recurrence_linear(seed_a, seed_b):
    n = min(len(seed_a), len(seed_b))
    a, b = seed_a[:n], seed_b[:n]
    summed = recurrence_extend([x + y for x, y in zip(a, b)], 3, 5)
    parts = [
        x + y
        for x, y in zip(recurrence_extend(a, 3, 5), recurrence_extend(b, 3, 5))
    ]
    assert summed == parts


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(
        [(total_count_even, r) for r in (3, 5, 7)] + [(total_count_odd, r) for r in (2, 4, 6)]
    ),
    extra=st.integers(min_value=0, max_value=20),
)
def test_piecewise_tail_follows_recurrence(family, extra):
    formula, r = family
    params = make_params(2 * r)
    last_piecewise = r + 1 if r % 2 == 1 else r + params.u + 2  # L4.1.2 / L4.7.2
    l = last_piecewise + 1 + extra
    preceding = [formula(m, params) for m in range(l - r - 1, l)]
    assert recurrence_extend(preceding, r, 1)[-1] == formula(l, params)


def test_recurrence_matches_census_tail_p6():
    t = census(P6, 22)
    seq = [t.rows[2 * l].reciprocal_total for l in range(1, 12)]
    for l in range(5, 11):  # a_l indexed from 1 at position 0
        idx = l - 1
        assert seq[idx] == 2 * (seq[idx - 2] + seq[idx - 3]) + seq[idx - 4]


def test_recurrence_is_the_census_series():
    # the class-count recurrence continues h = 1/(1 - B) = sum_m B(x)^m, summed
    # from a table of B(x)^m, and the growth polynomial x^(r+1) (1 - B(1/x))
    # has the block law's dominant zero
    for r in range(2, 41):
        params = make_params(2 * r)
        h = [sum(column) for column in zip(*block_powers(params, 3 * r))]
        assert recurrence_extend(h[: r + 1], r, 2 * r) == h
        rho = dominant_root(build_growth_poly(r))
        weights = params.block_weights(3 * r)
        assert abs(sum(c * rho**-w for w, c in weights.items()) - 1) < 1e-10


# ---------------------------------------------------------------------------
# claims ledger


def test_ledger_status_logic():
    ledger = ClaimLedger()
    ledger.compare("X", {"p": 4}, 1, 1, "ref")
    ledger.compare("X", {"p": 6}, 1, 2, "ref")
    assert [e.status for e in ledger.entries] == ["PASS", "MISMATCH"]


def test_ledger_json_shape():
    ledger = ClaimLedger()
    ledger.compare("L2.6", {"x": 3, "r": 2}, 0, 1, "double-sum check")
    doc = json.loads(ledger.to_json())
    entry = doc["claims"][0]
    assert entry["id"] == "L2.6"
    assert entry["expected"] == "0" and entry["observed"] == "1"
    assert entry["status"] == "MISMATCH"


def test_claims_check_p6_contains_known_findings():
    table = census(P6, 12)
    ledger = claims_check(P6, table)
    ids = ledger_ids(ledger)
    for required in ("L2.6", "L3.3", "L3.4", "L3.5", "P3.6", "L4.1.1",
                     "L4.1.2", "L4.1.3", "L4.7.1", "MA-5.3.2", "L3.2-NF"):
        assert required in ids, required
    l2 = find_entries(ledger, "L2.6", x=3, r=2)
    assert l2 and l2[0].status == "MISMATCH"
    l41 = find_entries(ledger, "L4.1.1", p=6, l=2)
    assert l41 and l41[0].status == "MISMATCH"
    assert l41[0].observed == 2
    l47 = find_entries(ledger, "L4.7.1", p=4, l=4)
    assert l47 and l47[0].status == "MISMATCH"
    assert l47[0].observed == 2


def test_claims_check_observed_matches_census():
    table = census(P6, 10)
    ledger = claims_check(P6, table)
    for entry in ledger.entries:
        if entry.claim_id == "L4.1.1" and "fixture" not in entry.params:
            l = entry.params["l"]
            assert entry.observed == table.rows[2 * l].reciprocal_total


# sha256 of ``claims --p P --max-len L`` stdout: the ledger bytes are the contract
LEDGER_SHA256 = {
    (4, 18): "35803e1879ed8c8c4e5c3d612c4eba52126130d8293d7a0e9fb504a9069b792b",
    (6, 18): "5a478c3ea389db9f1bdef1714d8b57d048f6ba58d5ec5ee2a92f74dac2012a1e",
    (8, 18): "6fad0dc8cdea5c1659c8c88622d82ad41eba2678f705a0c86602f6a9f7fd9df9",
    (10, 18): "8abd36a60281fb9f2a8f951eb61871806a6f93e0908a081312ab286dfd35dce3",
    (12, 18): "dc7898edbd3973e1c9a0eade3bf7e00224ee85cde1b5ed4633c9e823ccef499f",
    (6, 20): "869cde67f99034768a68db21420b8d52c3947d0b52a51a4796a6afeee1d51ec3",
    # empty families, ranges cut inside the piecewise segments, r up to 10
    # with the L4.7.2 boundary (l = r+u+2) inside the table
    (4, 2): "de579bed57447d4fb22c6892f850bc7b73c441e6bed29104221db6d343ed3fe6",
    (4, 3): "82d56aaae9668c056513e69c65e98d1f931c98960e2e2f8a812f86e5e90876fb",
    (6, 4): "e47e7488677a06e7e38f9051a752cc579c4383a3b25d558424df7979ee1ca4e7",
    (6, 7): "4a9210470efd5bc0d4d15e4b3405dcd3b82beaf6bfb77e90a2d1bdb28ad05eac",
    (8, 9): "5632a079f28f72c91cc9390afd2da61836888a2e3df2f1790c97ae459aca1d85",
    (14, 40): "b9dc06e6008ac89491d0a244d92825e3161955c8391e955e9c7713fe1ff92710",
    (16, 40): "f395ce9a3ac78cb9f530e82a2eb1e2af6966c34b64f1b52149079704294e0662",
    (20, 60): "246240289fb81123a5e45f0b5ef005ebdceb4b59e3e7983ce72dc93912e6df3e",
}


@pytest.mark.parametrize("p,max_len", sorted(LEDGER_SHA256))
def test_ledger_bytes_pinned(capsys, p, max_len):
    assert main(["claims", "--p", str(p), "--max-len", str(max_len)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == LEDGER_SHA256[(p, max_len)]


# the formulas that cache their values, each emptied by claims_check
CACHED = (bounded_compositions, lemma26_sum, p_reciprocal_sum)


def _cache_sizes():
    return [f.cache_info().currsize for f in CACHED]


def _check_one_call_memo(monkeypatch, cached):
    """Run ``claims_check`` twice and once more to a raise; return the
    cache statistics of ``cached`` seen inside the first call and check
    that every cache is empty after each call and the ledger repeats."""
    from hecke_census import formulas

    seen = {}
    spectral_claims = formulas._spectral_claims

    def probe(*args):
        seen.update((f.__name__, f.cache_info()) for f in cached)
        spectral_claims(*args)

    monkeypatch.setattr(formulas, "_spectral_claims", probe)
    params = make_params(6)
    table = census(params, 30)
    for f in CACHED:
        f.cache_clear()
    first = claims_check(params, table).to_json()
    assert len(seen) == len(cached)
    assert _cache_sizes() == [0, 0, 0]
    assert claims_check(params, table).to_json() == first

    def fail(*args):
        raise RuntimeError("stop")

    monkeypatch.setattr(formulas, "_spectral_claims", fail)
    with pytest.raises(RuntimeError, match="stop"):
        claims_check(params, table)
    assert _cache_sizes() == [0, 0, 0]
    return seen


def test_claims_check_memoizes_psi_for_one_call_only(monkeypatch):
    """Inside ``claims_check`` each value of Psi is computed once (one miss
    per entry) and read again by the double sums; the cache is emptied
    when the call returns or raises, so a second run in the same process
    starts afresh and writes the same ledger."""
    info = _check_one_call_memo(monkeypatch, (bounded_compositions,))
    info = info["bounded_compositions"]
    assert info.misses == info.currsize > 0 and info.hits > 0


def test_claims_check_memoizes_every_hook_for_one_call_only(monkeypatch):
    """Inside ``claims_check`` each cached formula computes each of its
    values once (one miss per entry) and reads some again: P3.6 reads the
    double sums that L3.3, L3.4 and L3.5 evaluated.  Every cache is empty
    once the call returns or raises."""
    seen = _check_one_call_memo(monkeypatch, CACHED)
    for name, info in seen.items():
        assert info.misses == info.currsize > 0 and info.hits > 0, (name, info)


def test_claims_check_rebinds_no_module_name(monkeypatch):
    from hecke_census import formulas

    inside = []
    spectral_claims = formulas._spectral_claims

    def probe(*args):
        inside.append(dict(vars(formulas)))
        spectral_claims(*args)

    monkeypatch.setattr(formulas, "_spectral_claims", probe)
    outside = dict(vars(formulas))
    params = make_params(6)
    claims_check(params, census(params, 12))
    assert inside == [outside]
    assert dict(vars(formulas)) == outside


def test_overlapping_ledgers_leave_the_formulas_as_they_were():
    # two claims_check calls in threads whose runs overlap
    import threading

    from hecke_census import formulas

    outside = dict(vars(formulas))
    want = {}
    jobs = ((8, 60), (6, 120))
    for p, max_len in jobs:
        params = make_params(p)
        want[p] = claims_check(params, census(params, max_len)).to_json()
    got = {}

    def ledger(p, max_len):
        params = make_params(p)
        got[p] = claims_check(params, census(params, max_len)).to_json()

    threads = [threading.Thread(target=ledger, args=job) for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == want
    assert dict(vars(formulas)) == outside
    assert _cache_sizes() == [0, 0, 0]


def test_ledgers_in_one_process_keep_their_bytes(capsys):
    # no memo outlives a call: p = 6 after p = 8 writes the bytes it wrote first
    for p in (6, 8, 6):
        assert main(["claims", "--p", str(p), "--max-len", "18"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == LEDGER_SHA256[(p, 18)], p


def test_ledger_needs_no_shifted_polynomial(monkeypatch):
    # EISEN reads its verdict without the coefficients of p(x + 1)
    want = eisenstein_check(build_growth_poly(4))["reason"]
    monkeypatch.setattr(IntPoly, "shift", None)
    params = make_params(8)
    [eisen] = find_entries(claims_check(params, census(params, 12)), "EISEN")
    assert eisen.observed == f"not_satisfied ({want})"
    assert want == "coefficient -7 at degree 1 not divisible by 2"


def ledger_doc(ledger: ClaimLedger) -> dict:
    """The document that ``ClaimLedger.to_json`` writes, for ``json.dumps``."""
    return {"claims": [
        {
            "id": e.claim_id,
            "params": {k: _jsonable(v) for k, v in e.params.items()},
            "expected": _jsonable(e.expected),
            "observed": _jsonable(e.observed),
            "status": e.status,
            "paper_ref": e.paper_ref,
        }
        for e in ledger.entries
    ]}


def test_ledger_json_is_that_of_json_dumps():
    odd = ClaimLedger()
    odd.add("X", {}, Fraction(-3, 4), None, "MISMATCH",
            'say "q" \\ \n\t\x00\x1f\x7f é ∞ 𝔽')
    odd.add("L4.1.1", {"p": 6, "l": 2, "fixture": True}, 5, Fraction(10, 2), "PASS", "")
    odd.add("F", {"x": -0.0, "y": 5e-324, "z": 1e300}, 1e300, float("nan"), "PASS", "é")
    odd.add("nested", {"list": [1, "a"], "d": {"k": None}}, [], {}, "PASS", "passed through")
    params = make_params(6)
    full = claims_check(params, census(params, 18))
    for ledger in (ClaimLedger(), odd, full):
        assert ledger.to_json() == json.dumps(ledger_doc(ledger), indent=2) + "\n"


# any text, lone surrogates and control characters included
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.5e-308])
# ints within Python's default digit limit for int -> str
_INTS = st.integers() | st.integers(-(10**4300 - 1), 10**4300 - 1)
_NESTED = st.recursive(
    st.none() | st.booleans() | _INTS | _FLOATS | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)
_LEDGER_VALUES = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT | st.fractions() | _NESTED
_ENTRIES = st.lists(st.tuples(_TEXT, st.dictionaries(_TEXT, _LEDGER_VALUES, max_size=4),
                              _LEDGER_VALUES, _LEDGER_VALUES, _TEXT, _TEXT), max_size=4)


@settings(max_examples=200, deadline=None)
@given(entries=_ENTRIES)
@example(entries=[("\ud800", {}, -0.0, math.nan, "\x00\x1f\x7f", "é ∞ 𝔽 \udfff"),
                  ("", {"b": True, "n": None, "f": -math.inf}, Fraction(-7, 3), [], "", "")])
def test_ledger_json_of_any_values_is_that_of_json_dumps(entries):
    ledger = ClaimLedger()
    for entry in entries:
        ledger.add(*entry)
    assert ledger.to_json() == json.dumps(ledger_doc(ledger), indent=2) + "\n"


# params keys, in order, of the census-reading entries that are not fixtures
CENSUS_KEYS = {
    "L3.3": ["p", "l"],
    "L3.4": ["p", "l"],
    "L3.5": ["p", "l", "word_length"],
    "P3.6": ["p", "word_length"],
    "L4.1.1": ["p", "l"],
    "L4.1.2": ["p", "l"],
    "L4.1.3": ["p", "l", "column"],
    "L4.7.1": ["p", "l"],
    "L4.7.2": ["p", "l"],
    "L4.7.3": ["p", "l", "relation"],
    "MA-5.3.2": ["p", "l"],
}


@pytest.mark.parametrize("p", [4, 6, 8, 10, 12, 14])
def test_ledger_shape(p):
    # survives a re-pin of LEDGER_SHA256: which ids are NOT-APPLICABLE, and
    # the params keys by which readers of the ledger find each entry
    params = make_params(p)
    ledger = claims_check(params, census(params, 30))
    not_applicable = [(e.claim_id, list(e.params)) for e in ledger.entries
                      if e.status == "NOT-APPLICABLE"]
    if params.r % 2 == 0:
        assert not_applicable == [("L4.1.1", ["p"])]
        present = {"L4.1.3", "L4.7.1", "L4.7.2", "L4.7.3"}
    else:
        assert not_applicable == [("L4.7.1", ["p"]), ("L4.7.2", ["p"]), ("L4.7.3", ["p"])]
        present = {"L4.1.1", "L4.1.2", "L4.1.3"}
    seen = set()
    for e in ledger.entries:
        if e.claim_id not in CENSUS_KEYS or e.status == "NOT-APPLICABLE" or "fixture" in e.params:
            continue
        assert list(e.params) == CENSUS_KEYS[e.claim_id], (e.claim_id, e.params)
        seen.add(e.claim_id)
    assert seen == {"L3.3", "L3.4", "L3.5", "P3.6", "MA-5.3.2"} | present
    if params.r % 2 == 0:
        relations = {e.params["relation"] for e in find_entries(ledger, "L4.7.3")}
        assert relations == {"even-family-equality", "recurrence"}
