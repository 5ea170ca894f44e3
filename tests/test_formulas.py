"""Counting formulas: composition layer, dual-mode sums, recurrence, ledger."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_census.census import census
from hecke_census.cli import main
from hecke_census.formulas import (
    ClaimLedger,
    NotApplicable,
    bounded_compositions,
    bounded_compositions_incl_excl,
    claims_check,
    compositions,
    lemma26_sum,
    marmolejo_word_count,
    p_reciprocal_count,
    recurrence_extend,
    signed_syllable_count,
    symmetric_count,
    symmetric_p_count,
    symmetric_p_word_length,
    total_count_even,
    total_count_odd,
)
from hecke_census.words import DomainError, make_params


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


def test_bounded_vs_brute_and_incl_excl():
    for x in range(0, 13):
        _, by_bound = brute_tables(x)
        for r in range(1, 6):
            for n in range(0, x + 1):
                brute = sum(
                    v for (nn, top), v in by_bound.items() if nn == n and top <= r
                )
                dp = bounded_compositions(n, r, x)
                assert dp == brute
                assert dp == bounded_compositions_incl_excl(n, r, x)


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
    seq = [t.reciprocal_total(2 * l) for l in range(1, 12)]
    for l in range(5, 11):  # a_l indexed from 1 at position 0
        idx = l - 1
        assert seq[idx] == 2 * (seq[idx - 2] + seq[idx - 3]) + seq[idx - 4]


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
    ids = ledger.ids()
    for required in ("L2.6", "L3.3", "L3.4", "L3.5", "P3.6", "L4.1.1",
                     "L4.1.2", "L4.1.3", "L4.7.1", "MA-5.3.2", "L3.2-NF"):
        assert required in ids, required
    l2 = ledger.find("L2.6", x=3, r=2)
    assert l2 and l2[0].status == "MISMATCH"
    l41 = ledger.find("L4.1.1", p=6, l=2)
    assert l41 and l41[0].status == "MISMATCH"
    assert l41[0].observed == 2
    l47 = ledger.find("L4.7.1", p=4, l=4)
    assert l47 and l47[0].status == "MISMATCH"
    assert l47[0].observed == 2


def test_claims_check_observed_matches_census():
    table = census(P6, 10)
    ledger = claims_check(P6, table)
    for entry in ledger.entries:
        if entry.claim_id == "L4.1.1" and "fixture" not in entry.params:
            l = entry.params["l"]
            assert entry.observed == table.reciprocal_total(2 * l)


# sha256 of ``claims --p P --max-len L`` stdout: the ledger bytes are the contract
LEDGER_SHA256 = {
    (4, 18): "35803e1879ed8c8c4e5c3d612c4eba52126130d8293d7a0e9fb504a9069b792b",
    (6, 18): "5a478c3ea389db9f1bdef1714d8b57d048f6ba58d5ec5ee2a92f74dac2012a1e",
    (8, 18): "6fad0dc8cdea5c1659c8c88622d82ad41eba2678f705a0c86602f6a9f7fd9df9",
    (10, 18): "8abd36a60281fb9f2a8f951eb61871806a6f93e0908a081312ab286dfd35dce3",
    (12, 18): "dc7898edbd3973e1c9a0eade3bf7e00224ee85cde1b5ed4633c9e823ccef499f",
    (6, 20): "869cde67f99034768a68db21420b8d52c3947d0b52a51a4796a6afeee1d51ec3",
}


@pytest.mark.parametrize("p,max_len", sorted(LEDGER_SHA256))
def test_ledger_bytes_pinned(capsys, p, max_len):
    assert main(["claims", "--p", str(p), "--max-len", str(max_len)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == LEDGER_SHA256[(p, max_len)]
