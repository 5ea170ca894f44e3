"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion is a separate test function, so the pytest -v report shows
one PASSED/FAILED line per criterion; in addition every test prints an
explicit ``ACCEPTANCE n: PASS/FAIL`` line with its measured runtime.
Stated tolerances: exact equality for all counting checks, 1e-9 for the
dominant-root goldens, 1e-6 for growth convergence and root moduli.
"""

import json
import random
import time

import pytest

from hecke_census.census import FIXTURES, census, enumerate_classes, table_to_json
from hecke_census.cli import main
from hecke_census.formulas import (
    bounded_compositions,
    claims_check,
    lemma26_sum,
    recurrence_extend,
    signed_syllable_count,
)
from hecke_census.reciprocal import Category, classify, normal_form_generate
from hecke_census.spectral import (
    all_roots,
    build_growth_poly,
    dominant_root,
    eval_at_sqrt2,
    sqrt2_sign,
    squarefree_multiplicity,
)
from hecke_census.words import IOTA, CyclicWord, Word, make_params
from composition_reference import compositions
from ledger_queries import find_entries, ledger_ids
from word_reference import cyclic_reduce, reduce


class _Budget:
    """Context manager asserting a wall-clock budget and printing a verdict."""

    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(
            f"ACCEPTANCE {self.criterion}: {verdict} "
            f"({elapsed:.2f}s of {self.seconds:.0f}s budget)"
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _random_word(params, rng):
    syls = []
    for _ in range(rng.randrange(0, 9)):
        if rng.random() < 0.5:
            syls.append(IOTA)
        else:
            syls.append(rng.choice(params.exponent_range(params.p)))
    return reduce(params, syls)


def test_criterion_1_group_laws():
    """10^4 randomized words per p in 3..12; group laws hold exactly."""
    with _Budget("1 (group laws)", 10.0):
        for p in range(3, 13):
            params = make_params(p)
            rng = random.Random(10_000 + p)
            pool = [_random_word(params, rng) for _ in range(10_000)]
            for i in range(0, len(pool) - 2, 3):
                a, b, c = pool[i], pool[i + 1], pool[i + 2]
                assert (a * b) * c == a * (b * c)
            for a in pool[::5]:
                assert a * a.inverse() == Word(params)
                assert reduce(params, a.syllables) == a
            for i in range(0, len(pool) - 1, 20):
                a, h = pool[i], pool[i + 1]
                assert cyclic_reduce(h * a * h.inverse())[0] == cyclic_reduce(a)[0]


def test_criterion_2_census_fixtures():
    """Hand-verified census fixtures, exact equality."""
    with _Budget("2 (census fixtures)", 5.0):
        tables = {4: census(make_params(4), 10), 6: census(make_params(6), 8)}
        for p, column, length, want in FIXTURES:
            assert getattr(tables[p].rows[length], column) == want, (p, column, length)


def test_criterion_3_classification_cross_validation():
    """Reflection classify == coset witness search, p in {4,6}, length <= 20."""
    with _Budget("3 (classification cross-validation)", 30.0):
        for p in (4, 6):
            params = make_params(p)
            for c in enumerate_classes(params, 20):
                info = classify(c, with_witnesses=True)
                witness_types = frozenset(
                    h.involution_type() for h in info.witnesses
                )
                assert witness_types == info.reciprocator_types, (p, c)


def _all_compositions(x):
    if x == 0:
        yield ()
        return
    for first in range(1, x + 1):
        for rest in _all_compositions(x - first):
            yield (first,) + rest


def test_criterion_4_composition_layer():
    """Composition counts equal exhaustive enumeration; corrected sum == census series h."""
    with _Budget("4 (composition layer)", 5.0):
        for x in range(0, 15):
            by_n: dict[int, int] = {}
            by_bound: dict[tuple[int, int], int] = {}
            for parts in _all_compositions(x):
                n = len(parts)
                by_n[n] = by_n.get(n, 0) + 1
                key = (n, max(parts, default=0))
                by_bound[key] = by_bound.get(key, 0) + 1
            for n in range(0, x + 1):
                assert compositions(n, x) == by_n.get(n, 0)
                for r in range(1, 6):
                    brute = sum(
                        v
                        for (nn, top), v in by_bound.items()
                        if nn == n and top <= r
                    )
                    assert bounded_compositions(n, r, x) == brute
        for r in range(2, 6):
            for x in range(2, 15):
                assert lemma26_sum(x, r, corrected=True) == signed_syllable_count(x, r)


def test_criterion_5_spectral():
    """Dominant-root goldens, exact sign probes, squarefreeness."""
    with _Budget("5 (spectral)", 5.0):
        assert abs(dominant_root(build_growth_poly(2)) - 1.6180339887) < 1e-9
        assert abs(dominant_root(build_growth_poly(3)) - 1.8392867552) < 1e-9
        for r in range(2, 11):
            poly = build_growth_poly(r)
            assert poly(2) == 3
            assert sqrt2_sign(*eval_at_sqrt2(poly)) < 0
            assert squarefree_multiplicity(poly) == 1
        for r in range(2, 7):
            poly = build_growth_poly(r)
            rho = dominant_root(poly)
            assert max(abs(z) for z in all_roots(poly)) <= rho + 1e-6


def test_criterion_6_growth_convergence():
    """Census seed + recurrence extension to index 80 converges to rho."""
    with _Budget("6 (growth convergence)", 5.0):
        for p in (6, 4):
            params = make_params(p)
            r = params.r
            table = census(params, 24)
            if r % 2 == 1:
                seed = [table.rows[2 * l].reciprocal_total for l in range(1, 13)]
            else:
                seed = [table.rows[2 * l - 1].reciprocal_total for l in range(2, 13)]
            extended = recurrence_extend(seed, r, 80 - len(seed))
            rho = dominant_root(build_growth_poly(r))
            ratio = extended[-1] / extended[-2]
            assert abs(ratio - rho) < 1e-6, (p, ratio, rho)


def test_criterion_7_claims_ledger(capsys):
    """Ledger completeness and census consistency at p=6, max_len=20."""
    with _Budget("7 (claims ledger)", 120.0):
        params = make_params(6)
        table = census(params, 20)
        ledger = claims_check(params, table)
        expected_ids = {
            "L2.6", "L3.3", "L3.4", "L3.5", "P3.6", "L4.1.1", "L4.1.2",
            "L4.1.3", "L4.7.1", "L4.7.2", "L4.7.3", "MA-5.3.2", "L3.2-NF",
            "L4.6-bracket", "EISEN", "THM-MAIN",
        }
        assert expected_ids <= ledger_ids(ledger)
        # pinned entries with observed == census output
        entry = find_entries(ledger, "L2.6", x=3, r=2)[0]
        assert entry.observed == signed_syllable_count(3, 2) == 1
        entry = find_entries(ledger, "L4.1.1", p=6, l=2)[0]
        assert entry.observed == table.rows[4].reciprocal_total
        entry = find_entries(ledger, "L4.7.1", p=4, l=4)[0]
        assert entry.observed == census(make_params(4), 7).rows[7].reciprocal_total
        # JSON document validates against the shipped schema
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as resources

        schema = json.loads(
            resources.files("hecke_census")
            .joinpath("schemas/claims.schema.json")
            .read_text()
        )
        jsonschema.validate(json.loads(ledger.to_json()), schema)


def test_criterion_8_performance_determinism():
    """Census p=6 at lengths 24 and 120 under 60 s; re-runs give the same
    bytes, and a longer budget leaves the shorter rows unchanged."""
    with _Budget("8 (performance/determinism)", 60.0):
        params = make_params(6)
        baseline = table_to_json(census(params, 24))
        assert table_to_json(census(params, 24)) == baseline
        reach = census(params, 120)
        assert table_to_json(census(params, 120)) == table_to_json(reach)
        assert {length: reach.rows[length] for length in range(2, 25)} == census(params, 24).rows


def test_criterion_9_normal_form_soundness():
    """Every generated normal form is reciprocal; differences are findings."""
    with _Budget("9 (normal-form soundness)", 30.0):
        for p in (4, 6):
            params = make_params(p)
            for bucket in normal_form_generate(params, 14):
                for s in bucket:
                    info = classify(CyclicWord(params, s), with_witnesses=False)
                    assert info.category is not Category.NOT_RECIPROCAL, (p, s)
        # completeness differences surface as ledger entries, exit stays 0
        code = main(["claims", "--p", "6", "--max-len", "12", "--out", "/dev/null"])
        assert code == 0
