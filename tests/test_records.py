"""The package's records: repr, hash, immutability and equality by value."""

import subprocess
import sys
from pathlib import Path

import pytest

import hecke_census
from hecke_census.census import CensusRow, census
from hecke_census.formulas import ClaimEntry
from hecke_census.reciprocal import classify
from hecke_census.spectral import GrowthReport, IntPoly, build_growth_poly
from hecke_census.words import CyclicWord, GroupParams, Word, _Frozen, make_params
from word_reference import key, parse

P6 = make_params(6)
_W = "Word(params=GroupParams(p=6), syllables=({}))"


def _report(s):
    return GrowthReport(3, IntPoly((1, 2)), 1.5, (1.5 + 0j,), s, {"satisfied": False},
                        ((3, 1.5),))


# (build, a variant that differs in one field, field names, repr of build())
RECORDS = {
    "GroupParams": (lambda: GroupParams(6), lambda: GroupParams(8), ("p",),
                    "GroupParams(p=6)"),
    "Word": (lambda: parse(P6, "i g^2 i g^-1"), lambda: parse(P6, "i g^2 i g^1"),
             ("params", "syllables"), _W.format("0, 2, 0, -1")),
    "CyclicWord": (lambda: key(P6, (2, 1)), lambda: key(make_params(8), (2, 1)),
                   ("params", "block_exponents"),
                   "CyclicWord(params=GroupParams(p=6), block_exponents=(1, 2))"),
    "CensusRow": (lambda: census(P6, 8).rows[8], lambda: CensusRow(2, 0, 3, 0, 19),
                  ("symmetric", "p_reciprocal", "symmetric_p", "power", "all_classes"),
                  "CensusRow(symmetric=2, p_reciprocal=0, symmetric_p=3, power=1, "
                  "all_classes=19)"),
    "ReciprocalInfo": (lambda: classify(key(P6, (3, 3))), lambda: classify(key(P6, (3, 3, 3))),
                       ("category", "power_exponent", "witnesses"),
                       "ReciprocalInfo(category=<Category.SYMMETRIC_P_RECIPROCAL: 3>, "
                       f"power_exponent=2, witnesses=({_W.format('0,')}, {_W.format('3,')}))"),
    "IntPoly": (lambda: build_growth_poly(3), lambda: build_growth_poly(4), ("coefficients",),
                "IntPoly(coefficients=(-1, -2, -2, 0, 1))"),
    "GrowthReport": (lambda: _report(1), lambda: _report(2),
                     ("r", "poly", "rho", "roots", "s", "eisenstein", "ratio_trace"),
                     "GrowthReport(r=3, poly=IntPoly(coefficients=(1, 2)), rho=1.5, "
                     "roots=((1.5+0j),), s=1, eisenstein={'satisfied': False}, "
                     "ratio_trace=((3, 1.5),))"),
    "ClaimEntry": (lambda: ClaimEntry("L3.3", {"p": 6, "l": 2}, 1, 2, "MISMATCH", "ref"),
                   lambda: ClaimEntry("L3.3", {"p": 6, "l": 2}, 1, 1, "MISMATCH", "ref"),
                   ("claim_id", "params", "expected", "observed", "status", "paper_ref"),
                   "ClaimEntry(claim_id='L3.3', params={'p': 6, 'l': 2}, expected=1, "
                   "observed=2, status='MISMATCH', paper_ref='ref')"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_is_pinned(name):
    build, _, _, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_record_hashes_as_its_field_tuple(name):
    """Set and dict orders follow from these hashes; a record with a dict
    field is unhashable, as its field tuple is."""
    build, _, names, _ = RECORDS[name]
    x = build()
    assert type(x)._fields == names
    values = tuple(getattr(x, n) for n in names)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_frozen(name):
    build, _, names, _ = RECORDS[name]
    x = build()
    for n in (*names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(x, n, None)
    for n in names:
        with pytest.raises(AttributeError):
            delattr(x, n)
    assert repr(x) == repr(build())


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_value(name):
    build, variant, names, _ = RECORDS[name]
    x, y, z = build(), build(), variant()
    assert x == y and not x != y
    assert x != z and not x == z
    assert sum(getattr(x, n) != getattr(z, n) for n in names) == 1


class _Pair(_Frozen):
    _fields = ("a", "b")

    def __init__(self, a, b):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class _OtherPair(_Pair):
    pass


def test_frozen_records_share_one_equality_and_hash():
    """``_Frozen`` alone defines equality and hashing, from ``_fields``."""
    x = _Pair(1, (2, 3))
    assert x == _Pair(1, (2, 3)) and not x != _Pair(1, (2, 3))
    assert x != _Pair(1, (2, 4)) and x != _Pair(0, (2, 3))
    assert x != _OtherPair(1, (2, 3)) and _OtherPair(1, (2, 3)) != x
    assert x != (1, (2, 3))
    assert hash(x) == hash((1, (2, 3)))
    for cls in (GroupParams, Word, CyclicWord):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls


def test_cli_import_loads_no_module_that_a_command_can_skip():
    """Each CLI run is a fresh process.  dataclasses and inspect cost about
    as much to import as the whole package; json, fractions (with decimal
    and numbers) and cmath are imported only by the code that uses them."""
    skippable = ["dataclasses", "inspect", "json", "fractions", "decimal", "numbers", "cmath"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import hecke_census.cli; "
            f"print(sorted(set({skippable!r}) & (set(sys.modules) - before)))")
    src = str(Path(hecke_census.__file__).parents[1])
    done = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
