"""Published counting formulas, the recurrence engine, and the claims ledger.

The counts of Lemmas 3.3-3.5 evaluate their double sums with the index
bounds exactly as printed; the claims ledger compares them against the
census, and mismatches are findings, not errors.  Only the Lemma 2.6 sum
also has a ``corrected`` mode, with the mechanical index fixes (summand
subscript n-q, inclusive upper bound for the count q of blocks equal to
r, and the empty-composition convention Psi_0(0) = 1): the ledger records
the printed sum, and the tests and ``verify`` check the corrected one
against the census series it counts.

Formulas return an ``int``, or a ``Fraction`` where the published 1/2 or
1/6 factor does not divide exactly; the ledger records such a value as a
MISMATCH finding.

``lemma26_sum`` is the one Lemma 2.6 sum.  The class-count recurrence is
that of the census series h, run by ``census.block_series`` alone: through
``recurrence_extend`` the piecewise families extend their printed seed and
the recurrence claims the census column's r + 1 preceding terms.

The claims that read the census are the ``Claim`` rows of ``CLAIMS`` and
``QUOTED_CLAIMS``, written by one loop; a new such claim is one more row.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable
from math import comb
from typing import NamedTuple

from .census import FIXTURES, CensusTable, _scan, block_series
from .necklaces import reflection_category
from .spectral import (
    build_growth_poly,
    dominant_root,
    encode_basestring_ascii,
    eisenstein_reason,
    eval_at_sqrt2,
    growth_estimate,
    json_block,
    json_text,
    sqrt2_sign,
)
from .words import DomainError, GroupParams, make_params


class NotApplicable(Exception):
    """Formula parameters outside the stated range of a claim."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@functools.cache
def bounded_compositions(n: int, r: int, x: int) -> int:
    """Psi: compositions of x into n parts, each in [1, r], by
    inclusion-exclusion over the parts that exceed r."""
    if r < 1:
        raise DomainError("part bound r must be >= 1")
    if n == 0:
        return 1 if x == 0 else 0
    total = 0
    for j in range(n + 1):
        if x - j * r - 1 < 0:
            break
        total += (-1) ** j * comb(n, j) * comb(x - j * r - 1, n - 1)
    return total


def signed_syllable_count(x: int, r: int) -> int:
    """Ground truth: tuples (n; k1..kn), n > 0, -r < ki <= r, ki != 0,
    with sum |ki| + n = x: the census series h of p = 2r."""
    if r < 2 or x < 2:
        raise DomainError("requires r >= 2 and x >= 2")
    return block_series(make_params(2 * r).block_weights(x), [1], x)[x]


def _double_sum(r: int, q_max: int, corrected: bool, n_lo, n_hi, arg) -> int:
    """Shared kernel: sum over q and n of Psi^{r-1}_(n or n-q)(arg) 2^(n-q) C(n,q)."""
    total = 0
    for q in range(0, q_max + 1):
        lo, hi = n_lo(q), n_hi(q)
        if corrected:
            lo = max(lo, q)
        for n in range(lo, hi + 1):
            sub = n - q if corrected else n
            total += (
                bounded_compositions(sub, r - 1, arg(n, q))
                * 2 ** (n - q)
                * comb(n, q)
            )
    return total


@functools.cache
def lemma26_sum(x: int, r: int, corrected: bool = False) -> int:
    """The published double sum for ``signed_syllable_count``."""
    if r < 2 or x < 2:
        raise DomainError("requires r >= 2 and x >= 2")
    q_max = x // (r + 1) if corrected else _ceil_div(x, r + 1) - 1
    return _double_sum(
        r,
        q_max,
        corrected,
        n_lo=lambda q: _ceil_div(x - q, r),
        n_hi=lambda q: (x - (r - 1) * q) // 2,
        arg=lambda n, q: x - n - r * q,
    )


def _quotient(num: int, den: int):
    """num / den exactly: an int where den divides num, else a Fraction."""
    q, rem = divmod(num, den)
    if not rem:
        return q
    from fractions import Fraction  # imported here: most printed values are integers

    return Fraction(num, den)


def symmetric_count(l: int, params: GroupParams):
    """Published count of symmetric reciprocal classes of word length 2l."""
    r = params.require_even()
    if l < 2:
        raise DomainError("l must be >= 2")
    return _quotient(lemma26_sum(l, r), 2)


@functools.cache
def p_reciprocal_sum(l: int, r: int) -> int:
    """The published double sum of the p-reciprocal count at index l."""
    return _double_sum(
        r,
        _ceil_div(l, r + 1) - 2,
        False,
        n_lo=lambda q: _ceil_div(l - (r + 1) - q, r),
        n_hi=lambda q: (l - 1 - (r + 1) * q - r) // 2,
        arg=lambda n, q: l - (n + 1) - (q + 1) * r,
    )


def p_reciprocal_count(l: int, params: GroupParams):
    """Published count of p-reciprocal classes of word length 2l."""
    r = params.require_even()
    return _quotient(p_reciprocal_sum(l, r), 2)


def symmetric_p_word_length(l: int, params: GroupParams) -> int:
    """Word length of the non-power symmetric p-reciprocal family at index l:
    2l when r is odd, 2l+1 when r is even."""
    r = params.require_even()
    return 2 * l if r % 2 == 1 else 2 * l + 1


def symmetric_p_count(l: int, params: GroupParams):
    """Published count of symmetric p-reciprocal classes at family index l.

    The published shift is ``x = l - u`` for both parities of r, plus the
    power-class term at word lengths that are multiples of r + 1.
    """
    r = params.require_even()
    x = l - params.u
    word_length = symmetric_p_word_length(l, params)
    total = lemma26_sum(x, r) if x >= 2 else 0  # the printed sum is empty at x = 0, 1
    if word_length % (r + 1) == 0 and word_length >= r + 1:
        total += 2  # the power class, counted once after halving
    return _quotient(total, 2)


def _sixth(k: int, m: int) -> int:
    """(2^k + 2(-1)^k)/6 times 6 * 2^m, an integer for k >= -m."""
    return (1 << (k + m)) + ((2 if k % 2 == 0 else -2) << m)


def _piecewise_family(l: int, params: GroupParams, shift: int):
    """Term l of the published piecewise family: (2^k + 2(-1)^k)/6 at k = l - shift
    up to k = r, a u-correction at k = r + 1, then the recurrence.  Only the
    recurrence reads the terms before l.  The seed starts at k = 1 - shift,
    below 0 in the odd-length family, and its terms times 6 * 2^m are
    integers; the recurrence is linear, so it runs on those, and 6 * 2^m is
    divided out of term l alone."""
    r = params.r
    if l - shift <= r:
        m = max(shift - l, 0)
        return _quotient(_sixth(l - shift, m), 6 << m)
    m = max(shift - 1, 0)
    seed = [_sixth(k, m) for k in range(1 - shift, r + 1)]
    seed.append(_sixth(r + 1, m) + _sixth(params.u + 1, m) - (6 << m))
    return _quotient(recurrence_extend(seed, r, l - len(seed))[l - 1], 6 << m)


def total_count_even(l: int, params: GroupParams):
    """Published piecewise/recurrence value of |N_{2l}| (requires r odd)."""
    r = params.require_even()
    if r % 2 != 1:
        raise NotApplicable("even-length piecewise family is stated for odd r")
    if l < 1:
        raise DomainError("l must be >= 1")
    return _piecewise_family(l, params, 0)


def total_count_odd(l: int, params: GroupParams):
    """Published piecewise/recurrence value of |N_{2l-1}| (requires r even)."""
    r = params.require_even()
    if r % 2 != 0:
        raise NotApplicable("odd-length family is stated for even r")
    if l < 2:
        raise DomainError("l must be >= 2")
    return _piecewise_family(l, params, params.u + 1)


def marmolejo_word_count(l: int) -> int:
    """Quoted count of cyclically reduced reciprocal words at length 2l:
    (2^l + 2(-1)^l)/3, an integer for l >= 1."""
    if l < 1:
        raise DomainError("l must be >= 1")
    return _sixth(l, 0) // 3


def recurrence_extend(seed: list[int], r: int, count: int) -> list[int]:
    """Append ``count`` further terms of the class-count recurrence of order
    r + 1, a_l = sum_w b_w a_{l-w} over the block weights b_w of p = 2r, which
    is a_l = 2*sum_{j=1}^{r-1} a_{l-j-1} + a_{l-r-1}."""
    if r < 2:
        raise DomainError("r must be >= 2")
    if len(seed) < r + 1:
        raise DomainError(f"seed must have at least r+1 = {r + 1} terms")
    return block_series(make_params(2 * r).block_weights(r + 1), seed, len(seed) + count - 1)


# ---------------------------------------------------------------------------
# claims ledger


class ClaimEntry(NamedTuple):
    claim_id: str
    params: dict
    expected: object
    observed: object
    status: str  # PASS | MISMATCH | NOT-APPLICABLE
    paper_ref: str


# The ledger's scalars as ``json.dumps`` writes them after ``_jsonable``,
# keyed by exact type, so that a bool never takes the int entry.
_LEDGER_SCALARS = {
    str: encode_basestring_ascii,
    int: '"{}"'.format,
    float: '"{!r}"'.format,
    bool: ("false", "true").__getitem__,
    type(None): lambda v: "null",
}


def _jsonable(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if hasattr(v, "denominator"):  # a Fraction: ints were written above, floats have none
        return f"{v.numerator}/{v.denominator}"
    return v


class ClaimLedger:
    def __init__(self) -> None:
        self.entries: list[ClaimEntry] = []

    def add(self, claim_id, params, expected, observed, status, paper_ref) -> None:
        self.entries.append(
            ClaimEntry(claim_id, dict(params), expected, observed, status, paper_ref)
        )

    def compare(self, claim_id, params, expected, observed, paper_ref) -> None:
        status = "PASS" if expected == observed else "MISMATCH"
        self.add(claim_id, params, expected, observed, status, paper_ref)

    def to_json(self) -> str:
        """The ledger as ``json.dumps({"claims": [...]}, indent=2)`` writes it,
        plus a newline, with each entry's params, expected and observed values
        through ``_jsonable``: one f-string per entry, whose values are
        written by ``_LEDGER_SCALARS`` or, outside it, by ``json_text``."""
        write, text = _LEDGER_SCALARS.get, encode_basestring_ascii
        entries = []
        for claim_id, params, expected, observed, status, paper_ref in self.entries:
            if params:
                members = []
                for k, v in params.items():
                    w = write(type(v))
                    members.append(f"{text(k)}: "
                                   + (w(v) if w else json_text(_jsonable(v), "        ")))
                params = "{\n        " + ",\n        ".join(members) + "\n      }"
            else:
                params = "{}"
            w = write(type(expected))
            expected = w(expected) if w else json_text(_jsonable(expected), "      ")
            w = write(type(observed))
            observed = w(observed) if w else json_text(_jsonable(observed), "      ")
            entries.append(f'{{\n      "id": {text(claim_id)},\n'
                           f'      "params": {params},\n'
                           f'      "expected": {expected},\n'
                           f'      "observed": {observed},\n'
                           f'      "status": {text(status)},\n'
                           f'      "paper_ref": {text(paper_ref)}\n    }}')
        return f'{{\n  "claims": {json_block(entries, "  ")}\n}}\n'


def _even(l: int, params: GroupParams) -> int:
    return 2 * l


def _odd(l: int, params: GroupParams) -> int:
    return 2 * l - 1


def _closed(formula):
    """The closed form ``formula(l, params)`` as a printed value."""
    return lambda l, params, column: formula(l, params)


def _combined_count(l: int, params: GroupParams, column):
    """Proposition 3.6: the three category formulas summed at the word
    length of L3.5's index l; L3.3 and L3.4 count only even lengths."""
    total = symmetric_p_count(l, params)
    if symmetric_p_word_length(l, params) % 2 == 0 and l >= 2:
        total += symmetric_count(l, params) + p_reciprocal_count(l, params)
    return total


def _recurrence(length):
    """The printed recurrence at index l: the census column's r + 1 preceding
    terms extended by one (weight 1 has no blocks, so term l - 1 weighs 0)."""

    def printed(l: int, params: GroupParams, column):
        r = params.r
        preceding = [column[length(m, params)] for m in range(l - r - 1, l)]
        return recurrence_extend(preceding, r, 1)[-1]

    return printed


class Claim(NamedTuple):
    """One census-reading claim: at each index l, its printed value against
    the census column ``column`` at word length ``length(l, params)``.

    ``printed(l, params, column)`` receives that column as a map from word
    length to count.  A claim stated for one parity of r ("r odd" or
    "r even") is absent for the other, apart from one NOT-APPLICABLE entry
    with the paper_ref ``not_applicable`` when that is set."""

    claim_id: str
    paper_ref: str
    column: str
    length: Callable[[int, GroupParams], int]
    indices: Callable[[int, int], Iterable[int]]  # from (r, u); cut where length > max-len
    printed: Callable[[int, GroupParams, dict[int, int]], object]
    keys: tuple[str, ...] = ("l",)  # params after p, of l, word_length, column, relation
    relation: str = ""
    stated_for: str = ""
    not_applicable: str = ""


_ODD_FAMILY = "odd-length family requires even r"

# The census-reading claims in ledger order, in groups.  The rows of a group
# share the first row's index loop: at each l, each row in turn.
CLAIMS: tuple[tuple[Claim, ...], ...] = (
    (Claim("L3.3", "symmetric class count at word length 2l", "symmetric",
           _even, lambda r, u: itertools.count(2), _closed(symmetric_count)),
     Claim("L3.4", "p-reciprocal class count at word length 2l", "p_reciprocal",
           _even, lambda r, u: itertools.count(2), _closed(p_reciprocal_count))),
    (Claim("L3.5", "symmetric p-reciprocal class count", "symmetric_p", symmetric_p_word_length,
           lambda r, u: itertools.count(1), _closed(symmetric_p_count), keys=("l", "word_length")),
     Claim("P3.6", "combined reciprocal class count", "reciprocal_total", symmetric_p_word_length,
           lambda r, u: itertools.count(1), _combined_count, keys=("word_length",))),
    (Claim("L4.1.1", "reciprocal class count at word length 2l, l <= r", "reciprocal_total",
           _even, lambda r, u: range(1, r + 1), _closed(total_count_even), stated_for="r odd",
           not_applicable="even-length piecewise family requires odd r"),),
    (Claim("L4.1.2", "reciprocal class count at word length 2l, l = r+1", "reciprocal_total",
           _even, lambda r, u: (r + 1,), _closed(total_count_even), stated_for="r odd"),),
    (Claim("L4.1.3", "even-length recurrence, l >= r+2", "reciprocal_total", _even,
           lambda r, u: itertools.count(r + 2), _recurrence(_even), keys=("l", "column"),
           stated_for="r odd"),),
    (Claim("L4.7.1", "reciprocal class count at word length 2l-1, small l", "reciprocal_total",
           _odd, lambda r, u: range(2, r + u + 2), _closed(total_count_odd),
           stated_for="r even", not_applicable=_ODD_FAMILY),),
    (Claim("L4.7.2", "reciprocal class count at word length 2l-1, l = r+u+2", "reciprocal_total",
           _odd, lambda r, u: (r + u + 2,), _closed(total_count_odd),
           stated_for="r even", not_applicable=_ODD_FAMILY),),
    (Claim("L4.7.3", "odd-length count equals shifted even-length count", "reciprocal_total",
           _odd, lambda r, u: itertools.count(r + u + 3),
           lambda l, params, column: column[2 * (l - params.u - 1)], keys=("l", "relation"),
           relation="even-family-equality", stated_for="r even", not_applicable=_ODD_FAMILY),
     Claim("L4.7.3", "odd-length recurrence, large l", "reciprocal_total", _odd,
           lambda r, u: itertools.count(r + u + 3), _recurrence(_odd), keys=("l", "relation"),
           relation="recurrence", stated_for="r even")),
    *((Claim("L4.1.3", "per-category even-length recurrence probe", column, _even,
             lambda r, u: itertools.count(r + 2), _recurrence(_even), keys=("l", "column")),)
      for column in ("symmetric", "p_reciprocal", "symmetric_p")),
)

# Census-reading claims quoted from other work, in groups like ``CLAIMS``;
# they are written after the normal-form probe, which fixes the ledger order.
QUOTED_CLAIMS: tuple[tuple[Claim, ...], ...] = (
    (Claim("MA-5.3.2", "quoted reciprocal word count / 2 at word length 2l (l <= r)",
           "reciprocal_total", _even, lambda r, u: range(1, r + 1),
           _closed(lambda l, params: _quotient(marmolejo_word_count(l), 2))),),
)


def _census_claims(ledger: ClaimLedger, params: GroupParams, table: CensusTable,
                   groups: tuple[tuple[Claim, ...], ...]) -> None:
    """Every group of ``groups`` in turn, over the indices l whose word
    length is in the table."""
    r, u = params.r, params.u
    parity = ("even", "odd")[r % 2]
    for group in groups:
        first = group[0]
        if first.stated_for not in ("", f"r {parity}"):
            for claim in group:
                if claim.not_applicable:
                    ledger.add(claim.claim_id, {"p": params.p}, claim.stated_for,
                               f"r={r} {parity}", "NOT-APPLICABLE", claim.not_applicable)
            continue
        columns = [{n: getattr(row, claim.column) for n, row in table.rows.items()}
                   for claim in group]
        for l in first.indices(r, u):
            if first.length(l, params) > table.max_len:
                break
            for claim, column in zip(group, columns):
                length = claim.length(l, params)
                values = {"l": l, "word_length": length, "column": claim.column,
                          "relation": claim.relation}
                ledger.compare(
                    claim.claim_id,
                    {"p": params.p, **{key: values[key] for key in claim.keys}},
                    claim.printed(l, params, column),
                    column[length],
                    claim.paper_ref,
                )


def claims_check(params: GroupParams, table: CensusTable) -> ClaimLedger:
    """One ledger entry per applicable claim instance for this census.

    The claims ask for the same values many times over, and the cached
    formulas (Psi and the printed double sums) compute each once; their
    caches are emptied when this call returns or raises, so no value
    outlives it."""
    params.require_even()
    try:
        return _claims_ledger(params, table)
    finally:
        for formula in (bounded_compositions, lemma26_sum, p_reciprocal_sum):
            formula.cache_clear()


def _claims_ledger(params: GroupParams, table: CensusTable) -> ClaimLedger:
    ledger = ClaimLedger()

    # solution-count double sum, verbatim vs the census series h
    for rr in (2, 3, 4, 5):
        # the census series h of p = 2rr, once: h[x] is signed_syllable_count(x, rr)
        h = block_series(make_params(2 * rr).block_weights(14), [1], 14)
        for x in range(2, 15):
            ledger.compare(
                "L2.6",
                {"x": x, "r": rr},
                lemma26_sum(x, rr),
                h[x],
                "signed-syllable solution count, double-sum form",
            )

    _census_claims(ledger, params, table, CLAIMS)
    _fixture_claims(ledger, params, table)
    _normal_form_claims(ledger, params, min(table.max_len, 12))
    _census_claims(ledger, params, table, QUOTED_CLAIMS)
    _spectral_claims(ledger, params, table)
    return ledger


# Pinned cross-p fixtures: (claim id, p, l), compared with ``census.FIXTURES``.
_PINNED = (("L4.1.1", 6, 2), ("L4.7.1", 4, 4))


def _fixture_claims(ledger: ClaimLedger, params: GroupParams, table: CensusTable) -> None:
    """Pinned small cross-p fixtures, present in every ledger: a claim's
    printed value against the hand-verified ``census.FIXTURES``."""
    for claim_id, p, l in _PINNED:
        claim = next(c for group in CLAIMS for c in group if c.claim_id == claim_id)
        fixture = make_params(p)
        length = claim.length(l, fixture)
        if params.p == p and table.max_len >= length:
            continue  # the census claims already cover this entry
        column = {n: want for q, name, n, want in FIXTURES if (q, name) == (p, claim.column)}
        ledger.compare(
            claim_id,
            {"p": p, "l": l, "fixture": True},
            claim.printed(l, fixture, column),
            column[length],
            f"pinned fixture: reciprocal count at word length {length}",
        )


def _normal_form_claims(ledger: ClaimLedger, params: GroupParams, max_len: int) -> None:
    """Normal-form completeness probe: the generated reciprocal normal
    forms vs the enumeration's reciprocal classes, per length, as least
    rotations.  Asymmetric differences are findings, never silent."""
    from .reciprocal import normal_form_generate  # read per call, as wrappers see it

    forms, scanned = normal_form_generate(params, max_len), _scan(params, max_len)
    for length in range(2, max_len + 1):
        nf = set(forms[length])
        oracle = {s for s in scanned[length] if reflection_category(params.r_byte, s)}
        ledger.compare(
            "L3.2-NF",
            {"p": params.p, "word_length": length},
            "0 extra, 0 missing",
            f"{len(nf - oracle)} extra, {len(oracle - nf)} missing",
            "normal-form generation vs oracle, set equality per length",
        )


def _spectral_claims(ledger, params: GroupParams, table: CensusTable) -> None:
    """The sign bracket, the Eisenstein criterion and the growth rate of
    the characteristic polynomial for r = p/2; its roots are not needed."""
    r = params.r
    assert r is not None
    poly = build_growth_poly(r)
    a, b = eval_at_sqrt2(poly)
    p2 = poly(2)
    bracket_ok = sqrt2_sign(a, b) < 0 and p2 == 3
    ledger.add(
        "L4.6-bracket",
        {"r": r},
        "p(sqrt2) < 0 and p(2) = 3",
        f"p(sqrt2) = {a}+{b}*sqrt2, p(2) = {p2}",
        "PASS" if bracket_ok else "MISMATCH",
        "sign bracket for the dominant root",
    )
    reason = eisenstein_reason(poly)
    ledger.compare(
        "EISEN",
        {"r": r, "prime": 2},
        "satisfied",
        "satisfied" if reason is None else f"not_satisfied ({reason})",
        "Eisenstein criterion at 2 after the x -> x+1 shift",
    )
    # headline growth claim: census seed extended by the recurrence
    seed = [table.rows[2 * l].reciprocal_total for l in range(1, table.max_len // 2 + 1)]
    if len(seed) >= r + 1 and any(seed):
        extended = recurrence_extend(seed, r, 80 - len(seed))
        _, ratio = growth_estimate(extended)[-1]
        diff = abs(ratio - dominant_root(poly))
        ledger.add(
            "THM-MAIN",
            {"p": params.p, "r": r, "index": len(extended)},
            "|ratio - rho| < 1e-06",
            diff,
            "PASS" if diff < 1e-6 else "MISMATCH",
            "growth rate of the reciprocal class counts",
        )
