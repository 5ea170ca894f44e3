"""Published counting formulas, the recurrence engine, and the claims ledger.

Each double-sum formula has a ``verbatim`` mode evaluating the printed
index bounds exactly as published, and a ``corrected`` mode applying the
mechanical index fixes (summand subscript n-q, inclusive upper bound for
the count q of blocks equal to r, and the empty-composition convention
Psi_0(0) = 1).  The claims ledger compares the verbatim forms against the
brute-force census; mismatches are findings, not errors.  The corrected
forms are library functions outside the ledger; the tests and ``verify``
check the corrected Lemma 2.6 sum against its dynamic-programming count.

Formulas return an ``int``, or a ``Fraction`` where the published 1/2 or
1/6 factor does not divide exactly; the ledger records such a value as a
MISMATCH finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .census import FIXTURES, CensusTable
from .words import DomainError, GroupParams, make_params


class NotApplicable(Exception):
    """Formula parameters outside the stated range of a claim."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def compositions(n: int, x: int) -> int:
    """Number of ordered tuples of n positive integers summing to x."""
    if n == 0:
        return 1 if x == 0 else 0
    if x < n:
        return 0
    return comb(x - 1, n - 1)


def bounded_compositions(n: int, r: int, x: int) -> int:
    """Compositions of x into n parts, each in [1, r] (dynamic programming)."""
    if r < 1:
        raise DomainError("part bound r must be >= 1")
    if n == 0:
        return 1 if x == 0 else 0
    if x < n or x > n * r:
        return 0
    row = [0] * (x + 1)
    row[0] = 1
    for _ in range(n):
        nxt = [0] * (x + 1)
        for total in range(1, x + 1):
            nxt[total] = sum(row[total - part] for part in range(1, min(r, total) + 1))
        row = nxt
    return row[x]


def bounded_compositions_incl_excl(n: int, r: int, x: int) -> int:
    """Inclusion-exclusion cross-check for ``bounded_compositions``."""
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
    with sum |ki| + n = x.  Direct dynamic programming over the weight
    |ki| + 1 contributed by each block."""
    if r < 2 or x < 2:
        raise DomainError("requires r >= 2 and x >= 2")
    ways = [0] * (x + 1)
    ways[0] = 1
    for total in range(2, x + 1):
        acc = 0
        for a in range(1, r):
            if total - (a + 1) >= 0:
                acc += 2 * ways[total - (a + 1)]
        if total - (r + 1) >= 0:
            acc += ways[total - (r + 1)]
        ways[total] = acc
    return ways[x]


def _double_sum(
    x: int, r: int, q_max: int, corrected: bool, n_lo, n_hi, arg
) -> int:
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


def _signed_sum(x: int, r: int, corrected: bool, n_min: int = 0) -> int:
    """The Lemma 2.6 double sum in x, with block counts n >= ``n_min``."""
    q_max = x // (r + 1) if corrected else _ceil_div(x, r + 1) - 1
    return _double_sum(
        x,
        r,
        q_max,
        corrected,
        n_lo=lambda q: max(_ceil_div(x - q, r), n_min),
        n_hi=lambda q: (x - (r - 1) * q) // 2,
        arg=lambda n, q: x - n - r * q,
    )


def lemma26_sum(x: int, r: int, corrected: bool = False) -> int:
    """The published double sum for ``signed_syllable_count``."""
    if r < 2 or x < 2:
        raise DomainError("requires r >= 2 and x >= 2")
    return _signed_sum(x, r, corrected)


def _as_int_or_fraction(v: Fraction):
    return int(v) if v.denominator == 1 else v


def symmetric_count(l: int, params: GroupParams, corrected: bool = False):
    """Published count of symmetric reciprocal classes of word length 2l."""
    r = params.require_even()
    if l < 2:
        raise DomainError("l must be >= 2")
    return _as_int_or_fraction(Fraction(_signed_sum(l, r, corrected), 2))


def p_reciprocal_count(l: int, params: GroupParams, corrected: bool = False):
    """Published count of p-reciprocal classes of word length 2l."""
    r = params.require_even()
    if l < r + 2:
        return 0
    q_max = (
        (l - r - 1) // (r + 1) if corrected else _ceil_div(l, r + 1) - 2
    )
    total = _double_sum(
        l,
        r,
        q_max,
        corrected,
        n_lo=lambda q: _ceil_div(l - (r + 1) - q, r),
        n_hi=lambda q: (l - 1 - (r + 1) * q - r) // 2,
        arg=lambda n, q: l - (n + 1) - (q + 1) * r,
    )
    return _as_int_or_fraction(Fraction(total, 2))


def symmetric_p_word_length(l: int, params: GroupParams) -> int:
    """Word length of the non-power symmetric p-reciprocal family at index l:
    2l when r is odd, 2l+1 when r is even."""
    r = params.require_even()
    return 2 * l if r % 2 == 1 else 2 * l + 1


def symmetric_p_count(l: int, params: GroupParams, corrected: bool = False):
    """Published count of symmetric p-reciprocal classes at family index l.

    The published shift is ``x = l - u`` for both parities of r; the
    corrected mode uses the derivation-consistent ``x = l - u - 1`` when
    r is odd and restricts to n > 0.  Both modes add the power-class
    term at word lengths that are multiples of r + 1.
    """
    r = params.require_even()
    u = params.u
    assert u is not None
    word_length = symmetric_p_word_length(l, params)
    x = l - u - 1 if corrected and r % 2 == 1 else l - u
    total = _signed_sum(x, r, corrected, n_min=1 if corrected else 0) if x >= 0 else 0
    if word_length % (r + 1) == 0 and word_length >= r + 1:
        total += 2  # the power class, counted once after halving
    return _as_int_or_fraction(Fraction(total, 2))


def _sixth(l: int) -> Fraction:
    # exact for every integer l: the odd-length family reaches l < 0 when p >= 8
    return (Fraction(2) ** l + (2 if l % 2 == 0 else -2)) / 6


def _recur(a, l: int, r: int):
    """Term l of a_l = 2*sum_{j=1}^{r-1} a_{l-j-1} + a_{l-r-1}; ``a`` maps index to term."""
    return 2 * sum(a[l - j - 1] for j in range(1, r)) + a[l - r - 1]


def _piecewise_family(l: int, params: GroupParams, shift: int):
    """Term l of the published piecewise family: (2^k + 2(-1)^k)/6 at k = m - shift
    up to k = r, a u-correction at k = r + 1, then the recurrence."""
    r, u = params.r, params.u
    assert r is not None and u is not None
    seq: dict[int, Fraction] = {}
    for m in range(1, l + 1):
        k = m - shift
        if k <= r:
            seq[m] = _sixth(k)
        elif k == r + 1:
            seq[m] = _sixth(k) + _sixth(u + 1) - 1
        else:
            seq[m] = _recur(seq, m, r)
    return _as_int_or_fraction(seq[l])


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


def marmolejo_word_count(l: int) -> Fraction:
    """Quoted count of cyclically reduced reciprocal words at length 2l."""
    if l < 1:
        raise DomainError("l must be >= 1")
    return Fraction(2**l + 2 * (-1) ** l, 3)


def recurrence_extend(seed: list[int], r: int, count: int) -> list[int]:
    """Append ``count`` further terms of a_l = 2*sum_{j=1}^{r-1} a_{l-j-1} + a_{l-r-1}."""
    if len(seed) < r + 1:
        raise DomainError(f"seed must have at least r+1 = {r + 1} terms")
    out = list(seed)
    for _ in range(count):
        out.append(_recur(out, len(out), r))
    return out


# ---------------------------------------------------------------------------
# claims ledger


@dataclass(frozen=True)
class ClaimEntry:
    claim_id: str
    params: dict
    expected: object
    observed: object
    status: str  # PASS | MISMATCH | NOT-APPLICABLE
    paper_ref: str

    def to_doc(self) -> dict:
        return {
            "id": self.claim_id,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "expected": _jsonable(self.expected),
            "observed": _jsonable(self.observed),
            "status": self.status,
            "paper_ref": self.paper_ref,
        }


def _jsonable(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    return v


@dataclass
class ClaimLedger:
    entries: list[ClaimEntry] = field(default_factory=list)

    def add(self, claim_id, params, expected, observed, status, paper_ref) -> None:
        self.entries.append(
            ClaimEntry(claim_id, dict(params), expected, observed, status, paper_ref)
        )

    def compare(self, claim_id, params, expected, observed, paper_ref) -> None:
        status = "PASS" if expected == observed else "MISMATCH"
        self.add(claim_id, params, expected, observed, status, paper_ref)

    def ids(self) -> set[str]:
        return {e.claim_id for e in self.entries}

    def find(self, claim_id: str, **match) -> list[ClaimEntry]:
        out = []
        for e in self.entries:
            if e.claim_id != claim_id:
                continue
            if all(e.params.get(k) == v for k, v in match.items()):
                out.append(e)
        return out

    def to_json(self) -> str:
        return json.dumps({"claims": [e.to_doc() for e in self.entries]}, indent=2) + "\n"


def claims_check(params: GroupParams, table: CensusTable, spectral=None) -> ClaimLedger:
    """One ledger entry per applicable claim instance for this census.

    ``spectral`` is an optional GrowthReport for r = p/2; spectral claims
    are skipped when it is absent.
    """
    r = params.require_even()
    u = params.u
    assert u is not None
    max_len = table.max_len
    ledger = ClaimLedger()

    # solution-count double sum, verbatim vs DP ground truth
    for rr in (2, 3, 4, 5):
        for x in range(2, 15):
            ledger.compare(
                "L2.6",
                {"x": x, "r": rr},
                lemma26_sum(x, rr, corrected=False),
                signed_syllable_count(x, rr),
                "signed-syllable solution count, double-sum form",
            )

    # per-length category formulas vs census columns
    for l in range(2, max_len // 2 + 1):
        ledger.compare(
            "L3.3",
            {"p": params.p, "l": l},
            symmetric_count(l, params),
            table.rows[2 * l].symmetric,
            "symmetric class count at word length 2l",
        )
        ledger.compare(
            "L3.4",
            {"p": params.p, "l": l},
            p_reciprocal_count(l, params),
            table.rows[2 * l].p_reciprocal,
            "p-reciprocal class count at word length 2l",
        )
    for l in range(1, max_len + 1):
        wl = symmetric_p_word_length(l, params)
        if wl < 2 or wl > max_len:
            continue
        ledger.compare(
            "L3.5",
            {"p": params.p, "l": l, "word_length": wl},
            symmetric_p_count(l, params),
            table.rows[wl].symmetric_p,
            "symmetric p-reciprocal class count",
        )
        # Proposition totals: the three category formulas combined
        expected = symmetric_p_count(l, params)
        if wl % 2 == 0:
            ll = wl // 2
            if ll >= 2:
                expected += symmetric_count(ll, params) + p_reciprocal_count(ll, params)
        ledger.compare(
            "P3.6",
            {"p": params.p, "word_length": wl},
            expected,
            table.rows[wl].reciprocal_total,
            "combined reciprocal class count",
        )

    _even_family_claims(ledger, params, table)
    _odd_family_claims(ledger, params, table)
    _category_recurrence_probe(ledger, params, table)
    _fixture_claims(ledger, params, table)
    _normal_form_claims(ledger, params, min(max_len, 12))

    # Marmolejo cross-check at small even lengths
    for l in range(1, min(r, max_len // 2) + 1):
        expected = _as_int_or_fraction(marmolejo_word_count(l) / 2)
        ledger.compare(
            "MA-5.3.2",
            {"p": params.p, "l": l},
            expected,
            table.rows[2 * l].reciprocal_total,
            "quoted reciprocal word count / 2 at word length 2l (l <= r)",
        )

    if spectral is not None:
        _spectral_claims(ledger, params, table, spectral)
    return ledger


def _even_family_claims(ledger: ClaimLedger, params: GroupParams, table: CensusTable) -> None:
    r = params.r
    assert r is not None
    max_l = table.max_len // 2
    if r % 2 != 1:
        ledger.add(
            "L4.1.1",
            {"p": params.p},
            "r odd",
            f"r={r} even",
            "NOT-APPLICABLE",
            "even-length piecewise family requires odd r",
        )
        return
    even = {l: table.rows[2 * l].reciprocal_total for l in range(1, max_l + 1)}
    for l, observed in even.items():
        if l <= r:
            ledger.compare(
                "L4.1.1",
                {"p": params.p, "l": l},
                total_count_even(l, params),
                observed,
                "reciprocal class count at word length 2l, l <= r",
            )
        elif l == r + 1:
            ledger.compare(
                "L4.1.2",
                {"p": params.p, "l": l},
                total_count_even(l, params),
                observed,
                "reciprocal class count at word length 2l, l = r+1",
            )
        else:
            ledger.compare(
                "L4.1.3",
                {"p": params.p, "l": l, "column": "reciprocal_total"},
                _recur(even, l, r),
                observed,
                "even-length recurrence, l >= r+2",
            )


def _odd_family_claims(ledger: ClaimLedger, params: GroupParams, table: CensusTable) -> None:
    r = params.r
    u = params.u
    assert r is not None and u is not None
    if r % 2 != 0:
        for claim_id in ("L4.7.1", "L4.7.2", "L4.7.3"):
            ledger.add(
                claim_id,
                {"p": params.p},
                "r even",
                f"r={r} odd",
                "NOT-APPLICABLE",
                "odd-length family requires even r",
            )
        return
    max_l = (table.max_len + 1) // 2
    odd = {l: table.rows[2 * l - 1].reciprocal_total for l in range(2, max_l + 1)}
    for l, observed in odd.items():
        if l <= r + u + 1:
            ledger.compare(
                "L4.7.1",
                {"p": params.p, "l": l},
                total_count_odd(l, params),
                observed,
                "reciprocal class count at word length 2l-1, small l",
            )
        elif l == r + u + 2:
            ledger.compare(
                "L4.7.2",
                {"p": params.p, "l": l},
                total_count_odd(l, params),
                observed,
                "reciprocal class count at word length 2l-1, l = r+u+2",
            )
        else:
            even_len = 2 * (l - u - 1)
            if even_len >= 2:
                ledger.compare(
                    "L4.7.3",
                    {"p": params.p, "l": l, "relation": "even-family-equality"},
                    table.rows[even_len].reciprocal_total,
                    observed,
                    "odd-length count equals shifted even-length count",
                )
            if l - r - 1 in odd:  # every term is a census row
                ledger.compare(
                    "L4.7.3",
                    {"p": params.p, "l": l, "relation": "recurrence"},
                    _recur(odd, l, r),
                    observed,
                    "odd-length recurrence, large l",
                )


def _category_recurrence_probe(
    ledger: ClaimLedger, params: GroupParams, table: CensusTable
) -> None:
    r = params.r
    assert r is not None
    max_l = table.max_len // 2
    for column in ("symmetric", "p_reciprocal", "symmetric_p"):
        col = {l: getattr(table.rows[2 * l], column) for l in range(1, max_l + 1)}
        for l in range(r + 2, max_l + 1):
            ledger.compare(
                "L4.1.3",
                {"p": params.p, "l": l, "column": column},
                _recur(col, l, r),
                col[l],
                "per-category even-length recurrence probe",
            )


# Pinned cross-p fixtures: (claim id, p, l, word length, formula).
_PINNED = (
    ("L4.1.1", 6, 2, 4, total_count_even),
    ("L4.7.1", 4, 4, 7, total_count_odd),
)


def _fixture_claims(ledger: ClaimLedger, params: GroupParams, table: CensusTable) -> None:
    """Pinned small cross-p fixtures, present in every ledger.  The observed
    values are the hand-verified ``census.FIXTURES``."""
    observed = {(p, length): want for p, column, length, want in FIXTURES
                if column == "reciprocal_total"}
    for claim_id, p, l, length, formula in _PINNED:
        if params.p == p and table.max_len >= length:
            continue  # the main loop already covers this entry
        ledger.compare(
            claim_id,
            {"p": p, "l": l, "fixture": True},
            formula(l, make_params(p)),
            observed[(p, length)],
            f"pinned fixture: reciprocal count at word length {length}",
        )


def _normal_form_claims(ledger: ClaimLedger, params: GroupParams, max_len: int) -> None:
    """Normal-form completeness probe: the generated reciprocal normal
    forms vs the oracle's reciprocal classes, per length.  Asymmetric
    differences are findings, never silent."""
    from .census import enumerate_classes
    from .reciprocal import is_reciprocal, normal_form_generate

    by_length: dict[int, set] = {length: set() for length in range(2, max_len + 1)}
    for c in enumerate_classes(params, max_len):
        if is_reciprocal(c):
            by_length[c.word_length()].add(c)
    for length in range(2, max_len + 1):
        nf = normal_form_generate(params, length)
        oracle = by_length[length]
        extra = len(nf - oracle)
        missing = len(oracle - nf)
        ledger.compare(
            "L3.2-NF",
            {"p": params.p, "word_length": length},
            "0 extra, 0 missing",
            f"{extra} extra, {missing} missing",
            "normal-form generation vs oracle, set equality per length",
        )


def _spectral_claims(ledger, params: GroupParams, table: CensusTable, spectral) -> None:
    from .spectral import eval_at_sqrt2, sqrt2_sign

    r = params.r
    assert r is not None
    a, b = eval_at_sqrt2(spectral.poly)
    p2 = spectral.poly(2)
    bracket_ok = sqrt2_sign(a, b) < 0 and p2 == 3
    ledger.add(
        "L4.6-bracket",
        {"r": r},
        "p(sqrt2) < 0 and p(2) = 3",
        f"p(sqrt2) = {a}+{b}*sqrt2, p(2) = {p2}",
        "PASS" if bracket_ok else "MISMATCH",
        "sign bracket for the dominant root",
    )
    ei = spectral.eisenstein
    ledger.add(
        "EISEN",
        {"r": r, "prime": 2},
        "satisfied",
        "satisfied" if ei["satisfied"] else f"not_satisfied ({ei['reason']})",
        "PASS" if ei["satisfied"] else "MISMATCH",
        "Eisenstein criterion at 2 after the x -> x+1 shift",
    )
    # headline growth claim: census seed extended by the recurrence
    seed = [table.rows[2 * l].reciprocal_total for l in range(1, table.max_len // 2 + 1)]
    if len(seed) >= r + 1 and any(seed):
        extended = recurrence_extend(seed, r, 80 - len(seed))
        ratio = extended[-1] / extended[-2]
        diff = abs(ratio - spectral.rho)
        ledger.add(
            "THM-MAIN",
            {"p": params.p, "r": r, "index": len(extended)},
            "|ratio - rho| < 1e-06",
            diff,
            "PASS" if diff < 1e-6 else "MISMATCH",
            "growth rate of the reciprocal class counts",
        )
