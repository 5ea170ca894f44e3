"""Queries over a claims ledger for the formula and acceptance tests.

The library only writes a ledger; reading entries back by id and params
is a test concern.
"""

from hecke_census.formulas import ClaimEntry, ClaimLedger


def ledger_ids(ledger: ClaimLedger) -> set[str]:
    """The claim ids that have at least one entry."""
    return {e.claim_id for e in ledger.entries}


def find_entries(ledger: ClaimLedger, claim_id: str, **match) -> list[ClaimEntry]:
    """The entries of ``claim_id`` whose params hold every ``key=value`` of ``match``."""
    return [
        e for e in ledger.entries
        if e.claim_id == claim_id and all(e.params.get(k) == v for k, v in match.items())
    ]
