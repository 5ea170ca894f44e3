"""Command-line front end: census, claims, growth, poly, verify.

A run is fully determined by its command line: no configuration files,
no environment variables, no randomness.  All serialized output is
UTF-8 and newline-terminated, and is byte-identical across re-runs.

A command's argv is parsed once, by that command's own parser; only a
call that it cannot take whole (no command, an unknown one, ``-h`` before
the command, or arguments left over) goes through the top-level parser, so
that every usage error prints what the full parser prints.

Exit codes: 0 all hard assertions pass, 1 hard invariant failure or
numeric failure (a root iteration that does not converge), 2 usage
error.  MISMATCH entries in the claims ledger are findings, not failures.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .census import FIXTURES, census, enumeration_census
from .formulas import (
    claims_check,
    lemma26_sum,
    recurrence_extend,
    signed_syllable_count,
)
from .reciprocal import ConsistencyError, classify, normal_form_generate
from .spectral import (
    analyze_growth,
    build_growth_poly,
    dominant_root,
    growth_estimate,
    growth_multiplicity,
    squarefree_multiplicity,
)
from .words import CyclicWord, DomainError, GroupParams, make_params
from .writers import table_to_csv, table_to_json


@cache  # they hold no per-call state, and building them costs most of a small run
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each command, by name."""
    parser = argparse.ArgumentParser(
        prog="hecke-census",
        description="Exact census of reciprocal conjugacy classes in Z_2 * Z_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--p", type=int, required=True, help="group parameter p >= 3")
        sp.add_argument("--max-len", type=int, required=True, help="word-length budget")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")

    sp = sub.add_parser("census", help="per-length, per-category class counts")
    common(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("claims", help="formula-vs-census claims ledger")
    common(sp)

    sp = sub.add_parser("growth", help="growth report seeded by a census run")
    common(sp)
    sp.add_argument("--extend-to", type=int, default=None,
                    help="recurrence extension index, at least the family seed's length "
                         "(default: the larger of 80 and that length)")

    sp = sub.add_parser("poly", help="characteristic polynomial report")
    sp.add_argument("--r", type=int, required=True, help="recurrence order parameter r >= 2")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("verify", help="scaled hand-verified fixture and invariant suite")
    sp.add_argument("--out", default=None)
    return parser, sub.choices


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def family_seed(params: GroupParams, table) -> list[int]:
    """Reciprocal totals of the parity family matching r: even word
    lengths when r is odd, odd word lengths when r is even."""
    r = params.require_even()
    if r % 2 == 1:
        return [table.rows[2 * l].reciprocal_total for l in range(1, table.max_len // 2 + 1)]
    return [
        table.rows[2 * l - 1].reciprocal_total
        for l in range(2, (table.max_len + 1) // 2 + 1)
    ]


def _cmd_census(args: argparse.Namespace) -> int:
    params = make_params(args.p)
    table = census(params, args.max_len)
    text = table_to_csv(table) if args.format == "csv" else table_to_json(table)
    _emit(text, args.out)
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    params = make_params(args.p)
    params.require_even()
    table = census(params, args.max_len)
    ledger = claims_check(params, table)
    _emit(ledger.to_json(), args.out)
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    params = make_params(args.p)
    r = params.require_even()
    seed = family_seed(params, census(params, args.max_len))
    if len(seed) < r + 1:
        raise DomainError(
            f"--max-len {args.max_len} yields only {len(seed)} family terms; "
            f"need at least r+1 = {r + 1}"
        )
    extend_to = max(80, len(seed)) if args.extend_to is None else args.extend_to
    if extend_to < len(seed):
        raise DomainError(f"--extend-to {extend_to} is below the {len(seed)} family terms")
    extended = recurrence_extend(seed, r, extend_to - len(seed))
    report = analyze_growth(r)._replace(ratio_trace=growth_estimate(extended))
    _emit(report.to_json(), args.out)
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    report = analyze_growth(args.r)
    _emit(report.to_json(), args.out)
    return 0


# word-length budget of verify: the fixtures, the engine check, and the normal
# forms that the classification cross-validation and soundness check read
_CROSS_CHECK_LEN = 14


def _cmd_verify(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    # one census per p for the fixtures (the longest is at length 10) and the engine check
    p4, p6 = make_params(4), make_params(6)
    tables = {params.p: census(params, _CROSS_CHECK_LEN) for params in (p4, p6)}
    for p, column, length, want in FIXTURES:
        got = getattr(tables[p].rows[length], column)
        name = f"p={p} {column.removesuffix('_total')} len {length}"
        check(f"fixture: {name}", got == want, f"expected {want}, got {got}")

    # every normal form: the reflection method against the coset search,
    # then, where the two agree, that the form is reciprocal
    detail = unsound = ""
    for params in (p4, p6):
        for bucket in normal_form_generate(params, _CROSS_CHECK_LEN):
            for c in (CyclicWord(params, s) for s in bucket):
                info = classify(c, with_witnesses=True)
                wtypes = frozenset(w.involution_type() for w in info.witnesses)
                if wtypes != info.reciprocator_types:
                    detail = detail or f"disagreement at {c} (p={params.p})"
                elif not info.is_reciprocal:
                    unsound = unsound or f"non-reciprocal normal form {c} (p={params.p})"
    check("classification cross-validation", not detail, detail)

    # the census engine against the enumeration oracle
    wrong = next((
        f"p={p} len {length}"
        for p, table in tables.items()
        for length, row in enumeration_census(table.params, _CROSS_CHECK_LEN).rows.items()
        if table.rows[length] != row
    ), "")
    check("census engine == enumeration", not wrong, wrong)

    # corrected double sum equals the census series h it counts
    formulas_ok = all(
        lemma26_sum(x, rr, corrected=True) == signed_syllable_count(x, rr)
        for rr in (2, 3, 4) for x in range(2, 12)
    )
    check("corrected double sum == census series h", formulas_ok)

    # spectral fixtures, exact: no root iteration
    rho2, rho3 = (dominant_root(build_growth_poly(rr)) for rr in (2, 3))
    check("rho(r=2) golden", abs(rho2 - 1.6180339887) < 1e-9, f"rho={rho2!r}")
    check("rho(r=3) golden", abs(rho3 - 1.8392867552) < 1e-9, f"rho={rho3!r}")
    # the gcd chain and the three-term criterion that analyze_growth reads
    check(
        "squarefree r=2..10",
        all(squarefree_multiplicity(build_growth_poly(rr)) == growth_multiplicity(rr) == 1
            for rr in range(2, 11)),
    )

    # normal-form soundness, from the normal-form loop above
    check("normal-form soundness", not unsound, unsound)

    lines = []
    failed = 0
    for name, ok, det in checks:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        suffix = f"  ({det})" if det and not ok else ""
        lines.append(f"[{status}] {name}{suffix}")
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failed == 0 else 1


_COMMANDS = {
    "census": _cmd_census,
    "claims": _cmd_claims,
    "growth": _cmd_growth,
    "poly": _cmd_poly,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or rest:  # the full parser prints the usage error
        args = parser.parse_args(argv)
    # exact counts may pass the int <-> str digit limit of Python >= 3.10.7
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ArithmeticError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
