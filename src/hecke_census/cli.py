"""Command-line front end: census, claims, growth, poly, verify.

A run is fully determined by its command line: no configuration files,
no environment variables, no randomness.  All serialized output is
UTF-8 and newline-terminated, and is byte-identical across re-runs.

Exit codes: 0 all hard assertions pass, 1 hard invariant failure or
numeric failure (a root iteration that does not converge), 2 usage
error.  MISMATCH entries in the claims ledger are findings, not failures.
"""

from __future__ import annotations

import argparse
import sys

from .census import FIXTURES, census, table_to_csv, table_to_json
from .formulas import (
    claims_check,
    lemma26_sum,
    recurrence_extend,
    signed_syllable_count,
)
from .reciprocal import Category, classify, normal_form_generate
from .spectral import analyze_growth, growth_estimate
from .words import DomainError, GroupParams, make_params


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke-census",
        description="Exact census of reciprocal conjugacy classes in Z_2 * Z_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, p: bool = True, max_len: bool = True) -> None:
        if p:
            sp.add_argument("--p", type=int, required=True, help="group parameter p >= 3")
        if max_len:
            sp.add_argument("--max-len", type=int, required=True, help="word-length budget")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")

    sp = sub.add_parser("census", help="per-length, per-category class counts")
    common(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("claims", help="formula-vs-census claims ledger")
    common(sp)
    sp.add_argument("--format", choices=("json",), default="json")

    sp = sub.add_parser("growth", help="growth report seeded by a census run")
    common(sp)
    sp.add_argument("--extend-to", type=int, default=80, help="recurrence extension index")
    sp.add_argument("--tol", type=float, default=1e-12, help="dominant-root tolerance")

    sp = sub.add_parser("poly", help="characteristic polynomial report")
    sp.add_argument("--r", type=int, required=True, help="recurrence order parameter r >= 2")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("verify", help="scaled hand-verified fixture and invariant suite")
    sp.add_argument("--max-len", type=int, default=14, help="cross-validation length budget")
    sp.add_argument("--out", default=None)
    return parser


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
    spectral = analyze_growth(params.r)
    ledger = claims_check(params, table, spectral=spectral)
    _emit(ledger.to_json(), args.out)
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    params = make_params(args.p)
    r = params.require_even()
    table = census(params, args.max_len)
    report = analyze_growth(r, tol=args.tol)
    seed = family_seed(params, table)
    if len(seed) < r + 1:
        raise DomainError(
            f"--max-len {args.max_len} yields only {len(seed)} family terms; "
            f"need at least r+1 = {r + 1}"
        )
    extended = recurrence_extend(seed, r, max(0, args.extend_to - len(seed)))
    estimate = growth_estimate(extended, report.rho, report.s)
    from dataclasses import replace

    report = replace(report, ratio_trace=tuple(estimate["ratio_trace"]))
    _emit(report.to_json(), args.out)
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    report = analyze_growth(args.r, tol=args.tol)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    # each fixture table reaches its longest fixture; --max-len bounds the cross-checks
    p4, p6 = make_params(4), make_params(6)
    longest = {p: max(length for q, _, length, _ in FIXTURES if q == p) for p in (4, 6)}
    tables = {params.p: census(params, longest[params.p]) for params in (p4, p6)}
    for p, column, length, want in FIXTURES:
        got = getattr(tables[p].rows[length], column)
        name = f"p={p} {column.removesuffix('_total')} len {length}"
        check(f"fixture: {name}", got == want, f"expected {want}, got {got}")

    # classification cross-validation: reflection method vs coset search
    from .census import enumerate_classes

    agree = True
    detail = ""
    budget = min(args.max_len, 14)
    for params in (p4, p6):
        for c in enumerate_classes(params, budget):
            info = classify(c, with_witnesses=True)
            if info.is_reciprocal:
                wtypes = frozenset(
                    w.involution_type() for w in info.witnesses
                )
                if wtypes != info.reciprocator_types:
                    agree = False
                    detail = f"disagreement at {c} (p={params.p})"
                    break
        if not agree:
            break
    check("classification cross-validation", agree, detail)

    # corrected double sum equals the DP ground truth
    formulas_ok = all(
        lemma26_sum(x, rr, corrected=True) == signed_syllable_count(x, rr)
        for rr in (2, 3, 4) for x in range(2, 12)
    )
    check("corrected double sum == DP ground truth", formulas_ok)

    # spectral fixtures
    g2, g3 = analyze_growth(2), analyze_growth(3)
    check("rho(r=2) golden", abs(g2.rho - 1.6180339887) < 1e-9, f"rho={g2.rho!r}")
    check("rho(r=3) golden", abs(g3.rho - 1.8392867552) < 1e-9, f"rho={g3.rho!r}")
    check("squarefree r=2..10", all(analyze_growth(rr).s == 1 for rr in range(2, 11)))

    # normal-form soundness
    sound = True
    detail = ""
    for params in (p4, p6):
        for length in range(2, min(args.max_len, 12) + 1):
            for c in normal_form_generate(params, length):
                info = classify(c, with_witnesses=False)
                if info.category is Category.NOT_RECIPROCAL:
                    sound = False
                    detail = f"non-reciprocal normal form {c} (p={params.p})"
                    break
    check("normal-form soundness", sound, detail)

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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
