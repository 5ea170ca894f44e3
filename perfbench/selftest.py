"""Self-test of the benchmark's gate, run from the root of a checkout:

    python3 perfbench/selftest.py

It injects faults into the package in this process only and checks that

1. a census output with one count off by one is a failed op;
2. an exception raised inside ``cli.main`` is a failed op, and so is a
   known-failing probe that raises a different exception than recorded;
3. a known-failing probe that starts to succeed raises ``ok_ratio`` and
   leaves ``wall_s`` unchanged.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import random
import sys

from run import SRC, load_lib, run_pass, tally, wall_s
from workloads import FAILED, KNOWN, OK, WORKLOADS, Checker, census_op, execute, load_golden, poly_op


@contextlib.contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def verdict(lib, checker, op) -> str:
    _, rc, out, exc = execute(lib, op)
    return checker.judge(op, rc, out, exc)[0]


def main() -> int:
    lib = load_lib()
    checker = Checker(load_golden(), SRC)
    results = []

    def expect(name, got, want):
        results.append(got == want)
        print(f"[{'PASS' if got == want else 'FAIL'}] {name}: got {got!r}, want {want!r}")

    census = census_op(5, 20)
    expect("untouched census is ok", verdict(lib, checker, census), OK)

    def off_by_one(table):
        *head, last = lib.census.table_to_csv(table).rstrip("\n").split("\n")
        fields = last.split(",")
        fields[1] = str(int(fields[1]) + 1)
        return "\n".join(head + [",".join(fields)]) + "\n"

    with patched(lib.cli, "table_to_csv", off_by_one):
        expect("census with one count off by one", verdict(lib, checker, census), FAILED)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    with patched(lib.cli, "census", broken):
        expect("exception inside main", verdict(lib, checker, census), FAILED)

    probe = poly_op(20)
    expect("probe failing as recorded", verdict(lib, checker, probe), KNOWN)
    with patched(lib.spectral, "all_roots", broken):
        expect("probe raising another exception", verdict(lib, checker, probe), FAILED)

    # a fixed root finder: the seed's iteration with a residual bound scaled
    # to the polynomial's size at the roots
    original_all_roots = lib.spectral.all_roots

    def fixed_all_roots(poly, tol=1e-10, max_iter=1000):
        return original_all_roots(poly, tol=tol * 2.0 ** poly.degree, max_iter=max_iter)

    ops = WORKLOADS["ledger"]
    before = run_pass(lib, ops, random.Random(1), checker)
    with patched(lib.spectral, "all_roots", fixed_all_roots):
        expect("probe that starts to succeed", verdict(lib, checker, probe), OK)
        fixed = {r.op: r for r in run_pass(lib, ops, random.Random(1), checker)}
    # the same pass, except that the probes now run under the fix
    after = [fixed[r.op] if checker.is_probe(r.op) else r for r in before]
    ok_before, ok_after = (tally(p)[2] / tally(p)[0] for p in (before, after))
    expect(f"ok_ratio {ok_before:.4f} -> {ok_after:.4f} rises", ok_after > ok_before, True)
    expect("fixed probes leave wall_s unchanged", wall_s([after], checker), wall_s([before], checker))

    print(f"{sum(results)}/{len(results)} gate checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
