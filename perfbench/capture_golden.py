"""Write ``golden.json``: the expected results the benchmark checks against.

Run once, from the root of a checkout of the commit whose outputs are the
reference.  The goldens define correct output, so regenerating them from a
later commit would hide any change that commit made:

    python3 perfbench/capture_golden.py

It records:

* ``census`` - the ``census --format csv`` bytes for every (p, max-len) any
  check compares against;
* ``rho``    - the dominant root reported by ``spectral.dominant_root`` for
  every ``poly --r`` of the ledger workload;
* ``probes`` - every ledger op that raises at this commit, with the type of
  the exception (these are the known-failing probes).
"""

from __future__ import annotations

import json
import sys

from run import load_lib
from workloads import GOLDEN_PATH, POLY_R, WORKLOADS, call_main, census_keys, census_op


def census_text(lib, p: int, max_len: int) -> str:
    """The census CSV for (p, max-len), as the CLI prints it."""
    rc, out, exc = call_main(lib, census_op(p, max_len).argv)
    if exc is not None or rc != 0:
        raise RuntimeError(f"census --p {p} --max-len {max_len} failed: {exc or rc}")
    return out


def main() -> int:
    lib = load_lib()
    golden = {
        "census": {f"{p},{L}": census_text(lib, p, L) for p, L in census_keys()},
        "rho": {
            str(r): repr(lib.spectral.dominant_root(lib.spectral.build_growth_poly(r)))
            for r in POLY_R
        },
        "probes": {},
    }
    for op in WORKLOADS["ledger"]:
        rc, _, exc = call_main(lib, op.argv)
        if exc is not None:
            golden["probes"][op.key] = type(exc).__name__
        elif rc != 0:
            print(f"{op.key} exits {rc} without raising", file=sys.stderr)
            return 1
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}: {len(golden['census'])} census tables, "
          f"{len(golden['rho'])} roots, {len(golden['probes'])} probes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
