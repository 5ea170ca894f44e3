"""Workload definitions, op execution and output checks for the benchmark.

An op is one CLI invocation (``hecke_census.cli.main(argv)`` with stdout
captured) or one library sweep.  Every op has a check against data captured
from the seed commit (``golden.json``, written by ``capture_golden.py``).

Each executed op gets one verdict:

* ``ok``      - it returned 0 and its output passed the check;
* ``known``   - a known-failing probe (listed in ``golden.json``) failed again,
                with its recorded exception type or a nonzero exit code;
* ``failed``  - anything else: a wrong output, any other exception, or a
                nonzero exit code from an op that is not a probe.

Probes count in the attempted total but not in the timed work, so a fix that
makes a probe pass raises the share of ok ops and leaves ``wall_s`` alone.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

OK, KNOWN, FAILED = "ok", "known", "failed"

CENSUS_GRID = [(p, L) for p in (4, 5, 6, 8) for L in (20, 24)]
CLAIMS_P = (4, 6, 8, 10, 12)
CLAIMS_LEN = 18
GROWTH = (6, 20, 400)  # p, max-len, extend-to
POLY_R = range(2, 41)
SWEEPS = ((4, 22), (6, 20))

# census-derived ledger entries: id -> (census column, row length from params)
CENSUS_CLAIMS = {
    "L3.3": ("symmetric", lambda prm: 2 * int(prm["l"])),
    "L3.4": ("p_reciprocal", lambda prm: 2 * int(prm["l"])),
    "L3.5": ("symmetric_p", lambda prm: int(prm["word_length"])),
    "P3.6": ("reciprocal_total", lambda prm: int(prm["word_length"])),
    "MA-5.3.2": ("reciprocal_total", lambda prm: 2 * int(prm["l"])),
}

VERIFY_LAST_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


@dataclass(frozen=True)
class Op:
    key: str                  # unique name, the CLI argv joined by spaces
    kind: str                 # census | claims | growth | poly | verify | sweep
    argv: tuple[str, ...]     # CLI arguments; empty for a library sweep
    p: int = 0
    max_len: int = 0
    r: int = 0


def census_op(p: int, max_len: int) -> Op:
    argv = ("census", "--p", str(p), "--max-len", str(max_len), "--format", "csv")
    return Op(" ".join(argv), "census", argv, p=p, max_len=max_len)


def claims_op(p: int) -> Op:
    argv = ("claims", "--p", str(p), "--max-len", str(CLAIMS_LEN))
    return Op(" ".join(argv), "claims", argv, p=p, max_len=CLAIMS_LEN, r=p // 2)


def growth_op() -> Op:
    p, max_len, extend_to = GROWTH
    argv = ("growth", "--p", str(p), "--max-len", str(max_len), "--extend-to", str(extend_to))
    return Op(" ".join(argv), "growth", argv, p=p, max_len=max_len, r=p // 2)


def poly_op(r: int) -> Op:
    argv = ("poly", "--r", str(r))
    return Op(" ".join(argv), "poly", argv, r=r)


def sweep_op(p: int, max_len: int) -> Op:
    return Op(f"sweep classify --p {p} --max-len {max_len}", "sweep", (), p=p, max_len=max_len)


WORKLOADS: dict[str, list[Op]] = {
    "census-grid": [census_op(p, L) for p, L in CENSUS_GRID],
    "ledger": [claims_op(p) for p in CLAIMS_P] + [growth_op()] + [poly_op(r) for r in POLY_R],
    "oracle": [Op("verify", "verify", ("verify",))] + [sweep_op(p, L) for p, L in SWEEPS],
}


def census_keys() -> list[tuple[int, int]]:
    """Every (p, max-len) whose census CSV the checks compare against."""
    keys = set(CENSUS_GRID) | set(SWEEPS) | {(p, CLAIMS_LEN) for p in CLAIMS_P}
    keys.add(GROWTH[:2])
    return sorted(keys)


def parse_csv(text: str) -> dict[int, dict[str, int]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        values = dict(zip(header, map(int, line.split(","))))
        rows[values["len"]] = values
    return rows


# ---------------------------------------------------------------------------
# execution


def call_main(lib, argv) -> tuple[int | None, str, BaseException | None]:
    """Run the CLI in-process; return (exit code, stdout, exception)."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lib.cli.main(list(argv))
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # an uncaught error is an op failure, not a crash
            exc = e
    return rc, out.getvalue(), exc


def sweep(lib, p: int, max_len: int) -> str:
    """Classify every class up to max_len and tally it as a census CSV.

    Module attributes are looked up at call time, so traced wrappers apply.
    """
    params = lib.words.make_params(p)
    cat = lib.reciprocal.Category
    column = {cat.SYMMETRIC: 0, cat.P_RECIPROCAL: 1, cat.SYMMETRIC_P_RECIPROCAL: 2}
    counts = [[0] * 5 for _ in range(max_len + 1)]  # sym, prec, symp, power, all
    for c in lib.census.enumerate_classes(params, max_len):
        info = lib.reciprocal.classify(c, with_witnesses=False)
        row = counts[c.word_length()]
        row[4] += 1
        if info.category in column:
            row[column[info.category]] += 1
            if info.is_power_of_iota_tilde_gamma:
                row[3] += 1
    lines = ["len,symmetric,p_reciprocal,symmetric_p,power,reciprocal_total,all_classes"]
    for length in range(2, max_len + 1):
        s, pr, sp, pw, al = counts[length]
        lines.append(f"{length},{s},{pr},{sp},{pw},{s + pr + sp},{al}")
    return "\n".join(lines) + "\n"


def execute(lib, op: Op) -> tuple[float, int | None, str, BaseException | None]:
    """Run one op; return (seconds, exit code, output, exception)."""
    if op.kind == "sweep":
        rc, exc, out = 0, None, ""
        t0 = time.perf_counter()
        try:
            out = sweep(lib, op.p, op.max_len)
        except Exception as e:
            exc = e
        return time.perf_counter() - t0, rc, out, exc
    t0 = time.perf_counter()
    rc, out, exc = call_main(lib, op.argv)
    return time.perf_counter() - t0, rc, out, exc


# ---------------------------------------------------------------------------
# checks


@functools.cache
def bisect_rho(r: int) -> float:
    """The positive root of x^(r+1) - 2*(x^(r-1) + ... + x) - 1, by float
    bisection on [1, 2]."""
    coeffs = [-1] + [-2] * (r - 1) + [0, 1]  # constant term first

    def f(x: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class Checker:
    """Judges op outcomes against the golden data; caches verdicts per output."""

    def __init__(self, golden: dict, src: Path):
        self.probes: dict[str, str] = golden["probes"]
        self.census = {tuple(map(int, k.split(","))): v for k, v in golden["census"].items()}
        self.rows = {k: parse_csv(v) for k, v in self.census.items()}
        self.rho = {int(r): float(v) for r, v in golden["rho"].items()}
        self.claims_schema = json.loads(
            (src / "hecke_census" / "schemas" / "claims.schema.json").read_text()
        )
        self._cache: dict[tuple, tuple[str, str]] = {}

    def is_probe(self, op: Op) -> bool:
        return op.key in self.probes

    def classes(self, op: Op) -> int:
        """Classes an op accounts for: the all_classes total of its census."""
        if op.kind in ("census", "claims", "growth", "sweep"):
            return sum(row["all_classes"] for row in self.rows[(op.p, op.max_len)].values())
        return 0

    def judge(self, op: Op, rc, out: str, exc) -> tuple[str, str]:
        """(verdict, reason) for one outcome."""
        if exc is not None:
            what = type(exc).__name__
            return (KNOWN if self.probes.get(op.key) == what else FAILED), what
        if rc != 0:
            return (KNOWN if self.is_probe(op) else FAILED), f"exit {rc}"
        key = (op.key, out)
        if key not in self._cache:
            reason = self._check(op, out)
            self._cache[key] = (OK, "") if reason is None else (FAILED, reason)
        return self._cache[key]

    def _check(self, op: Op, out: str) -> str | None:
        """None if the output is correct, else the reason it is not."""
        try:
            if op.kind in ("census", "sweep"):
                if out != self.census[(op.p, op.max_len)]:
                    return "census table differs from the golden"
                return None
            if op.kind == "claims":
                return self._check_claims(op, json.loads(out))
            if op.kind in ("growth", "poly"):
                return self._check_growth(op.r, json.loads(out))
            if op.kind == "verify":
                last = out.rstrip("\n").rsplit("\n", 1)[-1]
                m = VERIFY_LAST_LINE.match(last)
                if not m or m.group(1) != m.group(2) or int(m.group(1)) < 1:
                    return f"verify summary {last!r}"
                return None
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable output: {type(e).__name__}: {e}"
        return f"no check for kind {op.kind}"

    def _check_claims(self, op: Op, doc) -> str | None:
        problem = validate(doc, self.claims_schema)
        if problem:
            return f"ledger fails claims.schema.json: {problem}"
        rows = self.rows[(op.p, op.max_len)]
        seen = set()
        for entry in doc["claims"]:
            spec = CENSUS_CLAIMS.get(entry["id"])
            if spec is None or entry["params"].get("fixture"):
                continue
            column, length = spec
            want = str(rows[length(entry["params"])][column])
            if entry["observed"] != want:
                return f"{entry['id']} {entry['params']}: observed {entry['observed']} != {want}"
            seen.add(entry["id"])
        missing = set(CENSUS_CLAIMS) - seen
        if missing:
            return f"ledger lacks census-derived entries {sorted(missing)}"
        return None

    def _check_growth(self, r: int, doc) -> str | None:
        rho = float(doc["rho"])
        if abs(rho - bisect_rho(r)) > 1e-9:
            return f"rho {rho!r} is not within 1e-9 of bisection {bisect_rho(r)!r}"
        if abs(rho - self.rho[r]) > 1e-9:
            return f"rho {rho!r} is not within 1e-9 of the golden {self.rho[r]!r}"
        if len(doc["roots"]) != r + 1:
            return f"{len(doc['roots'])} roots, want r+1 = {r + 1}"
        return None


def validate(doc, schema) -> str | None:
    """The first schema violation in doc, or None."""
    # imported here, not at the top: it adds 4 MiB to peak_rss_mb on workloads
    # that never check a ledger
    import jsonschema  # the package's declared test extra

    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as e:
        return e.message
    return None


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
