"""Benchmark of the hecke-census CLI, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-grid --seed 1 --seconds 30 --trace 0

The seed only permutes the order of the ops in each pass; the set of ops of
a workload is fixed (see ``workloads.py``).  The run repeats whole passes
over the ops for about ``--seconds`` seconds in this one process, checks
every output, and prints a summary followed, as its last line, by one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
Times are scaled to a reference host speed (see ``calibrate.py``): the
calibration kernel is timed just before each op, every 50 ms during it and
just after it, and the op's time (less the kernel's time inside it) is
divided by the kernel's mean time and multiplied by the kernel's reference
time.  The unscaled times are printed too.

* ``setup_s``      median scaled time to import ``hecke_census.cli`` in a
                   fresh interpreter (one warm-up import, then nine timed);
* ``wall_s``       one pass over the timed ops: the sum over those ops of the
                   median of their scaled times (known-failing probes excluded);
* ``classes_per_s`` classes accounted for by the timed census-backed ops,
                   divided by the sum of their median scaled times;
* ``peak_rss_mb``  ``ru_maxrss`` of this process, in MiB;
* ``ok_ratio``     ops that exited 0 with a correct output / ops attempted.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` (medians over traced passes, per pass)
plus ``trace_overhead_s``, the traced minus the untraced ``wall_s``.  The
spans are written to ``perfbench/traces/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"
SETUP_IMPORTS = 9
MODULES = ("cli", "census", "formulas", "necklaces", "reciprocal", "spectral", "words")

import calibrate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import FAILED, OK, WORKLOADS, Checker, Op, execute, load_golden  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "classes_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_lib() -> SimpleNamespace:
    """Import the package from this checkout's ``src``; exit if it is not there."""
    if not (SRC / "hecke_census" / "cli.py").is_file():
        die(f"no hecke_census sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"hecke_census.{name}") for name in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        die(f"hecke_census was imported from {mods['cli'].__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def measure_setup() -> tuple[float, float]:
    """(median scaled, median raw) import time of ``hecke_census.cli`` in fresh
    interpreters; each import is scaled by the calibration kernel timed
    around it in the same interpreter."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import calibrate; "
        "b = calibrate.block(0.05); t = time.perf_counter(); "
        "import hecke_census.cli; t = time.perf_counter() - t; "
        "a = calibrate.block(0.05); print(t, (b[0] + a[0]) / (b[1] + a[1]))"
    )
    scaled, raw = [], []
    for i in range(SETUP_IMPORTS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:  # the first import may compile bytecode
            seconds, cal = map(float, done.stdout.split())
            scaled.append(seconds / cal * calibrate.REFERENCE_S)
            raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def stamp(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
    }


class Record(NamedTuple):
    op: Op
    seconds: float   # wall time of the op
    cal: float       # mean kernel time just before, during and just after the op
    verdict: str
    reason: str

    @property
    def slowness(self) -> float:
        return self.cal / calibrate.REFERENCE_S

    @property
    def scaled(self) -> float:
        """The op's time at the reference host speed."""
        return self.seconds / self.slowness


def run_pass(lib, ops, rng, checker, tracer=None) -> list[Record]:
    """One pass over ops in a seeded order, timing the calibration kernel
    just before, during (every 50 ms) and just after each op."""
    order = list(ops)
    rng.shuffle(order)
    records = []
    before = calibrate.block(0)
    for op in order:
        gc.collect()
        if tracer:
            tracer.op = op.key
            tracer.begin("cli.main" if op.argv else "bench.sweep")
        with calibrate.Sampler() as during:
            seconds, rc, out, exc = execute(lib, op)
        if tracer:
            tracer.end()
        after = calibrate.block(0)
        cal = (before[0] + during.elapsed + after[0]) / (before[1] + during.runs + after[1])
        verdict, reason = checker.judge(op, rc, out, exc)
        records.append(Record(op, seconds - during.elapsed, cal, verdict, reason))
        before = after
    return records


def timed_ops(passes, checker, raw: bool = False) -> dict:
    """Median time of each timed op (probes excluded) over the passes,
    scaled to the reference host speed unless ``raw``."""
    samples: dict = {}
    for records in passes:
        for r in records:
            if not checker.is_probe(r.op):
                samples.setdefault(r.op, []).append(r.seconds if raw else r.scaled)
    return {op: statistics.median(values) for op, values in samples.items()}


def wall_s(passes, checker, raw: bool = False) -> float:
    return sum(timed_ops(passes, checker, raw).values())


def classes_per_s(passes, checker) -> float:
    medians = {op: t for op, t in timed_ops(passes, checker).items() if checker.classes(op)}
    return sum(checker.classes(op) for op in medians) / sum(medians.values())


def tally(records) -> tuple[int, int, int]:
    """(attempted, failed, ok) over records."""
    verdicts = [r.verdict for r in records]
    return len(verdicts), verdicts.count(FAILED), verdicts.count(OK)


def until(seconds: float, step) -> list:
    """Call step() at least once, and again while the next call fits in the budget."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = load_lib()
    setup, setup_raw = measure_setup() if args.trace == 0 else (None, None)
    info = stamp(args.seed)
    checker = Checker(load_golden(), SRC)
    ops = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    if args.trace == 0:
        passes = until(args.seconds, lambda: run_pass(lib, ops, rng, checker))
        traced = layers = []
        tracer = None
    else:
        tracer = Tracer()

        def pair():
            plain = run_pass(lib, ops, rng, checker)
            tracer.install(lib)
            try:
                records = run_pass(lib, ops, rng, checker, tracer)
            finally:
                tracer.uninstall()
            layer = tracer.layer_metrics()
            tracer.totals.clear()
            return plain, records, layer

        pairs = until(args.seconds, pair)
        passes = [p for p, _, _ in pairs]
        traced = [t for _, t, _ in pairs]
        layers = [m for _, _, m in pairs]

    records = [r for records in passes + traced for r in records]
    attempted, failed, ok = tally(records)
    e2e = {
        "setup_s": setup,
        "wall_s": wall_s(passes, checker),
        "classes_per_s": classes_per_s(passes, checker),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": ok / attempted,
    }

    slowness = statistics.median(r.slowness for r in records)
    print(f"# stamp {json.dumps(info)}")
    print(f"# workload {args.workload}: {len(passes)} untraced and {len(traced)} traced passes "
          f"of {len(ops)} ops ({sum(checker.is_probe(op) for op in ops)} known-failing probes)")
    print(f"# host slowness (calibration kernel / reference) = {slowness:.4f}; unscaled "
          f"wall_s = {wall_s(passes, checker, raw=True):.6g} s"
          + (f", setup_s = {setup_raw:.6g} s" if setup_raw is not None else ""))
    shown = set()
    for r in records:
        if r.verdict != OK and (r.op.key, r.reason) not in shown:
            shown.add((r.op.key, r.reason))
            print(f"# {r.verdict}: {r.op.key}: {r.reason}")
    print(f"# fail_ratio = {attempted - ok}/{attempted} = {(attempted - ok) / attempted:.4f}")
    for name, value in e2e.items():
        if value is not None:
            print(f"# {name} = {value:.6g} {END_TO_END_UNITS[name]}")

    if tracer is None:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    else:
        metrics = {}
        for name in layers[0]:
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": statistics.median(m[name] for m in layers), "unit": unit}
        overhead = wall_s(traced, checker) - e2e["wall_s"]
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
        if tracer.missing:
            print(f"# not traced (name not found): {', '.join(tracer.missing)}")
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "stamp": info,
            "workload": args.workload,
            "passes": layers,
            "missing": tracer.missing,
            "spans": tracer.spans,
        }) + "\n")
        print(f"# spans written to {path.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
