"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steady.py --seeds 1-10 --seconds 30 [--workload NAME ...]
                                [--trace 0|1] [--out FILE]

For each workload it runs ``perfbench/run.py`` once per seed, one run at a
time, and prints per metric the median and the spread: the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
With ``--out`` it also writes every run's metrics and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    report, stamp = {}, None
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            stamp = stamp or next((json.loads(ln[8:]) for ln in lines if ln.startswith("# stamp ")), None)
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{done.stdout}", file=sys.stderr)
                return 1
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items() if k != "seed"), flush=True)
        summary = {}
        for name in runs[0]:
            if name == "seed":
                continue
            med, iqr = spread([r[name] for r in runs])
            bound = bounds.get(name)
            summary[name] = {"median": med, "iqr_share": iqr, "bound": bound}
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {workload} {name}: median {med:.6g}, spread {iqr:.4f}{note}")
        report[workload] = {"runs": runs, "summary": summary}

    if args.out:
        args.out.write_text(json.dumps({"stamp": stamp, "seconds": args.seconds, "trace": args.trace,
                                        "workloads": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
