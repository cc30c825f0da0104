#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root)::

    python3 perfbench/summarize.py --workloads window purge ingest-http \\
        --seeds 1-10 [--seconds 20] [--trace 0] [--write perfbench/BASELINE.json]

Each run is one ``perfbench/run.py`` process. For every metric the
summary gives the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread
``(q3 - q1) / median``. Medians and quartiles only: no best-of-N, and no
ratio against any other configuration. ``--write`` records the summary
together with the host description printed by the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (final JSON line, environment)."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({completed.returncode}):\n"
                         f"{completed.stdout}\n{completed.stderr}")
    environment = {}
    for line in lines:
        if line.startswith("environment: "):
            environment = json.loads(line[len("environment: "):])
    return json.loads(lines[-1]), environment


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["window", "purge", "ingest-http"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    report: dict[str, object] = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            result, environment = run_once(workload, seed, args.seconds, args.trace)
            report["environment"] = environment
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed={seed} " + " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            ), flush=True)
        summary = {
            name: {**summarise(series), "unit": units[name], "values": series}
            for name, series in values.items()
        }
        report["workloads"][workload] = summary
        for name, entry in summary.items():
            print(f"  {workload:<12} {name:<40} median={entry['median']:.6g} {entry['unit']:<6}"
                  f" q1={entry['q1']:.6g} q3={entry['q3']:.6g} spread={entry['spread']:.4f}", flush=True)
    if args.write is not None:
        args.write.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
