#!/usr/bin/env python3
"""Steadiness check: run the benchmark over several seeds, report spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --first-seed 1 [--workload NAME ...]
    python3 perfbench/steady.py --runs 10 --trace 1 [--workload NAME ...]

With ``--trace 0`` it prints, for each workload, every end-to-end metric
of the JSON result plus the workload's numeric report lines
(``link_hops_per_s``, ``frame_ms_p50``, ``ref_divergence``, ...); with
``--trace 1`` every per-layer metric that is non-zero on the workload.
Each row gives the median over the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the metric's bound in ``BENCHMARK.json`` where it has one.
Each run uses its own seed, so the spread covers both host noise and
input variation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def report_lines(stdout: str) -> dict[str, float]:
    """``# name value ...`` report lines whose value is a number."""
    out = {}
    for line in stdout.splitlines():
        words = line.split()
        if len(words) < 3 or words[0] != "#" or not words[1][0].isalpha():
            continue
        try:
            out[words[1]] = float(words[2])
        except ValueError:
            continue
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workload",
        action="append",
        help="workload to run (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [
                    *spec["command"],
                    "--workload", name,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace),
                ],
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            run = {m: v["value"] for m, v in result["metrics"].items()}
            if not args.trace:
                extra = report_lines(proc.stdout)
                run.update((m, v) for m, v in extra.items() if m not in run)
            for metric, value in run.items():
                values.setdefault(metric, []).append(value)
            shown = ", ".join(f"{m}={v:.6g}" for m, v in run.items())
            print(
                f"# {name} seed={seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}, "
                f"{shown}",
                flush=True,
            )
        print(f"| {name} | metric | median | Q1 | Q3 | spread | bound |")
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            if args.trace and not any(vals):
                continue  # the layer does no work on this workload
            spread = f"{(q3 - q1) / med:.3f}" if med else "-"
            bound = bounds.get(metric)
            print(
                f"| {name} | {metric} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                f"| {spread} | {'-' if bound is None else bound} |",
                flush=True,
            )
    print(f"# every run correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
