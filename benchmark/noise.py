#!/usr/bin/env python3
"""Noise protocol: run every workload with ten seeds, twice, and print the
table NOISE.md holds — per end-to-end metric the median, the quartiles and
(Q3 - Q1) / median, as `statistics.quantiles(values, n=4)` gives them.

    python3 benchmark/noise.py [--runs 10] [--sets 2] [--first-seed 1] [--workload W] > table.md

Every run goes through benchmark/run.sh with `--trace 0`, one seed each.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, seed, result)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", help="only this workload")
    args = ap.parse_args()
    seconds = MANIFEST["run_seconds"]
    metrics = [m["name"] for m in MANIFEST["end_to_end"]]
    seed = args.first_seed
    for workload in [w["name"] for w in MANIFEST["workloads"]]:
        if args.workload not in (None, workload):
            continue
        print(f"\n### {workload}\n")
        print("| set | metric | median | Q1 | Q3 | IQR/median |")
        print("|---|---|---|---|---|---|")
        for s in range(args.sets):
            rows = []
            for _ in range(args.runs):
                rows.append(run_once(workload, seed, seconds))
                print(f"{workload} set {s + 1} seed {seed}: {rows[-1]}", file=sys.stderr)
                seed += 1
            for name in metrics:
                values = [r[name] for r in rows]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                print(f"| {s + 1} | {name} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {(q3 - q1) / q2:.4f} |")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
