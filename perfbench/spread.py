#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload frames-dense --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed (untraced, for BENCHMARK.json's
run_seconds) and prints, per metric, the median, the quartiles and the
interquartile range as a share of the median next to the metric's bound.
A benchmark is steady when every share stays well inside its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values[k].append(v["value"])
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals * 3)
        print(f"{args.workload:14s} {m['name']:14s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"iqr/median={(q3 - q1) / med:.4f} bound={m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
