#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts with the benchmark.

    python3 perfbench/ab.py --base ../parent --change . --workload sweep \
        [--first-seed 1]

Runs `python3 perfbench/run.py` in each checkout for ten pairs, each
run as long as BENCHMARK.json's run_seconds, with a fresh seed per pair
and the order alternating (base first on even pairs, change first on
odd ones), so host drift hits both sides alike.
Each checkout builds into its own .bench_build. Prints, per end-to-end
metric, each side's median and quartiles, how many pairs the change
won (ties count for neither) and the base's own spread, and checks
that every pair produced the same simulated digest on both sides.
Exit status 1 when a run fails, reports incorrect output or the
digests differ.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"ab: {checkout}: {' '.join(cmd)} failed:\n{res.stderr[-3000:]}")
    info = json.loads([l for l in lines if l.startswith("result: ")][-1][8:])
    return json.loads(lines[-1]), info["digest"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads(Path(args.change, "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    values = {"base": {}, "change": {}}
    wins = {name: 0 for name in better}
    ok = True
    for i in range(PAIRS):
        seed = args.first_seed + i
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        pair = {}
        for side in order:
            checkout = args.base if side == "base" else args.change
            pair[side] = run(checkout, args.workload, seed,
                             spec["run_seconds"])
        for side, (result, _) in pair.items():
            if not result["correct"] or result["failed"]:
                print(f"ab: {side} seed {seed}: incorrect output")
                ok = False
            for name, m in result["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
        if pair["base"][1] != pair["change"][1]:
            print(f"ab: seed {seed}: simulated digest differs "
                  f"({pair['base'][1]} vs {pair['change'][1]})")
            ok = False
        for name, direction in better.items():
            b = pair["base"][0]["metrics"][name]["value"]
            c = pair["change"][0]["metrics"][name]["value"]
            if (c < b) if direction == "lower" else (c > b):
                wins[name] += 1
        print(f"ab: pair {i + 1}/{PAIRS} (seed {seed}) done", flush=True)

    print(f"{'metric':14s} {'side':7s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s}  change wins / base spread")
    for name in better:
        for side in ("base", "change"):
            v = values[side][name]
            q1, med, q3 = quartiles(v)
            extra = ""
            if side == "change":
                bq1, bmed, bq3 = quartiles(values["base"][name])
                extra = (f"  {wins[name]}/{PAIRS} / "
                         f"{(bq3 - bq1) / bmed:.3f}")
            print(f"{name:14s} {side:7s} {med:12.6g} {q1:12.6g} {q3:12.6g}{extra}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
