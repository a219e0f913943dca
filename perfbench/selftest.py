#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Runs every workload of BENCHMARK.json at tiny size (--tiny, one
second), untraced and traced, and checks that:

* the last output line is the result object with exactly the keys
  correct/attempted/failed/metrics, correct, and no failed operation;
* every end-to-end (untraced) or per-layer (traced) metric named in
  BENCHMARK.json is present, with its unit and a finite value, and no
  other metric is;
* the simulated digest is the same on one worker and on all of them,
  and on a repeated run;
* the traced run's Chrome trace passes tools/trace_check.py.

Usage, from the repository root:  python3 perfbench/selftest.py
Exit status 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n"
                           f"{res.stderr[-4000:]}")
    info = [l for l in lines if l.startswith("result: ")]
    return json.loads(lines[-1]), json.loads(info[-1][len("result: "):])


def check_result(tag, result, expected, problems):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{tag}: correct={result['correct']} "
                        f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{tag}: attempted={result['attempted']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{tag}: missing {sorted(set(expected) - set(metrics))}"
                        f", unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{tag}: {name} unit {m.get('unit')!r} != {unit!r}")
        value = m.get("value")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{tag}: {name} value {value!r} is not finite")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    out_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    problems = []
    cores = str(os.cpu_count() or 1)
    for w in (w["name"] for w in spec["workloads"]):
        result, info = run(w, 0)
        check_result(f"{w} untraced", result, end_to_end, problems)
        _, again = run(w, 0)
        _, single = run(w, 0, "--workers", "1")
        _, wide = run(w, 0, "--workers", cores)
        digests = {info["digest"], again["digest"], single["digest"],
                   wide["digest"]}
        if len(digests) != 1:
            problems.append(f"{w}: digest differs across runs/workers "
                            f"{sorted(digests)}")
        result, info = run(w, 1)
        check_result(f"{w} traced", result, per_layer, problems)
        if info["digest"] != again["digest"]:
            problems.append(f"{w}: traced digest differs from untraced")
        trace = out_dir / "out" / f"trace-{w}-seed{SEED}.json"
        checker = ROOT / "tools" / "trace_check.py"
        if checker.exists():
            res = subprocess.run([sys.executable, str(checker), str(trace)],
                                 capture_output=True, text=True)
            if res.returncode != 0:
                problems.append(f"{w}: trace_check: {res.stderr.strip()}")
        print(f"selftest: {w}: done", flush=True)
    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print(f"selftest: {'FAIL' if problems else 'OK'} "
          f"({len(problems)} problem(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
