#!/usr/bin/env python3
"""Host-speed gate over perfbench output.

    python3 perfbench/ab.py --base ../base --change . --workload sweep \\
        | tee ab-sweep.txt
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 \\
        --trace 1 | tee traced-sweep.txt
    python3 tools/perf_gate.py ab-sweep.txt traced-sweep.txt

Each FILE is either the table perfbench/ab.py prints or the output of
one perfbench/run.py run; the kind is told from its content.

- An ab.py table fails when, for an end-to-end metric, the change's
  median is worse than the base's median by more than that metric's
  `bound` in BENCHMARK.json, as a fraction of the base median.
- A run's result fails when it reports incorrect output or failed
  operations, or when it has no `obs.telemetry_overhead_pct` (only a
  traced sweep run records it) or that exceeds the 5% overhead
  contract of docs/TELEMETRY.md.

Stdlib only. Exit status 0 when every check passes, 1 when one fails,
2 when a file holds nothing to check.
"""

import argparse
import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# docs/TELEMETRY.md: an enabled collector costs under 5% of run time.
TELEMETRY_BOUND_PCT = 5.0


def ab_medians(lines, metrics):
    """{metric: {side: median}} from the rows of an ab.py table."""
    medians = {}
    for line in lines:
        cols = line.split()
        if len(cols) >= 3 and cols[0] in metrics and \
                cols[1] in ("base", "change"):
            medians.setdefault(cols[0], {})[cols[1]] = float(cols[2])
    return medians


def run_result(lines):
    """The result object run.py prints last, or None."""
    for line in reversed(lines):
        if line.startswith("{"):
            doc = json.loads(line)
            if "correct" in doc and "metrics" in doc:
                return doc
    return None


def check_ab(label, medians, metrics):
    problems = []
    for name, m in metrics.items():
        sides = medians.get(name, {})
        if len(sides) != 2:
            problems.append(f"{label}: {name}: no base and change rows")
            continue
        base, change = sides["base"], sides["change"]
        worse = change - base if m["better"] == "lower" else base - change
        verdict = "FAIL" if worse > m["bound"] * abs(base) else "ok"
        rel = worse / base * 100.0 if base else 0.0
        print(f"perf_gate: {label}: {name} base {base:.6g} change "
              f"{change:.6g} worse by {rel:+.1f}% (bound "
              f"{m['bound'] * 100:.0f}%) {verdict}")
        if verdict == "FAIL":
            problems.append(f"{label}: {name} worse than its bound")
    return problems


def check_run(label, result):
    problems = []
    if not result["correct"] or result.get("failed", 0):
        problems.append(f"{label}: incorrect output or failed operations")
    pct = result["metrics"].get("obs.telemetry_overhead_pct")
    if pct is None:
        return problems + [f"{label}: no obs.telemetry_overhead_pct "
                           "(not a traced sweep run)"]
    pct = pct["value"]
    verdict = "FAIL" if pct > TELEMETRY_BOUND_PCT else "ok"
    print(f"perf_gate: {label}: obs.telemetry_overhead_pct {pct:.2f}% "
          f"(contract < {TELEMETRY_BOUND_PCT:g}%) {verdict}")
    if verdict == "FAIL":
        problems.append(f"{label}: telemetry overhead {pct:.2f}% exceeds "
                        f"{TELEMETRY_BOUND_PCT:g}%")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", metavar="FILE")
    args = ap.parse_args()

    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    problems = []
    for path in args.files:
        lines = Path(path).read_text().splitlines()
        medians = ab_medians(lines, metrics)
        result = run_result(lines)
        if medians:
            problems += check_ab(path, medians, metrics)
        elif result:
            problems += check_run(path, result)
        else:
            print(f"perf_gate: {path}: neither an ab.py table nor a "
                  "run.py result", file=sys.stderr)
            return 2

    for p in problems:
        print(f"perf_gate: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"perf_gate: OK — {len(args.files)} file(s) within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
