#!/usr/bin/env python3
"""Validate the stats.telemetry block of a `ppa_cli --json` run document.

Checks the telemetry contracts docs/TELEMETRY.md states for a classic
(non-time-parallel) run with --telemetry:

  * the run carries a telemetry block, and its covered cycles equal the
    run's totalCycles (telemetry attaches at cycle 0);
  * per core, the stall-attribution row sums to the covered cycles
    (exactly one class per cycle);
  * the rob and csq series of core 0 and the system-wide wpq and
    nvmWriteBytes series are present;
  * the nvmWriteBytes series sums to the run's nvmBytesWritten
    (downsampling keeps interval totals exact).

Usage: telemetry_check.py RUN.json
Exits nonzero with a diagnostic on the first violated property.
"""

import json
import sys


def check(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    t = doc.get("telemetry")
    if not isinstance(t, dict):
        return "no telemetry block"
    covered = t["coveredCycles"]
    if covered != doc["totalCycles"]:
        return f"coveredCycles {covered} != totalCycles {doc['totalCycles']}"
    for core, row in enumerate(t["stallCycles"]):
        if sum(row.values()) != covered:
            return f"core {core} stall row sums to {sum(row.values())}"
    names = {(s["name"], s["core"]) for s in t["series"]}
    for need in (("rob", 0), ("csq", 0), ("wpq", -1), ("nvmWriteBytes", -1)):
        if need not in names:
            return f"missing series {need}"
    wr = next(s for s in t["series"] if s["name"] == "nvmWriteBytes")
    if sum(wr["sums"]) != doc["nvmBytesWritten"]:
        return (f"nvmWriteBytes sums to {sum(wr['sums'])}, run wrote "
                f"{doc['nvmBytesWritten']}")
    print(f"telemetry_check: {path}: OK, {covered} cycles covered, "
          f"{len(t['series'])} series")
    return None


def main(argv):
    if len(argv) != 2:
        print("usage: telemetry_check.py RUN.json", file=sys.stderr)
        return 2
    err = check(argv[1])
    if err:
        print(f"telemetry_check: {argv[1]}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
