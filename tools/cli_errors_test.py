#!/usr/bin/env python3
"""Argument-validation conformance test for ppa_cli.

Drives the binary with malformed or out-of-range arguments and asserts
each invocation exits nonzero with a diagnostic that names the
offending flag. This pins the CLI's error contract: garbage numerics
must never be silently coerced (the old ``std::stoul``-based parsing
accepted ``12x`` as 12 and aborted on ``abc``), zero must be rejected
where a count is structurally positive, and every rejection must point
the user at ``--help``.

``ppa_cli --help`` is rendered from the CLI's flag table, so the test
also reads it: every flag shown with metavar ``N`` must reject ``12x``
with a diagnostic naming that flag (a count parsed outside the table
fails here), and every subcommand and verb must answer ``--help`` with
exit status 0.

Stdlib only; no third-party packages. Usage:

    python3 tools/cli_errors_test.py --cli build/tools/ppa_cli

Exit status 0 when every case rejects as specified, 1 otherwise.
"""

import argparse
import re
import subprocess
import sys

# (argv suffix, required diagnostic substring). Every case must exit
# nonzero and print the substring on stdout or stderr.
CASES = [
    # fuzz campaign numerics: zero and garbage.
    (["fuzz", "run", "--programs", "0"], "--programs must be positive"),
    (["fuzz", "run", "--programs", "abc"],
     "--programs wants an unsigned integer"),
    (["fuzz", "run", "--schedules", "0"], "--schedules must be positive"),
    (["fuzz", "run", "--seed", "12x"], "--seed wants an unsigned integer"),
    (["fuzz", "run", "--max-findings", "zz"],
     "--max-findings wants an unsigned integer"),
    # trailing garbage and negatives must not be coerced.
    (["run", "--app", "gcc", "--fail-at-cycle", "0"],
     "--fail-at-cycle must be positive"),
    (["run", "--app", "gcc", "--fail-at-cycle", "-5"],
     "--fail-at-cycle wants an unsigned integer"),
    (["run", "--app", "gcc", "--fail-at-cycle", "10garbage"],
     "--fail-at-cycle wants an unsigned integer"),
    # --tp-fail SEGMENT:CYCLE: each half validated, colon required.
    (["run", "--app", "gcc", "--time-parallel", "2",
      "--tp-fail", "2:x"], "--tp-fail cycle wants an unsigned integer"),
    (["run", "--app", "gcc", "--time-parallel", "2",
      "--tp-fail", "y:100"],
     "--tp-fail segment wants an unsigned integer"),
    (["run", "--app", "gcc", "--time-parallel", "2",
      "--tp-fail", "nope"], "--tp-fail wants SEGMENT:CYCLE"),
    (["run", "--app", "gcc", "--time-parallel", "2",
      "--tp-fail", "2:0"], "--tp-fail cycle must be positive"),
    # litmus numerics share the same parser.
    (["litmus", "run", "--schedules", "0"], "--schedules must be positive"),
    (["litmus", "run", "--seed", ""], "--seed wants an unsigned integer"),
    # structural errors: unknown subcommands and verbs, unreadable
    # reproducers.
    (["fuzz", "bogus"], "unknown fuzz subcommand"),
    (["bench"], "unknown subcommand 'bench'"),
    (["fuzz", "repro", "/nonexistent/ppa-fuzz-missing.litmus"],
     "cannot open"),
    # serve: a vacuous request count, malformed reals, negative or
    # garbage numerics, and structural token/range errors.
    (["serve", "--ops", "0"], "--ops must be positive"),
    (["serve", "--ops", "100x"], "--ops wants an unsigned integer"),
    (["serve", "--skew", "-1"], "--skew wants a non-negative number"),
    (["serve", "--skew", "0.9oops"], "--skew wants a non-negative number"),
    (["serve", "--burst-period", "-5"],
     "--burst-period wants an unsigned integer"),
    (["serve", "--burst-period", "0"], "--burst-period must be positive"),
    (["serve", "--variant", "eadr"], "unknown serve variant"),
    (["serve", "--arrival", "pareto"], "unknown arrival process"),
    (["serve", "--keys", "1000"], "--keys must be a power of two"),
    (["serve", "--keys", "131072"], "--keys must be at most 65536"),
    (["serve", "--read-pct", "101"], "--read-pct must be at most 100"),
    (["serve", "--arrival", "bursty", "--on-fraction", "1.5"],
     "--on-fraction wants a fraction in (0, 1)"),
    (["serve", "--arrival", "bursty", "--burst-factor", "8",
      "--on-fraction", "0.5"],
     "--burst-factor times --on-fraction must be at most 1"),
    (["serve", "--telemetry-trace", "/tmp/x.json"],
     "--telemetry-trace requires --telemetry"),
    # sweep numerics: garbage must not become a run of the leading
    # digits or a figure default.
    (["sweep", "fig11", "--insts", "12x"],
     "--insts wants an unsigned integer"),
    (["sweep", "fig11", "--insts", "abc"],
     "--insts wants an unsigned integer"),
    (["sweep", "fig11", "--jobs", "-2"], "--jobs wants an unsigned integer"),
    (["sweep", "fig11", "--seed", "4.2"], "--seed wants an unsigned integer"),
    # every subcommand parses through the same strict kind parsers:
    # no bare strtoul (12x as 12, abc as 0 and a run that never ends)
    # and no silent wrap of 32-bit counts above 2^32-1.
    (["--app", "gcc", "--insts", "12x"], "--insts wants an unsigned integer"),
    (["profile", "gcc", "--insts", "abc"],
     "--insts wants an unsigned integer"),
    (["--app", "gcc", "--bw", "abc"], "--bw wants a non-negative number"),
    (["trace", "record", "--app", "gcc", "--out", "/dev/null/ppa-trace",
      "--insts", "1e3"], "--insts wants an unsigned integer"),
    (["trace", "cat", "/dev/null/ppa-trace", "--limit", "5q"],
     "--limit wants an unsigned integer"),
    (["sweep", "table04", "--jobs", "4294967297"],
     "--jobs must be at most 4294967295"),
    (["--app", "gcc", "--threads", "4294967297"],
     "--threads must be at most 4294967295"),
    (["serve", "--workers", "4294967297"],
     "--workers must be at most 4294967295"),
    # zero where the model cannot run (a panic or a run that never
    # ends); --threads 0 and sweep --insts 0 keep their default meaning.
    (["--app", "gcc", "--csq", "0"], "--csq must be positive"),
    (["--app", "gcc", "--wpq", "0"], "--wpq must be positive"),
    (["--app", "gcc", "--insts", "0"], "--insts must be positive"),
    # a register file no larger than the architectural map cannot
    # rename (the run stalls to the cycle cap and still exits 0).
    (["--app", "gcc", "--int-prf", "8"], "--int-prf must be at least 17"),
    (["--app", "gcc", "--fp-prf", "0"], "--fp-prf must be at least 33"),
    (["trace", "record", "--app", "gcc", "--out", "/dev/null/ppa-trace",
      "--block-insts", "0"], "--block-insts must be positive"),
    (["trace", "record", "--app", "gcc", "--out", "/dev/null/ppa-trace",
      "--shard-insts", "0"], "--shard-insts must be positive"),
]

# Where a count flag of each help section is parsed. Each prefix fails
# after parsing (a missing or bad argument), so a flag that slipped
# past the table rejects nothing and its check fails fast.
PREFIXES = {
    "run": [["run"]],
    "profile": [["profile"]],
    "trace": [["trace", "record"], ["trace", "cat", "/nonexistent"]],
    "sweep": [["sweep"]],
    "litmus": [["litmus", "run"], ["litmus", "explore"]],
    "fuzz": [["fuzz", "run", "--variant", "capri"],
             ["fuzz", "repro", "/nonexistent"]],
    "serve": [["serve", "--keys", "1000"]],
}

SECTION_RE = re.compile(r"^subcommand: ([a-z]+)")
COUNT_FLAG_RE = re.compile(r"^  (--[a-z][a-z0-9-]*) N\b")
VERB_RE = re.compile(r"^  ppa_cli ([a-z]+) ([a-z]+)\b")


def run(cli, argv):
    """(exit status, combined output), or None when it timed out."""
    try:
        proc = subprocess.run(
            [cli] + argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=30,
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode, proc.stdout


def run_case(cli, argv, needle):
    result = run(cli, argv)
    if result is None:
        return f"{' '.join(argv)}: no exit within 30 s"
    returncode, output = result
    if returncode == 0:
        return f"{' '.join(argv)}: expected nonzero exit, got 0"
    if needle not in output:
        head = output.splitlines()[:2]
        return (
            f"{' '.join(argv)}: diagnostic missing {needle!r} "
            f"(got {head})"
        )
    return None


def help_surface(cli):
    """({section: [count flags]}, [[sub, verb...]]) from ppa_cli --help."""
    result = run(cli, ["--help"])
    if result is None or result[0] != 0:
        return None, None
    flags, commands, section = {}, [], None
    for line in result[1].splitlines():
        m = SECTION_RE.match(line)
        if m:
            section = m.group(1)
            flags[section] = []
            commands.append([section])
        elif section and COUNT_FLAG_RE.match(line):
            flags[section].append(COUNT_FLAG_RE.match(line).group(1))
        elif VERB_RE.match(line):
            commands.append(list(VERB_RE.match(line).groups()))
    return flags, commands


def check_surface(cli):
    """Every N-valued flag rejects 12x, and every subcommand and verb
    answers --help; returns (problems, checks made)."""
    flags, commands = help_surface(cli)
    if flags is None:
        return ["ppa_cli --help did not exit 0"], 1
    problems, checks = [], 0
    for section, names in sorted(flags.items()):
        if section not in PREFIXES:
            problems.append(f"no argv prefix for subcommand {section!r}")
            continue
        for flag in names:
            checks += 1
            needle = f"{flag} wants an unsigned integer"
            errors = [run_case(cli, prefix + [flag, "12x"], needle)
                      for prefix in PREFIXES[section]]
            if all(errors):
                problems.append(" / ".join(errors))
    for command in commands:
        checks += 1
        result = run(cli, command + ["--help"])
        if result is None or result[0] != 0:
            problems.append(f"{' '.join(command)} --help: did not exit 0")
    return problems, checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cli", required=True, help="path to ppa_cli")
    args = ap.parse_args()

    problems = []
    for argv, needle in CASES:
        err = run_case(args.cli, argv, needle)
        if err:
            problems.append(err)
    surface_problems, checks = check_surface(args.cli)
    problems += surface_problems

    for p in problems:
        print(f"cli_errors_test: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"cli_errors_test: OK — {len(CASES)} malformed invocations "
          f"all rejected with diagnostics, {checks} help-surface checks "
          "pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
