#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the simulator libraries from src/ plus the bench program,
Release with LTO) into $CARGO_TARGET_DIR or .bench_build, then runs the
program with the same arguments. Build output goes to a log file and,
on failure, to stderr; the program's standard output passes through, so
the last line is the JSON result. Extra program options (--workers,
--tiny) pass through too. See perfbench/README.md.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configure and build the bench program; returns its path or exits 1."""
    cmake_dir = build_root() / "perfbench-cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_root() / "build.log"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            res = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if res.returncode != 0:
                log.flush()
                sys.stderr.write(Path(log_path).read_text(encoding="utf-8"))
                sys.stderr.write(f"run.py: build step failed: {' '.join(cmd)}\n")
                sys.exit(1)
    return cmake_dir / "perfbench"


def git(*args):
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def tree_hash():
    """SHA-256 over the simulator and benchmark sources (git or not)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance_args():
    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = git("status", "--porcelain") if sha else None
    return ["--git-sha", sha or "none",
            "--git-dirty", "unknown" if dirty is None else str(int(bool(dirty))),
            "--tree-hash", tree_hash()]


def main(argv):
    binary = build()
    out_dir = build_root() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), *argv, "--out-dir", str(out_dir), *provenance_args()]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
