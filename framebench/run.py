#!/usr/bin/env python3
"""Build and run one FRAME benchmark workload.

Run from the repository root:

    python3 framebench/run.py --workload table2_tcp --seed 1 --seconds 10 --trace 0

The program is built from ../src into .bench_build/ (release flags, see
framebench/CMakeLists.txt) on first use and incrementally after that.  The
last line of standard output is the result JSON printed by the framebench
binary; build logs go to standard error.  The exit code is non-zero when
the build fails, the arguments are wrong, the topic set fails admission,
the build is not bench-grade, or an output check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    files = []
    for base in (ROOT / "src", BENCH_DIR):
        files += [p for p in base.rglob("*")
                  if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table2_tcp", "broker_saturate",
                                 "failover_cycles"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src").is_dir():
        print("framebench: program sources (src/) not found next to the "
              "benchmark", file=sys.stderr)
        return 2
    if not build():
        print("framebench: build failed", file=sys.stderr)
        return 1

    span_dir = BUILD_DIR / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD_DIR / "framebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--span-dir", str(span_dir),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("framebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
