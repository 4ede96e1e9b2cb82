#!/usr/bin/env python3
"""Entry point of the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program and perfbench_driver from the sources around this directory
(Release, into .bench_build/ at the repository root; later runs only check
the build), then runs one workload. perfbench_driver prints the run record and,
as its last line, the JSON result. Build output goes to stderr.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
WORKLOADS = ("mine-dense", "serve-read", "serve-write", "router-2shard")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources in {ROOT}")
    bdir = OUT / "perfbench"
    log = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                           "-DCMAKE_BUILD_TYPE=Release", *gen], **log).returncode:
            fail("cmake configure failed", 1)
    if subprocess.run(["cmake", "--build", str(bdir), "-j",
                       str(os.cpu_count() or 1), "--target", "perfbench_driver"],
                      **log).returncode:
        fail("build failed", 1)
    return bdir / "perfbench_driver"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    bench_bin = build()
    cmd = [str(bench_bin), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(OUT), "--rev", revision()]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"perfbench_driver exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
