#!/usr/bin/env python3
"""Builds and runs the reads-to-contigs benchmark (see README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload d1_cold --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later calls only re-check the build. Build output
goes to stderr. The harness's last stdout line, one JSON object, is passed
through as this script's last line, and its exit code becomes ours.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("d1_cold", "d2_partition_sweep", "d3_sharded_spill_crash")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not (ROOT / "src" / "core" / "assembler.hpp").is_file():
        log(f"perfbench: no Focus sources under {ROOT / 'src'}; cannot build")
        return None
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in (
            cache.read_text()):
        log(f"perfbench: {build_dir} was configured elsewhere; rebuilding")
        shutil.rmtree(build_dir)
    if not cache.is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "focus_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir if build_dir.is_absolute()
                 else Path.cwd() / build_dir) / "perfbench"
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    if exe is None:
        return 2

    out_dir = build_dir / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out")
        return 3
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if lines:
        print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
