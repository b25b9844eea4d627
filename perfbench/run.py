#!/usr/bin/env python3
"""Build and run the wall-clock SAT benchmark (see README.md).

    python3 perfbench/run.py --workload bulk_4k --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every call configures and builds
perfbench/ into .bench_build/perfbench (the first build takes about two
minutes; later ones rebuild only what changed), then runs one workload.  The benchmark's report goes to
stdout; its last line is the JSON result object.  Build output goes to
stderr.  Exits non-zero, without a result line, when the build or the
run fails.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "satgpu_perfbench"
WORKLOADS = ("bulk_4k", "serve_mixed", "stream_1k_t8")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build() -> None:
    """Configure, then rebuild what changed; output to stderr."""
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "-j", "4"]]
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="small shapes, one set-up round: checks the "
                         "harness, not speed")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / f"trace_{args.workload}_seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 2
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        has_result = isinstance(result, dict) and "metrics" in result
    except json.JSONDecodeError:
        has_result = False
    if not has_result:
        sys.stderr.write(proc.stdout)
        print(f"run.py: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
