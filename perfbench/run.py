#!/usr/bin/env python3
"""Builds and runs the two-clock benchmark.

    python3 perfbench/run.py --workload <bulk|churn|crowd> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is compiled from the source tree
(Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
the first run pays for the build. Every run first executes the benchmark's
self-tests. The last line of stdout is the benchmark's JSON result; the exit
code is nonzero when the build, a self-test or a correctness check fails.
Traced runs (--trace 1) also write their spans, one JSON object per line, to
<build dir>/trace-<workload>-<seed>.jsonl.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> bool:
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(build_dir), "-j", "4",
             "--target", "perfbench", "perfbench_selftest"],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("perfbench: build failed:\n" + "\n".join(tail), file=sys.stderr)
                return False
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["bulk", "churn", "crowd"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench")
    if not build(build_dir):
        return 1
    selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        print(selftest.stdout, file=sys.stderr, end="")
        return 1

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(build_dir / f"trace-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
