#!/usr/bin/env python3
"""Build the host-time benchmark from source, then run it.

    python3 hostbench/run.py --workload paper32 --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench); run
artifacts (exports, stores, Chrome traces) go to
$CARGO_TARGET_DIR/hostbench-work. Build output goes to stderr, so the
last stdout line is the benchmark's JSON result. Every other argument
is passed through to the hostbench binary (see hostbench/src/main.cc).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "driver", "campaign",
                                       "engine.hh")):
        print("hostbench: simulator sources not found under "
              + os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                            or ".bench_build")
    build_dir = os.path.join(out_root, "hostbench")
    work_dir = os.path.join(out_root, "hostbench-work")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("hostbench: build failed: %s" % e, file=sys.stderr)
        return 2
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "hostbench"),
           "--pins", os.path.join(HERE, "pins.txt"),
           "--work", work_dir] + argv
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
