#!/usr/bin/env python3
"""End-to-end CPU gate: hostbench `cpu_s` against a committed baseline.

Gate a result (CI's Release job):

    python3 tools/cpu_gate.py BENCH_PR24.json paper32.json scale1024.json

Each RESULT file is the last stdout line of

    python3 hostbench/run.py --workload W --seed 0 --seconds 0 --trace 0

and its workload W is the file's stem. The gate fails (exit 1), naming
the workload, when a result is not digest-correct or its `cpu_s`
(reference-host seconds) is above the baseline's `limit_s` for W.

Regenerate the baseline on the build host (RUNS = 15 alternating runs of
that command per workload):

    python3 tools/cpu_gate.py --measure BENCH_PR24.json

The baseline records each run's `cpu_s`, the quartiles, and the limit
LIMIT_RULE derives from them.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper32", "scale1024")
HOSTBENCH_ARGS = ["--seed", "0", "--seconds", "0", "--trace", "0"]
RUNS = 15
FENCE = 3.0
LIMIT_RULE = ("limit_s = q3_s + 3 * (q3_s - q1_s), Tukey's far-out fence "
              "over the runs: a single run above it is an outlier of "
              "the measured spread. No margin is added for calibration "
              "error between the build host and a CI runner; it is "
              "unmeasured.")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise SystemExit(f"cpu_gate: cannot load {path}: {e}")


def run_hostbench(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "hostbench", "run.py"),
         "--workload", workload] + HOSTBENCH_ARGS,
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    if result["correct"] is not True or result["failed"] != 0:
        raise SystemExit(f"cpu_gate: {workload} run is not "
                         f"digest-correct: {result}")
    return result["metrics"]["cpu_s"]["value"]


def measure(out_path):
    runs = {w: [] for w in WORKLOADS}
    for i in range(RUNS):
        for w in WORKLOADS:
            runs[w].append(run_hostbench(w))
            print(f"cpu_gate: run {i + 1}/{RUNS} {w}: "
                  f"cpu_s {runs[w][-1]:.3f} s", file=sys.stderr)
    workloads = {}
    for w, xs in runs.items():
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        workloads[w] = {"runs_s": [round(x, 4) for x in sorted(xs)],
                        "q1_s": round(q1, 4), "median_s": round(median, 4),
                        "q3_s": round(q3, 4),
                        "limit_s": round(q3 + FENCE * (q3 - q1), 4)}
    doc = {"command": "python3 hostbench/run.py --workload W "
                      + " ".join(HOSTBENCH_ARGS),
           "metric": "cpu_s, reference-host seconds (hostbench/README.md)",
           "host": f"{platform.system()} {platform.machine()}, "
                   f"{os.cpu_count()} CPUs",
           "limit_rule": LIMIT_RULE,
           "workloads": workloads}
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


def gate(baseline_path, result_paths):
    baseline = load(baseline_path)["workloads"]
    failures = []
    for path in result_paths:
        workload = os.path.splitext(os.path.basename(path))[0]
        if workload not in baseline:
            raise SystemExit(f"cpu_gate: {baseline_path} has no baseline "
                             f"for '{workload}'")
        result = load(path)
        if result.get("correct") is not True or result.get("failed") != 0:
            failures.append(f"{workload}: not digest-correct "
                            f"({result.get('failed')} failed)")
            continue
        base = baseline[workload]
        cpu = result["metrics"]["cpu_s"]["value"]
        verdict = "ok" if cpu <= base["limit_s"] else "FAIL"
        print(f"cpu_gate: {workload}: cpu_s {cpu:.3f} s, baseline median "
              f"{base['median_s']:.3f} s, limit {base['limit_s']:.3f} s "
              f"({cpu / base['median_s'] - 1:+.1%} vs median): {verdict}")
        if verdict == "FAIL":
            failures.append(f"{workload}: cpu_s {cpu:.3f} s is above the "
                            f"limit {base['limit_s']:.3f} s")
    for f in failures:
        print(f"cpu_gate: FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "--measure":
        return measure(argv[1])
    if len(argv) >= 2 and not argv[0].startswith("-"):
        return gate(argv[0], argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
