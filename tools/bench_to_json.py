#!/usr/bin/env python3
"""Collect the repo's performance numbers into one JSON document.

Runs the self-gating micro-benchmarks (the bench_micro_* binaries that
embed their seed implementation as an in-binary reference) and times
cold-cache campaign runs, then writes a machine-readable snapshot:

    {
      "schema": 1,
      "label": "PR5",
      "micro": {
        "regioncache": {"geomean_speedup": ..., "scenarios": {...}}
      },
      "campaigns": {
        "fig13": {"threads": ..., "points": ...,
                  "wall_s": ...,
                  "wall_s_no_warm_fork": ...,
                  "warm_fork_speedup": ...}
      }
    }

Committed baselines (BENCH_PR5.json, ...) give future PRs a perf
trajectory to compare against; CI regenerates the document on every
run and uploads it as an artifact.

Usage:
    tools/bench_to_json.py --build-dir build-release --out BENCH.json \
        [--label PR5] [--micro regioncache] \
        [--campaign fig13] [--threads N] [--quick]
"""

import argparse
import json
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

# Per-scenario line of the self-gating benches:
#   "uniform   12345678   23456789   1.90x"  (optional trailing note)
SCENARIO_RE = re.compile(
    r"^(\S+)\s+(\d+)\s+(\d+)\s+([\d.]+)x(\s+\(informational\))?\s*$")
GEOMEAN_RE = re.compile(r"^geomean speedup[^:]*:\s*([\d.]+)x\s*$")
# Trailing campaign_run summary: "fig13: ... 12.345 s". The cache-hit
# source breakdown "(N memory, N disk, N inflight)" is optional so the
# tool still reads logs from builds that predate the result store.
CAMPAIGN_RE = re.compile(
    r"^(?P<name>\S+): (?P<points>\d+) points, (?P<simulated>\d+)"
    r" simulated,"
    r"(?: (?P<forked>\d+) forked \((?P<warmups>\d+) warmups"
    r" shared\),)?"
    r" (?P<hits>\d+) cache hits"
    r"(?: \((?P<memory>\d+) memory, (?P<disk>\d+) disk,"
    r" (?P<inflight>\d+) inflight\))?,"
    r"(?: (?P<graphs>\d+) graphs built \((?P<shared>\d+) shared\),)?"
    r" \d+ failures, (?P<threads>\d+) threads, (?P<wall>[\d.e+-]+) s$")

# Default iteration counts: enough for stable numbers locally, scaled
# down by --quick for CI smoke runs on noisy shared machines.
MICRO_ARGS = {
    "regioncache": ["--touches"],
}
MICRO_ITER = {"regioncache": 2000000}
QUICK_ITER = {"regioncache": 500000}


def run(cmd):
    print("+ " + " ".join(cmd), file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"command failed ({proc.returncode}): "
                         + " ".join(cmd))
    return proc.stdout


def run_micro(build_dir, name, iters):
    binary = build_dir / f"bench_micro_{name}"
    if not binary.exists():
        raise SystemExit(f"{binary} not found (build it first)")
    # resolve(): a slashless relative path would go through PATH.
    out = run([str(binary.resolve())] + MICRO_ARGS[name] + [str(iters)])
    scenarios = {}
    geomean = None
    for line in out.splitlines():
        m = SCENARIO_RE.match(line.strip())
        if m:
            scenarios[m.group(1)] = {
                "ref_per_sec": int(m.group(2)),
                "new_per_sec": int(m.group(3)),
                "speedup": float(m.group(4)),
                "gated": m.group(5) is None,
            }
            continue
        m = GEOMEAN_RE.match(line.strip())
        if m:
            geomean = float(m.group(1))
    if geomean is None or not scenarios:
        sys.stderr.write(out)
        raise SystemExit(f"could not parse bench_micro_{name} output")
    return {"iterations": iters, "geomean_speedup": geomean,
            "scenarios": scenarios}


def run_campaign(build_dir, name, threads, extra=()):
    """Cold-cache campaign wall-clock: each invocation is a fresh
    process, so the result cache starts empty."""
    binary = build_dir / "campaign_run"
    if not binary.exists():
        raise SystemExit(f"{binary} not found (build it first)")
    cmd = [str(binary.resolve()), name, "--quiet"] + list(extra)
    if threads:
        cmd += ["--threads", str(threads)]
    t0 = time.monotonic()
    out = run(cmd)
    process_s = time.monotonic() - t0
    for line in out.splitlines():
        m = CAMPAIGN_RE.match(line.strip())
        if m and m.group("name") == name:
            return {
                "points": int(m.group("points")),
                "simulated": int(m.group("simulated")),
                "forked": int(m.group("forked") or 0),
                "warmups_shared": int(m.group("warmups") or 0),
                "graphs_built": int(m.group("graphs") or 0),
                "graphs_shared": int(m.group("shared") or 0),
                "threads": int(m.group("threads")),
                "wall_s": float(m.group("wall")),
                "process_s": round(process_s, 3),
            }
    sys.stderr.write(out)
    raise SystemExit(f"could not parse campaign_run {name} summary")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", type=Path, default=Path("build"))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--label", default="local")
    ap.add_argument("--micro", action="append",
                    choices=sorted(MICRO_ARGS),
                    help="micro-bench to run (repeatable; default: all)")
    ap.add_argument("--campaign", action="append",
                    help="campaign to time cold-cache (repeatable; "
                         "default: fig13)")
    ap.add_argument("--threads", type=int, default=0,
                    help="campaign worker threads (0: hardware)")
    ap.add_argument("--quick", action="store_true",
                    help="smaller iteration counts for CI smoke runs")
    ap.add_argument("--skip-baseline", action="store_true",
                    help="skip the --no-warm-fork A/B campaign run")
    args = ap.parse_args()

    micros = args.micro or sorted(MICRO_ARGS)
    campaigns = args.campaign if args.campaign is not None \
        else ["fig13", "ablation_sensitivity"]
    iters = QUICK_ITER if args.quick else MICRO_ITER

    doc = {
        "schema": 1,
        "label": args.label,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "micro": {},
        "campaigns": {},
    }

    for name in micros:
        doc["micro"][name] = run_micro(args.build_dir, name, iters[name])

    for name in campaigns:
        entry = run_campaign(args.build_dir, name, args.threads)
        if not args.skip_baseline:
            # Fork A/B: --no-warm-fork simulates every point cold. Only
            # campaigns with points that differ only in power.* keys
            # (e.g. ablation_sensitivity) gain; for sweeps like fig13
            # the two runs should match.
            cold = run_campaign(args.build_dir, name, args.threads,
                                extra=["--no-warm-fork"])
            entry["wall_s_no_warm_fork"] = cold["wall_s"]
            entry["warm_fork_speedup"] = round(
                cold["wall_s"] / entry["wall_s"], 3) \
                if entry["wall_s"] else None
        doc["campaigns"][name] = entry

    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
