#!/usr/bin/env python3
"""Repo benchmark entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload retail|bulk_transfer|recovery \
        --seed N --seconds S --trace 0|1

Builds the p2drm library and the perfbench binary from source into
.bench_build/perfbench (CMake, Release), runs one workload in a scratch
journal directory that is removed afterwards, and checks the run:

* the binary's own correctness checks (statuses, linkability, balances,
  spent-set sizes, trace ledger reconciliation);
* the exact-count fingerprint (crypto ops, wire messages and bytes, spent
  sizes, journal bytes) against every earlier run of the same workload,
  seed, length and source tree in this checkout;
* the reported metric names and units against BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit status is 0 only when the
run is correct.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JOBS = "4"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (when there is no binary yet) and builds it; output goes
    to stderr."""
    steps = []
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            return False
    return os.path.exists(BINARY)


def source_digest():
    """Digest of every file the binary is built from."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_fingerprint(args, fingerprint, store):
    """Returns an error string when the counts differ from an earlier run.
    With no earlier run, the counts become the reference if store is true
    (the run was correct)."""
    if not fingerprint:
        return "no fingerprint reported"
    fp_dir = os.path.join(BUILD, "fingerprints")
    os.makedirs(fp_dir, exist_ok=True)
    key = "%s-seed%d-s%d-%s.json" % (args.workload, args.seed, args.seconds,
                                     source_digest())
    path = os.path.join(fp_dir, key)
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != fingerprint:
            diff = sorted(k for k in set(earlier) | set(fingerprint)
                          if earlier.get(k) != fingerprint.get(k))
            return "fingerprint differs from an earlier run of this seed: " + ", ".join(diff)
        return None
    if store:
        with open(path, "w") as f:
            json.dump(fingerprint, f, sort_keys=True)
    return None


def check_metrics(args, metrics):
    """Returns an error string when metrics do not match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return "metrics differ from BENCHMARK.json: missing=%s extra=%s unit=%s" % (
            missing, extra, units)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["retail", "bulk_transfer", "recovery"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1

    work_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        out = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        log("perfbench: binary exited %d without a result" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    ran_correctly = bool(out["correct"]) and proc.returncode == 0
    problems = [p for p in (check_fingerprint(args, out["fingerprint"], ran_correctly),
                            check_metrics(args, out["metrics"])) if p]
    for p in problems:
        print("  FAILED: " + p)
    correct = ran_correctly and not problems
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
