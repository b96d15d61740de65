#!/usr/bin/env python3
"""CI gate for the RSA hot path (docs/bignum.md).

Reads the gbench JSON written by bench_crypto (BENCH_bench_crypto.json)
and fails the build unless:

  1. BM_RsaSignFdh/2048 (CRT signing, the per-item issue cost every
     server bench amortizes) sustains at least --min-sign-ops signatures
     per second. The workflow pins this to 2x the pre-kernel baseline,
     so a regression that gives back the 64-bit limb win turns CI red.
  2. BM_RsaKeygen/512 (the fresh pseudonym key a smartcard mints per
     purchase and redeem) sustains at least --min-keygen-ops keys per
     second. The workflow pins this to 2x the random-restart prime
     search it replaced, so losing the sieve turns CI red.
  3. The injected "config" block shows the kernels actually ran as
     shipped: 64-bit limbs, the 2048-bit CRT halves dispatching to the
     fixed-width-16 Montgomery kernel, and the 256-bit moduli (CRT
     halves and Miller-Rabin candidates of 512-bit keys) to the fixed
     width-4 kernel, not the generic loop.

Usage: check_crypto_perf.py BENCH_bench_crypto.json --min-sign-ops 465
           --min-keygen-ops 320
"""

import argparse
import json
import sys


KEYGEN_BENCH = "BM_RsaKeygen/512"


def ops_per_second(entry):
    """Signatures/second from a gbench iteration entry."""
    unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[
        entry.get("time_unit", "ns")]
    seconds = entry["real_time"] * unit
    if seconds <= 0:
        raise SystemExit(f"nonsensical real_time in {entry['name']}")
    return 1.0 / seconds


def best_ops(doc, report, name):
    """Best ops/s over the repetitions of one benchmark. The gate asks
    "can the code hit the floor", and the minimum time is the least
    noisy estimator of that."""
    runs = [b for b in doc.get("benchmarks", [])
            if b.get("name") == name
            and b.get("run_type", "iteration") == "iteration"]
    if not runs:
        raise SystemExit(f"{report}: no iteration runs for {name}")
    return max(ops_per_second(b) for b in runs)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("--bench", default="BM_RsaSignFdh/2048")
    parser.add_argument("--min-sign-ops", type=float, required=True)
    parser.add_argument("--min-keygen-ops", type=float, required=True)
    args = parser.parse_args()

    with open(args.report) as f:
        doc = json.load(f)

    ops = best_ops(doc, args.report, args.bench)
    keygen_ops = best_ops(doc, args.report, KEYGEN_BENCH)

    config = doc.get("config", {})
    failures = []
    if ops < args.min_sign_ops:
        failures.append(
            f"{args.bench}: {ops:.0f} ops/s < floor {args.min_sign_ops:.0f}")
    if keygen_ops < args.min_keygen_ops:
        failures.append(
            f"{KEYGEN_BENCH}: {keygen_ops:.0f} keys/s < floor "
            f"{args.min_keygen_ops:.0f}")
    if config.get("bignum_limb_bits") != 64:
        failures.append(
            f"config.bignum_limb_bits = {config.get('bignum_limb_bits')!r}, "
            "expected 64 - kernel config not recorded or wrong limb width")
    # fixed_width_powmods looks like "256:a,512:b,1024:c,2048:d,generic:e".
    widths = dict(kv.split(":") for kv in
                  config.get("fixed_width_powmods", "").split(",") if ":" in kv)
    if int(widths.get("1024", "0")) <= 0:
        failures.append(
            "no PowMods dispatched to the fixed width-16 kernel "
            f"(fixed_width_powmods = {config.get('fixed_width_powmods')!r}); "
            "2048-bit CRT signing should run its 1024-bit halves there")
    if int(widths.get("256", "0")) <= 0:
        failures.append(
            "no PowMods dispatched to the fixed width-4 kernel "
            f"(fixed_width_powmods = {config.get('fixed_width_powmods')!r}); "
            "512-bit keygen and CRT signing should run their 256-bit "
            "moduli there")

    print(f"{args.bench}: {ops:.0f} ops/s (floor {args.min_sign_ops:.0f}), "
          f"{KEYGEN_BENCH}: {keygen_ops:.0f} keys/s "
          f"(floor {args.min_keygen_ops:.0f}), "
          f"limb_bits={config.get('bignum_limb_bits')}, "
          f"widths_hit={config.get('fixed_width_powmods')}")
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print("crypto perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
