#!/usr/bin/env python3
"""Self-test of dracobench.

Run from the root of a checkout (it builds the benchmark first, like
run.py):

    python3 dracobench/test_bench.py

It checks, with short runs of every workload named in BENCHMARK.json:

1. An untraced run prints exactly the end_to_end metrics, a traced run
   exactly the per_layer metrics, each with its unit, and both pass the
   verdict gate.
2. Two traced runs with the same seed repeat the census exactly: the
   verdict fingerprint and every count the census makes (path shares,
   filter runs, evictions, restores, swaps, ...).
3. A deliberately wrong reference (--corrupt-reference) trips the
   verdict gate: the run reports correct=false and exits non-zero.
4. Each workload does the work it was chosen for (NOTES.md): warm_inproc
   hits the VAT and almost never runs the filter; churn evicts, restores,
   swaps at least 1000 times and takes the FilterDenied path.

Exit status 0 means every check passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "1"

# Census figures that must repeat exactly under a fixed seed.
EXACT = [
    "census.checks",
    "core.path_share.spt_allow",
    "core.path_share.vat_hit",
    "core.path_share.filter_allowed",
    "core.path_share.filter_denied",
    "core.vat_hit_rate",
    "hash.key_bytes",
    "seccomp.filter_runs",
    "seccomp.insns_per_run",
    "lifecycle.evictions",
    "lifecycle.restores",
    "lifecycle.restore_failures",
    "lifecycle.snapshot_bytes",
    "policy.swaps",
    "policy.dedup_hits",
    "serve.wire.bytes_per_req",
]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=()):
    """@return (exit code, parsed last-line JSON or None, fingerprint)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    fingerprint = None
    for line in lines:
        if "census fingerprint" in line:
            fingerprint = line.split("census fingerprint")[1].split()[0]
    if result is None:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode, result, fingerprint


def metric(result, name):
    return result["metrics"][name]["value"]


def check_metrics(result, specs, what):
    names = [m["name"] for m in specs]
    check(list(result["metrics"]) == names,
          what + ": prints exactly the named metrics")
    for m in specs:
        got = result["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"] and
              isinstance(got.get("value"), (int, float)),
              "%s: %s has unit %s" % (what, m["name"], m["unit"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for w in spec["workloads"]:
        name = w["name"]
        rc, plain, _ = run(name, 0)
        check(rc == 0 and plain is not None and plain["correct"] and
              plain["failed"] == 0, name + ": untraced run passes the gate")
        if plain:
            check_metrics(plain, spec["end_to_end"], name + " untraced")

        rc1, traced, fp1 = run(name, 1)
        rc2, again, fp2 = run(name, 1)
        check(rc1 == 0 and rc2 == 0 and traced and again and
              traced["correct"] and again["correct"],
              name + ": traced runs pass the gate")
        if not (traced and again):
            continue
        check_metrics(traced, spec["per_layer"], name + " traced")
        check(fp1 is not None and fp1 == fp2,
              "%s: census fingerprint repeats (%s, %s)" % (name, fp1, fp2))
        for m in EXACT:
            a, b = metric(traced, m), metric(again, m)
            check(a == b, "%s: %s repeats exactly (%r, %r)" % (name, m, a, b))

        checks = metric(traced, "census.checks")
        if name == "warm_inproc":
            check(metric(traced, "core.path_share.vat_hit") >= 0.8,
                  "warm_inproc: VAT hit share >= 0.8")
            check(metric(traced, "seccomp.filter_runs") <= 0.001 * checks,
                  "warm_inproc: filter runs near 0")
        if name == "churn":
            check(metric(traced, "lifecycle.evictions") > 0,
                  "churn: evicts tenants")
            check(metric(traced, "lifecycle.restores") > 0,
                  "churn: restores tenants")
            check(metric(traced, "policy.swaps") >= 1000,
                  "churn: at least 1000 swaps")
            check(metric(traced, "core.path_share.filter_denied") > 0,
                  "churn: takes the FilterDenied path")

    rc, bad, _ = run("warm_inproc", 0, ["--corrupt-reference"])
    check(rc != 0 and bad is not None and not bad["correct"] and
          bad["failed"] > 0,
          "a wrong reference trips the verdict gate")

    print("%d check(s) failed" % len(failures) if failures else
          "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
