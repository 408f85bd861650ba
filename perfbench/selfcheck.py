#!/usr/bin/env python3
"""Self-check of the repository benchmark.

Runs every workload at tiny scale, traced and untraced, through the
command BENCHMARK.json names, and checks that

* each run reports correct results and no failed operation;
* the metric names and units it prints are exactly those BENCHMARK.json
  lists (end-to-end ones untraced, per-layer ones traced);
* a second seed changes the simulated results (the printed result
  digest) but not the outcome of the checks.

Run from the repository root:  python3 perfbench/selfcheck.py
"""

import json
import re
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))


def run(workload, seed, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(SPEC["command"] + args, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    digest = next(m.group(1) for m in map(re.compile(r"^result digest: ([0-9a-f]+)").match, lines) if m)
    return json.loads(lines[-1]), digest


def main():
    failures = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            result, digest = run(workload, 1, trace)
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            ok = result["correct"] and result["failed"] == 0 and printed == expected
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace {trace}: digest {digest}, "
                  f"{result['attempted']} operations, {len(printed)} metrics")
            if not ok:
                failures.append((workload, trace, sorted(set(printed) ^ set(expected))))
    first = SPEC["workloads"][0]["name"]
    (a, da), (b, db) = run(first, 1, 0), run(first, 2, 0)
    seed_ok = da != db and a["correct"] and b["correct"] and b["failed"] == 0
    print(f"{'ok  ' if seed_ok else 'FAIL'} {first}: seed 1 digest {da}, seed 2 digest {db}")
    if not seed_ok:
        failures.append((first, "second seed", []))
    if failures:
        sys.exit(f"self-check failed: {failures}")
    print("self-check passed")


if __name__ == "__main__":
    main()
