#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (~20 s after the build).

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that:
  * every metric BENCHMARK.json names is emitted, with its unit;
  * the simulated metrics repeat bit-exactly across two untraced runs;
  * the traced run reproduces the untraced sim_fingerprint.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the metric tables live in run.py)


def invoke(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("FAIL %s: %s exited %d" % (workload, " ".join(cmd),
                                                    proc.returncode))
    fingerprint = next(l.split()[1] for l in lines
                       if l.startswith("sim_fingerprint"))
    return json.loads(lines[-1]), fingerprint


def check_names(workload, result, wanted):
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            raise SystemExit("FAIL %s: %s not emitted" % (workload, m["name"]))
        if got[m["name"]]["unit"] != m["unit"]:
            raise SystemExit("FAIL %s: %s unit %s, BENCHMARK.json says %s" % (
                workload, m["name"], got[m["name"]]["unit"], m["unit"]))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        first, fp1 = invoke(name, 0)
        second, fp2 = invoke(name, 0)
        traced, fp3 = invoke(name, 1)
        check_names(name, first, spec["end_to_end"])
        check_names(name, traced, spec["per_layer"])
        for metric, value in first["metrics"].items():
            if run.is_host_metric(metric):
                continue
            if second["metrics"][metric]["value"] != value["value"]:
                raise SystemExit("FAIL %s: %s differs across runs" %
                                 (name, metric))
        if not fp1 == fp2 == fp3:
            raise SystemExit("FAIL %s: fingerprints %s %s %s" %
                             (name, fp1, fp2, fp3))
        print("ok %-20s sim_fingerprint %s" % (name, fp1), flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
