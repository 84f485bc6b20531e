#!/usr/bin/env python3
"""Compare and merge bench_* JSON outputs (the bench_common.hpp format).

A bench file holds one or more labelled runs:

    {"benchmark": "bench_fig5_scaling",
     "runs": [{"label": "...", "entries": [{"name": ..., "rss_bytes": ...}]}]}

Modes:

  compare (default)
      bench_compare.py BASELINE.json CANDIDATE.json [--metric events_per_sec]
          [--min-ratio 0.9] [--advisory] [--baseline-label L] [--candidate-label L]
      Matches entries by name and prints candidate/baseline ratios for the
      chosen metric. Exits 1 when any ratio falls below --min-ratio, unless
      --advisory is set (warn, exit 0). When a file holds several runs, the
      last one is used unless a label is named explicitly.

      --metric accepts any numeric entry field, including the
      benchmark-specific extras benches append (the load sweep's
      offered_tps, goodput_tps, p50_ms, p99_ms, rejected, evicted,
      extracted_value). For lower-is-better metrics (latency tails,
      rejects) pass --max-ratio instead of --min-ratio: the comparison
      then fails when candidate/baseline *exceeds* the bound, and the
      min-ratio gate defaults off.

  merge
      bench_compare.py --merge OUT.json IN1.json [IN2.json ...]
      Concatenates the runs of the inputs (in order) into OUT.json — used to
      keep a before/after trajectory in one checked-in file. OUT may be one
      of the inputs.

CI runs compare in --advisory mode: shared runners are too noisy for a hard
gate, but the ratio table in the log makes regressions visible at a glance.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "runs" not in doc or not doc["runs"]:
        sys.exit(f"{path}: no runs in file")
    return doc


def pick_run(doc, path, label):
    runs = doc["runs"]
    if label is None:
        return runs[-1]
    for run in runs:
        if run.get("label") == label:
            return run
    sys.exit(f"{path}: no run labelled {label!r} "
             f"(have: {', '.join(r.get('label', '?') for r in runs)})")


def compare(args):
    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    base = pick_run(base_doc, args.baseline, args.baseline_label)
    cand = pick_run(cand_doc, args.candidate, args.candidate_label)
    base_by_name = {e["name"]: e for e in base["entries"]}

    print(f"metric: {args.metric}   baseline: {base.get('label', '?')!r} "
          f"({args.baseline})   candidate: {cand.get('label', '?')!r} "
          f"({args.candidate})")
    print(f"{'entry':<20} {'baseline':>14} {'candidate':>14} {'ratio':>8}")

    # With an explicit upper bound the metric is lower-is-better; the
    # min-ratio gate then defaults off (an improvement must not fail).
    min_ratio = args.min_ratio
    if min_ratio is None:
        min_ratio = 0.0 if args.max_ratio is not None else 0.9
    worst = None
    worst_high = None
    compared = 0
    for entry in cand["entries"]:
        name = entry["name"]
        ref = base_by_name.get(name)
        if ref is None:
            print(f"{name:<20} {'-':>14} "
                  f"{entry.get(args.metric, 0):>14.0f} {'new':>8}")
            continue
        b = float(ref.get(args.metric, 0.0))
        c = float(entry.get(args.metric, 0.0))
        # A zero baseline with a zero candidate is a clean match (common
        # for backpressure counters below the saturation knee).
        ratio = c / b if b > 0 else (1.0 if c == 0 else float("inf"))
        flag = ""
        if ratio < min_ratio:
            flag = "  << below min-ratio"
        elif args.max_ratio is not None and ratio > args.max_ratio:
            flag = "  << above max-ratio"
        print(f"{name:<20} {b:>14.0f} {c:>14.0f} {ratio:>7.2f}x{flag}")
        compared += 1
        if worst is None or ratio < worst:
            worst = ratio
        if worst_high is None or ratio > worst_high:
            worst_high = ratio

    if compared == 0:
        sys.exit("no common entries to compare")
    msg = None
    if worst < min_ratio:
        msg = (f"worst ratio {worst:.2f}x is below the threshold "
               f"{min_ratio:.2f}x")
    elif args.max_ratio is not None and worst_high > args.max_ratio:
        msg = (f"worst ratio {worst_high:.2f}x is above the threshold "
               f"{args.max_ratio:.2f}x")
    if msg is not None:
        if args.advisory:
            print(f"WARNING (advisory): {msg}")
            return 0
        print(f"FAIL: {msg}")
        return 1
    bounds = f"{worst:.2f}x >= {min_ratio:.2f}x"
    if args.max_ratio is not None:
        bounds += f", {worst_high:.2f}x <= {args.max_ratio:.2f}x"
    print(f"OK: worst ratio {bounds}")
    return 0


def merge(args):
    benchmark = None
    runs = []
    for path in args.inputs:
        doc = load(path)
        if benchmark is None:
            benchmark = doc.get("benchmark", "?")
        elif doc.get("benchmark") != benchmark:
            print(f"note: merging different benchmarks "
                  f"({benchmark} + {doc.get('benchmark')})", file=sys.stderr)
        runs.extend(doc["runs"])
    with open(args.merge, "w") as f:
        json.dump({"benchmark": benchmark, "runs": runs}, f, indent=2)
        f.write("\n")
    print(f"wrote {len(runs)} runs to {args.merge}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--merge", metavar="OUT",
                   help="merge mode: write all runs of the inputs to OUT")
    p.add_argument("files", nargs="+",
                   help="compare: BASELINE CANDIDATE; merge: inputs")
    p.add_argument("--metric", default="events_per_sec")
    p.add_argument("--min-ratio", type=float, default=None,
                   help="fail when candidate/baseline drops below this "
                        "(default 0.9; 0 when --max-ratio is given)")
    p.add_argument("--max-ratio", type=float, default=None,
                   help="also fail when candidate/baseline exceeds this "
                        "(lower-is-better metrics: p99_ms, rejected, ...)")
    p.add_argument("--advisory", action="store_true",
                   help="report regressions but always exit 0")
    p.add_argument("--baseline-label", default=None)
    p.add_argument("--candidate-label", default=None)
    args = p.parse_args()

    if args.merge:
        args.inputs = args.files
        return merge(args)
    if len(args.files) != 2:
        p.error("compare mode takes exactly BASELINE and CANDIDATE")
    args.baseline, args.candidate = args.files
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
