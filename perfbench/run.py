#!/usr/bin/env python3
"""Lyra benchmark: one workload on the serial engine, one JSON result line.

    python3 perfbench/run.py --workload lyra_closed_n48 --seed 42 \
        --seconds 25 --trace 0

Run from the repository root. The first call builds perfbench/ (and the
library sources it pulls from src/) into $CARGO_TARGET_DIR, default
.bench_build. Each repetition is a separate process, so peak RSS is that of
one run.

--trace 0 repeats the untraced run until --seconds is used up (at least
twice) and reports the end-to-end metrics. --trace 1 alternates two untraced
runs with two runs that use timing node subclasses, checks that all produce
the same simulated world, and reports the per-layer metrics. See README.md.

Exit status is non-zero, with no result line, when the build or a run fails;
a failed correctness check prints the result with "correct": false and
exits 1.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("lyra_closed_n48", "pompe_closed_n100", "lyra_open_n31",
             "lyra_crash_n31")
DEFAULT_SEED = 42  # claims are validated again on the held-out seed 7919

E2E = (
    ("host_s_per_sim_s", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("commit_p50_ms", "ms"),
    ("commit_p95_ms", "ms"),
    ("goodput_tps", "tx/s"),
)

LYRA_KINDS = ("INIT", "VOTE", "DELIVER", "EST", "COORD", "AUX", "SHARES",
              "HEARTBEAT", "PROBE", "PROBE_REPLY", "SUBMIT", "RELAY",
              "RESYNC", "STATESYNC")
POMPE_KINDS = ("SUBMIT", "TS_REQUEST", "TS_REPLY", "SEQUENCE")
HOTSTUFF_KINDS = ("HS_PROPOSAL", "HS_VOTE", "HS_NEWVIEW")


def _span(name):
    return ((name + ".calls", "count"), (name + ".host_s", "s"))


LAYER = (
    (("sim.events", "count"), ("sim.ns_per_event", "ns"),
     ("sim.outside_handlers_s", "s"), ("trace.overhead_s_per_sim_s", "s/s"))
    + sum((_span("lyra.handler." + k) for k in LYRA_KINDS), ())
    + (("lyra.handler.INIT.self_s", "s"),)
    + _span("lyra.validate_init") + _span("lyra.fill_status")
    + _span("ordering.build_predictions")
    + (("lyra.phase.batch_wait_p50_ms", "ms"),
       ("lyra.phase.consensus_p50_ms", "ms"),
       ("lyra.phase.commit_wait_p50_ms", "ms"),
       ("lyra.phase.reveal_p50_ms", "ms"),
       ("lyra.accept_rate", "ratio"), ("lyra.txs_per_batch", "tx"),
       ("lyra.decide_rounds_mean", "rounds"))
    + sum((_span("pompe.handler." + k) for k in POMPE_KINDS), ())
    + sum((_span("hotstuff.handler." + k) for k in HOTSTUFF_KINDS), ())
    + (("pompe.sig_verifies_per_tx", "1/tx"),)
    + tuple((m, "ns") for m in (
        "crypto.sha256_64B_ns", "crypto.sha256_batch_ns", "crypto.verify_ns",
        "crypto.share_combine_ns", "crypto.threshold_verify_ns",
        "crypto.shamir_split_ns", "crypto.shamir_combine_ns",
        "crypto.vss_encrypt_ns", "crypto.vss_verify_share_ns"))
    + (("net.msgs_per_tx", "1/tx"), ("net.bytes_per_tx", "B/tx"),
       ("net.msgs_dropped", "count"),
       ("client.latency_samples", "count"),
       ("client.commit_p99_ms", "ms"),
       ("client.resubmissions", "count"),
       ("client.duplicate_notifies", "count"),
       ("client.failed_frac", "ratio"),
       ("workload.offered", "count"), ("workload.terminal_rejects", "count"),
       ("workload.unresolved", "count"),
       ("mempool.admitted", "count"), ("mempool.evicted", "count"),
       ("mempool.rejected_full", "count"), ("mempool.duplicates", "count"),
       ("attacks.victims_targeted", "count"),
       ("attacks.extracted_value", "value"),
       ("storage.wal_records", "count"), ("storage.wal_bytes_per_tx", "B/tx"),
       ("storage.snapshots_written", "count"),
       ("storage.disk_bytes_written", "B"),
       ("storage.replayed_records", "count"),
       ("storage.recovery_host_ms", "ms"),
       ("statesync.chunks_fetched", "count"),
       ("statesync.chunks_local", "count"),
       ("statesync.chunk_timeouts", "count"),
       ("statesync.bytes_transferred", "B"),
       ("statesync.entries_installed", "count"),
       ("statesync.catchup_reveals", "count"),
       ("statesync.serves_shed", "count"),
       ("statesync.useful_chunk_frac", "ratio"),
       ("statesync.rejoin_full_ms", "ms"),
       ("statesync.rejoin_delta_ms", "ms"),
       ("statesync.rejoin_ms", "ms"))
)

# Metrics read from the host clock; everything else is simulated or counted
# and must repeat bit-exactly for a seed.
HOST_METRICS = {"host_s_per_sim_s", "setup_s", "peak_rss_mb",
                "sim.ns_per_event", "sim.outside_handlers_s",
                "trace.overhead_s_per_sim_s", "storage.recovery_host_ms"}


def is_host_metric(name):
    return (name in HOST_METRICS or name.startswith("crypto.")
            or name.endswith(".host_s") or name.endswith(".self_s"))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures and builds the driver; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench-relwithdebinfo")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "lyra_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "lyra_perfbench")


def run_once(binary, workload, seed, traced, tiny):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def source_digest(root):
    """Digest of the sources the benchmark builds (a checkout has no git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"  # a plain checkout; source_digest identifies it
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def world(rep):
    """What must match between any two runs of one seed."""
    sim = {k: v for k, v in rep["e2e"].items() if not is_host_metric(k)}
    sim.update({k: v for k, v in rep["layer"].items()
                if not is_host_metric(k)})
    return (rep["fingerprint"], rep["nodes_digest"], rep["events"],
            rep["committed_txs"], rep["attempted"], rep["failed"],
            json.dumps(sim, sort_keys=True))


def loop_host_s(reps):
    """Event-loop host seconds of a run repeated identically in `reps`.

    Interference from other tenants of the machine only ever adds host time
    and comes and goes within seconds, so each 50 ms slice of the simulated
    run takes its fastest repetition before the slices are summed.
    """
    return sum(min(col) for col in zip(*(r["slice_host_s"] for r in reps)))


def untraced_metrics(reps):
    first = reps[0]
    values = {
        "host_s_per_sim_s": loop_host_s(reps) / first["sim_s"],
        "setup_s": statistics.median(s for r in reps for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    values.update(first["e2e"])
    return {name: values[name] for name, _ in E2E}, values


def traced_metrics(plain, traced):
    """Per-layer metrics from untraced and traced repetitions of one seed.

    Span totals come from the traced repetition that ran fastest overall.
    """
    fastest = min(traced, key=lambda r: r["loop_host_s"])
    layer = dict(fastest["layer"])
    layer.update(fastest["trace"])
    untraced_s = loop_host_s(plain)
    sim_s = fastest["sim_s"]
    layer["sim.events"] = fastest["events"]
    layer["sim.ns_per_event"] = untraced_s / fastest["events"] * 1e9
    layer["trace.overhead_s_per_sim_s"] = (
        (loop_host_s(traced) - untraced_s) / sim_s)
    return {name: layer.get(name, 0.0) for name, _ in LAYER}, layer


def print_report(workload, seed, rep, context, values, spans):
    print("workload %s seed %d" % (workload, seed))
    print("context " + json.dumps(context, sort_keys=True))
    print("sim_fingerprint %s (events %d, committed txs %d, node-0 chain %s)"
          % (rep["fingerprint"], rep["events"], rep["committed_txs"],
             rep["node0_chain"][:16]))
    attempted, failed = rep["attempted"], rep["failed"]
    print("transactions attempted %d failed %d failed_frac %.6f"
          % (attempted, failed, failed / attempted if attempted else 0.0))
    samples = rep["layer"].get("client.latency_samples", 0)
    for name, value in sorted(values.items()):
        note = ""
        if name.startswith("commit_p"):
            note = "  (%d samples: one per commit notification)" % samples
        print("  %-40s %.6g%s" % (name, value, note))
    if spans:
        print("  spans (calls, host s, self s):")
        for name in sorted(spans):
            calls, total, self_s = spans[name]
            if calls == 0:
                continue
            print("    %-36s %10d %10.4f %10.4f" % (name, calls, total, self_s))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken cluster and run, for the self-test")
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 2

    start = time.monotonic()
    try:
        if args.trace:
            reps = [run_once(binary, args.workload, args.seed, traced,
                             args.tiny)
                    for traced in (False, True, False, True)]
        else:
            reps = []
            while True:
                t0 = time.monotonic()
                reps.append(run_once(binary, args.workload, args.seed, False,
                                     args.tiny))
                took = time.monotonic() - t0
                spent = time.monotonic() - start
                if len(reps) >= 2 and spent + took > args.seconds:
                    break
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        log("run failed: %s" % e)
        return 2

    errors = sorted({e for r in reps for e in r["errors"]})
    if len({world(r) for r in reps}) != 1:
        errors.append("repetitions of one seed diverged" +
                      (" (traced vs untraced)" if args.trace else ""))
    first = reps[0]
    context = dict(first["context"])
    context.update(git_revision=git_revision(root),
                   source_digest=source_digest(root), repetitions=len(reps),
                   host_seconds=round(time.monotonic() - start, 3))

    spans = {}
    if args.trace:
        metrics, shown = traced_metrics(reps[0::2], reps[1::2])
        for key in list(shown):
            if key.endswith(".calls"):
                base = key[:-len(".calls")]
                spans[base] = (int(shown.pop(key)), shown.pop(base + ".host_s"),
                               shown.pop(base + ".self_s"))
        units = dict(LAYER)
    else:
        metrics, shown = untraced_metrics(reps)
        units = dict(E2E)
    print_report(args.workload, args.seed, first, context, shown, spans)
    for e in errors:
        print("CHECK FAILED: " + e)
    result = {
        "correct": not errors,
        "attempted": int(first["attempted"]),
        "failed": int(first["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
