#!/usr/bin/env python3
"""Repository benchmark: one run of one workload, metrics as one JSON line.

    python3 perfbench/run.py --workload synth_locality --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first run builds perfbench/ (and the
program's libraries from src/) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset. A run is several passes of the hcsbench
binary, each its own process:

  --trace 0  setup (15 timed set-ups), native (probes off, timed for
             --seconds), sim (probes on, fixed op count). Prints the
             end-to-end metrics.
  --trace 1  native, traced (spans around calls into the program) and sim.
             Prints the per-layer metrics and the time ledger, and writes
             the spans to .bench_out/.

Every pass checks the heap against the workload's seeded model; the run
also requires the checkpoint checksum to be identical in all its passes.
Any violation prints "correct": false and exits 1. --smoke shrinks every
size so a run takes seconds (for the benchmark's own tests only).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth_locality", "kv_zipf_tight", "kv_uniform_write")
PASS_TIMEOUT_S = 170

# name -> unit, in print order. BENCHMARK.json must agree (see tests).
END_TO_END = {
    "setup_s": "s",
    "throughput_kops": "kops/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "cpu_us_per_op": "us",
    "max_rss_mb": "MB",
    "sim_cycles_per_op": "cycles",
    "sim_gc_cycles_per_op": "cycles",
    "l1_miss_per_kop": "misses",
    "llc_miss_per_kop": "misses",
}

PER_LAYER = {
    "runtime.load_ns_p50": "ns",
    "runtime.load_ns_p99": "ns",
    "runtime.alloc_ns_p50": "ns",
    "runtime.alloc_ns_p99": "ns",
    "kv.get_us_p50": "us",
    "kv.get_us_p99": "us",
    "kv.put_us_p50": "us",
    "kv.put_us_p99": "us",
    "kv.remove_us_p99": "us",
    "heap.tlab_refills_per_kop": "count",
    "heap.medium_refills_per_kop": "count",
    "heap.shard_locks_per_kop": "count",
    "heap.page_cache_hit_pct": "%",
    "heap.pretenure_refills_per_kop": "count",
    "heap.stalls": "count",
    "heap.stall_ms_p50": "ms",
    "heap.stall_ms_total": "ms",
    "gc.cycles": "count",
    "gc.pause_ms_p50": "ms",
    "gc.pause_ms_p99": "ms",
    "gc.mark_ms_per_cycle": "ms",
    "gc.mark_prefetch_per_cycle": "count",
    "gc.reloc_ms_per_cycle": "ms",
    "gc.reloc_mb_gc": "MB",
    "gc.reloc_mb_mutator": "MB",
    "gc.ec_small_pages_per_cycle": "count",
    "gc.freed_per_relocated_byte": "ratio",
    "gc.hot_live_pct": "%",
    "gc.site_pretenured_mb": "MB",
    "simcache.mutator_l1_miss_per_kop": "misses",
    "simcache.gc_l1_miss_per_kop": "misses",
    "simcache.mutator_llc_miss_per_kop": "misses",
    "simcache.gc_llc_miss_per_kop": "misses",
    "simcache.loads_per_op": "count",
    "simcache.host_ns_per_access": "ns",
    "simcache.sim_kops": "kops/s",
    "trace.overhead_pct": "%",
    "ledger.unattributed_pct": "%",
    "failed_ops_pct": "%",
}

SIM_END_TO_END = ("sim_cycles_per_op", "sim_gc_cycles_per_op",
                  "l1_miss_per_kop", "llc_miss_per_kop")
# Per-layer metrics copied from each pass's output as they are.
FROM_NATIVE = [n for n in PER_LAYER
               if n.startswith(("heap.", "gc.")) or n == "failed_ops_pct"]
FROM_TRACED = [n for n in PER_LAYER
               if n.startswith(("runtime.", "kv.")) or n.startswith("ledger.")]
FROM_SIM = [n for n in PER_LAYER if n.startswith("simcache.")
            and n not in ("simcache.host_ns_per_access", "simcache.sim_kops")]
SPAN_LAYERS = ("bench.op", "kv.get", "kv.put", "kv.remove", "runtime.load",
               "runtime.alloc")
GC_PHASES = ("stw1", "mark", "stw2", "stw3", "reloc")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds hcsbench; returns its path. Exits 1 if the build fails."""
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, out, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4", "--target",
                  "hcsbench"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(bdir, "hcsbench")


def run_pass(binary, args, pass_name, out_dir):
    """Runs one pass; returns (result dict or None, problem or None)."""
    cmd = [binary, "--workload=" + args.workload, "--pass=" + pass_name,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
           "--out-dir=" + out_dir]
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "%s pass timed out" % pass_name
    log("perfbench: %s pass took %.1f s" % (pass_name,
                                             time.monotonic() - start))
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "%s pass exited %d without a result" % (
            pass_name, proc.returncode)
    if proc.returncode != 0 or res.get("violations", 0):
        return res, "%s pass found %d violations (exit %d)" % (
            pass_name, res.get("violations", 0), proc.returncode)
    return res, None


def per_layer_metrics(native, traced, sim):
    m = {n: native[n] for n in FROM_NATIVE}
    m.update({n: traced[n] for n in FROM_TRACED})
    m.update({n: sim[n] for n in FROM_SIM})
    m["simcache.sim_kops"] = sim["throughput_kops"]
    # Extra host time per simulated access: probes-on op time over the
    # native op time, per mutator probe event.
    events = sim["mutator_probe_events_per_op"]
    extra = sim["client_ns_per_op"] - native["client_ns_per_op"]
    m["simcache.host_ns_per_access"] = extra / events if events else 0.0
    m["trace.overhead_pct"] = (
        100.0 * (native["throughput_kops"] / traced["throughput_kops"] - 1)
        if traced["throughput_kops"] else 0.0)
    return m


def print_ledger(traced):
    total = traced["ledger.mutator_ms"]
    log_lines = ["time ledger: mutator wall time %.1f ms over %d client(s)"
                 % (total, traced["clients"])]
    attributed = 0.0
    for layer in SPAN_LAYERS:
        ms = traced["ledger.self_ms." + layer]
        attributed += ms
        if ms:
            log_lines.append("  %-16s %10.1f ms %6.1f%%"
                             % (layer, ms, 100.0 * ms / total))
    rest = total - attributed
    log_lines.append("  %-16s %10.1f ms %6.1f%%"
                     % ("unattributed", rest, 100.0 * rest / total))
    log_lines.append("GC phase time in the timed phase (GC threads, "
                     "from cycle records):")
    for phase in GC_PHASES:
        log_lines.append("  %-16s %10.1f ms"
                         % (phase, traced["ledger.gc_ms." + phase]))
    print("\n".join(log_lines))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    passes = ("native", "traced", "sim") if args.trace else (
        "setup", "native", "sim")
    results, problems = {}, []
    for p in passes:
        res, problem = run_pass(binary, args, p, out_dir)
        if problem:
            problems.append(problem)
        if res is not None:
            results[p] = res
    sums = {results[p]["checkpoint_checksum"] for p in results
            if "checkpoint_checksum" in results[p]}
    if len(sums) > 1:
        problems.append("checkpoint checksums differ across passes: "
                        + ", ".join(sorted(sums)))
    for problem in problems:
        log("perfbench: VIOLATION: " + problem)
    correct = not problems and len(results) == len(passes)

    attempted = sum(int(r.get("attempted", 0)) for r in results.values())
    failed = sum(int(r.get("failed", 0)) for r in results.values())
    metrics = {}
    if correct:
        if args.trace:
            values = per_layer_metrics(results["native"], results["traced"],
                                       results["sim"])
            units = PER_LAYER
            print_ledger(results["traced"])
        else:
            values = {n: results["sim"][n] for n in SIM_END_TO_END}
            values.update({n: results["native"][n] for n in END_TO_END
                           if n not in SIM_END_TO_END})
            values["setup_s"] = results["setup"]["setup_s"]
            units = END_TO_END
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print("%-36s %14.6g %s" % (name, values[name], unit))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
