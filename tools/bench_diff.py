#!/usr/bin/env python3
"""Compare a benchmark JSON report against a committed baseline.

One gate for both report types CI produces; the type is read from the
document itself:

  * alloc-scaling sweep (``points`` + ``cores``, from bench_alloc_scaling
    --out): guards throughput_mops at 1 mutator (the single-threaded
    TLAB fast path) and 8 mutators (the sharded allocation stack under
    contention). Higher is better; default tolerance 10%.
  * google-benchmark output (``benchmarks`` + ``context.num_cpus``, from
    --benchmark_out=... --benchmark_out_format=json): guards the
    cpu_time of every benchmark both reports ran. Lower is better;
    default tolerance 50%, because micro timings are noisy and the gate
    exists to catch order-of-magnitude mistakes, not single-digit drift.

    tools/bench_diff.py --current BENCH_alloc_scaling.json \\
        --baseline bench/baselines/BENCH_alloc_scaling.json
    tools/bench_diff.py --current BENCH_micro_gc.json \\
        --baseline bench/baselines/BENCH_micro_gc.json

Only a move in the bad direction fails: the committed baseline is a
floor (or ceiling), not a fingerprint. Refresh it whenever an
intentional performance change lands.

A baseline captured on a different core count (or one that never
recorded a core count while the current run did) is not comparable: the
numbers measure the machine as much as the code. Such comparisons are
refused with a warning and exit 0, unless --strict turns the refusal
into a failure so CI can demand a refreshed baseline.

A baseline that lacks a guarded sweep point, and benchmarks present on
only one side, are reported but never fail the run (suites grow).

Exit codes: 0 ok, 1 regression (or refused comparison under --strict),
2 usage/IO error.
"""

import argparse
import json
import sys


GUARDED_MUTATORS = (1, 8)

# Per report type: direction, default tolerance, and how to print a value.
SWEEP = {"name": "sweep", "higher_better": True, "tolerance": 0.10,
         "unit": "Mops/s"}
GBENCH = {"name": "google-benchmark", "higher_better": False,
          "tolerance": 0.50, "unit": "ns"}

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def fail_io(msg):
    sys.stderr.write(f"bench_diff: {msg}\n")
    sys.exit(2)


def as_cores(value):
    return int(value) if value is not None else None


def sweep_values(doc, path):
    """{mutators: throughput_mops} from an alloc-scaling sweep."""
    points = doc["points"]
    if not points:
        fail_io(f"{path} has no points")
    return {int(p["mutators"]): float(p["throughput_mops"])
            for p in points}


def gbench_values(doc, path):
    """{name: cpu_time in ns} from a google-benchmark report."""
    times = {}
    for b in doc["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        scale = TIME_UNIT_NS.get(b.get("time_unit", "ns"))
        if scale is None or "cpu_time" not in b:
            continue
        times[b["name"]] = float(b["cpu_time"]) * scale
    if not times:
        fail_io(f"{path} has no benchmarks")
    return times


def load_report(path):
    """Returns (kind, values, cores) for a sweep or gbench report."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail_io(f"cannot read {path}: {e}")
    try:
        if isinstance(doc, dict) and "points" in doc:
            return SWEEP, sweep_values(doc, path), as_cores(doc.get("cores"))
        if isinstance(doc, dict) and "benchmarks" in doc:
            cores = doc.get("context", {}).get("num_cpus")
            return GBENCH, gbench_values(doc, path), as_cores(cores)
    except (KeyError, TypeError, ValueError) as e:
        fail_io(f"{path} is malformed: {e!r}")
    fail_io(f"{path} is neither a sweep report (points) nor a "
            f"google-benchmark report (benchmarks)")


def guarded_keys(kind, cur, base):
    """The keys to gate on, after reporting the ones that cannot be."""
    if kind is SWEEP:
        keys = []
        for m in GUARDED_MUTATORS:
            if m not in base:
                sys.stderr.write(
                    f"bench_diff: WARNING: baseline lacks the {m}-mutator "
                    f"point; skipping this guard (refresh the baseline)\n")
            else:
                keys.append(m)
        return keys
    for name in sorted(set(base) - set(cur)):
        sys.stderr.write(f"bench_diff: note: baseline-only benchmark "
                         f"{name} (renamed or removed?)\n")
    for name in sorted(set(cur) - set(base)):
        print(f"  {name}: new benchmark, no baseline yet")
    return sorted(set(cur) & set(base))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True,
                    help="JSON produced by this run")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline JSON")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="allowed fractional move in the bad direction "
                         "(default 0.10 for sweeps, 0.50 for "
                         "google-benchmark)")
    ap.add_argument("--strict", action="store_true",
                    help="fail (exit 1) instead of warn-and-skip when "
                         "the baseline's core count does not match")
    args = ap.parse_args()

    kind, cur, cur_cores = load_report(args.current)
    base_kind, base, base_cores = load_report(args.baseline)
    if kind is not base_kind:
        fail_io(f"{args.current} is a {kind['name']} report but "
                f"{args.baseline} is a {base_kind['name']} report")
    tolerance = (args.tolerance if args.tolerance is not None
                 else kind["tolerance"])

    # None is comparable only to None (two reports from before the core
    # count was recorded); a current run that records cores against a
    # baseline that never did means the baseline is stale.
    def fmt_cores(n):
        return str(n) if n is not None else "unknown"
    print(f"  {kind['name']} report; cores: current "
          f"{fmt_cores(cur_cores)}, baseline {fmt_cores(base_cores)}")
    if cur_cores != base_cores:
        sys.stderr.write(
            f"bench_diff: WARNING: skipping every guard — baseline cores "
            f"({fmt_cores(base_cores)}) != current cores "
            f"({fmt_cores(cur_cores)}); refresh bench/baselines/ on this "
            f"machine\n")
        if args.strict:
            sys.stderr.write("bench_diff: --strict: refusing to compare "
                             "against a baseline from a different core "
                             "count\n")
            sys.exit(1)
        print("bench_diff: comparison skipped (core-count mismatch)")
        return

    failed = False
    unit = kind["unit"]
    for key in guarded_keys(kind, cur, base):
        if key not in cur:
            sys.stderr.write(f"bench_diff: current run is missing {key}, "
                             f"which the baseline guards\n")
            failed = True
            continue
        if kind["higher_better"]:
            limit = base[key] * (1.0 - tolerance)
            bad = cur[key] < limit
        else:
            limit = base[key] * (1.0 + tolerance)
            bad = cur[key] > limit
        ratio = cur[key] / base[key] if base[key] else float("inf")
        print(f"  {key}: {cur[key]:12.2f} {unit} vs baseline "
              f"{base[key]:12.2f} (x{ratio:5.3f}, limit {limit:12.2f}) "
              f"{'REGRESSION' if bad else 'OK'}")
        failed = failed or bad

    if failed:
        sys.stderr.write(f"bench_diff: a guarded result moved more than "
                         f"{tolerance * 100:.0f}% the wrong way vs the "
                         f"committed baseline\n")
        sys.exit(1)

    if kind is SWEEP:
        # The guarded points gate; the rest give the scaling-curve context.
        print("\n  per-point ratios (current / baseline):")
        print(f"  {'mutators':>8} {'current':>10} {'baseline':>10} "
              f"{'ratio':>7}")
        for m in sorted(set(cur) & set(base)):
            ratio = cur[m] / base[m] if base[m] else float("inf")
            mark = " *" if m in GUARDED_MUTATORS else ""
            print(f"  {m:8d} {cur[m]:10.2f} {base[m]:10.2f} "
                  f"{ratio:7.3f}{mark}")
        print("  (* = guarded point)")
    print("bench_diff: no regression")


if __name__ == "__main__":
    main()
