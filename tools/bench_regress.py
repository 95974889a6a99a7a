#!/usr/bin/env python3
"""Compare a micro_perf result file against the committed baseline.

Usage:
  bench_regress.py --baseline bench/baselines/micro_perf.json \
                   --current bench_results/BENCH_micro_perf.json \
                   [--threshold-pct 10] [--headline name ...]

Exits non-zero when any headline metric's items_per_second regresses by
more than its tolerance relative to the baseline. Non-headline benchmarks
are reported but never gate: shared CI runners are too noisy to gate every
microbenchmark, so the gate covers only the throughput numbers the project
tracks as deliverables. Benchmarks present on one side only are reported
and skipped (renames and additions should update the baseline in the same
change).

Per-metric tolerances: the baseline file may carry a top-level
"tolerances" object mapping benchmark name -> allowed regression percent,
overriding --threshold-pct for that metric only. Use it for headlines
whose workload is inherently noisier than the default gate, e.g.:

  { "benchmark": "micro_perf",
    "tolerances": {"kvs_cluster_ops_telemetry": 15},
    "results": [...] }
"""

import argparse
import json
import sys

# Throughput numbers tracked as deliverables (README acceptance): the WARS
# Monte Carlo headline, the per-message KVS engine, and the event-queue
# churn floor.
DEFAULT_HEADLINES = [
    "wars_trials_n5",
    "kvs_cluster_ops",
    "sim_event_churn",
]


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("mode") != "full":
        print(f"warning: {path} was produced in '{doc.get('mode')}' mode; "
              "only full-mode numbers are comparable", file=sys.stderr)
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold-pct", type=float, default=10.0)
    parser.add_argument("--headline", nargs="*", default=DEFAULT_HEADLINES)
    args = parser.parse_args()

    baseline_doc = load_doc(args.baseline)
    baseline = {r["name"]: r for r in baseline_doc["results"]}
    current = {r["name"]: r for r in load_doc(args.current)["results"]}
    tolerances = baseline_doc.get("tolerances", {})
    for name, pct in tolerances.items():
        if not isinstance(pct, (int, float)) or pct < 0:
            print(f"error: baseline tolerance for '{name}' must be a "
                  f"non-negative number, got {pct!r}", file=sys.stderr)
            return 2

    failures = []
    print(f"{'benchmark':<34} {'baseline/s':>12} {'current/s':>12} "
          f"{'delta':>8} {'gate':>7}")
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline:
            print(f"{name:<34} {'-':>12} "
                  f"{current[name]['items_per_second']:>12.3e} "
                  f"{'new':>8} {'-':>7}")
            continue
        if name not in current:
            print(f"{name:<34} {baseline[name]['items_per_second']:>12.3e} "
                  f"{'-':>12} {'gone':>8} {'-':>7}")
            continue
        base = baseline[name]["items_per_second"]
        cur = current[name]["items_per_second"]
        delta_pct = 100.0 * (cur / base - 1.0)
        gated = name in args.headline
        tolerance = tolerances.get(name, args.threshold_pct)
        gate = f"-{tolerance:.0f}%" if gated else "-"
        print(f"{name:<34} {base:>12.3e} {cur:>12.3e} {delta_pct:>+7.1f}% "
              f"{gate:>7}")
        if gated and delta_pct < -tolerance:
            failures.append((name, base, cur, delta_pct, tolerance))

    if failures:
        for name, base, cur, delta_pct, tolerance in failures:
            print(f"FAIL: {name} regressed {delta_pct:+.1f}% "
                  f"(tolerance -{tolerance:.0f}%): baseline "
                  f"{base:.6g} items/s ({baseline[name]['ns_per_item']:.3f} "
                  f"ns/item), measured {cur:.6g} items/s "
                  f"({current[name]['ns_per_item']:.3f} ns/item)",
                  file=sys.stderr)
        return 1
    print("ok: no headline metric regressed beyond its tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
