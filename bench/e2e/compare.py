#!/usr/bin/env python3
"""Compares end-to-end benchmark runs of two commits (README.md here).

  compare.py run --base DIR --head DIR [--pairs 10] [--workloads a,b]
                 [--seconds S] [--seed 1] [--save FILE]
      Runs bench/e2e/run.py in two checkouts as alternating pairs (the base
      goes first in even pairs, the head in odd ones), all at one seed, then
      prints the report below.
  compare.py report FILE
      Prints the report for results saved by `run --save` or `spread --save`.
  compare.py spread [--dir DIR] [--runs 10] [--workloads a,b] [--seconds S]
                    [--seed 1] [--save FILE]
      Runs one checkout --runs times per workload, each at its own seed
      (seed, seed+1, ...), and prints each end-to-end metric's interquartile
      range as a share of its median next to the bound BENCHMARK.json
      declares.

The report has one row per workload and end-to-end metric with each side's
median and quartiles, the head's win rate, and a verdict:
  improved    the head wins >= 9/10 of the pairs and the medians differ by
              more than the base's interquartile range;
  worse       the head's median is worse than the base's by more than the
              metric's bound;
  unresolved  the base's own spread is wider than the bound, and not every
              head run beats every base run;
  unchanged   otherwise.
The times at reference host speed are judged twice: once as reported and
once on their raw wall-clock twins, whose drift the alternating pairs
cancel. The reference-speed divisor runs next to library code, so a change
can move it a little. A row is improved or worse only when both verdicts
agree; when they disagree it is unresolved, except that a raw verdict of
unresolved leaves an unchanged row unchanged.
It also lists every per-layer count that differs between runs of one side
at one seed (they must not), and the counts the head changed.
Exits 1 when any row is worse or any run failed a correctness check.
Python standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

# Non-count metrics that are still exact functions of the seed.
EXACT = {"kvs.hedge_win_ratio", "kvs.moved_over_min", "tvis_max_abs_err",
         "analytic_vs_mc.tvis_max_abs_err"}

# The wall-clock twin of each end-to-end time reported at reference speed.
RAW = {"request_ref_ms_p50": "raw_request_ms_p50",
       "request_ref_ms_p90": "raw_request_ms_p90",
       "ops_per_ref_s": "raw_ops_per_s",
       "setup_s": "raw_setup_s"}


def load_spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def run_once(checkout, workload, seed, seconds):
    """One untraced run in `checkout`: (result line, every metric)."""
    proc = subprocess.run(
        [sys.executable, "bench/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare.py: {workload} failed in {checkout}")
    result = json.loads(lines[-1])
    full = Path(checkout) / "build/e2e/results" / f"BENCH_e2e_{workload}.json"
    metrics = json.loads(full.read_text())["metrics"]
    return result, {k: v["value"] for k, v in metrics.items()}


def record(records, save, **entry):
    records.append(entry)
    if save:
        with open(save, "a") as f:
            f.write(json.dumps(entry) + "\n")
    r = entry["result"]
    name, metric = next(iter(r["metrics"].items()))
    print(f"  {entry['side']:>6} {entry['workload']:<17} seed {entry['seed']:<4}"
          f" {name} {metric['value']:10.3f} {metric['unit']}"
          f"  correct={r['correct']} failed={r['failed']}", file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(base, head, metric, wins, pairs):
    bq1, bmed, bq3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    lower = metric["better"] == "lower"
    worse_by = (hmed - bmed if lower else bmed - hmed) / bmed if bmed else 0.0
    all_better = all(better(h, b, metric["better"]) for h in head for b in base)
    spread = (bq3 - bq1) / bmed if bmed else 0.0
    if (pairs and wins / pairs >= 0.9 and better(hmed, bmed, metric["better"])
            and abs(hmed - bmed) > bq3 - bq1):
        return "improved"
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    return "unchanged"


def paired_verdict(base, head, metric):
    """Verdict on two lists of values in pair order, and the head's wins."""
    wins = sum(better(h, b, metric["better"]) for b, h in zip(base, head))
    pairs = min(len(base), len(head))
    return verdict(base, head, metric, wins, pairs), wins, pairs


def combine(ref, raw):
    if raw is None or raw == ref:
        return ref
    if ref == "unchanged" and raw == "unresolved":
        return "unchanged"
    return "unresolved"


def report(records):
    spec = load_spec()
    bad = False
    for r in records:
        if not r["result"]["correct"] or r["result"]["failed"]:
            print(f"FAILED run: {r['side']} {r['workload']} seed {r['seed']}")
            bad = True
    workloads = [w["name"] for w in spec["workloads"]
                 if any(r["workload"] == w["name"] for r in records)]
    sides = sorted({r["side"] for r in records})
    if sides == ["spread"]:
        print(f"{'workload':<17} {'metric':<19} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for w in workloads:
            rows = [r for r in records if r["workload"] == w]
            for m in spec["end_to_end"]:
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in rows]
                q1, med, q3 = quartiles(vals)
                share = (q3 - q1) / med if med else 0.0
                flag = "" if share <= m["bound"] or m["name"] == "setup_s" else " OVER"
                print(f"{w:<17} {m['name']:<19} {med:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {share:8.4f} {m['bound']:6.2f}{flag}")
        return 1 if bad else 0

    print(f"{'workload':<17} {'metric':<19} {'base med':>11} {'[q1, q3]':>23} "
          f"{'head med':>11} {'[q1, q3]':>23} {'wins':>6} {'raw':<10} verdict")
    for w in workloads:
        base = [r for r in records if r["workload"] == w and r["side"] == "base"]
        head = [r for r in records if r["workload"] == w and r["side"] == "head"]
        base.sort(key=lambda r: r["pair"])
        head.sort(key=lambda r: r["pair"])
        for m in spec["end_to_end"]:
            bv = [r["result"]["metrics"][m["name"]]["value"] for r in base]
            hv = [r["result"]["metrics"][m["name"]]["value"] for r in head]
            if not bv or not hv:
                continue
            ref, wins, pairs = paired_verdict(bv, hv, m)
            raw = None
            if m["name"] in RAW:
                raw, _, _ = paired_verdict([r["full"][RAW[m["name"]]] for r in base],
                                           [r["full"][RAW[m["name"]]] for r in head], m)
            v = combine(ref, raw)
            bad |= v == "worse"
            bq1, bmed, bq3 = quartiles(bv)
            hq1, hmed, hq3 = quartiles(hv)
            print(f"{w:<17} {m['name']:<19} {bmed:11.4f} [{bq1:10.4f},{bq3:10.4f}]"
                  f" {hmed:11.4f} [{hq1:10.4f},{hq3:10.4f}] {wins:>2}/{pairs:<3}"
                  f" {raw or '-':<10} {v}")
    exact = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"} | EXACT
    for w in workloads:
        first = {}
        for side in sides:
            by_seed = {}
            for r in records:
                if r["workload"] == w and r["side"] == side:
                    by_seed.setdefault(r["seed"], []).append(r["full"])
            for seed, fulls in by_seed.items():
                first.setdefault(side, fulls[0])
                for k in sorted(exact & fulls[0].keys()):
                    values = sorted({f[k] for f in fulls})
                    if len(values) > 1:
                        print(f"COUNT DIFFERS {side} {w} seed {seed} {k}: {values}")
                        bad = True
        if "base" in first and "head" in first:
            changed = sorted(k for k in exact & first["base"].keys()
                             if first["base"][k] != first["head"].get(k))
            if changed:
                print(f"{w}: counts changed from base to head: {', '.join(changed)}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    spec = load_spec()
    names = ",".join(w["name"] for w in spec["workloads"])
    for name in ("run", "spread"):
        p = sub.add_parser(name)
        p.add_argument("--workloads", default=names)
        p.add_argument("--seconds", type=float, default=spec["run_seconds"])
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--save")
    run = sub.choices["run"]
    run.add_argument("--base", required=True)
    run.add_argument("--head", required=True)
    run.add_argument("--pairs", type=int, default=10)
    spread = sub.choices["spread"]
    spread.add_argument("--dir", default=str(REPO))
    spread.add_argument("--runs", type=int, default=10)
    rep = sub.add_parser("report")
    rep.add_argument("file")
    args = parser.parse_args()

    if args.cmd == "report":
        lines = Path(args.file).read_text().splitlines()
        return report([json.loads(line) for line in lines if line.strip()])

    records = []
    for w in args.workloads.split(","):
        if args.cmd == "spread":
            for i in range(args.runs):
                result, full = run_once(args.dir, w, args.seed + i, args.seconds)
                record(records, args.save, side="spread", workload=w,
                       seed=args.seed + i, pair=i, result=result, full=full)
            continue
        for i in range(args.pairs):
            order = [("base", args.base), ("head", args.head)]
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                result, full = run_once(checkout, w, args.seed, args.seconds)
                record(records, args.save, side=side, workload=w,
                       seed=args.seed, pair=i, result=result, full=full)
    return report(records)


if __name__ == "__main__":
    sys.exit(main())
