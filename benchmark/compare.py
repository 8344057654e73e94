#!/usr/bin/env python3
"""Compare two benchmark result sets (stdlib only).

  python3 benchmark/compare.py BASE.jsonl NEW.jsonl

Each file holds N runs per workload, as written by
`benchmark/run.py --runs N --out FILE`. For every (workload, metric) the
script prints both sides' median and quartiles and labels the pair:

  improved    NEW wins at least 9 of every 10 pairs of runs (ties count for
              neither side), its median is better than BASE's by more than
              BASE's own quartile distance, and NEW failed no larger share of
              its transactions than BASE;
  regressed   NEW's median is worse than BASE's by more than the metric's
              bound in BENCHMARK.json, and the run-to-run spread is within
              the bound (or every NEW run is worse than every BASE run);
  unresolved  the spread of either side is wider than the bound, so no
              "unchanged" claim can be made (unless every NEW run is better
              than every BASE run);
  unchanged   otherwise.

Runs pair up by seed. On a deterministic workload (one simulation thread) a
seed gives the same simulated results on every run, so when both sets ran the
same seeds, a simulated metric is judged by its seed-paired change instead:
the median over seeds of NEW's change against BASE, held to PAIRED_BOUNDS.
There is no noise between such pairs, so the label is never unresolved, and
any improvement that holds on 9 of every 10 seeds counts.

Per-layer metrics have no bound: every one the records carry
(`tpcc.wall_tps` always, the rest only from --trace runs) is labelled
improved / worse / unchanged for information only. Smoke results and full
results are never compared, nor are runs of different lengths. The exit code
is 1 when any end-to-end pair regressed or any NEW run failed its
correctness checks, 2 when the inputs cannot be compared, 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Bounds on the seed-paired change of each simulated end-to-end metric on a
# deterministic workload. BENCHMARK.json's bounds are wider because they must
# also cover the differences between seeds.
PAIRED_BOUNDS = {
    "sim_tps": 0.05,
    "neworder_p50_ms": 0.02,
    "neworder_p99_ms": 0.02,
    "neworder_p999_ms": 0.02,
    "payment_p95_ms": 0.02,
    "stocklevel_p99_ms": 0.02,
    "write_amp": 0.02,
    "erases_per_ktxn": 0.02,
}


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def better(a, b, direction):
    """True when value b is strictly better than value a."""
    return b > a if direction == "higher" else b < a


def worse_share(a, b, direction):
    """How much worse b is than a, as a share of a (negative: better)."""
    worse_by = (b - a) if direction == "lower" else (a - b)
    if a:
        return worse_by / abs(a)
    return float("inf") if worse_by > 0 else (float("-inf") if worse_by < 0 else 0.0)


def label(base, new, direction, bound, fails_more):
    """Label one (workload, metric) pair of unpaired runs; see the docstring."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(better(a, b, direction) for a, b in pairs)
    losses = sum(better(b, a, direction) for a, b in pairs)
    beyond_spread = abs(nmed - bmed) > (bq3 - bq1)
    if (wins >= 0.9 * len(pairs) and beyond_spread and not fails_more
            and better(bmed, nmed, direction)):
        return "improved"
    if bound is None:
        if losses >= 0.9 * len(pairs) and beyond_spread:
            return "worse"
        return "unchanged"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                  (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    if direction == "lower":
        all_better, all_worse = max(new) < min(base), min(new) > max(base)
    else:
        all_better, all_worse = min(new) > max(base), max(new) < min(base)
    if worse_share(bmed, nmed, direction) > bound:
        return "regressed" if spread <= bound or all_worse else "unresolved"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def label_paired(base, new, direction, bound, fails_more):
    """Label a simulated metric of a deterministic workload by its
    seed-paired change; `base` and `new` are ordered by the same seeds."""
    changes = [worse_share(a, b, direction) for a, b in zip(base, new)]
    wins = sum(c < 0 for c in changes)
    median = statistics.median(changes)
    if median > bound:
        return "regressed"
    if wins >= 0.9 * len(changes) and median < 0 and not fails_more:
        return "improved"
    return "unchanged"


def fail_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)

    kinds = {(r["smoke"], r["rounds"], r["trace"])
             for runs in (base, new) for rs in runs.values() for r in rs}
    if len(kinds) > 1:
        print("refusing to compare: the sets mix smoke/full runs, run lengths "
              f"or traced/untraced runs {sorted(kinds)}", file=sys.stderr)
        return 2
    metrics = [(m, m["bound"]) for m in spec["end_to_end"]]
    metrics += [(m, None) for m in spec["per_layer"]]

    regressed = 0
    new_failed_checks = 0
    print(f"{'workload':14s} {'metric':30s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s}  label")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            continue
        bruns, nruns = base[workload], new[workload]
        fails_more = fail_share(nruns) > fail_share(bruns)
        paired = ([r["seed"] for r in bruns] == [r["seed"] for r in nruns]
                  and all(r["deterministic"] for r in bruns + nruns))
        for m, bound in metrics:
            b = [r["metrics"][m["name"]] for r in bruns
                 if m["name"] in r["metrics"]]
            n = [r["metrics"][m["name"]] for r in nruns
                 if m["name"] in r["metrics"]]
            if not b or not n:
                continue
            if paired and m["name"] in PAIRED_BOUNDS and len(b) == len(n):
                verdict = label_paired(b, n, m["better"],
                                       PAIRED_BOUNDS[m["name"]], fails_more)
            else:
                verdict = label(b, n, m["better"], bound, fails_more)
            regressed += verdict == "regressed"
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            change = f"{100 * (nmed - bmed) / abs(bmed):+.2f}%" if bmed else "n/a"
            print(f"{workload:14s} {m['name']:30s} "
                  f"{bmed:12.5g} [{bq1:9.5g}, {bq3:9.5g}] "
                  f"{nmed:12.5g} [{nq1:9.5g}, {nq3:9.5g}] {change:>8s}  "
                  f"{verdict}")
        print(f"{workload:14s} failed transactions: base "
              f"{sum(r['failed'] for r in bruns)} of "
              f"{sum(r['attempted'] for r in bruns)}, new "
              f"{sum(r['failed'] for r in nruns)} of "
              f"{sum(r['attempted'] for r in nruns)}"
              + ("  (new fails a larger share: no improvement counts)"
                 if fails_more else ""))
        for side, runs in (("base", bruns), ("new", nruns)):
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                print(f"{workload:14s} {side} runs failed their correctness "
                      f"checks: seeds {bad}")
                if side == "new":
                    new_failed_checks += len(bad)
    return 1 if regressed or new_failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
