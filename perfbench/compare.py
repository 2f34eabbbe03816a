"""Summarise or compare benchmark runs recorded with ``run.py --out``.

    python3 perfbench/compare.py RUNS.jsonl
        per workload and end-to-end metric: runs, median, quartiles and
        spread (quartile distance over median) -- the baseline table;

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
        per workload and end-to-end metric: both medians and quartiles, the
        share of pairs the change won and a verdict.

Runs are paired in file order within each workload (the i-th parent run of a
workload with its i-th change run).  The verdict follows the benchmark's
rules, with ``better`` and ``bound`` taken from ``BENCHMARK.json``:

* improved   -- at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither) and the medians differ, in the change's favour,
  by more than the parent's quartile distance;
* unresolved -- either side's spread is wider than the bound, unless every
  change run is better than every parent run (then: no worse);
* worse      -- the change's median is worse than the parent's by more than
  bound x parent median;
* no worse   -- otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> dict:
    """workload -> metric -> values in file order (untraced runs only), and
    workload -> failed operation count."""
    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(int)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        failed[rec["workload"]] += rec["failed"]
        for name, metric in rec["metrics"].items():
            values[rec["workload"]][name].append(metric["value"])
    return values, failed


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def spread(xs) -> float:
    q1, q3 = quartiles(xs)
    med = statistics.median(xs)
    return (q3 - q1) / med if med else 0.0


def verdict(parent, change, better, bound):
    """(share of pairs won by the change, verdict) for one metric."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    share = wins / len(pairs) if pairs else 0.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if len(pairs) >= MIN_PAIRS and share >= WIN_SHARE and sign * (pm - cm) > q3 - q1:
        return share, "improved"
    if max(spread(parent), spread(change)) > bound:
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        return share, "no worse" if all_better else "unresolved"
    if sign * (cm - pm) > bound * abs(pm):
        return share, "worse"
    return share, "no worse"


def _fmt(xs) -> str:
    q1, q3 = quartiles(xs)
    return f"{statistics.median(xs):.4g} [{q1:.4g}, {q3:.4g}]"


def table(runs, spec):
    values, failed = runs
    print("| workload | metric | unit | runs | median [q1, q3] | spread | failed ops |")
    print("|---|---|---|---|---|---|---|")
    for workload, metrics in values.items():
        for m in spec["end_to_end"]:
            xs = metrics.get(m["name"])
            if xs:
                print(f"| {workload} | {m['name']} | {m['unit']} | {len(xs)} | {_fmt(xs)} | "
                      f"{spread(xs):.3f} | {failed[workload]} |")


def compare(parent_runs, change_runs, spec):
    parent, parent_failed = parent_runs
    change, change_failed = change_runs
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent "
          "| pairs won | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in parent:
        if workload not in change:
            print(f"| {workload} | (no change runs) | | | | | | unresolved |")
            continue
        for m in spec["end_to_end"]:
            p, c = parent[workload].get(m["name"]), change[workload].get(m["name"])
            if not p or not c:
                continue
            share, word = verdict(p, c, m["better"], m["bound"])
            pm = statistics.median(p)
            ratio = statistics.median(c) / pm if pm else float("nan")
            n = min(len(p), len(c))
            print(f"| {workload} | {m['name']} ({m['unit']}) | {_fmt(p)} | {_fmt(c)} | {ratio:.3f} "
                  f"| {share:.2f} of {n} | {m['bound']} | {word} |")
        if change_failed[workload] > parent_failed[workload]:
            print(f"| {workload} | failed ops | {parent_failed[workload]} | {change_failed[workload]} "
                  f"| | | | worse |")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    runs = [load(path) for path in argv]
    if len(runs) == 1:
        table(runs[0], spec)
    else:
        compare(runs[0], runs[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
