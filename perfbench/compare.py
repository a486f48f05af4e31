"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl [--trace 1]
                                 [--paired]

Each file holds run records as appended by run.py (perfbench/results/
runs.jsonl).  For every workload and metric it prints each side's median
and quartiles, the change of the medians, and a verdict against the
metric's bound in BENCHMARK.json:

- "WORSE" when every AFTER run is worse than every BEFORE run, or when the
  change is worse than the bound plus the spread (quartile distance over
  median) of the noisier side; that spread counts only where it is wider
  than the bound;
- "better in every run" when every AFTER run is better than every BEFORE
  run;
- "unresolved" when the spread is wider than the bound and neither of the
  above holds;
- otherwise "ok".

With --paired, runs are matched by seed (run them as alternating BEFORE /
AFTER pairs, so both runs of a pair see the same machine phase), and the
verdict is taken from the per-pair ratios AFTER / BEFORE in the same way:
the change is their median, the spread their quartile distance, and "every
run" reads "every pair".

Per-layer metrics (--trace 1) have no bound and get no verdict.  Exits 1
when any metric is WORSE, else 2 when any is unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

EXIT_WORSE = 1
EXIT_UNRESOLVED = 2
# Fewest runs (or pairs) per side for an "every run" verdict to count: one
# run against one says nothing about noise.
MIN_RUNS = 3


def load(path, trace):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == trace:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summary(values):
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def _quartiles(s):
    return f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"


def _judge(change, spread, bound, all_worse, all_better):
    """Verdict from a signed change (positive = worse) and its spread."""
    if all_worse or change > bound + (spread if spread > bound else 0.0):
        return "WORSE"
    if all_better:
        return "better in every run"
    return "unresolved" if spread > bound else "ok"


def verdict(metric, before, after):
    """Verdict from the raw values of both sides."""
    bound = metric.get("bound")
    if bound is None:
        return "-"
    sign = 1 if metric["better"] == "lower" else -1
    a, b = summary(before), summary(after)
    change = sign * (b[0] - a[0]) / a[0] if a[0] else 0.0
    enough = min(len(before), len(after)) >= MIN_RUNS
    sb, sa = [sign * x for x in before], [sign * y for y in after]
    return _judge(change, max(a[3], b[3]), bound,
                  enough and min(sa) > max(sb),
                  enough and max(sa) < min(sb))


def paired_verdict(metric, pairs):
    """Verdict from (before, after) values of runs with the same seed."""
    bound = metric.get("bound")
    if bound is None:
        return "-"
    sign = 1 if metric["better"] == "lower" else -1
    ratios = [y / x for x, y in pairs if x]
    if not ratios:
        return "unresolved"
    med, q1, q3, _ = summary(ratios)
    enough = len(ratios) >= MIN_RUNS
    return _judge(sign * (med - 1), q3 - q1, bound,
                  enough and all(sign * (r - 1) > 0 for r in ratios),
                  enough and all(sign * (r - 1) < 0 for r in ratios))


def _pairs(before, after, name):
    by_seed = {r["seed"]: r["metrics"][name] for r in before}
    return [(by_seed[r["seed"]], r["metrics"][name]) for r in after
            if r["seed"] in by_seed]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--paired", action="store_true",
                    help="match runs by seed and judge per-pair ratios")
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    before, after = load(args.before, args.trace), load(args.after,
                                                          args.trace)
    print(f"{'workload':14} {'metric':26} {'before median [q1, q3]':>32} "
          f"{'after median [q1, q3]':>32} {'change':>8}  verdict")
    verdicts = set()
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in before or w not in after:
            print(f"{w:14} (no runs in {'before' if w not in before else 'after'})")
            verdicts.add("unresolved")
            continue
        for m in metrics:
            name = m["name"]
            va = [r["metrics"][name] for r in before[w]]
            vb = [r["metrics"][name] for r in after[w]]
            a, b = summary(va), summary(vb)
            change = (b[0] - a[0]) / a[0] if a[0] else 0.0
            if args.paired:
                pairs = _pairs(before[w], after[w], name)
                v = paired_verdict(m, pairs)
                count = f"pairs={len(pairs)}"
            else:
                v = verdict(m, va, vb)
                count = f"n={len(va)}/{len(vb)}"
            verdicts.add(v)
            print(f"{w:14} {name:26} {_quartiles(a):>32} "
                  f"{_quartiles(b):>32} {change:+8.1%}  {v}  ({count})")
    if "WORSE" in verdicts:
        return EXIT_WORSE
    return EXIT_UNRESOLVED if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
