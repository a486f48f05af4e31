"""Seeded benchmark for wittlab.

    python3 perfbench/run.py --workload suite-default --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh Python process
(PYTHONHASHSEED=0, wittlab imported from ./src) with a fresh
WITTLAB_CACHE_DIR under perfbench/work/, so nothing outside the checkout is
read or written and ~/.cache/wittlab is never touched.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
one untraced and one traced pass on the same inputs and prints the
per-layer metrics.  The last line of standard output is the result object;
each run is also appended, with machine info, commit and seed, to
perfbench/results/runs.jsonl.  ``--self-check`` instead shows that wrong
answers and raised errors are counted as failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SABOTAGE, SUITE_LAWS, WORKLOADS

HERE = Path(__file__).resolve().parent
READ_SAMPLES = 7
DEADLINE_S = 170.0
HASH_SEED = "0"
LAW_IDS = SUITE_LAWS + SABOTAGE


class RunFailed(Exception):
    pass


def passes_for(workload, seconds):
    """Number of timed passes: fixed by --seconds and the workload's pass
    length on the baseline, so both sides of a comparison do equal work."""
    return max(1, round(seconds / WORKLOADS[workload].nominal_pass_s))


def pass_seed(seed, i):
    return seed * 1000 + i


def tail(passes):
    """Latency at the highest percentile that leaves at least ten of the
    run's items beyond it, and that percentile (None when the run has ten
    items or fewer, and the value is the slowest item).

    The percentile comes from the run's item count; the latency is each
    pass's item at that percentile, averaged over passes, as wall_s is.
    The pooled order statistic would be the median of one item kind on
    symbolic (L6 at (2,2,4), one per pass), which snaps between the
    machine's fast and slow phases."""
    per_pass = [sorted(it[1] for it in p["items"]) for p in passes]
    total = sum(map(len, per_pass))
    if total <= 10:
        return max(v[-1] for v in per_pass), None
    q = (total - 10) / total
    return (statistics.fmean(v[max(0, math.ceil(q * len(v)) - 1)]
                             for v in per_pass), 100.0 * q)


class Runner:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / "perfbench" / "work" / (
            f"{workload}-s{seed}-{os.getpid()}")
        self.results = root / "perfbench" / "results"
        self.started = time.monotonic()
        self.spawned = 0

    def spawn(self, mode, seed, cache, trace=False, spans=None, raw=False):
        """Run one worker process to completion and return its result.
        Its times are at reference speed (speed.py) unless ``raw``."""
        self.spawned += 1
        tag = f"{mode}-{self.spawned}"
        workdir = self.work / tag
        workdir.mkdir(parents=True)
        cache.mkdir(parents=True, exist_ok=True)
        result = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(seed),
               "--workdir", str(workdir), "--result", str(result)]
        if trace:
            cmd.append("--trace")
        if spans:
            cmd += ["--spans", str(spans)]
        if raw:
            cmd.append("--raw-time")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   PYTHONHASHSEED=HASH_SEED, WITTLAB_CACHE_DIR=str(cache))
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise RunFailed("run exceeded its time limit")
        try:
            proc = subprocess.run(cmd, env=env, cwd=self.root,
                                  stdout=subprocess.DEVNULL, timeout=left)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{mode} process exceeded the time limit")
        if proc.returncode != 0 or not result.exists():
            raise RunFailed(f"{mode} process exited with {proc.returncode}")
        return json.loads(result.read_text())

    def cache_dir(self, i):
        return self.work / f"cache-{i}"


def _read_matches(cold, read):
    return bool(cold["digests"]) and cold["digests"] == read["digests"]


def shape_times(passes, reads):
    """Per cached shape: median read ms and, where a timed pass computed
    the shape cold, median cold ms."""
    out = {}
    for key in reads[0]["read_ms"]:
        row = {"read_ms": statistics.median(r["read_ms"][key] for r in reads)}
        cold = [p["cold_ms"][key] for p in passes if key in p["cold_ms"]]
        if cold:
            row["cold_ms"] = statistics.median(cold)
        out[key] = row
    return out


def end_to_end(runner, seconds):
    """Timed passes, each followed by its cache reads, so that the read
    samples spread over the whole run.  Every pass and read process also
    gives one set-up sample."""
    count = passes_for(runner.workload, seconds)
    reads_per_pass = -(-READ_SAMPLES // count)
    passes, reads = [], []
    for i in range(count):
        seed, cache = pass_seed(runner.seed, i), runner.cache_dir(i)
        cold = runner.spawn("pass", seed, cache)
        passes.append(cold)
        for _ in range(reads_per_pass):
            read = runner.spawn("read", seed, cache)
            read["ok"] = _read_matches(cold, read)
            reads.append(read)
    setups = [p["setup_s"] for p in passes + reads]
    items = [it for p in passes for it in p["items"]]
    tail_ms, tail_pct = tail(passes)
    # Every time is at the reference speed of speed.py.  Pass and read
    # times are averaged over the run, not taken as medians: what is left
    # of the machine's drift after that conversion then averages out too.
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        # Each pass's median item, averaged over passes.  A pass holds few
        # distinct items (12 on symbolic), so the pooled median sits in the
        # gap between two item kinds and jumps with the order of their
        # slowest and fastest runs.
        "item_p50_ms": statistics.fmean(
            statistics.median(it[1] for it in p["items"]) for p in passes),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "cache_hit_s": statistics.fmean(r["wall_s"] for r in reads),
    }
    detail = {"passes": len(passes), "items": len(items),
              "tail_percentile": tail_pct,
              "pass_wall_s": [p["wall_s"] for p in passes],
              "read_wall_s": [r["wall_s"] for r in reads],
              "raw_pass_wall_s": [p["raw_wall_s"] for p in passes],
              "raw_read_wall_s": [r["raw_wall_s"] for r in reads],
              "burst_s": [p["burst_s"] for p in passes + reads],
              "setup_samples_s": setups,
              "cache_shapes": shape_times(passes, reads)}
    return metrics, items, reads, detail


def per_layer(runner, spans_path):
    """A traced pass between two untraced passes on the same inputs, so
    that the overhead ratio cancels a steady drift of machine speed.  On
    symbolic, whose timed work includes the cache, the traced cache read
    is added; the other workloads never touch the cache while timed, so
    their layer figures come from their own pass alone.  Times here are
    plain seconds: the machine's speed is not sampled."""
    seed = pass_seed(runner.seed, 0)
    plain = runner.spawn("pass", seed, runner.cache_dir(0), raw=True)
    traced = runner.spawn("pass", seed, runner.cache_dir(1), trace=True,
                          spans=spans_path, raw=True)
    plain_after = runner.spawn("pass", seed, runner.cache_dir(2), raw=True)
    plain_wall = (plain["wall_s"] + plain_after["wall_s"]) / 2
    layers, reads = traced["layers"], []
    traced_wall = traced["wall_s"]
    if runner.workload == "symbolic":
        read = runner.spawn("read", seed, runner.cache_dir(1), trace=True,
                            raw=True)
        read["ok"] = _read_matches(traced, read)
        reads.append(read)
        traced_wall += read["wall_s"]
        layers = {k: max(v, read["layers"][k]) if k.startswith("rings.max_")
                  else v + read["layers"][k] for k, v in layers.items()}
    metrics = {k: v for k, v in layers.items()
               if k.endswith(".calls") or k.endswith(".self_ms")
               or k.startswith("rings.")}
    metrics["witt.universal.hit_ratio"] = (
        layers["witt.universal.hits"] / layers["witt.universal.calls"]
        if layers["witt.universal.calls"] else 0.0)
    metrics["fgl.load.distinct_ratio"] = (
        layers["fgl.load.distinct"] / layers["fgl.load.calls"]
        if layers["fgl.load.calls"] else 0.0)
    metrics["serialize.cache_bytes"] = traced["cache_bytes"]
    for law in LAW_IDS + ("symbolic",):
        metrics[f"laws.{law}.ms"] = plain["laws_ms"].get(law, 0.0)
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain_wall
    metrics["trace.coverage"] = (layers["trace.covered_ms"]
                                 / (1000 * traced_wall))
    items = plain["items"] + traced["items"] + plain_after["items"]
    detail = {"untraced_wall_s": [plain["wall_s"], plain_after["wall_s"]],
              "traced_wall_s": traced["wall_s"],
              "read_wall_s": [r["wall_s"] for r in reads],
              "size_scan_ms": layers["trace.size_scan_ms"],
              "spans": layers["trace.spans"],
              "spans_file": str(spans_path.relative_to(runner.root))}
    return metrics, items, reads, detail


def machine_info(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "commit": read_commit(root)}


def read_commit(root):
    """HEAD of the checkout's own .git, or "unknown" (never looks above the
    checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args, root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    runner = Runner(root, args.workload, args.seed)
    runner.results.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = runner.results / f"spans-{args.workload}-{args.seed}.json.gz"
            metrics, items, reads, detail = per_layer(runner, spans)
            wanted = spec["per_layer"]
        else:
            metrics, items, reads, detail = end_to_end(runner, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    failed_items = [it for it in items if not it[2]]
    attempted = len(items) + len(reads)
    failed = len(failed_items) + sum(not r["ok"] for r in reads)
    metrics["fail_ratio"] = failed / attempted
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RunFailed(f"metrics not measured: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in wanted}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "pythonhashseed": HASH_SEED, "time": time.time(),
              "machine": machine_info(root), "detail": detail,
              "attempted": attempted, "failed": failed,
              "failures": failed_items[:20], "metrics": metrics}
    with open(runner.results / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for it in failed_items[:20]:
        print(f"FAILED {it[0]}: {it[3]}")
    if detail.get("tail_percentile") is not None:
        print(f"item_tail_ms is p{detail['tail_percentile']:.1f} of "
              f"{detail['items']} items over {detail['passes']} passes")
    slow = [f"{k} ({v['read_ms']:.0f} ms read, {v['cold_ms']:.0f} ms cold)"
            for k, v in detail.get("cache_shapes", {}).items()
            if "cold_ms" in v and v["read_ms"] > v["cold_ms"]]
    if slow:
        print("cache reads slower than a cold compute: " + ", ".join(slow))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def self_check(root):
    work = root / "perfbench" / "work" / f"selfcheck-{os.getpid()}"
    (work / "cache").mkdir(parents=True)
    try:
        return subprocess.run(
            [sys.executable, str(HERE / "selfcheck.py"), str(work)],
            cwd=root, timeout=DEADLINE_S,
            env=dict(os.environ, PYTHONPATH=str(root / "src"),
                     PYTHONHASHSEED=HASH_SEED,
                     WITTLAB_CACHE_DIR=str(work / "cache"))).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description="Seeded wittlab benchmark.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "wittlab" / "__init__.py").is_file():
        print("error: run from the root of a wittlab checkout "
              "(src/wittlab not found)", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(root)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        return run(args, root)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
