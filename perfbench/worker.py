"""One fresh process of a benchmark run: a timed pass or a cache read.
Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
WITTLAB_CACHE_DIR at a fresh directory; writes its result as JSON to
``--result``.  Times are given at the reference speed of speed.py, unless
``--raw-time`` is given.

    python3 perfbench/worker.py --mode pass --workload symbolic --seed 3 \\
        --workdir DIR --result OUT.json [--trace] [--spans SPANS.json.gz] \\
        [--raw-time]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys
import types
from pathlib import Path

import workloads
from speed import RAW, Clock
from tracing import Tracer

MODULES = ("cli", "fgl", "kernel", "laws", "rings", "serialize", "shifted",
           "witt")


def set_up(workload, clock=RAW):
    """Import wittlab from the checkout and run the workload's set-up.

    Returns (namespace of wittlab modules, seconds taken at the clock's
    reference speed)."""
    start = clock.now()
    mods = {name: importlib.import_module(f"wittlab.{name}")
            for name in MODULES}
    wl = types.SimpleNamespace(**mods)
    workload.setup(wl)
    elapsed = clock.at_ref(start, clock.now())
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if src not in Path(mods["witt"].__file__).resolve().parents:
        raise SystemExit(f"wittlab was imported from {mods['witt'].__file__},"
                         f" not from {src}")
    return wl, elapsed


def _window(tracer):
    """The context that brackets timed work: installs the tracer, if any."""
    @contextlib.contextmanager
    def window():
        if tracer is None:
            yield
            return
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()
    return window


def _cache_bytes():
    root = Path(os.environ["WITTLAB_CACHE_DIR"])
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


def run_pass(workload, args, tracer, clock):
    wl, setup_s = set_up(workload, clock)
    res = workload.run_pass(wl, args.seed, args.workdir, _window(tracer),
                            clock)
    clock.stop()
    out = {
        "setup_s": setup_s,
        "wall_s": res.wall_s,
        "raw_wall_s": res.raw_wall_s,
        "items": [[it.label, it.ms, it.ok, it.error] for it in res.items],
        "laws_ms": res.laws_ms,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache_bytes": _cache_bytes(),
    }
    # Fill the cache for the read process (free where the pass already
    # computed these shapes) and record what a read must reproduce, and the
    # cold time of each shape the pass itself computed.
    item_ms = {it.label: it.ms for it in res.items}
    out["digests"], out["cold_ms"] = {}, {}
    for op, n, p in workloads.CACHE_SHAPES:
        key = workloads.shape_key(op, n, p)
        out["digests"][key] = workloads.universal_digest(
            wl, op, n, p, wl.witt.universal_polynomials(op, n, p=p))
        if f"universal:{key}" in item_ms:
            out["cold_ms"][key] = item_ms[f"universal:{key}"]
    return out


def run_read(workload, args, tracer, clock):
    """Get the cached polynomial sets again, as a second process sharing the
    cache directory would."""
    wl, setup_s = set_up(workload, clock)
    got, spans = {}, {}
    with _window(tracer)():
        start = clock.now()
        for op, n, p in workloads.CACHE_SHAPES:
            t0 = clock.now()
            got[(op, n, p)] = wl.witt.universal_polynomials(op, n, p=p)
            spans[workloads.shape_key(op, n, p)] = (t0, clock.now())
        end = clock.now()
    clock.stop()
    read_ms = {k: 1000 * clock.at_ref(*span) for k, span in spans.items()}
    digests = {workloads.shape_key(op, n, p):
               workloads.universal_digest(wl, op, n, p, polys)
               for (op, n, p), polys in got.items()}
    return {"setup_s": setup_s, "wall_s": clock.at_ref(start, end),
            "raw_wall_s": end - start, "digests": digests,
            "read_ms": read_ms}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("pass", "read"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir", default=".")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--raw-time", action="store_true",
                    help="give plain seconds; sample no machine speed")
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    clock = Clock(sampling=not args.raw_time)
    clock.start()
    if args.mode == "pass":
        out = run_pass(workload, args, tracer, clock)
    else:
        out = run_read(workload, args, tracer, clock)
    out["burst_s"] = clock.speed()
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
