"""Self-check of the known-answer checks: a deliberately wrong expected
verdict, a wrong result and a raised error must each give fail_ratio > 0,
while the true answers give 0.  Run it as

    python3 perfbench/run.py --self-check

which starts this file with wittlab importable from ./src.
"""

from __future__ import annotations

import contextlib
import random
import sys
from pathlib import Path

import workloads
from worker import set_up


def fail_ratio(items):
    return sum(not it.ok for it in items) / len(items)


def suite_cases(wl, workdir):
    """Real reports of L15 (skipped) and sabotage-shift (fail) at p=2,
    judged against the true table and against two wrong ones."""
    report = Path(workdir) / "report.json"
    argv = ["verify", "--law", "L15,sabotage-shift", "--p", "2",
            "--ramified", "false", "--seed", "0", "--report", str(report)]
    code, _ = workloads.quiet_cli(wl, argv)
    calls, outcomes = [(argv, 1)], [(code, report)]
    true = {k: v for k, v in workloads.suite_expected().items()
            if k[0] in ("L15", "sabotage-shift") and k[2][0] == 2}
    l15 = ("L15", "numeric", (2, None, None, None))
    sab = ("sabotage-shift", "numeric", (2, None, None, None))
    cases = [("suite: true verdicts", true, False),
             ("suite: L15 at p=2 expected pass", {**true, l15: ("pass", "")},
              True),
             ("suite: sabotage expected pass", {**true, sab: ("pass", "")},
              True)]
    for name, table, should_fail in cases:
        items, _ = workloads.judge_reports(calls, outcomes, table)
        yield name, fail_ratio(items), should_fail


def item_cases(wl):
    """A Witt sum checked against the ghost of a product, and a call that
    raises, next to a correctly checked sum."""
    cfg = wl.rings.make_ring_config({"p": 5, "trunc": 6})
    ref = workloads.ref_base(cfg)
    rng = random.Random(0)
    u, v = (wl.witt.WittVector(cfg, [workloads.rand_elem(cfg, rng)
                                     for _ in range(3)]) for _ in range(2))
    gu, gv = workloads.ref_ghost(ref, u), workloads.ref_ghost(ref, v)
    add_ok = workloads.ghost_is(ref, [ref.add(a, b) for a, b in zip(gu, gv)])
    add_wrong = workloads.ghost_is(ref, [ref.mul(a, b)
                                          for a, b in zip(gu, gv)])
    short = wl.witt.WittVector(cfg, [cfg.one()])
    cases = [
        ("kernel-trunc: true ghost", [("add", lambda: wl.witt.witt_add(u, v),
                                       add_ok)], False),
        ("kernel-trunc: wrong ghost", [("add", lambda: wl.witt.witt_add(
            u, v), add_wrong)], True),
        ("kernel-trunc: raised error", [("frobenius", lambda: wl.witt.
                                         frobenius(short), add_ok)], True),
    ]
    sum3 = wl.witt.universal_polynomials("sum", 3, p=2)
    prod3 = wl.witt.universal_polynomials("prod", 3, p=2)
    check = workloads.universal_check("sum", 3, 2, rng)
    cases += [("symbolic: true sum", [("sum", lambda: sum3, check)], False),
              ("symbolic: prod as sum", [("sum", lambda: prod3, check)],
               True)]
    for name, jobs, should_fail in cases:
        _, items, _ = workloads.run_items(jobs, contextlib.nullcontext)
        yield name, fail_ratio(items), should_fail


def main(workdir):
    wl, _ = set_up(workloads.WORKLOADS["suite-default"])
    ok = True
    for name, ratio, should_fail in (*suite_cases(wl, workdir),
                                     *item_cases(wl)):
        good = (ratio > 0) == should_fail
        ok &= good
        want = "> 0" if should_fail else "0"
        print(f"{'ok  ' if good else 'FAIL'} {name}: fail_ratio={ratio:.3f}"
              f" (want {want})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
