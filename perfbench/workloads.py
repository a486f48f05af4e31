"""The three workloads: what a pass runs, how it is set up, and the known
answer every item is checked against.

A pass is a closed loop: one client, one thread, one item at a time.  Inputs
come from the pass seed alone and are built before the clock starts; known
answers are checked after the clock stops.  Nothing here imports wittlab at
module level, so that set-up time includes the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from speed import RAW


@dataclass
class Item:
    """One timed unit of work: its latency, whether it met its known answer,
    and the error it raised, if any."""
    label: str
    ms: float
    ok: bool
    error: str = ""


@dataclass
class PassResult:
    wall_s: float           # at the clock's reference speed
    items: list
    raw_wall_s: float       # as measured, without the clock's bursts
    laws_ms: dict = field(default_factory=dict)


def run_items(jobs, window, clock=RAW):
    """Time each job's call in turn, then check every result.

    ``jobs`` is a list of (label, call, check): ``call()`` is the timed
    work, ``check(result)`` returns True when the result is the known
    answer.  A call that raises counts as failed.  ``window`` brackets the
    timed loop (the tracer records only inside it).  Times are taken on
    ``clock`` and given at its reference speed (see speed.py).  Returns
    (wall seconds, items, wall seconds as measured).
    """
    done = []
    with window():
        start = clock.now()
        for label, call, check in jobs:
            t0 = clock.now()
            try:
                res, err = call(), ""
            except Exception as exc:  # an item that raises is a failed item
                res, err = None, f"{type(exc).__name__}: {exc}"
            done.append((label, (t0, clock.now()), res, err, check))
        end = clock.now()
    items = []
    for label, (t0, t1), res, err, check in done:
        ok = False
        if not err:
            try:
                ok = bool(check(res))
            except Exception as exc:  # a result the check cannot read
                err = f"check raised {type(exc).__name__}: {exc}"
        items.append(Item(label, 1000 * clock.at_ref(t0, t1), ok, err))
    return clock.at_ref(start, end), items, end - start


def quiet_cli(wl, argv):
    """Run ``wittlab.cli.main`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wl.cli.main(argv)
    return code, buf.getvalue()


def universal_digest(wl, op, n, p, polys):
    """SHA-256 of the canonical JSON encoding of one polynomial set."""
    text = wl.serialize.canonical_dumps(
        wl.serialize.encode_universal(op, n, p, polys))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# suite-default


SUITE_LAWS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10",
              "L11", "L12", "L13", "L14", "L15", "L16", "table-i",
              "table-ii", "table-iii")
SUITE_SYMBOLIC = (("L6", 2, 0, 2), ("L6", 2, 1, 2), ("L6", 3, 0, 2),
                  ("L6", 2, 1, 3), ("L7", 2, 1, 2), ("L8", 2, 1, 2),
                  ("L9", 2, 1, 2), ("L12", 2, 1, 1), ("L12", 2, 0, 2),
                  ("L12", 2, 1, 3))
SABOTAGE = ("sabotage-lateral", "sabotage-shift")
RAMIFIED = [-5, 0, 1]


def _config_key(config):
    modulus = config.get("modulus")
    return (config["p"], tuple(modulus) if modulus else None,
            config.get("m"), config.get("n"))


def suite_expected():
    """The hand-written verdict table: (law, mode, config key) -> (status,
    reason)."""
    table = {}
    for law in SUITE_LAWS:
        for p, modulus in ((2, None), (3, None), (5, tuple(RAMIFIED))):
            want = ("pass", "")
            if law == "L15" and p == 2:
                want = ("skipped", "psi_integral=false")
            table[(law, "numeric", (p, modulus, None, None))] = want
    for law, p, m, n in SUITE_SYMBOLIC:
        table[(law, "symbolic", (p, None, m, n))] = ("pass", "")
    for law in SABOTAGE:
        for p in (2, 3):
            table[(law, "numeric", (p, None, None, None))] = ("fail", "")
    return table


def judge_reports(calls, outcomes, expected):
    """Match each report of each ``verify`` call against the verdict table.

    ``calls`` holds (argv, expected exit code) and ``outcomes`` (exit code,
    report path[, to_ref]); the exit code is None when the call raised, and
    ``to_ref`` maps the reports' own ``ms`` to reference speed (see
    ``sequential_to_ref``).  Returns the items and the summed ``ms`` per
    law id (all symbolic runs under "symbolic").  A report with no entry in
    the table, a repeated report, a wrong exit code and a table entry with
    no report are all failed items.
    """
    items, laws_ms, seen = [], {}, set()
    for (_, want_code), (code, report, *to_ref) in zip(calls, outcomes):
        path = Path(report)
        reports = json.loads(path.read_text()) if path.exists() else []
        ref_ms = [r["ms"] for r in reports]
        if to_ref:
            ref_ms = to_ref[0](ref_ms)
        call_ok = code == want_code
        for r, ms in zip(reports, ref_ms):
            key = (r["law"], r["mode"], _config_key(r["config"]))
            want = expected.get(key)
            got = (r["status"], r.get("reason", ""))
            ok = call_ok and key not in seen and got == want
            seen.add(key)
            items.append(Item(f"{key[0]}:{key[1]}:{key[2]}", ms, ok,
                              "" if ok else f"got {got}, want {want}"))
            bucket = "symbolic" if r["mode"] == "symbolic" else r["law"]
            laws_ms[bucket] = laws_ms.get(bucket, 0.0) + ms
    for key in expected.keys() - seen:
        items.append(Item(f"{key[0]}:{key[1]}:{key[2]}", 0.0, False,
                          "missing from the reports"))
    return items, laws_ms


def sequential_to_ref(clock, w0, w1, measured_s):
    """Map the ``ms`` of one call's reports to the clock's reference speed.

    wittlab times each report itself, bursts included.  The reports of a
    call ran one after another, so each is placed in the call's work
    interval [w0, w1] after the sum of the ones before it, with the bursts'
    share of the call's ``measured_s`` taken out."""
    share = (w1 - w0) / measured_s if measured_s else 1.0

    def to_ref(ms_list):
        out, t = [], w0
        for ms in ms_list:
            d = ms / 1000 * share
            out.append(1000 * clock.at_ref(t, t + d))
            t += d
        return out
    return to_ref


class SuiteDefault:
    """``wittlab verify --law all`` on the default matrix, then the two
    sabotage laws at p=2 and p=3, both through ``wittlab.cli.main``."""

    name = "suite-default"
    nominal_pass_s = 14.0

    def setup(self, wl):
        configs = wl.laws.default_matrix()
        for cfg in configs:
            for group in ("ga", "gm"):
                wl.fgl.load_fgl(group, cfg)

    def run_pass(self, wl, seed, workdir, window, clock):
        expected = suite_expected()
        calls = [
            (["verify", "--law", "all", "--seed", str(seed)], 0),
            (["verify", "--law", ",".join(SABOTAGE), "--p", "2,3",
              "--ramified", "false", "--seed", str(seed)], 1),
        ]
        outcomes = []
        with window():
            start = clock.now()
            for k, (argv, _) in enumerate(calls):
                report = Path(workdir) / f"verify-{k}.json"
                w0, r0 = clock.now(), time.perf_counter()
                try:
                    code, _ = quiet_cli(wl, argv + ["--report", str(report)])
                except Exception:  # every item of this call fails
                    code = None
                w1, r1 = clock.now(), time.perf_counter()
                outcomes.append((code, report,
                                 sequential_to_ref(clock, w0, w1, r1 - r0)))
            end = clock.now()

        items, laws_ms = judge_reports(calls, outcomes, expected)
        return PassResult(clock.at_ref(start, end), items, end - start,
                          laws_ms)


# ----------------------------------------------------------------------
# kernel-trunc


Z5_TRUNC = 6              # Z/5^6
RAM_TRUNC = 8             # Z[x]/(x^2-5) mod pi^8, i.e. coordinates mod 5^4
WITT_ROUNDS = 20
KERNEL_ROUNDS = 6
KERNEL_SHAPES = ((0, 2, 6), (1, 2, 6), (1, 3, 8), (2, 2, 8))   # (m, n, N)


def ref_base(cfg):
    """The harness's own arithmetic for a truncated base."""
    if cfg.modulus is None:
        return oracle.IntegerBase(cfg.p, cfg.p ** cfg.trunc)
    d = -cfg.modulus[0]
    return oracle.QuadraticBase(cfg.p, d, d ** (cfg.trunc // 2))


def ref_ghost(ref, vec):
    return oracle.ghost(ref, [ref.from_coeff(c.const_coeff())
                              for c in vec.comps])


def ghost_is(ref, want):
    """Check: the result's ghost components are ``want``."""
    return lambda res: oracle.same(ref, ref_ghost(ref, res), want)


def rand_elem(cfg, rng):
    bound = cfg.p ** cfg.trunc
    return cfg.from_coeff([rng.randrange(bound) for _ in range(cfg.d)])


class KernelTrunc:
    """Single operator calls over pi-power truncated bases: Witt add, mul
    and Frobenius; gm kernel addition, negation, difference character and
    Psi; and the ``wittlab kernel --group gm --p 5 --check all`` checks."""

    name = "kernel-trunc"
    nominal_pass_s = 3.0

    @staticmethod
    def _bases(wl):
        make = wl.rings.make_ring_config
        return make({"p": 5}), make({"p": 5, "modulus": RAMIFIED})

    def setup(self, wl):
        truncs = {Z5_TRUNC, RAM_TRUNC} | {s[2] for s in KERNEL_SHAPES}
        for base in self._bases(wl):
            for n in truncs:
                base.truncated(n)
            for group in ("ga", "gm"):
                wl.fgl.load_fgl(group, base)

    def _witt_jobs(self, wl, rng):
        w = wl.witt
        z5, ram = self._bases(wl)
        shapes = [(z5.truncated(Z5_TRUNC), n) for n in range(1, 6)]
        shapes += [(ram.truncated(RAM_TRUNC), n) for n in range(1, 5)]
        jobs = []
        for _ in range(WITT_ROUNDS):
            for cfg, n in shapes:
                ref = ref_base(cfg)
                u, v = (w.WittVector(cfg, [rand_elem(cfg, rng)
                                           for _ in range(n + 1)])
                        for _ in range(2))
                gu, gv = ref_ghost(ref, u), ref_ghost(ref, v)
                tag = f"{cfg!r}:n={n}"
                jobs += [
                    (f"witt_add:{tag}", lambda u=u, v=v: w.witt_add(u, v),
                     ghost_is(ref, [ref.add(a, b) for a, b in zip(gu, gv)])),
                    (f"witt_mul:{tag}", lambda u=u, v=v: w.witt_mul(u, v),
                     ghost_is(ref, [ref.mul(a, b) for a, b in zip(gu, gv)])),
                    (f"frobenius:{tag}", lambda u=u: w.frobenius(u),
                     ghost_is(ref, gu[1:])),
                ]
        return jobs

    def _kernel_jobs(self, wl, rng):
        k = wl.kernel
        jobs = []
        for _ in range(KERNEL_ROUNDS):
            for base in self._bases(wl):
                gm = wl.fgl.load_fgl("gm", base)
                for m, n, N in KERNEL_SHAPES:
                    jobs += self._kernel_shape(k, gm, base, m, n, N, rng)
        return jobs

    @staticmethod
    def _kernel_shape(k, gm, base, m, n, N, rng):
        """Jobs for one (m, n, N), checked by the L15 / L16 identities."""
        cfg = base.truncated(N)
        t = k.KernelPoint(gm, base, cfg, m,
                          [rand_elem(cfg, rng) for _ in range(n)])
        s = k.KernelPoint(gm, base, cfg, m,
                          [rand_elem(cfg, rng) for _ in range(n)])
        t0, s0 = t.coords[0], s.coords[0]

        def psi(x, level=m):
            return k.psi_map(gm, level, x)

        def diff_of_t0(res):
            head = k.kernel_section_sigma(k.kernel_project_u(t, 1), n)
            return res == k.difference_character(head)

        def phi_ladder(res):
            lowered = k.kernel_phi(k.KernelPoint(gm, base, cfg, m, [t0]))
            return psi(lowered.coords[0], m - 1) == cfg.convert(
                base.pi_elem()) * res

        tag = f"{cfg!r}:m={m}:n={n}"
        jobs = [
            (f"kernel_add:{tag}", lambda: k.kernel_add(t, s),
             lambda res: psi(res.coords[0]) == psi(t0) + psi(s0)),
            (f"kernel_neg:{tag}", lambda: k.kernel_neg(t),
             lambda res: psi(res.coords[0]) == -psi(t0)),
            (f"difference_character:{tag}",
             lambda: k.difference_character(t), diff_of_t0),
        ]
        if m >= 1:
            jobs.append((f"psi_map:{tag}", lambda: k.psi_map(gm, m, t0),
                         phi_ladder))
        return jobs

    def run_pass(self, wl, seed, workdir, window, clock):
        rng = random.Random(f"kernel-trunc:{seed}")
        jobs = self._witt_jobs(wl, rng) + self._kernel_jobs(wl, rng)
        argv = ["kernel", "--group", "gm", "--p", "5", "--check", "all",
                "--seed", str(seed)]

        def cli_ok(res):
            code, out = res
            checks = {c["check"]: c["status"] for c in json.loads(out)}
            return code == 0 and checks == {"psi": "pass", "phi": "pass",
                                            "diff": "pass"}
        jobs.append(("cli:kernel-gm-p5", lambda: quiet_cli(wl, argv),
                     cli_ok))
        return PassResult(*run_items(jobs, window, clock))


# ----------------------------------------------------------------------
# symbolic


UNIVERSAL_SHAPES = (("sum", 3, 2), ("prod", 3, 2), ("sum", 4, 2),
                    ("prod", 4, 2), ("sum", 3, 3), ("prod", 3, 3),
                    ("frobenius", 4, 2), ("mult_pi", 4, 2), ("sum", 5, 2))
L6_CASES = ((2, 1, 3), (3, 1, 3), (2, 2, 4))
CHECK_POINTS = 3
# The sets cache_hit_s reads back, on every workload: each cold shape but
# sum n=5 (about 13k terms), whose read takes about 10x its cold time (25 s
# against 2.6 s).  A symbolic run prints each shape that still reads slower
# than it computes, and records both times per shape.
CACHE_SHAPES = UNIVERSAL_SHAPES[:-1]


def shape_key(op, n, p):
    return f"{op}:n={n}:p={p}"


def universal_check(op, n, p, rng):
    names = [f"x{i}" for i in range(n + 1)]
    if op in ("sum", "prod"):
        names += [f"y{i}" for i in range(n + 1)]
    points = [{v: rng.randint(-9, 9) for v in names}
              for _ in range(CHECK_POINTS)]
    return lambda polys: all(oracle.universal_ok(op, n, p, polys, pt)
                             for pt in points)


class Symbolic:
    """Cold universal polynomials and symbolic L6, in a fresh cache."""

    name = "symbolic"
    nominal_pass_s = 3.5

    def setup(self, wl):
        for p in {s[2] for s in UNIVERSAL_SHAPES} | {c[0] for c in L6_CASES}:
            wl.rings.make_ring_config({"p": p})

    def run_pass(self, wl, seed, workdir, window, clock):
        rng = random.Random(f"symbolic:{seed}")
        w, laws = wl.witt, wl.laws
        jobs = [(f"universal:{shape_key(op, n, p)}",
                 lambda op=op, n=n, p=p: w.universal_polynomials(op, n, p=p),
                 universal_check(op, n, p, rng))
                for op, n, p in UNIVERSAL_SHAPES]
        jobs += [(f"symbolic:L6:{p},{m},{n}",
                  lambda case={"p": p, "m": m, "n": n}: laws.symbolic_verify(
                      "L6", case),
                  lambda report: report.status == "pass")
                 for p, m, n in L6_CASES]
        wall, items, raw_wall = run_items(jobs, window, clock)
        laws_ms = {"symbolic": sum(it.ms for it in items
                                   if it.label.startswith("symbolic:"))}
        return PassResult(wall, items, raw_wall, laws_ms)


WORKLOADS = {w.name: w for w in (SuiteDefault(), KernelTrunc(), Symbolic())}
