"""Uniform law harness: every identity in the suite (L1-L16 plus the
comparison-table identities) as a seeded, reproducible check, with
optional exact symbolic verification and machine-readable reports.

Points are built over a pair (R, B): R the exact cover of the config, B
the config or its truncation to the kernel precision.  Random inputs
follow a fixed documented distribution: coordinates in [-1000, 1000]
(coefficientwise for order elements), reduced mod pi^N in a truncated B,
and, for symbolic sabotage runs, sparse polynomials of degree <= 2 in <= 4
variables with coefficients in [-9, 9].  Trial i of a law (or ``wittlab
kernel`` check) ``key`` draws from its own stream "{seed}:{key}:{i}"
(``run_trials``), so results are order-independent.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass

from .errors import (
    ConfigUnsupported,
    InternalError,
    UnknownLaw,
    WittlabError,
)
from .fgl import load_fgl
from .kernel import (
    KernelPoint,
    difference_character,
    kernel_add,
    kernel_embed,
    kernel_lateral_f,
    kernel_phi,
    kernel_project_u,
    kernel_section_sigma,
    kernel_witt_point,
    psi_map,
)
from .rings import c_pi, make_ring_config
from .serialize import (encode_config, encode_element, encode_shifted,
                        encode_witt)
from .shifted import (
    ShiftedWittVector,
    include_I,
    lateral_frobenius,
    shift_E,
    shifted_ghost,
    shifted_ghost_solve,
)
from .witt import (
    GhostVector,
    WittVector,
    delta,
    frobenius,
    frobenius_iter,
    ghost,
    ghost_solve,
    mult_pi,
    verschiebung,
    witt_add,
    witt_mul,
)

INT_BOUND = 1000
POLY_COEFF_BOUND = 9


# ----------------------------------------------------------------------
# random input distribution


def _pick(rng, lo, hi, cap):
    """Uniform in [lo, hi], optionally capped (never below lo)."""
    if cap is not None:
        hi = max(lo, min(hi, cap))
    return rng.randint(lo, hi)


def _rand_elem(cfg, rng):
    return cfg.from_coeff([rng.randint(-INT_BOUND, INT_BOUND)
                           for _ in range(cfg.d)])


def _rand_witt(cfg, n, rng):
    return WittVector(cfg, [_rand_elem(cfg, rng) for _ in range(n + 1)])


def _shifted(R, B, m, n, elem):
    """The vector of W_[m]n(B) with head elem(R, 0..m) and tail
    elem(B, m+1..m+n)."""
    return ShiftedWittVector(R, B, m, [elem(R, i) for i in range(m + 1)],
                             [elem(B, i) for i in range(m + 1, m + n + 1)])


def _point(law, R, B, m, n, elem):
    """The point of N^[m]n G over B, G the group of law, with coordinates
    elem(B, 0..n-1)."""
    return KernelPoint(law, R, B, m, [elem(B, i) for i in range(n)])


def _bases(law, cfg, prec):
    """(R, B) for law's kernel points on cfg: R the exact cover, B cfg for
    the additive group (X + Y is a polynomial) and cfg mod pi^prec else."""
    return cfg.exact_cover(), cfg if law.is_additive else cfg.truncated(prec)


def _rand_poly(cfg, rng):
    acc = cfg.zero()
    names = cfg.vars[:4]
    for _ in range(rng.randrange(1, 4)):
        term = cfg.from_int(rng.randint(-POLY_COEFF_BOUND, POLY_COEFF_BOUND))
        for _ in range(rng.randrange(0, 3)):
            term = term * cfg.var(rng.choice(names))
        acc = acc + term
    return acc


def _enc(v):
    if isinstance(v, int):
        return v
    if isinstance(v, WittVector):
        return encode_witt(v)
    if isinstance(v, ShiftedWittVector):
        return encode_shifted(v)
    if isinstance(v, KernelPoint):
        return [encode_element(c) for c in v.coords]
    if isinstance(v, GhostVector):
        return [encode_element(c) for c in v.entries]
    if isinstance(v, (list, tuple)):
        return [_enc(x) for x in v]
    return encode_element(v)


def _mismatch(inputs, lhs, rhs):
    return {"inputs": {k: _enc(v) for k, v in inputs.items()},
            "lhs": _enc(lhs), "rhs": _enc(rhs)}


def _expect(inputs, lhs, rhs):
    """The verdict of the identity lhs = rhs at inputs: None, or the
    counterexample reporting both sides."""
    return None if lhs == rhs else _mismatch(inputs, lhs, rhs)


# ----------------------------------------------------------------------
# the laws, one trial each


def _law_l1(cfg, rng, params):
    n = rng.randrange(1, 4)
    u, v = _rand_witt(cfg, n, rng), _rand_witt(cfg, n, rng)
    gu, gv = ghost(u), ghost(v)
    # ghosts of the results from their coordinates, not the rows they were
    # solved from: the premise every law over an exact base leans on
    gs, gp = (ghost(WittVector(cfg, w.comps))
              for w in (witt_add(u, v), witt_mul(u, v)))
    for a, b, s, p in zip(gu.entries, gv.entries, gs.entries, gp.entries):
        if a + b != s or a * b != p:
            return _mismatch({"u": u, "v": v}, gs, gp)
    return None


def _law_l2(cfg, rng, params):
    n = rng.randrange(0, 5)
    v = _rand_witt(cfg, n, rng)
    return _expect({"v": v}, ghost_solve(ghost(v), cfg), v)


def _hyp_exact(cfg):
    return None if cfg.torsion_free else "needs an exact base"


def _hyp_phi_pi(cfg):
    return None if cfg.phi_pi is None else "phi(pi) != pi"


def _l3_check(t, m):
    """F V^(m+1) = V^m (pi) at t; m = 0 is F V = (pi)."""
    return _expect({"t": t, "m": m}, frobenius(verschiebung(t, m + 1)),
                   verschiebung(mult_pi(t), m))


def _law_l3(cfg, rng, params):
    ce = _l3_check(_rand_witt(cfg, rng.randrange(1, 4), rng), 0)
    if ce:
        return ce
    m = rng.randrange(0, 4)
    return _l3_check(_rand_witt(cfg, rng.randrange(0, 3), rng), m)


def _div_pi(x):
    """x = 0 mod pi, checked on its residue by the truncation's rule."""
    return x.cfg.truncated(1).convert(x).is_zero()


def _law_l4(cfg, rng, params):
    n = rng.randrange(1, 4)
    v = _rand_witt(cfg, n, rng)
    out = frobenius(v)
    q = cfg.q
    for i, c in enumerate(out.comps):
        if not _div_pi(c - v.comps[i] ** q):
            return _mismatch({"v": v, "i": v.comps[i]}, out, v)
    return None


def _law_l5(cfg, rng, params):
    x, y = _rand_elem(cfg, rng), _rand_elem(cfg, rng)
    if not delta(cfg.one()).is_zero():
        return {"axiom": 1}
    dx, dy, q = delta(x), delta(y), cfg.q
    return (_expect({"x": x, "y": y}, delta(x + y), dx + dy + c_pi(x, y))
            or _expect({"x": x, "y": y}, delta(x * y), x ** q * dy
                       + y ** q * dx + cfg.pi_elem() * dx * dy))


def _law(*parts):
    """The numeric trial of a law made of parts, run in turn on one stream
    up to the first counterexample, and the symbolic case of part 0 (each
    point on the same variables).  A part is a trial (cfg, rng, params) or
    (check, group, m, n[, points]): an int m or n is fixed, a (lo, hi)
    range is picked under m_max or n_max, and check(*values) runs on
    ``points`` values (default 1) drawn one after another, each a shifted
    vector over (cfg's exact cover, cfg) for group None, else a point of
    load_fgl(group) over ``_bases``."""
    loaded = {}     # a group table's file is read once, not every trial

    def run(cfg, part, elem, m, n, prec):
        check, group, _, _, points = (*part, 1)[:5]
        if group is None:
            make, R, B = _shifted, cfg.exact_cover(), cfg
        else:
            key = (group, cfg.base_exact())
            law = loaded[key] = loaded.get(key) or load_fgl(*key)
            make, (R, B) = (lambda *a: _point(law, *a)), _bases(law, cfg, prec)
        return check(*(make(R, B, m, n, elem) for _ in range(points)))

    def numeric(cfg, rng, params):
        for part in parts:
            ce = part(cfg, rng, params) if callable(part) else run(
                cfg, part, lambda c, i: _rand_elem(c, rng),
                *(k if type(k) is int else _pick(rng, *k, params.get(cap))
                  for k, cap in zip(part[2:4], ("m_max", "n_max"))),
                params.get("prec", 6))
            if ce:
                return ce
        return None

    def symbolic(case):
        m, n = case["m"], case["n"]
        prefix, count = ("x", m + n + 1) if parts[0][1] is None else ("t", n)
        sym = make_ring_config({"p": case["p"]}).adjoin(
            [f"{prefix}{i}" for i in range(count)])
        return run(sym, parts[0], lambda c, i: c.var(f"{prefix}{i}"), m, n, 6)

    if callable(parts[0]):
        return {"numeric": numeric}
    return {"numeric": numeric, "symbolic": symbolic, "min_shape": tuple(
        k if type(k) is int else k[0] for k in parts[0][2:4])}


def _l6_check(v, lateral=lateral_frobenius):
    return _expect({"v": v}, frobenius_iter(include_I(v), v.m + 2),
                   frobenius_iter(include_I(lateral(v)), v.m + 1))


def _l7_check(v):
    return _expect({"v": v}, include_I(shift_E(v)),
                   frobenius(include_I(v)))


def _l8_check(v, shift=shift_E):
    out = shift(v)      # its ghost from its coordinates, as in L1
    return _expect({"v": v}, shifted_ghost(ShiftedWittVector(
        out.rcfg, out.bcfg, out.m, out.head, out.tail)).entries,
        shifted_ghost(v).entries[1:])


def _l9_check(v):
    return _expect({"v": v}, shift_E(lateral_frobenius(v)),
                   lateral_frobenius(shift_E(v)))


def _l10_check(v):
    out = lateral_frobenius(v)
    ins = v.head + v.tail
    for i, o in enumerate(out.head + out.tail):
        if not _div_pi(o - ins[i] ** v.bcfg.q):
            return _mismatch({"v": v}, out, v)
    return None


def _l11_check(t):
    return _expect({"t": t}, kernel_lateral_f(t).coords,
                   frobenius(WittVector(t.bcfg, t.coords)).comps)


def _l12_check(t):
    g = shifted_ghost(kernel_embed(t))
    pw = t.bcfg.pi_elem() ** (t.m + 1)
    wt = ghost(WittVector(t.bcfg, t.coords))
    for i in range(t.m + 1):
        if not g.entries[i].is_zero():
            return _mismatch({"t": t}, g, wt)
    for i in range(t.n):
        if g.entries[t.m + 1 + i] != pw * wt.entries[i]:
            return _mismatch({"t": t}, g, wt)
    return None


def l13_check(t):
    """F iota_m = iota_(m-1) Phi_[m] at the kernel point t; for n = 1,
    also Phi_[m] = (pi) on the coordinate."""
    phi = kernel_phi(t)
    ce = _expect({"t": t}, frobenius(kernel_witt_point(t)),
                 kernel_witt_point(phi))
    if ce or t.n != 1:
        return ce
    return _expect({"t": t}, phi.coords[0],
                   t.bcfg.convert(t.rcfg.pi_elem()) * t.coords[0])


def _l14_check(t, js):
    """phi^(m+j) iota_m = phi^(m+j-1) iota_m f_m at t, for each j in js."""
    s = kernel_lateral_f(t)
    for j in js:
        ce = _expect({"t": t, "j": t.bcfg.from_int(j)},
                     frobenius_iter(kernel_witt_point(t), t.m + j),
                     frobenius_iter(kernel_witt_point(s), t.m + j - 1))
        if ce:
            return ce
    return None


def _hyp_psi(cfg):
    return None if cfg.psi_integral else "psi_integral=false"


def psi_check(t, s, prec):
    """The Psi ladder Psi_(m-1)(Phi_[m](t)_0) = pi Psi_m(t_0) and the
    additivity Psi_m(t + s) = Psi_m(t_0) + Psi_m(s_0), for kernel points
    t, s of N^[m]1."""
    m, (t0,), (s0,) = t.m, t.coords, s.coords

    def psi(k, x):
        return psi_map(t.law, k, x, precision=prec)
    return (_expect({"t0": t0}, psi(m - 1, kernel_phi(t).coords[0]),
                    t.bcfg.convert(t.rcfg.pi_elem()) * psi(m, t0))
            or _expect({"t0": t0, "s0": s0},
                       psi(m, kernel_add(t, s).coords[0]),
                       psi(m, t0) + psi(m, s0)))


def _psi_id_check(a, prec):
    """The additive degeneration at a point a of N^[1]1 Ga: Psi = id, then
    Phi = pi as L13."""
    if psi_map(a.law, 1, a.coords[0], precision=prec) != a.coords[0]:
        return {"part": "psi_ga", "inputs": {"a": _enc(a)}}
    return l13_check(a)


def _at_prec(check, *shape):
    """The part (check, *shape) whose check takes the trial's precision
    after its points."""
    return lambda cfg, rng, params: _law(
        (lambda *v: check(*v, params.get("prec", 6)), *shape)
    )["numeric"](cfg, rng, params)


def l16_check(t):
    """The difference character at t depends on t_0 alone."""
    return _expect({"t": t}, difference_character(t), difference_character(
        kernel_section_sigma(kernel_project_u(t, 1), t.n)))


def _table_i_l3(cfg, rng, params):
    m = _pick(rng, 1, 3, params.get("m_max"))
    return _l3_check(
        _rand_witt(cfg, _pick(rng, 0, 2, params.get("n_max")), rng), m)


def _table_ii_check(t, s):
    """F^(m+n) V^(m+1) = F^(m+n-1) V^(m+1) F on t's coordinates as a Witt
    vector, then L14 at j = n on s."""
    w, m, n = WittVector(t.bcfg, t.coords), t.m, t.n
    return _expect(
        {"t": w, "m": m}, frobenius_iter(verschiebung(w, m + 1), m + n),
        frobenius_iter(verschiebung(frobenius(w), m + 1), m + n - 1)
    ) or _l14_check(s, (n,))


def _table_iii_witt(cfg, rng, params):
    v = _rand_witt(cfg, rng.randrange(1, 4), rng)
    return _expect({"v": v}, mult_pi(frobenius(v)), frobenius(mult_pi(v)))


def _phi_f_check(t):
    """Phi f = f Phi at the kernel point t."""
    return _expect({"t": t}, kernel_phi(kernel_lateral_f(t)),
                   kernel_lateral_f(kernel_phi(t)))


# ----------------------------------------------------------------------
# sabotage variants (mutation self-tests; these are supposed to fail)


def _sabotage_lateral(v, rng):
    """The lateral Frobenius plus pi c on its last tail coordinate, c a
    nonzero integer drawn from the trial's stream: a map that solves."""
    out = lateral_frobenius(v)
    c = out.bcfg.pi_elem() * rng.randint(1, POLY_COEFF_BOUND)
    return ShiftedWittVector(out.rcfg, out.bcfg, out.m, out.head,
                             out.tail[:-1] + (out.tail[-1] + c,))


def _sabotage_shift(v):
    g = shifted_ghost(v)
    return shifted_ghost_solve(
        GhostVector(g.entries[:-1], head_count=v.m), v.rcfg, v.bcfg)


def _sabotage(check):
    """The trial of check(v, rng), v a shifted vector of polynomials in u0,
    u1 and rng the trial's stream."""
    def numeric(cfg, rng, params):
        sym = cfg.adjoin(["u0", "u1"])
        return check(_shifted(sym.exact_cover(), sym, 1, 2,
                              lambda c, i: _rand_poly(c, rng)), rng)
    return numeric


# ----------------------------------------------------------------------
# registry and drivers


@dataclass(frozen=True)
class LawSpec:
    id: str
    description: str
    numeric: object
    trials: int = 100
    hypothesis: object = None
    symbolic: object = None
    symbolic_cases: tuple = ()
    sabotage: bool = False
    min_shape: tuple = (0, 0)


@dataclass
class TrialReport:
    law: str
    config: dict
    seed: int
    trials: int
    status: str
    counterexample: object
    ms: float
    reason: str = ""
    mode: str = "numeric"

    def to_json(self):
        out = asdict(self)
        if not self.reason:
            del out["reason"]
        return out


REPORT_SCHEMA = {
    "type": "object",
    "required": ["law", "config", "seed", "trials", "status",
                 "counterexample", "ms", "mode"],
    "properties": {
        "law": {"type": "string"},
        "config": {"type": "object"},
        "seed": {"type": "integer"},
        "trials": {"type": "integer", "minimum": 0},
        "status": {"enum": ["pass", "fail", "skipped"]},
        "counterexample": {"type": ["object", "null"]},
        "ms": {"type": "number", "minimum": 0},
        "mode": {"enum": ["numeric", "symbolic"]},
        "reason": {"type": "string"},
    },
    "additionalProperties": False,
}


def _case(p, m, n):
    return {"p": p, "m": m, "n": n}


REGISTRY = {spec.id: spec for spec in (
    LawSpec("L1", "ghost is a ring homomorphism", _law_l1, 200),
    LawSpec("L2", "ghost_solve inverts ghost", _law_l2, 200,
            hypothesis=_hyp_exact),
    LawSpec("L3", "F(V(x)) = (pi)(x) and F(V^(m+1)) = V^m (pi)",
            _law_l3, 100),
    LawSpec("L4", "F(x)_i = x_i^q mod pi", _law_l4, 200),
    LawSpec("L5", "delta axioms (1)-(3)", _law_l5, 200,
            hypothesis=_hyp_exact),
    LawSpec(
        "L6", "F^(m+2) I = F^(m+1) I F_[m]", hypothesis=_hyp_phi_pi,
        symbolic_cases=(_case(2, 0, 2), _case(2, 1, 2), _case(3, 0, 2),
                        _case(2, 1, 3)),
        **_law((_l6_check, None, (0, 2), (2, 3)))),
    LawSpec("L7", "I E_[m] = F I", symbolic_cases=(_case(2, 1, 2),),
            **_law((_l7_check, None, (1, 2), (1, 3)))),
    LawSpec("L8", "ghost of E_[m] is the right shift",
            symbolic_cases=(_case(2, 1, 2),),
            **_law((_l8_check, None, (1, 2), (1, 3)))),
    LawSpec("L9", "E_[m] F_[m] = F_[m-1] E_[m]", hypothesis=_hyp_phi_pi,
            symbolic_cases=(_case(2, 1, 2),),
            **_law((_l9_check, None, (1, 2), (1, 3)))),
    LawSpec("L10", "lateral Frobenius congruence mod pi", trials=200,
            hypothesis=_hyp_phi_pi,
            **_law((_l10_check, None, (0, 2), (1, 3)))),
    LawSpec("L11", "kernel lateral Frobenius = F on additive tails",
            **_law((_l11_check, "ga", (0, 2), (2, 4)))),
    LawSpec(
        "L12", "embedded kernel ghost = pi^(m+1) times tail ghost",
        symbolic_cases=(_case(2, 1, 1), _case(2, 0, 2), _case(2, 1, 3)),
        **_law((_l12_check, "ga", (0, 2), (1, 3)))),
    LawSpec("L13", "F iota_m = iota_(m-1) Phi_[m]",
            **_law((l13_check, "ga", (1, 2), (1, 3)))),
    LawSpec("L14", "phi^(m+j) iota_m = phi^(m+j-1) iota_m f_m",
            **_law((lambda t: _l14_check(t, range(2, t.n + 1)), "ga",
                    (0, 2), (2, 3)))),
    LawSpec("L15", "Psi ladder and additivity", trials=50,
            hypothesis=_hyp_psi,
            **_law(_at_prec(psi_check, "gm", 1, 1, 2),
                   _at_prec(_psi_id_check, "ga", 1, 1))),
    LawSpec("L16", "difference character factors through t_0",
            trials=50, **_law((l16_check, "ga", (0, 2), (2, 4)),
                              (l16_check, "gm", (0, 1), (2, 3)))),
    LawSpec("table-i", "F V^(m+1) = V^m (pi); F iota = iota Phi",
            **_law(_table_i_l3, (l13_check, "ga", (1, 2), (1, 3)))),
    LawSpec("table-ii",
            "F^(m+n) V^(m+1) = F^(m-1+n) V^(m+1) F; kernel analogue",
            **_law((_table_ii_check, "ga", (0, 2), (2, 3), 2))),
    LawSpec("table-iii", "(pi) F = F (pi); Phi f = f Phi",
            **_law(_table_iii_witt, (_phi_f_check, "ga", (1, 2), (2, 3)))),
    LawSpec("sabotage-lateral",
            "lateral Frobenius plus pi c on a tail entry (must fail L6)",
            _sabotage(lambda v, rng: _l6_check(
                v, lambda w: _sabotage_lateral(w, rng))), 100,
            sabotage=True),
    LawSpec("sabotage-shift",
            "E_[m] dropping the wrong ghost entry (must fail L8)",
            _sabotage(lambda v, rng: _l8_check(v, _sabotage_shift)), 100,
            sabotage=True),
)}


def _law_sort_key(law_id):
    if law_id.startswith("L") and law_id[1:].isdigit():
        return (0, int(law_id[1:]), law_id)
    return (1, 0, law_id)


def _spec(law_id):
    if law_id not in REGISTRY:
        raise UnknownLaw(f"no law {law_id!r}")
    return REGISTRY[law_id]


def _guarded(fn, *args):
    """fn(*args), or a counterexample naming the library error it raised."""
    try:
        return fn(*args)
    except WittlabError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def run_trials(trial, key, trials, seed):
    """Run trial(rng) on the streams random.Random("{seed}:{key}:{i}") for
    i = 0 .. trials-1 until it returns a counterexample, which records i as
    "trial".  Returns (trials run, counterexample or None)."""
    if trials < 1:
        raise WittlabError(f"trials must be at least 1, got {trials}")
    for i in range(trials):
        ce = trial(random.Random(f"{seed}:{key}:{i}"))
        if ce is not None:
            ce["trial"] = i
            return i + 1, ce
    return trials, None


def run_law(law_id, cfg, trials=None, seed=0, **params):
    spec = _spec(law_id)
    if trials is None:
        trials = spec.trials
    start = time.perf_counter()
    # the config records the options that shaped the draw, when given
    config = dict(encode_config(cfg), **{k: params[k] for k in (
        "prec", "m_max", "n_max") if k in params})
    reason = spec.hypothesis(cfg) if spec.hypothesis else ""
    if reason and trials > 0:   # trials below 1 raise in run_trials
        return TrialReport(law_id, config, seed, 0, "skipped",
                           None, (time.perf_counter() - start) * 1000,
                           reason=reason)
    ran, ce = run_trials(lambda rng: _guarded(spec.numeric, cfg, rng, params),
                         law_id, trials, seed)
    return TrialReport(law_id, config, seed, ran,
                       "pass" if ce is None else "fail", ce,
                       (time.perf_counter() - start) * 1000)


def symbolic_verify(law_id, case, seed=0):
    spec = _spec(law_id)
    if spec.symbolic is None:
        raise ConfigUnsupported(f"{law_id} has no symbolic mode")
    (m_min, n_min), m, n = spec.min_shape, case.get("m"), case.get("n")
    p = case.get("p")
    if not (type(p) is int and type(m) is int and type(n) is int
            and m >= m_min and n >= n_min):
        raise WittlabError(f"{law_id} needs integers m >= {m_min}, n >= "
                           f"{n_min} and p, got m={m!r}, n={n!r}, p={p!r}")
    start = time.perf_counter()
    base = make_ring_config({"p": case["p"]})
    ce = _guarded(spec.symbolic, case)
    status = "pass" if ce is None else "fail"
    config = encode_config(base)
    config.update({k: v for k, v in case.items() if k != "p"})
    return TrialReport(law_id, config, seed, 1, status, ce,
                       (time.perf_counter() - start) * 1000,
                       mode="symbolic")


def default_matrix():
    return [
        make_ring_config({"p": 2}),
        make_ring_config({"p": 3}),
        make_ring_config({"p": 5, "modulus": [-5, 0, 1]}),
    ]


def run_suite(law_filter="all", configs=None, trials=None, seed=0,
              include_sabotage=False, **params):
    """The reports and their summary; an InternalError leaves with the
    reports finished before it as its ``reports`` attribute."""
    if configs is None:
        configs = default_matrix()
    if law_filter == "all":
        ids = [i for i in REGISTRY
               if include_sabotage or not REGISTRY[i].sabotage]
    else:
        wanted = (law_filter if isinstance(law_filter, (list, tuple))
                  else [law_filter])
        ids = list(dict.fromkeys(_spec(i).id for i in wanted))
    ids.sort(key=_law_sort_key)
    reports = []
    try:
        for law_id in ids:
            for cfg in configs:
                reports.append(run_law(law_id, cfg, trials=trials, seed=seed,
                                       **params))
            for case in REGISTRY[law_id].symbolic_cases:
                reports.append(symbolic_verify(law_id, case, seed=seed))
    except InternalError as exc:
        exc.reports = reports
        raise
    summary = {
        "pass": sum(r.status == "pass" for r in reports),
        "fail": sum(r.status == "fail" for r in reports),
        "skipped": sum(r.status == "skipped" for r in reports),
        "total": len(reports),
    }
    return reports, summary
