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


def _seeded(rng):
    """The element source of a seeded trial: every coordinate a fresh draw."""
    return lambda cfg, i: _rand_elem(cfg, rng)


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
    back = ghost_solve(ghost(v), cfg)
    if back != v:
        return _mismatch({"v": v}, back, v)
    return None


def _hyp_exact(cfg, params):
    return None if cfg.torsion_free else "needs an exact base"


def _hyp_phi_pi(cfg, params):
    return None if cfg.phi_pi is None else "phi(pi) != pi"


def _l3_check(t, m):
    """F V^(m+1) = V^m (pi) at t; m = 0 is F V = (pi)."""
    lhs = frobenius(verschiebung(t, m + 1))
    rhs = verschiebung(mult_pi(t), m)
    if lhs != rhs:
        return _mismatch({"t": t, "m": m}, lhs, rhs)
    return None


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
    lhs = delta(x + y)
    rhs = delta(x) + delta(y) + c_pi(x, y)
    if lhs != rhs:
        return _mismatch({"x": x, "y": y}, lhs, rhs)
    q = cfg.q
    lhs = delta(x * y)
    rhs = (x ** q * delta(y) + y ** q * delta(x)
           + cfg.pi_elem() * delta(x) * delta(y))
    if lhs != rhs:
        return _mismatch({"x": x, "y": y}, lhs, rhs)
    return None


def _law(check, m_range, n_range, group):
    """The numeric trial (m, n from the ranges, capped by m_max and n_max)
    and the symbolic case of a check on a shifted vector over (cfg's exact
    cover, cfg), or with a load_fgl name on a point over ``_bases``."""

    def build(cfg, m, n, elem, prec):
        if group is None:
            return _shifted(cfg.exact_cover(), cfg, m, n, elem)
        law = load_fgl(group, cfg.base_exact())
        return _point(law, *_bases(law, cfg, prec), m, n, elem)

    def numeric(cfg, rng, params):
        m = _pick(rng, *m_range, params.get("m_max"))
        n = _pick(rng, *n_range, params.get("n_max"))
        return check(build(cfg, m, n, _seeded(rng), params.get("prec", 6)))

    def symbolic(case):
        m, n = case["m"], case["n"]
        prefix, count = ("x", m + n + 1) if group is None else ("t", n)
        sym = make_ring_config({"p": case["p"]}).adjoin(
            [f"{prefix}{i}" for i in range(count)])
        return check(build(sym, m, n, lambda cfg, i: cfg.var(f"{prefix}{i}"),
                           6))

    return {"numeric": numeric, "symbolic": symbolic,
            "min_shape": (m_range[0], n_range[0])}


def _l6_check(v, lateral=lateral_frobenius):
    lhs = frobenius_iter(include_I(v), v.m + 2)
    rhs = frobenius_iter(include_I(lateral(v)), v.m + 1)
    if lhs != rhs:
        return _mismatch({"v": v}, lhs, rhs)
    return None


def _l7_check(v):
    lhs = include_I(shift_E(v))
    rhs = frobenius(include_I(v))
    if lhs != rhs:
        return _mismatch({"v": v}, lhs, rhs)
    return None


def _l8_check(v, shift=shift_E):
    out = shift(v)      # its ghost from its coordinates, as in L1
    lhs = shifted_ghost(ShiftedWittVector(out.rcfg, out.bcfg, out.m,
                                          out.head, out.tail)).entries
    rhs = shifted_ghost(v).entries[1:]
    if lhs != rhs:
        return _mismatch({"v": v}, list(lhs), list(rhs))
    return None


def _l9_check(v):
    lhs = shift_E(lateral_frobenius(v))
    rhs = lateral_frobenius(shift_E(v))
    if lhs != rhs:
        return _mismatch({"v": v}, lhs, rhs)
    return None


def _l10_check(v):
    out = lateral_frobenius(v)
    ins = v.head + v.tail
    for i, o in enumerate(out.head + out.tail):
        if not _div_pi(o - ins[i] ** v.bcfg.q):
            return _mismatch({"v": v}, out, v)
    return None


def _l11_check(t):
    lhs = kernel_lateral_f(t).coords
    rhs = frobenius(WittVector(t.bcfg, t.coords)).comps
    if lhs != rhs:
        return _mismatch({"t": t}, list(lhs), list(rhs))
    return None


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
    lhs = frobenius(kernel_witt_point(t))
    rhs = kernel_witt_point(phi)
    if lhs != rhs:
        return _mismatch({"t": t}, lhs, rhs)
    if t.n == 1:
        rhs = t.bcfg.convert(t.rcfg.pi_elem()) * t.coords[0]
        if phi.coords[0] != rhs:
            return _mismatch({"t": t}, phi.coords[0], rhs)
    return None


def _l14_check(t, js):
    """phi^(m+j) iota_m = phi^(m+j-1) iota_m f_m at t, for each j in js."""
    s = kernel_lateral_f(t)
    for j in js:
        lhs = frobenius_iter(kernel_witt_point(t), t.m + j)
        rhs = frobenius_iter(kernel_witt_point(s), t.m + j - 1)
        if lhs != rhs:
            return _mismatch({"t": t, "j": t.bcfg.from_int(j)}, lhs, rhs)
    return None


def _hyp_psi(cfg, params):
    return None if cfg.psi_integral else "psi_integral=false"


def psi_check(t, s, prec):
    """The Psi ladder Psi_(m-1)(Phi_[m](t)_0) = pi Psi_m(t_0) and the
    additivity Psi_m(t + s) = Psi_m(t_0) + Psi_m(s_0), for kernel points
    t, s of N^[m]1."""
    law, m, (t0,), (s0,) = t.law, t.m, t.coords, s.coords
    lhs = psi_map(law, m - 1, kernel_phi(t).coords[0], precision=prec)
    rhs = (t.bcfg.convert(t.rcfg.pi_elem())
           * psi_map(law, m, t0, precision=prec))
    if lhs != rhs:
        return _mismatch({"t0": t0}, lhs, rhs)
    lhs = psi_map(law, m, kernel_add(t, s).coords[0], precision=prec)
    rhs = (psi_map(law, m, t0, precision=prec)
           + psi_map(law, m, s0, precision=prec))
    if lhs != rhs:
        return _mismatch({"t0": t0, "s0": s0}, lhs, rhs)
    return None


def _law_l15(cfg, rng, params):
    prec = params.get("prec", 6)
    base, elem = cfg.base_exact(), _seeded(rng)
    gm = load_fgl("gm", base)
    bases = _bases(gm, cfg, prec)
    ce = psi_check(_point(gm, *bases, 1, 1, elem),
                   _point(gm, *bases, 1, 1, elem), prec)
    if ce:
        return ce
    # additive degeneration: Psi = id and Phi = pi
    ga = load_fgl("ga", base)
    a = _point(ga, *_bases(ga, cfg, prec), 1, 1, elem)
    if psi_map(ga, 1, a.coords[0], precision=prec) != a.coords[0]:
        return {"part": "psi_ga", "inputs": {"a": _enc(a)}}
    return l13_check(a)


def l16_check(t):
    """The difference character at t depends on t_0 alone."""
    lhs = difference_character(t)
    rhs = difference_character(
        kernel_section_sigma(kernel_project_u(t, 1), t.n))
    if lhs != rhs:
        return _mismatch({"t": t}, lhs, rhs)
    return None


def _in_turn(*trials):
    """One trial: the given trials in turn on its stream, up to the first
    counterexample."""
    def numeric(cfg, rng, params):
        for trial in trials:
            ce = trial(cfg, rng, params)
            if ce:
                return ce
        return None
    return numeric


def _table_i_l3(cfg, rng, params):
    m = _pick(rng, 1, 3, params.get("m_max"))
    return _l3_check(
        _rand_witt(cfg, _pick(rng, 0, 2, params.get("n_max")), rng), m)


def _law_table_ii(cfg, rng, params):
    m = _pick(rng, 0, 2, params.get("m_max"))
    n = _pick(rng, 2, 3, params.get("n_max"))
    t = _rand_witt(cfg, n - 1, rng)
    lhs = frobenius_iter(verschiebung(t, m + 1), m + n)
    rhs = frobenius_iter(verschiebung(frobenius(t), m + 1), m + n - 1)
    if lhs != rhs:
        return _mismatch({"t": t, "m": m}, lhs, rhs)
    ga = load_fgl("ga", cfg.base_exact())
    return _l14_check(_point(ga, *_bases(ga, cfg, params.get("prec", 6)), m,
                             n, _seeded(rng)), (n,))


def _law_table_iii(cfg, rng, params):
    v = _rand_witt(cfg, rng.randrange(1, 4), rng)
    lhs = mult_pi(frobenius(v))
    rhs = frobenius(mult_pi(v))
    if lhs != rhs:
        return _mismatch({"v": v}, lhs, rhs)
    m = _pick(rng, 1, 2, params.get("m_max"))
    n = _pick(rng, 2, 3, params.get("n_max"))
    ga = load_fgl("ga", cfg.base_exact())
    pt = _point(ga, *_bases(ga, cfg, params.get("prec", 6)), m, n,
                _seeded(rng))
    lhs = kernel_phi(kernel_lateral_f(pt))
    rhs = kernel_lateral_f(kernel_phi(pt))
    if lhs != rhs:
        return _mismatch({"t": pt}, lhs, rhs)
    return None


# ----------------------------------------------------------------------
# sabotage variants (mutation self-tests; these are supposed to fail)


def _sabotage_lateral(v):
    g = shifted_ghost(v)
    entries = list(g.entries[:v.m + 1]) + list(g.entries[v.m + 2:])
    return shifted_ghost_solve(
        GhostVector(entries, head_count=v.m + 1), v.rcfg, v.bcfg)


def _sabotage_shift(v):
    g = shifted_ghost(v)
    return shifted_ghost_solve(
        GhostVector(g.entries[:-1], head_count=v.m), v.rcfg, v.bcfg)


def _sabotage(check):
    """The trial of a check on a shifted vector of polynomials in u0, u1."""
    def numeric(cfg, rng, params):
        sym = cfg.adjoin(["u0", "u1"])
        return check(_shifted(sym.exact_cover(), sym, 1, 2,
                              lambda c, i: _rand_poly(c, rng)))
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


REGISTRY = {}


def _register(spec):
    REGISTRY[spec.id] = spec


_register(LawSpec("L1", "ghost is a ring homomorphism", _law_l1, 200))
_register(LawSpec("L2", "ghost_solve inverts ghost", _law_l2, 200,
                  hypothesis=_hyp_exact))
_register(LawSpec("L3", "F(V(x)) = (pi)(x) and F(V^(m+1)) = V^m (pi)",
                  _law_l3, 100))
_register(LawSpec("L4", "F(x)_i = x_i^q mod pi", _law_l4, 200))
_register(LawSpec("L5", "delta axioms (1)-(3)", _law_l5, 200,
                  hypothesis=_hyp_exact))
_register(LawSpec(
    "L6", "F^(m+2) I = F^(m+1) I F_[m]", hypothesis=_hyp_phi_pi,
    symbolic_cases=(_case(2, 0, 2), _case(2, 1, 2), _case(3, 0, 2),
                    _case(2, 1, 3)),
    **_law(_l6_check, (0, 2), (2, 3), None)))
_register(LawSpec("L7", "I E_[m] = F I", symbolic_cases=(_case(2, 1, 2),),
                  **_law(_l7_check, (1, 2), (1, 3), None)))
_register(LawSpec("L8", "ghost of E_[m] is the right shift",
                  symbolic_cases=(_case(2, 1, 2),),
                  **_law(_l8_check, (1, 2), (1, 3), None)))
_register(LawSpec("L9", "E_[m] F_[m] = F_[m-1] E_[m]", hypothesis=_hyp_phi_pi,
                  symbolic_cases=(_case(2, 1, 2),),
                  **_law(_l9_check, (1, 2), (1, 3), None)))
_register(LawSpec("L10", "lateral Frobenius congruence mod pi", trials=200,
                  hypothesis=_hyp_phi_pi,
                  **_law(_l10_check, (0, 2), (1, 3), None)))
_register(LawSpec("L11", "kernel lateral Frobenius = F on additive tails",
                  **_law(_l11_check, (0, 2), (2, 4), "ga")))
_register(LawSpec(
    "L12", "embedded kernel ghost = pi^(m+1) times tail ghost",
    symbolic_cases=(_case(2, 1, 1), _case(2, 0, 2), _case(2, 1, 3)),
    **_law(_l12_check, (0, 2), (1, 3), "ga")))
_register(LawSpec("L13", "F iota_m = iota_(m-1) Phi_[m]",
                  **_law(l13_check, (1, 2), (1, 3), "ga")))
_register(LawSpec("L14", "phi^(m+j) iota_m = phi^(m+j-1) iota_m f_m",
                  **_law(lambda t: _l14_check(t, range(2, t.n + 1)),
                         (0, 2), (2, 3), "ga")))
_register(LawSpec("L15", "Psi ladder and additivity", _law_l15, 50,
                  hypothesis=_hyp_psi))
_register(LawSpec("L16", "difference character factors through t_0",
                  _in_turn(_law(l16_check, (0, 2), (2, 4), "ga")["numeric"],
                           _law(l16_check, (0, 1), (2, 3), "gm")["numeric"]),
                  50))
_register(LawSpec("table-i", "F V^(m+1) = V^m (pi); F iota = iota Phi",
                  _in_turn(_table_i_l3, REGISTRY["L13"].numeric), 100))
_register(LawSpec("table-ii",
                  "F^(m+n) V^(m+1) = F^(m-1+n) V^(m+1) F; kernel analogue",
                  _law_table_ii, 100))
_register(LawSpec("table-iii", "(pi) F = F (pi); Phi f = f Phi",
                  _law_table_iii, 100))
_register(LawSpec("sabotage-lateral",
                  "lateral Frobenius with un-phi'd head (must fail L6)",
                  _sabotage(lambda v: _l6_check(v, _sabotage_lateral)), 100,
                  sabotage=True))
_register(LawSpec("sabotage-shift",
                  "E_[m] dropping the wrong ghost entry (must fail L8)",
                  _sabotage(lambda v: _l8_check(v, _sabotage_shift)), 100,
                  sabotage=True))


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
    reason = spec.hypothesis(cfg, params) if spec.hypothesis else ""
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
    if not (type(m) is int and type(n) is int and m >= m_min
            and n >= n_min):
        raise WittlabError(f"{law_id} needs integers m >= {m_min} and "
                           f"n >= {n_min}, got m={m!r}, n={n!r}")
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
        ids = [_spec(i).id for i in wanted]
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
