"""Differential oracles for the ghost engine: independent paths through the
library must agree.

* Reduction mod pi^N commutes with every operator: reducing the inputs and
  then applying the op equals applying the op over the exact base and then
  reducing the result.
* The universal structure polynomials (computed symbolically, on
  polynomial ring elements) evaluated at integer points equal the op
  computed on constants.
* The two implementations of E_[m] (ghost solve, Frobenius polynomials)
  agree on truncated bases.
* Composites solved once on ghost rows (F^k, the kernel group series,
  the difference character) equal their per-step definitions: k
  Frobenius round trips, and one shifted / Witt ring operation per
  series term.
* The difference character, one ghost pass of the embedding and one
  solve, equals its composed definition: two Frobenius images of Witt
  points, one of them through the lateral Frobenius, and the group
  difference evaluated on their ghost rows.
* The additive group goes through the kernel group series like any other
  law: its sum, negative and group difference are Witt addition,
  negation and subtraction of the tails, on exact and truncated bases.
* A truncation B/pi^N computes mod pi^(N+L): every operator gives the
  result, or the error, of the same engine on the exact cover's
  arithmetic, at lengths past N and on orders of degree 2 and 3.
* The row kernel (a q-th-power table summed by Horner in pi) gives the
  rows, solves and errors of the per-term sum it replaced, and the d = 2
  squaring equals the product of an element with itself.
"""

import collections
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import kernel, shifted, witt
from wittlab.errors import (
    ConfigUnsupported,
    NonDivisible,
    NonIntegral,
    PrecisionRequired,
    WittlabError,
    ZeroLength,
    ZeroTail,
)
from wittlab.fgl import formal_inverse, load_fgl
from wittlab.kernel import (
    KernelPoint,
    _tail_cutoff,
    difference_character,
    kernel_add,
    kernel_embed,
    kernel_lateral_f,
    kernel_neg,
    kernel_witt_point,
)
from wittlab.rings import make_ring_config
from wittlab.serialize import encode_element
from wittlab.shifted import (
    ShiftedWittVector,
    lateral_frobenius,
    scalar_shifted,
    shift_E,
    shifted_add,
    shifted_ghost,
    shifted_mul,
    shifted_neg,
    shifted_zero,
)
from wittlab.witt import (
    WittVector,
    _Arith,
    _arith,
    _check_fixed,
    _ghost_rows,
    _solve_rows,
    exp_delta,
    frobenius,
    frobenius_iter,
    ghost,
    mult_pi,
    scalar_mul,
    universal_polynomials,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
    witt_zero,
)

from oracles import shift_E_coords, substitute

Z2 = make_ring_config({"p": 2})
Z3 = make_ring_config({"p": 3})
Z5 = make_ring_config({"p": 5})
RAM5 = make_ring_config({"p": 5, "modulus": [-5, 0, 1]})

# (exact base, truncation exponent N): Z/5^6 and Z[x]/(x^2-5) mod pi^8
TRUNCATIONS = [(Z5, 6), (RAM5, 8)]
TRUNC_IDS = ["Z5/5^6", "RAM5/pi^8"]
TRIALS = 12


def _elem(cfg, rng, bound=10 ** 6):
    return cfg.from_coeff([rng.randint(-bound, bound) for _ in range(cfg.d)])


def _witt(cfg, n, rng):
    return WittVector(cfg, [_elem(cfg, rng) for _ in range(n + 1)])


def _shifted(rcfg, m, n, rng):
    return ShiftedWittVector(rcfg, rcfg, m,
                             [_elem(rcfg, rng) for _ in range(m + 1)],
                             [_elem(rcfg, rng) for _ in range(n)])


def _reduce_witt(B, v):
    return WittVector(B, [B.convert(c) for c in v.comps])


def _reduce_shifted(B, v):
    return ShiftedWittVector(v.rcfg, B, v.m, v.head,
                             [B.convert(b) for b in v.tail])


# ----------------------------------------------------------------------
# reduction commutes with every operator


WITT_UNARY = {"witt_neg": witt_neg, "frobenius": frobenius,
              "mult_pi": mult_pi}
WITT_BINARY = {"witt_add": witt_add, "witt_mul": witt_mul}


@pytest.mark.parametrize("base,N", TRUNCATIONS, ids=TRUNC_IDS)
@pytest.mark.parametrize("name", sorted(WITT_UNARY))
def test_reduction_commutes_witt_unary(base, N, name):
    op = WITT_UNARY[name]
    B = base.truncated(N)
    rng = random.Random(f"unary:{name}:{N}")
    for _ in range(TRIALS):
        v = _witt(base, rng.randint(1, 4), rng)
        assert op(_reduce_witt(B, v)) == _reduce_witt(B, op(v))


@pytest.mark.parametrize("base,N", TRUNCATIONS, ids=TRUNC_IDS)
@pytest.mark.parametrize("name", sorted(WITT_BINARY))
def test_reduction_commutes_witt_binary(base, N, name):
    op = WITT_BINARY[name]
    B = base.truncated(N)
    rng = random.Random(f"binary:{name}:{N}")
    for _ in range(TRIALS):
        n = rng.randint(0, 4)
        u, v = _witt(base, n, rng), _witt(base, n, rng)
        assert (op(_reduce_witt(B, u), _reduce_witt(B, v))
                == _reduce_witt(B, op(u, v)))


SHIFTED_UNARY = {"lateral_frobenius": lateral_frobenius, "shift_E": shift_E}
SHIFTED_BINARY = {"shifted_add": shifted_add, "shifted_mul": shifted_mul}


@pytest.mark.parametrize("base,N", TRUNCATIONS, ids=TRUNC_IDS)
@pytest.mark.parametrize("name", sorted(SHIFTED_UNARY))
def test_reduction_commutes_shifted_unary(base, N, name):
    op = SHIFTED_UNARY[name]
    B = base.truncated(N)
    rng = random.Random(f"shifted-unary:{name}:{N}")
    for _ in range(TRIALS):
        v = _shifted(base, rng.randint(1, 2), rng.randint(1, 3), rng)
        assert op(_reduce_shifted(B, v)) == _reduce_shifted(B, op(v))


@pytest.mark.parametrize("base,N", TRUNCATIONS, ids=TRUNC_IDS)
@pytest.mark.parametrize("name", sorted(SHIFTED_BINARY))
def test_reduction_commutes_shifted_binary(base, N, name):
    op = SHIFTED_BINARY[name]
    B = base.truncated(N)
    rng = random.Random(f"shifted-binary:{name}:{N}")
    for _ in range(TRIALS):
        m, n = rng.randint(0, 2), rng.randint(0, 3)
        u, v = _shifted(base, m, n, rng), _shifted(base, m, n, rng)
        assert (op(_reduce_shifted(B, u), _reduce_shifted(B, v))
                == _reduce_shifted(B, op(u, v)))


# ----------------------------------------------------------------------
# constants against the universal polynomials


UNIVERSAL_OPS = {
    "sum": lambda u, v: witt_add(u, v),
    "prod": lambda u, v: witt_mul(u, v),
    "frobenius": lambda u, v: frobenius(u),
    "mult_pi": lambda u, v: mult_pi(u),
}

# The ramified sum at n=3 expands to about 38k terms (tens of seconds),
# so the ramified binary ops stop at n=2.
UNIVERSAL_CASES = [(cfg, op, n)
                   for cfg, cap in ((Z2, {}), (Z3, {}),
                                    (RAM5, {"sum": 2, "prod": 2}))
                   for op in sorted(UNIVERSAL_OPS)
                   for n in range(1 if op == "frobenius" else 0,
                                  cap.get(op, 3) + 1)]


@pytest.mark.parametrize(
    "cfg,op,n", UNIVERSAL_CASES,
    ids=[f"{c.p}{'-ram' if c.modulus else ''}-{op}-n{n}"
         for c, op, n in UNIVERSAL_CASES])
def test_universal_polynomials_match_constant_path(cfg, op, n):
    polys = universal_polynomials(op, n, cfg=cfg)
    rng = random.Random(f"universal:{cfg.key}:{op}:{n}")
    for _ in range(4):
        u, v = _witt(cfg, n, rng), _witt(cfg, n, rng)
        values = {f"x{i}": c for i, c in enumerate(u.comps)}
        values.update({f"y{i}": c for i, c in enumerate(v.comps)})
        got = [substitute(poly, values, cfg) for poly in polys]
        assert got == list(UNIVERSAL_OPS[op](u, v).comps)


# ----------------------------------------------------------------------
# the two E_[m] paths on truncated bases


@pytest.mark.parametrize("base,N", TRUNCATIONS, ids=TRUNC_IDS)
def test_shift_paths_agree_on_truncated_base(base, N):
    B = base.truncated(N)
    rng = random.Random(f"shift-paths:{N}")
    for _ in range(TRIALS):
        # the coords path expands the Frobenius polynomials of length m+n,
        # which grow fast with q = 5: keep m + n <= 3
        m = rng.randint(1, 2)
        v = _reduce_shifted(B, _shifted(base, m, rng.randint(0, 3 - m), rng))
        assert shift_E_coords(v) == shift_E(v)


# ----------------------------------------------------------------------
# composites solved once against their per-step definitions


def _frobenius_loop(v, k):
    for _ in range(k):
        v = frobenius(v)
    return v


SYM2 = Z2.adjoin(["x0", "x1", "x2", "x3"])
FROBENIUS_BASES = [Z2, Z3, RAM5, Z5.truncated(6), RAM5.truncated(8)]
FROBENIUS_IDS = ["Z2", "Z3", "RAM5", "Z5/5^6", "RAM5/pi^8"]


def _vector(cfg, n, rng):
    v = _witt(cfg.exact_cover(), n, rng)
    return _reduce_witt(cfg, v) if cfg.trunc else v


@pytest.mark.parametrize("cfg", FROBENIUS_BASES, ids=FROBENIUS_IDS)
def test_frobenius_iter_is_repeated_frobenius(cfg):
    rng = random.Random(f"frobenius-iter:{cfg.key}")
    for n in range(5):
        v = _vector(cfg, n, rng)
        for k in range(n + 1):
            assert frobenius_iter(v, k) == _frobenius_loop(v, k)
        assert frobenius_iter(v, -1) == v
        with pytest.raises(ZeroLength):
            frobenius_iter(v, n + 1)


def test_frobenius_iter_symbolic():
    for n in range(4):
        v = WittVector(SYM2, [SYM2.var(f"x{i}") for i in range(n + 1)])
        for k in range(n + 1):
            assert frobenius_iter(v, k) == _frobenius_loop(v, k)
        with pytest.raises(ZeroLength):
            frobenius_iter(v, n + 1)


# The kernel group series as one shifted / Witt ring operation per term:
# the definitions the ghost-side evaluator must reproduce, cut-offs and
# precision thresholds included.


def _ref_kernel_add(t, s):
    law = t.law
    cutoff = _tail_cutoff(t.m, t.m + t.n + 1, t.bcfg.trunc)
    if not law.exact and law.degree < cutoff - 1:
        raise PrecisionRequired(
            f"law jet of degree {law.degree} cannot resolve precision "
            f"pi^{t.bcfg.trunc}")
    u, v = kernel_embed(t), kernel_embed(s)
    upow, vpow = {0: None, 1: u}, {0: None, 1: v}
    acc = shifted_zero(t.rcfg, t.bcfg, t.m, t.n)
    for (i, j), c in sorted(law.coeffs.items()):
        if i + j >= cutoff + 1 and not law.exact:
            continue
        term = scalar_shifted(t.rcfg, t.bcfg, t.m, t.n, c)
        for base, pows, k in ((u, upow, i), (v, vpow, j)):
            while max(pows) < k:
                pows[max(pows) + 1] = shifted_mul(pows[max(pows)], base)
            if k:
                term = shifted_mul(term, pows[k])
        acc = shifted_add(acc, term)
    assert all(h.is_zero() for h in acc.head)
    return KernelPoint(law, t.rcfg, t.bcfg, t.m, acc.tail)


def _ref_kernel_neg(t):
    law = t.law
    cutoff = _tail_cutoff(t.m, t.m + t.n + 1, t.bcfg.trunc)
    if not law.exact and law.degree < cutoff - 1:
        raise PrecisionRequired(
            f"law jet of degree {law.degree} cannot resolve precision "
            f"pi^{t.bcfg.trunc}")
    inv = formal_inverse(law, cutoff - 1)
    u = kernel_embed(t)
    acc = shifted_zero(t.rcfg, t.bcfg, t.m, t.n)
    pow_u = None
    for b in inv:
        pow_u = u if pow_u is None else shifted_mul(pow_u, u)
        acc = shifted_add(acc, shifted_mul(
            scalar_shifted(t.rcfg, t.bcfg, t.m, t.n, b), pow_u))
    return KernelPoint(law, t.rcfg, t.bcfg, t.m, acc.tail)


def _ref_witt_series(coeffs_k, v, cutoff):
    acc = witt_zero(v.cfg, v.n)
    pow_v = None
    for k, c in enumerate(coeffs_k, 1):
        if k >= cutoff:
            break
        pow_v = v if pow_v is None else witt_mul(pow_v, v)
        if c.is_zero():
            continue
        acc = witt_add(acc, scalar_mul(c, pow_v))
    return acc


def _ref_group_difference(law, x, y, m):
    cfg = x.cfg
    cutoff = _tail_cutoff(m, x.n + 1, cfg.trunc)
    if not law.exact and law.degree < cutoff - 1:
        raise PrecisionRequired(
            f"law jet of degree {law.degree} cannot resolve precision "
            f"pi^{cfg.trunc}")
    inv = formal_inverse(law, cutoff - 1)
    # the structure map of a coefficient phi moves needs phi(pi) = pi: the
    # inverse series is checked first, as the implementation runs it first
    for c in inv + [c for (i, j), c in sorted(law.coeffs.items())
                    if law.exact or i + j <= cutoff]:
        _check_fixed(c, "the kernel group law")
    neg_y = _ref_witt_series(inv, y, cutoff + 1)
    acc = witt_zero(cfg, x.n)
    xpow, ypow = {0: None, 1: x}, {0: None, 1: neg_y}
    for (i, j), c in sorted(law.coeffs.items()):
        if i + j > cutoff and not law.exact:
            continue
        term = None
        for pows, base, k in ((xpow, x, i), (ypow, neg_y, j)):
            while max(pows) < k:
                pows[max(pows) + 1] = witt_mul(pows[max(pows)], base)
            if k:
                term = pows[k] if term is None else witt_mul(term, pows[k])
        acc = witt_add(acc, scalar_mul(c, term))
    return acc


def _ref_difference_character(t):
    x = _frobenius_loop(kernel_witt_point(t), t.m + 1)
    y = _frobenius_loop(kernel_witt_point(kernel_lateral_f(t)), t.m)
    return _ref_group_difference(t.law, x, y, t.m)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WittlabError as exc:
        return type(exc).__name__, str(exc)


def _jet(base, degree, coeffs):
    return load_fgl({"degree": degree,
                     "coeffs": [{"i": i, "j": j, "c": c}
                                for (i, j), c in coeffs.items()]}, base)


def _gm_jet(base, degree, c=1):
    """X + Y + c XY as a custom jet of the given degree."""
    return _jet(base, degree, {(1, 0): 1, (0, 1): 1, (1, 1): c})


def _tanh_jet(base, degree):
    """(X + Y) / (1 + XY): terms up to the degree, so the degree cut-offs
    drop some of them."""
    coeffs = {}
    for k in range((degree + 1) // 2):
        coeffs[(k + 1, k)] = coeffs[(k, k + 1)] = (-1) ** k
    return _jet(base, degree, coeffs)


# x^2 - 5 with phi(pi) = -pi, so that pi XY has a non-constant ghost chain
PHI_NEG = make_ring_config({"p": 5, "modulus": [-5, 0, 1],
                            "phi_pi": [0, -1]})
KERNEL_LAWS = {
    "gm": lambda base: load_fgl("gm", base),
    "gm-jet3": lambda base: _gm_jet(base, 3),
    "gm-jet5": lambda base: _gm_jet(base, 5),
    "gm-jet8": lambda base: _gm_jet(base, 8),
    "tanh-jet8": lambda base: _tanh_jet(base, 8),
    "pi-gm-jet8": lambda base: _gm_jet(base, 8,
                                       encode_element(base.pi_elem())),
}
BASE_NAMES = {Z5: "Z5", RAM5: "RAM5", PHI_NEG: "PHI_NEG"}
# (base, law, whether every shape resolves).  The per-term shifted
# reference cannot run on PHI_NEG with pi XY: the structure-map image of
# pi alone does not solve there, so that case checks the Witt-side group
# difference only, which raises ConfigUnsupported there as kernel_add does.
KERNEL_CASES = [(Z5, "gm", True), (RAM5, "gm", True),
                (Z5, "gm-jet3", False), (RAM5, "gm-jet3", False),
                (Z5, "gm-jet5", False), (RAM5, "gm-jet5", False),
                (Z5, "gm-jet8", True), (RAM5, "gm-jet8", True),
                (Z5, "tanh-jet8", True), (RAM5, "tanh-jet8", True),
                (RAM5, "pi-gm-jet8", True)]
# the kernel-trunc benchmark shapes (m, n, N), then two more
KERNEL_SHAPES = [(0, 2, 6), (1, 2, 6), (1, 3, 8), (2, 2, 8), (0, 3, 5),
                 (2, 4, 6)]
KERNEL_OPS = {
    "kernel_add": (kernel_add, _ref_kernel_add, 2),
    "kernel_neg": (kernel_neg, _ref_kernel_neg, 1),
    "difference_character": (difference_character,
                             _ref_difference_character, 1),
}


KERNEL_RUNS = ([(op, *case) for op in sorted(KERNEL_OPS)
                for case in KERNEL_CASES]
               + [("difference_character", PHI_NEG, "pi-gm-jet8", False)])


@pytest.mark.parametrize(
    "op,base,law_name,resolves", KERNEL_RUNS,
    ids=[f"{op}-{BASE_NAMES[b]}-{n}" for op, b, n, _ in KERNEL_RUNS])
def test_kernel_series_match_witt_side_reference(op, base, law_name,
                                                 resolves):
    fn, ref, arity = KERNEL_OPS[op]
    law = KERNEL_LAWS[law_name](base)
    rng = random.Random(f"kernel-series:{op}:{law_name}:{base.key}")
    outcomes = set()
    for m, n, N in KERNEL_SHAPES * 2:
        B = base.truncated(N)
        points = [KernelPoint(law, base, B, m,
                              [B.convert(_elem(base, rng)) for _ in range(n)])
                  for _ in range(arity)]
        got, want = _outcome(fn, *points), _outcome(ref, *points)
        assert got == want
        outcomes.add(type(got).__name__)
    assert ("tuple" not in outcomes) == resolves


def test_formal_inverse_returns_a_fresh_list():
    law = _gm_jet(Z5, 8)
    first = formal_inverse(law, 6)
    want = list(first)
    first.append(None)
    first[0] = None
    assert formal_inverse(law, 6) == want
    assert formal_inverse(law, 8)[:6] == want
    assert formal_inverse(law, 4) == want[:4]


# ----------------------------------------------------------------------
# the additive group through the series against Witt arithmetic on tails
#
# The references compute the additive law's group structure as Witt
# arithmetic: witt_add / witt_neg of the tails, and witt_sub of the two
# Frobenius images inside the difference character.


def _ga_add(t, s):
    v = witt_add(WittVector(t.bcfg, t.coords), WittVector(t.bcfg, s.coords))
    return KernelPoint(t.law, t.rcfg, t.bcfg, t.m, v.comps)


def _ga_neg(t):
    v = witt_neg(WittVector(t.bcfg, t.coords))
    return KernelPoint(t.law, t.rcfg, t.bcfg, t.m, v.comps)


def _ga_difference_character(t):
    x = frobenius_iter(kernel_witt_point(t), t.m + 1)
    y = frobenius_iter(kernel_witt_point(kernel_lateral_f(t)), t.m)
    return witt_sub(x, y)


# op: (series path, reference, arity, least tail length)
GA_OPS = {"kernel_add": (kernel_add, _ga_add, 2, 1),
          "kernel_neg": (kernel_neg, _ga_neg, 1, 1),
          "difference_character": (difference_character,
                                   _ga_difference_character, 1, 2)}
# the exact bases L16 draws its additive points on, then two truncations
GA_BASES = [(Z2, 0), (Z3, 0), (RAM5, 0)] + TRUNCATIONS
GA_IDS = ["Z2", "Z3", "RAM5"] + TRUNC_IDS


@pytest.mark.parametrize("base,N", GA_BASES, ids=GA_IDS)
@pytest.mark.parametrize("op", sorted(GA_OPS))
def test_additive_series_is_witt_arithmetic_on_tails(op, base, N):
    fn, ref, arity, n_min = GA_OPS[op]
    B = base.truncated(N)      # N = 0 is the exact base itself
    law = load_fgl("ga", base)
    rng = random.Random(f"ga-series:{op}:{base.key}:{N}")
    raised = set()
    for m in range(3):
        for n in list(range(n_min, 5)) * 2:
            points = [KernelPoint(law, base, B, m,
                                  [B.convert(_elem(base, rng))
                                   for _ in range(n)])
                      for _ in range(arity)]
            got = _outcome(fn, *points)
            assert got == _outcome(ref, *points), (m, n)
            raised.add(isinstance(got, tuple))
    assert raised == {False}    # every shape gave a value


# ----------------------------------------------------------------------
# the one-pass difference character against its composed definition
#
# The reference builds both Frobenius images as Witt points, the second
# through the lateral Frobenius, takes each one's ghost rows and evaluates
# the group difference F(x, i(y)) on them, every coefficient chain rebuilt
# and every power raised on each call.


def _per_call_series_rows(hl, bl, rcfg, k, coeffs, a, b):
    for _, c in coeffs:
        _check_fixed(c, "the kernel group law")
    chains = [witt._phi_chain(hl, hl.unwrap(rcfg.convert(c)), len(a))
              for _, c in coeffs]
    chains = [ch[:k] + shifted._lift_head(hl, bl, rcfg, ch[k:])
              for ch in chains]
    rows = []
    for r in range(len(a)):
        ar = hl if r < k else bl
        acc = ar.zero
        for ((i, j), _), chain in zip(coeffs, chains):
            acc = ar.add(acc, ar.mul(chain[r], ar.mul(ar.pow(a[r], i),
                                                      ar.pow(b[r], j))))
        rows.append(acc)
    return rows


def _composed_group_difference(law, x, y, m):
    cfg = x.cfg
    top = kernel._series_degree(law, cfg, m, x.n + 1, "the group difference")
    inv = formal_inverse(law, top)
    ar = _arith(cfg, x.n)
    ys = witt._rows(ar, y)
    neg_y = _per_call_series_rows(
        ar, ar, ar.cover, 0, [((k, 0), b) for k, b in enumerate(inv, 1)],
        ys, ys)
    return witt._solve(ar, cfg, _per_call_series_rows(
        ar, ar, ar.cover, 0, kernel._law_terms(law, top), witt._rows(ar, x),
        neg_y))


def _composed_difference_character(t):
    if t.n < 2:
        raise ZeroTail("the difference character needs n >= 2")
    x = frobenius_iter(kernel_witt_point(t), t.m + 1)
    y = frobenius_iter(kernel_witt_point(kernel_lateral_f(t)), t.m)
    return _composed_group_difference(t.law, x, y, t.m)


DATA = Path(__file__).parent / "data"
ONE_PASS_GROUPS = ["ga", "gm", "lt_p2_d16", "lt_p3_d16"]
ONE_PASS_BASES = [Z2, Z3, Z5, RAM5, PHI_NEG]
ONE_PASS_IDS = ["Z2", "Z3", "Z5", "RAM5", "PHI_NEG"]
_ONE_PASS_LAWS = {}


def _one_pass_law(group, base):
    if (group, base) not in _ONE_PASS_LAWS:
        source = (group if group in ("ga", "gm")
                  else str(DATA / f"{group}.json"))
        _ONE_PASS_LAWS[group, base] = load_fgl(source, base)
    return _ONE_PASS_LAWS[group, base]


@pytest.mark.parametrize("base", ONE_PASS_BASES, ids=ONE_PASS_IDS)
@pytest.mark.parametrize("group", ONE_PASS_GROUPS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_one_pass_difference_character_matches_composed_maps(group, base,
                                                              data):
    law = _one_pass_law(group, base)
    N = data.draw(st.sampled_from([0, 4, 5, 6, 7, 8]), label="N")
    m = data.draw(st.integers(0, 2), label="m")
    n = data.draw(st.integers(1, 4), label="n")
    B = base.truncated(N)      # N = 0 is the exact base itself
    coords = [B.convert(base.from_coeff(
        [data.draw(st.integers(-10 ** 6, 10 ** 6)) for _ in range(base.d)]))
        for _ in range(n)]
    got, want = (_outcome(fn, KernelPoint(law, base, B, m, coords))
                 for fn in (difference_character,
                            _composed_difference_character))
    assert got == want


def test_kept_chains_never_skip_the_phi_pi_check():
    """A chain kept for one base is not reused for another, and a series
    that fails the phi(pi) check is checked again and never kept."""
    rng = random.Random("kept-chains")
    m, n, N = 1, 2, 6
    for base, calls in ((RAM5, 1), (PHI_NEG, 2)):
        law, B = KERNEL_LAWS["pi-gm-jet8"](base), base.truncated(N)
        t, s = (KernelPoint(law, base, B, m, [B.convert(_elem(base, rng))
                                              for _ in range(n)])
                for _ in range(2))
        for _ in range(calls):
            if base is RAM5:
                assert kernel_add(t, s) == _ref_kernel_add(t, s)
                continue
            with pytest.raises(ConfigUnsupported, match="kernel group law"):
                kernel_add(t, s)
        # one kept entry on RAM5, none on PHI_NEG, however many calls
        assert len(law._chains) == (base is RAM5)


# ----------------------------------------------------------------------
# the precision model: a truncation B/pi^N computes mod pi^(N+L)
#
# The reference is the same engine on the arithmetic of the exact cover,
# whatever the precision: it computes the exact result of the canonical
# lifts and wrapping reduces it.


def _exact_arith(cfg, top=0):
    return _Arith(cfg.exact_cover())


def _with_reference(monkeypatch, fn, *args):
    """fn's outcome, and its outcome on the exact-cover reference."""
    got = _outcome(fn, *args)
    with monkeypatch.context() as patch:
        for module in (witt, shifted, kernel):
            patch.setattr(module, "_arith", _exact_arith)
        want = _outcome(fn, *args)
    return got, want


CUB5 = make_ring_config({"p": 5, "modulus": [-5, 0, 0, 1]})
RAM2 = make_ring_config({"p": 2, "modulus": [-2, 0, 1]})
EIS2 = make_ring_config({"p": 2, "modulus": [2, 2, 1]})
# (exact base, N, largest length n): lengths reach past N
PRECISION_BASES = [(Z2, 2, 6), (RAM5, 3, 5), (CUB5, 4, 4), (RAM2, 3, 5),
                   (EIS2, 3, 5)]
PRECISION_IDS = ["Z/2^2", "x^2-5/pi^3", "x^3-5/pi^4", "x^2-2/pi^3",
                 "x^2+2x+2/pi^3"]


def _precision_cases(base, B, n, rng):
    """(name, op, args) for every operator at total length n + 1."""
    def coords(cfg, k, bound=10 ** 6):
        return [cfg.convert(_elem(base, rng, bound)) for _ in range(k)]

    u, v = (WittVector(B, coords(B, n + 1)) for _ in range(2))
    r = _elem(base, rng)
    cases = [("witt_add", witt_add, (u, v)), ("witt_mul", witt_mul, (u, v)),
             ("witt_neg", witt_neg, (u,)), ("mult_pi", mult_pi, (u,)),
             ("scalar_mul", scalar_mul, (r, u))]
    cases += [(f"F^{k}", frobenius_iter, (u, k)) for k in range(1, n + 1)]
    m = rng.randint(1, n - 1) if n >= 2 else 0     # shift_E needs m >= 1
    su, sv = (ShiftedWittVector(base, B, m, coords(base, m + 1, 100),
                                coords(B, n - m)) for _ in range(2))
    cases += [("shifted_add", shifted_add, (su, sv)),
              ("shifted_mul", shifted_mul, (su, sv)),
              ("shifted_neg", shifted_neg, (su,)),
              ("lateral_frobenius", lateral_frobenius, (su,)),
              ("shift_E", shift_E, (su,)),
              ("scalar_shifted", scalar_shifted, (base, B, m, n - m, r))]
    m = rng.randint(0, max(n - 2, 0))   # the difference needs n - m >= 2
    for name in ("gm", "gm-jet8"):
        law = KERNEL_LAWS[name](base)
        t, s = (KernelPoint(law, base, B, m, coords(B, max(n - m, 1)))
                for _ in range(2))
        cases += [(f"kernel_add-{name}", kernel_add, (t, s)),
                  (f"kernel_neg-{name}", kernel_neg, (t,)),
                  (f"difference_character-{name}", difference_character,
                   (t,))]
    return cases


@pytest.mark.parametrize("base,N,top", PRECISION_BASES, ids=PRECISION_IDS)
def test_precision_model_matches_exact_cover(monkeypatch, base, N, top):
    B = base.truncated(N)
    rng = random.Random(f"precision:{base.key}:{N}")
    seen = set()
    for n in list(range(top + 1)) * 2:
        for name, op, args in _precision_cases(base, B, n, rng):
            got, want = _with_reference(monkeypatch, op, *args)
            assert got == want, (name, n)
            seen.add((name, isinstance(got, tuple)))
    # every operator also produced a value somewhere
    assert all((name, False) in seen for name, _ in seen)


# Over (B/pi^N)[t, s] the kernel maps are polynomials in the coordinates.
# Every group over the rings of the symbolic kernel grid (x^3 - 3 is the
# cubic order at p = 3), at every shape m <= 2, n <= 3, each shape at one
# N in 4..8 that turns with the shape and the group, so each group meets
# every N.  The m = 0, n = 3 shape, where the series degree doubles, runs
# at N = 4 only, and not for the table on x^3 - 3: the unreduced
# reference costs 0.15-20 s a map there, and 1.1 s at N = 4 on that table.
CUB3 = make_ring_config({"p": 3, "modulus": [-3, 0, 0, 1]})
SYMBOLIC_RINGS = [("Z2", Z2), ("Z3", Z3), ("x^2-5", RAM5), ("x^2-2", RAM2),
                  ("x^3-3", CUB3)]
SYMBOLIC_GROUPS = ([(law, name, base) for law in ("gm", "pi-gm-jet8")
                    for name, base in SYMBOLIC_RINGS]
                   + [("lt_p2_d16", "Z2", Z2), ("lt_p2_d16", "x^2-2", RAM2),
                      ("lt_p3_d16", "Z3", Z3), ("lt_p3_d16", "x^3-3", CUB3)])


@pytest.mark.parametrize(
    "turn,group,base", [(k, group, base) for k, (group, _, base)
                        in enumerate(SYMBOLIC_GROUPS)],
    ids=[f"{group}-{name}" for group, name, _ in SYMBOLIC_GROUPS])
def test_precision_model_matches_exact_cover_with_variables(monkeypatch,
                                                            turn, group,
                                                            base):
    law = (KERNEL_LAWS[group](base) if group in KERNEL_LAWS
           else _one_pass_law(group, base))
    shapes = itertools.product(range(3), range(1, 4))
    for k, (m, n) in enumerate(shapes):
        N = 4 + (k + turn) % 5
        if (m, n) == (0, 3):
            if (group, base) == ("lt_p3_d16", CUB3):
                continue
            N = 4
        names = [f"{c}{i}" for c in "ts" for i in range(n)]
        R = base.adjoin(names)
        B = R.truncated(N)
        t, s = (KernelPoint(law, R, B, m, [B.var(f"{c}{i}")
                                           for i in range(n)])
                for c in "ts")
        for op, args in ((kernel_add, (t, s)), (kernel_neg, (t,)),
                         (difference_character, (t,))):
            got, want = _with_reference(monkeypatch, op, *args)
            assert got == want, (op.__name__, N, m, n)


# ----------------------------------------------------------------------
# phi(pi) != pi: the structure map of a scalar that phi moves


def test_structure_map_of_a_scalar_phi_moves_is_unsupported():
    pi, three = PHI_NEG.pi_elem(), PHI_NEG.from_int(3)
    v = WittVector(PHI_NEG, [PHI_NEG.from_int(c) for c in (1, 2, 3)])
    calls = [lambda: exp_delta(pi, 3),
             lambda: scalar_shifted(PHI_NEG, PHI_NEG, 1, 2, pi),
             lambda: scalar_mul(pi, v)]
    for call in calls:
        with pytest.raises(ConfigUnsupported, match=r"phi\(pi\) = pi"):
            call()
    # a scalar phi fixes keeps its structure map: a constant ghost chain
    assert ghost(exp_delta(three, 3)).entries == (three,) * 4
    image = scalar_shifted(PHI_NEG, PHI_NEG, 1, 2, three)
    assert shifted_ghost(image).entries == (three,) * 4
    assert ghost(scalar_mul(three, v)).entries == tuple(
        three * w for w in ghost(v).entries)


@pytest.mark.parametrize("m,n,N", KERNEL_SHAPES + [(0, 4, 3)])
def test_kernel_series_with_a_coefficient_phi_moves_is_unsupported(m, n, N):
    B = PHI_NEG.truncated(N)
    rng = random.Random(f"phi-moves:{m}:{n}:{N}")
    pi_gm, gm = _gm_jet(PHI_NEG, 8, [0, 1]), load_fgl("gm", PHI_NEG)
    t, s = ([B.convert(_elem(PHI_NEG, rng)) for _ in range(n)]
            for _ in range(2))
    tp, sp = (KernelPoint(pi_gm, PHI_NEG, B, m, c) for c in (t, s))
    for call in (lambda: kernel_add(tp, sp), lambda: kernel_neg(tp),
                 lambda: difference_character(tp)):
        with pytest.raises(ConfigUnsupported, match="kernel group law"):
            call()
    # gm's coefficients are fixed by phi: its series still runs
    tg, sg = (KernelPoint(gm, PHI_NEG, B, m, c) for c in (t, s))
    assert kernel_add(tg, sg) == _ref_kernel_add(tg, sg)
    assert kernel_neg(tg) == _ref_kernel_neg(tg)


# ----------------------------------------------------------------------
# the row kernel against the per-term sum
#
# The reference builds every pi^j x_j^(q^(i-j)) of every row from scratch,
# as the engine once did.  Over B/pi^N both run mod p^c, where a value is
# only a representative: ghost rows are compared after reduction mod p^c,
# solved coordinates after wrapping into B.


def _ref_fold(ar, op, acc, xs, i, stop):
    """acc op pi^j x_j^(q^(i-j)), in order for j = 0 .. stop-1."""
    for j in range(stop):
        acc = op(acc, ar.mul(ar.pow(ar.pi, j), ar.pow(xs[j], ar.q ** (i - j))))
    return acc


def _ref_ghost_rows(ar, xs, start=0):
    return [_ref_fold(ar, ar.add, ar.zero, xs, i, i + 1)
            for i in range(start, len(xs))]


def _ref_solve_rows(ar, entries, comps, failure):
    for w in entries:
        i = len(comps)
        try:
            comps.append(ar.div_pi_power(_ref_fold(ar, ar.sub, w, comps, i, i),
                                         i))
        except NonDivisible:
            raise NonIntegral(failure.format(i)) from None
    return comps


ROW_BASES = [Z2, Z3, RAM5, CUB5, Z5.truncated(6), RAM5.truncated(8), SYM2]
ROW_IDS = ["Z2", "Z3", "x^2-5", "x^3-5", "Z5/5^6", "x^2-5/pi^8", "sym-p2"]
FAILURE = "entry {} does not solve"


def _coords(cfg, ar, n, rng):
    """n + 1 unwrapped coordinates: random constants, or on the symbolic
    base the variables x_0..x_n plus a constant."""
    if cfg.nvars:
        return [ar.unwrap(cfg.var(f"x{i}") + rng.randint(-3, 3))
                for i in range(n + 1)]
    exact = cfg.exact_cover()
    return [ar.unwrap(cfg.convert(_elem(exact, rng))) for _ in range(n + 1)]


@pytest.mark.parametrize("cfg", ROW_BASES, ids=ROW_IDS)
def test_row_kernel_matches_per_term_sum(cfg):
    rng = random.Random(f"row-kernel:{cfg.key}")
    top = 3 if cfg.nvars else 5
    for n in range(top + 1):
        ar = _arith(cfg, n)
        canon = ((lambda x: ar.wrap(cfg, x)) if cfg.trunc
                 else (lambda x: x))
        xs, ys = _coords(cfg, ar, n, rng), _coords(cfg, ar, n, rng)
        for start in range(n + 1):
            assert (list(map(ar.reduce, _ghost_rows(ar, xs, start)))
                    == list(map(ar.reduce, _ref_ghost_rows(ar, xs, start))))
        # entries in the image: the ghost rows of a Witt sum and product
        rows_x, rows_y = _ghost_rows(ar, xs), _ghost_rows(ar, ys)
        images = [list(map(ar.add, rows_x, rows_y)),
                  list(map(ar.mul, rows_x, rows_y)),
                  [ar.mul(ar.pi, w) for w in rows_x]]
        cases = [(entries, None) for entries in images]
        if n:   # the last entry moved by one is off the image: x_n + 1/pi^n
            bad = rows_x[:-1] + [ar.add(rows_x[-1], ar.one)]
            cases.append((bad, ("NonIntegral", FAILURE.format(n))))
        for entries, error in cases:
            # empty comps, then k preloaded head comps and the rest
            for k in range(n + 1):
                head = _ref_solve_rows(ar, entries[:k], [], FAILURE)
                got = _outcome(_solve_rows, ar, entries[k:], list(head),
                               FAILURE)
                want = _outcome(_ref_solve_rows, ar, entries[k:], list(head),
                                FAILURE)
                if error:
                    assert got == want == error
                else:
                    assert list(map(canon, got)) == list(map(canon, want))
        assert _solve_rows(ar, [], [], FAILURE) == []


def test_solve_drops_the_last_rows_powers():
    """The last row's q-th powers, the largest values of a solve, are
    summed as they are raised and never held together."""
    live = collections.Counter()   # row -> its q-th powers still alive

    class Power(int):
        def __del__(self):
            live[self.row] -= 1

    ar, seen = _Arith(Z2), []

    def power(a, e):
        y = Power(pow(a, e))
        y.row = len(seen)
        live[y.row] += 1
        return y

    def divide(a, k):
        seen.append(live[len(seen)])
        return _Arith.div_pi_power(ar, a, k)

    ar.pow, ar.div_pi_power = power, divide
    xs = [3, -5, 7, 2, 11]
    entries = _ghost_rows(_Arith(Z2), xs)
    assert _solve_rows(ar, entries, [], FAILURE) == xs
    # row i keeps its i powers as the next row's table; the last keeps none
    assert seen == [0, 1, 2, 3, 0]


SQUARE_BASES = [RAM5, EIS2, make_ring_config({"p": 3, "modulus": [-3, 3, 1]}),
                CUB5]


@pytest.mark.parametrize("cfg", SQUARE_BASES,
                         ids=["x^2-5", "x^2+2x+2", "x^2+3x-3", "x^3-5"])
def test_csqr_is_cmul_with_itself(cfg):
    rng = random.Random(f"csqr:{cfg.key}")
    for bits in (1, 8, 64, 4096):
        for _ in range(6):
            a = tuple(rng.randint(-2 ** bits, 2 ** bits)
                      for _ in range(cfg.d))
            assert cfg.csqr(a) == cfg.cmul(a, a)
            for mod in (cfg.p ** 7, 2 ** 61 - 1):
                assert cfg.csqr(a, mod) == cfg.cmul(a, a, mod)
