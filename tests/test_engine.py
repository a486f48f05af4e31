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
"""

import random

import pytest

from wittlab.rings import make_ring_config
from wittlab.shifted import (
    ShiftedWittVector,
    lateral_frobenius,
    shift_E,
    shifted_add,
    shifted_mul,
)
from wittlab.witt import (
    WittVector,
    frobenius,
    mult_pi,
    universal_polynomials,
    witt_add,
    witt_mul,
    witt_neg,
)

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
        got = [poly.substitute(values, cfg) for poly in polys]
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
        assert shift_E(v, path="coords") == shift_E(v, path="ghost")
