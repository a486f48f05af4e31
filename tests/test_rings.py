"""Base ring layer: configs, canonical elements, exact pi-division."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wittlab.errors import (
    BadFrobeniusLift,
    NonDivisible,
    RejectedModulus,
    TorsionBase,
    WittlabError,
)
from wittlab.rings import Frac, make_ring_config

from oracles import (
    frac_add,
    frac_as_element,
    frac_is_integral,
    frac_mul,
    frac_sub,
    hnf_reduce,
    pi_power_hnf,
    substitute,
    total_degree,
)


Z2 = make_ring_config({"p": 2})
Z3 = make_ring_config({"p": 3})
RAM5 = make_ring_config({"p": 5, "modulus": [-5, 0, 1]})


# ----------------------------------------------------------------------
# config validation


def test_p_must_be_prime():
    with pytest.raises(WittlabError):
        make_ring_config({"p": 6})


@pytest.mark.parametrize("spec", [
    {"p": 5, "modulus": [-5.9, 0, 1]},
    {"p": 5, "modulus": [-5, 0, True]},
    {"p": 5, "modulus": [-5, 0, 1], "phi_pi": [0.0, -1]},
    {"p": 2, "trunc": 2.7},
    {"p": 2, "trunc": 2.0},
    {"p": 2, "trunc": True},
], ids=["modulus-float", "modulus-boolean", "phi-pi-float", "trunc-float",
        "trunc-integral-float", "trunc-boolean"])
def test_spec_numbers_must_be_integers(spec):
    # a JSON float or boolean is rejected, never truncated to an integer
    with pytest.raises(WittlabError, match="must be an integer"):
        make_ring_config(spec)


@pytest.mark.parametrize("modulus", [
    [-5, 0, 2],      # not monic
    [-3, 0, 1],      # constant term not divisible by 5
    [-25, 0, 1],     # p^2 divides constant term
    [0, -5, 1],      # middle coefficient not divisible by p... zero const
    [-10, 0, 1],     # Eisenstein, but the constant term is 2p
    [-10, 5, 1],     # Eisenstein, but the constant term is 2p
])
def test_eisenstein_rejection(modulus):
    with pytest.raises(RejectedModulus):
        make_ring_config({"p": 5, "modulus": modulus})


@pytest.mark.parametrize("modulus", [
    [-10, 0, 1], [-10, 5, 1], [-25, 0, 1], [0, -5, 1], [15, 5, 0, 1],
])
def test_constant_term_must_be_plus_or_minus_p(modulus):
    # p = pi^d * unit in Z[pi] exactly when f(0) = ±p
    with pytest.raises(RejectedModulus,
                       match=r"constant term of .* must be ±5$"):
        make_ring_config({"p": 5, "modulus": modulus})


def _accepted_moduli(p, d):
    """Every Eisenstein modulus of degree d with coefficients in p*{-2..2}
    and constant term ±p, as (middle coefficients, constant term)."""
    middles = itertools.product(range(-2 * p, 2 * p + 1, p), repeat=d - 1)
    return itertools.product(list(middles), (p, -p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_residue_mod_pi_power_matches_hnf(p, d):
    # every accepted modulus at N = 1..12: the closed-form residue is the
    # HNF reduction
    rng = random.Random(p * 10 + d)
    for mid, c0 in _accepted_moduli(p, d):
        modulus = [c0, *mid, 1]
        cfg = make_ring_config({"p": p, "modulus": modulus})
        assert cfg.e == cfg.d == d
        for n in range(1, 13):
            hnf = pi_power_hnf(cfg, n)
            trunc = cfg.truncated(n)
            bound = p ** (n // d + 2)
            for _ in range(3):
                a = tuple(rng.randint(-bound, bound) for _ in range(d))
                assert trunc.creduce(a) == hnf_reduce(hnf, a), (modulus, n, a)
        with pytest.raises(RejectedModulus):
            make_ring_config({"p": p, "modulus": [2 * c0, *mid, 1]})


def test_ramification_index():
    assert Z2.e == 1
    assert RAM5.e == 2
    assert RAM5.psi_integral          # e=2 <= p-2=3
    assert not Z2.psi_integral        # e=1 > p-2=0
    assert Z3.psi_integral


def test_bad_phi_lift_rejected():
    # phi(pi) = pi + 1 is not congruent to pi^q mod pi, so it is no root
    with pytest.raises(BadFrobeniusLift, match="not a root"):
        make_ring_config({"p": 5, "modulus": [-5, 0, 1],
                          "phi_pi": [1, 1]})


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_phi_off_the_congruence_is_no_root(p, d):
    # a root y of an Eisenstein f has y^d in p Z[pi], inside the prime
    # pi Z[pi], so y = 0 = pi^q mod pi: the root check alone rejects every
    # phi(pi) with p not dividing phi(pi)_0.  At d = 2 every such phi(pi)
    # with coefficients in -p^2..p^2; at d = 3, 4 (up to 250 * 99^4 lifts)
    # 20 seeded draws from that box for each modulus.
    box = range(-p * p, p * p + 1)
    rng = random.Random(f"phi-box:{p}:{d}")
    verdicts = collections.Counter()
    for mid, c0 in _accepted_moduli(p, d):
        lifts = (itertools.product(box, repeat=d) if d == 2 else
                 [[rng.choice(box) for _ in range(d)] for _ in range(20)])
        for y in lifts:
            if y[0] % p:
                try:
                    make_ring_config({"p": p, "modulus": [c0, *mid, 1],
                                      "phi_pi": list(y)})
                except BadFrobeniusLift as exc:
                    verdicts[str(exc)] += 1
                else:
                    verdicts["accepted", c0, mid, tuple(y)] += 1
    assert list(verdicts) == ["phi_pi is not a root of the defining modulus"]


def test_valid_phi_lift_accepted():
    # phi(pi) = -pi also satisfies f(phi(pi)) = 0 and -pi = pi^5 mod pi
    cfg = make_ring_config({"p": 5, "modulus": [-5, 0, 1],
                            "phi_pi": [0, -1]})
    pi = cfg.pi_elem()
    assert pi.phi() == -pi


# ----------------------------------------------------------------------
# arithmetic in the order Z[x]/(x^2-5)


def test_order_arithmetic():
    pi = RAM5.pi_elem()
    a = RAM5.from_coeff([2, 3])       # 2 + 3 pi
    assert a * a == RAM5.from_coeff([49, 12])    # 4 + 12 pi + 9 pi^2
    assert pi * pi == RAM5.from_int(5)
    assert (a - a).is_zero()


def _convolution(cfg, a, b):
    """The generic product in Z[x]/(f): convolve, then fold each x^k with
    k >= d back with the monic modulus f."""
    d, f = cfg.d, cfg.modulus
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        t, conv[k] = conv[k], 0
        for j in range(d):
            conv[k - d + j] -= t * f[j]
    return tuple(conv[:d])


@pytest.mark.parametrize("modulus,p", [
    ([-5, 0, 1], 5),       # m1 = 0
    ([2, 2, 1], 2),        # m1 != 0
    ([-3, 3, 1], 3),       # m1 != 0, both signs
    ([-5, 0, 0, 1], 5),    # d = 3: the generic path
], ids=["x^2-5", "x^2+2x+2", "x^2+3x-3", "x^3-5"])
def test_cmul_closed_form_matches_convolution(modulus, p):
    cfg = make_ring_config({"p": p, "modulus": modulus})
    rng = random.Random(f"cmul:{modulus}")
    for _ in range(200):
        bound = 10 ** rng.randint(1, 30)
        a, b = ([rng.randint(-bound, bound) for _ in range(cfg.d)]
                for _ in range(2))
        want = _convolution(cfg, a, b)
        assert cfg.cmul(tuple(a), tuple(b)) == want
        mod = p ** rng.randint(1, 12)
        assert cfg.cmul(tuple(a), tuple(b), mod) == tuple(c % mod
                                                         for c in want)


def test_exact_div_pi():
    pi = RAM5.pi_elem()
    a = RAM5.from_coeff([10, 3])      # 10 + 3 pi = pi(3 + 2 pi)
    assert a.div_pi() == RAM5.from_coeff([3, 2])
    with pytest.raises(NonDivisible):
        RAM5.from_coeff([1, 0]).div_pi()
    # integers: division by pi is division by p
    assert Z2.from_int(6).div_pi() == Z2.from_int(3)
    with pytest.raises(NonDivisible):
        Z2.from_int(3).div_pi()


def test_pi_valuation():
    assert Z2.from_int(8).pi_val() == 3
    assert RAM5.from_int(5).pi_val() == 2
    assert RAM5.pi_elem().pi_val() == 1
    assert RAM5.from_coeff([5, 1]).pi_val() == 1


def test_phi_on_order():
    # default phi fixes pi and raises polynomial variables to the q-th power
    pi = RAM5.pi_elem()
    assert pi.phi() == pi
    sym = RAM5.adjoin(["t"])
    t = sym.var("t")
    assert t.phi() == t ** 5
    assert (t + sym.one()).phi() == t ** 5 + sym.one()


# ----------------------------------------------------------------------
# truncations


def test_truncated_reduction():
    B = Z2.truncated(4)
    assert B.from_int(16).is_zero()
    assert B.from_int(17) == B.from_int(1)
    assert B.from_int(-1) == B.from_int(15)


def test_truncated_order_reduction():
    B = RAM5.truncated(3)
    # pi^3 = 5 pi = 0 in R/pi^3
    pi = B.pi_elem()
    assert (pi * pi * pi).is_zero()
    assert B.from_int(25).is_zero()   # v(25) = 4 >= 3
    assert not B.from_int(5).is_zero()


def test_truncated_refuses_exact_ops():
    B = Z2.truncated(3)
    with pytest.raises(TorsionBase):
        B.from_int(2).pi_val()


def test_convert_roundtrip():
    B = Z2.truncated(4)
    x = Z2.from_int(13)
    assert Z2.convert(B.convert(x)) == x
    sym = Z2.adjoin(["a", "b"])
    y = sym.var("a") * sym.var("b") + sym.from_int(3)
    assert sym.convert(y) is y


# ----------------------------------------------------------------------
# polynomials


def test_polynomial_arithmetic():
    sym = Z2.adjoin(["x", "y"])
    x, y = sym.var("x"), sym.var("y")
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    p = x ** 2 * y + sym.from_int(3)
    assert total_degree(p) == 3
    assert p.truncate_degree(2) == sym.from_int(3)


def test_substitution():
    sym = Z2.adjoin(["x", "y"])
    x, y = sym.var("x"), sym.var("y")
    p = x ** 2 + y
    assert substitute(p, {"x": Z2.from_int(3), "y": Z2.from_int(4)},
                      Z2) == Z2.from_int(13)


# ----------------------------------------------------------------------
# the product kernel against the plain tuple loop


def _reference_mul(a, b):
    """The product as a double loop over exponent tuples: the reference
    for the packed kernel behind RingElement.__mul__ and __pow__."""
    cfg = a.cfg
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            prod = cfg.cmul(ca, cb)
            prev = out.get(mono)
            out[mono] = cfg.cadd(prev, prod) if prev is not None else prod
    return cfg._make(out)


def _random_poly(cfg, rng, terms, max_exp, bound=10 ** 6):
    raw = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_exp) if rng.random() < 0.5 else 0
                     for _ in range(cfg.nvars))
        raw[mono] = tuple(rng.randint(-bound, bound) for _ in range(cfg.d))
    return cfg._make(raw)


def _copy(elem):
    return type(elem)(elem.cfg, dict(elem.terms))


KERNEL_CONFIGS = {
    "Z2": {"p": 2},
    "Z3": {"p": 3},
    "x^2-5": {"p": 5, "modulus": [-5, 0, 1]},
    "x^3-5": {"p": 5, "modulus": [-5, 0, 0, 1]},
    "Z/5^3": {"p": 5, "trunc": 3},
    "x^2-5/pi^4": {"p": 5, "modulus": [-5, 0, 1], "trunc": 4},
}


@pytest.mark.parametrize("name", list(KERNEL_CONFIGS))
def test_product_kernel_matches_tuple_loop(name):
    rng = random.Random(f"kernel:{name}")
    base = make_ring_config(KERNEL_CONFIGS[name])
    for nvars in (1, 3, 13):
        cfg = base.adjoin([f"v{i}" for i in range(nvars)])
        for _ in range(25):
            a, b = (_random_poly(cfg, rng, rng.choice((0, 1, 2, 5, 20)),
                                 rng.choice((1, 3, 40, 300)))
                    for _ in range(2))
            for x, y in ((a, b), (b, a), (a, a), (a, _copy(a))):
                assert x * y == _reference_mul(x, y)
            assert a * 3 == 3 * a == _reference_mul(a, cfg.from_int(3))
            assert a * cfg.zero() == cfg.zero() == cfg.zero() * a
            assert a ** 2 == _reference_mul(a, a)
            assert a ** 3 == _reference_mul(_reference_mul(a, a), a)
            assert all(any(c) for c in (a * b).terms.values())


@pytest.mark.parametrize("name", list(KERNEL_CONFIGS))
def test_product_kernel_one_term_and_constant_factors(name):
    rng = random.Random(f"kernel-mono:{name}")
    cfg = make_ring_config(KERNEL_CONFIGS[name]).adjoin(
        [f"v{i}" for i in range(12)])
    for _ in range(30):
        a = _random_poly(cfg, rng, 15, 9)
        mono = _random_poly(cfg, rng, 1, 9)
        const = cfg.from_coeff([rng.randint(-99, 99) for _ in range(cfg.d)])
        pi = cfg.pi_elem()
        for f in (mono, const, pi, cfg.one(), cfg.var("v11")):
            assert a * f == f * a == _reference_mul(a, f)
        assert mono * mono == _reference_mul(mono, mono)


@pytest.mark.parametrize("name", list(KERNEL_CONFIGS))
def test_sub_matches_add_of_negation(name):
    """a - b merges into a copy of a's terms: it must equal a + (-b)
    through full and partial cancellation, with ints on either side, and
    leave both operands as they were."""
    rng = random.Random(f"sub:{name}")
    base = make_ring_config(KERNEL_CONFIGS[name])
    for cfg in (base, base.adjoin(["v0", "v1", "v2"])):
        for _ in range(25):
            a, b = (_random_poly(cfg, rng, rng.choice((0, 1, 3, 8)), 4)
                    for _ in range(2))
            before = dict(a.terms), dict(b.terms)
            for x, y in ((a, b), (b, a), (a, a), (a, _copy(a)),
                         (a + b, b), (a + b, a), (a, cfg.zero())):
                diff = x - y
                assert diff == x + (-y)
                assert all(any(c) for c in diff.terms.values())
            assert (a + b) - b == a and (a - a).is_zero()
            assert a - 3 == a + (-3) == a + cfg.from_int(-3)
            assert 3 - a == (-a) + 3
            assert (a.terms, b.terms) == before
        with pytest.raises(TypeError):
            a - 1.5


@pytest.mark.parametrize("name", ["Z2", "x^2-5", "x^3-5"])
def test_coefficient_ops_match_generator_forms(name):
    """cadd / csub / cneg at d = 1, 2, 3 against the zip forms."""
    rng = random.Random(f"coeff-ops:{name}")
    cfg = make_ring_config(KERNEL_CONFIGS[name])
    for _ in range(50):
        a, b = (tuple(rng.randint(-10 ** 40, 10 ** 40) for _ in range(cfg.d))
                for _ in range(2))
        assert cfg.cadd(a, b) == tuple(x + y for x, y in zip(a, b))
        assert cfg.csub(a, b) == tuple(x - y for x, y in zip(a, b))
        assert cfg.cneg(a) == tuple(-x for x in a)
        assert cfg.csub(a, a) == cfg.cadd(a, cfg.cneg(a)) == cfg.czero()


def test_product_kernel_field_width_edges():
    cfg = Z2.adjoin([f"v{i}" for i in range(13)])
    x, y, z = cfg.var("v0"), cfg.var("v6"), cfg.var("v12")
    one = cfg.one()
    assert x ** 255 * x == x ** 256
    pairs = [(x ** 255 + y, x + one), (x ** 127 + z, x ** 128 + y),
             (x ** 128 + z, x ** 128 + y), (z ** 255 + x, z ** 255 + y)]
    for k in range(1, 70, 3):
        pairs.append((x ** (2 ** k - 1) + y * z, x ** (2 ** k + 1) + z))
        pairs.append((z ** (2 ** k - 1) + x, z + y ** (2 ** k)))
    for a, b in pairs:
        assert a * b == _reference_mul(a, b)
        assert a * a == _reference_mul(a, a)
    squares = (x ** 128 + z) * (x ** 128 + z)
    assert squares.terms[(256,) + (0,) * 12] == (1,)
    assert squares.terms[(128,) + (0,) * 11 + (1,)] == (2,)


@pytest.mark.parametrize("name", list(KERNEL_CONFIGS))
def test_monomial_power_closed_form(name):
    rng = random.Random(f"kernel-pow:{name}")
    cfg = make_ring_config(KERNEL_CONFIGS[name]).adjoin(["s", "t"])
    monos = [cfg.zero(), cfg.one(), cfg.pi_elem(), cfg.var("t"),
             _random_poly(cfg, rng, 1, 4, bound=7)]
    for m in monos:
        power = cfg.one()
        for e in range(41):
            assert m ** e == power
            power = _reference_mul(power, m)


@pytest.mark.parametrize("name", ["x^2-5", "x^3-5"])
def test_cpow_matches_repeated_cmul(name):
    cfg = make_ring_config(KERNEL_CONFIGS[name])
    rng = random.Random(f"cpow:{name}")
    for _ in range(20):
        a = tuple(rng.randint(-50, 50) for _ in range(cfg.d))
        mod = 5 ** rng.randint(1, 9)
        want = cfg.cone()
        for e in range(30):
            assert cfg.cpow(a, e) == want
            assert tuple(c % mod for c in cfg.cpow(a, e, mod)) == \
                tuple(c % mod for c in want)
            want = cfg.cmul(want, a)


@settings(max_examples=50, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_order_ring_axioms(a0, a1, b0, b1, c0, c1):
    a = RAM5.from_coeff([a0, a1])
    b = RAM5.from_coeff([b0, b1])
    c = RAM5.from_coeff([c0, c1])
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# ----------------------------------------------------------------------
# fractions (logarithm coefficient stream only)


def test_frac_normalization():
    half = Frac(Z2.from_int(2), 4)
    assert half == Frac(Z2.from_int(1), 2)
    assert not frac_is_integral(half)
    assert frac_is_integral(Frac(Z2.from_int(4), 2))
    assert frac_as_element(Frac(Z2.from_int(4), 2)) == Z2.from_int(2)


def test_frac_arithmetic():
    a = Frac(Z2.from_int(1), 2)
    b = Frac(Z2.from_int(1), 3)
    assert frac_add(a, b) == Frac(Z2.from_int(5), 6)
    assert frac_mul(a, b) == Frac(Z2.from_int(1), 6)
    assert frac_sub(a, a).num.is_zero()


def test_frac_valuation():
    assert Frac(Z2.from_int(4), 1).pi_val() == 2
    assert Frac(Z2.from_int(1), 2).pi_val() == -1
    assert Frac(RAM5.from_int(1), 5).pi_val() == -2
