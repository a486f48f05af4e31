"""Kernel points of the jet projections: group structure, the descent
operators, the logarithm-derived Psi, and the difference character."""

import math
import random
from fractions import Fraction

import pytest

from wittlab.errors import (
    BadLength,
    BaseMismatch,
    InternalError,
    LengthMismatch,
    NonIntegralPsi,
    PrecisionRequired,
    WittlabError,
    ZeroShift,
    ZeroTail,
)
from wittlab.fgl import FormalGroupLaw, formal_log, load_fgl
from wittlab.kernel import (
    KernelPoint,
    _psi_coeffs,
    _psi_series_bound,
    _tail_point,
    difference_character,
    kernel_add,
    kernel_embed,
    kernel_lateral_f,
    kernel_neg,
    kernel_phi,
    kernel_project_u,
    kernel_section_sigma,
    kernel_witt_point,
    kernel_zero,
    psi_map,
)
from wittlab.rings import Frac, make_ring_config
from wittlab.shifted import ShiftedWittVector, shift_E, shifted_ghost
from wittlab.witt import WittVector, ghost, verschiebung, witt_add

from oracles import to_int

Z2 = make_ring_config({"p": 2})
Z3 = make_ring_config({"p": 3})
Z5 = make_ring_config({"p": 5})
RAM5 = make_ring_config({"p": 5, "modulus": [-5, 0, 1]})

GA2 = load_fgl("ga", Z2)
GM2 = load_fgl("gm", Z2)
GM5 = load_fgl("gm", Z5)


def kp(law, cfg, m, coords, bcfg=None):
    bcfg = bcfg or cfg
    return KernelPoint(law, cfg, bcfg, m,
                       [bcfg.from_int(c) for c in coords])


def ints(t):
    return [to_int(c) for c in t.coords]


# ----------------------------------------------------------------------
# embedding


def test_embed_ghost():
    t = kp(GA2, Z2, 1, [5])
    g = shifted_ghost(kernel_embed(t))
    assert [to_int(e) for e in g.entries] == [0, 0, 20]


def test_constructor_rejects_malformed_points():
    with pytest.raises(LengthMismatch, match="m >= 0 and n >= 1"):
        kp(GA2, Z2, -1, [5])
    with pytest.raises(LengthMismatch, match="m >= 0 and n >= 1"):
        kp(GA2, Z2, 1, [])
    with pytest.raises(BaseMismatch, match="tail entry outside B"):
        KernelPoint(GA2, Z2, Z2, 1, [Z2.from_int(5), Z3.from_int(5)])
    with pytest.raises(WittlabError, match="must be exact"):
        kp(GA2, Z2.truncated(4), 1, [5])


# (R, B, an element of neither): each stray has the value form of B's
# elements, so only the constructors' ring checks refuse it
RING_CHECKS = [
    (Z5, Z5, Z5.truncated(6).from_int(7)),
    (RAM5, RAM5, RAM5.truncated(4).from_coeff([7, 1])),
    (Z5, Z5.truncated(6), Z5.truncated(5).from_int(7)),
    (Z5, Z5.adjoin(["a"]), Z5.adjoin(["a"]).truncated(3).var("a")),
]


@pytest.mark.parametrize("R,B,stray", RING_CHECKS,
                         ids=["Z", "x^2-5", "Z/5^6", "Z[a]"])
def test_constructors_refuse_entries_of_another_ring(R, B, stray):
    r, b = R.from_int(3), B.from_int(2)
    with pytest.raises(BaseMismatch,
                       match="component ring differs from vector ring"):
        WittVector(B, [b, stray])
    for head, tail, what in (([r, stray], [b], "head entry outside R"),
                             ([r, r], [b, stray], "tail entry outside B")):
        with pytest.raises(BaseMismatch, match=what):
            ShiftedWittVector(R, B, 1, head, tail)
    with pytest.raises(BaseMismatch, match="tail entry outside B"):
        KernelPoint(load_fgl("ga", R), R, B, 1, [b, stray])
    if R != B:      # an entry of the other ring of the pair
        for head, tail, what in (([r, b], [b], "head entry outside R"),
                                 ([r, r], [r], "tail entry outside B")):
            with pytest.raises(BaseMismatch, match=what):
                ShiftedWittVector(R, B, 1, head, tail)
        with pytest.raises(BaseMismatch, match="tail entry outside B"):
            KernelPoint(load_fgl("ga", R), R, B, 1, [r])


@pytest.mark.parametrize("trunc", [0, 6])
def test_a_nonzero_head_is_refused_at_the_call(trunc):
    """A map output with a nonzero head is no kernel point: over an exact
    B the check reads the pending output's head rows and solves nothing."""
    B = Z3.truncated(trunc) if trunc else Z3
    t = kp(load_fgl("ga", Z3), Z3, 1, [4, 7], B)
    v = ShiftedWittVector(Z3, B, 1, [Z3.zero(), Z3.from_int(2)],
                          t.coords)
    out = shift_E(v)
    with pytest.raises(InternalError, match="Phi left the zero-head"):
        _tail_point(t, out, "Phi")
    assert callable(out._coords) == (not trunc)
    assert callable(kernel_embed(kernel_phi(t))._coords) == (not trunc)


def test_witt_point_is_iterated_verschiebung():
    t = kp(GA2, Z2, 1, [3, 7])
    v = WittVector(Z2, [Z2.from_int(3), Z2.from_int(7)])
    assert kernel_witt_point(t) == verschiebung(v, 2)


# ----------------------------------------------------------------------
# group structure


def test_additive_group_is_witt_addition():
    t = kp(GA2, Z2, 1, [3, 4])
    s = kp(GA2, Z2, 1, [5, -2])
    out = kernel_add(t, s)
    u = witt_add(WittVector(Z2, t.coords), WittVector(Z2, s.coords))
    assert out.coords == u.comps
    z = kernel_zero(GA2, Z2, Z2, 1, 2)
    assert kernel_add(t, z) == t
    assert kernel_add(t, kernel_neg(t)) == z


def test_multiplicative_group_small():
    B = Z2.truncated(5)
    t = kp(GM2, Z2, 0, [3], bcfg=B)
    s = kp(GM2, Z2, 0, [7], bcfg=B)
    out = kernel_add(t, s)
    # t + s + 2 t s mod 2^5
    assert ints(out) == [(3 + 7 + 2 * 3 * 7) % 32]
    z = kernel_zero(GM2, Z2, B, 0, 1)
    assert kernel_add(t, kernel_neg(t)) == z


def test_points_from_separate_loads_add():
    B = Z5.truncated(4)
    t = kp(load_fgl("gm", Z5), Z5, 0, [3], bcfg=B)
    s = kp(load_fgl("gm", Z5), Z5, 0, [7], bcfg=B)
    # t + s + pi t s mod 5^4, as in the p = 2 case above
    assert ints(kernel_add(t, s)) == [(3 + 7 + 5 * 3 * 7) % 5 ** 4]


def test_nonadditive_needs_truncation():
    t = kp(GM2, Z2, 0, [3])
    with pytest.raises(PrecisionRequired):
        kernel_add(t, t)
    with pytest.raises(PrecisionRequired):
        kernel_neg(t)


def test_shallow_jet_rejected():
    B = Z5.truncated(9)
    jet = FormalGroupLaw(Z5, 2, {(1, 0): Z5.one(), (0, 1): Z5.one(),
                                 (1, 1): Z5.one()})
    t = kp(jet, Z5, 0, [2], bcfg=B)
    with pytest.raises(PrecisionRequired):
        kernel_add(t, t)


@pytest.mark.parametrize("op,arity", [
    (kernel_add, 2), (kernel_neg, 1), (difference_character, 1),
], ids=["kernel_add", "kernel_neg", "difference_character"])
def test_shallow_jet_needs_precision(op, arity):
    # every series of a law jet asks for a longer table, the inverse
    # series of kernel_neg and the group difference included
    jet = load_fgl({"degree": 2, "coeffs": [
        {"i": 1, "j": 0, "c": 1}, {"i": 0, "j": 1, "c": 1},
        {"i": 1, "j": 1, "c": 1}]}, Z3)
    t = kp(jet, Z3, 0, [2, 1], bcfg=Z3.truncated(6))
    with pytest.raises(PrecisionRequired, match="law jet of degree 2"):
        op(*[t] * arity)


# ----------------------------------------------------------------------
# descent operators


def test_kernel_lateral():
    t = kp(GA2, Z2, 0, [1, 0])
    out = kernel_lateral_f(t)
    assert out.m == 0 and ints(out) == [1]
    with pytest.raises(ZeroTail):
        kernel_lateral_f(out)


def test_kernel_phi_numeric():
    t = kp(GA2, Z2, 1, [3])
    out = kernel_phi(t)
    assert out.m == 0 and ints(out) == [6]
    with pytest.raises(ZeroShift):
        kernel_phi(out)


def test_kernel_phi_symbolic():
    B = Z2.adjoin(["t0", "t1"])
    t0, t1 = B.var("t0"), B.var("t1")
    t = KernelPoint(GA2, Z2, B, 2, [t0, t1])
    out = kernel_phi(t)
    assert out.m == 1
    assert out.coords == (2 * t0, 2 * t1 - t0 ** 2)


def test_project_and_section():
    t = kp(GA2, Z2, 1, [3, 7, 9])
    assert kernel_project_u(t, 2) == kp(GA2, Z2, 1, [3, 7])
    with pytest.raises(BadLength):
        kernel_project_u(t, 4)
    s = kp(GA2, Z2, 1, [4])
    assert kernel_section_sigma(s, 3) == kp(GA2, Z2, 1, [4, 0, 0])
    with pytest.raises(BadLength):
        kernel_section_sigma(t, 2)


# ----------------------------------------------------------------------
# Psi


def test_psi_additive_is_identity():
    B = Z2.truncated(6)
    t0 = B.from_int(13)
    assert psi_map(GA2, 2, t0) == t0


def test_psi_multiplicative_against_fraction_oracle():
    # Psi(t) = sum_k (-1)^(k+1)/k * 5^((m+1)(k-1)) t^k, reduced mod 5^6
    B = Z5.truncated(6)
    mod = 5 ** 6
    for m in (0, 1):
        for tv in (1, 2, 7):
            got = to_int(psi_map(GM5, m, B.from_int(tv)))
            acc = Fraction(0)
            for k in range(1, 40):
                acc += (Fraction((-1) ** (k + 1), k)
                        * 5 ** ((m + 1) * (k - 1)) * tv ** k)
            num, den = acc.numerator, acc.denominator
            expect = num * pow(den, -1, mod) % mod
            assert got == expect


def test_psi_gate_small_residue():
    # e = 1 > p - 2 = 0 at p = 2: integrality cannot be certified
    B = Z2.truncated(6)
    with pytest.raises(NonIntegralPsi):
        psi_map(GM2, 0, B.from_int(1))


def test_psi_exact_base_needs_precision():
    with pytest.raises(PrecisionRequired):
        psi_map(GM5, 0, Z5.from_int(1))
    # and even with a precision, unit denominators block an exact base
    with pytest.raises(PrecisionRequired):
        psi_map(GM5, 0, Z5.from_int(1), precision=6)


def _psi_uncached(law, m, t0, precision=None):
    """Psi term by term, every coefficient rebuilt on every call: the
    formula psi_map keeps per (law, m, base, precision)."""
    bcfg = t0.cfg
    if precision is None:
        if not bcfg.trunc:
            raise PrecisionRequired(
                "psi over an exact base needs an explicit precision")
        precision = bcfg.trunc
    exact = bcfg.exact_cover()
    kmax = _psi_series_bound(m, exact.e, exact.p, precision)
    if not law.exact and law.degree < kmax - 1:
        raise PrecisionRequired(
            f"law jet of degree {law.degree} cannot resolve the psi series "
            f"at precision pi^{precision}")
    logs = formal_log(law, max(kmax - 1, 1))
    pi = exact.pi_elem()
    acc, tpow = bcfg.zero(), bcfg.one()
    for k in range(1, kmax):
        tpow = tpow * t0
        a = logs[k - 1]
        if a.num.is_zero():
            continue
        if k >= 2 and not bcfg.psi_integral:
            raise NonIntegralPsi(
                f"coefficient a_{k} needs pi-integrality, but e > p - 2 "
                "for this base")
        coeff = Frac(exact.convert(a.num).phi_power(m + 1)
                     * pi ** ((m + 1) * (k - 1)), a.den)
        if coeff.pi_val() < 0:
            raise NonIntegralPsi(
                f"psi coefficient at degree {k} has negative valuation")
        if coeff.den == 1:
            celem = bcfg.convert(coeff.num)
        elif bcfg.trunc:
            dinv = pow(coeff.den, -1, exact.p ** bcfg.trunc)
            celem = bcfg.convert(coeff.num) * bcfg.from_int(dinv)
        else:
            raise PrecisionRequired(
                "psi has unit-denominator coefficients; evaluate over a "
                "pi-power truncated base")
        acc = acc + celem * tpow
    return acc


def _jet(base, degree, c):
    """X + Y + c XY as a custom table of the given degree."""
    return load_fgl({"degree": degree, "coeffs": [
        {"i": 1, "j": 0, "c": 1}, {"i": 0, "j": 1, "c": 1},
        {"i": 1, "j": 1, "c": c}]}, base)


@pytest.mark.parametrize("base", [Z5, RAM5], ids=["Z5", "RAM5"])
def test_psi_memo_matches_uncached_formula(base):
    rng = random.Random(f"psi-memo:{base.key}")
    laws = [load_fgl("gm", base), load_fgl("ga", base), _jet(base, 40, 5)]
    for law in laws:
        for N in (1, 3, 6, 8):
            B = base.truncated(N)
            for m in range(4):
                for precision in (None, N + 2):
                    for _ in range(3):   # the first call builds, later reuse
                        t0 = B.from_coeff([rng.randrange(-10 ** 6, 10 ** 6)
                                           for _ in range(base.d)])
                        assert (psi_map(law, m, t0, precision)
                                == _psi_uncached(law, m, t0, precision))


def test_psi_errors_raise_on_every_call():
    jet3, t0 = _jet(Z5, 3, 1), Z5.truncated(2).from_int(7)
    # the degree-3 jet resolves precision 2, and its series is kept
    assert psi_map(jet3, 0, t0) == _psi_uncached(jet3, 0, t0)
    cases = [(GM2, 0, Z2.truncated(6).from_int(1), None, NonIntegralPsi),
             (GM5, 0, Z5.from_int(1), 6, PrecisionRequired),
             (jet3, 0, Z5.truncated(9).from_int(1), None, PrecisionRequired),
             (jet3, 0, t0, 9, PrecisionRequired)]
    for law, m, t0, precision, error in cases:
        for _ in range(3):
            with pytest.raises(error) as got:
                psi_map(law, m, t0, precision)
            with pytest.raises(error) as want:
                _psi_uncached(law, m, t0, precision)
            assert str(got.value) == str(want.value)
            # a rejected series is never kept
            assert (m, t0.cfg, precision or t0.cfg.trunc) not in law._psi


def _psi_horner(law, m, t0, precision=None):
    """Psi by Horner's rule on elements of t0's ring, every product
    reduced: the loop psi_map ran before it kept engine values."""
    bcfg = t0.cfg
    coeffs = _psi_coeffs(law, m, bcfg, precision or bcfg.trunc)
    acc = bcfg.zero()
    for c in reversed(coeffs):
        acc = (acc + c) * t0
    return acc


# (base, truncation, m, precision): L15 and `kernel --check psi` at their
# default precision 6 on the CLI and default-matrix configs (gm mod pi^6,
# ga on the exact base with an explicit precision, m = 0 .. 2), and the
# kernel-trunc benchmark's gm calls (precision None, m = 0 .. 2)
PSI_CASES = ([(base, N, m, 6) for base in (Z2, Z3, Z5, RAM5)
              for N in (0, 6) for m in range(3)]
             + [(base, N, m, None) for base in (Z5, RAM5) for N in (6, 8)
                for m in range(3)])


@pytest.mark.parametrize("group", ["ga", "gm"])
def test_psi_engine_values_match_element_horner(group):
    rng = random.Random(f"psi-horner:{group}")
    ran = 0
    for base, N, m, precision in PSI_CASES:
        law, B = load_fgl(group, base), base.truncated(N)
        if group == "gm" and (not N or not base.psi_integral):
            continue    # rejected series: see the test above
        for _ in range(3):
            t0 = B.from_coeff([rng.randrange(-10 ** 6, 10 ** 6)
                               for _ in range(base.d)])
            assert (psi_map(law, m, t0, precision)
                    == _psi_horner(law, m, t0, precision))
            ran += 1
    assert ran == 3 * (36 if group == "ga" else 21)


# ----------------------------------------------------------------------
# difference character


def test_difference_character_value():
    t = kp(GA2, Z2, 0, [1, 5])
    out = difference_character(t)
    assert [to_int(c) for c in out.comps] == [2, -2]
    assert [to_int(e) for e in ghost(out).entries] == [2, 0]


def test_difference_character_depends_only_on_t0():
    a = difference_character(kp(GA2, Z2, 0, [1, 5]))
    b = difference_character(kp(GA2, Z2, 0, [1, 9]))
    assert a == b


def test_difference_character_zero():
    out = difference_character(kp(GA2, Z2, 1, [0, 0, 0]))
    assert all(c.is_zero() for c in out.comps)


def test_difference_character_needs_width():
    with pytest.raises(ZeroTail):
        difference_character(kp(GA2, Z2, 0, [1]))


def test_difference_character_multiplicative():
    B = Z5.truncated(6)
    t = kp(GM5, Z5, 0, [2, 3], bcfg=B)
    out = difference_character(t)
    assert out.n == 1
    other = kp(GM5, Z5, 0, [2, -1], bcfg=B)
    assert difference_character(other) == out


def _float_psi_bound(m, e, p, precision):
    """The bound as first written, in floating point."""
    k = 2
    while True:
        lb = (m + 1) * (k - 1) - e * math.log(k, p)
        if lb >= precision and k >= e / ((m + 1) * math.log(p)):
            return k
        k += 1


def test_psi_refuses_a_negative_m():
    t0 = Z5.truncated(6).from_int(7)
    for m in (-1, -2):
        with pytest.raises(BadLength, match=f"psi needs m >= 0, got {m}"):
            psi_map(GM5, m, t0)


def test_psi_length_holds_from_its_first_k_on():
    """K is the first k >= 2 with p^((m+1)(k-1) - precision) >= k^e, and
    the inequality keeps holding after it: it fails at K-1 when K > 2 and
    holds for every k in K..K+100, over p <= 31, e 1-12, m 0-6 and
    precision 0-40."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for e in range(1, 13):
            for m in range(7):
                step = p ** (m + 1)
                for precision in range(41):
                    K = _psi_series_bound(m, e, p, precision)
                    a = (m + 1) * (K - 2) - precision
                    assert K == 2 or a < 0 or p ** a < (K - 1) ** e
                    a += m + 1
                    assert a >= 0
                    lhs = p ** a
                    for k in range(K, K + 101):
                        assert lhs >= k ** e, (p, e, m, precision, k)
                        lhs *= step


def test_psi_series_bound_matches_float_formula():
    for m in range(5):
        for e in range(1, 7):
            for p in (2, 3, 5, 7, 11, 13):
                for precision in range(41):
                    assert (_psi_series_bound(m, e, p, precision)
                            == _float_psi_bound(m, e, p, precision))
