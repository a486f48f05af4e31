"""Kernel points of the jet-space projections: coordinates t_0..t_{n-1}
over B carrying the group structure of a formal group law G, together with
the maps that act on them (the zero-head Witt embedding, lateral Frobenius,
the shift Phi, projections and sections, the logarithm-based Psi, and the
difference character that factors through the first coordinate).

Series over a pi-power truncation B/pi^N converge because an embedded
kernel point has ghost divisible by pi^(m+1): a total-degree-k term has
every component divisible by pi^((m+1)k - j) at coordinate j, so it can be
dropped once (m+1)k - (length-1) >= N.
"""

from __future__ import annotations

import math

from .errors import (
    BadLength,
    BaseMismatch,
    InternalError,
    LengthMismatch,
    NonIntegralPsi,
    PrecisionRequired,
    ZeroShift,
    ZeroTail,
)
from .fgl import formal_inverse, formal_log
from .rings import Frac
from .shifted import (
    ShiftedWittVector,
    include_I,
    lateral_frobenius,
    scalar_shifted,
    shift_E,
    shifted_add,
    shifted_mul,
    shifted_zero,
)
from .witt import (
    WittVector,
    frobenius_iter,
    scalar_mul,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
    witt_zero,
)


class KernelPoint:
    """A point of N^[m]n G in tail coordinates."""

    __slots__ = ("law", "rcfg", "bcfg", "m", "coords")

    def __init__(self, law, rcfg, bcfg, m, coords):
        coords = tuple(coords)
        if m < 0 or not coords:
            raise LengthMismatch("kernel point needs m >= 0 and n >= 1")
        for c in coords:
            if c.cfg != bcfg:
                raise BaseMismatch("coordinate outside B")
        self.law = law
        self.rcfg = rcfg
        self.bcfg = bcfg
        self.m = m
        self.coords = coords

    @property
    def n(self):
        return len(self.coords)

    def __eq__(self, other):
        if not isinstance(other, KernelPoint):
            return NotImplemented
        return (self.m == other.m and self.coords == other.coords
                and self.law is other.law and self.bcfg == other.bcfg)

    def __repr__(self):
        cs = ", ".join(repr(c) for c in self.coords)
        return f"N[{self.m}]{self.n}({cs})"


def kernel_zero(law, rcfg, bcfg, m, n):
    return KernelPoint(law, rcfg, bcfg, m, (bcfg.zero(),) * n)


def kernel_embed(t):
    """The zero-head shifted Witt vector carrying t."""
    return ShiftedWittVector(t.rcfg, t.bcfg, t.m,
                             (t.rcfg.zero(),) * (t.m + 1), t.coords)


def kernel_witt_point(t):
    """The full Witt image: V applied m+1 times to the tail."""
    return include_I(kernel_embed(t))


def _check_pair(t, s):
    if t.m != s.m or t.n != s.n:
        raise LengthMismatch(
            f"kernel shapes ({t.m},{t.n}) and ({s.m},{s.n}) differ")
    if t.law is not s.law or t.bcfg != s.bcfg:
        raise BaseMismatch("kernel points belong to different groups")


def _tail_cutoff(m, length, trunc):
    """Smallest k such that total-degree-k series terms vanish mod pi^N."""
    k = 1
    while (m + 1) * k - (length - 1) < trunc:
        k += 1
    return k


def kernel_add(t, s):
    _check_pair(t, s)
    law = t.law
    if law.is_additive:
        u = WittVector(t.bcfg, t.coords)
        v = WittVector(t.bcfg, s.coords)
        return KernelPoint(law, t.rcfg, t.bcfg, t.m, witt_add(u, v).comps)
    if t.bcfg.torsion_free:
        raise PrecisionRequired(
            "kernel addition for a non-additive law needs a pi-power "
            "truncated base")
    cutoff = _tail_cutoff(t.m, t.m + t.n + 1, t.bcfg.trunc)
    if not law.exact and law.degree < cutoff - 1:
        raise PrecisionRequired(
            f"law jet of degree {law.degree} cannot resolve precision "
            f"pi^{t.bcfg.trunc}")
    u = kernel_embed(t)
    v = kernel_embed(s)
    upow = {0: None, 1: u}
    vpow = {0: None, 1: v}
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
    for h in acc.head:
        if not h.is_zero():  # pragma: no cover - identity section preserved
            raise InternalError("kernel sum left the zero-head locus")
    return KernelPoint(law, t.rcfg, t.bcfg, t.m, acc.tail)


def kernel_neg(t):
    law = t.law
    if law.is_additive:
        v = witt_neg(WittVector(t.bcfg, t.coords))
        return KernelPoint(law, t.rcfg, t.bcfg, t.m, v.comps)
    if t.bcfg.torsion_free:
        raise PrecisionRequired(
            "kernel negation for a non-additive law needs a truncated base")
    cutoff = _tail_cutoff(t.m, t.m + t.n + 1, t.bcfg.trunc)
    inv = formal_inverse(law, max(cutoff, 1))
    u = kernel_embed(t)
    acc = shifted_zero(t.rcfg, t.bcfg, t.m, t.n)
    pow_u = None
    for k, b in enumerate(inv, 1):
        pow_u = u if pow_u is None else shifted_mul(pow_u, u)
        term = shifted_mul(scalar_shifted(t.rcfg, t.bcfg, t.m, t.n, b),
                           pow_u)
        acc = shifted_add(acc, term)
    return KernelPoint(law, t.rcfg, t.bcfg, t.m, acc.tail)


def kernel_lateral_f(t):
    """The generalized lateral Frobenius: tail length drops by one."""
    if t.n < 2:
        raise ZeroTail("lateral Frobenius on kernels needs n >= 2")
    out = lateral_frobenius(kernel_embed(t))
    for h in out.head:
        if not h.is_zero():  # pragma: no cover - phi(0) = 0
            raise InternalError("lateral Frobenius left the zero-head locus")
    return KernelPoint(t.law, t.rcfg, t.bcfg, t.m, out.tail)


def kernel_phi(t):
    """Phi: shift m drops by one; on coordinates this is the (pi) map."""
    if t.m < 1:
        raise ZeroShift("Phi needs m >= 1")
    out = shift_E(kernel_embed(t))
    for h in out.head:
        if not h.is_zero():  # pragma: no cover - zero head maps to zero
            raise InternalError("Phi left the zero-head locus")
    return KernelPoint(t.law, t.rcfg, t.bcfg, t.m - 1, out.tail)


def kernel_project_u(t, k):
    if not 1 <= k <= t.n:
        raise BadLength(f"projection length {k} not in 1..{t.n}")
    return KernelPoint(t.law, t.rcfg, t.bcfg, t.m, t.coords[:k])


def kernel_section_sigma(t, n):
    if t.n != 1:
        raise BadLength("the section starts from a length-1 point")
    if n < 1:
        raise BadLength("target length must be >= 1")
    coords = t.coords + (t.bcfg.zero(),) * (n - 1)
    return KernelPoint(t.law, t.rcfg, t.bcfg, t.m, coords)


# ----------------------------------------------------------------------
# the logarithm-based Psi


def _psi_series_bound(m, e, p, precision):
    """Smallest K with (m+1)(k-1) - e*v_p(k) >= precision for all k >= K."""
    k = 2
    while True:
        lb = (m + 1) * (k - 1) - e * math.log(k, p)
        if lb >= precision and k >= e / ((m + 1) * math.log(p)):
            return k
        k += 1


def psi_map(law, m, t0, precision=None):
    """Psi(t_0) = sum_k phi^(m+1)(a_k) pi^((m+1)(k-1)) t_0^k, the degree-1
    part of the logarithm ladder; coefficients are audited for
    integrality and the whole series is rejected when the base ring
    cannot guarantee it (e > p - 2)."""
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
    acc = bcfg.zero()
    tpow = bcfg.one()
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
            # den is prime to p here, hence a unit mod pi^N
            dinv = pow(coeff.den, -1, exact.p ** bcfg.trunc)
            celem = bcfg.convert(coeff.num) * bcfg.from_int(dinv)
        else:
            raise PrecisionRequired(
                "psi has unit-denominator coefficients; evaluate over a "
                "pi-power truncated base")
        acc = acc + celem * tpow
    return acc


# ----------------------------------------------------------------------
# the difference character


def _witt_series(coeffs_k, v, cutoff):
    """sum_k c_k v^k in the Witt ring, dropping terms of degree >= cutoff."""
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


def _group_difference(law, x, y, m):
    """x minus y under the law, evaluated in the Witt ring of x and y."""
    if law.is_additive:
        return witt_sub(x, y)
    cfg = x.cfg
    if cfg.torsion_free:
        raise PrecisionRequired(
            "the group difference for a non-additive law needs a "
            "truncated base")
    cutoff = _tail_cutoff(m, x.n + 1, cfg.trunc)
    if not law.exact and law.degree < cutoff:
        raise PrecisionRequired(
            f"law jet of degree {law.degree} cannot resolve precision "
            f"pi^{cfg.trunc}")
    inv = formal_inverse(law, max(cutoff, 1))
    neg_y = _witt_series(inv, y, cutoff + 1)
    acc = witt_zero(cfg, x.n)
    xpow = {0: None, 1: x}
    ypow = {0: None, 1: neg_y}
    for (i, j), c in sorted(law.coeffs.items()):
        if i + j > cutoff and not law.exact:
            continue
        term = None
        for pows, base, k in ((xpow, x, i), (ypow, neg_y, j)):
            while max(pows) < k:
                pows[max(pows) + 1] = witt_mul(pows[max(pows)], base)
            if k:
                term = pows[k] if term is None else witt_mul(term, pows[k])
        term = scalar_mul(c, term)
        acc = witt_add(acc, term)
    return acc


def difference_character(t):
    """F^(m+1)(i_m t) minus F^m(i_m f_m t) under the law; a length-(n-1)
    Witt point that depends only on t_0."""
    if t.n < 2:
        raise ZeroTail("the difference character needs n >= 2")
    x = frobenius_iter(kernel_witt_point(t), t.m + 1)
    y = frobenius_iter(kernel_witt_point(kernel_lateral_f(t)), t.m)
    return _group_difference(t.law, x, y, t.m)
