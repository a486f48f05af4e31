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
    _lift_head,
    _rows as _shifted_rows,
    _solve as _shifted_solve,
    include_I,
    lateral_frobenius,
    shift_E,
)
from .witt import (
    WittVector,
    _arith,
    _check_fixed,
    _phi_chain,
    _rows as _witt_rows,
    _solve as _witt_solve,
    frobenius_iter,
    witt_add,
    witt_neg,
    witt_sub,
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


def _tail_point(t, out, what):
    """The kernel point of t's group carried by the tail of out, a shifted
    vector that a map of kernels returned."""
    for h in out.head:
        if not h.is_zero():  # pragma: no cover - the maps keep the zero head
            raise InternalError(f"{what} left the zero-head locus")
    return KernelPoint(t.law, t.rcfg, t.bcfg, out.m, out.tail)


def _tail_cutoff(m, length, trunc):
    """Smallest k >= 1 whose total-degree-k series terms vanish mod pi^N."""
    return max(1, -(-(trunc + length - 1) // (m + 1)))


def _series_rows(hl, bl, rcfg, k, coeffs, a, b):
    """Ghost rows of sum c_ij A^i B^j from the ghost rows a of A and b of
    B: row r is sum phi^r(c_ij) a_r^i b_r^j, in R's arithmetic hl below
    row k and in B's arithmetic bl from row k on.  A scalar c enters as its
    ghost chain phi^r(c), the rule of scalar_shifted and scalar_mul."""
    for _, c in coeffs:
        _check_fixed(c, "the kernel group law")
    chains = [_phi_chain(hl, hl.unwrap(rcfg.convert(c)), len(a))
              for _, c in coeffs]
    chains = [ch[:k] + _lift_head(hl, bl, rcfg, ch[k:]) for ch in chains]
    rows = []
    for r in range(len(a)):
        ar = hl if r < k else bl
        acc = ar.zero
        for ((i, j), _), chain in zip(coeffs, chains):
            acc = ar.add(acc, ar.mul(chain[r], ar.mul(ar.pow(a[r], i),
                                                      ar.pow(b[r], j))))
        rows.append(acc)
    return rows


def _law_terms(law, cutoff):
    """F's terms, less those above the cut-off when F is only a jet."""
    return [(ij, c) for ij, c in sorted(law.coeffs.items())
            if law.exact or sum(ij) <= cutoff]


def _kernel_series(t, coeffs, s=None):
    """The tail of sum c_ij u^i v^j in W_[m]n(B), u and v the embeddings of
    t and s (v = u when s is None), evaluated on shifted ghost rows and
    solved once."""
    hl, bl, a = _shifted_rows(kernel_embed(t))
    b = a if s is None else _shifted_rows(kernel_embed(s))[2]
    k = t.m + 1
    rows = _series_rows(hl, bl, t.rcfg, k, coeffs, a, b)
    return _tail_point(t, _shifted_solve(hl, bl, t.rcfg, t.bcfg, rows, k),
                       "kernel series")


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
    return _kernel_series(t, _law_terms(law, cutoff), s)


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
    return _kernel_series(t, [((k, 0), b) for k, b in enumerate(inv, 1)])


def kernel_lateral_f(t):
    """The generalized lateral Frobenius: tail length drops by one."""
    if t.n < 2:
        raise ZeroTail("lateral Frobenius on kernels needs n >= 2")
    return _tail_point(t, lateral_frobenius(kernel_embed(t)),
                       "lateral Frobenius")


def kernel_phi(t):
    """Phi: shift m drops by one; on coordinates this is the (pi) map."""
    if t.m < 1:
        raise ZeroShift("Phi needs m >= 1")
    return _tail_point(t, shift_E(kernel_embed(t)), "Phi")


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


def _exceeds_exp(n, e):
    """Whether the integer n exceeds exp(e), for an integer e >= 0, decided
    exactly: once J + 2 >= 2e, J! exp(e) lies in (s, s + t] with
    s = sum_{j<=J} e^j J!/j! and t = ceil(2 e^(J+1) / (J+1))."""
    j, fact, s = 0, 1, 1
    while True:
        if j + 2 >= 2 * e:
            if n * fact > s - (-2 * e ** (j + 1) // (j + 1)):
                return True
            if n * fact <= s:
                return False
        j += 1
        fact *= j
        s = j * s + e ** j


def _psi_series_bound(m, e, p, precision):
    """Smallest K with (m+1)(k-1) - e*log_p(k) >= precision for all k >= K,
    in integers: the inequality at k is p^((m+1)(k-1) - precision) >= k^e,
    and it stays true beyond k once k >= e / ((m+1) ln p), that is once
    p^((m+1)k) > exp(e)."""
    k = 2
    while True:
        a = (m + 1) * (k - 1) - precision
        if (a >= 0 and p ** a >= k ** e
                and _exceeds_exp(p ** ((m + 1) * k), e)):
            return k
        k += 1


def psi_map(law, m, t0, precision=None):
    """Psi(t_0) = sum_k phi^(m+1)(a_k) pi^((m+1)(k-1)) t_0^k, the degree-1
    part of the logarithm ladder; coefficients are audited for
    integrality and the whole series is rejected when the base ring
    cannot guarantee it (e > p - 2).  The law keeps the coefficients."""
    bcfg = t0.cfg
    if precision is None:
        if not bcfg.trunc:
            raise PrecisionRequired(
                "psi over an exact base needs an explicit precision")
        precision = bcfg.trunc
    key = (m, bcfg, precision)
    if key not in law._psi:
        law._psi[key] = _psi_coeffs(law, m, bcfg, precision)
    acc = bcfg.zero()
    for c in reversed(law._psi[key]):   # t_0 (c_1 + t_0 (c_2 + ...))
        acc = (acc + c) * t0
    return acc


def _psi_coeffs(law, m, bcfg, precision):
    """The coefficients c_1 .. c_K of Psi, as elements of bcfg."""
    exact = bcfg.exact_cover()
    kmax = _psi_series_bound(m, exact.e, exact.p, precision)
    if not law.exact and law.degree < kmax - 1:
        raise PrecisionRequired(
            f"law jet of degree {law.degree} cannot resolve the psi series "
            f"at precision pi^{precision}")
    logs = formal_log(law, max(kmax - 1, 1))
    pi = exact.pi_elem()
    coeffs = []
    for k in range(1, kmax):
        a = logs[k - 1]
        if a.num.is_zero():
            coeffs.append(bcfg.zero())
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
        if coeff.den != 1 and not bcfg.trunc:
            raise PrecisionRequired(
                "psi has unit-denominator coefficients; evaluate over a "
                "pi-power truncated base")
        # den is prime to p here, hence a unit mod pi^N
        dinv = pow(coeff.den, -1, exact.p ** bcfg.trunc) if bcfg.trunc else 1
        coeffs.append(bcfg.convert(coeff.num) * bcfg.from_int(dinv))
    return coeffs


# ----------------------------------------------------------------------
# the difference character


def _group_difference(law, x, y, m):
    """x minus y under the law: F(x, i(y)) on the ghost rows of x and y,
    solved once."""
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
    ar = _arith(cfg, x.n)
    ys = _witt_rows(ar, y)
    neg_y = _series_rows(ar, ar, ar.cover, 0,
                         [((k, 0), b) for k, b in enumerate(inv, 1)], ys, ys)
    return _witt_solve(ar, cfg, _series_rows(ar, ar, ar.cover, 0,
                                             _law_terms(law, cutoff),
                                             _witt_rows(ar, x), neg_y))


def difference_character(t):
    """F^(m+1)(i_m t) minus F^m(i_m f_m t) under the law; a length-(n-1)
    Witt point that depends only on t_0."""
    if t.n < 2:
        raise ZeroTail("the difference character needs n >= 2")
    x = frobenius_iter(kernel_witt_point(t), t.m + 1)
    y = frobenius_iter(kernel_witt_point(kernel_lateral_f(t)), t.m)
    return _group_difference(t.law, x, y, t.m)
