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
    _arith,
    _check_fixed,
    _phi_chain,
    _solve as _witt_solve,
)


class KernelPoint:
    """A point of N^[m]n G in tail coordinates.  ``_embed`` keeps its
    zero-head embedding once built, so the embedding's ghost rows are
    computed at most once; equality ignores it."""

    __slots__ = ("law", "rcfg", "bcfg", "m", "coords", "_embed")

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
        self._embed = None

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
    if t._embed is None:
        t._embed = ShiftedWittVector(t.rcfg, t.bcfg, t.m,
                                     (t.rcfg.zero(),) * (t.m + 1), t.coords)
    return t._embed


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
    vector that a map of kernels returned; out is its embedding."""
    for h in out.head:
        if not h.is_zero():  # pragma: no cover - the maps keep the zero head
            raise InternalError(f"{what} left the zero-head locus")
    pt = KernelPoint(t.law, t.rcfg, t.bcfg, out.m, out.tail)
    pt._embed = out
    return pt


def _tail_cutoff(m, length, trunc):
    """Smallest k >= 1 whose total-degree-k series terms vanish mod pi^N."""
    return max(1, -(-(trunc + length - 1) // (m + 1)))


def _series_degree(law, cfg, m, length, what):
    """The highest total degree whose terms of a series of the law on
    length-``length`` vectors of shift m survive mod pi^N, after checking
    that cfg is a pi-power truncation and that the law is known to that
    degree.  The additive law's X + Y and -Y have degree 1 on any base."""
    if law.is_additive:
        return 1
    if cfg.torsion_free:
        raise PrecisionRequired(
            f"{what} for a non-additive law needs a pi-power truncated base")
    top = _tail_cutoff(m, length, cfg.trunc) - 1
    if not law.exact and law.degree < top:
        raise PrecisionRequired(
            f"law jet of degree {law.degree} cannot resolve precision "
            f"pi^{cfg.trunc}")
    return top


def _law_terms(law, top):
    """F's terms, less those above degree top when F is only a jet."""
    return [(ij, c) for ij, c in sorted(law.coeffs.items())
            if law.exact or sum(ij) <= top]


def _chains(law, series, top, hl, bl, k, count):
    """The exponents (i, j) and, row by row, the ghost chains phi^r(c_ij)
    of the series sum c_ij A^i B^j: series "F" is the law to degree top,
    "i" its inverse i(A).  Row r is in R's arithmetic hl below row k and
    in B's arithmetic bl from row k on.  A scalar c enters as its ghost
    chain, the rule of scalar_shifted and scalar_mul.  The law keeps them
    per (series, top, hl, bl, k, count), once every coefficient has passed
    the phi(pi) check; a rejected series is checked again on every call."""
    key = (series, top, hl, bl, k, count)
    kept = law._chains.get(key)
    if kept is not None:
        return kept
    coeffs = (_law_terms(law, top) if series == "F" else
              [((i, 0), b) for i, b in enumerate(formal_inverse(law, top), 1)])
    for _, c in coeffs:
        _check_fixed(c, "the kernel group law")
    rcfg = hl.cover
    chains = [_phi_chain(hl, hl.unwrap(rcfg.convert(c)), count)
              for _, c in coeffs]
    chains = [ch[:k] + _lift_head(hl, bl, rcfg, ch[k:]) for ch in chains]
    kept = law._chains[key] = ([ij for ij, _ in coeffs],
                               [[ch[r] for ch in chains]
                                for r in range(count)])
    return kept


def _series_rows(law, series, top, hl, bl, k, a, b):
    """Ghost rows of the series (see ``_chains``) from the ghost rows a of
    A and b of B: row r is sum phi^r(c_ij) a_r^i b_r^j, each power of a_r
    and b_r built once from the one below."""
    exps, chains = _chains(law, series, top, hl, bl, k, len(a))
    imax, jmax = (max((e[x] for e in exps), default=0) for x in (0, 1))
    rows = []
    for r, chain in enumerate(chains):
        ar = hl if r < k else bl
        mul, apow, bpow = ar.mul, [ar.one, a[r]], [ar.one, b[r]]
        for pows, top_e in ((apow, imax), (bpow, jmax)):
            while len(pows) <= top_e:
                pows.append(mul(pows[-1], pows[1]))
        acc = ar.zero
        for (i, j), c in zip(exps, chain):
            acc = ar.add(acc, mul(c, mul(apow[i], bpow[j])))
        rows.append(acc)
    return rows


def _kernel_series(t, series, what, s=None):
    """The tail of a series of the law (see ``_chains``) in W_[m]n(B) at u
    and v, the embeddings of t and s (v = u when s is None), evaluated on
    shifted ghost rows and solved once."""
    top = _series_degree(t.law, t.bcfg, t.m, t.m + t.n + 1, what)
    hl, bl, a = _shifted_rows(kernel_embed(t))
    b = a if s is None else _shifted_rows(kernel_embed(s))[2]
    k = t.m + 1
    rows = _series_rows(t.law, series, top, hl, bl, k, a, b)
    return _tail_point(t, _shifted_solve(hl, bl, t.rcfg, t.bcfg, rows, k),
                       "kernel series")


def kernel_add(t, s):
    _check_pair(t, s)
    return _kernel_series(t, "F", "kernel addition", s)


def kernel_neg(t):
    return _kernel_series(t, "i", "kernel negation")


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
    cannot guarantee it (e > p - 2).  The law keeps the coefficients as
    values of bcfg's engine arithmetic, where Horner's rule runs."""
    bcfg = t0.cfg
    if precision is None:
        if not bcfg.trunc:
            raise PrecisionRequired(
                "psi over an exact base needs an explicit precision")
        precision = bcfg.trunc
    ar, key = _arith(bcfg), (m, bcfg, precision)
    if key not in law._psi:
        law._psi[key] = [ar.unwrap(c)
                         for c in _psi_coeffs(law, m, bcfg, precision)]
    x, acc = ar.unwrap(t0), ar.zero
    for c in reversed(law._psi[key]):   # t_0 (c_1 + t_0 (c_2 + ...))
        acc = ar.mul(ar.add(acc, c), x)
    return ar.wrap(bcfg, acc)


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


def difference_character(t):
    """F^(m+1)(i_m t) minus F^m(i_m f_m t) under the law; a length-(n-1)
    Witt point that depends only on t_0.  With R the shifted ghost rows of
    t's embedding, R[m+1:] is the ghost of x = F^(m+1)(i_m t), and the same
    rows with a zero first entry are the ghost of y = F^m(i_m f_m t) (the
    lateral rule applies phi to a zero head row), so F(x, i(y)) is
    evaluated on them and solved once.  Over B/pi^N this gives the residues
    of the composed maps, because the solve needs row i only mod
    pi^(N+i)."""
    if t.n < 2:
        raise ZeroTail("the difference character needs n >= 2")
    law, cfg = t.law, t.bcfg
    top = _series_degree(law, cfg, t.m, t.n, "the group difference")
    ar = _arith(cfg, t.n - 1)
    x = list(map(ar.reduce, _shifted_rows(kernel_embed(t))[2][t.m + 1:]))
    y = [ar.zero] + x[1:]
    neg_y = _series_rows(law, "i", top, ar, ar, 0, y, y)
    return _witt_solve(ar, cfg, _series_rows(law, "F", top, ar, ar, 0, x,
                                             neg_y))
