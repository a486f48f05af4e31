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
from .shifted import include_I, lateral_frobenius, shift_E
from .witt import (_arith, _check_fixed, _check_shape, _read, _rows, _solve,
                   _structure_chain, _values, _vector, _zeros)


class KernelPoint:
    """A point of N^[m]n G: its law and its zero-head embedding in
    W_[m]n(B), whose tail holds the point's coordinates.  Equality ignores
    the ghost rows the embedding keeps."""

    __slots__ = ("law", "_embed")

    def __init__(self, law, rcfg, bcfg, m, coords):
        coords = tuple(coords)
        if m < 0 or not coords:
            raise LengthMismatch("kernel point needs m >= 0 and n >= 1")
        _check_shape(rcfg, bcfg, m, m + 1)
        self.law = law
        self._embed = _vector(rcfg, bcfg, m, m + len(coords), _zeros(
            rcfg, m + 1) + _values(bcfg, coords, "tail entry outside B"))

    rcfg = property(lambda self: self._embed.rcfg)
    bcfg = property(lambda self: self._embed.bcfg)
    m = property(lambda self: self._embed.m)
    n = property(lambda self: self._embed.n)
    coords = property(lambda self: self._embed.tail)

    def __eq__(self, other):
        if not isinstance(other, KernelPoint):
            return NotImplemented
        return self.law is other.law and self._embed == other._embed

    def __repr__(self):
        cs = ", ".join(repr(c) for c in self.coords)
        return f"N[{self.m}]{self.n}({cs})"

    def __reduce__(self):   # the coordinates (solved if pending), no rows
        return KernelPoint, (self.law, self.rcfg, self.bcfg, self.m,
                             self.coords)


def kernel_zero(law, rcfg, bcfg, m, n):
    return KernelPoint(law, rcfg, bcfg, m, (bcfg.zero(),) * n)


def kernel_embed(t):
    """The zero-head shifted Witt vector carrying t."""
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
    """The kernel point of t's group whose embedding is out, a map's output.
    Its head must be zero, checked without a solve: on the head ghost rows
    out carries (R is torsion-free), else on the head values of an out
    that holds them: built from values, or solved over a truncated B."""
    hl, rows = _arith(out.rcfg), out._ghost
    head = (_read(out) if rows is None else rows)[:out.m + 1]
    if any(w != hl.zero for w in head):  # pragma: no cover
        raise InternalError(f"{what} left the zero-head locus")
    p = object.__new__(KernelPoint)
    p.law, p._embed = t.law, out
    return p


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
    chains = [_structure_chain(hl, bl, c, k, count) for _, c in coeffs]
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
    u = kernel_embed(t)
    hl, bl, k = _arith(u.rcfg), _arith(u.bcfg, u.last), u.m + 1
    a = _rows(bl, u)
    b = a if s is None else _rows(bl, kernel_embed(s))
    rows = _series_rows(t.law, series, top, hl, bl, k, a, b)
    return _tail_point(t, _solve(bl, u.bcfg, rows, None, u.m, u.rcfg),
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
    u = t._embed
    return _tail_point(t, _vector(u.rcfg, u.bcfg, u.m, u.m + k,
                                  _read(u)[:u.m + 1 + k]), "projection")


def kernel_section_sigma(t, n):
    if t.n != 1:
        raise BadLength("the section starts from a length-1 point")
    if n < 1:
        raise BadLength("target length must be >= 1")
    u = t._embed
    return _tail_point(t, _vector(u.rcfg, u.bcfg, u.m, u.m + n, _read(u)
                                  + _zeros(u.bcfg, n - 1)), "section")


# ----------------------------------------------------------------------
# the logarithm-based Psi


def _psi_series_bound(m, e, p, precision):
    """Smallest K with (m+1)(k-1) - e*log_p(k) >= precision for all k >= K,
    m >= 0: the first k >= 2 with p^((m+1)(k-1) - precision) >= k^e, as the
    difference grows from e / ((m+1) ln p) on and no k >= 2 below that point
    satisfies it: there (m+1)(k-1) ln p < e (1 - 1/k) <= e ln k."""
    k = 2
    while ((m + 1) * (k - 1) < precision
           or p ** ((m + 1) * (k - 1) - precision) < k ** e):
        k += 1
    return k


def psi_map(law, m, t0, precision=None):
    """Psi(t_0) = sum_k phi^(m+1)(a_k) pi^((m+1)(k-1)) t_0^k, the degree-1
    part of the logarithm ladder; coefficients are audited for
    integrality and the whole series is rejected when the base ring
    cannot guarantee it (e > p - 2).  The law keeps the coefficients as
    values of bcfg's engine arithmetic, where Horner's rule runs."""
    if m < 0:
        raise BadLength(f"psi needs m >= 0, got {m}")
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
        # den is prime to p: inverted mod p^ceil(N/e), inside pi^N
        dinv = pow(coeff.den, -1, bcfg._mods[0]) if bcfg.trunc else 1
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
    x = list(map(ar.reduce, _rows(ar, kernel_embed(t))[t.m + 1:]))
    y = [ar.zero] + x[1:]
    neg_y = _series_rows(law, "i", top, ar, ar, 0, y, y)
    return _solve(ar, cfg, _series_rows(law, "F", top, ar, ar, 0, x, neg_y))
