"""Length-(n+1) Witt vectors over a base ring: ghost calculus, the ring
structure, T / F / V, Teichmuller lifts, the multiplication-by-pi map,
the universal exponential for the delta structure, and symbolic generation
of the universal structure polynomials (with a disk cache)."""

from __future__ import annotations

import hashlib
import json
import operator
import os
import tempfile
from pathlib import Path

from .errors import (
    BadLength,
    BaseMismatch,
    BudgetExceeded,
    ConfigUnsupported,
    InternalError,
    LengthMismatch,
    NonDivisible,
    NonIntegral,
    TorsionBase,
    WittlabError,
    ZeroLength,
)
from .rings import RingElement, make_ring_config
from .serialize import _encode_coeff, decode_element, encode_element

TERM_BUDGET = 5_000_000


class WittVector:
    """Components (x_0 .. x_n) over one base ring.  On an exact config
    ``_ghost`` keeps the unwrapped ghost rows once they are known (see
    the ghost engine); equality and hashing ignore it."""

    __slots__ = ("cfg", "comps", "_ghost")

    def __init__(self, cfg, comps):
        comps = tuple(comps)
        if not comps:
            raise ZeroLength("a Witt vector needs at least one component")
        for c in comps:
            if c.cfg != cfg:
                raise BaseMismatch("component ring differs from vector ring")
        self.cfg = cfg
        self.comps = comps
        self._ghost = None

    @property
    def n(self):
        return len(self.comps) - 1

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return self.cfg == other.cfg and self.comps == other.comps

    def __hash__(self):
        return hash((self.cfg.key, self.comps))

    def __repr__(self):
        return "W(" + ", ".join(repr(c) for c in self.comps) + ")"


class GhostVector:
    """Ghost coordinates <w_0 .. w_n>; ``head_count`` is None for the plain
    product ring and m+1 when the vector lives on the shifted ghost side."""

    __slots__ = ("entries", "head_count")

    def __init__(self, entries, head_count=None):
        self.entries = tuple(entries)
        self.head_count = head_count

    @property
    def n(self):
        return len(self.entries) - 1

    def __eq__(self, other):
        if not isinstance(other, GhostVector):
            return NotImplemented
        return (self.entries == other.entries
                and self.head_count == other.head_count)

    def __repr__(self):
        return "<" + ", ".join(repr(c) for c in self.entries) + ">"


# ----------------------------------------------------------------------
# the ghost engine
#
# Every operator is one ghost map, an entrywise rule on ghost coordinates
# and one triangular solve.  The engine works on unwrapped values of the
# exact cover of a config: Python ints (d = 1) or coefficient tuples
# (d > 1) when the config has no adjoined variables, RingElements of the
# exact cover, or of its truncation R/pi^prec, when it has.  Over B/pi^N,
# with or without variables, a solve that divides by up to pi^L computes
# mod pi^(N+L): coordinate i is right mod pi^(N+L-i), and wrapping reduces
# it to the residue mod pi^N of the exact result.
#
# On an exact config a solve's entries are the ghost of its output
# (w_i = sum_{j<i} pi^j x_j^(q^(i-j)) + pi^i x_i holds exactly), so the
# output keeps them as its rows, and a vector's ghost is computed at most
# once.  A truncated solve's entries are not the ghost of the reduced
# coordinates, and no vector over a truncated config keeps rows.


class _Arith:
    """Ring operations on the unwrapped values of one exact config, with
    ``prec`` modulo an ideal inside pi^prec (p^ceil(prec/e), or pi^prec for
    polynomials): exact division by pi^i (i < prec) then has the same
    verdict on every representative."""

    def __init__(self, cover, prec=0):
        self.cover, self.q = cover, cover.q
        self.add, self.sub = operator.add, operator.sub
        self.mul, self.neg, self.pow = operator.mul, operator.neg, pow
        self.reduce = lambda a: a
        mod = cover.p ** -(-prec // cover.e) if prec else 0
        if cover.nvars:     # prec = 0 keeps the cover itself
            red = cover.truncated(prec)
            self.zero, self.one, self.pi = red.zero(), red.one(), red.pi_elem()
            self.phi, self.unwrap = RingElement.phi, red.convert
            self.reduce, self.wrap = red.convert, lambda cfg, x: cfg.convert(x)
            self.div_pi = lambda a: red._wrap(
                {m: cover.cdivpi(c) for m, c in a.terms.items()})
        elif cover.d == 1:
            self.zero, self.one, self.pi = 0, 1, cover.p
            self.phi = lambda a: a
            self.unwrap = lambda e: e.terms.get((), (0,))[0]
            self.wrap = lambda cfg, x: cfg._wrap({(): (x,)} if x else {})
            if mod:
                self.mul = lambda a, b: a * b % mod
                self.pow = lambda a, e: pow(a, e, mod)
                self.reduce = lambda a: a % mod
                self.unwrap = lambda e: e.terms.get((), (0,))[0] % mod
        else:
            self.zero, self.one = cover.czero(), cover.cone()
            self.pi = cover._pi_coeff()
            self.add, self.sub = cover.cadd, cover.csub
            self.mul, self.neg, self.pow = cover.cmul, cover.cneg, cover.cpow
            self.phi, self.div_pi = cover.cphi, cover.cdivpi
            self.unwrap = lambda e: e.terms.get((), self.zero)
            self.wrap = lambda cfg, x: cfg._wrap({(): x} if any(x) else {})
            if mod:
                self.mul = lambda a, b: cover.cmul(a, b, mod)
                self.pow = lambda a, e: cover.cpow(a, e, mod)
                self.reduce = lambda a: tuple(c % mod for c in a)
                self.unwrap = lambda e: self.reduce(e.terms.get((), self.zero))

    def div_pi_power(self, a, k):
        """a / pi^k; NonDivisible when it is not exact.  For d = 1, pi = p
        and a is divided by p^k in one pass."""
        if self.cover.d > 1:
            for _ in range(k):
                a = self.div_pi(a)
            return a
        if self.cover.nvars:
            return a.div_int(self.cover.p ** k)
        a, rem = divmod(a, self.pi ** k)
        if rem:
            raise NonDivisible(f"integer not divisible by {self.pi}^{k}")
        return a


_ARITH = {}


def _arith(cfg, top=0):
    """The arithmetic of cfg's exact cover for a solve dividing by up to
    pi^top: modulo pi^(N+top) when cfg is R/pi^N."""
    prec = cfg.trunc + top if cfg.trunc else 0
    key = (cfg.base_key, cfg.vars, prec)
    if key not in _ARITH:
        _ARITH[key] = _Arith(cfg.exact_cover(), prec)
    return _ARITH[key]


def _table(ar, xs):
    """The power table of the row after xs: x_j^(q^(len(xs)-1-j))."""
    k = len(xs) - 1
    return [ar.pow(x, ar.q ** (k - j)) for j, x in enumerate(xs)]


def _row(ar, pows, x=None, keep=True):
    """Row i from the table pows[j] = x_j^(q^(i-1-j)), j < i, of row i-1:
    sum_{j<i} pi^j x_j^(q^(i-j)) (+ pi^i x), summed by Horner in pi from
    the top, so no pi^j is formed.  Each entry is raised to its q-th power
    once; ``keep`` stores the powers back as the table of row i, otherwise
    they are dropped as they are summed (a last row: its powers are the
    largest values of the whole computation)."""
    add, mul, pw, pi, q = ar.add, ar.mul, ar.pow, ar.pi, ar.q
    acc = x
    for j in range(len(pows) - 1, -1, -1):
        y = pw(pows[j], q)
        if keep:
            pows[j] = y
        acc = y if acc is None else add(y, mul(pi, acc))
    return acc


def _ghost_rows(ar, xs, start=0):
    """Ghost entries start..len(xs)-1 of the unwrapped coordinates xs:
    w_i = sum_j pi^j x_j^(q^(i-j))."""
    pows, rows, last = _table(ar, xs[:start]), [], len(xs) - 1
    for i in range(start, len(xs)):
        rows.append(_row(ar, pows, xs[i], i < last))
        pows.append(xs[i])
    return rows


def _solve_rows(ar, entries, comps, failure, what=None):
    """Extend the solved coordinates ``comps`` by one per ghost entry,
    x_i = (w_i - sum_{j<i} pi^j x_j^(q^(i-j))) / pi^i; ``failure`` names
    entry i when the division is not exact.  That raises NonIntegral, or
    InternalError when ``what`` names a map the theory guarantees to be
    integral.  This is the library's one triangular solver."""
    pows, last = _table(ar, comps), len(comps) + len(entries) - 1
    for w in entries:
        i = len(comps)
        s = _row(ar, pows, keep=i < last)
        try:
            x = ar.div_pi_power(w if s is None else ar.sub(w, s), i)
        except NonDivisible:
            if what:
                raise InternalError(
                    f"{what} failed to solve: {failure.format(i)}") from None
            raise NonIntegral(failure.format(i)) from None
        comps.append(x)
        pows.append(x)
    return comps


def _keep(v, cfg, rows):
    """rows, kept on v as its ghost (a tuple) when cfg is exact."""
    if cfg.torsion_free:
        rows = v._ghost = tuple(rows)
    return rows


def _rows(ar, v):
    if v._ghost is not None:
        return v._ghost
    return _keep(v, v.cfg, _ghost_rows(ar, [ar.unwrap(c) for c in v.comps]))


def _solve(ar, cfg, entries, what=None):
    comps = _solve_rows(ar, entries, [],
                        "ghost entry {} is not in the image of the ghost map",
                        what)
    v = WittVector(cfg, [ar.wrap(cfg, x) for x in comps])
    _keep(v, cfg, entries)
    return v


def ghost(v):
    ar = _arith(v.cfg)
    return GhostVector(ar.wrap(v.cfg, w) for w in _rows(ar, v))


def ghost_solve(g, cfg=None):
    """Invert the ghost map by the triangular exact-division recursion."""
    if cfg is None:
        cfg = g.entries[0].cfg
    if not cfg.torsion_free:
        raise TorsionBase("ghost_solve needs a pi-torsion-free exact base")
    ar = _arith(cfg)
    return _solve(ar, cfg, [ar.unwrap(cfg.convert(e)) for e in g.entries])


def _check_pair(u, v):
    if u.n != v.n:
        raise LengthMismatch(f"lengths {u.n} and {v.n} differ")
    if u.cfg != v.cfg:
        raise BaseMismatch("Witt vectors live over different rings")


def witt_add(u, v):
    _check_pair(u, v)
    ar = _arith(u.cfg, u.n)
    return _solve(ar, u.cfg, list(map(ar.add, _rows(ar, u), _rows(ar, v))))


def witt_mul(u, v):
    _check_pair(u, v)
    ar = _arith(u.cfg, u.n)
    return _solve(ar, u.cfg, list(map(ar.mul, _rows(ar, u), _rows(ar, v))))


def witt_neg(u):
    ar = _arith(u.cfg, u.n)
    return _solve(ar, u.cfg, list(map(ar.neg, _rows(ar, u))))


def witt_sub(u, v):
    return witt_add(u, witt_neg(v))


def witt_zero(cfg, n):
    return WittVector(cfg, (cfg.zero(),) * (n + 1))


def truncate(v):
    if v.n < 1:
        raise ZeroLength("cannot truncate a length-1 Witt vector")
    return WittVector(v.cfg, v.comps[:-1])


def frobenius(v):
    return frobenius_iter(v, 1)


def frobenius_iter(v, k):
    """F^k: the ghost of v shifted left by k entries, solved once."""
    if k <= 0:
        return v
    if k > v.n:
        raise ZeroLength(f"Frobenius needs length >= {k + 1}")
    ar = _arith(v.cfg, v.n)
    return _solve(ar, v.cfg, _rows(ar, v)[k:], "Frobenius ghost shift")


def verschiebung(v, times=1):
    """V^times; its ghost is <0, .., 0, pi^times w_0, pi^times w_1, ..>."""
    if times < 0:
        raise BadLength(f"Verschiebung needs times >= 0, got {times}")
    cfg = v.cfg
    out = WittVector(cfg, (cfg.zero(),) * times + v.comps)
    if v._ghost is not None:
        ar = _arith(cfg)
        scale = ar.pow(ar.pi, times)
        out._ghost = ((ar.zero,) * times
                      + tuple(ar.mul(scale, w) for w in v._ghost))
    return out


def teichmuller(b, n):
    cfg = b.cfg
    return WittVector(cfg, (b,) + (cfg.zero(),) * n)


def mult_pi(v):
    """The unique map whose ghost is entrywise multiplication by pi."""
    ar = _arith(v.cfg, v.n)
    entries = [ar.mul(ar.pi, w) for w in _rows(ar, v)]
    return _solve(ar, v.cfg, entries, "(pi) map")


def _phi_chain(ar, x, count):
    """x, phi(x), ..., phi^(count-1)(x): the ghost of exp_delta(x)."""
    chain = [x]
    while len(chain) < count:
        chain.append(ar.phi(chain[-1]))
    return chain


def _check_fixed(r, what):
    """The structure map needs phi(pi) = pi for a scalar r that phi moves."""
    if r.cfg.phi_pi is not None and r.phi() != r:
        raise ConfigUnsupported(
            f"{what} needs phi(pi) = pi when phi moves the scalar {r!r}")


def scalar_mul(r, v):
    """The structure-map image of r times v: the ghost of v scaled
    entrywise by phi^i(r) (if phi moves r, solved only where it can be)."""
    ar = _arith(v.cfg, v.n)
    chain = _phi_chain(ar, ar.unwrap(ar.cover.convert(r)), v.n + 1)
    try:
        return _solve(ar, v.cfg, list(map(ar.mul, chain, _rows(ar, v))))
    except NonIntegral:
        _check_fixed(r, "scalar multiplication")
        raise


def exp_delta(r, n):
    """The unique vector with ghost <r, phi(r), ..., phi^n(r)>."""
    cfg = r.cfg
    if not cfg.torsion_free:
        raise TorsionBase("exp_delta needs an exact base")
    _check_fixed(r, "exp_delta")
    ar = _arith(cfg)
    return _solve(ar, cfg, _phi_chain(ar, ar.unwrap(r), n + 1), "exp_delta")


def delta(r):
    """(phi(r) - r^q) / pi, the pi-derivation attached to the lift."""
    return (r.phi() - r ** r.cfg.q).div_pi()


# ----------------------------------------------------------------------
# universal structure polynomials


_MEMO = {}


def _cache_dir():
    root = os.environ.get("WITTLAB_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "wittlab"


def _cache_key(op, n, cfg):
    payload = {"op": op, "n": n, "p": cfg.p,
               "modulus": list(cfg.modulus) if cfg.modulus else None,
               "phi_pi": list(cfg.phi_pi) if cfg.phi_pi else None}
    blob = json.dumps(payload, sort_keys=True)
    return payload, hashlib.sha256(blob.encode()).hexdigest()


def _budget_check(polys):
    total = sum(len(p.terms) for p in polys)
    if total > TERM_BUDGET:
        raise BudgetExceeded(
            f"symbolic expansion hit {total} terms (budget {TERM_BUDGET})")


def _write_cache(out, payload, polys):
    """The bytes of json.dump(payload + {"polys": encoded polys}, out,
    sort_keys=True), one polynomial at a time: a constant by the encoder,
    terms from the sorted term dict, names in json's key order (x10, x2)."""
    dumps, write = json.JSONEncoder(sort_keys=True).encode, out.write
    write(dumps(dict(payload, polys=[]))[:-2])  # "polys" is the last key
    for i, poly in enumerate(polys):
        cfg, sep = poly.cfg, ", " if i else ""
        if poly.is_constant():
            write(sep + dumps(encode_element(poly)))
            continue
        names = sorted((v, k, dumps(v) + ": ") for k, v in enumerate(cfg.vars))
        write(sep + '{"terms": [' + ", ".join(
            '{"coeff": %s, "monomial": {%s}}' % (   # str() of ints is json
                _encode_coeff(cfg, c),
                ", ".join(name + str(m[k]) for _, k, name in names if m[k]))
            for m, c in sorted(poly.terms.items())) + "]}")
    write("]}")


_UNIVERSAL = {"sum": witt_add, "prod": witt_mul, "frobenius": frobenius,
              "mult_pi": mult_pi}


def universal_polynomials(op, n, p=None, cfg=None):
    """Exact structure polynomials in x_0..x_n (and y_0..y_n for binary
    ops), computed once by symbolic ghost-solve and cached on disk.  A
    cache file is a hit only when it stores this request's op, n, p,
    modulus and phi_pi and one polynomial per output coordinate."""
    if op not in _UNIVERSAL:
        raise WittlabError(f"unknown universal operation {op!r}")
    if n < 0:
        raise WittlabError("n must be >= 0")
    if op == "frobenius" and n < 1:
        raise WittlabError("frobenius polynomials need n >= 1")
    if cfg is None:
        if p is None:
            raise WittlabError("need p or cfg")
        cfg = make_ring_config({"p": p})
    base = cfg.base_exact()
    payload, digest = _cache_key(op, n, base)
    memo_key = (op, n, base.key)
    if memo_key in _MEMO:
        return _MEMO[memo_key]

    xs = [f"x{i}" for i in range(n + 1)]
    ys = [f"y{i}" for i in range(n + 1)] if op in ("sum", "prod") else []
    sym = base.adjoin(xs + ys)

    path = _cache_dir() / f"{op}-n{n}-p{base.p}-{digest[:16]}.json"
    if path.exists():
        try:
            data = json.loads(path.read_text())
            encs = data["polys"]
            if (data == dict(payload, polys=encs)
                    and len(encs) == n + (op != "frobenius")):
                polys = [decode_element(sym, enc) for enc in encs]
                _MEMO[memo_key] = polys
                return polys
        except (OSError, ValueError, LookupError, TypeError, WittlabError):
            pass    # a corrupt cache file is a miss: recompute, rewrite

    vecs = [WittVector(sym, [sym.var(v) for v in vs]) for vs in (xs, ys) if vs]
    polys = list(_UNIVERSAL[op](*vecs).comps)
    _budget_check(polys)

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.NamedTemporaryFile("w", dir=path.parent, delete=False,
                                      suffix=".tmp")
    try:
        _write_cache(tmp, payload, polys)
        tmp.close()
        os.replace(tmp.name, path)
    finally:
        if os.path.exists(tmp.name):
            os.unlink(tmp.name)
    _MEMO[memo_key] = polys
    return polys
