"""Length-(n+1) Witt vectors over a base ring: ghost calculus, the ring
structure, T / F / V, Teichmuller lifts, the multiplication-by-pi map,
the universal exponential for the delta structure, and symbolic generation
of the universal structure polynomials (with a disk cache)."""

from __future__ import annotations

import functools
import hashlib
import itertools
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
from .rings import RingElement, _mul_into, _packing, make_ring_config

TERM_BUDGET = 5_000_000


def _pending(cls, solve, **slots):
    """An instance of cls whose coordinates solve() computes on first read."""
    v = object.__new__(cls)
    v._coords = solve
    for name, x in slots.items():
        setattr(v, name, x)
    return v


def _read(v):
    if callable(v._coords):     # pending: solved once, on first read
        v._coords = v._coords()
    return v._coords


class WittVector:
    """Components (x_0 .. x_n) over one base ring.  On an exact config
    ``_ghost`` keeps the unwrapped ghost rows once they are known (see
    the ghost engine); equality and hashing ignore it."""

    __slots__ = ("cfg", "n", "_coords", "_ghost")

    def __init__(self, cfg, comps):
        comps = tuple(comps)
        if not comps:
            raise ZeroLength("a Witt vector needs at least one component")
        for c in comps:
            if c.cfg != cfg:
                raise BaseMismatch("component ring differs from vector ring")
        self.cfg, self.n = cfg, len(comps) - 1
        self._coords = comps
        self._ghost = None

    comps = property(_read)

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return self.cfg == other.cfg and self.comps == other.comps

    def __hash__(self):
        return hash((self.cfg.key, self.comps))

    def __repr__(self):
        return "W(" + ", ".join(repr(c) for c in self.comps) + ")"

    def __reduce__(self):   # the coordinates (solved if pending), no rows
        return WittVector, (self.cfg, self.comps)


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
# and one triangular solve.  The engine works on unwrapped values (Python
# ints for d = 1, coefficient tuples for d > 1, RingElements when the
# config has adjoined variables) of an exact config or, over B/pi^N, of
# B/pi^(N+L) for a solve that divides by up to pi^L: by RingConfig's
# residue rule coordinate i is then right mod pi^(N+L-i), and wrapping
# reduces it to the residue mod pi^N of the exact result.
#
# On an exact config a solve's entries are the ghost of its output
# (w_i = sum_{j<i} pi^j x_j^(q^(i-j)) + pi^i x_i holds exactly), so the
# output keeps them as its rows, and a vector's ghost is computed at most
# once.  A truncated solve's entries are not the ghost of the reduced
# coordinates, and no vector over a truncated config keeps rows.
# On an exact config a map the theory guarantees (its solve names it
# ``what``) returns a pending vector, solved on the first read of its
# coordinates, where its InternalError surfaces; other solves run at once.


class _Arith:
    """Ring operations and row kernels on the unwrapped values of ``red``,
    an exact config or a truncation R/pi^prec whose products reduce by its
    pi^prec lattice; division by pi runs on ``cover``, red's exact cover."""

    def __init__(self, red):
        self.cover = cover = red.exact_cover()
        self.q = cover.q
        self.add, self.sub = operator.add, operator.sub
        self.mul, self.neg, self.pow = operator.mul, operator.neg, pow
        self.reduce = lambda a: a
        if red.nvars:
            self.zero, self.one, self.pi = red.zero(), red.one(), red.pi_elem()
            self.phi, self.unwrap = RingElement.phi, red.convert
            self.reduce, self.wrap = red.convert, lambda cfg, x: cfg.convert(x)
            self.coeff = _Arith(red.base_exact().truncated(red.trunc))
            self.row = self.term_row    # chosen once: polynomial rows
            self.solve_row = lambda *a: self.term_row(*a, div=True)
        elif cover.d == 1:
            self.zero, self.one, self.pi = 0, 1, cover.p
            self.phi = lambda a: a
            self.unwrap = lambda e: e.terms.get((), (0,))[0]
            self.wrap = lambda cfg, x: cfg._wrap({(): (x,)} if x else {})
            if red.trunc:
                mod = red._mods[0]
                self.mul = lambda a, b: a * b % mod
                self.pow = lambda a, e: pow(a, e, mod)
                self.reduce = lambda a: a % mod
                self.unwrap = lambda e: e.terms.get((), (0,))[0] % mod
        else:
            self.zero, self.one = red.czero(), red.cone()
            self.pi = red._pi_coeff()
            self.add, self.sub = red.cadd, red.csub
            self.mul, self.neg, self.pow = red.cmul, red.cneg, red.cpow
            self.phi, self.div_pi = red.cphi, cover.cdivpi
            self.unwrap = lambda e: e.terms.get((), self.zero)
            self.wrap = lambda cfg, x: cfg._wrap({(): x} if any(x) else {})
            if red.trunc:
                self.reduce = red.creduce
                self.unwrap = lambda e: red.creduce(e.terms.get((), self.zero))
            else:   # equal (value, exponent) pairs recur across solves
                self.pow = functools.lru_cache(maxsize=32)(red.cpow)

    def div_pi_power(self, a, k):
        """a / pi^k; NonDivisible when it is not exact.  For d = 1, pi = p
        and a is divided by p^k in one pass."""
        if self.cover.d > 1:
            for _ in range(k):
                a = self.div_pi(a)
            return a
        a, rem = divmod(a, self.pi ** k)
        if rem:
            raise NonDivisible(f"integer not divisible by {self.pi}^{k}")
        return a

    def table(self, xs):
        """The power table of the row after xs: x_j^(q^(len(xs)-1-j))."""
        k = len(xs) - 1
        return [self.pow(x, self.q ** (k - j)) for j, x in enumerate(xs)]

    def row(self, pows, x=None, keep=True):
        """Row i from the table pows[j] = x_j^(q^(i-1-j)), j < i, of row
        i-1: sum_{j<i} pi^j x_j^(q^(i-j)) (+ pi^i x), summed by Horner in pi
        from the top, so no pi^j is formed.  Each entry is raised to its
        q-th power once; ``keep`` stores the powers back as the table of
        row i, otherwise they are dropped as they are summed (a last row:
        its powers are the largest values of the whole computation)."""
        add, mul, pw, pi, q = self.add, self.mul, self.pow, self.pi, self.q
        acc = x
        for j in range(len(pows) - 1, -1, -1):
            y = pw(pows[j], q)
            if keep:
                pows[j] = y
            acc = y if acc is None else add(y, mul(pi, acc))
        return acc

    def solve_row(self, pows, w, keep):
        """(w - row i) / pi^i, row i summed by ``row``."""
        s = self.row(pows, keep=keep)
        return self.div_pi_power(w if s is None else self.sub(w, s), len(pows))

    def term_row(self, pows, x, keep, div=False):
        """``row`` of polynomials, or ``solve_row`` with ``div`` (x is w),
        summed into one dict of packed monomials: s_j y_j (s_j = pi^j, or
        -pi^j and 1 for w; an int for d = 1, a tuple of ``coeff`` for
        d > 1) goes in term by term for x, w and each kept (or one-term)
        q-th power y_j, and through _mul_into as s_j y^(q-1) y in a last
        row (a square for q = 2, as y ** 1 is y), so its largest powers
        never exist as elements.  One pass unpacks, divides by pi^i and
        drops zeros."""
        ca, i, q, red = self.coeff, len(pows), self.q, self.one.cfg
        _, pack, unpack = packing = _packing(red.nvars, max(
            [max(map(max, x.terms), default=0)]
            + [q * max(map(max, y.terms), default=0) for y in pows]))
        acc, d1, add, mul = {}, self.cover.d == 1, ca.add, ca.mul
        get, zero, sign = acc.get, ca.zero, ca.neg(ca.one) if div else ca.one
        for j in range(i, -1, -1):      # j = i: pi^i x, or w itself
            s = ca.one if div and j == i else mul(sign, ca.pow(ca.pi, j))
            if j < i and (keep or len(pows[j].terms) < 2):
                x = pows[j] = self.pow(pows[j], q)
            elif j < i:
                y = pows[j]
                _mul_into(red, acc, (y ** (q - 1)).terms, y.terms, s, packing,
                          TERM_BUDGET)
                continue
            for m, c in zip(pack(x.terms), x.terms.values()):
                acc[m] = add(get(m, zero), mul(s, c[0] if d1 else c))
        k, terms = i if div else 0, zip(unpack(acc), acc.values())
        if not d1:
            return red._wrap({m: ca.div_pi_power(c, k)
                              for m, c in terms if c != zero})
        pk = ca.pi ** k     # one division a term, into the wrapped tuple
        if k and any(c % pk for c in acc.values()):
            raise NonDivisible(f"integer not divisible by {pk}")
        return red._wrap({m: (c // pk,) for m, c in terms if c})


_ARITH = {}


def _arith(cfg, top=0):
    """The arithmetic of red for a solve over cfg dividing by up to pi^top,
    kept per red: cfg when it is exact, R/pi^(N+top) when cfg is R/pi^N."""
    prec = cfg.trunc + top if cfg.trunc else 0
    key = (cfg.base_key, cfg.vars, prec)
    if key not in _ARITH:
        _ARITH[key] = _Arith(cfg.truncated(prec))
    return _ARITH[key]


def _ghost_rows(ar, xs, start=0):
    """Ghost entries start..len(xs)-1 of the unwrapped coordinates xs:
    w_i = sum_j pi^j x_j^(q^(i-j))."""
    pows, rows, last = ar.table(xs[:start]), [], len(xs) - 1
    for i in range(start, len(xs)):
        rows.append(ar.row(pows, xs[i], i < last))
        pows.append(xs[i])
    return rows


def _solve_rows(ar, entries, comps, failure, what=None):
    """Extend the solved coordinates ``comps`` by one per ghost entry,
    x_i = (w_i - sum_{j<i} pi^j x_j^(q^(i-j))) / pi^i; ``failure`` names
    entry i when the division is not exact.  That raises NonIntegral, or
    InternalError when ``what`` names a map the theory guarantees to be
    integral.  This is the library's one triangular solver."""
    pows, last = ar.table(comps), len(comps) + len(entries) - 1
    for w in entries:
        i = len(comps)
        try:
            x = ar.solve_row(pows, w, i < last)
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
    def solve():
        return tuple(ar.wrap(cfg, x) for x in _solve_rows(
            ar, entries, [],
            "ghost entry {} is not in the image of the ghost map", what))

    if what and cfg.torsion_free:
        return _pending(WittVector, solve, cfg=cfg, n=len(entries) - 1,
                        _ghost=tuple(entries))
    v = WittVector(cfg, solve())
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
    cfg = v.cfg     # its components are read off v's when they are read
    out = _pending(WittVector, lambda: (cfg.zero(),) * times + v.comps,
                   cfg=cfg, n=v.n + times, _ghost=None)
    if v._ghost is not None:
        ar = _arith(cfg)
        scale = ar.pow(ar.pi, times)
        out._ghost = ((ar.zero,) * times
                      + tuple(ar.mul(scale, w) for w in v._ghost))
    return out


def teichmuller(b, n):
    if n < 0:
        raise BadLength(f"Teichmuller lift needs n >= 0, got {n}")
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
    if n < 0:
        raise BadLength(f"exp_delta needs n >= 0, got {n}")
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


def _budget_check(total):
    if total > TERM_BUDGET:
        raise BudgetExceeded(
            f"symbolic expansion hit {total} terms (budget {TERM_BUDGET})")


_BYTE_TEXT = [str(i) for i in range(256)]


def _write_ints(write, ints):
    """json.dumps(list(ints)) for an iterator of ints, written 4096 ints at
    a time, so no list or string of the whole forms (json.dump would run
    the pure-Python encoder): a chunk that bytes() takes (ints in 0..255,
    as exponents are) joins strings from a table, any other goes through
    the C encoder."""
    write("[")
    sep = ""
    while chunk := list(itertools.islice(ints, 4096)):
        try:
            text = ", ".join(map(_BYTE_TEXT.__getitem__, bytes(chunk)))
        except ValueError:
            text = json.dumps(chunk)[1:-1]
        write(sep + text)
        sep = ", "
    write("]")


def _write_cache(out, payload, polys):
    """The bytes of json.dumps(dict(payload, polys=[[exps, coeffs], ..]),
    sort_keys=True): exps chains a polynomial's exponent tuples in term
    dict order, coeffs its coefficient tuples in the same order."""
    write, chain = out.write, itertools.chain.from_iterable
    # the request and '"polys": [', as "polys" sorts after its keys
    write(json.dumps(dict(payload, polys=[]), sort_keys=True)[:-2])
    for i, poly in enumerate(polys):
        write(", [" if i else "[")
        _write_ints(write, chain(poly.terms))
        write(", ")
        _write_ints(write, chain(poly.terms.values()))
        write("]")
    write("]}")


def _read_cache(path, payload, count, sym):
    """The polynomials a cache file holds for this request, or None (a
    miss) when it is missing, corrupt or stores another request.  A set
    above TERM_BUDGET raises before any term dict is built."""
    nv, d, zero = sym.nvars, sym.d, sym.czero()
    try:
        data = json.loads(path.read_text())
        encs, polys = data["polys"], []
        if data != dict(payload, polys=encs) or len(encs) != count:
            return None
        _budget_check(sum(len(coeffs) for _, coeffs in encs) // d)
        for exps, coeffs in encs:
            terms = dict(zip(zip(*[iter(exps)] * nv),
                             zip(*[iter(coeffs)] * d)))
            k = len(terms)  # zip drops a ragged tail, dict a repeated key
            if not (len(exps) == nv * k and len(coeffs) == d * k
                    and type(exps) is type(coeffs) is list
                    and {*map(type, exps), *map(type, coeffs)} <= {int}
                    and min(exps, default=0) >= 0
                    and zero not in terms.values()):
                return None
            polys.append(sym._wrap(terms))
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        return None
    return polys


def _store(path, payload, polys):
    """Write the cache file atomically.  A write that fails (an OSError)
    leaves no temporary file and is a miss next time, not an error."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", dir=path.parent, delete=False,
                                         suffix=".tmp") as tmp:
            mask = os.umask(0o077)      # read the umask: open(path, "w")
            os.umask(mask)              # gives 0o666 & ~umask, not 0o600
            os.fchmod(tmp.fileno(), 0o666 & ~mask)
            _write_cache(tmp, payload, polys)
        os.replace(tmp.name, path)
    except OSError:
        pass
    finally:
        if tmp is not None and os.path.exists(tmp.name):
            os.unlink(tmp.name)


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
    polys = _read_cache(path, payload, n + (op != "frobenius"), sym)
    if polys is None:
        vecs = [WittVector(sym, [sym.var(v) for v in vs])
                for vs in (xs, ys) if vs]
        polys = list(_UNIVERSAL[op](*vecs).comps)
        _budget_check(sum(len(poly.terms) for poly in polys))
        _store(path, payload, polys)
    _MEMO[memo_key] = polys
    return polys
