"""Length-(n+1) Witt vectors over a base ring: ghost calculus, the ring
structure, T / F / V, Teichmuller lifts, the multiplication-by-pi map,
the universal exponential for the delta structure, and symbolic generation
of the universal structure polynomials (with a disk cache).  W_n(B) is
W_[-1](n+1)(B): a shifted ring with an empty head and R = B's exact cover,
so WittVector (n its last index) and ShiftedWittVector (n its tail length)
share one vector core here, with its rows, solve and entrywise rule."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
import os
import struct
from pathlib import Path

from .errors import (
    BadLength,
    BaseMismatch,
    ConfigUnsupported,
    InternalError,
    LengthMismatch,
    NonDivisible,
    NonIntegral,
    TorsionBase,
    WittlabError,
    ZeroLength,
)
from .rings import (RingElement, _mul_into, _packing, check_budget,
                    make_ring_config)

TERM_BUDGET = 5_000_000


def _read(v):
    if callable(v._coords):     # pending: solved once, on first read
        v._coords = v._coords()
    return v._coords


class _Vector:
    """Coordinates 0..last of a shifted Witt vector: a head 0..m over R,
    empty when m = -1, and a tail m+1..last over B.  ``_coords`` holds
    their values (see ``_Arith``), canonical under each ring's residue
    rule, or a callable that solves them on first read; the public reads
    build elements.  When B is exact, ``_ghost`` keeps the ghost rows once
    they are known (see the ghost engine); equality and hashing compare
    the values and ignore it."""

    __slots__ = ("rcfg", "bcfg", "m", "last", "_coords", "_ghost")

    def _set(self, rcfg, bcfg, m, last, coords, rows=None):
        self.rcfg, self.bcfg, self.m, self.last = rcfg, bcfg, m, last
        self._coords, self._ghost = coords, rows
        return self

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.m == other.m and self.bcfg == other.bcfg
                and self.rcfg == other.rcfg and _read(self) == _read(other))

    def __hash__(self):
        return hash((self.rcfg.key, self.bcfg.key, self.m, _read(self)))


def _vector(rcfg, bcfg, m, last, coords, rows=None):
    """The vector of shift m, a WittVector when m = -1, unchecked."""
    v = object.__new__(WittVector if m < 0 else ShiftedWittVector)
    return v._set(rcfg, bcfg, m, last, coords, rows)


class WittVector(_Vector):
    """Components (x_0 .. x_n) over one base ring B, n the last index."""

    __slots__ = ()
    cfg, n = _Vector.bcfg, _Vector.last     # the core's slots, renamed
    comps = property(lambda v: _codec(v.cfg).elements(_read(v)))

    def __init__(self, cfg, comps):
        comps = _codec(cfg).values(
            comps, "component ring differs from vector ring")
        if not comps:
            raise ZeroLength("a Witt vector needs at least one component")
        self._set(cfg.exact_cover(), cfg, -1, len(comps) - 1, comps)

    def __repr__(self):
        return "W(" + ", ".join(repr(c) for c in self.comps) + ")"

    def __reduce__(self):   # the coordinates (solved if pending), no rows
        return WittVector, (self.cfg, self.comps)


def _check_shape(rcfg, bcfg, m, heads):
    if m < 0 or heads != m + 1:
        raise LengthMismatch(f"head must have m+1={m + 1} entries")
    if not rcfg.torsion_free:
        raise WittlabError("the head ring R must be exact")
    if not bcfg.compatible(rcfg):
        raise BaseMismatch("B must be an algebra over the same R")


class ShiftedWittVector(_Vector):
    """Head (r_0..r_m) over R and tail (b_{m+1}..b_{m+n}) over B, m >= 0.
    Its ``n`` is its tail length."""

    __slots__ = ()

    def __init__(self, rcfg, bcfg, m, head, tail):
        head = tuple(head)
        _check_shape(rcfg, bcfg, m, len(head))
        xs = (_codec(rcfg).values(head, "head entry outside R")
              + _codec(bcfg).values(tail, "tail entry outside B"))
        self._set(rcfg, bcfg, m, len(xs) - 1, xs)

    n = property(lambda self: self.last - self.m)
    head = property(lambda v: _codec(v.rcfg).elements(_read(v)[:v.m + 1]))
    tail = property(lambda v: _codec(v.bcfg).elements(_read(v)[v.m + 1:]))

    def f(self, r):
        """Structure map R -> B."""
        return self.bcfg.convert(r)

    def __repr__(self):
        hs = ", ".join(repr(r) for r in self.head)
        ts = ", ".join(repr(b) for b in self.tail)
        return f"W[{self.m}]({hs}; {ts})"

    def __reduce__(self):   # the coordinates (solved if pending), no rows
        return ShiftedWittVector, (self.rcfg, self.bcfg, self.m, self.head,
                                   self.tail)


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

    def __hash__(self):
        return hash((self.entries, self.head_count))

    def __repr__(self):
        return "<" + ", ".join(repr(c) for c in self.entries) + ">"


# ----------------------------------------------------------------------
# the ghost engine
#
# Every operator is one ghost map, an entrywise rule on ghost coordinates
# and one triangular solve.  The engine works on the values a vector holds
# (see ``_Arith``) of an exact config or, over B/pi^N, of B/pi^(N+L) for
# a solve that divides by up to pi^L: by RingConfig's residue rule
# coordinate i is then right mod pi^(N+L-i), and the output keeps its
# residue mod pi^N, that of the exact result.  A residue mod pi^N is one
# mod pi^(N+L), so a constant enters the arithmetic as it is stored.
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
    """Ring operations and row kernels on the values of ``red``, an exact
    config or a truncation R/pi^prec whose products reduce by its pi^prec
    lattice; division by pi runs on ``cover``, red's exact cover.  The one
    place that decides a value's form (an int for d = 1, a coefficient
    tuple for d > 1, the element when red has variables) and its residue
    rule (``residues``); ``take`` reads a vector's values into it."""

    def __init__(self, red):
        self.red, self.cover = red, red.exact_cover()
        self.q = self.cover.q
        self.add, self.sub = operator.add, operator.sub
        self.mul, self.neg, self.pow = operator.mul, operator.neg, pow
        self.reduce, self.take, self.residues = (lambda a: a), list, tuple
        if red.nvars:
            self.zero, self.one, self.pi = red.zero(), red.one(), red.pi_elem()
            self.phi, self.reduce = RingElement.phi, red.convert
            self.value, self.element = red.convert, lambda x: x
            self.take = lambda xs: [*map(red.convert, xs)]
            self.coeff = _Arith(red.base_exact().truncated(red.trunc))
            self.row = self.term_row    # chosen once: polynomial rows
            self.solve_row = lambda *a: self.term_row(*a, div=True)
        elif red.d == 1:
            self.zero, self.one, self.pi = 0, 1, red.p
            self.phi = lambda a: a
            self.value = lambda e: e.terms.get((), (0,))[0]
            self.element = lambda x: RingElement(red, {(): (x,)} if x else {})
            if red.trunc:
                mod = red._mods[0]
                self.mul = lambda a, b: a * b % mod
                self.pow = lambda a, e: pow(a, e, mod)
                self.reduce = lambda a: a % mod
        else:
            zero = self.zero = red.czero()
            self.one, self.pi = red.cone(), red._pi_coeff()
            self.add, self.sub = red.cadd, red.csub
            self.mul, self.neg, self.pow = red.cmul, red.cneg, red.cpow
            self.phi, self.div_pi = red.cphi, self.cover.cdivpi
            self.value = lambda e: e.terms.get((), zero)
            self.element = lambda x: RingElement(
                red, {(): x} if any(x) else {})
            if red.trunc:
                self.reduce = red.creduce
            else:   # equal (value, exponent) pairs recur across solves
                self.pow = functools.lru_cache(maxsize=32)(red.cpow)
        if red.trunc or red.nvars:
            reduce = self.reduce
            self.residues = lambda xs: tuple(map(reduce, xs))

    def values(self, elems, what):
        """Elements of red as values; BaseMismatch (what) for another's."""
        elems = tuple(elems)
        if any(e.cfg != self.red for e in elems):
            raise BaseMismatch(what)
        return tuple(map(self.value, elems))

    def elements(self, xs):
        """Elements of red from values of red or of a finer truncation."""
        return tuple(map(self.element, self.residues(xs)))

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


def _codec(cfg, top=0):
    """The arithmetic of red for a solve over cfg dividing by up to pi^top,
    kept per red: cfg when it is exact, R/pi^(N+top) when cfg is R/pi^N."""
    prec = cfg.trunc + top if cfg.trunc else 0
    key = (cfg.base_key, cfg.vars, prec)
    return _ARITH.get(key) or _ARITH.setdefault(
        key, _Arith(cfg.truncated(prec)))


_arith = _codec     # the precision choice; _codec(cfg) reads cfg's values


def _ghost_rows(ar, xs, start=0):
    """Ghost entries start..len(xs)-1 of the coordinate values xs:
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


def _lift_head(hl, bl, head):
    """Head values of R's exact engine arithmetic as values of B's."""
    if hl.cover is bl.cover:
        return list(map(bl.reduce, head))
    return [bl.value(bl.red.convert(hl.element(x))) for x in head]


def _rows(bl, v):
    """The ghost rows of v: rows 0..m in R's engine arithmetic, the rest in
    bl, B's, in one pass when they share one (at m = -1 R's is not looked
    up); kept on v (a tuple) when B is exact."""
    if v._ghost is not None:
        return v._ghost
    xs, k = _read(v), v.m + 1
    hl = _arith(v.rcfg) if k else bl
    if hl is bl:
        rows = _ghost_rows(bl, bl.take(xs))
    else:
        head = hl.take(xs[:k])
        rows = _ghost_rows(hl, head) + _ghost_rows(
            bl, _lift_head(hl, bl, head) + bl.take(xs[k:]), k)
    if v.bcfg.torsion_free:
        rows = v._ghost = tuple(rows)
    return rows


def _solve(bl, cfg, entries, what=None, m=-1, rcfg=None):
    """The vector of shift m over R = rcfg (else B's exact cover) and B =
    cfg with ghost rows entries: 0..m in R's arithmetic, the rest in bl."""
    k = m + 1

    def solve():
        if not k:
            return _codec(cfg).residues(_solve_rows(
                bl, entries, [],
                "ghost entry {} is not in the image of the ghost map", what))
        hl = _arith(rcfg)
        head = _solve_rows(hl, entries[:k], [],
                           "head ghost entry {} does not solve", what)
        tail = _solve_rows(bl, entries[k:], _lift_head(hl, bl, head),
                           "tail ghost entry {} does not solve", what)[k:]
        return hl.residues(head) + _codec(cfg).residues(tail)

    return _vector(rcfg or bl.cover, cfg, m, len(entries) - 1,
                   solve if what and cfg.torsion_free else solve(),
                   tuple(entries) if cfg.torsion_free else None)


def ghost(v):
    return GhostVector(_codec(v.cfg).elements(_rows(_arith(v.cfg), v)))


def ghost_solve(g, cfg=None):
    """Invert the ghost map by the triangular exact-division recursion."""
    if not g.entries:
        raise ZeroLength("a Witt vector needs at least one component")
    if cfg is None:
        cfg = g.entries[0].cfg
    if not cfg.torsion_free:
        raise TorsionBase("ghost_solve needs a pi-torsion-free exact base")
    ar = _arith(cfg)
    return _solve(ar, cfg, [ar.value(cfg.convert(e)) for e in g.entries])


def _check_pair(u, v):
    if (u.m, u.last) != (v.m, v.last):
        raise LengthMismatch(f"lengths {u.n} and {v.n} differ" if u.m < 0 else
                             f"shapes ({u.m},{u.n}) and ({v.m},{v.n}) differ")
    if (u.bcfg, u.rcfg) != (v.bcfg, v.rcfg):
        raise BaseMismatch(f"{'Witt' if u.m < 0 else 'shifted'} vectors "
                           "live over different rings")


def _entrywise(op, u, v=None):
    """The vector whose ghost rows are the rows of u, and of v when given,
    combined entry by entry by op, an operation of the engine arithmetic:
    R's on rows 0..m, B's on the rest."""
    if v is not None:
        _check_pair(u, v)
    bl, k = _arith(u.bcfg, u.last), u.m + 1
    rows = (_rows(bl, u),) if v is None else (_rows(bl, u), _rows(bl, v))
    if not k:
        return _solve(bl, u.bcfg, list(map(getattr(bl, op), *rows)))
    entries = [*map(getattr(_arith(u.rcfg), op), *[r[:k] for r in rows]),
               *map(getattr(bl, op), *[r[k:] for r in rows])]
    return _solve(bl, u.bcfg, entries, None, u.m, u.rcfg)


def witt_add(u, v):
    return _entrywise("add", u, v)


def witt_mul(u, v):
    return _entrywise("mul", u, v)


def witt_neg(u):
    return _entrywise("neg", u)


def witt_sub(u, v):
    return witt_add(u, witt_neg(v))


def witt_zero(cfg, n):
    return WittVector(cfg, (cfg.zero(),) * (n + 1))


def truncate(v):
    if v.n < 1:
        raise ZeroLength("cannot truncate a length-1 Witt vector")
    return _vector(v.rcfg, v.cfg, -1, v.n - 1, _read(v)[:-1])


def frobenius(v):
    return frobenius_iter(v, 1)


def frobenius_iter(v, k):
    """F^k: the ghost of v shifted left by k entries, solved once."""
    if k <= 0:
        return v
    if k > v.n:
        raise ZeroLength(f"Frobenius needs length >= {k + 1}")
    return _ghost_shift(v, 0, k, "Frobenius ghost shift")


def _ghost_shift(v, at, k, what):
    """v's ghost rows less rows at..at+k-1, phi applied to the R rows before
    them, solved once: F^k and E_[m] at at = 0 (no R arithmetic looked up),
    the lateral F_[m] at at = m+1 (R is exact: zero head rows, zero head)."""
    bl = _arith(v.bcfg, v.last)
    rows = _rows(bl, v)
    entries = rows[k:]
    if at:
        hl = _arith(v.rcfg)
        if v.rcfg.phi_pi is not None and any(w != hl.zero for w in rows[:at]):
            raise ConfigUnsupported(
                f"{what} with a nonzero head needs phi(pi) = pi")
        entries = [*map(hl.phi, rows[:at]), *rows[at + k:]]
    m = v.m if at else v.m - k if v.m >= k else -1    # the R rows left
    return _solve(bl, v.bcfg, entries, what, m, v.rcfg)


def verschiebung(v, times=1):
    """V^times; its ghost is <0, .., 0, pi^times w_0, pi^times w_1, ..>."""
    if times < 0:
        raise BadLength(f"Verschiebung needs times >= 0, got {times}")
    ar, rows = _codec(v.cfg), None  # its components are read off v's
    if v._ghost is not None:    # then v.cfg is exact: ar is its arithmetic
        scale = ar.pow(ar.pi, times)
        rows = (ar.zero,) * times + tuple(ar.mul(scale, w) for w in v._ghost)
    return _vector(v.rcfg, v.cfg, -1, v.n + times,
                   lambda: (ar.zero,) * times + _read(v), rows)


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


def _structure_chain(hl, bl, r, k, count):
    """r, phi(r), ..., phi^(count-1)(r), the ghost rows of r's image under
    the structure map: rows below k in hl, R's arithmetic (r's exact cover
    is hl's), the rest lifted into bl, B's."""
    chain = [hl.value(hl.red.convert(r))]
    while len(chain) < count:
        chain.append(hl.phi(chain[-1]))
    return chain[:k] + _lift_head(hl, bl, chain[k:])


def _check_fixed(r, what):
    """The structure map needs phi(pi) = pi for a scalar r that phi moves."""
    if r.cfg.phi_pi is not None and r.phi() != r:
        raise ConfigUnsupported(
            f"{what} needs phi(pi) = pi when phi moves the scalar {r!r}")


def scalar_mul(r, v):
    """The structure-map image of r times v: the ghost of v scaled
    entrywise by phi^i(r) (if phi moves r, solved only where it can be)."""
    ar = _arith(v.cfg, v.n)
    chain = _structure_chain(ar, ar, r, v.n + 1, v.n + 1)
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
    return _solve(ar, cfg, _structure_chain(ar, ar, r, n + 1, n + 1),
                  "exp_delta")


def delta(r):
    """(phi(r) - r^q) / pi, the pi-derivation attached to the lift."""
    return (r.phi() - r ** r.cfg.q).div_pi()


# ----------------------------------------------------------------------
# universal structure polynomials


_MEMO = {}


def _cache_dir():
    return Path(os.environ.get("WITTLAB_CACHE_DIR")
                or Path.home() / ".cache" / "wittlab")


def _cache_key(op, n, cfg):
    payload = {"op": op, "n": n, "p": cfg.p,
               "modulus": list(cfg.modulus) if cfg.modulus else None,
               "phi_pi": list(cfg.phi_pi) if cfg.phi_pi else None}
    blob = json.dumps(payload, sort_keys=True)
    return payload, hashlib.sha256(blob.encode()).hexdigest()


def _write_slices(write, tuples, encode, sep=""):
    """write(encode(s)) for s each 4096 tuples chained into one iterator,
    sep between them, so no list or string of all of them ever forms."""
    it = iter(tuples)
    for k in range(0, len(tuples), 4096):
        write((sep if k else "") + encode(
            itertools.chain.from_iterable(itertools.islice(it, 4096))))


def _write_cache(out, payload, polys):
    """The bytes of json.dumps(dict(payload, polys=[[exps, coeffs], ..]),
    sort_keys=True): exps is the hex of a polynomial's exponent tuples in
    term dict order, one byte an exponent (8 little-endian bytes each if
    one exceeds 255), coeffs its coefficient tuples in that order."""
    write = out.write
    # the request and '"polys": [', as "polys" sorts after its keys
    write(json.dumps(dict(payload, polys=[]), sort_keys=True)[:-2])
    for i, poly in enumerate(polys):
        write(', ["' if i else '["')
        start = out.tell()
        try:
            _write_slices(write, poly.terms, lambda s: bytes(s).hex())
        except ValueError:      # bytes() refused an exponent above 255
            out.truncate(out.seek(start))
            _write_slices(write, poly.terms, lambda s: b"".join(
                e.to_bytes(8, "little") for e in s).hex())
        write('", [')
        _write_slices(write, poly.terms.values(),
                      lambda s: json.dumps(list(s))[1:-1], ", ")
        write("]]")
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
        check_budget(sum(len(coeffs) for _, coeffs in encs) // d, TERM_BUDGET)
        for exps, coeffs in encs:
            k = len(coeffs) // d    # the width follows from the hex length
            if len(exps) not in (2 * nv * k, 16 * nv * k):
                return None
            raw = bytes.fromhex(exps)
            if len(exps) > 2 * nv * k:      # 8 little-endian bytes each
                raw = struct.unpack(f"<{nv * k}Q", raw)
            terms = dict(zip(zip(*[iter(raw)] * nv),   # zip drops a short
                             zip(*[iter(coeffs)] * d)))  # tail, dict a repeat
            if not (len(terms) == k and len(coeffs) == d * k
                    and type(coeffs) is list and {*map(type, coeffs)} <= {int}
                    and zero not in terms.values()):
                return None
            polys.append(sym._wrap(terms))
    except (OSError, ValueError, LookupError, TypeError, RecursionError,
            struct.error):
        return None
    return polys


def _store(path, payload, polys):
    """Write the cache file atomically, through a temporary file that only
    this writer names, opened as open(path, "w") is (0o666 less the umask).
    A failed write (an OSError) leaves no temporary file and is a miss."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(8).hex()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x") as out:
            _write_cache(out, payload, polys)
        os.replace(tmp, path)
    except OSError:
        pass
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


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
        check_budget(sum(len(poly.terms) for poly in polys), TERM_BUDGET)
        _store(path, payload, polys)
    _MEMO[memo_key] = polys
    return polys
