"""Exact arithmetic for the base rings everything else is generic over.

Supported rings: the integers with pi = p; monogenic orders Z[x]/(f) with f
monic, Eisenstein at p and f(0) = ±p, uniformized by the class of x;
multivariate polynomial extensions of either (for symbolic verification);
and pi-power truncations R/pi^N.  Elements are kept in a canonical form so
equality is a representation comparison.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import add, lshift, mod as mod_, mul as mul_, neg, sub

from .errors import (
    BadFrobeniusLift,
    BaseMismatch,
    BudgetExceeded,
    DuplicateName,
    InternalError,
    NonDivisible,
    RejectedModulus,
    TorsionBase,
    WittlabError,
)

INFINITY = math.inf


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class RingConfig:
    """Immutable description of one arithmetic context.

    Coefficients of the underlying order are stored as integer tuples of
    length ``d`` in the power basis of pi; polynomial elements map exponent
    tuples (one slot per adjoined variable) to such coefficients.
    """

    def __init__(self, p, modulus=None, phi_pi=None, trunc=0, variables=()):
        if not isinstance(p, int) or not _is_prime(p):
            raise RejectedModulus(f"p={p!r} is not a prime integer")
        self.p = p
        self.q = p
        if modulus is not None:
            modulus = tuple(int(c) for c in modulus)
            self._check_modulus(p, modulus)
            self.d = len(modulus) - 1
        else:
            self.d = 1
        self.modulus = modulus
        trunc = int(trunc)
        if trunc < 0:
            raise WittlabError("truncation exponent must be >= 0")
        self.trunc = trunc
        variables = tuple(str(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise DuplicateName(f"duplicate adjoined variable in {variables}")
        self.vars = variables
        self.nvars = len(variables)
        if phi_pi is not None:
            if modulus is None:
                raise BadFrobeniusLift("phi_pi only applies to order configs")
            phi_pi = tuple(int(c) for c in phi_pi)
            if len(phi_pi) != self.d:
                raise BadFrobeniusLift("phi_pi must have d coordinates")
            if phi_pi == self._pi_coeff():
                phi_pi = None
        self.phi_pi = phi_pi
        self.torsion_free = self.trunc == 0
        self._mods = None   # f(phi(pi)) = 0 is checked on the exact order
        self._validate_phi()
        # p = pi^d * unit, so e = d and, with N = kd + r, pi^N Z[pi] is
        # p^(k+1) Z^r + p^k Z^(d-r) in the power basis: one modulus a slot,
        # by which truncated products reduce.  A residue mod pi^(N+L) decides
        # division by pi^i, i <= L (Caruso, arXiv:1701.06794)
        self.e = self.d
        k, r = divmod(trunc, self.d)
        self._mods = (tuple(p ** (k + 1) if i < r else p ** k
                            for i in range(self.d)) if trunc else None)
        self.psi_integral = self.e <= p - 2
        self.key = (self.p, self.modulus, self.phi_pi, self.trunc, self.vars)
        self.base_key = (self.p, self.modulus, self.phi_pi)

    @staticmethod
    def _check_modulus(p, modulus):
        d = len(modulus) - 1
        if d < 2:
            raise RejectedModulus("modulus must have degree >= 2")
        if modulus[-1] != 1:
            raise RejectedModulus("modulus must be monic")
        for c in modulus[:-1]:
            if c % p != 0:
                raise RejectedModulus(
                    f"modulus {modulus} is not Eisenstein at {p}")
        if abs(modulus[0]) != p:
            raise RejectedModulus(
                f"constant term of {modulus} must be ±{p}")

    # ------------------------------------------------------------------
    # coefficient arithmetic (integer tuples of length d, power basis of pi)

    def czero(self):
        return (0,) * self.d

    def cone(self):
        return (1,) + (0,) * (self.d - 1)

    def cfrom_int(self, n):
        return (int(n),) + (0,) * (self.d - 1)

    def _pi_coeff(self):
        if self.modulus is None:
            return (self.p,)
        return (0, 1) + (0,) * (self.d - 2)

    def cadd(self, a, b):
        return tuple(map(add, a, b))

    def csub(self, a, b):
        return tuple(map(sub, a, b))

    def cneg(self, a):
        return tuple(map(neg, a))

    def cmul(self, a, b):
        """a * b, reduced mod pi^N on a truncation; for d = 2, f = x^2 +
        m1 x + m0, the closed form (a0b0 - m0a1b1, a0b1 + a1b0 - m1a1b1)."""
        d, mods = self.d, self._mods
        if d == 1:
            return (a[0] * b[0] % mods[0],) if mods else (a[0] * b[0],)
        if d == 2:
            (a0, a1), (b0, b1), t = a, b, a[1] * b[1]
            c0 = a0 * b0 - self.modulus[0] * t
            c1 = a0 * b1 + a1 * b0 - self.modulus[1] * t
            return (c0 % mods[0], c1 % mods[1]) if mods else (c0, c1)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            t, conv[k] = conv[k], 0
            for j in range(d):
                conv[k - d + j] -= t * self.modulus[j]
        return self.creduce(tuple(conv[:d]))

    def csqr(self, a):
        """a * a; for d = 2 the closed form (a0^2 - m0a1^2, 2a0a1 - m1a1^2):
        three bigint products, two of them squarings."""
        if self.d != 2:
            return self.cmul(a, a)
        (a0, a1), t, mods = a, a[1] * a[1], self._mods
        c0 = a0 * a0 - self.modulus[0] * t
        c1 = (a0 * a1 << 1) - self.modulus[1] * t
        return (c0 % mods[0], c1 % mods[1]) if mods else (c0, c1)

    def cpow(self, a, e):
        """a^e by square-and-multiply through ``csqr`` and ``cmul``."""
        if e <= 1:
            return a if e else self.cone()
        half = self.cpow(self.csqr(a), e >> 1)
        return self.cmul(half, a) if e & 1 else half

    def cphi(self, a):
        return a if self.phi_pi is None else self._at_phi_pi(a)

    def _at_phi_pi(self, coeffs):
        """sum_i coeffs[i] phi(pi)^i, by Horner."""
        res = self.czero()
        for c in reversed(coeffs):
            res = self.cadd(self.cmul(res, self.phi_pi), self.cfrom_int(c))
        return res

    def cdivpi(self, a):
        if not self.torsion_free:
            raise TorsionBase("exact division by pi needs an exact config")
        if self.d == 1:
            q, r = divmod(a[0], self.p)
            if r:
                raise NonDivisible(f"integer not divisible by {self.p}")
            return (q,)
        c0 = self.modulus[0]
        q, r = divmod(a[0], c0)
        if r:
            raise NonDivisible("coefficient not divisible by pi")
        t = -q
        b = [0] * self.d
        b[self.d - 1] = t
        for j in range(1, self.d):
            b[j - 1] = a[j] + t * self.modulus[j]
        return tuple(b)

    def cdivint(self, a, k):
        out = []
        for x in a:
            q, r = divmod(x, k)
            if r:
                raise NonDivisible(f"coefficient not divisible by {k}")
            out.append(q)
        return tuple(out)

    def cval(self, a):
        """pi-adic valuation of a coefficient; INFINITY for zero."""
        if not any(a):
            return INFINITY
        v = 0
        while True:
            try:
                a = self.cdivpi(a)
            except NonDivisible:
                return v
            v += 1

    def creduce(self, a):
        """The canonical residue of a mod pi^N: each power-basis slot mod
        its modulus; for d = 1 that is a_0 mod p^N."""
        if self._mods is None:
            return a
        if self.d == 1:
            return (a[0] % self._mods[0],)
        return tuple(map(mod_, a, self._mods))

    def _validate_phi(self):
        # phi must be a well defined endomorphism: f(phi(pi)) = 0.  A root
        # of the Eisenstein f has phi(pi)^d in p Z[pi], inside the prime
        # pi Z[pi], so phi(pi) = 0 = pi^q mod pi follows.
        if self.phi_pi is not None and any(self._at_phi_pi(self.modulus)):
            raise BadFrobeniusLift(
                "phi_pi is not a root of the defining modulus")

    # ------------------------------------------------------------------
    # element constructors

    def _make(self, terms):
        """Canonicalize a raw {exponent tuple: coeff tuple} dict: reduce
        each coefficient (on a truncation) and drop the zeros, in one pass."""
        if self._mods is None:
            return RingElement(self, {m: c for m, c in terms.items()
                                      if any(c)})
        red = self.creduce
        return RingElement(self, {m: r for m, c in terms.items()
                                  if any(r := red(c))})

    def _wrap(self, terms):
        """A term dict with no zero coefficient as an element; only a
        truncation copies it, to reduce the coefficients."""
        return (RingElement(self, terms) if self._mods is None
                else self._make(terms))

    def zero(self):
        return RingElement(self, {})

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return self._make({(0,) * self.nvars: self.cfrom_int(n)})

    def from_coeff(self, coeff):
        coeff = tuple(int(c) for c in coeff)
        if len(coeff) != self.d:
            raise WittlabError(f"coefficient needs {self.d} coordinates")
        return self._make({(0,) * self.nvars: coeff})

    def pi_elem(self):
        return self._make({(0,) * self.nvars: self._pi_coeff()})

    def var(self, name):
        if name not in self.vars:
            raise WittlabError(f"unknown variable {name!r}")
        mono = tuple(1 if v == name else 0 for v in self.vars)
        return self._make({mono: self.cone()})

    # ------------------------------------------------------------------
    # derived configs and coercion

    def adjoin(self, names):
        return _config(self.p, self.modulus, self.phi_pi, self.trunc,
                       self.vars + tuple(names))

    def truncated(self, n):
        return _config(self.p, self.modulus, self.phi_pi, n, self.vars)

    def exact_cover(self):
        if self.torsion_free:
            return self
        return _config(self.p, self.modulus, self.phi_pi, 0, self.vars)

    def base_exact(self):
        return _config(self.p, self.modulus, self.phi_pi, 0, ())

    def compatible(self, other):
        return self.base_key == other.base_key

    def convert(self, elem):
        """Map an element of a compatible config into this one.

        Exact-to-truncated is the quotient map; truncated-to-exact is the
        canonical set-theoretic lift.  The source's variables must all be
        present here.
        """
        src = elem.cfg
        if src is self:
            return elem
        if not self.compatible(src):
            raise BaseMismatch(f"cannot coerce between {src!r} and {self!r}")
        positions = []
        for v in src.vars:
            if v not in self.vars:
                raise WittlabError(
                    f"variable {v!r} is absent from the target config")
            positions.append(self.vars.index(v))
        terms = {}
        for mono, coeff in elem.terms.items():
            new = [0] * self.nvars
            for pos, exp in zip(positions, mono):
                new[pos] = exp
            terms[tuple(new)] = coeff
        return self._make(terms)

    # ------------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, RingConfig) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        bits = [f"p={self.p}"]
        if self.modulus is not None:
            bits.append(f"modulus={list(self.modulus)}")
        if self.trunc:
            bits.append(f"trunc={self.trunc}")
        if self.vars:
            bits.append(f"vars={list(self.vars)}")
        return f"RingConfig({', '.join(bits)})"


_CONFIG_CACHE = {}


def _config(p, modulus, phi_pi, trunc, variables):
    key = (p, modulus, phi_pi, trunc, tuple(variables))
    cfg = _CONFIG_CACHE.get(key)
    if cfg is None:
        cfg = RingConfig(p, modulus, phi_pi, trunc, variables)
        _CONFIG_CACHE[key] = cfg
    return cfg


class RingElement:
    """Canonical multivariate polynomial over the config's order."""

    __slots__ = ("cfg", "terms")

    def __init__(self, cfg, terms):
        self.cfg = cfg
        self.terms = terms

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(m) for m in self.terms)

    def const_coeff(self):
        zero_mono = (0,) * self.cfg.nvars
        return self.terms.get(zero_mono, self.cfg.czero())

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.cfg is self.cfg or other.cfg == self.cfg:
                return other
            raise BaseMismatch(
                f"cannot coerce between {other.cfg!r} and {self.cfg!r}")
        if isinstance(other, int):
            return self.cfg.from_int(other)
        return NotImplemented

    def _merge(self, other, op, lone=None):
        """self op other, merged into a copy of self's terms."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            total = (op(terms[m], c) if m in terms
                     else c if lone is None else lone(c))
            if any(total):
                terms[m] = total
            else:
                del terms[m]
        return self.cfg._wrap(terms)

    def __add__(self, other):
        return self._merge(other, self.cfg.cadd)

    __radd__ = __add__

    def __neg__(self):
        cfg = self.cfg
        return cfg._wrap({m: cfg.cneg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._merge(other, self.cfg.csub, self.cfg.cneg)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _product(self.cfg, self.terms, other.terms)

    __rmul__ = __mul__

    def __pow__(self, exp):
        if not isinstance(exp, int) or exp < 0:
            raise WittlabError("exponent must be a nonnegative integer")
        cfg = self.cfg
        if exp <= 1:
            return self if exp else cfg.one()
        if len(self.terms) <= 1:    # a monomial power in closed form
            return cfg._make({tuple(e * exp for e in m): cfg.cpow(c, exp)
                              for m, c in self.terms.items()})
        half = (self * self) ** (exp >> 1)
        return half * self if exp & 1 else half

    # -- ring-specific operations --------------------------------------

    def phi(self):
        """Apply the configured Frobenius lift (variables go to q-th powers)."""
        cfg = self.cfg
        q = cfg.q
        terms = {}
        for m, c in self.terms.items():
            terms[tuple(e * q for e in m)] = cfg.cphi(c)
        return cfg._make(terms)

    def phi_power(self, k):
        out = self
        for _ in range(k):
            out = out.phi()
        return out

    def div_pi(self):
        cfg = self.cfg
        return cfg._wrap({m: cfg.cdivpi(c) for m, c in self.terms.items()})

    def div_int(self, k):
        cfg = self.cfg
        return cfg._wrap({m: cfg.cdivint(c, k) for m, c in self.terms.items()})

    def pi_val(self):
        if not self.cfg.torsion_free:
            raise TorsionBase("valuation needs an exact config")
        if not self.terms:
            return INFINITY
        return min(self.cfg.cval(c) for c in self.terms.values())

    def truncate_degree(self, max_deg):
        terms = {m: c for m, c in self.terms.items() if sum(m) <= max_deg}
        return self.cfg._make(terms)

    # -- dunder plumbing -----------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.cfg.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.cfg == other.cfg and self.terms == other.terms

    def __hash__(self):
        return hash((self.cfg.key, tuple(self._sorted_terms())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, coeff in self._sorted_terms():
            if self.cfg.d == 1:
                cs = str(coeff[0])
            else:
                cs = "(" + "+".join(
                    f"{c}*pi^{i}" if i else str(c)
                    for i, c in enumerate(coeff) if c) + ")"
            vs = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.cfg.vars, mono) if e)
            bits.append(cs + ("*" + vs if vs else ""))
        return " + ".join(bits)


def _packing(n, top):
    """(width, pack, unpack): pack maps monomials of n exponents up to top
    to ints in fields of top.bit_length() bits (Monagan & Pearce, CASC
    2007), whole bytes through bytes(), and unpack maps them back."""
    width = top.bit_length()
    if width <= 8:
        return (8, lambda ms: map(int.from_bytes, map(bytes, ms),
                                  repeat("little")),
                lambda ks: map(tuple, map(int.to_bytes, ks, repeat(n),
                                          repeat("little"))))
    shifts, mask = range(0, width * n, width), (1 << width) - 1
    return (width, lambda ms: (sum(map(lshift, m, shifts)) for m in ms),
            lambda ks: (tuple(k >> s & mask for s in shifts) for k in ks))


ORBIT_MIN = 64     # smaller squares lose more to orbit bookkeeping (README)


def check_budget(total, budget):
    """Raise BudgetExceeded when an expansion holds over budget terms."""
    if total > budget:
        raise BudgetExceeded(f"symbolic expansion hit {total} terms "
                             f"(budget {budget})")


def _mul_into(cfg, out, a, b, scale, packing, budget=INFINITY):
    """Add scale * a * b (term dicts; scale None is 1) into out, keyed by
    monomials packed by ``packing``, holding len(out) to ``budget`` once
    per outer step.  A square takes the half-loop, or, when its factor
    has ORBIT_MIN terms or more and is invariant under swapping the two
    halves of the variables (S_i(x, y) = S_i(y, x) is), one pair per
    orbit of {swap, commutation}: each term a < swap(a), followed by its
    mirror, pairs with itself, the mirror and all after it into ``half``,
    added at k and at swap(k); a fixed term with the fixed terms after
    it, into out."""
    if len(a) > len(b):
        a, b = b, a
    width, pack, _ = packing
    d1, sq, hw, half = cfg.d == 1, a is b, cfg.nvars // 2 * width, {}
    mul, plus, zero = ((mul_, add, 0) if d1
                       else (cfg.cmul, cfg.cadd, cfg.czero()))
    coeffs = (lambda t: [c for c, in t.values()]) if d1 else dict.values
    pa = [*zip(pack(a), coeffs(a))]
    pb = pa if sq else [*zip(pack(b), coeffs(b))]
    steps = ((ka, ca, pb[i + 1:] if sq else pb, out, None)
             for i, (ka, ca) in enumerate(pa))
    swap = lambda k: k >> hw | (k & (1 << hw) - 1) << hw    # noqa: E731
    find = (dict(pa).get if sq and not cfg.nvars & 1 and len(pa) >= ORBIT_MIN
            else None)
    if find and all(find(swap(k)) == c for k, c in pa):
        fixed = [t for t in pa if t[0] == swap(t[0])]
        pb = [t for k, c in pa if k < swap(k)
              for t in ((k, c), (swap(k), c))] + fixed
        r = len(pb) - len(fixed)
        steps = chain(((*pb[i], pb[i + 2:], half, pb[i + 1][0])
                       for i in range(0, r, 2)),
                      ((*pb[i], pb[i + 1:], out, None)
                       for i in range(r, len(pb))))
    for ka, ca, inner, tgt, kc in steps:
        check_budget(len(tgt), budget)
        get, sa = tgt.get, ca if scale is None else mul(scale, ca)
        if sq:
            for k in (ka + ka,) if kc is None else (ka + ka, ka + kc):
                tgt[k] = plus(get(k, zero), mul(sa, ca))
            sa = plus(sa, sa)
        for kb, cb in inner:
            k = ka + kb
            tgt[k] = plus(get(k, zero), mul(sa, cb))
    get, low = out.get, (1 << hw) - 1
    for k, c in half.items():
        out[k] = plus(get(k, zero), c)
        k = k >> hw | (k & low) << hw
        out[k] = plus(get(k, zero), c)


def _product(cfg, a, b):
    """The product of two term dicts.  A one-term factor shifts the other's
    monomials; otherwise _mul_into fills a fresh dict, unpacked once."""
    if len(a) > len(b):
        a, b = b, a
    d1, terms = cfg.d == 1, {}
    if len(a) == 1:
        (ma, ca), = a.items()
        monos = [tuple(map(add, ma, mb)) for mb in b] if any(ma) else b
        terms = dict(zip(monos, [(ca[0] * cb[0],) for cb in b.values()]
                         if d1 else [cfg.cmul(ca, cb) for cb in b.values()]))
    elif a:
        packing = _packing(cfg.nvars, max(map(max, a)) + max(map(max, b)))
        out = {}
        _mul_into(cfg, out, a, b, None, packing)
        terms = {m: (c,) if d1 else c for m, c in zip(packing[2](out),
                                                      out.values())
                 if (c if d1 else any(c))}
    return cfg._wrap(terms)


class Frac:
    """Numerator/denominator pair with a positive integer denominator.

    Only built and read (no arithmetic) for formal-group logarithm
    coefficient streams; these values never enter Witt-vector components.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if den == 0:
            raise WittlabError("zero denominator")
        if den < 0:
            num, den = -num, -den
        if den != 1 and num.terms:
            g = den
            for coeff in num.terms.values():
                for c in coeff:
                    g = math.gcd(g, c)
            if g > 1:
                num = num.div_int(g)
                den //= g
        if not num.terms:
            den = 1
        self.num = num
        self.den = den

    @property
    def cfg(self):
        return self.num.cfg

    def pi_val(self):
        den_val = self.cfg.from_int(self.den).pi_val()
        return self.num.pi_val() - den_val

    def __eq__(self, other):
        if not isinstance(other, Frac):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        return f"({self.num!r})/{self.den}"


# ----------------------------------------------------------------------
# config construction


def _json_int(x, what):
    """x when it is an integer; a JSON float or boolean is rejected, never
    truncated."""
    if type(x) is not int:
        raise WittlabError(f"{what} must be an integer, got {x!r}")
    return x


def make_ring_config(spec):
    """Build a validated config from a plain description dict.

    Keys: ``p`` (required), ``modulus`` (coefficient list, lowest first,
    or None), ``phi_pi`` ("pi" or a coefficient list), ``trunc`` (int,
    0 = exact), ``vars`` (list of names).  A malformed spec raises
    WittlabError.
    """
    if not isinstance(spec, dict) or "p" not in spec:
        raise WittlabError(f"ring spec {spec!r} needs an object with 'p'")
    phi_pi = spec.get("phi_pi", "pi")
    try:
        trunc = _json_int(spec.get("trunc", 0), "trunc")
        modulus = tuple(_json_int(c, "a modulus coefficient")
                        for c in spec.get("modulus") or ()) or None
        phi_pi = (tuple(_json_int(c, "a phi_pi coefficient") for c in phi_pi)
                  if phi_pi and phi_pi != "pi" else None)
        names = spec.get("vars", [])
        if type(names) is not list or not all(type(v) is str for v in names):
            raise TypeError("vars must be a list of strings")
    except (TypeError, ValueError) as exc:
        raise WittlabError(f"malformed ring spec {spec!r}: {exc}") from None
    return _config(spec["p"], modulus, phi_pi, trunc, tuple(names))


def c_pi(x, y):
    """Universal carry term (x^q + y^q - (x+y)^q) / pi."""
    q = x.cfg.q
    try:
        return (x ** q + y ** q - (x + y) ** q).div_pi()
    except NonDivisible as exc:  # pragma: no cover - binomial divisibility
        raise InternalError(f"carry term not divisible by pi: {exc}")
