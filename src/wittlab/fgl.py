"""One-dimensional commutative formal group laws to a working degree,
with logarithm and formal-inverse series.

A law is a finite coefficient table F(X,Y) = sum c_ij X^i Y^j.  The two
built-ins (additive X+Y and multiplicative X+Y+XY) are exact polynomial
laws, so their series expansions are valid to any degree; a custom table
is only trusted modulo degree D+1.
"""

from __future__ import annotations

import json

from .errors import (
    NotAssociative,
    NotCommutative,
    NotUnital,
    WittlabError,
)
from .rings import Frac, _json_int


DEFAULT_DEGREE = 16

BUILTIN_ADDITIVE = "builtin-additive"
BUILTIN_MULTIPLICATIVE = "builtin-multiplicative"
CUSTOM = "custom"


class FormalGroupLaw:
    """Coefficients c_{ij} (constants of one base config) with i+j <= D.
    The inverse and logarithm series are kept once computed, and extended
    when a longer prefix is asked for, and so are the Psi coefficients and
    the kernel series' coefficient chains.  ``source`` holds the
    ``load_fgl`` arguments of a loaded law, which it pickles as."""

    __slots__ = ("cfg", "degree", "coeffs", "tag", "source", "_inverse",
                 "_log_units", "_psi", "_chains")

    def __init__(self, cfg, degree, coeffs, tag=CUSTOM, source=None):
        self.cfg = cfg
        self.degree = degree
        self.coeffs = dict(coeffs)
        self.tag = tag
        self.source = source
        self._inverse, self._log_units = None, [cfg.one()]
        self._psi, self._chains = {}, {}
        _validate(self)

    @property
    def exact(self):
        """True when the coefficient table is the whole law, not a jet."""
        return self.tag in (BUILTIN_ADDITIVE, BUILTIN_MULTIPLICATIVE)

    @property
    def is_additive(self):
        return self.tag == BUILTIN_ADDITIVE

    def coeff(self, i, j):
        return self.coeffs.get((i, j), self.cfg.zero())

    def evaluate(self, x, y, max_degree=None):
        """F(x, y) in the ring of x and y, optionally truncated by total
        degree (for series work in polynomial rings): then each power of
        x and y is built from the one below and truncated, and so is each
        term."""
        tcfg = x.cfg

        def cap(e):
            return e if max_degree is None else e.truncate_degree(max_degree)

        acc, xpow, ypow = tcfg.zero(), [tcfg.one()], [tcfg.one()]
        for (i, j), c in sorted(self.coeffs.items()):
            for pows, base, k in ((xpow, x, i), (ypow, y, j)):
                while len(pows) <= k:
                    pows.append(cap(pows[-1] * base))
            acc = acc + cap(tcfg.convert(c) * xpow[i] * ypow[j])
        return acc

    def __repr__(self):
        return f"FormalGroupLaw({self.tag}, D={self.degree})"

    def __reduce__(self):   # a loaded law loads as the one load_fgl keeps
        return (load_fgl, self.source) if self.source else (
            FormalGroupLaw, (self.cfg, self.degree, self.coeffs, self.tag))


def _validate(law):
    cfg = law.cfg
    zero, one = cfg.zero(), cfg.one()
    if law.coeff(0, 0) != zero:
        raise NotUnital("F(0,0) must be 0")
    if law.coeff(1, 0) != one or law.coeff(0, 1) != one:
        raise NotUnital("F must be X + Y + (higher order)")
    for (i, j) in law.coeffs:
        if i + j > law.degree:
            raise WittlabError(f"coefficient ({i},{j}) beyond degree")
        if i < 0 or j < 0:
            raise WittlabError(f"negative exponent in coefficient ({i},{j})")
    for (i, j), c in law.coeffs.items():     # a missing c_ji reads as 0
        if c != law.coeff(j, i):
            i, j = max(i, j), min(i, j)
            raise NotCommutative(f"c_{i}{j} != c_{j}{i}")
    d = law.degree
    sym = cfg.adjoin(["_X", "_Y", "_Z"])
    x, y, z = sym.var("_X"), sym.var("_Y"), sym.var("_Z")
    fxy = law.evaluate(x, y, max_degree=d)
    fyz = law.evaluate(y, z, max_degree=d)
    left = law.evaluate(fxy, z, max_degree=d)
    right = law.evaluate(x, fyz, max_degree=d)
    if left != right:
        raise NotAssociative("F(F(X,Y),Z) != F(X,F(Y,Z)) mod degree "
                             f"{d + 1}")


_LAWS = {}


def load_fgl(source, cfg, degree=DEFAULT_DEGREE):
    """A builtin name ("ga" / "gm"), a parsed coefficient table, or a path
    to a JSON file {"degree": D, "coeffs": [{"i","j","c"}]}.

    A law is built and validated once per (name, cfg, degree), or (table
    as canonical JSON, cfg, degree), and that object is returned
    afterwards; a table is decoded on a miss, and kept only if valid."""
    if source in ("ga", "gm"):
        key = (source, cfg, degree)
        if key not in _LAWS:
            one = cfg.one()
            coeffs = {(1, 0): one, (0, 1): one}
            tag = BUILTIN_ADDITIVE
            if source == "gm":
                coeffs[(1, 1)], tag = one, BUILTIN_MULTIPLICATIVE
            _LAWS[key] = FormalGroupLaw(cfg, degree, coeffs, tag, key)
        return _LAWS[key]
    if isinstance(source, str):
        try:
            with open(source) as fh:
                source = json.load(fh)
        except OSError as exc:
            raise WittlabError(f"unknown group {source!r}: not ga, gm or a "
                               f"readable file ({exc.strerror})") from None
        except ValueError as exc:   # invalid JSON or text encoding
            raise WittlabError(f"invalid JSON in {source!r}: {exc}") from None
    if not isinstance(source, dict) or "coeffs" not in source:
        raise WittlabError(f"cannot load a formal group law from {source!r}")
    from .serialize import decode_element
    try:
        d = _json_int(source.get("degree", degree), "degree")
        key = (json.dumps(source, sort_keys=True, default=repr), cfg, d)
        if key in _LAWS:
            return _LAWS[key]
        coeffs = {}
        for entry in source["coeffs"]:
            i, j = (_json_int(entry[k], k) for k in "ij")
            if (i, j) in coeffs:
                raise WittlabError(f"malformed group table: ({i},{j}) twice")
            coeffs[(i, j)] = decode_element(cfg, entry["c"])
    except (LookupError, TypeError, ValueError) as exc:
        raise WittlabError(f"malformed group table: {exc!r}") from None
    _LAWS[key] = FormalGroupLaw(cfg, d, coeffs, CUSTOM, (source, cfg, d))
    return _LAWS[key]


def _check_degree(law, kmax):
    if kmax > law.degree and not law.exact:
        raise WittlabError(
            f"custom law only known to degree {law.degree}, need {kmax}")


def formal_log(law, kmax=None):
    """Coefficients a_1=1, a_2, ..., a_kmax of the logarithm, as exact
    fractions; log'(X) is the inverse of the series dF/dY(X, 0)."""
    cfg = law.cfg
    if kmax is None:
        kmax = law.degree
    _check_degree(law, kmax)
    # g_j = c_{j,1}: the coefficient of X^j in dF/dY(X,0); g_0 = 1.
    # h = 1/g is the unit series a_k = h_(k-1) / k.
    h = law._log_units
    for k in range(len(h), kmax):
        acc = cfg.zero()
        for j in range(1, k + 1):
            acc = acc + law.coeff(j, 1) * h[k - j]
        h.append(-acc)
    return [Frac(h[k - 1], k) for k in range(1, kmax + 1)]


def formal_inverse(law, kmax=None):
    """Coefficients b_1=-1, b_2, ..., b_kmax of the series i(Y) with
    F(Y, i(Y)) = 0 mod degree kmax+1; always integral.  As F(Y, 0) = Y,
    b_k is minus the Y^k coefficient of sum c_ij Y^i i(Y)^j over j >= 1
    but (0, 1), which needs only b_1 .. b_(k-1) and the i(Y)^j kept."""
    cfg = law.cfg
    if kmax is None:
        kmax = law.degree
    _check_degree(law, kmax)
    zero, terms = cfg.zero(), [(i, j, c) for (i, j), c in law.coeffs.items()
                               if j and (i, j) != (0, 1)]
    pows = law._inverse = law._inverse or [None, [zero, -cfg.one()]]
    b = pows[1]                   # pows[j][d]: the Y^d coefficient of i^j
    for k in range(len(b), kmax + 1):
        for j in range(2, min(max([1] + [j for _, j, _ in terms]), k) + 1):
            if j == len(pows):
                pows.append([zero] * j)
            pows[j].append(sum((b[e] * pows[j - 1][k - e]
                                for e in range(1, k - j + 2)), zero))
        b.append(-sum((c * pows[j][k - i] for i, j, c in terms
                       if k - i >= j), zero))
    return b[1:kmax + 1]
