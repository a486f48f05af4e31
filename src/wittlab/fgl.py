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
from .rings import Frac


DEFAULT_DEGREE = 16

BUILTIN_ADDITIVE = "builtin-additive"
BUILTIN_MULTIPLICATIVE = "builtin-multiplicative"
CUSTOM = "custom"


class FormalGroupLaw:
    """Coefficients c_{ij} (constants of one base config) with i+j <= D.
    The inverse and logarithm series are kept once computed, and extended
    when a longer prefix is asked for, and so are the Psi coefficients."""

    __slots__ = ("cfg", "degree", "coeffs", "tag", "_inverse", "_log_units",
                 "_psi")

    def __init__(self, cfg, degree, coeffs, tag=CUSTOM):
        self.cfg = cfg
        self.degree = degree
        self.coeffs = dict(coeffs)
        self.tag = tag
        self._inverse, self._log_units, self._psi = None, [cfg.one()], {}
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
        degree after each term (for series work in polynomial rings)."""
        tcfg = x.cfg
        acc = tcfg.zero()
        xpow = {0: tcfg.one()}
        ypow = {0: tcfg.one()}
        for (i, j), c in sorted(self.coeffs.items()):
            if i not in xpow:
                xpow[i] = x ** i
            if j not in ypow:
                ypow[j] = y ** j
            term = tcfg.convert(c) * xpow[i] * ypow[j]
            if max_degree is not None:
                term = term.truncate_degree(max_degree)
            acc = acc + term
        return acc

    def __repr__(self):
        return f"FormalGroupLaw({self.tag}, D={self.degree})"


def _validate(law):
    cfg = law.cfg
    zero, one = cfg.zero(), cfg.one()
    if law.coeff(0, 0) != zero:
        raise NotUnital("F(0,0) must be 0")
    if law.coeff(1, 0) != one or law.coeff(0, 1) != one:
        raise NotUnital("F must be X + Y + (higher order)")
    for i in range(law.degree + 1):
        for j in range(i):
            if law.coeff(i, j) != law.coeff(j, i):
                raise NotCommutative(f"c_{i}{j} != c_{j}{i}")
    for (i, j) in law.coeffs:
        if i + j > law.degree:
            raise WittlabError(f"coefficient ({i},{j}) beyond degree")
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


_BUILTIN_LAWS = {}


def load_fgl(source, cfg, degree=DEFAULT_DEGREE):
    """A builtin name ("ga" / "gm"), a parsed coefficient table, or a path
    to a JSON file {"degree": D, "coeffs": [{"i","j","c"}]}.

    A builtin law is built and validated once per (name, cfg, degree) and
    that object is returned afterwards; a custom table is validated on
    every call."""
    if source in ("ga", "gm"):
        key = (source, cfg, degree)
        if key not in _BUILTIN_LAWS:
            one = cfg.one()
            coeffs = {(1, 0): one, (0, 1): one}
            tag = BUILTIN_ADDITIVE
            if source == "gm":
                coeffs[(1, 1)], tag = one, BUILTIN_MULTIPLICATIVE
            _BUILTIN_LAWS[key] = FormalGroupLaw(cfg, degree, coeffs, tag)
        return _BUILTIN_LAWS[key]
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
        d = int(source.get("degree", degree))
        coeffs = {}
        for entry in source["coeffs"]:
            i, j = int(entry["i"]), int(entry["j"])
            coeffs[(i, j)] = decode_element(cfg, entry["c"])
    except (LookupError, TypeError, ValueError) as exc:
        raise WittlabError(f"malformed group table: {exc!r}") from None
    return FormalGroupLaw(cfg, d, coeffs, CUSTOM)


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
    F(Y, i(Y)) = 0 mod degree kmax+1; always integral."""
    cfg = law.cfg
    if kmax is None:
        kmax = law.degree
    _check_degree(law, kmax)
    sym = cfg.adjoin(["_S"])
    s = sym.var("_S")
    known, inv = law._inverse or (1, -s)
    for k in range(known + 1, kmax + 1):
        resid = law.evaluate(s, inv, max_degree=k)
        inv = inv - _coeff_of(resid, k, sym) * s ** k
    law._inverse = max(known, kmax), inv
    return [_coeff_of(inv, k, cfg) for k in range(1, kmax + 1)]


def _coeff_of(elem, k, target_cfg):
    """Constant coefficient of S^k of a univariate polynomial, as an
    element of target_cfg (same coefficient ring)."""
    coeff = elem.terms.get((k,), elem.cfg.czero())
    return target_cfg.from_coeff(coeff)
