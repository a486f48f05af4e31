"""JSON encodings for configs, elements, vectors, and universal polynomials.

Everything round-trips: ``decode_*(encode_*(x)) == x``, and a config's
encoding is a spec for ``rings.make_ring_config``.  Dumps are canonical
(sorted keys, fixed separators, newline-terminated) so golden files are
byte-stable.
"""

from __future__ import annotations

import json

from .errors import WittlabError
from .kernel import KernelPoint
from .rings import _json_int
from .witt import GhostVector, ShiftedWittVector, WittVector


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


# ----------------------------------------------------------------------
# configs


def encode_config(cfg):
    return {
        "p": cfg.p,
        "modulus": list(cfg.modulus) if cfg.modulus else None,
        "phi_pi": list(cfg.phi_pi) if cfg.phi_pi else "pi",
        "trunc": cfg.trunc,
        "vars": list(cfg.vars),
    }


# ----------------------------------------------------------------------
# elements


def _encode_coeff(cfg, coeff):
    return coeff[0] if cfg.d == 1 else list(coeff)


def _decode_coeff(cfg, enc):
    if not isinstance(enc, list):
        return cfg.cfrom_int(_json_int(enc, "a coefficient"))
    coeff = tuple(_json_int(c, "a coefficient") for c in enc)
    if len(coeff) != cfg.d:
        raise WittlabError(f"coefficient {enc!r} needs {cfg.d} coordinates")
    return coeff


def encode_element(elem):
    """Constants encode as an integer (or coefficient array); polynomials
    as a sorted list of {coeff, monomial} terms."""
    if elem.is_constant():
        return _encode_coeff(elem.cfg, elem.const_coeff())
    return {"terms": encode_poly_term_list(elem)}


def decode_element(cfg, enc):
    try:
        if isinstance(enc, (int, float, list)):
            return cfg.from_coeff(_decode_coeff(cfg, enc))
        slots = {name: i for i, name in enumerate(cfg.vars)}
        d1, nvars, cadd, terms = cfg.d == 1, cfg.nvars, cfg.cadd, {}
        for term in enc["terms"]:   # a good d = 1 term calls no helper
            c, mono = term["coeff"], [0] * nvars
            coeff = (c,) if d1 and type(c) is int else _decode_coeff(cfg, c)
            for name, exp in term.get("monomial", {}).items():
                if name not in slots:
                    raise WittlabError(f"unknown variable {name!r}")
                if type(exp) is not int or exp < 0:
                    _json_int(exp, "an exponent")   # raises on a bool, float
                    raise WittlabError("exponent must be a nonnegative integer")
                mono[slots[name]] = exp
            mono = tuple(mono)
            terms[mono] = cadd(terms[mono], coeff) if mono in terms else coeff
        return cfg._make(terms)
    except (AttributeError, LookupError, TypeError, ValueError):
        pass    # not a constant or {"terms": [...]}, or a malformed term
    raise WittlabError(f"cannot decode element from {enc!r}")


# ----------------------------------------------------------------------
# vectors


def encode_witt(v):
    return [encode_element(c) for c in v.comps]


def decode_witt(cfg, enc):
    return WittVector(cfg, [decode_element(cfg, c) for c in enc])


def encode_ghost(g):
    out = {"ghost": [encode_element(c) for c in g.entries]}
    if g.head_count is not None:
        out["head_count"] = g.head_count
    return out


def encode_shifted(v):
    return {
        "m": v.m,
        "n": v.n,
        "head": [encode_element(c) for c in v.head],
        "tail": [encode_element(c) for c in v.tail],
    }


def decode_shifted(rcfg, bcfg, enc):
    try:
        m, n = _json_int(enc["m"], "m"), _json_int(enc["n"], "n")
        head = [decode_element(rcfg, c) for c in enc["head"]]
        tail = [decode_element(bcfg, c) for c in enc["tail"]]
    except (LookupError, TypeError):
        raise WittlabError('a shifted vector needs {"m","n","head","tail"}, '
                           f"got {enc!r}") from None
    if len(head) != m + 1 or len(tail) != n:
        raise WittlabError("shifted encoding has inconsistent m/n")
    return ShiftedWittVector(rcfg, bcfg, m, head, tail)


def encode_value(x):
    """Any value a law reports or ``eval`` prints: an int as itself, a
    vector by its encoder, a kernel point as its coordinates, a list or
    tuple entry by entry, anything else as an element."""
    if isinstance(x, int):
        return x
    if isinstance(x, WittVector):
        return encode_witt(x)
    if isinstance(x, ShiftedWittVector):
        return encode_shifted(x)
    if isinstance(x, GhostVector):
        return encode_ghost(x)
    if isinstance(x, KernelPoint):
        x = x.coords
    if isinstance(x, (list, tuple)):
        return [encode_value(e) for e in x]
    return encode_element(x)


# ----------------------------------------------------------------------
# universal polynomials


def encode_poly_term_list(elem):
    """A polynomial as a sorted list of {coeff, monomial} objects (used by
    the universal-polynomial emission; constants included)."""
    cfg = elem.cfg
    terms = []
    for mono, coeff in elem._sorted_terms():
        monomial = {v: e for v, e in zip(cfg.vars, mono) if e}
        terms.append({"coeff": _encode_coeff(cfg, coeff),
                      "monomial": monomial})
    return terms


def encode_universal(op, n, p, polys):
    return {
        "op": op,
        "n": n,
        "p": p,
        "polys": [encode_poly_term_list(pe) for pe in polys],
    }
