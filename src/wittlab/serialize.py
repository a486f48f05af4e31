"""JSON encodings for configs, elements, vectors, and universal polynomials.

Everything round-trips: ``decode_*(encode_*(x)) == x``.  Dumps are canonical
(sorted keys, fixed separators, newline-terminated) so golden files are
byte-stable.
"""

from __future__ import annotations

import json

from .errors import WittlabError
from .rings import make_ring_config


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


def decode_config(obj):
    return make_ring_config(obj)


# ----------------------------------------------------------------------
# elements


def _encode_coeff(cfg, coeff):
    return coeff[0] if cfg.d == 1 else list(coeff)


def _decode_coeff(cfg, enc):
    if isinstance(enc, int):
        return cfg.cfrom_int(enc)
    coeff = tuple(int(c) for c in enc)
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
        if isinstance(enc, int):
            return cfg.from_int(enc)
        if isinstance(enc, list):
            return cfg.from_coeff(enc)
        if isinstance(enc, dict) and "terms" in enc:
            slots = {name: i for i, name in enumerate(cfg.vars)}
            terms = {}
            for term in enc["terms"]:
                coeff = _decode_coeff(cfg, term["coeff"])
                mono = [0] * cfg.nvars
                for name, exp in term.get("monomial", {}).items():
                    if name not in slots:
                        raise WittlabError(f"unknown variable {name!r}")
                    mono[slots[name]] = int(exp)
                if min(mono, default=0) < 0:
                    raise WittlabError(
                        "exponent must be a nonnegative integer")
                mono = tuple(mono)
                terms[mono] = cfg.cadd(terms.get(mono, cfg.czero()), coeff)
            return cfg._make(terms)
    except (AttributeError, LookupError, TypeError, ValueError):
        pass    # a malformed term, coefficient or exponent
    raise WittlabError(f"cannot decode element from {enc!r}")


# ----------------------------------------------------------------------
# vectors


def encode_witt(v):
    return [encode_element(c) for c in v.comps]


def decode_witt(cfg, enc):
    from .witt import WittVector
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
    from .shifted import ShiftedWittVector
    try:
        m, n = enc["m"], enc["n"]
        head = [decode_element(rcfg, c) for c in enc["head"]]
        tail = [decode_element(bcfg, c) for c in enc["tail"]]
    except (LookupError, TypeError):
        raise WittlabError('a shifted vector needs {"m","n","head","tail"}, '
                           f"got {enc!r}") from None
    if not isinstance(m, int) or len(head) != m + 1 or len(tail) != n:
        raise WittlabError("shifted encoding has inconsistent m/n")
    return ShiftedWittVector(rcfg, bcfg, m, head, tail)


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
