"""JSON round-trips and canonical dump stability."""

import json
import random

import pytest

from wittlab.errors import WittlabError
from wittlab.rings import make_ring_config
from wittlab.serialize import (
    _decode_coeff,
    canonical_dumps,
    decode_element,
    decode_shifted,
    decode_witt,
    encode_config,
    encode_element,
    encode_ghost,
    encode_shifted,
    encode_witt,
)
from wittlab.shifted import ShiftedWittVector
from wittlab.witt import WittVector, ghost

Z2 = make_ring_config({"p": 2})
RAM5 = make_ring_config({"p": 5, "modulus": [-5, 0, 1]})


def test_canonical_dumps():
    s = canonical_dumps({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}\n'
    assert canonical_dumps({"b": 1, "a": [2, 3]}) == s


def test_config_roundtrip():
    for cfg in (Z2, RAM5, Z2.truncated(4), RAM5.adjoin(["t"])):
        enc = encode_config(cfg)
        json.dumps(enc)
        assert make_ring_config(enc) == cfg


def test_element_roundtrip_int_base():
    x = Z2.from_int(-17)
    assert encode_element(x) == -17
    assert decode_element(Z2, -17) == x


def test_element_roundtrip_order():
    x = RAM5.from_coeff([2, -3])
    enc = encode_element(x)
    assert enc == [2, -3]
    assert decode_element(RAM5, enc) == x


def test_element_roundtrip_polynomial():
    sym = Z2.adjoin(["x", "y"])
    p = sym.var("x") ** 2 * sym.var("y") + sym.from_int(3)
    enc = encode_element(p)
    assert isinstance(enc, dict) and "terms" in enc
    assert decode_element(sym, enc) == p
    # canonical: dumping twice gives identical bytes
    assert canonical_dumps(enc) == canonical_dumps(encode_element(p))


def test_witt_roundtrip():
    v = WittVector(Z2, [Z2.from_int(3), Z2.from_int(-5)])
    enc = encode_witt(v)
    assert enc == [3, -5]
    assert decode_witt(Z2, enc) == v


def test_ghost_encoding():
    v = WittVector(Z2, [Z2.from_int(3), Z2.from_int(5)])
    enc = encode_ghost(ghost(v))
    assert enc["ghost"] == [3, 19]


def test_shifted_roundtrip():
    v = ShiftedWittVector(Z2, Z2, 1,
                          [Z2.from_int(1), Z2.from_int(2)],
                          [Z2.from_int(3)])
    enc = encode_shifted(v)
    assert enc["head"] == [1, 2] and enc["tail"] == [3]
    assert decode_shifted(Z2, Z2, enc) == v


def test_decode_bad_coeff_width():
    with pytest.raises(WittlabError):
        decode_element(RAM5, [1, 2, 3])


@pytest.mark.parametrize("cfg,enc", [
    (Z2, 1.5), (Z2, [2.9]), (Z2, True), (Z2, [False]), (RAM5, [1, 2.0]),
    (Z2.adjoin(["x"]), {"terms": [{"coeff": 1.5, "monomial": {}}]}),
    (Z2.adjoin(["x"]), {"terms": [{"coeff": True, "monomial": {"x": 1}}]}),
    (RAM5.adjoin(["x"]), {"terms": [{"coeff": [1, 0.5], "monomial": {}}]}),
    (Z2.adjoin(["x"]), {"terms": [{"coeff": 1, "monomial": {"x": 1.0}}]}),
    (Z2.adjoin(["x"]), {"terms": [{"coeff": 1, "monomial": {"x": True}}]}),
], ids=["float", "float-in-list", "boolean", "boolean-in-list",
        "float-in-order-coeff", "term-coeff-float", "term-coeff-boolean",
        "term-order-coeff-float", "exponent-float", "exponent-boolean"])
def test_decode_rejects_floats_and_booleans(cfg, enc):
    with pytest.raises(WittlabError, match="must be an integer"):
        decode_element(cfg, enc)


def _decode_term_by_term(cfg, enc):
    """The decoder as it was: one ring product and sum per term."""
    result = cfg.zero()
    for term in enc["terms"]:
        part = cfg.from_coeff(_decode_coeff(cfg, term["coeff"]))
        for name, exp in term.get("monomial", {}).items():
            part = part * cfg.var(name) ** int(exp)
        result = result + part
    return result


POLY_CONFIGS = [
    Z2.adjoin(["x", "y"]),
    RAM5.adjoin(["x", "y", "z"]),
    make_ring_config({"p": 5, "trunc": 3, "vars": ["x", "y"]}),
    make_ring_config({"p": 5, "modulus": [-5, 0, 1], "trunc": 5,
                      "vars": ["x"]}),
]


@pytest.mark.parametrize("cfg", POLY_CONFIGS, ids=repr)
def test_decode_matches_term_by_term(cfg):
    rng = random.Random(f"decode:{cfg.key}")
    for _ in range(40):
        terms = []
        for _ in range(rng.randrange(0, 12)):
            coeff = [rng.randint(-10 ** 4, 10 ** 4) for _ in range(cfg.d)]
            if rng.random() < 0.2:
                coeff = [0] * cfg.d                      # zero coefficient
            mono = {v: rng.randrange(0, 3) for v in cfg.vars
                    if rng.random() < 0.6}
            terms.append({"coeff": coeff[0] if cfg.d == 1 and rng.random()
                          < 0.5 else coeff, "monomial": mono})
            if rng.random() < 0.3:                       # repeated monomial
                terms.append(dict(terms[-1]))
        enc = {"terms": terms}
        assert decode_element(cfg, enc) == _decode_term_by_term(cfg, enc)


@pytest.mark.parametrize("monomial", [{"w": 1}, {"x": -1}, {"x": "two"},
                                      {"x": None}, {"x": [1]}])
def test_decode_bad_monomial(monomial):
    with pytest.raises(WittlabError):
        decode_element(Z2.adjoin(["x"]),
                       {"terms": [{"coeff": 1, "monomial": monomial}]})
