"""JSON round-trips and canonical dump stability."""

import json
import random

import pytest

from wittlab import witt
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
from wittlab.witt import WittVector, ghost, universal_polynomials

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


# the sets the benchmark reads back from its cache, one set whose
# coefficients are d = 2 lists and one whose exponents take 8 bytes
CACHED_SETS = [("sum", 3, {"p": 2}), ("prod", 3, {"p": 2}),
               ("sum", 4, {"p": 2}), ("prod", 4, {"p": 2}),
               ("sum", 3, {"p": 3}), ("prod", 3, {"p": 3}),
               ("frobenius", 4, {"p": 2}), ("mult_pi", 4, {"p": 2}),
               ("frobenius", 2, {"p": 5, "modulus": [-5, 0, 1]}),
               ("sum", 2, {"p": 17})]


def _columns_as_terms(sym, hexps, coeffs):
    """A cached [exps, coeffs] pair as {"coeff", "monomial"} terms, read
    off position by position; exps is the hex of one byte an exponent or
    of 8 little-endian bytes each, told apart by its length."""
    nv, d = sym.nvars, sym.d
    raw, k = bytes.fromhex(hexps), len(coeffs) // d
    width = len(raw) // (nv * k) if k else 1
    assert width in (1, 8) and len(raw) == width * nv * k
    exps = [int.from_bytes(raw[i:i + width], "little")
            for i in range(0, len(raw), width)]
    return {"terms": [
        {"coeff": coeffs[k * d:(k + 1) * d],
         "monomial": dict(zip(sym.vars, exps[k * nv:(k + 1) * nv]))}
        for k in range(len(coeffs) // d)]}


@pytest.mark.parametrize("op,n,spec", CACHED_SETS, ids=[
    f"{op}-n{n}-" + ("x^2-5" if "modulus" in spec else f"p{spec['p']}")
    for op, n, spec in CACHED_SETS])
def test_cached_sets_decode_term_by_term(tmp_path, monkeypatch, op, n, spec):
    """A hit reads back the cold polynomials, term dicts in the same
    order, and each equals a term-by-term decode of its two arrays."""
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(witt, "_MEMO", {})
    cfg = make_ring_config(spec)
    cold = universal_polynomials(op, n, cfg=cfg)
    (path,) = tmp_path.glob("*.json")
    witt._MEMO.clear()
    monkeypatch.setitem(witt._UNIVERSAL, op, None)  # a miss would fail
    polys = universal_polynomials(op, n, cfg=cfg)
    sym = polys[0].cfg
    assert polys == cold
    for enc, poly, cold_poly in zip(json.loads(path.read_text())["polys"],
                                    polys, cold):
        assert list(poly.terms.items()) == list(cold_poly.terms.items())
        assert _decode_term_by_term(sym, _columns_as_terms(sym, *enc)) == poly


# one faulty term, and the message the decoder gives for it
FAULTS = [
    ({"coeff": 1, "monomial": {"w": 1}}, "unknown variable 'w'"),
    ({"coeff": 1, "monomial": {"x": -1}},
     "exponent must be a nonnegative integer"),
    ({"coeff": 1, "monomial": {"x": 1.0}},
     "an exponent must be an integer, got 1.0"),
    ({"coeff": 1, "monomial": {"x": True}},
     "an exponent must be an integer, got True"),
    ({"coeff": 1, "monomial": {"x": "two"}},
     "an exponent must be an integer, got 'two'"),
    ({"coeff": 1.5, "monomial": {}},
     "a coefficient must be an integer, got 1.5"),
    ({"coeff": False}, "a coefficient must be an integer, got False"),
    ({"coeff": [1, 0], "monomial": {"x": 1}},
     "coefficient [1, 0] needs 1 coordinates"),
]


@pytest.mark.parametrize("fault,message", FAULTS,
                         ids=["unknown-variable", "negative-exponent",
                              "float-exponent", "boolean-exponent",
                              "string-exponent", "float-coeff",
                              "boolean-coeff", "width-2-coeff"])
def test_one_faulty_term_keeps_its_message(fault, message):
    cfg, rng = Z2.adjoin(["x", "y"]), random.Random(message)
    for _ in range(10):
        terms = [{"coeff": rng.randint(-9, 9),
                  "monomial": {v: rng.randrange(3) for v in "xy"}}
                 for _ in range(rng.randrange(6))]
        terms.insert(rng.randrange(len(terms) + 1), fault)
        with pytest.raises(WittlabError) as err:
            decode_element(cfg, {"terms": terms})
        assert str(err.value) == message


@pytest.mark.parametrize("enc", [{}, {"term": []}, {"terms": 5},
                                 {"terms": [7]}, {"terms": [{}]},
                                 {"terms": [{"coeff": 1, "monomial": [1]}]},
                                 "x", None])
def test_malformed_elements_cannot_be_decoded(enc):
    with pytest.raises(WittlabError, match="cannot decode element from"):
        decode_element(Z2.adjoin(["x"]), enc)
