"""Formal group laws: builtins, validation, logarithms, inverses."""

import json
from pathlib import Path

import pytest

from wittlab import cli
from wittlab.errors import (
    NotAssociative,
    NotCommutative,
    NotUnital,
    WittlabError,
)
from wittlab.fgl import (
    FormalGroupLaw,
    formal_inverse,
    formal_log,
    load_fgl,
)
from wittlab.rings import Frac, make_ring_config

Z2 = make_ring_config({"p": 2})
Z5 = make_ring_config({"p": 5})
DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# builtins


def test_builtin_additive():
    ga = load_fgl("ga", Z2)
    assert ga.exact and ga.is_additive
    sym = Z2.adjoin(["x", "y"])
    x, y = sym.var("x"), sym.var("y")
    assert ga.evaluate(x, y) == x + y


def test_builtin_multiplicative():
    gm = load_fgl("gm", Z5)
    assert gm.exact and not gm.is_additive
    sym = Z5.adjoin(["x", "y"])
    x, y = sym.var("x"), sym.var("y")
    assert gm.evaluate(x, y) == x + y + x * y


def test_builtin_built_once():
    assert load_fgl("gm", Z5) is load_fgl("gm", Z5)
    assert load_fgl("ga", Z5) is load_fgl("ga", Z5)
    assert load_fgl("gm", Z5) is not load_fgl("gm", Z5, degree=8)
    assert load_fgl("gm", Z5) is not load_fgl("gm", Z2)


def test_custom_table_validated_every_call():
    table = {"degree": 3, "coeffs": [
        {"i": 1, "j": 0, "c": 1}, {"i": 0, "j": 1, "c": 1},
        {"i": 2, "j": 0, "c": 1}, {"i": 0, "j": 2, "c": 1}]}
    for _ in range(2):
        with pytest.raises(NotAssociative):
            load_fgl(table, Z2)
    bad_unit = {"degree": 2, "coeffs": [{"i": 1, "j": 0, "c": 1}]}
    for _ in range(2):
        with pytest.raises(NotUnital):
            load_fgl(bad_unit, Z2)


# ----------------------------------------------------------------------
# logarithm streams


def test_log_additive_vanishes():
    ga = load_fgl("ga", Z2)
    a = formal_log(ga, 6)
    assert a[0] == Frac(Z2.one(), 1)
    assert all(f.num.is_zero() for f in a[1:])


def test_log_multiplicative():
    gm = load_fgl("gm", Z5)
    a = formal_log(gm, 6)
    # log(1+X) = X - X^2/2 + X^3/3 - ...
    for k, f in enumerate(a, start=1):
        assert f == Frac(Z5.from_int((-1) ** (k + 1)), k)


def test_log_scaled_multiplicative():
    law = FormalGroupLaw(Z5, 4, {
        (1, 0): Z5.one(), (0, 1): Z5.one(), (1, 1): Z5.from_int(2)})
    a = formal_log(law, 4)
    # F = (1/2)((1+2X)(1+2Y) - 1), log = log(1+2X)/2
    for k, f in enumerate(a, start=1):
        assert f == Frac(Z5.from_int((-1) ** (k + 1) * 2 ** (k - 1)), k)


def test_log_custom_degree_guard():
    law = FormalGroupLaw(Z5, 4, {
        (1, 0): Z5.one(), (0, 1): Z5.one(), (1, 1): Z5.from_int(2)})
    with pytest.raises(WittlabError):
        formal_log(law, 12)


# ----------------------------------------------------------------------
# formal inverse


def test_inverse_additive():
    ga = load_fgl("ga", Z2)
    b = formal_inverse(ga, 5)
    assert [c.to_int() for c in b] == [-1, 0, 0, 0, 0]


def test_inverse_multiplicative():
    gm = load_fgl("gm", Z2)
    b = formal_inverse(gm, 5)
    # [-1](X) = (1+X)^{-1} - 1 = -X + X^2 - X^3 + ...
    assert [c.to_int() for c in b] == [-1, 1, -1, 1, -1]


def test_inverse_is_inverse():
    gm = load_fgl("gm", Z2)
    b = formal_inverse(gm, 6)
    sym = Z2.adjoin(["x"])
    x = sym.var("x")
    inv = sym.zero()
    for k, c in enumerate(b, start=1):
        inv = inv + sym.convert(c) * x ** k
    out = gm.evaluate(x, inv, max_degree=6).truncate_degree(6)
    assert out.is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_lubin_tate_table(p):
    # the p-typical law with logarithm sum_k X^(p^k) / p^k, to degree 16:
    # 122 terms at p = 2 and 54 at p = 3, none of them a polynomial law
    cfg = make_ring_config({"p": p})
    law = load_fgl(str(DATA / f"lt_p{p}_d16.json"), cfg)
    powers = [p ** k for k in range(5) if p ** k <= 16]
    assert formal_log(law) == [Frac(cfg.one() if n in powers else cfg.zero(),
                                    n) for n in range(1, 17)]
    # the inverse has integer coefficients and log(i(X)) = -log(X), both
    # sides scaled by the largest p^k
    sym = cfg.adjoin(["x"])
    x = sym.var("x")
    inv = sym.zero()
    for k, b in enumerate(formal_inverse(law), start=1):
        assert b.cfg == cfg and b.is_constant()
        inv = inv + sym.convert(b) * x ** k

    def scaled_log(y):
        return sum((powers[-1] // n * y ** n for n in powers), sym.zero())

    assert (scaled_log(inv) + scaled_log(x)).truncate_degree(16).is_zero()


# ----------------------------------------------------------------------
# validation


def test_not_unital():
    with pytest.raises(NotUnital):
        FormalGroupLaw(Z2, 3, {(1, 0): Z2.from_int(2), (0, 1): Z2.one()})


def test_not_commutative():
    with pytest.raises(NotCommutative):
        FormalGroupLaw(Z2, 3, {(1, 0): Z2.one(), (0, 1): Z2.one(),
                               (2, 1): Z2.one()})


@pytest.mark.parametrize("ij", [(2, 1), (1, 2), (3, 1)])
def test_asymmetric_pair_on_one_side_only(ij):
    coeffs = {(1, 0): Z2.one(), (0, 1): Z2.one(), ij: Z2.one()}
    with pytest.raises(NotCommutative):
        FormalGroupLaw(Z2, 4, coeffs)


def test_asymmetric_pair_on_both_sides():
    with pytest.raises(NotCommutative):
        FormalGroupLaw(Z2, 3, {(1, 0): Z2.one(), (0, 1): Z2.one(),
                               (2, 1): Z2.one(), (1, 2): Z2.from_int(3)})


def test_not_associative():
    # X + Y + X^2 Y^2 fails at degree 4: obstruction 2XYZ(Z - X)
    with pytest.raises(NotAssociative):
        FormalGroupLaw(Z2, 4, {(1, 0): Z2.one(), (0, 1): Z2.one(),
                               (2, 2): Z2.one()})


def test_coefficient_beyond_degree():
    with pytest.raises(WittlabError):
        FormalGroupLaw(Z2, 2, {(1, 0): Z2.one(), (0, 1): Z2.one(),
                               (2, 2): Z2.one()})


# ----------------------------------------------------------------------
# custom laws from JSON


def test_load_custom_file(tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({
        "degree": 4,
        "coeffs": [
            {"i": 1, "j": 0, "c": 1},
            {"i": 0, "j": 1, "c": 1},
            {"i": 1, "j": 1, "c": 2},
        ],
    }))
    law = load_fgl(str(path), Z5)
    assert law.degree == 4
    assert not law.exact
    assert law.coeff(1, 1) == Z5.from_int(2)


def test_load_custom_dict():
    law = load_fgl({"degree": 3, "coeffs": [
        {"i": 1, "j": 0, "c": 1}, {"i": 0, "j": 1, "c": 1},
        {"i": 1, "j": 1, "c": 1}]}, Z2)
    assert law.coeff(1, 1) == Z2.one()


def test_high_degree_table_loads_and_passes(tmp_path, capsys):
    # validation walks the table's own entries, not every (i, j) up to the
    # degree, so a degree-3000 jet of X + Y loads at once
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"degree": 3000, "coeffs": [
        {"i": 1, "j": 0, "c": 1}, {"i": 0, "j": 1, "c": 1}]}))
    assert load_fgl(str(path), Z2).degree == 3000
    code = cli.main(["kernel", "--group", str(path), "--check", "phi",
                     "--trials", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)[0]["status"] == "pass"


@pytest.mark.parametrize("table", [
    {"degree": 4.5, "coeffs": []},
    {"degree": True, "coeffs": []},
    {"coeffs": [{"i": 1.0, "j": 0, "c": 1}]},
    {"coeffs": [{"i": 1, "j": 0, "c": 1.0}]},
], ids=["degree-float", "degree-boolean", "index-float", "coeff-float"])
def test_table_numbers_must_be_integers(table):
    with pytest.raises(WittlabError, match="must be an integer"):
        load_fgl(table, Z2)


def test_load_garbage():
    with pytest.raises(WittlabError):
        load_fgl({"nope": True}, Z2)


def test_load_unknown_name_or_unreadable_file(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"coeffs": [')
    for source, match in (("nosuch", "unknown group 'nosuch'"),
                          (str(tmp_path), "unknown group"),
                          (str(bad_json), "invalid JSON")):
        with pytest.raises(WittlabError, match=match):
            load_fgl(source, Z2)


def test_load_custom_table_with_unseen_smaller_powers():
    # g^-1(g(X) + g(Y)) for g = X + X^3, to degree 7 at p = 3: the row
    # i = 2 needs Y^3 and Y^5 after the row i = 1 has already needed Y^6
    table = {(1, 0): 1, (1, 2): -3, (1, 4): 9, (2, 3): 27, (1, 6): -27,
             (2, 5): -162, (3, 4): -351}
    coeffs = [{"i": a, "j": b, "c": c}
              for (i, j), c in table.items() for a, b in ((i, j), (j, i))]
    Z3 = make_ring_config({"p": 3})
    law = load_fgl({"degree": 7, "coeffs": coeffs}, Z3)
    assert law.coeff(3, 4) == Z3.from_int(-351)
    # its logarithm is g
    assert formal_log(law) == [Frac(Z3.from_int(c), 1)
                               for c in (1, 0, 1, 0, 0, 0, 0)]
