"""Witt vectors over a base: ghost calculus, operators, universal
polynomials.  The ghost-side oracle below recomputes everything with
plain Fractions over the integers, independent of the library's solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab.errors import (
    BaseMismatch,
    BudgetExceeded,
    InternalError,
    LengthMismatch,
    NonIntegral,
    TorsionBase,
    WittlabError,
    ZeroLength,
)
from wittlab.rings import make_ring_config
from wittlab.witt import (
    GhostVector,
    WittVector,
    delta,
    exp_delta,
    frobenius,
    frobenius_iter,
    ghost,
    ghost_solve,
    mult_pi,
    scalar_mul,
    teichmuller,
    truncate,
    universal_polynomials,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
    witt_zero,
)

from oracles import substitute

Z2 = make_ring_config({"p": 2})
Z3 = make_ring_config({"p": 3})
RAM5 = make_ring_config({"p": 5, "modulus": [-5, 0, 1]})


def wv(cfg, comps):
    return WittVector(cfg, [cfg.from_int(c) for c in comps])


def ints(v):
    return [c.to_int() for c in v.comps]


# ----------------------------------------------------------------------
# independent oracle: ghost arithmetic over Q


def oracle_ghost(p, comps):
    return [sum(Fraction(p) ** j * Fraction(comps[j]) ** (p ** (i - j))
                for j in range(i + 1))
            for i in range(len(comps))]


def oracle_solve(p, entries):
    comps = []
    for i, gi in enumerate(entries):
        acc = Fraction(gi)
        for j in range(i):
            acc -= Fraction(p) ** j * comps[j] ** (p ** (i - j))
        acc /= Fraction(p) ** i
        assert acc.denominator == 1
        comps.append(acc)
    return [int(c) for c in comps]


def oracle_add(p, u, v):
    return oracle_solve(p, [a + b for a, b in
                            zip(oracle_ghost(p, u), oracle_ghost(p, v))])


def oracle_mul(p, u, v):
    return oracle_solve(p, [a * b for a, b in
                            zip(oracle_ghost(p, u), oracle_ghost(p, v))])


# ----------------------------------------------------------------------
# ghost map


def test_ghost_values():
    assert [e.to_int() for e in ghost(wv(Z2, [3, 5])).entries] == [3, 19]
    sym = Z2.adjoin(["t0", "t1"])
    t0, t1 = sym.var("t0"), sym.var("t1")
    g = ghost(WittVector(sym, [sym.zero(), t0, t1]))
    assert g.entries == (sym.zero(), 2 * t0, 2 * t0 ** 2 + 4 * t1)


def test_ghost_teichmuller():
    v = teichmuller(Z3.from_int(2), 3)
    assert [e.to_int() for e in ghost(v).entries] == [2, 8, 2 ** 9, 2 ** 27]


def test_ghost_solve_roundtrip():
    v = wv(Z2, [3, 5, -7])
    assert ghost_solve(ghost(v), Z2) == v


def test_ghost_solve_values():
    g = GhostVector([Z2.from_int(3), Z2.from_int(19)])
    assert ints(ghost_solve(g, Z2)) == [3, 5]


def test_ghost_solve_non_integral():
    g = GhostVector([Z2.from_int(1), Z2.from_int(0)])
    with pytest.raises(NonIntegral):
        ghost_solve(g, Z2)


@pytest.mark.parametrize("rows,bad", [
    (lambda x: [x[0], x[0] ** 3 + 3 * x[1],
                x[0] ** 9 + 3 * x[1] ** 3 + 3 * x[2]], 2),
    (lambda x: [x[0], x[0] ** 3 + x[1]], 1),
], ids=["entry-2-divisible-by-p-not-p^2", "entry-1-off-the-image"])
def test_symbolic_solve_failure_names_its_entry(rows, bad):
    """On a d = 1 symbolic base the solve divides by p^i in one pass; a
    failure still names the entry it stopped at."""
    sym = Z3.adjoin(["x0", "x1", "x2"])
    g = GhostVector(rows([sym.var(f"x{i}") for i in range(3)]))
    with pytest.raises(NonIntegral) as err:
        ghost_solve(g)
    assert str(err.value) == (
        f"ghost entry {bad} is not in the image of the ghost map")


def test_symbolic_guaranteed_solve_failure_is_internal(monkeypatch):
    # ghost rows <0, 0, x0> scale to <0, 0, 3 x0>, and 3 x0 / 9 is not
    # integral: the (pi) map, which the theory guarantees, failed to solve
    import wittlab.witt as wmod
    sym = Z3.adjoin(["x0"])
    x0 = sym.var("x0")
    monkeypatch.setattr(wmod, "_rows", lambda ar, v: [ar.zero, ar.zero, x0])
    with pytest.raises(InternalError) as err:
        mult_pi(WittVector(sym, [x0, x0, x0]))
    assert str(err.value) == ("(pi) map failed to solve: ghost entry 2 is "
                              "not in the image of the ghost map")


def test_ghost_solve_needs_exact_base():
    B = Z2.truncated(3)
    g = GhostVector([B.from_int(1), B.from_int(1)])
    with pytest.raises(TorsionBase):
        ghost_solve(g, B)


# ----------------------------------------------------------------------
# ring structure


def test_add_mul_frozen_values():
    assert ints(witt_add(wv(Z2, [1, 0]), wv(Z2, [1, 0]))) == [2, -1]
    assert ints(witt_mul(wv(Z2, [0, 1]), wv(Z2, [0, 1]))) == [0, 2]


def test_additive_identity_and_negation():
    u = wv(Z3, [4, -2, 9])
    assert witt_add(u, witt_zero(Z3, 2)) == u
    assert witt_add(u, witt_neg(u)) == witt_zero(Z3, 2)
    assert witt_sub(u, u) == witt_zero(Z3, 2)


def test_teichmuller_multiplicative():
    a, b = Z2.from_int(2), Z2.from_int(3)
    assert witt_mul(teichmuller(a, 2), teichmuller(b, 2)) == \
        teichmuller(a * b, 2)
    assert teichmuller(Z2.one(), 2) == \
        witt_mul(teichmuller(Z2.one(), 2), teichmuller(Z2.one(), 2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-99, 99), min_size=3, max_size=3),
       st.lists(st.integers(-99, 99), min_size=3, max_size=3))
def test_add_mul_against_oracle(a, b):
    u, v = wv(Z3, a), wv(Z3, b)
    assert ints(witt_add(u, v)) == oracle_add(3, a, b)
    assert ints(witt_mul(u, v)) == oracle_mul(3, a, b)


def test_shape_errors():
    with pytest.raises(LengthMismatch):
        witt_add(wv(Z2, [1]), wv(Z2, [1, 2]))
    with pytest.raises(BaseMismatch):
        witt_add(wv(Z2, [1]), wv(Z3, [1]))
    with pytest.raises(ZeroLength):
        WittVector(Z2, [])


# ----------------------------------------------------------------------
# operators


def test_truncate():
    assert truncate(wv(Z2, [3, 5])) == wv(Z2, [3])
    v = wv(Z2, [3, 5, 7])
    assert ghost(truncate(v)).entries == ghost(v).entries[:2]
    with pytest.raises(ZeroLength):
        truncate(wv(Z2, [3]))


def test_frobenius_values():
    assert ints(frobenius(wv(Z2, [3, 5]))) == [19]
    assert ints(frobenius(wv(Z2, [0, 1]))) == [2]
    b = Z3.from_int(5)
    assert frobenius(teichmuller(b, 2)) == teichmuller(b ** 3, 1)


def test_frobenius_ghost_shift():
    v = wv(Z3, [2, -1, 4])
    assert ghost(frobenius(v)).entries == ghost(v).entries[1:]


def test_verschiebung():
    v = verschiebung(wv(Z2, [3]))
    assert ints(v) == [0, 3]
    assert [e.to_int() for e in ghost(v).entries] == [0, 6]
    assert ints(verschiebung(wv(Z2, [7]), 3)) == [0, 0, 0, 7]
    # additivity
    u, w = wv(Z2, [1, 2]), wv(Z2, [5, -1])
    assert verschiebung(witt_add(u, w)) == \
        witt_add(verschiebung(u), verschiebung(w))


@pytest.mark.parametrize("rows", [False, True], ids=["plain", "ghost-rows"])
def test_verschiebung_rejects_negative_times(rows):
    v = wv(Z2, [3, 1])
    if rows:    # a solve's output carries its ghost rows
        v = witt_add(v, witt_zero(Z2, 1))
        assert v._ghost is not None
    with pytest.raises(WittlabError, match="times >= 0"):
        verschiebung(v, -1)
    assert verschiebung(v, 0) == v
    assert frobenius(verschiebung(v, 0)) == frobenius(v)


def test_mult_pi_values():
    assert ints(mult_pi(wv(Z2, [3, 5]))) == [6, 1]
    assert mult_pi(witt_zero(Z2, 3)) == witt_zero(Z2, 3)
    sym = Z2.adjoin(["x0", "x1"])
    x0, x1 = sym.var("x0"), sym.var("x1")
    out = mult_pi(WittVector(sym, [x0, x1]))
    assert out.comps == (2 * x0, 2 * x1 - x0 ** 2)


def test_exp_delta():
    assert ints(exp_delta(Z2.from_int(2), 2)) == [2, -1, -4]
    assert ints(exp_delta(Z2.from_int(0), 2)) == [0, 0, 0]
    assert ints(exp_delta(Z2.from_int(1), 3)) == [1, 0, 0, 0]
    # ghost is the phi tower
    r = RAM5.from_coeff([2, 1])
    g = ghost(exp_delta(r, 2))
    assert g.entries == (r, r.phi(), r.phi().phi())


def test_delta():
    assert delta(Z2.from_int(3)).to_int() == -3
    assert delta(Z2.one()).is_zero()
    pi = RAM5.pi_elem()
    assert delta(pi) == RAM5.one() - pi ** 4


def test_scalar_mul():
    v = wv(Z2, [3, 5])
    assert scalar_mul(Z2.from_int(1), v) == v
    two = scalar_mul(Z2.from_int(2), v)
    assert two == witt_add(v, v)


# ----------------------------------------------------------------------
# truncated bases route through lift-solve-reduce


def test_truncated_arithmetic():
    B = Z2.truncated(4)
    u = WittVector(B, [B.from_int(1), B.from_int(0)])
    s = witt_add(u, u)
    assert [c.to_int() for c in s.comps] == [2, 15]   # -1 mod 16


def test_lift_independence():
    B = Z3.truncated(3)
    a = WittVector(B, [B.from_int(5), B.from_int(2)])
    b = WittVector(B, [B.from_int(5 + 27), B.from_int(2 - 54)])
    c = WittVector(B, [B.from_int(1), B.from_int(1)])
    assert a == b
    assert witt_add(a, c) == witt_add(b, c)
    assert witt_mul(a, c) == witt_mul(b, c)


def test_frobenius_truncated_matches_exact():
    B = Z2.truncated(5)
    v = wv(Z2, [3, 5, 7])
    vb = WittVector(B, [B.convert(c) for c in v.comps])
    out = frobenius(vb)
    expect = frobenius(v)
    assert out == WittVector(B, [B.convert(c) for c in expect.comps])


# ----------------------------------------------------------------------
# universal polynomials


def test_universal_sum():
    s0, s1 = universal_polynomials("sum", 1, p=2)
    sym = s0.cfg
    x0, x1 = sym.var("x0"), sym.var("x1")
    y0, y1 = sym.var("y0"), sym.var("y1")
    assert s0 == x0 + y0
    assert s1 == x1 + y1 - x0 * y0


def test_universal_prod():
    p0, p1 = universal_polynomials("prod", 1, p=2)
    sym = p0.cfg
    x0, x1 = sym.var("x0"), sym.var("x1")
    y0, y1 = sym.var("y0"), sym.var("y1")
    assert p0 == x0 * y0
    assert p1 == x0 ** 2 * y1 + y0 ** 2 * x1 + 2 * x1 * y1


def test_universal_frobenius():
    (f0,) = universal_polynomials("frobenius", 1, p=3)
    sym = f0.cfg
    assert f0 == sym.var("x0") ** 3 + 3 * sym.var("x1")


def test_universal_specialization():
    polys = universal_polynomials("sum", 2, p=3)
    u, v = [4, -2, 7], [1, 3, -5]
    vals = {f"x{i}": Z3.from_int(u[i]) for i in range(3)}
    vals.update({f"y{i}": Z3.from_int(v[i]) for i in range(3)})
    got = [substitute(poly, vals, Z3).to_int() for poly in polys]
    assert got == ints(witt_add(wv(Z3, u), wv(Z3, v)))


def test_universal_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    import wittlab.witt as wmod
    wmod._MEMO.clear()
    first = universal_polynomials("mult_pi", 1, p=2)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    wmod._MEMO.clear()
    second = universal_polynomials("mult_pi", 1, p=2)
    assert first == second
    sym = first[0].cfg
    assert first[1] == 2 * sym.var("x1") - sym.var("x0") ** 2


def _reference_cache_text(op, n, cfg, polys):
    """The cache file as a single json.dump of the whole document."""
    import io
    import json
    from wittlab.serialize import encode_element
    data = {"op": op, "n": n, "p": cfg.p,
            "modulus": list(cfg.modulus) if cfg.modulus else None,
            "phi_pi": list(cfg.phi_pi) if cfg.phi_pi else None,
            "polys": [encode_element(pe) for pe in polys]}
    buf = io.StringIO()
    json.dump(data, buf, sort_keys=True)
    return buf.getvalue()


RAM5_SPEC = {"p": 5, "modulus": [-5, 0, 1]}


@pytest.mark.parametrize("op,n,spec", [
    ("sum", 3, {"p": 2}),
    ("prod", 2, {"p": 3}),
    ("frobenius", 3, {"p": 2}),
    ("frobenius", 2, RAM5_SPEC),
], ids=["sum-n3-p2", "prod-n2-p3", "frobenius-n3-p2", "frobenius-x^2-5"])
def test_universal_cache_bytes(tmp_path, monkeypatch, op, n, spec):
    """The streamed cache write gives the bytes of one json.dump."""
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    import wittlab.witt as wmod
    wmod._MEMO.clear()
    cfg = make_ring_config(spec)
    polys = universal_polynomials(op, n, cfg=cfg)
    (path,) = tmp_path.glob("*.json")
    assert path.read_text() == _reference_cache_text(op, n, cfg, polys)


def test_cache_write_constants():
    import io
    import wittlab.witt as wmod
    cfg = make_ring_config(RAM5_SPEC)
    sym = cfg.adjoin(["x0", "x1"])
    polys = [sym.zero(), sym.from_coeff([3, -1]), sym.var("x1") ** 2 * 7
             + sym.pi_elem() * sym.var("x0"), sym.from_int(4)]
    payload = {"op": "sum", "n": 1, "p": 5, "modulus": [-5, 0, 1],
               "phi_pi": None}
    buf = io.StringIO()
    wmod._write_cache(buf, payload, polys)
    assert buf.getvalue() == _reference_cache_text("sum", 1, cfg, polys)


@pytest.mark.parametrize("spec", [{"p": 2}, RAM5_SPEC], ids=["Z-p2", "x^2-5"])
def test_cache_write_two_digit_names(spec):
    """Over x0..x11 json orders the names "x10", "x11" before "x2"; terms
    with negative coefficients, a zero polynomial and constants."""
    import io
    import wittlab.witt as wmod
    cfg = make_ring_config(spec)
    sym = cfg.adjoin([f"x{i}" for i in range(12)])
    x, pi = [sym.var(f"x{i}") for i in range(12)], sym.pi_elem()
    polys = [x[10] * x[2] ** 3 - 7 * x[11] + x[0] * x[1] - 5, sym.zero(),
             -x[2] + pi * x[10] ** 2 - x[9] * x[11] * x[1] ** 4,
             1 - 2 * pi, sum(x, sym.zero()) * -3 + x[11] ** 12,
             sym.from_int(-4), (x[2] - x[10] + pi) ** 3]
    payload, _ = wmod._cache_key("sum", 5, cfg)
    buf = io.StringIO()
    wmod._write_cache(buf, payload, polys)
    text = buf.getvalue()
    assert text == _reference_cache_text("sum", 5, cfg, polys)
    assert '{"x10": 1, "x2": 3}' in text


def test_universal_unknown_op():
    with pytest.raises(WittlabError):
        universal_polynomials("quotient", 1, p=2)


def test_universal_budget_exceeded(tmp_path, monkeypatch, capsys):
    """An expansion above TERM_BUDGET raises, leaves no cache file, and
    is a usage error on the command line."""
    import wittlab.witt as wmod
    from wittlab import cli
    monkeypatch.setattr(wmod, "TERM_BUDGET", 5)
    monkeypatch.setattr(wmod, "_MEMO", {})
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    with pytest.raises(BudgetExceeded):
        universal_polynomials("sum", 2, p=2)
    assert not list(tmp_path.rglob("*"))
    assert cli.main(["poly", "--op", "sum", "--n", "2", "--p", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: BudgetExceeded: ")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.rglob("*"))
