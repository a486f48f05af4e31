"""Witt vectors over a base: ghost calculus, operators, universal
polynomials.  The ghost-side oracle below recomputes everything with
plain Fractions over the integers, independent of the library's solver."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab.errors import (
    BadLength,
    BaseMismatch,
    BudgetExceeded,
    ConfigUnsupported,
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

from oracles import substitute, to_int

Z2 = make_ring_config({"p": 2})
Z3 = make_ring_config({"p": 3})
RAM5 = make_ring_config({"p": 5, "modulus": [-5, 0, 1]})


def wv(cfg, comps):
    return WittVector(cfg, [cfg.from_int(c) for c in comps])


def ints(v):
    return [to_int(c) for c in v.comps]


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
    assert [to_int(e) for e in ghost(wv(Z2, [3, 5])).entries] == [3, 19]
    sym = Z2.adjoin(["t0", "t1"])
    t0, t1 = sym.var("t0"), sym.var("t1")
    g = ghost(WittVector(sym, [sym.zero(), t0, t1]))
    assert g.entries == (sym.zero(), 2 * t0, 2 * t0 ** 2 + 4 * t1)


def test_ghost_teichmuller():
    v = teichmuller(Z3.from_int(2), 3)
    assert [to_int(e) for e in ghost(v).entries] == [2, 8, 2 ** 9, 2 ** 27]


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
    # integral: the (pi) map, which the theory guarantees, failed to solve.
    # Its output is pending, so the failure surfaces when its components
    # are read
    import wittlab.witt as wmod
    sym = Z3.adjoin(["x0"])
    x0 = sym.var("x0")
    monkeypatch.setattr(wmod, "_rows", lambda ar, v: [ar.zero, ar.zero, x0])
    with pytest.raises(InternalError) as err:
        mult_pi(WittVector(sym, [x0, x0, x0])).comps
    assert str(err.value) == ("(pi) map failed to solve: ghost entry 2 is "
                              "not in the image of the ghost map")


def test_solves_that_may_fail_raise_at_the_call():
    # only a map the theory guarantees defers its solve: ghost_solve of a
    # ghost vector outside the image, and scalar_mul by a scalar phi moves,
    # raise before anything is read, and a truncated solve keeps no rows
    with pytest.raises(NonIntegral, match="ghost entry 1 is not in"):
        ghost_solve(GhostVector([Z2.from_int(1), Z2.from_int(2)]), Z2)
    neg = make_ring_config({"p": 5, "modulus": [-5, 0, 1], "phi_pi": [0, -1]})
    with pytest.raises(ConfigUnsupported, match=r"phi\(pi\) = pi"):
        scalar_mul(neg.pi_elem(), wv(neg, [1, 2, 3]))
    B = Z2.truncated(5)
    out = frobenius(wv(B, [3, 5, 7]))
    assert out._ghost is None and isinstance(out._coords, tuple)


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
    assert [to_int(e) for e in ghost(v).entries] == [0, 6]
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


@pytest.mark.parametrize("op", [teichmuller, exp_delta])
def test_lengths_below_zero_are_rejected(op):
    # unchecked, n = -1 would give a length-1 vector, as n = 0 does
    with pytest.raises(BadLength, match="n >= 0, got -1"):
        op(Z3.from_int(2), -1)
    assert op(Z3.from_int(2), 0).n == 0


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
    assert to_int(delta(Z2.from_int(3))) == -3
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
    assert [to_int(c) for c in s.comps] == [2, 15]   # -1 mod 16


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
    got = [to_int(substitute(poly, vals, Z3)) for poly in polys]
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
    """The cache file as one json.dumps of the whole columnar document:
    per polynomial, its exponent tuples and its coefficient tuples, each
    chained in term-dict order."""
    import itertools
    chain = itertools.chain.from_iterable
    data = {"op": op, "n": n, "p": cfg.p,
            "modulus": list(cfg.modulus) if cfg.modulus else None,
            "phi_pi": list(cfg.phi_pi) if cfg.phi_pi else None,
            "polys": [[list(chain(pe.terms)), list(chain(pe.terms.values()))]
                      for pe in polys]}
    return json.dumps(data, sort_keys=True)


def _set(which, index, value):
    """Set entry ``index`` of the exponent (0) or coefficient (1) array;
    index None is the x0 exponent of term t, the term -2 x0^2 y0^2."""
    def corrupt(enc, t):
        enc[which][6 * t if index is None else index] = value
    return corrupt


def _width_2_coeff(enc, t):         # the last coefficient c as [c, 0]
    enc[1].append(0)


def _extra_exponent(enc, t):        # an exponent with no variable
    enc[0].append(1)


def _repeat_monomial(enc, t):
    enc[0][6:12] = enc[0][0:6]


def _empty_strings(enc, t):         # no terms, but not arrays either
    enc[:] = ["", ""]


# sum n=2 at p=2 is over x0..x2, y0..y2 (six exponents a term); the last
# polynomial has the term -2 x0^2 y0^2, found by content, since the term
# order is the row accumulator's
@pytest.mark.parametrize("corrupt", [
    _set(1, 0, True),
    _set(0, None, 2.0),
    _set(0, None, "2"),
    _set(0, None, -2),
    _extra_exponent,
    _width_2_coeff,
    _set(1, 0, 0),
    _repeat_monomial,
    _empty_strings,
], ids=["boolean-coeff", "float-exponent", "string-exponent",
        "negative-exponent", "unknown-variable", "width-2-coeff",
        "zero-coeff", "repeated-monomial", "strings-for-arrays"])
def test_cache_file_with_one_corrupt_term_is_a_miss(tmp_path, monkeypatch,
                                                    corrupt):
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    import wittlab.witt as wmod
    monkeypatch.setattr(wmod, "_MEMO", {})
    cold = universal_polynomials("sum", 2, p=2)
    (path,) = tmp_path.glob("*.json")
    good = path.read_bytes()
    data = json.loads(good)
    enc = data["polys"][-1]
    t = [enc[0][k:k + 6] for k in range(0, len(enc[0]), 6)].index(
        [2, 0, 0, 2, 0, 0])
    assert enc[1][t] == -2
    corrupt(enc, t)
    path.write_text(json.dumps(data, sort_keys=True))
    wmod._MEMO.clear()
    assert universal_polynomials("sum", 2, p=2) == cold
    assert path.read_bytes() == good
    assert list(tmp_path.iterdir()) == [path]       # no temporary left


@pytest.mark.parametrize("op,n,spec", [
    ("sum", 2, {"p": 2}),
    ("frobenius", 2, {"p": 5, "modulus": [-5, 0, 1]}),
], ids=["sum-n2-p2", "frobenius-x^2-5"])
def test_cache_file_in_term_object_format_is_rewritten(tmp_path, monkeypatch,
                                                       op, n, spec):
    """A file holding one {"coeff", "monomial"} object per term (one
    json.dump of encode_element per polynomial) is a miss and is
    rewritten in the columnar format."""
    from wittlab.serialize import encode_element
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    import wittlab.witt as wmod
    monkeypatch.setattr(wmod, "_MEMO", {})
    cfg = make_ring_config(spec)
    cold = universal_polynomials(op, n, cfg=cfg)
    (path,) = tmp_path.glob("*.json")
    good = path.read_bytes()
    payload, _ = wmod._cache_key(op, n, cfg)
    with open(path, "w") as fh:
        json.dump(dict(payload, polys=[encode_element(pe) for pe in cold]),
                  fh, sort_keys=True)
    wmod._MEMO.clear()
    assert universal_polynomials(op, n, cfg=cfg) == cold
    assert path.read_bytes() == good
    assert list(tmp_path.iterdir()) == [path]


RAM5_SPEC = {"p": 5, "modulus": [-5, 0, 1]}


@pytest.mark.parametrize("op,n,spec", [
    ("sum", 3, {"p": 2}),
    ("prod", 2, {"p": 3}),
    ("frobenius", 3, {"p": 2}),
    ("frobenius", 2, RAM5_SPEC),
], ids=["sum-n3-p2", "prod-n2-p3", "frobenius-n3-p2", "frobenius-x^2-5"])
def test_universal_cache_bytes(tmp_path, monkeypatch, op, n, spec):
    """The sliced cache write gives the bytes of one json.dumps."""
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
    text = buf.getvalue()
    assert text == _reference_cache_text("sum", 1, cfg, polys)
    assert '"polys": [[[], []], [[0, 0], [3, -1]], ' in text


@pytest.mark.parametrize("spec", [{"p": 2}, RAM5_SPEC], ids=["Z-p2", "x^2-5"])
def test_cache_write_two_digit_names(spec):
    """Over x0..x11 a term's exponents are its twelve slots in order, so
    x10 comes after x2 (a name-keyed format sorts "x10" first); terms
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
    exps = json.loads(text)["polys"][0][0]
    assert len(exps) == 12 * len(polys[0].terms)
    assert [0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0] in [
        exps[i:i + 12] for i in range(0, len(exps), 12)]


def test_write_ints_in_slices():
    """Arrays of one slice, of several and a partial last slice give the
    bytes of one json.dumps of the array."""
    import io
    import wittlab.witt as wmod
    for length in (0, 1, 4095, 4096, 4097, 9000):
        ints = [(-3) ** (k % 50) for k in range(length)]
        buf = io.StringIO()
        wmod._write_ints(buf.write, iter(ints))
        assert buf.getvalue() == json.dumps(ints)


def test_write_ints_of_bytes_matches_json():
    """Chunks of ints in 0..255 go through the string table, a chunk with
    256, -1 or a bigint through json.dumps: the bytes are the same."""
    import io
    import wittlab.witt as wmod
    for tail in ([], [255], [256], [-1], [0, 2 ** 70]):
        ints = [k * 37 % 256 for k in range(9000)] + tail
        buf = io.StringIO()
        wmod._write_ints(buf.write, iter(ints))
        assert buf.getvalue() == json.dumps(ints)


def test_cache_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Terms go out in term-dict order, not sorted: two cold runs under
    different string-hash seeds write the same bytes."""
    import os
    import subprocess
    import sys
    code = ("from wittlab.rings import make_ring_config\n"
            "from wittlab.witt import universal_polynomials as u\n"
            "u('sum', 3, p=2); u('prod', 2, p=3)\n"
            "u('frobenius', 2, cfg=make_ring_config("
            "{'p': 5, 'modulus': [-5, 0, 1]}))\n")
    texts = []
    for seed in ("1", "2"):
        cache = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   WITTLAB_CACHE_DIR=str(cache))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        texts.append({f.name: f.read_bytes() for f in cache.iterdir()})
    assert len(texts[0]) == 3
    assert texts[0] == texts[1]


def test_unwritable_cache_returns_the_polynomials(tmp_path, monkeypatch):
    """A write that fails part way leaves no temporary file; the computed
    polynomials are returned and the next call computes them again."""
    import errno
    import wittlab.witt as wmod
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(wmod, "_MEMO", {})
    cold = universal_polynomials("sum", 2, p=2)
    (path,) = tmp_path.glob("*.json")
    path.unlink()
    wmod._MEMO.clear()

    def full_disk(out, payload, polys):
        out.write('{"modulus": null')
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(wmod, "_write_cache", full_disk)
    assert universal_polynomials("sum", 2, p=2) == cold
    assert not list(tmp_path.iterdir())


def test_cached_set_above_budget_raises(tmp_path, monkeypatch, capsys):
    """A hit is held to TERM_BUDGET before its term dicts are built."""
    import wittlab.witt as wmod
    from wittlab import cli
    monkeypatch.setattr(wmod, "_MEMO", {})
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    universal_polynomials("sum", 2, p=2)
    (path,) = tmp_path.glob("*.json")
    good = path.read_bytes()
    monkeypatch.setattr(wmod, "TERM_BUDGET", 5)
    monkeypatch.setitem(wmod._UNIVERSAL, "sum", None)  # a miss would fail
    wmod._MEMO.clear()
    with pytest.raises(BudgetExceeded, match="hit 13 terms"):
        universal_polynomials("sum", 2, p=2)
    assert cli.main(["poly", "--op", "sum", "--n", "2", "--p", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: BudgetExceeded: ")
    assert len(err.splitlines()) == 1
    assert path.read_bytes() == good


def test_cold_expansion_stops_at_the_budget_while_it_accumulates(
        tmp_path, monkeypatch, capsys):
    """A cold sum at n = 5, p = 2 (12 576 terms in S_5) under a budget of
    5 000 raises from inside the row kernel, not on the finished set, and
    writes no cache file; on the command line it is a usage error."""
    import wittlab.witt as wmod
    from wittlab import cli
    monkeypatch.setattr(wmod, "TERM_BUDGET", 5000)
    monkeypatch.setattr(wmod, "_MEMO", {})
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    with pytest.raises(BudgetExceeded, match=r"\(budget 5000\)") as info:
        universal_polynomials("sum", 5, p=2)
    assert "_mul_into" in [entry.name for entry in info.traceback]
    assert not list(tmp_path.rglob("*"))
    assert cli.main(["poly", "--op", "sum", "--n", "5", "--p", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: BudgetExceeded: ")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.rglob("*"))


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_cache_file_gets_the_mode_of_the_umask(tmp_path, monkeypatch, umask,
                                               mode):
    """A cache file is readable as open(path, "w") would leave it, so a
    cache directory shared under a 022 umask serves every user."""
    import os
    import stat
    import wittlab.witt as wmod
    monkeypatch.setattr(wmod, "_MEMO", {})
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))
    saved = os.umask(umask)
    try:
        cold = universal_polynomials("sum", 2, p=2)
    finally:
        os.umask(saved)
    (path,) = tmp_path.iterdir()        # no temporary file is left
    assert stat.S_IMODE(path.stat().st_mode) == mode
    wmod._MEMO.clear()
    assert universal_polynomials("sum", 2, p=2) == cold


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
