"""Carried ghost rows: on an exact config a solve's output keeps the entries
it was solved from as its ghost rows, and the next operator reads them
instead of taking a fresh ghost of the coordinates.

* The rows every operator output carries equal a fresh ghost of its
  coordinates, on Z at p = 2 and 3, on x^2 - 5 and on a polynomial ring.
* No vector over a truncated config carries rows.
* Equality and hashing ignore the rows, and compare the canonical values
  a vector holds: every operator's output equals the vector rebuilt from
  its public coordinates, which are elements of the vector's own rings.
* Witt operators build no element until their coordinates are read.
* The gain: L9 on one shifted vector takes one ghost of it, where each of
  its four maps used to take one.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import witt
from wittlab.fgl import load_fgl
from wittlab.kernel import (
    KernelPoint,
    difference_character,
    kernel_add,
    kernel_embed,
    kernel_lateral_f,
    kernel_neg,
    kernel_phi,
    kernel_project_u,
    kernel_section_sigma,
    kernel_witt_point,
    kernel_zero,
)
from wittlab.laws import _l9_check
from wittlab.rings import RingElement, make_ring_config
from wittlab.shifted import (
    ShiftedWittVector,
    include_I,
    lateral_frobenius,
    restrict_T,
    scalar_shifted,
    shift_E,
    shifted_add,
    shifted_ghost,
    shifted_ghost_solve,
    shifted_mul,
    shifted_neg,
    shifted_zero,
)
from wittlab.witt import (
    WittVector,
    exp_delta,
    frobenius,
    frobenius_iter,
    ghost,
    ghost_solve,
    mult_pi,
    scalar_mul,
    teichmuller,
    truncate,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
    witt_zero,
)

Z2 = make_ring_config({"p": 2})
Z3 = make_ring_config({"p": 3})
RAM5 = make_ring_config({"p": 5, "modulus": [-5, 0, 1]})
SYM = Z2.adjoin(["a", "b"])
EXACT = [Z2, Z3, RAM5, SYM]
TRUNCATED = [Z2.truncated(5), RAM5.truncated(6),
             make_ring_config({"p": 2, "trunc": 3, "vars": ["a", "b"]})]


def _elem(data, cfg):
    """An integer element, or over SYM a linear polynomial in a and b."""
    if cfg.nvars:
        c = [data.draw(st.integers(-3, 3)) for _ in range(3)]
        return (cfg.from_int(c[0]) + cfg.from_int(c[1]) * cfg.var("a")
                + cfg.from_int(c[2]) * cfg.var("b"))
    return cfg.from_coeff([data.draw(st.integers(-1000, 1000))
                           for _ in range(cfg.d)])


def _witt(data, cfg, n):
    return WittVector(cfg, [_elem(data, cfg) for _ in range(n + 1)])


def _shifted(data, cfg, m, n, bcfg=None):
    bcfg = bcfg or cfg
    return ShiftedWittVector(cfg, bcfg, m,
                             [_elem(data, cfg) for _ in range(m + 1)],
                             [_elem(data, bcfg) for _ in range(n)])


def _ghosts(v):
    """The ghost of v, read off the rows it carries, and the ghost of its
    coordinates, taken on a copy that carries none."""
    if isinstance(v, WittVector):
        return ghost(v), ghost(WittVector(v.cfg, v.comps))
    return shifted_ghost(v), shifted_ghost(
        ShiftedWittVector(v.rcfg, v.bcfg, v.m, v.head, v.tail))


def _carries_fresh_rows(v):
    assert v._ghost is not None
    assert isinstance(v._ghost, tuple)
    carried, fresh = _ghosts(v)
    assert carried == fresh


@settings(max_examples=25, deadline=None)
@given(cfg=st.sampled_from(EXACT), n=st.integers(0, 2), data=st.data())
def test_witt_outputs_carry_their_ghost(cfg, n, data):
    u, v = _witt(data, cfg, n), _witt(data, cfg, n)
    r = _elem(data, cfg)
    outs = [witt_add(u, v), witt_mul(u, v), witt_neg(u), mult_pi(u),
            scalar_mul(r, u), exp_delta(r, n), ghost_solve(ghost(v), cfg)]
    if n:
        outs += [frobenius_iter(u, k) for k in range(1, n + 1)]
    outs += [verschiebung(outs[0], k) for k in (1, 2)]
    outs += [u, v]      # their rows were taken by the first operator
    for out in outs:
        _carries_fresh_rows(out)


@settings(max_examples=25, deadline=None)
@given(cfg=st.sampled_from(EXACT), m=st.integers(0, 2), n=st.integers(1, 2),
       data=st.data())
def test_shifted_outputs_carry_their_ghost(cfg, m, n, data):
    u, v = _shifted(data, cfg, m, n), _shifted(data, cfg, m, n)
    outs = [shifted_add(u, v), shifted_mul(u, v), shifted_neg(u),
            lateral_frobenius(u), shifted_ghost_solve(shifted_ghost(v), cfg,
                                                      cfg),
            scalar_shifted(cfg, cfg, m, n, _elem(data, cfg))]
    if m:
        outs.append(shift_E(u))
    outs += [u, v]
    for out in outs:
        _carries_fresh_rows(out)
    for out in outs:    # W_[m]n(B) -> W_(m+n)(B) keeps them
        _carries_fresh_rows(include_I(out))


@settings(max_examples=25, deadline=None)
@given(cfg=st.sampled_from(EXACT), m=st.integers(1, 2), n=st.integers(2, 3),
       data=st.data())
def test_kernel_maps_carry_their_embedding_ghost(cfg, m, n, data):
    """A map's output point is the shifted vector the map solved: its
    coordinates are that vector's tail, and it carries that vector's rows.
    On Ga the group law is shifted Witt addition of the embeddings."""
    law = load_fgl("ga", cfg.base_exact())
    t, s = (KernelPoint(law, cfg, cfg, m, [_elem(data, cfg)
                                           for _ in range(n)])
            for _ in range(2))
    u, v = kernel_embed(t), kernel_embed(s)
    assert u is kernel_embed(t)   # the point's own embedding
    lat = kernel_lateral_f(t)
    for out, solved in ((lat, lateral_frobenius(u)),
                        (kernel_phi(t), shift_E(u)),
                        (kernel_phi(lat), shift_E(kernel_embed(lat))),
                        (kernel_add(t, s), shifted_add(u, v))):
        assert kernel_embed(out) == solved
        assert kernel_embed(out).tail == out.coords
        _carries_fresh_rows(kernel_embed(out))
        _carries_fresh_rows(kernel_witt_point(out))
    _carries_fresh_rows(u)


def _no_rows(*vs):
    for v in vs:
        if isinstance(v, KernelPoint):
            v = kernel_embed(v)
        assert v._ghost is None, v


@settings(max_examples=15, deadline=None)
@given(cfg=st.sampled_from(TRUNCATED), m=st.integers(1, 2),
       n=st.integers(2, 3), data=st.data())
def test_truncated_vectors_carry_no_rows(cfg, m, n, data):
    u, v = _witt(data, cfg, n), _witt(data, cfg, n)
    _no_rows(witt_add(u, v), witt_mul(u, v), witt_neg(u), mult_pi(u),
             frobenius_iter(u, 1), verschiebung(witt_add(u, v)), u, v)
    R = cfg.base_exact() if cfg.nvars == 0 else cfg.exact_cover()
    a, b = _shifted(data, R, m, n, cfg), _shifted(data, R, m, n, cfg)
    _no_rows(shifted_add(a, b), shifted_mul(a, b), shifted_neg(a),
             lateral_frobenius(a), shift_E(a), include_I(shifted_add(a, b)),
             a, b)
    if cfg.nvars == 0:
        for law in (load_fgl("ga", R), load_fgl("gm", R)):
            t = KernelPoint(law, R, cfg, m, [_elem(data, cfg)
                                             for _ in range(n)])
            s = KernelPoint(law, R, cfg, m, [_elem(data, cfg)
                                             for _ in range(n)])
            _no_rows(kernel_lateral_f(t), kernel_phi(t), kernel_add(t, s),
                     kernel_neg(t), t, s)


# Z/5^6, x^2 - 5 mod pi^8, and Z[a, b]/2^3: a vector over each holds
# ints, coefficient tuples and polynomials
CANONICAL = [make_ring_config({"p": 5, "trunc": 6}), RAM5.truncated(8),
             TRUNCATED[2]]


def _rng_elem(cfg, rng):
    """A constant with coefficients well past pi^N, or over a ring with
    variables a linear polynomial in a and b."""
    if cfg.nvars:
        c = [rng.randint(-9, 9) for _ in range(3)]
        return (cfg.from_int(c[0]) + cfg.from_int(c[1]) * cfg.var("a")
                + cfg.from_int(c[2]) * cfg.var("b"))
    return cfg.from_coeff([rng.randint(-10 ** 6, 10 ** 6)
                           for _ in range(cfg.d)])


def _rebuilt(v):
    """v rebuilt from its public coordinates, each checked to be an element
    of v's own ring and taken through the exact cover and back, so an
    output that holds a value unreduced mod pi^N differs from it."""
    def back(elems, cfg):
        elems = tuple(elems)
        assert all(type(e) is RingElement and e.cfg == cfg for e in elems)
        return [cfg.convert(cfg.exact_cover().convert(e)) for e in elems]

    if isinstance(v, KernelPoint):
        return KernelPoint(v.law, v.rcfg, v.bcfg, v.m,
                           back(v.coords, v.bcfg))
    if isinstance(v, WittVector):
        return WittVector(v.cfg, back(v.comps, v.cfg))
    return ShiftedWittVector(v.rcfg, v.bcfg, v.m, back(v.head, v.rcfg),
                             back(v.tail, v.bcfg))


def _canonical_outputs(B):
    """Every Witt, shifted and kernel operator's output over B = R/pi^N."""
    rng, R = random.Random(f"canonical:{B.key}"), B.exact_cover()
    u, v = (WittVector(B, [_rng_elem(B, rng) for _ in range(4)])
            for _ in range(2))
    r = _rng_elem(R, rng)
    outs = [witt_add(u, v), witt_mul(u, v), witt_neg(u), witt_sub(u, v),
            frobenius(u), frobenius_iter(u, 3), verschiebung(u, 2),
            mult_pi(u), scalar_mul(r, u), truncate(u), witt_zero(B, 2),
            teichmuller(_rng_elem(B, rng), 2)]
    a, b = (ShiftedWittVector(R, B, 1, [_rng_elem(R, rng) for _ in range(2)],
                              [_rng_elem(B, rng) for _ in range(2)])
            for _ in range(2))
    outs += [shifted_add(a, b), shifted_mul(a, b), shifted_neg(a),
             lateral_frobenius(a), shift_E(a), restrict_T(a), include_I(a),
             scalar_shifted(R, B, 1, 2, r), shifted_zero(R, B, 1, 2)]
    law = load_fgl("gm", B.base_exact())
    t, s = (KernelPoint(law, R, B, 1, [_rng_elem(B, rng) for _ in range(3)])
            for _ in range(2))
    one = kernel_project_u(t, 1)
    outs += [kernel_add(t, s), kernel_neg(t), kernel_lateral_f(t),
             kernel_phi(t), one, kernel_section_sigma(one, 3),
             kernel_zero(law, R, B, 1, 2), difference_character(t),
             kernel_witt_point(t)]
    return outs


def test_equality_and_hashing_ignore_the_rows():
    u = WittVector(Z3, [Z3.from_int(c) for c in (4, -7, 11)])
    out = witt_mul(u, u)
    copy = WittVector(Z3, out.comps)
    assert out._ghost is not None and copy._ghost is None
    assert out == copy and hash(out) == hash(copy)
    v = ShiftedWittVector(Z3, Z3, 1, [Z3.from_int(2), Z3.from_int(5)],
                          [Z3.from_int(-1)])
    out = shifted_mul(v, v)
    copy = ShiftedWittVector(Z3, Z3, 1, out.head, out.tail)
    assert out._ghost is not None and copy._ghost is None
    assert out == copy and hash(out) == hash(copy)
    t = KernelPoint(load_fgl("ga", Z3), Z3, Z3, 1,
                    [Z3.from_int(3), Z3.from_int(8)])
    phi = kernel_phi(t)
    assert phi._embed is not None
    assert phi == KernelPoint(t.law, Z3, Z3, 0, phi.coords)
    # over each truncated ring every output holds canonical values
    for B in CANONICAL:
        for out in _canonical_outputs(B):
            copy = _rebuilt(out)
            assert out == copy, out
            if isinstance(out, KernelPoint):
                out, copy = kernel_embed(out), kernel_embed(copy)
            assert hash(out) == hash(copy), out


@pytest.mark.parametrize("cfg", CANONICAL[:2], ids=["Z/5^6", "x^2-5/pi^8"])
def test_witt_ops_build_elements_only_when_read(monkeypatch, cfg):
    """witt_add, witt_mul and F over a truncated ring build no RingElement;
    reading the coordinates of their outputs builds one a coordinate."""
    rng = random.Random(f"elements:{cfg.key}")
    u, v = (WittVector(cfg, [_rng_elem(cfg, rng) for _ in range(4)])
            for _ in range(2))
    built, init = [], RingElement.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(RingElement, "__init__", counted)
    outs = [witt_add(u, v), witt_mul(u, v), frobenius(u)]
    assert built == []
    comps = [out.comps for out in outs]
    assert len(built) == 11 == sum(map(len, comps))


def test_l9_takes_one_ghost_of_its_vector(monkeypatch):
    calls = []
    ghost_rows = witt._ghost_rows

    def counted(ar, xs, start=0):
        calls.append((len(xs), start))
        return ghost_rows(ar, xs, start)

    monkeypatch.setattr(witt, "_ghost_rows", counted)
    for cfg, (m, n) in ((Z2, (1, 2)), (RAM5, (2, 3))):
        v = ShiftedWittVector(cfg, cfg, m,
                              [cfg.from_int(3 + i) for i in range(m + 1)],
                              [cfg.from_int(-5 - i) for i in range(n)])
        calls.clear()
        assert _l9_check(v) is None
        # one pass over v: R and B share one arithmetic, so its head and
        # tail rows are one _ghost_rows pass over all its coordinates
        assert calls == [(m + n + 1, 0)]
