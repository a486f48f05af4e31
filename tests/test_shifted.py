"""Shifted Witt rings: ghost calculus, ring structure, and the three
operators (tail restriction, lateral Frobenius, head-dropping shift)."""

import random

import pytest

from wittlab.errors import (
    LengthMismatch,
    NonIntegral,
    TorsionBase,
    ZeroShift,
    ZeroTail,
)
from wittlab.rings import make_ring_config
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
from wittlab.witt import GhostVector, WittVector, frobenius, ghost, witt_add, witt_mul

from oracles import shift_E_coords

Z2 = make_ring_config({"p": 2})
Z3 = make_ring_config({"p": 3})
RAM5 = make_ring_config({"p": 5, "modulus": [-5, 0, 1]})


def sv(cfg, m, head, tail):
    return ShiftedWittVector(cfg, cfg, m,
                             [cfg.from_int(h) for h in head],
                             [cfg.from_int(t) for t in tail])


def ints(v):
    return ([c.to_int() for c in v.head], [c.to_int() for c in v.tail])


# ----------------------------------------------------------------------
# ghost


def test_shifted_ghost_values():
    g = shifted_ghost(sv(Z2, 1, [0, 0], [5]))
    assert [e.to_int() for e in g.entries] == [0, 0, 20]
    assert g.head_count == 2


def test_head_only_matches_plain_ghost():
    v = sv(Z2, 2, [3, 5, 7], [])
    g = shifted_ghost(v)
    plain = ghost(WittVector(Z2, [Z2.from_int(c) for c in (3, 5, 7)]))
    assert g.entries == plain.entries


def test_shifted_ghost_solve():
    g = GhostVector([Z2.zero(), Z2.zero(), Z2.from_int(20)], head_count=2)
    assert shifted_ghost_solve(g, Z2, Z2) == sv(Z2, 1, [0, 0], [5])


def test_shifted_ghost_roundtrip():
    rng = random.Random(0)
    for _ in range(20):
        m, n = rng.randrange(0, 3), rng.randrange(0, 3)
        v = sv(Z3, m, [rng.randint(-50, 50) for _ in range(m + 1)],
               [rng.randint(-50, 50) for _ in range(n)])
        assert shifted_ghost_solve(shifted_ghost(v), Z3, Z3) == v


def test_shifted_ghost_solve_errors():
    g = GhostVector([Z2.from_int(1), Z2.from_int(0)], head_count=1)
    with pytest.raises(NonIntegral):
        shifted_ghost_solve(g, Z2, Z2)
    B = Z2.truncated(3)
    g2 = GhostVector([B.from_int(1)], head_count=1)
    with pytest.raises(TorsionBase):
        shifted_ghost_solve(g2, Z2, B)


# ----------------------------------------------------------------------
# ring structure


def test_shifted_add_value():
    # tail carries: 1 + 1 - f(1) f(1)
    out = shifted_add(sv(Z2, 0, [1], [1]), sv(Z2, 0, [1], [1]))
    assert ints(out) == ([2], [1])


def test_zero_head_add_is_witt_add_of_tails():
    out = shifted_add(sv(Z2, 1, [0, 0], [3, 4]), sv(Z2, 1, [0, 0], [5, -2]))
    assert out.head == (Z2.zero(), Z2.zero())
    tails = witt_add(WittVector(Z2, [Z2.from_int(3), Z2.from_int(4)]),
                     WittVector(Z2, [Z2.from_int(5), Z2.from_int(-2)]))
    assert out.tail == tails.comps


def test_teichmuller_head_idempotent():
    v = sv(Z2, 0, [1], [0])
    assert shifted_mul(v, v) == v


def test_include_I_ring_homomorphism():
    a = sv(Z3, 1, [2, -1], [3])
    b = sv(Z3, 1, [1, 4], [-2])
    assert include_I(shifted_add(a, b)) == witt_add(include_I(a),
                                                    include_I(b))
    assert include_I(shifted_mul(a, b)) == witt_mul(include_I(a),
                                                    include_I(b))


def test_neg_and_zero():
    a = sv(Z2, 1, [2, -1], [3])
    assert shifted_add(a, shifted_neg(a)) == shifted_zero(Z2, Z2, 1, 1)


def test_shape_mismatch():
    with pytest.raises(LengthMismatch):
        shifted_add(sv(Z2, 0, [1], [1]), sv(Z2, 1, [1, 1], []))


def test_truncated_tail_base():
    B = Z2.truncated(4)
    a = ShiftedWittVector(Z2, B, 1, [Z2.from_int(1), Z2.zero()],
                          [B.from_int(1)])
    out = shifted_add(a, a)
    assert [c.to_int() for c in out.head] == [2, -1]
    assert [c.to_int() for c in out.tail] == [14]


# ----------------------------------------------------------------------
# restriction


def test_restrict_T():
    v = sv(Z2, 0, [7], [1, 2])
    assert restrict_T(v) == sv(Z2, 0, [7], [1])
    assert restrict_T(restrict_T(v)) == sv(Z2, 0, [7], [])
    with pytest.raises(ZeroTail):
        restrict_T(sv(Z2, 0, [7], []))


def test_restrict_ghost_commutation():
    v = sv(Z2, 1, [0, 0], [1, 1])
    g = shifted_ghost(v)
    assert shifted_ghost(restrict_T(v)).entries == g.entries[:-1]


# ----------------------------------------------------------------------
# lateral Frobenius


def test_lateral_values():
    assert ints(lateral_frobenius(sv(Z2, 1, [0, 0], [1, 0]))) == \
        ([0, 0], [1])
    assert ints(lateral_frobenius(sv(Z2, 0, [1], [1, 1]))) == ([1], [3])


def test_lateral_zero_head_is_tail_frobenius():
    rng = random.Random(3)
    for _ in range(15):
        m, n = rng.randrange(0, 3), rng.randrange(2, 4)
        tail = [rng.randint(-50, 50) for _ in range(n)]
        v = sv(Z2, m, [0] * (m + 1), tail)
        out = lateral_frobenius(v)
        assert all(h.is_zero() for h in out.head)
        ft = frobenius(WittVector(Z2, [Z2.from_int(t) for t in tail]))
        assert out.tail == ft.comps


def test_lateral_ghost_rule():
    v = sv(RAM5, 1, [2, 3], [1, 4])
    g = shifted_ghost(v)
    out = lateral_frobenius(v)
    og = shifted_ghost(out)
    assert og.entries[:2] == tuple(e.phi() for e in g.entries[:2])
    assert og.entries[2] == g.entries[3]


def test_lateral_congruence():
    rng = random.Random(5)
    for cfg in (Z2, Z3, RAM5):
        for _ in range(10):
            m, n = rng.randrange(0, 3), rng.randrange(1, 3)
            v = sv(cfg, m, [rng.randint(-30, 30) for _ in range(m + 1)],
                   [rng.randint(-30, 30) for _ in range(n)])
            out = lateral_frobenius(v)
            ins = list(v.head) + list(v.tail)
            outs = list(out.head) + list(out.tail)
            for i, o in enumerate(outs):
                d = o - ins[i] ** cfg.q
                assert d.is_zero() or d.pi_val() >= 1


def test_lateral_needs_tail():
    with pytest.raises(ZeroTail):
        lateral_frobenius(sv(Z2, 1, [1, 2], []))


def test_lateral_is_ring_homomorphism():
    rng = random.Random(9)
    for _ in range(10):
        a = sv(Z2, 1, [rng.randint(-20, 20) for _ in range(2)],
               [rng.randint(-20, 20) for _ in range(2)])
        b = sv(Z2, 1, [rng.randint(-20, 20) for _ in range(2)],
               [rng.randint(-20, 20) for _ in range(2)])
        assert lateral_frobenius(shifted_add(a, b)) == \
            shifted_add(lateral_frobenius(a), lateral_frobenius(b))
        assert lateral_frobenius(shifted_mul(a, b)) == \
            shifted_mul(lateral_frobenius(a), lateral_frobenius(b))


# ----------------------------------------------------------------------
# the shift E


def test_shift_values():
    assert ints(shift_E(sv(Z2, 1, [1, 1], [1]))) == ([3], [-1])
    with pytest.raises(ZeroShift):
        shift_E(sv(Z2, 0, [1], [1]))


def test_shift_zero_head_symbolic():
    B = Z2.adjoin(["t0", "t1"])
    t0, t1 = B.var("t0"), B.var("t1")
    v = ShiftedWittVector(Z2, B, 1, [Z2.zero(), Z2.zero()], [t0, t1])
    out = shift_E(v)
    assert out.head == (Z2.zero(),)
    assert out.tail == (2 * t0, 2 * t1 - t0 ** 2)


def test_shift_ghost_rule():
    v = sv(Z3, 2, [1, -2, 4], [7])
    assert shifted_ghost(shift_E(v)).entries == shifted_ghost(v).entries[1:]


def test_shift_path_agreement():
    rng = random.Random(11)
    for cfg in (Z2, Z3):
        for _ in range(10):
            m, n = rng.randrange(1, 3), rng.randrange(1, 3)
            v = sv(cfg, m, [rng.randint(-30, 30) for _ in range(m + 1)],
                   [rng.randint(-30, 30) for _ in range(n)])
            assert shift_E(v) == shift_E_coords(v)


def test_shift_path_agreement_ramified():
    v = ShiftedWittVector(
        RAM5, RAM5, 1,
        [RAM5.from_coeff([2, 1]), RAM5.from_int(1)], [RAM5.from_int(3)])
    assert shift_E(v) == shift_E_coords(v)


def test_shift_truncated_base():
    B = Z2.truncated(4)
    v = ShiftedWittVector(Z2, B, 1, [Z2.from_int(1), Z2.from_int(1)],
                          [B.from_int(1)])
    out = shift_E(v)
    assert [c.to_int() for c in out.head] == [3]
    assert [c.to_int() for c in out.tail] == [15]


def test_shift_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(10):
        a = sv(Z2, 1, [rng.randint(-20, 20) for _ in range(2)],
               [rng.randint(-20, 20) for _ in range(2)])
        b = sv(Z2, 1, [rng.randint(-20, 20) for _ in range(2)],
               [rng.randint(-20, 20) for _ in range(2)])
        assert shift_E(shifted_add(a, b)) == \
            shifted_add(shift_E(a), shift_E(b))
        assert shift_E(shifted_mul(a, b)) == \
            shifted_mul(shift_E(a), shift_E(b))


# ----------------------------------------------------------------------
# scalar embedding


def test_scalar_shifted_ghost_tower():
    r = RAM5.from_coeff([1, 2])
    v = scalar_shifted(RAM5, RAM5, 1, 2, r)
    g = shifted_ghost(v)
    cur = r
    for e in g.entries:
        assert e == cur
        cur = cur.phi()
