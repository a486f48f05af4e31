"""Shifted Witt rings: ghost calculus, ring structure, and the three
operators (tail restriction, lateral Frobenius, head-dropping shift)."""

import random

import pytest

from wittlab import witt
from wittlab.errors import (
    BadLength,
    ConfigUnsupported,
    InternalError,
    LengthMismatch,
    NonDivisible,
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
from wittlab.witt import (GhostVector, WittVector, frobenius, frobenius_iter,
                          ghost, witt_add, witt_mul)

from oracles import shift_E_coords, to_int

Z2 = make_ring_config({"p": 2})
Z3 = make_ring_config({"p": 3})
Z5 = make_ring_config({"p": 5})
RAM5 = make_ring_config({"p": 5, "modulus": [-5, 0, 1]})


def sv(cfg, m, head, tail):
    return ShiftedWittVector(cfg, cfg, m,
                             [cfg.from_int(h) for h in head],
                             [cfg.from_int(t) for t in tail])


def ints(v):
    return ([to_int(c) for c in v.head], [to_int(c) for c in v.tail])


# ----------------------------------------------------------------------
# ghost


def test_shifted_ghost_values():
    g = shifted_ghost(sv(Z2, 1, [0, 0], [5]))
    assert [to_int(e) for e in g.entries] == [0, 0, 20]
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


@pytest.mark.parametrize("k", [-1, 0, 3, 5])
def test_shifted_ghost_solve_rejects_a_head_count_off_the_entries(k):
    # unchecked, -1 would solve entries[:-1] as the head, and 5 on two
    # entries would report a head entry that does not solve
    g = GhostVector([Z2.from_int(1), Z2.from_int(3)], head_count=k)
    with pytest.raises(LengthMismatch, match=f"head_count {k} not in 1..2"):
        shifted_ghost_solve(g, Z2, Z2)
    g = GhostVector(g.entries, head_count=2)     # the whole vector a head
    assert shifted_ghost_solve(g, Z2, Z2) == sv(Z2, 1, [1, 1], [])


def test_shifted_zero_rejects_a_negative_tail_length():
    with pytest.raises(BadLength, match="tail length must be >= 0"):
        shifted_zero(Z2, Z2, 1, -1)
    assert shifted_zero(Z2, Z2, 1, 0).tail == ()


def test_public_shifted_vectors_have_a_head():
    # a Witt vector is the m = -1 case of the shared vector core, but the
    # public constructor and the structure map still refuse m < 0
    tail = [Z2.from_int(3)]
    with pytest.raises(LengthMismatch):
        ShiftedWittVector(Z2, Z2, -1, (), tail)
    with pytest.raises(LengthMismatch):
        scalar_shifted(Z2, Z2, -1, 2, Z2.from_int(3))
    with pytest.raises(BadLength, match="tail length must be >= 0"):
        scalar_shifted(Z2, Z2, 1, -1, Z2.from_int(3))


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
    assert [to_int(c) for c in out.head] == [2, -1]
    assert [to_int(c) for c in out.tail] == [14]


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


# R without B's variable a, B = R[a] or R[a]/pi^3: the head is lifted into
# B's values across two covers
CROSS_COVER = [(R, B) for R in (Z5, RAM5)
               for B in (R.adjoin(["a"]), R.adjoin(["a"]).truncated(3))]


def _public(v, cover):
    """v's coordinates as elements, a shifted vector's head in cover."""
    if isinstance(v, WittVector):
        return v.comps
    return tuple(map(cover.convert, v.head)) + v.tail


@pytest.mark.parametrize("R,B", CROSS_COVER,
                         ids=["Z-Z[a]", "Z-Z[a]/5^3", "x^2-5-R[a]",
                              "x^2-5-R[a]/pi^3"])
def test_nonzero_head_across_covers_matches_the_cover_head(R, B):
    """Shifted maps with the nonzero head (2, -7) over R, which lacks B's
    variable, equal the same maps with R = B's exact cover."""
    C, a = B.exact_cover(), B.var("a")
    tails = ([a + 3, 2 * a - 1], [a * a, B.from_int(4) - a])
    by_ring = []
    for head_ring in (R, C):
        u, v = (ShiftedWittVector(head_ring, B, 1, [head_ring.from_int(h)
                                                    for h in head], tail)
                for head, tail in zip(((2, -7), (5, 1)), tails))
        outs = [shifted_add(u, v), shifted_mul(u, v), shifted_neg(u),
                lateral_frobenius(u), shift_E(u), include_I(u)]
        by_ring.append([_public(out, C) for out in outs])
        if B.torsion_free:
            g = shifted_ghost(u).entries
            by_ring[-1].append(tuple(map(C.convert, g[:2])) + g[2:])
    assert len(by_ring[0]) == 6 + B.torsion_free
    assert by_ring[0] == by_ring[1]


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
    assert [to_int(c) for c in out.head] == [3]
    assert [to_int(c) for c in out.tail] == [15]


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
# F^k, the lateral F_[m] and E_[m]: one ghost shift


def test_each_ghost_shift_names_its_map_when_its_solve_fails(monkeypatch):
    """On an exact config each map's solve is pending, and a division that
    fails on the first read is an InternalError naming that map."""
    w = WittVector(Z3, [Z3.from_int(c) for c in (4, -2, 7)])
    v = sv(Z3, 1, [1, -2], [4, 7])

    def fail(*args):
        raise NonDivisible("forced")

    monkeypatch.setattr(witt._Arith, "solve_row", fail)
    for out, read, text in (
            (frobenius_iter(w, 2), "comps", "Frobenius ghost shift"),
            (lateral_frobenius(v), "head", "lateral Frobenius"),
            (shift_E(v), "head", "shift_E ghost path")):
        with pytest.raises(InternalError, match=f"^{text} failed to solve: "):
            getattr(out, read)


def test_lateral_refusal_text_when_phi_moves_pi():
    phi_neg = make_ring_config({"p": 5, "modulus": [-5, 0, 1],
                                "phi_pi": [0, -1]})
    with pytest.raises(ConfigUnsupported, match=(
            r"^lateral Frobenius with a nonzero head needs phi\(pi\) = pi$")):
        lateral_frobenius(sv(phi_neg, 1, [1, 0], [2]))
    assert lateral_frobenius(sv(phi_neg, 1, [0, 0], [2])).n == 0


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
