"""Shifted Witt rings W_[m]n(B), m >= 0: a head of m+1 coordinates over R
glued to a tail of n coordinates over B (n is the tail length), with the
shifted ghost calculus and the operators that need a head (tail
restriction, lateral Frobenius, and the head-dropping ring map implemented
by the plain Frobenius polynomials).  The vector core is witt.py's, where
W_n(B) is its m = -1 case; there the lateral ghost rule is F's, so L11
states F as one map at two levels."""

from __future__ import annotations

from .errors import (
    BadLength,
    LengthMismatch,
    TorsionBase,
    WittlabError,
    ZeroShift,
    ZeroTail,
)
from .witt import (GhostVector, ShiftedWittVector, _arith, _check_fixed,
                   _check_shape, _codec, _entrywise, _ghost_shift,
                   _lift_head, _read, _rows, _solve, _structure_chain,
                   _vector)


def shifted_zero(rcfg, bcfg, m, n):
    if n < 0:
        raise BadLength(f"tail length must be >= 0, got {n}")
    return ShiftedWittVector(rcfg, bcfg, m,
                             (rcfg.zero(),) * (m + 1),
                             (bcfg.zero(),) * n)


def shifted_ghost(v):
    """Entries 0..m are computed in R, entries m+1..m+n in B."""
    rows, k = _rows(_arith(v.bcfg, v.last), v), v.m + 1
    return GhostVector(_codec(v.rcfg).elements(rows[:k])
                       + _codec(v.bcfg).elements(rows[k:]), head_count=k)


def shifted_ghost_solve(g, rcfg, bcfg):
    if g.head_count is None:
        raise WittlabError("ghost vector is not in shifted form")
    if not bcfg.torsion_free:
        raise TorsionBase("shifted ghost solve needs exact torsion-free B")
    k = g.head_count
    if not 1 <= k <= len(g.entries):
        raise LengthMismatch(f"head_count {k} not in 1..{len(g.entries)}")
    _check_shape(rcfg, bcfg, k - 1, k)
    hl, bl = _arith(rcfg), _arith(bcfg)
    entries = ([hl.value(rcfg.convert(e)) for e in g.entries[:k]]
               + [bl.value(bcfg.convert(e)) for e in g.entries[k:]])
    return _solve(bl, bcfg, entries, None, k - 1, rcfg)


def shifted_add(u, v):
    return _entrywise("add", u, v)


def shifted_mul(u, v):
    return _entrywise("mul", u, v)


def shifted_neg(u):
    return _entrywise("neg", u)


def include_I(v):
    """The natural ring map into W_{m+n}(B): push the head through f.  Its
    values are v's with the head's lifted into B's; its ghost is v's
    shifted ghost, the head rows lifted the same way, kept when B is
    exact."""
    hl, bl, k = _codec(v.rcfg), _codec(v.bcfg), v.m + 1

    def lift(xs):
        return (*_lift_head(hl, bl, xs[:k]), *xs[k:])

    rows = lift(_rows(bl, v)) if v.bcfg.torsion_free else None
    return _vector(bl.cover, v.bcfg, -1, v.last, lambda: lift(_read(v)), rows)


def restrict_T(v):
    if v.n < 1:
        raise ZeroTail("restriction needs a nonempty tail")
    return _vector(v.rcfg, v.bcfg, v.m, v.last - 1, _read(v)[:-1])


def lateral_frobenius(v):
    """Ghost rule: apply phi to the m+1 head entries and drop the first
    tail ghost entry; every output coordinate is congruent to the q-th
    power of its input coordinate mod pi."""
    if v.n < 1:
        raise ZeroTail("lateral Frobenius needs a nonempty tail")
    return _ghost_shift(v, v.m + 1, 1, "lateral Frobenius")


def shift_E(v):
    """The ring map W_[m]n -> W_[m-1]n given coordinatewise by the plain
    Frobenius polynomials; its shifted ghost drops the leading entry, so
    it is computed by solving that shifted ghost."""
    if v.m < 1:
        raise ZeroShift("shift needs m >= 1")
    return _ghost_shift(v, 0, 1, "shift_E ghost path")


def scalar_shifted(rcfg, bcfg, m, n, r):
    """Image of r in W_[m]n(B) under the structure map (ghost entry i is
    phi^i(r))."""
    if not r.cfg.torsion_free:
        raise TorsionBase("the structure map needs an exact scalar ring")
    if n < 0:
        raise BadLength(f"tail length must be >= 0, got {n}")
    _check_shape(rcfg, bcfg, m, m + 1)
    _check_fixed(r, "the structure map")
    bl = _arith(bcfg, m + n)
    entries = _structure_chain(_arith(rcfg), bl, r, m + 1, m + n + 1)
    return _solve(bl, bcfg, entries, "structure map", m, rcfg)
