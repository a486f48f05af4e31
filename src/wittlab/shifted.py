"""Shifted Witt rings W_[m]n(B): a head of m+1 coordinates over R glued to
a tail of n coordinates over B, with the shifted ghost calculus and the
three operators that act on it (tail restriction, lateral Frobenius, and
the head-dropping ring map implemented by the plain Frobenius polynomials).
"""

from __future__ import annotations

from .errors import (
    BaseMismatch,
    ConfigUnsupported,
    LengthMismatch,
    TorsionBase,
    WittlabError,
    ZeroShift,
    ZeroTail,
)
from .witt import (
    GhostVector,
    WittVector,
    _arith,
    _check_fixed,
    _ghost_rows,
    _keep,
    _phi_chain,
    _solve_rows,
)


class ShiftedWittVector:
    """Head (r_0..r_m) over R and tail (b_{m+1}..b_{m+n}) over B.  When B
    is exact, ``_ghost`` keeps the unwrapped shifted ghost rows once they
    are known, as ``WittVector`` does; equality and hashing ignore it."""

    __slots__ = ("rcfg", "bcfg", "m", "head", "tail", "_ghost")

    def __init__(self, rcfg, bcfg, m, head, tail):
        head = tuple(head)
        tail = tuple(tail)
        if m < 0 or len(head) != m + 1:
            raise LengthMismatch(f"head must have m+1={m + 1} entries")
        if not rcfg.torsion_free:
            raise WittlabError("the head ring R must be exact")
        if not bcfg.compatible(rcfg):
            raise BaseMismatch("B must be an algebra over the same R")
        for r in head:
            if r.cfg != rcfg:
                raise BaseMismatch("head entry outside R")
        for b in tail:
            if b.cfg != bcfg:
                raise BaseMismatch("tail entry outside B")
        self.rcfg = rcfg
        self.bcfg = bcfg
        self.m = m
        self.head = head
        self.tail = tail
        self._ghost = None

    @property
    def n(self):
        return len(self.tail)

    def f(self, r):
        """Structure map R -> B."""
        return self.bcfg.convert(r)

    def __eq__(self, other):
        if not isinstance(other, ShiftedWittVector):
            return NotImplemented
        return (self.m == other.m and self.rcfg == other.rcfg
                and self.bcfg == other.bcfg and self.head == other.head
                and self.tail == other.tail)

    def __hash__(self):
        return hash((self.rcfg.key, self.bcfg.key, self.m,
                     self.head, self.tail))

    def __repr__(self):
        hs = ", ".join(repr(r) for r in self.head)
        ts = ", ".join(repr(b) for b in self.tail)
        return f"W[{self.m}]({hs}; {ts})"


def shifted_zero(rcfg, bcfg, m, n):
    return ShiftedWittVector(rcfg, bcfg, m,
                             (rcfg.zero(),) * (m + 1),
                             (bcfg.zero(),) * n)


def _check_pair(u, v):
    if u.m != v.m or u.n != v.n:
        raise LengthMismatch(
            f"shapes ({u.m},{u.n}) and ({v.m},{v.n}) differ")
    if u.rcfg != v.rcfg or u.bcfg != v.bcfg:
        raise BaseMismatch("shifted vectors live over different rings")


def _lift_head(hl, bl, rcfg, head):
    """Unwrapped head values of R as values of B's engine arithmetic."""
    if hl.cover is not bl.cover:
        head = [bl.unwrap(bl.cover.convert(hl.wrap(rcfg, x))) for x in head]
    return list(map(bl.reduce, head))


def _rows(v):
    """Engine arithmetics of R and B, and the shifted ghost rows of v:
    entries 0..m in R, entries m+1..m+n in B."""
    hl, bl = _arith(v.rcfg), _arith(v.bcfg, v.m + v.n)
    if v._ghost is not None:
        return hl, bl, v._ghost
    head = [hl.unwrap(r) for r in v.head]
    full = (_lift_head(hl, bl, v.rcfg, head)
            + [bl.unwrap(b) for b in v.tail])
    return hl, bl, _keep(v, v.bcfg, _ghost_rows(hl, head)
                         + _ghost_rows(bl, full, v.m + 1))


def _solve(hl, bl, rcfg, bcfg, entries, head_count, what=None):
    head = _solve_rows(hl, entries[:head_count], [],
                       "head ghost entry {} does not solve", what)
    comps = _solve_rows(bl, entries[head_count:],
                        _lift_head(hl, bl, rcfg, head),
                        "tail ghost entry {} does not solve", what)
    v = ShiftedWittVector(rcfg, bcfg, head_count - 1,
                          [hl.wrap(rcfg, x) for x in head],
                          [bl.wrap(bcfg, x) for x in comps[head_count:]])
    _keep(v, bcfg, entries)
    return v


def shifted_ghost(v):
    """Entries 0..m are computed in R, entries m+1..m+n in B."""
    hl, bl, rows = _rows(v)
    k = v.m + 1
    return GhostVector([hl.wrap(v.rcfg, w) for w in rows[:k]]
                       + [bl.wrap(v.bcfg, w) for w in rows[k:]],
                       head_count=k)


def shifted_ghost_solve(g, rcfg, bcfg):
    if g.head_count is None:
        raise WittlabError("ghost vector is not in shifted form")
    if not bcfg.torsion_free:
        raise TorsionBase("shifted ghost solve needs exact torsion-free B")
    hl, bl = _arith(rcfg), _arith(bcfg)
    k = g.head_count
    entries = ([hl.unwrap(rcfg.convert(e)) for e in g.entries[:k]]
               + [bl.unwrap(bcfg.convert(e)) for e in g.entries[k:]])
    return _solve(hl, bl, rcfg, bcfg, entries, k)


def _entrywise(op, u, v):
    _check_pair(u, v)
    hl, bl, ru = _rows(u)
    rv = _rows(v)[2]
    k = u.m + 1
    entries = (list(map(getattr(hl, op), ru[:k], rv[:k]))
               + list(map(getattr(bl, op), ru[k:], rv[k:])))
    return _solve(hl, bl, u.rcfg, u.bcfg, entries, k)


def shifted_add(u, v):
    return _entrywise("add", u, v)


def shifted_mul(u, v):
    return _entrywise("mul", u, v)


def shifted_neg(u):
    hl, bl, rows = _rows(u)
    k = u.m + 1
    entries = list(map(hl.neg, rows[:k])) + list(map(bl.neg, rows[k:]))
    return _solve(hl, bl, u.rcfg, u.bcfg, entries, k)


def include_I(v):
    """The natural ring map into W_{m+n}(B): push the head through f.  Its
    ghost is v's shifted ghost, read in B."""
    out = WittVector(v.bcfg, [v.f(r) for r in v.head] + list(v.tail))
    if v._ghost is not None and _arith(v.rcfg) is _arith(v.bcfg):
        out._ghost = v._ghost
    return out


def restrict_T(v):
    if v.n < 1:
        raise ZeroTail("restriction needs a nonempty tail")
    return ShiftedWittVector(v.rcfg, v.bcfg, v.m, v.head, v.tail[:-1])


def lateral_frobenius(v):
    """Ghost rule: apply phi to the m+1 head entries and drop the first
    tail ghost entry; every output coordinate is congruent to the q-th
    power of its input coordinate mod pi."""
    if v.n < 1:
        raise ZeroTail("lateral Frobenius needs a nonempty tail")
    if v.rcfg.phi_pi is not None and any(not r.is_zero() for r in v.head):
        raise ConfigUnsupported(
            "lateral Frobenius with a nonzero head needs phi(pi) = pi")
    hl, bl, rows = _rows(v)
    entries = [*map(hl.phi, rows[:v.m + 1]), *rows[v.m + 2:]]
    return _solve(hl, bl, v.rcfg, v.bcfg, entries, v.m + 1,
                  "lateral Frobenius")


def shift_E(v):
    """The ring map W_[m]n -> W_[m-1]n given coordinatewise by the plain
    Frobenius polynomials; its shifted ghost drops the leading entry, so
    it is computed by solving that shifted ghost."""
    if v.m < 1:
        raise ZeroShift("shift needs m >= 1")
    hl, bl, rows = _rows(v)
    return _solve(hl, bl, v.rcfg, v.bcfg, rows[1:], v.m, "shift_E ghost path")


def scalar_shifted(rcfg, bcfg, m, n, r):
    """Image of r in W_[m]n(B) under the structure map (ghost entry i is
    phi^i(r))."""
    if not r.cfg.torsion_free:
        raise TorsionBase("the structure map needs an exact scalar ring")
    _check_fixed(r, "the structure map")
    hl, bl = _arith(rcfg), _arith(bcfg, m + n)
    chain = _phi_chain(hl, hl.unwrap(rcfg.convert(r)), m + n + 1)
    entries = chain[:m + 1] + _lift_head(hl, bl, rcfg, chain[m + 1:])
    return _solve(hl, bl, rcfg, bcfg, entries, m + 1, "structure map")
