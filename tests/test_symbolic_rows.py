"""Symbolic ghost rows and solves: the polynomials they give are pinned.

* ``wittlab poly`` stdout for every cold shape of the benchmark's
  symbolic workload;
* universal polynomials over ramified orders (x^2 - 5, x^2 - 2, x^3 - 3);
* the symbolic kernel sum of two points over (x^3 - 3)/pi^6 in
  t_0..t_2, s_0..s_2, the CI check of a truncated symbolic base.

A polynomial row is summed in one term dict: no one-term product forms
pi^j y_j and no merge copies the row.
"""

import collections
import hashlib

from wittlab import cli, rings, witt
from wittlab.fgl import load_fgl
from wittlab.kernel import KernelPoint, kernel_add
from wittlab.rings import make_ring_config
from wittlab.serialize import canonical_dumps, encode_element
from wittlab.shifted import ShiftedWittVector, shifted_ghost

POLY_SHAPES = (("sum", 3, 2), ("prod", 3, 2), ("sum", 4, 2), ("prod", 4, 2),
               ("sum", 3, 3), ("prod", 3, 3), ("frobenius", 4, 2),
               ("mult_pi", 4, 2), ("sum", 5, 2))

ORDER_SHAPES = ((("sum", "prod"), 2, {"p": 5, "modulus": [-5, 0, 1]}),
                (("sum", "prod"), 3, {"p": 2, "modulus": [-2, 0, 1]}),
                (("sum",), 2, {"p": 3, "modulus": [-3, 0, 0, 1]}))


def _digest(obj):
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def _cold(monkeypatch, tmp_path):
    monkeypatch.setattr(witt, "_MEMO", {})
    monkeypatch.setenv("WITTLAB_CACHE_DIR", str(tmp_path))


def test_cold_poly_stdout_is_pinned(monkeypatch, tmp_path, capsys):
    _cold(monkeypatch, tmp_path)
    outputs = []
    for op, n, p in POLY_SHAPES:
        argv = ["poly", "--op", op, "--n", str(n), "--p", str(p)]
        assert cli.main(argv) == 0, argv
        outputs.append([argv, capsys.readouterr().out])
    assert _digest(outputs) == (
        "579a7380404297fa2d7ef020783d1aae4ea2419dcef214239cf7e27c67dd2a82")


def test_order_universal_polynomials_are_pinned(monkeypatch, tmp_path):
    _cold(monkeypatch, tmp_path)
    outputs = []
    for ops, n, spec in ORDER_SHAPES:
        cfg = make_ring_config(spec)
        for op in ops:
            polys = witt.universal_polynomials(op, n, cfg=cfg)
            outputs.append([op, n, spec, [encode_element(f) for f in polys]])
    assert _digest(outputs) == (
        "68454b5e8273138decf4967e499b93f69439b5418828901920485afc91299709")


def test_truncated_symbolic_kernel_sum_is_pinned():
    names = [c + str(i) for c in "ts" for i in range(3)]
    R = make_ring_config({"p": 3, "modulus": [-3, 0, 0, 1], "vars": names})
    law = load_fgl("tests/data/lt_p3_d16.json", R.base_exact())
    B = R.truncated(6)
    t, s = (KernelPoint(law, R, B, 0, [B.var(c + str(i)) for i in range(3)])
            for c in "ts")
    coords = kernel_add(t, s).coords
    assert sum(len(c.terms) for c in coords) == 162
    assert _digest([encode_element(c) for c in coords]) == (
        "51df05fded887f6453088fe8169b16ac86d912bb46c2aadd510f428a8c51f115")


def test_symbolic_rows_build_no_intermediate_rows(monkeypatch, tmp_path):
    """Inside the row kernel, the universal sum at n = 4, p = 2 makes no
    one-term product (pi times a row) and no merge (a row plus a power)."""
    _cold(monkeypatch, tmp_path)
    calls, depth = collections.Counter(), [0]

    def inside(fn):
        def run(*args, **kw):
            depth[0] += 1
            try:
                return fn(*args, **kw)
            finally:
                depth[0] -= 1
        return run

    def counted(name, fn, one_term=lambda *args: True):
        def run(*args, **kw):
            if depth[0] and one_term(*args):
                calls[name] += 1
            return fn(*args, **kw)
        return run

    for name in ("_solve_rows", "_ghost_rows"):
        monkeypatch.setattr(witt, name, inside(getattr(witt, name)))
    monkeypatch.setattr(rings, "_product", counted(
        "_product", rings._product, lambda cfg, a, b: min(len(a), len(b)) == 1))
    monkeypatch.setattr(rings.RingElement, "_merge",
                        counted("_merge", rings.RingElement._merge))
    polys = witt.universal_polynomials("sum", 4, p=2)
    assert sum(len(f.terms) for f in polys) == 507
    assert calls == {}


def test_truncated_polynomial_rows_are_canonical():
    """A ghost row over a truncated base with variables is the residue of
    the exact row: the term dict is reduced when it is wrapped."""
    for spec in ({"p": 2, "trunc": 3}, {"p": 5, "modulus": [-5, 0, 1],
                                         "trunc": 3}):
        B = make_ring_config(dict(spec, vars=["a", "b"]))
        R = B.exact_cover()
        a, b = R.var("a"), R.var("b")
        coords = [a * 3 + 1, a * b + 5, b * 7 - a, a * a * 11 + 9]
        exact = witt.WittVector(R, coords)
        v = witt.WittVector(B, list(map(B.convert, coords)))
        assert witt.ghost(v).entries == tuple(
            map(B.convert, witt.ghost(exact).entries))
        sv = ShiftedWittVector(R, B, 1, coords[:2],
                               list(map(B.convert, coords[2:])))
        se = ShiftedWittVector(R, R, 1, coords[:2], coords[2:])
        got, want = shifted_ghost(sv).entries, shifted_ghost(se).entries
        assert got[:2] == want[:2]      # the head rows, in R
        assert got[2:] == tuple(map(B.convert, want[2:]))
