"""Command-line interface, exercised through subprocesses."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from wittlab import cli, witt
from wittlab.laws import REPORT_SCHEMA
from wittlab.serialize import canonical_dumps


def run_cli(args, tmp_path, **kw):
    env = dict(os.environ)
    env["WITTLAB_CACHE_DIR"] = str(tmp_path / "cache")
    return subprocess.run([sys.executable, "-m", "wittlab.cli", *args],
                          capture_output=True, text=True, env=env, **kw)


# ----------------------------------------------------------------------
# poly


def test_poly_sum_golden(tmp_path):
    a = run_cli(["poly", "--op", "sum", "--n", "1", "--p", "2"], tmp_path)
    b = run_cli(["poly", "--op", "sum", "--n", "1", "--p", "2"], tmp_path)
    assert a.returncode == 0
    assert a.stdout == b.stdout          # byte-stable across runs
    doc = json.loads(a.stdout)
    assert doc["op"] == "sum" and doc["p"] == 2


def test_poly_frobenius(tmp_path):
    r = run_cli(["poly", "--op", "frobenius", "--n", "1", "--p", "3"],
                tmp_path)
    assert r.returncode == 0
    assert json.loads(r.stdout)["polys"]


# ----------------------------------------------------------------------
# eval


def test_eval_frobenius(tmp_path):
    r = run_cli(["eval", "--ring", '{"p":2}', "--op", "frobenius",
                 "--in", "[3,5]"], tmp_path)
    assert r.returncode == 0
    assert json.loads(r.stdout) == [19]


def test_eval_shift(tmp_path):
    r = run_cli(["eval", "--ring", '{"p":2}', "--op", "shift_E",
                 "--in", "[0,0,5]", "--m", "1"], tmp_path)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["head"] == [0] and doc["tail"] == [10]


def test_eval_add(tmp_path):
    r = run_cli(["eval", "--ring", '{"p":2}', "--op", "add",
                 "--in", '{"u":[1,0],"v":[1,0]}'], tmp_path)
    assert r.returncode == 0
    assert json.loads(r.stdout) == [2, -1]


def test_eval_ghost_solve_roundtrip(tmp_path):
    r = run_cli(["eval", "--ring", '{"p":3}', "--op", "ghost",
                 "--in", "[2,-1,4]"], tmp_path)
    g = json.loads(r.stdout)["ghost"]
    r2 = run_cli(["eval", "--ring", '{"p":3}', "--op", "ghost_solve",
                  "--in", json.dumps(g)], tmp_path)
    assert r2.returncode == 0
    assert json.loads(r2.stdout) == [2, -1, 4]


def test_eval_ghost_solve_non_integral(tmp_path):
    r = run_cli(["eval", "--ring", '{"p":2}', "--op", "ghost_solve",
                 "--in", "[1,0]"], tmp_path)
    assert r.returncode == 2
    assert "NonIntegral" in r.stderr


def test_eval_input_from_file(tmp_path):
    f = tmp_path / "v.json"
    f.write_text("[3,5]\n")
    r = run_cli(["eval", "--ring", '{"p":2}', "--op", "mult_pi",
                 "--in", str(f)], tmp_path)
    assert r.returncode == 0
    assert json.loads(r.stdout) == [6, 1]


def test_eval_reads_each_op_by_its_declared_input(capsys):
    ram = '{"p":5,"modulus":[-5,0,1]}'
    outs = []
    for ring, op, data, flags in [
            (ram, "delta", "[2,3]", []),
            (ram, "delta", '{"terms":[{"coeff":[2,3],"monomial":{}}]}', []),
            ('{"p":2}', "teichmuller", "-5", ["--n", "1"])]:
        assert cli.main(["eval", "--ring", ring, "--op", op, "--in", data,
                         *flags]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    # an order element written as a coefficient list is an element for
    # delta, and a leading minus sign starts a JSON number, not a file name
    assert outs == [[-11712, -4776], [-11712, -4776], [-5, 0]]


def test_eval_unknown_op(tmp_path):
    r = run_cli(["eval", "--ring", '{"p":2}', "--op", "quotient",
                 "--in", "[1]"], tmp_path)
    assert r.returncode == 2


# Per ring: a Witt vector, a second one, a shifted vector (m = 1, n = 1) as
# a list, an element (an int, or a coefficient list), the ghost vector of
# the first Witt vector and the shifted ghost of the shifted one.
EVAL_RINGS = [
    ({"p": 2}, [3, 1, 2], [1, 2, 3], [1, 2, 3], 5, [3, 11, 91], [1, 5, 21]),
    ({"p": 3}, [2, -1, 4], [0, 2, 3], [2, 1, 1], 4, [2, 5, 545],
     [2, 11, 524]),
    ({"p": 5, "modulus": [-5, 0, 1]}, [1, [0, 1], 2], [[1, 1], 0, 3],
     [1, 0, [0, 1]], [2, 3], [[1, 0], [6, 0], [136, 0]],
     [[1, 0], [1, 0], [1, 5]]),
    ({"p": 5, "trunc": 4}, [7, 2, -3], [2, 0, 1], None, 6, None, None),
]
WITT_OPS = ["ghost", "frobenius", "verschiebung", "truncate", "neg",
            "mult_pi"]
SHIFTED_OPS = ["shifted_ghost", "include_I", "restrict_T",
               "lateral_frobenius", "shift_E"]


def _eval_corpus():
    """(ring, op, input, extra flags) for every op and each input form it
    accepts; a shifted head needs an exact ring, so the truncated ring runs
    the Witt-vector and element ops only."""
    cases = []
    for spec, w, w2, h, e, g, gs in EVAL_RINGS:
        one = [e] if isinstance(e, int) else e
        elems = [e, one, {"terms": [{"coeff": e, "monomial": {}}]}]
        forms = [(op, w, []) for op in WITT_OPS]
        forms += [(op, {"u": w, "v": w2}, []) for op in ("add", "mul", "sub")]
        forms += [("teichmuller", x, ["--n", "2"]) for x in elems]
        if h is not None:
            sh = {"m": 1, "n": 1, "head": h[:2], "tail": h[2:]}
            forms += [(op, x, flags) for op in SHIFTED_OPS
                      for x, flags in ((sh, []), (h, ["--m", "1"]),
                                       (h, ["--m", "1", "--n", "1"]))]
            forms += [(op, x, flags) for op in ("shifted_add", "shifted_mul")
                      for x, flags in (({"u": sh, "v": sh}, []),
                                       ({"u": h, "v": w2}, ["--m", "1"]),
                                       ({"u": sh, "v": w2}, ["--m", "1"]))]
            forms += [("delta", x, []) for x in elems
                      if not isinstance(x, list)]
            forms += [("exp_delta", x, ["--n", "2"]) for x in elems]
            forms += [("ghost_solve", x, flags) for x, flags in (
                ({"ghost": g}, []), ({"ghost": gs, "head_count": 2}, []),
                (g, []), (gs, ["--m", "1"]))]
        cases += [(json.dumps(spec), op, json.dumps(x), flags)
                  for op, x, flags in forms]
    return cases


def test_eval_outputs_are_pinned(capsys):
    outputs = []
    for ring, op, data, flags in _eval_corpus():
        argv = ["eval", "--ring", ring, "--op", op, "--in", data, *flags]
        assert cli.main(argv) == 0, argv
        outputs.append([argv, capsys.readouterr().out])
    assert len(outputs) == 137
    assert hashlib.sha256(canonical_dumps(outputs).encode()).hexdigest() == (
        "74b0011ba614b76dffc6d3e0e8c12eb940885fb1e5efc4d39036046f0b3f283f")


def test_failed_guaranteed_solve_is_an_internal_error(monkeypatch, capsys):
    # mult_pi's ghost rows <0, 0, 1> scale to <0, 0, 2>, which no integral
    # vector over Z at p = 2 has as its ghost: the engine must report that
    # the map the theory guarantees did not solve, with exit code 3
    monkeypatch.setattr(witt, "_rows", lambda ar, v: [0, 0, 1])
    assert cli.main(["eval", "--ring", '{"p":2}', "--op", "mult_pi",
                     "--in", "[1,2,3]"]) == 3
    assert capsys.readouterr().err == (
        "internal error: (pi) map failed to solve: ghost entry 2 is not in "
        "the image of the ghost map\n")


@pytest.mark.parametrize("argv", [
    ["eval", "--ring", '{"p":2}', "--op", "neg", "--in", "-5"],
    ["eval", "--ring", '{"p":2}', "--op", "neg", "--in", None],
    ["eval", "--ring", "{}", "--op", "neg", "--in", "[1]"],
    ["eval", "--ring", '{"p":2,"trunc":"x"}', "--op", "neg", "--in", "[1]"],
    ["verify", "--law", "L1", "--p", "2", "--ramified", "false",
     "--trials", "-3"],
    ["kernel", "--trials", "0"],
    ["verify", "--law", "L15,L16", "--prec", "0"],
    ["verify", "--law", "L15,L16", "--prec", "-1"],
    ["kernel", "--group", "nosuch"],
    ["eval", "--ring", '{"p":2}', "--op", "shifted_ghost",
     "--in", '{"head":[1],"tail":[]}'],
    ["eval", "--ring", '{"p":2}', "--op", "delta", "--in", '{"terms":[5]}'],
    ["eval", "--ring", '{"p":2}', "--op", "delta",
     "--in", '{"terms":[{"coeff":"a"}]}'],
    ["eval", "--ring", '{"p":2}', "--op", "delta",
     "--in", '{"terms":[{"coeff":1,"monomial":5}]}'],
    ["eval", "--ring", '{"p":2}', "--op", "delta",
     "--in", '{"terms":[{"monomial":{}}]}'],
    ["eval", "--ring", '{"p":2}', "--op", "neg", "--in", '[["a"]]'],
    ["eval", "--ring", '{"p":2,"vars":5}', "--op", "neg", "--in", "[1]"],
    ["eval", "--ring", '{"p":2}', "--op", "neg", "--in", "[1]",
     "--m", "0"],
    ["eval", "--ring", '{"p":2}', "--op", "delta", "--in", "[1,2]"],
    ["eval", "--ring", '{"p":2}', "--op", "ghost_solve",
     "--in", '{"ghost":[1],"head_count":"x"}'],
    ["poly", "--op", "sum", "--n", "1", "--p", "2",
     "--out", "@tmp/no-such-dir/out.json"],
    ["verify", "--law", "L1", "--p", "2", "--ramified", "false",
     "--trials", "1", "--report", "@tmp/no-such-dir/report.json"],
    ["eval", "--ring", '{"p":2}', "--op", "neg", "--in", "[[1.5],[2.9]]"],
    ["eval", "--ring", '{"p":2}', "--op", "neg", "--in", "[true,2]"],
    ["eval", "--ring", '{"p":5,"modulus":[-5.9,0,1]}', "--op", "neg",
     "--in", "[1]"],
    ["eval", "--ring", '{"p":2,"trunc":2.7}', "--op", "neg", "--in", "[1]"],
    ["eval", "--ring", '{"p":2,"trunc":true}', "--op", "neg", "--in", "[1]"],
    ["eval", "--ring", '{"p":2}', "--op", "shifted_ghost",
     "--in", '{"m":true,"n":1,"head":[1,2],"tail":[3]}'],
    ["eval", "--ring", '{"p":2}', "--op", "shifted_ghost",
     "--in", '{"m":1,"n":1.0,"head":[1,2],"tail":[3]}'],
    ["eval", "--ring", '{"p":2}', "--op", "ghost_solve",
     "--in", '{"ghost":[1,3],"head_count":true}'],
    ["verify", "--law", "L1", "--trials", "1", "--ramified", "no"],
    ["verify", "--law", "L1", "--trials", "1", "--ramified", "0"],
    ["eval", "--ring", '{"p":2,"vars":"xy"}', "--op", "neg", "--in", "[1]"],
    ["eval", "--ring", '{"p":2,"vars":[1]}', "--op", "neg", "--in", "[1]"],
    ["eval", "--ring", '{"p":5,"modulus":[-10,0,1]}', "--op", "ghost",
     "--in", "[1]"],
], ids=["in-negative", "in-missing-file", "ring-without-p", "ring-bad-trunc",
        "verify-trials-negative", "kernel-trials-zero", "verify-prec-zero",
        "verify-prec-negative",
        "kernel-unknown-group", "shifted-without-m", "terms-not-objects",
        "coeff-not-a-number", "monomial-not-an-object", "term-without-coeff",
        "coeff-list-of-lists", "ring-vars-not-a-list", "witt-op-given-m",
        "element-op-given-a-vector", "head-count-not-an-integer",
        "poly-out-missing-dir", "verify-report-missing-dir",
        "coeff-float", "coeff-boolean", "ring-modulus-float",
        "ring-trunc-float", "ring-trunc-boolean", "shifted-m-boolean",
        "shifted-n-float", "head-count-boolean", "verify-ramified-no",
        "verify-ramified-zero", "ring-vars-string", "ring-vars-int",
        "ring-constant-term-not-plus-minus-p"])
def test_eval_malformed_input_is_usage_error(tmp_path, argv):
    # None stands for a file that does not exist
    argv = [a if a is not None else str(tmp_path / "missing.json")
            for a in argv]
    argv = [a.replace("@tmp", str(tmp_path)) for a in argv]
    r = run_cli(argv, tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ")
    assert len(r.stderr.splitlines()) == 1


# a cache file's stored request, up to its "polys" field
OTHER_OP = '{"modulus": null, "n": 1, "op": "prod", "p": 2, "phi_pi": null, '
SAME_OP = OTHER_OP.replace('"prod"', '"sum"')


@pytest.mark.parametrize("garbage", ['{"polys": [', "{}", "[]",
                                     '{"polys": [{"terms": 5}]}',
                                     "5", '{"polys": [7]}',
                                     OTHER_OP + '"polys": [0]}',
                                     OTHER_OP + '"polys": [0, 0]}',
                                     SAME_OP + '"polys": [0]}'],
                         ids=["truncated", "no-polys", "not-an-object",
                              "bad-terms", "scalar", "polys-only", "other-op",
                              "other-op-same-count", "too-few-polys"])
def test_poly_corrupt_cache_file_is_a_miss(tmp_path, garbage):
    argv = ["poly", "--op", "sum", "--n", "1", "--p", "2"]
    first = run_cli(argv, tmp_path)
    (path,) = (tmp_path / "cache").glob("*.json")
    good = path.read_bytes()
    path.write_text(garbage)
    again = run_cli(argv, tmp_path)
    assert again.returncode == 0, again.stderr
    assert again.stdout == first.stdout
    assert path.read_bytes() == good
    assert list(path.parent.iterdir()) == [path]     # no temporary left


# ----------------------------------------------------------------------
# verify


def test_verify_unknown_law(tmp_path):
    r = run_cli(["verify", "--law", "L99"], tmp_path)
    assert r.returncode == 2


def test_verify_small_run(tmp_path):
    report = tmp_path / "report.json"
    r = run_cli(["verify", "--law", "L1,L7", "--p", "2",
                 "--ramified", "false", "--trials", "5",
                 "--report", str(report)], tmp_path)
    assert r.returncode == 0
    assert "summary:" in r.stdout
    docs = json.loads(report.read_text())
    assert docs
    for doc in docs:
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["status"] == "pass"


# ----------------------------------------------------------------------
# kernel


def test_kernel_diff_sample(tmp_path):
    r = run_cli(["kernel", "--group", "ga", "--p", "2", "--m", "0",
                 "--n", "2", "--check", "diff", "--trials", "5"], tmp_path)
    assert r.returncode == 0
    (entry,) = json.loads(r.stdout)
    assert entry["status"] == "pass"
    assert entry["sample"] == [2, -2]


def test_kernel_psi_gate(tmp_path):
    r = run_cli(["kernel", "--group", "gm", "--p", "2",
                 "--check", "psi"], tmp_path)
    assert r.returncode == 2
    assert "e <= p-2" in r.stderr


def test_kernel_gm_all(tmp_path):
    r = run_cli(["kernel", "--group", "gm", "--p", "5", "--m", "1",
                 "--n", "2", "--prec", "6", "--trials", "5"], tmp_path)
    assert r.returncode == 0
    assert r.stdout == (
        '[{"check":"psi","detail":null,"status":"pass","trials":5},'
        '{"check":"phi","detail":null,"status":"pass","trials":5},'
        '{"check":"diff","detail":null,"sample":[25,0],"status":"pass",'
        '"trials":5}]\n')


def test_kernel_ga_all(tmp_path):
    r = run_cli(["kernel", "--group", "ga", "--p", "3", "--m", "2",
                 "--n", "3"], tmp_path)
    assert r.returncode == 0
    assert r.stdout == (
        '[{"check":"psi","detail":null,"status":"pass","trials":25},'
        '{"check":"phi","detail":null,"status":"pass","trials":25},'
        '{"check":"diff","detail":null,'
        '"sample":[27,-6561,-753145430616],"status":"pass","trials":25}]\n')


@pytest.mark.parametrize("table", [{"coeffs": [{"i": 1}]}, {"coeffs": 5},
                                   {"degree": "x", "coeffs": []}],
                         ids=["entry-without-j", "coeffs-not-a-list",
                              "degree-not-an-integer"])
def test_kernel_malformed_group_table_is_usage_error(tmp_path, table):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(table))
    r = run_cli(["kernel", "--group", str(path), "--trials", "1"], tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert len(r.stderr.splitlines()) == 1


# ----------------------------------------------------------------------
# the error contract under fuzzing: every argv exits 0, 1 or 2, and a
# usage error prints one "error:" line, never a traceback

# valid specs (a phi that moves pi, a variable) and invalid ones
FUZZ_RINGS = ['{"p":2}', '{"p":3}', '{"p":5,"modulus":[-5,0,1]}',
              '{"p":5,"trunc":4}',
              '{"p":5,"modulus":[-5,0,1],"phi_pi":[0,-1]}',
              '{"p":2,"vars":["x0"]}', "{}", "[2]", '{"p":4}',
              '{"p":2,"vars":5}', '{"p":2,"trunc":"x"}',
              '{"p":5,"modulus":[5,0,1],"phi_pi":[1]}']
FUZZ_KEYS = ["u", "v", "m", "n", "head", "tail", "ghost", "head_count",
             "terms", "coeff", "monomial"]
fuzz_json = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(FUZZ_KEYS), inner,
                                     max_size=4)),
    max_leaves=10)
small = st.integers(-1, 3)


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: "), argv
        assert len(err.getvalue().splitlines()) == 1, argv


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(sorted(cli._EVAL) + ["quotient"]),
       ring=st.sampled_from(FUZZ_RINGS), data=fuzz_json,
       m=st.none() | small, n=st.none() | small)
def test_eval_fuzz_keeps_the_error_contract(op, ring, data, m, n):
    argv = ["eval", "--ring", ring, "--op", op, "--in", json.dumps(data)]
    argv += ["--m", str(m)] if m is not None else []
    argv += ["--n", str(n)] if n is not None else []
    _run_in_process(argv)


@settings(max_examples=150, deadline=None)
@given(group=st.sampled_from(["ga", "gm", "nosuch"]),
       p=st.sampled_from([2, 3, 4, 5, 7]), m=small, n=small,
       prec=st.integers(0, 4))
def test_kernel_fuzz_keeps_the_error_contract(group, p, m, n, prec):
    _run_in_process(["kernel", "--group", group, "--p", str(p), "--m", str(m),
                     "--n", str(n), "--prec", str(prec), "--trials", "1"])
