"""Command-line interface, exercised through subprocesses."""

import json
import os
import subprocess
import sys

import jsonschema
import pytest

from wittlab.laws import REPORT_SCHEMA


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


def test_eval_unknown_op(tmp_path):
    r = run_cli(["eval", "--ring", '{"p":2}', "--op", "quotient",
                 "--in", "[1]"], tmp_path)
    assert r.returncode == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--ring", '{"p":2}', "--op", "neg", "--in", "-5"],
    ["eval", "--ring", '{"p":2}', "--op", "neg", "--in", None],
    ["eval", "--ring", "{}", "--op", "neg", "--in", "[1]"],
    ["eval", "--ring", '{"p":2,"trunc":"x"}', "--op", "neg", "--in", "[1]"],
    ["verify", "--law", "L1", "--p", "2", "--ramified", "false",
     "--trials", "-3"],
    ["kernel", "--trials", "0"],
    ["kernel", "--group", "nosuch"],
], ids=["in-negative", "in-missing-file", "ring-without-p", "ring-bad-trunc",
        "verify-trials-negative", "kernel-trials-zero",
        "kernel-unknown-group"])
def test_eval_malformed_input_is_usage_error(tmp_path, argv):
    # None stands for a file that does not exist
    argv = [a if a is not None else str(tmp_path / "missing.json")
            for a in argv]
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
