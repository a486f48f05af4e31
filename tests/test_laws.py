"""Law harness: registry coverage, seeded determinism, report schema,
and the mutation self-tests."""

import dataclasses
import hashlib
import json

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from wittlab import cli, laws
from wittlab.errors import (ConfigUnsupported, InternalError, UnknownLaw,
                            WittlabError)
from wittlab.kernel import KernelPoint
from wittlab.laws import (
    REGISTRY,
    REPORT_SCHEMA,
    default_matrix,
    run_law,
    run_suite,
    symbolic_verify,
)
from wittlab.rings import make_ring_config
from wittlab.serialize import canonical_dumps, encode_element
from wittlab.shifted import ShiftedWittVector, lateral_frobenius
from wittlab.witt import GhostVector, WittVector

Z2 = make_ring_config({"p": 2})
RAM5 = make_ring_config({"p": 5, "modulus": [-5, 0, 1]})

NUMBERED = [f"L{i}" for i in range(1, 17)]
TABLES = ["table-i", "table-ii", "table-iii"]


# ----------------------------------------------------------------------
# registry


def test_registry_coverage():
    for law_id in NUMBERED + TABLES:
        assert law_id in REGISTRY
    assert REGISTRY["sabotage-lateral"].sabotage
    assert REGISTRY["sabotage-shift"].sabotage
    for law_id in NUMBERED + TABLES:
        assert not REGISTRY[law_id].sabotage


def test_unknown_law():
    with pytest.raises(UnknownLaw):
        run_law("L99", Z2)
    with pytest.raises(UnknownLaw):
        run_suite(law_filter="L99")


# ----------------------------------------------------------------------
# single-law runs


def test_run_law_examples():
    r = run_law("L7", Z2, trials=100, seed=42)
    assert r.status == "pass" and r.trials == 100

    r = run_law("L13", RAM5, trials=50, seed=42)
    assert r.status == "pass"


def test_skip_with_reason():
    r = run_law("L15", Z2, trials=10, seed=0)
    assert r.status == "skipped"
    assert "psi_integral" in r.reason
    assert r.trials == 0


def test_trials_below_one_rejected():
    for trials in (0, -3):
        with pytest.raises(WittlabError):
            run_law("L1", Z2, trials=trials)
        with pytest.raises(WittlabError):
            run_law("L15", Z2, trials=trials)   # before the skip


def test_kernel_command_and_l13_share_one_check(monkeypatch, capsys):
    real_phi = laws.kernel_phi

    def wrong_phi(t):
        out = real_phi(t)
        coords = (out.coords[0] + out.bcfg.one(),) + out.coords[1:]
        return KernelPoint(out.law, out.rcfg, out.bcfg, out.m, coords)

    monkeypatch.setattr(laws, "kernel_phi", wrong_phi)
    assert run_law("L13", Z2, trials=3).status == "fail"
    assert cli.main(["kernel", "--group", "ga", "--p", "2", "--m", "1",
                     "--n", "2", "--check", "phi", "--trials", "3"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["status"] == "fail" and entry["detail"] == {"trial": 0}
    assert entry["trials"] == 1


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_harness_bytes_are_pinned(monkeypatch, capsys):
    # The sabotage counterexamples make the report hash see any change in
    # the order in which trials draw from their seeded streams; the record
    # of every drawn element sees it in the laws that pass.
    drawn, draw = [], laws._rand_elem

    def recording_draw(cfg, rng):
        x = draw(cfg, rng)
        drawn.append(encode_element(x))
        return x

    monkeypatch.setattr(laws, "_rand_elem", recording_draw)
    reports, summary = run_suite(trials=3, seed=5, include_sabotage=True)
    assert summary == {"pass": 66, "fail": 6, "skipped": 1, "total": 73}
    docs = [r.to_json() for r in reports]
    for doc in docs:
        doc.pop("ms")
    assert _sha256(canonical_dumps(docs)) == (
        "204c127e846a538616f47d58a31575a4a37271dba005f9f08b4972d1c08fec35")
    assert len(drawn) == 644 and _sha256(canonical_dumps(drawn)) == (
        "973922bf6df4a40ed7e389c57bed5f30f37f48799e1826d779f617fce0e2c555")
    drawn.clear()
    for argv, digest in [
        (["--group", "gm", "--p", "5", "--check", "all"],
         "6263e0a65790a80ae1bfa749616b9ca8c716d19a6c7d5a18248e80a8494c4aab"),
        (["--group", "ga", "--p", "2", "--m", "1", "--n", "2", "--check",
          "all"],
         "7bbddb162ec349a5495dece1ff52210010c5069c1127f1706c71bb514f93c84a"),
    ]:
        assert cli.main(["kernel", *argv]) == 0
        assert _sha256(capsys.readouterr().out) == digest
    assert len(drawn) == 275 and _sha256(canonical_dumps(drawn)) == (
        "48d366d6141f6b310de59e751ed6fe6927efc01ae7c98728822f345e2d5771cd")


def test_capped_harness_bytes_are_pinned(monkeypatch):
    # m_max and n_max cap every _pick range, and prec reaches the bases of
    # the non-additive kernel points: the streams of that run are pinned too
    drawn, draw = [], laws._rand_elem

    def recording_draw(cfg, rng):
        x = draw(cfg, rng)
        drawn.append(encode_element(x))
        return x

    monkeypatch.setattr(laws, "_rand_elem", recording_draw)
    reports, summary = run_suite(trials=3, seed=5, include_sabotage=True,
                                 m_max=1, n_max=2, prec=4)
    assert summary == {"pass": 66, "fail": 6, "skipped": 1, "total": 73}
    docs = [r.to_json() for r in reports]
    for doc in docs:
        doc.pop("ms")
    assert _sha256(canonical_dumps(docs)) == (
        "3ebb19edcb9212ee34093478731e507c4d6991b4636b459b9e1ad3fba9ad06ac")
    assert len(drawn) == 540 and _sha256(canonical_dumps(drawn)) == (
        "880831d34a11e4910695280ab269b46f130e967853a425a6ce89c25ad549f29b")


def _bump(fn):
    """fn with one added to the first coordinate of what it returns."""
    def wrong(*args):
        out = fn(*args)
        if isinstance(out, WittVector):
            c = out.comps
            return WittVector(out.cfg, (c[0] + out.cfg.one(),) + c[1:])
        if isinstance(out, KernelPoint):
            c = out.coords
            return KernelPoint(out.law, out.rcfg, out.bcfg, out.m,
                               (c[0] + out.bcfg.one(),) + c[1:])
        if isinstance(out, ShiftedWittVector):
            h = out.head
            return ShiftedWittVector(out.rcfg, out.bcfg, out.m,
                                     (h[0] + out.rcfg.one(),) + h[1:],
                                     out.tail)
        if isinstance(out, GhostVector):
            e = out.entries
            return GhostVector((e[0] + e[0].cfg.one(),) + e[1:],
                               out.head_count)
        return out + out.cfg.one()
    return wrong


# one planted fault per identity a check compares: (law, the name in
# wittlab.laws replaced, its replacement given the real operator)
PLANTED_FAULTS = [
    ("L2", "ghost_solve", _bump),
    ("L3", "mult_pi", lambda real: lambda v: v),
    ("L5", "c_pi", lambda real: lambda x, y: x.cfg.zero()),
    ("L6", "include_I", _bump),
    ("L7", "shift_E", _bump),
    ("L8", "shifted_ghost", _bump),
    ("L9", "lateral_frobenius", _bump),
    ("L11", "kernel_lateral_f", _bump),
    ("L13", "kernel_phi", _bump),
    ("L14", "kernel_lateral_f", _bump),
    ("L15", "kernel_phi", _bump),                       # the Psi ladder
    ("L15", "kernel_add", lambda real: lambda t, s: t),  # additivity
    ("L16", "kernel_section_sigma", _bump),
    ("table-ii", "frobenius", _bump),
    ("table-ii", "kernel_lateral_f", _bump),            # its L14 part
    ("table-iii", "mult_pi", _bump),
    ("table-iii", "kernel_lateral_f", _bump),           # Phi f = f Phi
]


def test_planted_fault_counterexamples_are_pinned(monkeypatch):
    # every check that reports two differing sides, made to fail by one
    # wrong operator: the bytes of each counterexample it reports are pinned
    out = []
    for law_id, name, fault in PLANTED_FAULTS:
        with monkeypatch.context() as mp:
            mp.setattr(laws, name, fault(getattr(laws, name)))
            ces = [run_law(law_id, cfg, trials=3, seed=5).counterexample
                   for cfg in default_matrix()]
        assert any(ces), (law_id, name)
        assert all(ce is None or {"inputs", "lhs", "rhs", "trial"} == set(ce)
                   for ce in ces), (law_id, name, ces)
        out.append([law_id, name, ces])
    assert _sha256(canonical_dumps(out)) == (
        "4264bad1e49aecfcde649eb14c08342615ffccd7e6dfbe7f483f8a9a476bc6c7")


def test_determinism_modulo_timing():
    a = run_law("L1", Z2, trials=20, seed=7).to_json()
    b = run_law("L1", Z2, trials=20, seed=7).to_json()
    a.pop("ms"), b.pop("ms")
    assert a == b


def test_reports_validate():
    for law_id in ("L1", "L3", "L15", "sabotage-lateral"):
        r = run_law(law_id, Z2, trials=5, seed=1)
        jsonschema.validate(r.to_json(), REPORT_SCHEMA)


# ----------------------------------------------------------------------
# symbolic mode


def test_symbolic_verify():
    r = symbolic_verify("L6", {"p": 2, "m": 0, "n": 2})
    assert r.status == "pass" and r.mode == "symbolic"
    r = symbolic_verify("L12", {"p": 2, "m": 1, "n": 1})
    assert r.status == "pass"


@pytest.mark.parametrize("law_id,case", [
    ("L11", {"p": 2, "m": 2, "n": 1}),
    ("L7", {"p": 2, "m": 0, "n": 2}),
    ("L13", {"p": 2, "m": 0, "n": 1}),
    ("L6", {"p": 2, "m": -1, "n": 2}),
    ("L12", {"p": 2, "m": 1, "n": 1.0}),
], ids=["L11-n1", "L7-m0", "L13-m0", "L6-m-negative", "L12-n-float"])
def test_symbolic_case_below_the_law_shape_is_usage_error(law_id, case):
    # a usage error, not a "fail" report carrying ZeroTail or ZeroShift
    with pytest.raises(WittlabError, match="needs integers m >="):
        symbolic_verify(law_id, case)


def test_registered_symbolic_cases_fit_their_law():
    for spec in REGISTRY.values():
        m_min, n_min = spec.min_shape
        for case in spec.symbolic_cases:
            assert case["m"] >= m_min and case["n"] >= n_min, (spec.id, case)


def test_symbolic_case_without_p_is_usage_error():
    for case in ({"m": 1, "n": 2}, {"p": "2", "m": 1, "n": 2},
                 {"p": True, "m": 1, "n": 2}):
        with pytest.raises(WittlabError, match="p="):
            symbolic_verify("L6", case)


def test_symbolic_unsupported():
    with pytest.raises(ConfigUnsupported):
        symbolic_verify("L1", {"p": 2, "m": 0, "n": 1})


# ----------------------------------------------------------------------
# mutation self-tests


def test_sabotage_laws_fail_fast():
    for law_id in ("sabotage-lateral", "sabotage-shift"):
        r = run_law(law_id, Z2, trials=100, seed=0, m_max=1, n_max=2)
        assert r.status == "fail"
        assert r.trials <= 100
        assert r.counterexample is not None


def test_sabotage_laws_fail_by_comparing_two_sides():
    # each sabotage map solves, so its law fails by the two sides it
    # compares, not by an error raised before the comparison
    reports, _ = run_suite(trials=3, seed=5, include_sabotage=True)
    ces = [r.counterexample for r in reports if REGISTRY[r.law].sabotage]
    assert len(ces) == 6
    for ce in ces:
        assert {"lhs", "rhs"} <= set(ce) and "error" not in ce, ce


# ----------------------------------------------------------------------
# whole-suite runs


def test_run_suite_small():
    reports, summary = run_suite(trials=3, seed=5, m_max=2, n_max=2)
    assert summary["fail"] == 0
    assert summary["pass"] + summary["skipped"] == summary["total"]
    assert summary["total"] == len(reports)
    for r in reports:
        jsonschema.validate(r.to_json(), REPORT_SCHEMA)


def test_reports_record_the_options_that_shaped_the_draw(tmp_path):
    """--prec, --m-max and --n-max, when given, are in the report's config
    under those names; a report without them has none of the keys."""
    base = {"p": 2, "modulus": None, "phi_pi": "pi", "trunc": 0, "vars": []}
    for flags, extra in [([], {}),
                         (["--prec", "4", "--m-max", "1"],
                          {"prec": 4, "m_max": 1}),
                         (["--n-max", "3"], {"n_max": 3})]:
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--law", "L16", "--p", "2", "--ramified",
                         "false", "--trials", "2", *flags,
                         "--report", str(out)]) == 0
        (doc,) = json.loads(out.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["config"] == dict(base, **extra)


def test_run_suite_filter_and_configs():
    reports, summary = run_suite(law_filter=["L1", "L2"],
                                 configs=[Z2], trials=4, seed=0)
    assert summary == {"pass": 2, "fail": 0, "skipped": 0, "total": 2}
    assert [r.law for r in reports] == ["L1", "L2"]


def test_repeated_law_ids_run_once(tmp_path, capsys):
    reports, summary = run_suite(law_filter=["L2", "L1", "L2"],
                                 configs=[Z2], trials=2, seed=0)
    assert [r.law for r in reports] == ["L1", "L2"]
    assert summary["total"] == 2
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--law", "L1,L1", "--p", "2", "--ramified",
                     "false", "--trials", "2", "--report", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[-1] == (
        "summary: 1 pass, 0 fail, 0 skipped")
    assert len(json.loads(out.read_text())) == 1


def test_orders_of_degree_three_and_four_pass():
    # d >= 3 takes the convolution branch of RingConfig.cmul; a mutant of
    # that branch makes this run raise InternalError
    configs = [make_ring_config({"p": 5, "modulus": [-5, 0, 0, 1]}),
               make_ring_config({"p": 2, "modulus": [-2, 0, 0, 0, 1]})]
    reports, summary = run_suite(configs=configs, trials=3, seed=0)
    assert summary == {"pass": 47, "fail": 0, "skipped": 1, "total": 48}
    assert _skips(reports) == {"L15": "psi_integral=false"}
    assert [r.config["p"] for r in reports
            if r.status == "skipped"] == [2]


def test_default_matrix_shape():
    mat = default_matrix()
    assert [c.p for c in mat] == [2, 3, 5]
    assert mat[2].e == 2


# x^2 - 5 with phi(pi) = -pi: a Frobenius lift that moves pi
PHI_NEG = make_ring_config({"p": 5, "modulus": [-5, 0, 1],
                            "phi_pi": [0, -1]})


def test_phi_moving_pi_skips_lateral_laws():
    for law_id in ("L6", "L9", "L10"):
        r = run_law(law_id, PHI_NEG, trials=5, seed=3)
        assert r.status == "skipped" and r.reason == "phi(pi) != pi"
    for law_id in ("L3", "L11", "L14", "L16", "table-i", "table-ii",
                   "table-iii"):
        assert run_law(law_id, PHI_NEG, trials=5, seed=3).status == "pass"


def test_lateral_frobenius_needs_phi_fixing_pi():
    one, zero = PHI_NEG.one(), PHI_NEG.zero()
    with pytest.raises(ConfigUnsupported):
        lateral_frobenius(ShiftedWittVector(PHI_NEG, PHI_NEG, 1,
                                            [zero, one], [one, one]))
    out = lateral_frobenius(ShiftedWittVector(PHI_NEG, PHI_NEG, 1,
                                              [zero, zero], [one, one]))
    assert all(h.is_zero() for h in out.head) and out.n == 1


def _skips(reports):
    return {r.law: r.reason for r in reports if r.status == "skipped"}


@pytest.mark.parametrize("spec", [
    {"p": 2, "trunc": 5},
    {"p": 3, "trunc": 4},
    {"p": 5, "modulus": [-5, 0, 1], "trunc": 6},
    {"p": 5, "modulus": [-5, 0, 1], "phi_pi": [0, -1], "trunc": 6},
    {"p": 5, "modulus": [-5, 0, 1], "phi_pi": [0, -1], "trunc": 1},
], ids=["Z2-trunc5", "Z3-trunc4", "ram5-trunc6", "phi-neg-trunc6",
        "phi-neg-trunc1"])
def test_truncated_bases_get_real_verdicts(spec):
    # R is the exact cover and B the truncation: only the laws that need
    # an exact base, and those whose hypothesis is phi(pi) = pi, skip
    cfg = make_ring_config(spec)
    reports, summary = run_suite(configs=[cfg], trials=3, seed=3)
    assert summary["fail"] == 0
    want = {"L2": "needs an exact base", "L5": "needs an exact base"}
    if cfg.phi_pi is not None:
        want.update(dict.fromkeys(("L6", "L9", "L10"), "phi(pi) != pi"))
    if not cfg.psi_integral:
        want["L15"] = "psi_integral=false"
    assert _skips(reports) == want


def test_internal_error_keeps_finished_reports(monkeypatch, tmp_path):
    def broken(cfg, rng, params):
        raise InternalError("ghost entry 0 does not solve")

    monkeypatch.setitem(REGISTRY, "L2", dataclasses.replace(REGISTRY["L2"],
                                                            numeric=broken))
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--law", "L1,L2", "--p", "2", "--ramified",
                     "false", "--trials", "2", "--report", str(report)]) == 3
    (doc,) = json.loads(report.read_text())
    assert doc["law"] == "L1" and doc["status"] == "pass"


NON_SABOTAGE = [i for i in REGISTRY if not REGISTRY[i].sabotage]


@st.composite
def ring_specs(draw):
    """An accepted modulus (Eisenstein of degree 2 or 3 at a small prime,
    constant term ±p), a Frobenius lift (pi, or for degree 2 the other root
    -c_1 - pi) and a truncation."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.sampled_from([2, 3]))
    unit = draw(st.sampled_from([-1, 1]))
    modulus = ([p * unit] + [p * draw(st.integers(-1, 1))
                             for _ in range(d - 1)] + [1])
    phi_pi = "pi"
    if d == 2 and draw(st.booleans()):
        phi_pi = [-modulus[1], -1]
    return {"p": p, "modulus": modulus, "phi_pi": phi_pi,
            "trunc": draw(st.sampled_from([0, 1, 3, 6]))}


@settings(max_examples=60, deadline=None)
@given(spec=ring_specs())
def test_config_fuzz_gets_no_fail(spec):
    cfg = make_ring_config(spec)
    for law_id in NON_SABOTAGE:
        r = run_law(law_id, cfg, trials=2, seed=1)
        assert r.status != "fail", (law_id, spec, r.counterexample)
