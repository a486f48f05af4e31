"""Command-line surface: emit universal polynomials, evaluate operators on
JSON-encoded inputs, run the verification suite, and run kernel checks.

Exit codes: 0 success / all laws pass, 1 law failure, 2 usage or config
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BudgetExceeded,
    ConfigUnsupported,
    InternalError,
    WittlabError,
)
from .fgl import load_fgl
from .kernel import difference_character
from .laws import (
    _bases,
    _law,
    _point,
    default_matrix,
    l13_check,
    l16_check,
    psi_check,
    run_suite,
    run_trials,
)
from .rings import make_ring_config
from .serialize import (
    canonical_dumps,
    decode_element,
    decode_shifted,
    decode_witt,
    encode_element,
    encode_ghost,
    encode_shifted,
    encode_universal,
    encode_witt,
)
from .shifted import (
    ShiftedWittVector,
    include_I,
    lateral_frobenius,
    restrict_T,
    shift_E,
    shifted_add,
    shifted_ghost,
    shifted_ghost_solve,
    shifted_mul,
)
from .witt import (
    GhostVector,
    WittVector,
    delta,
    exp_delta,
    frobenius,
    ghost,
    ghost_solve,
    mult_pi,
    teichmuller,
    truncate,
    universal_polynomials,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
)


def _load_json(arg):
    """Accept inline JSON (a negative number included), '-' for stdin, or a
    file path."""
    try:
        if arg == "-":
            return json.load(sys.stdin)
        stripped = arg.lstrip()
        if stripped[:1] in '[{"' or stripped.removeprefix("-")[:1].isdigit():
            return json.loads(arg)
        with open(arg) as fh:
            return json.load(fh)
    except OSError as exc:
        raise WittlabError(f"cannot read {arg!r}: {exc.strerror}") from None
    except ValueError as exc:   # invalid JSON or text encoding
        if type(exc) is ValueError:     # an int past the digit limit
            raise _over_limit("input") from None
        raise WittlabError(f"invalid JSON in {arg!r}: {exc}") from None


def _over_limit(what, tail=""):   # CPython's int-to-str digit limit
    return BudgetExceeded(f"{what} has an integer over the limit of "
                          f"{sys.get_int_max_str_digits()} digits{tail}")


def _emit(obj, out=None):
    try:
        text = canonical_dumps(obj)
    except ValueError:
        raise _over_limit("result", " for printing") from None
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise WittlabError(f"cannot write {out!r}: {exc.strerror}") from None


# ----------------------------------------------------------------------
# poly


def cmd_poly(args):
    polys = universal_polynomials(args.op, args.n, p=args.p)
    _emit(encode_universal(args.op, args.n, args.p, polys), args.out)
    return 0


# ----------------------------------------------------------------------
# eval: each reader turns --in (with --m and --n) into the argument list of
# its op, and accepts exactly the input forms that op computes on.


def _witt(cfg, data, args):
    if not isinstance(data, list) or args.m is not None:
        raise WittlabError("expected a Witt vector: a JSON list, with no --m")
    return [decode_witt(cfg, data)]


def _shifted(cfg, data, args):
    if isinstance(data, dict):
        return [decode_shifted(cfg, cfg, data)]
    if not isinstance(data, list) or args.m is None:
        raise WittlabError('expected a shifted vector: {"m","n","head",'
                           '"tail"}, or a JSON list with --m')
    head = [decode_element(cfg, e) for e in data[:args.m + 1]]
    tail = [decode_element(cfg, e) for e in data[args.m + 1:]]
    if args.n is not None and len(tail) != args.n:
        raise WittlabError(
            f"input has tail length {len(tail)}, expected {args.n}")
    return [ShiftedWittVector(cfg, cfg, args.m, head, tail)]


def _pair(read):
    def read_pair(cfg, data, args):
        if not (isinstance(data, dict) and "u" in data and "v" in data):
            raise WittlabError('expected a pair {"u":…,"v":…}')
        return read(cfg, data["u"], args) + read(cfg, data["v"], args)
    return read_pair


def _ghost(cfg, data, args):
    if isinstance(data, list):
        data = {"ghost": data,
                "head_count": None if args.m is None else args.m + 1}
    if not (isinstance(data, dict) and isinstance(data.get("ghost"), list)
            and type(data.get("head_count")) in (int, type(None))):
        raise WittlabError('expected a ghost vector: {"ghost",'
                           '"head_count"}, or a JSON list')
    return [GhostVector([decode_element(cfg, e) for e in data["ghost"]],
                        data.get("head_count")), cfg]


def _element(cfg, data, args):
    return [decode_element(cfg, data)]


def _element_n(cfg, data, args):
    if args.n is None:
        raise WittlabError(f"{args.op} needs --n")
    return [decode_element(cfg, data), args.n]


def _solve_ghost(g, cfg):
    if g.head_count is None:
        return ghost_solve(g, cfg)
    return shifted_ghost_solve(g, cfg, cfg)


_EVAL = {
    "ghost": (ghost, _witt),
    "frobenius": (frobenius, _witt),
    "verschiebung": (verschiebung, _witt),
    "truncate": (truncate, _witt),
    "neg": (witt_neg, _witt),
    "mult_pi": (mult_pi, _witt),
    "add": (witt_add, _pair(_witt)),
    "mul": (witt_mul, _pair(_witt)),
    "sub": (witt_sub, _pair(_witt)),
    "shifted_ghost": (shifted_ghost, _shifted),
    "include_I": (include_I, _shifted),
    "restrict_T": (restrict_T, _shifted),
    "lateral_frobenius": (lateral_frobenius, _shifted),
    "shift_E": (shift_E, _shifted),
    "shifted_add": (shifted_add, _pair(_shifted)),
    "shifted_mul": (shifted_mul, _pair(_shifted)),
    "ghost_solve": (_solve_ghost, _ghost),
    "delta": (delta, _element),
    "teichmuller": (teichmuller, _element_n),
    "exp_delta": (exp_delta, _element_n),
}


def _encode_result(res):
    if isinstance(res, WittVector):
        return encode_witt(res)
    if isinstance(res, ShiftedWittVector):
        return encode_shifted(res)
    if isinstance(res, GhostVector):
        return encode_ghost(res)
    return encode_element(res)


def cmd_eval(args):
    cfg = make_ring_config(_load_json(args.ring))
    data = _load_json(args.infile)
    if args.op not in _EVAL:
        raise WittlabError(f"unknown operator {args.op!r}")
    fn, read = _EVAL[args.op]
    _emit(_encode_result(fn(*read(cfg, data, args))), args.out)
    return 0


# ----------------------------------------------------------------------
# verify


def _matrix_from_args(args):
    if args.ramified not in ("true", "false"):
        raise WittlabError(f"--ramified takes true or false, not "
                           f"{args.ramified!r}")
    configs = [make_ring_config({"p": p}) for p in args.p]
    return configs + (default_matrix()[2:] if args.ramified == "true" else [])


def _check_prec(prec):
    """--prec of verify and kernel: unset, or at least 1."""
    if prec is not None and prec < 1:
        raise WittlabError(f"prec must be at least 1, got {prec}")


def cmd_verify(args):
    configs = _matrix_from_args(args)
    _check_prec(args.prec)
    params = {k: getattr(args, k) for k in ("m_max", "n_max", "prec")
              if getattr(args, k) is not None}
    law_filter = "all" if args.law == "all" else args.law.split(",")
    try:
        reports, summary = run_suite(law_filter, configs, trials=args.trials,
                                     seed=args.seed, **params)
    except InternalError as exc:   # keep what finished, then exit 3
        if args.report:
            _emit([r.to_json() for r in exc.reports], args.report)
        raise
    for r in reports:
        cfgdesc = f"p={r.config.get('p')}"
        if r.config.get("modulus"):
            cfgdesc += f" modulus={r.config['modulus']}"
        line = f"{r.law:16s} {r.mode:8s} {cfgdesc:24s} {r.status}"
        if r.reason:
            line += f" ({r.reason})"
        print(line)
    print(f"summary: {summary['pass']} pass, {summary['fail']} fail, "
          f"{summary['skipped']} skipped")
    if args.report:
        _emit([r.to_json() for r in reports], args.report)
    return 1 if summary["fail"] else 0


# ----------------------------------------------------------------------
# kernel


def _kernel_checks(args):
    _check_prec(args.prec)
    if args.m < 0 or args.n < 1:
        raise WittlabError(
            f"kernel needs m >= 0 and n >= 1, got m={args.m}, n={args.n}")
    cfg = make_ring_config({"p": args.p})
    law = load_fgl(args.group, cfg)
    if (args.check in ("psi", "all") and not law.is_additive
            and not cfg.psi_integral):
        raise ConfigUnsupported(
            f"e <= p-2 violated for p={args.p}: the psi series is not "
            "integral")
    m, n, params = max(args.m, 1), max(args.n, 2), {"prec": args.prec}
    parts = {
        "psi": (lambda t, s: psi_check(t, s, args.prec), args.group, m, 1, 2),
        "phi": (l13_check, args.group, m, args.n),
        "diff": (l16_check, args.group, args.m, n),
    }
    results = []
    for check in parts if args.check == "all" else [args.check]:
        trial = _law(parts[check])["numeric"]
        ran, ce = run_trials(lambda rng: trial(cfg, rng, params), check,
                             args.trials, args.seed)
        entry = {"check": check, "status": "pass" if ce is None else "fail",
                 "trials": ran,
                 "detail": None if ce is None else {"trial": ce["trial"]}}
        if check == "diff" and ce is None:
            sample = _point(law, *_bases(law, cfg, args.prec), args.m, n,
                            lambda c, i: c.zero() if i else c.one())
            entry["sample"] = encode_witt(difference_character(sample))
        results.append(entry)
    return results


def cmd_kernel(args):
    results = _kernel_checks(args)
    _emit(results, args.out)
    return 1 if any(r["status"] == "fail" for r in results) else 0


# ----------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wittlab",
        description="Exact pi-typical Witt vector calculus and law "
                    "verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="emit universal structure polynomials")
    p.add_argument("--op", required=True,
                   choices=["sum", "prod", "frobenius", "mult_pi"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("eval", help="evaluate an operator on JSON input")
    p.add_argument("--ring", required=True,
                   help="ring config: JSON literal or file path")
    p.add_argument("--op", required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="input: JSON literal, file path, or - for stdin")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run the law suite")
    p.add_argument("--law", default="all")
    p.add_argument("--p", type=lambda s: [int(x) for x in s.split(",")],
                   default=[2, 3])
    p.add_argument("--ramified", type=str.lower, default="true")
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prec", type=int, default=None)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("kernel", help="run kernel / formal-group checks")
    p.add_argument("--group", default="ga")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--prec", type=int, default=6)
    p.add_argument("--check", default="all",
                   choices=["psi", "phi", "diff", "all"])
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_kernel)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WittlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
