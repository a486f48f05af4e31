"""Command-line surface: emit universal polynomials, evaluate operators on
JSON-encoded inputs, run the verification suite, and run kernel checks.

Exit codes: 0 success / all laws pass, 1 law failure, 2 usage or config
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .errors import ConfigUnsupported, InternalError, UnknownLaw, WittlabError
from .fgl import load_fgl
from .kernel import KernelPoint, difference_character
from .laws import default_matrix, l13_check, l16_check, psi_check, run_suite
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
    """Accept inline JSON, '-' for stdin, or a file path."""
    try:
        if arg == "-":
            return json.load(sys.stdin)
        stripped = arg.lstrip()
        if (stripped[:1] in "[{" or stripped[:1].isdigit()
                or stripped[:1] == '"'):
            return json.loads(arg)
        with open(arg) as fh:
            return json.load(fh)
    except OSError as exc:
        raise WittlabError(f"cannot read {arg!r}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise WittlabError(f"invalid JSON in {arg!r}: {exc}") from None


def _emit(obj, out=None):
    text = canonical_dumps(obj)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# poly


def cmd_poly(args):
    op = args.op.replace("-", "_")
    polys = universal_polynomials(op, args.n, p=args.p)
    _emit(encode_universal(op, args.n, args.p, polys), args.out)
    return 0


# ----------------------------------------------------------------------
# eval


def _decode_input(cfg, data, args):
    if isinstance(data, dict) and "ghost" in data:
        entries = [decode_element(cfg, e) for e in data["ghost"]]
        return GhostVector(entries, head_count=data.get("head_count"))
    if isinstance(data, dict) and "u" in data and "v" in data:
        return (_decode_input(cfg, data["u"], args),
                _decode_input(cfg, data["v"], args))
    if isinstance(data, dict) and "head" in data:
        return decode_shifted(cfg, cfg, data)
    if isinstance(data, list):
        if args.m is not None:
            head = [decode_element(cfg, e) for e in data[:args.m + 1]]
            tail = [decode_element(cfg, e) for e in data[args.m + 1:]]
            if args.n is not None and len(tail) != args.n:
                raise WittlabError(
                    f"input has tail length {len(tail)}, expected {args.n}")
            return ShiftedWittVector(cfg, cfg, args.m, head, tail)
        return decode_witt(cfg, data)
    return decode_element(cfg, data)


def _encode_result(res):
    if isinstance(res, WittVector):
        return encode_witt(res)
    if isinstance(res, ShiftedWittVector):
        return encode_shifted(res)
    if isinstance(res, GhostVector):
        return encode_ghost(res)
    return encode_element(res)


_UNARY = {
    "ghost": ghost,
    "frobenius": frobenius,
    "verschiebung": verschiebung,
    "truncate": truncate,
    "neg": witt_neg,
    "mult_pi": mult_pi,
    "delta": delta,
    "shifted_ghost": shifted_ghost,
    "include_I": include_I,
    "restrict_T": restrict_T,
    "lateral_frobenius": lateral_frobenius,
    "shift_E": shift_E,
}

_BINARY = {
    "add": witt_add,
    "mul": witt_mul,
    "sub": witt_sub,
    "shifted_add": shifted_add,
    "shifted_mul": shifted_mul,
}


def cmd_eval(args):
    cfg = make_ring_config(_load_json(args.ring))
    data = _load_json(args.infile)
    op = args.op
    if op in _BINARY:
        if not (isinstance(data, dict) and "u" in data):
            raise WittlabError(f'op {op} needs input {{"u":…,"v":…}}')
        u, v = _decode_input(cfg, data, args)
        res = _BINARY[op](u, v)
    elif op == "ghost_solve":
        if isinstance(data, dict) and "ghost" in data:
            entries = [decode_element(cfg, e) for e in data["ghost"]]
            head_count = data.get("head_count")
        elif isinstance(data, list):
            entries = [decode_element(cfg, e) for e in data]
            head_count = args.m + 1 if args.m is not None else None
        else:
            raise WittlabError("ghost_solve needs a ghost-vector input")
        g = GhostVector(entries, head_count=head_count)
        if g.head_count is not None:
            res = shifted_ghost_solve(g, cfg, cfg)
        else:
            res = ghost_solve(g, cfg)
    elif op == "teichmuller":
        if args.n is None:
            raise WittlabError("teichmuller needs --n")
        res = teichmuller(decode_element(cfg, data), args.n)
    elif op == "exp_delta":
        if args.n is None:
            raise WittlabError("exp_delta needs --n")
        res = exp_delta(decode_element(cfg, data), args.n)
    elif op in _UNARY:
        val = _decode_input(cfg, data, args)
        res = _UNARY[op](val)
    else:
        raise WittlabError(f"unknown operator {op!r}")
    _emit(_encode_result(res), args.out)
    return 0


# ----------------------------------------------------------------------
# verify


def _matrix_from_args(args):
    configs = []
    for p in args.p:
        configs.append(make_ring_config({"p": p}))
    if args.ramified:
        configs.append(make_ring_config({"p": 5, "modulus": [-5, 0, 1]}))
    return configs or default_matrix()


def cmd_verify(args):
    configs = _matrix_from_args(args)
    params = {}
    if args.m_max is not None:
        params["m_max"] = args.m_max
    if args.n_max is not None:
        params["n_max"] = args.n_max
    if args.prec is not None:
        params["prec"] = args.prec
    law_filter = "all" if args.law == "all" else args.law.split(",")
    reports, summary = run_suite(law_filter, configs, trials=args.trials,
                                 seed=args.seed, **params)
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
    if args.trials < 1:
        raise WittlabError(f"trials must be at least 1, got {args.trials}")
    cfg = make_ring_config({"p": args.p})
    law = load_fgl(args.group, cfg)
    checks = (["psi", "phi", "diff"] if args.check == "all"
              else [args.check])
    if "psi" in checks and not law.is_additive and not cfg.psi_integral:
        raise ConfigUnsupported(
            f"e <= p-2 violated for p={args.p}: the psi series is not "
            "integral")
    B = cfg.truncated(args.prec) if not law.is_additive else cfg
    m, n = max(args.m, 1), max(args.n, 2)

    def draw(rng, count):
        return [B.from_int(rng.randint(-1000, 1000)) for _ in range(count)]

    results = []
    for check in checks:
        status = "pass"
        detail = None
        for trial in range(args.trials):
            rng = random.Random(f"{args.seed}:{check}:{trial}")
            if check == "psi":
                ce = psi_check(law, *draw(rng, 2), m, args.prec)
            elif check == "phi":
                ce = l13_check(KernelPoint(law, cfg, B, m, draw(rng, args.n)))
            else:
                ce = l16_check(KernelPoint(law, cfg, B, args.m, draw(rng, n)))
            if ce is not None:
                status = "fail"
                detail = {"trial": trial}
                break
        entry = {"check": check, "status": status, "trials": args.trials,
                 "detail": detail}
        if check == "diff" and status == "pass":
            sample = KernelPoint(
                law, cfg, B,
                args.m, [B.one()] + [B.zero()] * (n - 1))
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
                   choices=["sum", "prod", "frobenius", "mult-pi",
                            "mult_pi"])
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
    p.add_argument("--ramified", type=lambda s: s.lower() != "false",
                   default=True)
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
    except (UnknownLaw, ConfigUnsupported, WittlabError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
