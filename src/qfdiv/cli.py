"""Command-line front end.

    qfdiv compute      --rho F --sigma F --f SPEC
    qfdiv reverse-test --rho F --sigma F
    qfdiv check        --rho F --sigma F --channel F --f SPEC [--tol T]
    qfdiv rld          --rho F --x F --y F --f SPEC [--step S]
    qfdiv suite        --suite NAME [--dims 2,3] [--trials N] [--seed S]
                       [--tol T] [--out PATH] [--format json|csv] [--rows]

Matrices and channels are read from the JSON wire formats of qfdiv.matio;
an operator with a non-finite entry is rejected.  Generator parameters go
in the spec, e.g. neg_power:0.5.  The suites cycle through xlogx, square,
neg_power:0.5 and power:1.5.  QFDIV_SEED provides the default suite seed.
Exit codes: 0 ok, 1 property failure, 2 usage error (including a bad
--dims or QFDIV_SEED), 3 numeric/domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import matio
from .channels import equality_check
from .divergence import analyze, minimal_reverse_test
from .errors import QfdivError
from .generators import from_spec
from .rld import second_derivative_check
from .suites import SUITE_NAMES, SuiteConfig, run_suite


def _json_value(x: float):
    return x if math.isfinite(x) else None


def _cmd_compute(args) -> int:
    rho = matio.load_matrix(args.rho)
    sigma = matio.load_matrix(args.sigma)
    f = from_spec(args.f)
    pair = analyze(rho, sigma)
    value = pair.d_max(f)
    out = {
        "value": _json_value(value),
        "finite": math.isfinite(value),
        "rho_tilde_trace": float(np.trace(pair.rho_tilde).real),
        "atoms": pair.atom_count(),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_reverse_test(args) -> int:
    rho = matio.load_matrix(args.rho)
    sigma = matio.load_matrix(args.sigma)
    rt = minimal_reverse_test(rho, sigma)
    out = {
        "labels": list(rt.labels),
        "p": rt.p.tolist(),
        "q": rt.q.tolist(),
        "outputs": [matio.matrix_to_json(g) for g in rt.outputs],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_check(args) -> int:
    rho = matio.load_matrix(args.rho)
    sigma = matio.load_matrix(args.sigma)
    ch = matio.load_channel(args.channel)
    f = from_spec(args.f)
    report = equality_check(rho, sigma, ch, f, tol=args.tol)
    print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    return 0


def _cmd_rld(args) -> int:
    rho = matio.load_matrix(args.rho)
    X = matio.load_matrix(args.x)
    Y = matio.load_matrix(args.y)
    f = from_spec(args.f)
    res = second_derivative_check(rho, X, Y, f, step=args.step)
    out = {"fd": res.fd_value, "analytic": res.analytic, "err": res.abs_err}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


def _cmd_suite(args) -> int:
    failures = 0
    reports = []
    try:
        seed = (_int(os.environ.get("QFDIV_SEED", "0"), "QFDIV_SEED")
                if args.seed is None else args.seed)
        dims = tuple(_int(d, "each of --dims") for d in args.dims.split(","))
        names = SUITE_NAMES if args.suite == "all" else tuple(args.suite.split(","))
        for name in names:
            report = run_suite(SuiteConfig(suite=name, dims=dims, trials=args.trials,
                                           seed=seed, tol=args.tol))
            reports.append(report)
            failures += report.total_fail
            status = "ok" if report.ok() else "FAIL"
            print(f"suite {name}: {report.total_pass} pass, "
                  f"{report.total_fail} fail [{status}]", file=sys.stderr)
    except ValueError as exc:  # a bad --suite, --dims, --trials or QFDIV_SEED
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        payload = "".join(r.to_csv() for r in reports)
    elif len(reports) == 1:
        payload = reports[0].to_json(include_rows=args.rows)
    else:
        payload = json.dumps([r.as_dict(args.rows) for r in reports],
                             indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        print(payload)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfdiv",
        description="maximal quantum f-divergences and their property suites")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, channel=False, xy=False):
        p.add_argument("--rho", required=True, help="matrix JSON file")
        if xy:
            p.add_argument("--x", required=True, help="matrix JSON file")
            p.add_argument("--y", required=True, help="matrix JSON file")
        else:
            p.add_argument("--sigma", required=True, help="matrix JSON file")
        if channel:
            p.add_argument("--channel", required=True, help="channel JSON file")

    p = sub.add_parser("compute", help="evaluate the maximal f-divergence")
    add_common(p)
    p.add_argument("--f", required=True, help='generator spec, e.g. "xlogx"')
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("reverse-test", help="dump the minimal reverse test")
    add_common(p)
    p.set_defaults(func=_cmd_reverse_test)

    p = sub.add_parser("check", help="channel equality/preservation report")
    add_common(p, channel=True)
    p.add_argument("--f", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rld", help="RLD metric finite-difference check")
    add_common(p, xy=True)
    p.add_argument("--f", required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(func=_cmd_rld)

    p = sub.add_parser("suite", help="run a property suite")
    p.add_argument("--suite", required=True,
                   help=f"one of {', '.join(SUITE_NAMES)}, a comma list, or 'all'")
    p.add_argument("--dims", default="2,3,4", help="comma list of dimensions")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: QFDIV_SEED or 0)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--rows", action="store_true",
                   help="include per-trial rows in the JSON report")
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QfdivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
