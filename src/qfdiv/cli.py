"""Command-line front end.

    qfdiv compute      --rho F --sigma F --f SPEC
    qfdiv reverse-test --rho F --sigma F
    qfdiv check        --rho F --sigma F --channel F --f SPEC [--tol T]
    qfdiv rld          --rho F --x F --y F --f SPEC [--step S]
    qfdiv suite        --suite NAME [--dims 2,3] [--trials N] [--seed S]
                       [--tol T] [--out PATH] [--format json|csv] [--rows]

Matrices and channels are read from the JSON wire formats of qfdiv.matio;
an operator with a non-finite entry is rejected.  Output JSON is strict: a
non-finite float is written as null.  Generator parameters go in the spec,
e.g. neg_power:0.5.  check --tol is relative to s = max(tr rho, tr sigma):
the two values are equal within tol * max(s, |value|), so scaling both
operands by one factor leaves every verdict as it was.  The suites cycle
through xlogx, square, neg_power:0.5 and power:1.5.  QFDIV_SEED provides
the default suite seed.
Exit codes: 0 ok, 1 property failure, 2 usage error (including a bad
--dims, a seed outside 0..2**64-1, a bad QFDIV_SEED or a --tol that is not
finite and >= 0), 3 numeric/domain error (any QfdivError, from a suite
too, or a file that is not readable UTF-8 JSON), 141 (128 + SIGPIPE)
when the reader of stdout closes it early, as `| head -1` does.  Options
must be spelled in full.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import matio
from .channels import check_tolerance, equality_check
from .divergence import analyze, minimal_reverse_test
from .errors import QfdivError
from .generators import from_spec
from .rld import second_derivative_check
from .suites import SUITE_NAMES, SuiteConfig, _csv, run_suite


def _cmd_compute(args) -> int:
    rho = matio.load_matrix(args.rho)
    sigma = matio.load_matrix(args.sigma)
    f = from_spec(args.f)
    pair = analyze(rho, sigma)
    value = pair.d_max(f)
    # tr rho_tilde: tr rho, or |T|_F^2 for its factor T, with no n x n product
    T = pair.tilde
    out = {
        "value": value,
        "finite": math.isfinite(value),
        "rho_tilde_trace": float(np.trace(pair.rho).real if T is None
                                 else np.vdot(T, T).real),
        "atoms": len(pair.reverse_test()),
    }
    print(matio.dumps(out))
    return 0


def _cmd_reverse_test(args) -> int:
    rho = matio.load_matrix(args.rho)
    sigma = matio.load_matrix(args.sigma)
    rt = minimal_reverse_test(rho, sigma)
    out = {
        # the escaped atom is the one with q = 0 (PairAnalysis.reverse_test)
        "labels": ["x0" if b == 0.0 else str(x) for x, b in enumerate(rt.q)],
        "p": rt.p.tolist(),
        "q": rt.q.tolist(),
        "outputs": [matio.matrix_to_json(g) for g in rt.outputs],
    }
    print(matio.dumps(out))
    return 0


def _cmd_check(args) -> int:
    check_tolerance(args.tol)   # a bad --tol is a usage error, before any file is read
    rho = matio.load_matrix(args.rho)
    sigma = matio.load_matrix(args.sigma)
    ch = matio.load_channel(args.channel)
    f = from_spec(args.f)
    report = equality_check(rho, sigma, ch, f, tol=args.tol)
    print(matio.dumps(dataclasses.asdict(report)))
    return 0


def _cmd_rld(args) -> int:
    rho = matio.load_matrix(args.rho)
    X = matio.load_matrix(args.x)
    Y = matio.load_matrix(args.y)
    f = from_spec(args.f)
    res = second_derivative_check(rho, X, Y, f, step=args.step)
    out = {"fd": res.fd_value, "analytic": res.analytic, "err": res.abs_err}
    print(matio.dumps(out))
    return 0


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


def _cmd_suite(args) -> int:
    reports = []
    seed = (_int(os.environ.get("QFDIV_SEED", "0"), "QFDIV_SEED")
            if args.seed is None else args.seed)
    dims = tuple(_int(d, "each of --dims") for d in args.dims.split(","))
    names = SUITE_NAMES if args.suite == "all" else tuple(args.suite.split(","))
    for name in names:
        report = run_suite(SuiteConfig(suite=name, dims=dims, trials=args.trials,
                                       seed=seed, tol=args.tol))
        reports.append(report)
        status = "ok" if report.ok() else "FAIL"
        print(f"suite {name}: {report.total_pass} pass, "
              f"{report.total_fail} fail [{status}]", file=sys.stderr)
    if args.format == "csv":
        payload = _csv(reports)
    else:
        docs = [r.as_dict(args.rows) for r in reports]
        payload = matio.dumps(docs[0] if len(docs) == 1 else docs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        print(payload)
    return 0 if all(r.ok() for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix such as --f must not be read as --format.
    parser = argparse.ArgumentParser(
        prog="qfdiv", allow_abbrev=False,
        description="maximal quantum f-divergences and their property suites")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def add_common(p, channel=False, xy=False):
        p.add_argument("--rho", required=True, help="matrix JSON file")
        if xy:
            p.add_argument("--x", required=True, help="matrix JSON file")
            p.add_argument("--y", required=True, help="matrix JSON file")
        else:
            p.add_argument("--sigma", required=True, help="matrix JSON file")
        if channel:
            p.add_argument("--channel", required=True, help="channel JSON file")

    p = command("compute", "evaluate the maximal f-divergence")
    add_common(p)
    p.add_argument("--f", required=True, help='generator spec, e.g. "xlogx"')
    p.set_defaults(func=_cmd_compute)

    p = command("reverse-test", "dump the minimal reverse test")
    add_common(p)
    p.set_defaults(func=_cmd_reverse_test)

    p = command("check", "channel equality/preservation report")
    add_common(p, channel=True)
    p.add_argument("--f", required=True)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="comparison tolerance, relative to max(tr rho, tr sigma)")
    p.set_defaults(func=_cmd_check)

    p = command("rld", "RLD metric finite-difference check")
    add_common(p, xy=True)
    p.add_argument("--f", required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(func=_cmd_rld)

    p = command("suite", "run a property suite")
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


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at os.devnull, so that the interpreter's
    final flush of what a closed pipe left buffered does not raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    """Run one command; the one place an exception becomes an exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return 141
    except (QfdivError, OSError) as exc:   # numeric/domain error, unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # a bad --suite, --dims, --trials, --tol or seed
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
