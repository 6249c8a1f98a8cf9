"""One workload process: import qfdiv, warm up, then run timed passes.

Reads its inputs as a pickle on stdin (written by run.py), prints one JSON
line on stdout.  ``import qfdiv`` comes first, before numpy is loaded, so
that the set-up time contains what a user pays for the import.

    python3 perfbench/worker.py --mode setup|run --trace 0|1 < payload
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import qfdiv  # noqa: E402  (timed: the import is part of set-up)
_T_IMPORT = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from checks import check_cli, check_pair  # noqa: E402
from inputs import GENERATORS  # noqa: E402
from timing import Calibrator, timed_passes  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def _pair_op(gens):
    def op(item):
        pair, ref = item
        values = {spec: qfdiv.d_max(pair.rho, pair.sigma, f)
                  for spec, f in gens.items()}
        rt = qfdiv.minimal_reverse_test(pair.rho, pair.sigma)
        rt_values = {spec: qfdiv.reverse_test_value(rt, f)
                     for spec, f in gens.items()}
        return lambda: check_pair(pair, ref, values, rt.outputs, rt.p, rt.q,
                                  rt_values)
    return op


def _suite_op(cfg, tracer):
    def op(seed):
        failing = []
        for name in qfdiv.SUITE_NAMES:
            start = time.perf_counter()
            report = qfdiv.run_suite(qfdiv.SuiteConfig(
                suite=name, dims=tuple(cfg["dims"]), trials=cfg["trials"],
                seed=seed))
            if tracer is not None:
                tracer.add(f"suites.{name}", time.perf_counter() - start)
            if not report.ok():
                failing.append(name)
        return lambda: [f"suite {n} not ok" for n in failing]
    return op


def _cli_op(item):
    """In-process `qfdiv compute` (traced runs only; see run.py for cold)."""
    args, ref, pair, spec = item
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qfdiv.cli.main(args)
    return lambda: check_cli(code, buf.getvalue(), ref, pair, spec)


def make_op(payload, tracer):
    kind = payload["kind"]
    if kind == "pairs":
        gens = {spec: qfdiv.from_spec(spec) for spec in GENERATORS}
        return _pair_op(gens)
    if kind == "suites":
        return _suite_op(payload["suite"], tracer)
    importlib.import_module("qfdiv.cli")
    return _cli_op


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    payload = pickle.load(sys.stdin.buffer)
    items = payload["items"]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(qfdiv)
    op = make_op(payload, tracer)

    start = time.perf_counter()
    check = op(items[0])                 # warm-up: part of set-up, not of ops
    setup_s = _T_IMPORT + time.perf_counter() - start
    check()
    out = {"setup_s": setup_s * Calibrator("cold").scale()}
    calibrator = Calibrator(payload["cal"])
    if args.mode == "run":
        if tracer is not None:
            tracer.reset()
        passes, cals, failed, unexpected, notes = timed_passes(
            op, items, payload["seconds"], payload["faults"], calibrator,
            tracer)
        out.update(passes=passes, cal_s=statistics.median(cals),
                   failed=failed, unexpected=unexpected,
                   notes={str(k): v for k, v in notes.items()},
                   maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, qfdiv.SUITE_NAMES)
            out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
