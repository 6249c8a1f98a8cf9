"""Benchmark of qfdiv.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pairs-small, pairs-large, suite-all, cli-cold (see README.md).
Inputs and their references are made here from the seed; each workload then
runs in fresh processes with one BLAS thread.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of stdout is one JSON object; failures are described on
stderr.  Run from the root of a qfdiv source tree.
"""

from __future__ import annotations

import os

# One BLAS thread here and in every process started below: with its default
# threads, OpenBLAS made one d_max at dim 64 take 478 ms against a 7.9 ms
# median on a shared 2-core host.
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
from checks import check_cli  # noqa: E402
from timing import Calibrator, summarize, timed_passes  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("pairs-small", "pairs-large", "suite-all", "cli-cold")
SETUPS = 5          # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3  # -X importtime runs per traced run


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


# ------------------------------------------------------------------ inputs

def pair_payload(workload: str, seed: int) -> dict:
    if workload == "pairs-small":
        pairs = inputs.small_pairs(seed)
        refs = [reference.exact(p) for p in pairs]
    else:
        pairs = inputs.large_pairs(seed)
        refs = [reference.large(p) for p in pairs]
    return {"kind": "pairs", "items": list(zip(pairs, refs)),
            "cal": "python" if workload == "pairs-small" else "lapack",
            "faults": [p.fault for p in pairs]}


def suite_payload(seed: int) -> dict:
    """One item per master seed of the suites: seed * SUITE_SEEDS + j."""
    n = inputs.SUITE_SEEDS
    return {"kind": "suites", "cal": "python",
            "suite": {"dims": inputs.SUITE_DIMS, "trials": inputs.SUITE_TRIALS},
            "items": [seed * n + j for j in range(n)], "faults": [None] * n}


def write_matrix(path: str, A) -> None:
    entries = [[float(z.real), float(z.imag)] for z in A.ravel()]
    with open(path, "w") as fh:
        json.dump({"dim": int(A.shape[0]), "entries": entries}, fh)


def cli_items(seed: int, tmp: str) -> list:
    """(argv after `qfdiv`, reference, pair, generator) per invocation."""
    items = []
    for i, (pair, spec) in enumerate(inputs.cli_pairs(seed)):
        rho = os.path.join(tmp, f"rho{i}.json")
        sigma = os.path.join(tmp, f"sigma{i}.json")
        write_matrix(rho, pair.rho)
        write_matrix(sigma, pair.sigma)
        argv = ["compute", "--rho", rho, "--sigma", sigma, "--f", spec]
        items.append((argv, reference.exact(pair), pair, spec))
    return items


# --------------------------------------------------------------- processes

def worker(mode: str, trace: int, payload: dict, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
         "--trace", str(trace)],
        input=pickle.dumps(payload), capture_output=True, env=child_env(),
        cwd=ROOT, timeout=seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def cli_call(item) -> callable:
    argv, ref, pair, spec = item
    proc = subprocess.run([sys.executable, "-m", "qfdiv"] + argv,
                          capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=120)
    return lambda: check_cli(proc.returncode, proc.stdout.decode(), ref, pair,
                             spec)


def import_times() -> dict:
    """Cumulative import time of qfdiv and of all scipy modules, from
    `-X importtime` in fresh interpreters (median of a few)."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import qfdiv"], capture_output=True,
                              env=child_env(), cwd=ROOT, timeout=120, check=True)
        samples.append(parse_importtime(proc.stderr.decode()))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def parse_importtime(text: str) -> dict:
    """import.qfdiv_ms: cumulative time of `qfdiv`; import.scipy_ms: sum of
    the cumulative times of the scipy modules not imported by another
    scipy module.  -X importtime lists a module after its children, one
    indentation step deeper per level."""
    qfdiv_us = scipy_us = 0
    stack = []                      # enclosing imports, outermost first
    for line in reversed(text.splitlines()):
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative, depth, name = int(m[1]), len(m[2]) // 2, m[3]
        del stack[depth:]
        if name == "qfdiv":
            qfdiv_us = cumulative
        if name.split(".")[0] == "scipy" and not any(
                s.split(".")[0] == "scipy" for s in stack):
            scipy_us += cumulative
        stack.append(name)
    return {"import.qfdiv_ms": qfdiv_us / 1e3, "import.scipy_ms": scipy_us / 1e3}


# ----------------------------------------------------------------- results

def report(trace: int, correct: bool, attempted: int, failed: int,
           metrics: dict, notes: list[str]) -> None:
    """The metrics BENCHMARK.json lists for this kind of run, with its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if trace else "end_to_end"]
    for note in notes:
        print(note, file=sys.stderr)
    out = {}
    for m in listed:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:42s} {metrics[m['name']]:14.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)


def describe(notes: dict, items) -> list[str]:
    out = []
    for i, note in sorted(notes.items(), key=lambda kv: int(kv[0])):
        item = items[int(i)]
        label = (f"suite pass, master seed {item}" if isinstance(item, int)
                 else next(x.name for x in item if isinstance(x, inputs.Pair)))
        tag = "UNEXPECTED" if note["unexpected"] else "known fault"
        out.append(f"failed [{tag}] {label}: " + "; ".join(note["errors"]))
    return out


def traced(workload: str, seed: int, payload: dict, seconds: float) -> dict:
    """A traced run; its per-name span totals go to .perfbench_out/."""
    res = worker("run", 1, payload, seconds)
    res["layers"] = dict(import_times(), **res["layers"])
    res["layers"]["trace.op_p50_ms"] = summarize(res["passes"])["op_p50_ms"]
    res["layers"]["host.calibration_us"] = res["cal_s"] * 1e6
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload}-{seed}.json"), "w") as fh:
        json.dump({"ops": sum(len(p) for p in res["passes"]),
                   "spans": res["trace"]}, fh, indent=1)
    return res


def run_in_process(workload: str, seed: int, seconds: float, trace: int):
    payload = (suite_payload(seed) if workload == "suite-all"
               else pair_payload(workload, seed))
    payload["seconds"] = seconds
    if trace:
        res = traced(workload, seed, payload, seconds)
        metrics = res["layers"]
    else:
        setups = [worker("setup", 0, payload, seconds)["setup_s"]
                  for _ in range(SETUPS - 1)]
        res = worker("run", 0, payload, seconds)
        metrics = {"setup_s": statistics.median(setups + [res["setup_s"]]),
                   **summarize(res["passes"]),
                   "peak_rss_mb": res["maxrss_kb"] / 1024}
    notes = describe(res["notes"], payload["items"])
    attempted = sum(len(p) for p in res["passes"])
    return res["unexpected"] == 0, attempted, res["failed"], metrics, notes


def run_cli(seed: int, seconds: float, trace: int):
    tmp = os.path.join(OUT, f"cli-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        items = cli_items(seed, tmp)
        faults = [None] * len(items)
        if trace:
            payload = {"kind": "cli", "items": items, "faults": faults,
                       "seconds": seconds, "cal": "python"}
            res = traced("cli-cold", seed, payload, seconds)
            passes, failed = res["passes"], res["failed"]
            unexpected, metrics, notes = res["unexpected"], res["layers"], res["notes"]
        else:
            calibrator = Calibrator("cold")
            setups, warm_errors = [], []
            for _ in range(SETUPS):
                start = time.perf_counter()
                check = cli_call(items[0])
                setups.append((time.perf_counter() - start) * calibrator.scale())
                warm_errors += check()
            passes, _, failed, unexpected, notes = timed_passes(
                cli_call, items, seconds, faults, calibrator)
            unexpected += len(warm_errors)
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics = {"setup_s": statistics.median(setups),
                       **summarize(passes), "peak_rss_mb": rss / 1024}
        notes = describe(notes, items)
        attempted = sum(len(p) for p in passes)
        return unexpected == 0, attempted, failed, metrics, notes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True,
                        help="'all' runs the four in turn, one JSON line each")
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed, taken modulo 2**32")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.seed %= 2**32
    if not os.path.isfile(os.path.join(SRC, "qfdiv", "__init__.py")):
        print(f"error: no qfdiv sources under {SRC}; run from a qfdiv "
              "source tree", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that each peak RSS is its own
        for workload in WORKLOADS:
            print(f"== {workload}", file=sys.stderr, flush=True)
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    if args.workload == "cli-cold":
        result = run_cli(args.seed, args.seconds, args.trace)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds,
                                args.trace)
    report(args.trace, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
