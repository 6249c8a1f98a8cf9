"""Steadiness check: run every workload repeatedly, in two sets of seeds,
and compare each end-to-end metric's spread and median shift with its
bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--first-seed N]
                                [--overhead]

Set k (0 or 1) uses seeds first-seed + k*runs ... + runs - 1; runs of
different workloads are interleaved.  For each metric and set it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median; every spread must stay within the metric's bound (a
star marks one above a third of it), and the second set's median may not
differ from the first's by more than the bound, in either direction.  The
failed share must be identical in every run.  --overhead adds one traced
run per seed of the first set and reports the tracing overhead as
trace.op_p50_ms / op_p50_ms - 1.  Exits 1 when a check fails; the raw
results go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    traced = {w: [] for w in workloads}
    start = time.time()
    for s in range(SETS):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                results[w][s].append(run_once(w, seed, args.seconds, 0))
                if args.overhead and s == 0:
                    traced[w].append(run_once(w, seed, args.seconds, 1))
            print(f"set {s + 1} run {i + 1}/{args.runs} done "
                  f"({time.time() - start:.0f} s)", file=sys.stderr)

    ok = True
    print(f"{'workload':12s} {'metric':12s} {'set':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'shift':>7s} {'bound':>6s}")
    for w in workloads:
        shares = {(r["failed"], r["attempted"]) for runs in results[w]
                  for r in runs}
        fractions = {f / a for f, a in shares}
        correct = all(r["correct"] for runs in results[w] for r in runs)
        if len(fractions) != 1 or not correct:
            ok = False
        print(f"{w}: failed/attempted {sorted(shares)}"
              f"{'' if len(fractions) == 1 else '  FAILED SHARE DIFFERS'}"
              f"{'' if correct else '  INCORRECT'}")
        for name, m in metrics.items():
            first = None
            for s, runs in enumerate(results[w]):
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med
                first = med if first is None else first
                shift = (med - first) / first
                flag = ""
                if spread > m["bound"]:
                    flag, ok = " SPREAD", False
                elif spread > m["bound"] / 3:
                    flag = " *"
                if abs(shift) > m["bound"]:
                    flag, ok = flag + " SHIFT", False
                print(f"{w:12s} {name:12s} {s + 1:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {shift:7.3f} "
                      f"{m['bound']:6.3f}{flag}")
        if traced[w]:
            ratios = [t["metrics"]["trace.op_p50_ms"]["value"]
                      / r["metrics"]["op_p50_ms"]["value"] - 1
                      for t, r in zip(traced[w], results[w][0])]
            print(f"{w:12s} tracing overhead on op_p50_ms: median "
                  f"{statistics.median(ratios):.1%} over {len(ratios)} runs")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out",
                        f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "runs": results, "traced": traced}, fh)
    print(f"{'steady' if ok else 'NOT STEADY'}; raw results in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
