"""The timed loop, the host-speed calibration and the statistics.

Host speed.  On a shared machine other tenants slow every process by a
factor that drifts from one second to the next and over minutes (1.0-1.7x
for whole 15 s runs on a shared 2-core VM), which no statistic over one
run's samples removes.  A fixed calibration loop that never calls qfdiv is
therefore timed between the ops, by the measuring process, at least every
CAL_EVERY_S; each op time is scaled by CAL_REF_S[kind] / (median
calibration time of its pass): a time in the units of a host on which the
loop takes CAL_REF_S[kind].  A change to qfdiv moves op times but not the
loop, so the ratio keeps it; a slow host moves both.

Neighbours do not slow every kind of work alike, so each workload is timed
against the loop most like its ops (``kind``), and set-ups, which are
mostly imports, against a fresh interpreter (see README.md for the spreads
each loop gave).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from checks import unexpected_errors

# Times are reported in units of a host on which Calibrator.sample takes
# this long: round figures of the order of each loop's time on the 2-core
# Xeon VM of the README's figures, with one BLAS thread.
CAL_REF_S = {"python": 0.5e-3, "lapack": 3.5e-3, "cold": 0.1}
CAL_EVERY_S = 0.05      # calibrate after an op once this much time has gone
CAL_SETUP = 3           # calibration samples after a set-up


class Calibrator:
    """A fixed loop of one kind of the work a qfdiv op does:

    * ``python``: 20 eigensolves of 3x3 Hermitian matrices with array
      arithmetic and a Python loop around each (ops at dims 2-4);
    * ``lapack``: one eigensolve of a dim-128 Hermitian matrix, with the
      products that rebuild and rotate it (ops at dim 128);
    * ``cold``: a fresh interpreter that imports numpy (start-up and import).
    """

    def __init__(self, kind: str):
        self.kind = kind
        rng = np.random.default_rng(0)
        small = (rng.standard_normal((20, 3, 3))
                 + 1j * rng.standard_normal((20, 3, 3)))
        self.small = [M @ M.conj().T for M in small]
        G = (rng.standard_normal((128, 128))
             + 1j * rng.standard_normal((128, 128)))
        self.large = G @ G.conj().T

    def sample(self) -> float:
        start = time.perf_counter()
        if self.kind == "python":
            acc = 0.0
            for M in self.small:
                w, v = np.linalg.eigh(M)
                acc += float(w[0]) + abs(((v * w) @ v.conj().T)[0, 0])
                for k in range(20):
                    acc += (k * 0.5) ** 0.5
        elif self.kind == "lapack":
            w, v = np.linalg.eigh(self.large)
            (v * w) @ v.conj().T
            v.conj().T @ self.large @ v
        else:
            subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                           timeout=60)
        return time.perf_counter() - start

    def scale(self) -> float:
        """Factor from this host's current speed to the reference's."""
        return CAL_REF_S[self.kind] / statistics.median(
            self.sample() for _ in range(CAL_SETUP))


def timed_passes(op, items, seconds: float, faults, calibrator: Calibrator,
                 tracer=None):
    """Run whole passes of ``op`` over ``items`` until ``seconds`` of wall
    time have gone; the last pass is always finished.

    ``op(item)`` performs the timed work and returns a function that checks
    its outputs (untimed) and returns a list of violations.  ``faults[i]``
    names the known fault of item i, or is None.  Returns the op times of
    each pass in reference-host seconds, the median calibration time of each
    pass, the failed count, how many of those failures have a violation
    that the item's known fault does not explain, and for each failing item
    whether it was unexpected and its first violations.
    """
    passes, cal_medians, failed, unexpected, notes = [], [], 0, 0, {}
    start = time.perf_counter()
    while True:
        times, cals = [], [calibrator.sample()]
        last_cal = time.perf_counter()
        for i, item in enumerate(items):
            t = time.perf_counter()
            try:
                if tracer is None:
                    check = op(item)
                else:
                    with tracer.op():
                        check = op(item)
                times.append(time.perf_counter() - t)
                errors = check()
            except Exception as exc:  # an op that raises is a failed op
                times.append(time.perf_counter() - t)
                errors = [f"raised {type(exc).__name__}: {exc}"]
            if errors:
                failed += 1
                bad = unexpected_errors(errors, faults[i])
                unexpected += bool(bad)
                if bad or i not in notes:
                    notes[i] = {"unexpected": bool(bad),
                                "errors": (bad or errors)[:3]}
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                cals.append(calibrator.sample())
                last_cal = time.perf_counter()
        cals.append(calibrator.sample())
        cal = statistics.median(cals)
        passes.append([dt * CAL_REF_S[calibrator.kind] / cal
                       for dt in times])
        cal_medians.append(cal)
        if tracer is not None:
            tracer.passes += 1
        if time.perf_counter() - start >= seconds:
            return passes, cal_medians, failed, unexpected, notes


def summarize(passes) -> dict:
    """Metrics over the inputs, each timed by the median of its (scaled)
    repetitions: op_p50_ms and op_p90_ms are quantiles of these per-input
    times and ops_per_s is the number of inputs over their sum, the
    throughput of one pass at that cost."""
    per_input = [statistics.median(times) for times in zip(*passes)]
    return {
        "ops_per_s": len(per_input) / sum(per_input),
        "op_p50_ms": statistics.median(per_input) * 1e3,
        "op_p90_ms": statistics.quantiles(per_input, n=10,
                                          method="inclusive")[-1] * 1e3,
    }
