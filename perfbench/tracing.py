"""Spans around the calls into each qfdiv layer, recorded from outside.

``Tracer.install`` wraps every public function (span ``module.function``)
and every public method of a public class (``module.Class.method``) in the
qfdiv modules, plus ``numpy.linalg.eigh`` and ``eigvalsh``, and rebinds each
wrapper wherever a qfdiv module holds the original.  Only calls made while
an operation is open are recorded.  Spans are folded into per-name totals
as they close (call count, inclusive and self time), so a long run keeps
constant memory.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("linalg", "generators", "divergence", "channels", "rld", "oracles",
           "suites", "matio", "cli")
EIG = ("numpy.eigh", "numpy.eigvalsh")


@dataclass
class _Open:
    name: str
    start: float
    child: float = 0.0
    schur: bool = False      # a schur_tilde call happened inside this span


@dataclass
class Tracer:
    calls: dict = field(default_factory=dict)
    total: dict = field(default_factory=dict)
    self_time: dict = field(default_factory=dict)
    stack: list = field(default_factory=list)
    active: bool = False
    ops: int = 0
    passes: int = 0
    op_time: float = 0.0

    def add(self, name: str, seconds: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + seconds

    def reset(self) -> None:
        """Forget what was recorded so far (the warm-up)."""
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()

    def _enter(self, name: str) -> _Open:
        span = _Open(name, time.perf_counter())
        if name == "linalg.schur_tilde":
            for outer in self.stack:
                outer.schur = True
        elif name == "divergence.d_prime" and any(
                s.name == "rld.second_derivative_check" for s in self.stack):
            self.add("rld.d_prime", 0.0)
        self.stack.append(span)
        return span

    def _exit(self, span: _Open) -> None:
        dur = time.perf_counter() - span.start
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += dur
        name = span.name
        if name == "divergence.d_max":
            self.add("divergence.d_max_schur" if span.schur
                     else "divergence.d_max_dominated", dur)
        self.add(name, dur)
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - span.child

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return traced

    def install(self, package) -> None:
        mods = [importlib.import_module(f"{package.__name__}.{m}")
                for m in MODULES]
        originals = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth,
                                    self.wrap(f"{short}.{name}.{meth}", fn))
        for mod in mods + [package]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(mod, name, originals[id(obj)][1])
        for name in ("eigh", "eigvalsh"):
            setattr(np.linalg, name, self.wrap(f"numpy.{name}",
                                               getattr(np.linalg, name)))

    @contextlib.contextmanager
    def op(self):
        """Context for one operation: records its wall time and spans."""
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_time += time.perf_counter() - start
            self.ops += 1
            self.active = False

    def summary(self) -> dict:
        """Per-name calls, inclusive and self milliseconds."""
        return {name: {"calls": self.calls[name],
                       "total_ms": self.total[name] * 1e3,
                       "self_ms": self.self_time.get(name, 0.0) * 1e3}
                for name in sorted(self.calls)}

    # ------------------------------------------------------ derived metrics

    def count(self, *names) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def seconds(self, *names) -> float:
        return sum(self.total.get(n, 0.0) for n in names)

    def mean(self, name: str) -> float:
        """Mean inclusive seconds per call; 0 when the layer is not called."""
        n = self.calls.get(name, 0)
        return self.total[name] / n if n else 0.0


def layer_metrics(tracer: Tracer, suites) -> dict:
    """The per-layer metrics of BENCHMARK.json (those of the traced run)."""
    n, npass = tracer.ops, tracer.passes
    eig_s = tracer.seconds(*EIG)
    m = {
        "linalg.eigensolves_per_op": tracer.count(*EIG) / n,
        "linalg.eig_ms_per_op": eig_s / n * 1e3,
        "linalg.require_psd_calls_per_op":
            tracer.count("linalg.require_psd") / n,
        "linalg.support_dominates_calls_per_op":
            tracer.count("linalg.support_dominates") / n,
        "linalg.schur_tilde_us": tracer.mean("linalg.schur_tilde") * 1e6,
        "linalg.herm_eig_us": tracer.mean("linalg.herm_eig") * 1e6,
        "pairs.overhead_ms_per_op": (tracer.op_time - eig_s) / n * 1e3,
        "divergence.d_max_dominated_us":
            tracer.mean("divergence.d_max_dominated") * 1e6,
        "divergence.d_max_schur_us":
            tracer.mean("divergence.d_max_schur") * 1e6,
        "divergence.minimal_reverse_test_us":
            tracer.mean("divergence.minimal_reverse_test") * 1e6,
        "generators.f_eval_calls_per_op":
            tracer.count("generators.DivergenceGenerator.eval") / n,
        "generators.classical_f_divergence_us":
            tracer.mean("generators.classical_f_divergence") * 1e6,
        "channels.equality_check_ms":
            tracer.mean("channels.equality_check") * 1e3,
        "channels.dpi_check_us": tracer.mean("channels.dpi_check") * 1e6,
        "channels.apply_calls_per_pass":
            tracer.count("channels.KrausChannel.apply") / npass,
        "rld.second_derivative_check_ms":
            tracer.mean("rld.second_derivative_check") * 1e3,
        "rld.d_prime_calls_per_pass": tracer.count("rld.d_prime") / npass,
        "oracles.random_reverse_test_ms":
            tracer.mean("oracles.random_reverse_test") * 1e3,
        "matio.load_matrix_ms": tracer.mean("matio.load_matrix") * 1e3,
        "cli.compute_ms": tracer.mean("cli.main") * 1e3,
    }
    for name in suites:
        m[f"suites.{name}_s"] = tracer.mean(f"suites.{name}")
    return m
