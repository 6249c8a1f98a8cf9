"""Checks of one operation's outputs, made without calling into qfdiv.

``check_pair`` returns the list of violated properties (empty when the
operation is correct):

* every value against its reference, within a tolerance that grows with
  cond(sigma on its support), since forming sigma^{-1/2} rho sigma^{-1/2}
  loses that many digits;
* +inf exactly where the reference is +inf, a finite value elsewhere;
* the reverse test: unit-trace PSD atoms, nonnegative weights, rebuilding
  (rho, sigma), and a classical value D_f(p||q) equal to d_max for every
  generator.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import GENERATORS, Pair

VALUE_RTOL = 1e-12          # relative floor of the value tolerance
COND_RTOL = 1e-14           # per unit of cond(sigma on its support)
RECON_TOL = 1e-9            # rebuilding rho and sigma (max abs entry)
ATOM_TOL = 1e-9             # unit trace and PSD of each atom
OPTIMALITY_RTOL = 1e-8      # classical value of the test against d_max


def _xlogx(y):
    return np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0)), 0.0)


# generator on an array of ratios, recession constant lim f(y)/y
FLOAT_GEN = {
    "xlogx": (_xlogx, math.inf),
    "square": (np.square, math.inf),
    "neg_power:0.5": (lambda y: -np.sqrt(y), 0.0),
    "power:1.5": (lambda y: y * np.sqrt(y), math.inf),
}


def classical(p, q, spec: str) -> float:
    """D_f(p||q) = sum_{q>0} q f(p/q) + recession * sum_{q=0} p."""
    f, rec = FLOAT_GEN[spec]
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pos = q > 0
    total = math.fsum(q[pos] * f(p[pos] / q[pos]))
    escaped = math.fsum(p[~pos])
    if escaped > 0:
        if rec == math.inf:
            return math.inf
        total += escaped * rec
    return total


def value_tol(ref: float, cond: float) -> float:
    return (VALUE_RTOL + COND_RTOL * cond) * max(1.0, abs(ref))


def value_ok(got: float, ref: float, cond: float) -> bool:
    if math.isinf(ref):
        return got == ref
    return math.isfinite(got) and abs(got - ref) <= value_tol(ref, cond)


def atom_error(G: np.ndarray, tol: float = ATOM_TOL) -> str | None:
    """Why G is not a unit-trace PSD matrix within tol, or None.  PSD is
    tested as G + tol * I having a Cholesky factor."""
    if abs(np.trace(G) - 1) > tol or np.abs(G - G.conj().T).max() > tol:
        return "atom not of unit trace or not Hermitian"
    try:
        np.linalg.cholesky((G + G.conj().T) / 2 + tol * np.eye(G.shape[0]))
    except np.linalg.LinAlgError:
        return "atom not PSD"
    return None


def reverse_test_errors(rho, sigma, outputs, p, q, values: dict,
                        rt_values: dict) -> list[str]:
    """Atoms, weights, the rebuilt pair, and D_f(p||q) against both d_max
    and the program's own reverse_test_value."""
    errors = []
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if len(outputs) != p.size or p.size != q.size or p.ndim != 1:
        return ["reverse test: malformed atoms or weights"]
    if (p < 0).any() or (q < 0).any():
        errors.append("reverse test: negative weight")
    got_rho = np.zeros_like(rho, dtype=complex)
    got_sigma = np.zeros_like(sigma, dtype=complex)
    for G, a, b in zip(outputs, p, q):
        problem = atom_error(G)
        if problem and f"reverse test: {problem}" not in errors:
            errors.append(f"reverse test: {problem}")
        got_rho += a * G
        got_sigma += b * G
    recon = max(np.abs(got_rho - rho).max(), np.abs(got_sigma - sigma).max())
    if recon > RECON_TOL:
        errors.append(f"reverse test: rebuilds the pair with error {recon:.2e}")
    for spec in GENERATORS:
        got = classical(p, q, spec)
        want = values[spec]
        if math.isinf(want) or math.isinf(got):
            same = got == want
        else:
            same = abs(got - want) <= OPTIMALITY_RTOL * max(1.0, abs(want))
        if not same:
            errors.append(f"reverse test: D_{spec}(p||q) = {got!r} "
                          f"but d_max = {want!r}")
        if not value_ok(rt_values[spec], got, 1.0):
            errors.append(f"reverse_test_value {spec}: {rt_values[spec]!r} "
                          f"against D_f(p||q) = {got!r}")
    return errors


# The violations each known fault causes, by the name inputs.py gives it.
# On an input marked with a fault only these are excused; a wrong d_max
# value, a missing +inf or an exception there still counts as unexpected.
KNOWN_FAULTS = {
    # linalg.herm_eig merges distinct eigenvalues of d, so atoms are dropped
    "clustering": ("reverse test: rebuilds the pair", "reverse test: D_"),
    # the same near the rank threshold of sigma, where the atom of weight
    # q ~ eps also misses unit trace by about 1e-16 / q, whatever cluster_tol
    "clustering-near-threshold": ("reverse test: rebuilds the pair",
                                  "reverse test: D_",
                                  "reverse test: atom not of unit trace"),
}


def unexpected_errors(errors: list[str], fault: str | None) -> list[str]:
    """The violations that the input's known fault does not explain."""
    excused = KNOWN_FAULTS[fault] if fault else ()
    return [e for e in errors if not e.startswith(excused)]


def check_pair(pair: Pair, ref: dict, values: dict, outputs, p, q,
               rt_values: dict) -> list[str]:
    """Violations of one pair operation: four d_max values, the reverse test
    and the program's classical value of the test under each generator."""
    errors = []
    for spec in GENERATORS:
        got, want = values[spec], ref["values"][spec]
        if want is None:
            if not math.isfinite(got):
                errors.append(f"{spec}: expected a finite value, got {got!r}")
        elif not value_ok(got, want, ref["cond"]):
            errors.append(f"{spec}: {got!r} against reference {want!r}")
    if pair.p is not None:
        for spec in GENERATORS:
            want = classical(pair.p, pair.q, spec)
            if not value_ok(values[spec], want, ref["cond"]):
                errors.append(f"{spec}: {values[spec]!r} against classical "
                              f"D_f(p||q) = {want!r}")
    return errors + reverse_test_errors(pair.rho, pair.sigma, outputs, p, q,
                                        values, rt_values)


def check_cli(code: int, stdout: str, ref: dict, pair: Pair,
              spec: str) -> list[str]:
    """Violations of one `qfdiv compute` call: exit code, value, tr rho_tilde
    and the atom count: one per distinct eigenvalue of d on supp sigma (the
    spectra here are generic, so only the kernel of d is degenerate), plus
    one for escaped mass."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return ["output is not JSON"]
    want = ref["values"][spec]
    got = math.inf if out.get("value") is None else float(out["value"])
    errors = []
    if out.get("finite") != math.isfinite(want) or not value_ok(got, want,
                                                                  ref["cond"]):
        errors.append(f"value {out.get('value')!r} against reference {want!r}")
    if abs(out.get("rho_tilde_trace", math.nan) - ref["tilde_trace"]) > value_tol(
            1.0, ref["cond"]):
        errors.append(f"rho_tilde_trace {out.get('rho_tilde_trace')!r} against "
                      f"{ref['tilde_trace']!r}")
    tilde_rank = min(pair.rho_rank, pair.sigma_rank)
    atoms = tilde_rank + (tilde_rank < pair.sigma_rank) + pair.escapes
    if out.get("atoms") != atoms:
        errors.append(f"{out.get('atoms')!r} atoms, expected {atoms}")
    return errors
