"""Rank-deficient pairs: the Schur reduction and the perturbation limit.

When supp rho is not contained in supp sigma, the divergence splits into a
regular part (the largest piece of rho that fits inside supp sigma, found
by a Schur complement) and an escaping-mass part weighted by the recession
constant.  Smoothing sigma by eps * identity and letting eps shrink
recovers the same value from full-rank data.
"""

import numpy as np

from qfdiv import (analyze, builtin, d_max, minimal_reverse_test,
                   perturbation_limit_probe)

ket0 = np.array([1, 0], dtype=complex)
ketp = np.array([1, 1], dtype=complex) / np.sqrt(2)
rho = np.outer(ket0, ket0)
sigma = np.outer(ketp, ketp)

print("rho = |0><0|, sigma = |+><+|: pure states with different supports")
tilde = analyze(rho, sigma).rho_tilde
print(f"Schur reduction of rho into supp sigma: max entry {np.abs(tilde).max()}")
print("Nothing of rho fits under sigma, so the whole unit mass escapes.")

half = builtin("neg_power", 0.5)
square = builtin("square")
print(f"\n  d_max with -sqrt (recession 0)  = {d_max(rho, sigma, half)!r}")
print(f"  d_max with y^2  (recession inf) = {d_max(rho, sigma, square)!r}")

print("\nThe escaping mass shows up as an extra reverse-test atom with q = 0:")
rt = minimal_reverse_test(rho, sigma)
for x, (p, q) in enumerate(zip(rt.p, rt.q)):
    label = "x0" if q == 0 else str(x)
    print(f"  atom {label:>2s}: p = {p:.3f}, q = {q:.3f}")

print("\nSmoothing sigma with eps * identity (finite-recession generator):")
probe = perturbation_limit_probe(rho, sigma, half, np.logspace(-2, -8, 4))
for eps, value in probe:
    print(f"  eps = {eps:8.1e}   D'(rho || sigma + eps) = {value:+.8f}"
          f"   (= -sqrt(eps) here)")
print("The values climb monotonically to the rank-deficient answer 0.")

print("\nWith y^2 the same smoothing blows up instead:")
probe = perturbation_limit_probe(rho, sigma, square, np.logspace(-2, -8, 4))
for eps, value in probe:
    print(f"  eps = {eps:8.1e}   D'(rho || sigma + eps) = {value:12.4e}")
print("matching the infinite rank-deficient value.")
