"""Acceptance gate: one test per acceptance criterion, printed pass/fail.

Every criterion runs a seeded desk-scale ensemble (dims 2-8, hundreds of
trials) against its stated tolerance.  Run with ``pytest -s`` to see the
per-criterion lines; the whole module stays within a couple of minutes.
"""

import math

import numpy as np
import pytest

from qfdiv.channels import (depolarizing_channel, embedding_channel,
                            equality_check, dpi_check, random_channel,
                            random_state, v_operator)
from qfdiv.divergence import (analyze, d_max, d_prime, minimal_reverse_test,
                              perturbation_limit_probe, reverse_test_value)
from qfdiv.generators import (LownerForm, builtin, lebesgue_atoms,
                              lowner_quadrature_check)
from qfdiv.linalg import matrix_sqrt
from qfdiv.oracles import (bs_relative_entropy, classical_oracle,
                           shrunk_feasible_operator, umegaki_relative_entropy)
from qfdiv.rld import random_tangent, second_derivative_check
from qfdiv.suites import (_commuting_pair, _invertible_pair, _pair,
                          _undominated_pair, trial_rng)

XLOGX = builtin("xlogx")
SQUARE = builtin("square")
HALF = builtin("neg_power", 0.5)
POW15 = builtin("power", 1.5)
GENS = [XLOGX, SQUARE, HALF, POW15]

SEED = 20260808


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def _mixed_ensemble(index: int, trials: int, dims=(2, 3, 4, 6)):
    """Pairs cycling through full-rank, rank-deficient sigma, undominated."""
    rng = trial_rng(SEED, index)
    dim = dims[index % len(dims)]
    kind = index % 3
    if kind == 0:
        return _pair(rng, dim, rank_rho=dim, rank_sigma=dim)
    if kind == 1:
        return _pair(rng, dim, rank_sigma=max(1, dim - 1))
    return _undominated_pair(rng, dim)


def test_c01_commutative_recovery():
    worst = 0.0
    for i in range(500):
        rng = trial_rng(SEED, i)
        dim = 2 + i % 7
        rho, sigma = _commuting_pair(rng, dim, deficient=(i % 4 == 0))
        for f in GENS:
            a = d_max(rho, sigma, f)
            b = classical_oracle(rho, sigma, f)
            if math.isinf(a) or math.isinf(b):
                ok_pair = math.isinf(a) and math.isinf(b)
                worst = worst if ok_pair else math.inf
            else:
                worst = max(worst, abs(a - b))
    _report(1, "commutative recovery vs classical oracle", worst <= 1e-10,
            f"worst |d_max - oracle| = {worst:.2e}")


def _reconstruction_error(rt, rho, sigma):
    rho_hat, sigma_hat = rt.reconstruct()
    err = max(float(np.abs(rho_hat - rho).max()),
              float(np.abs(sigma_hat - sigma).max()))
    for out in rt.outputs:
        err = max(err, abs(float(np.trace(out).real) - 1.0))
    return err


def test_c02_reverse_test_reconstruction():
    worst = 0.0
    for dim_idx, dim in enumerate((2, 3, 4, 6)):
        for i in range(500):
            rho, sigma = _mixed_ensemble(i + 10_000 * dim_idx, 500, dims=(dim,))
            rt = minimal_reverse_test(rho, sigma)
            worst = max(worst, _reconstruction_error(rt, rho, sigma))
    _report(2, "minimal reverse test reconstructs the pair", worst <= 1e-9,
            f"worst reconstruction error = {worst:.2e}")


def test_c03_reverse_test_value_matches_d_max():
    worst = 0.0
    inf_checked = 0
    for i in range(2000):
        rho, sigma = _mixed_ensemble(i, 2000)
        rt = minimal_reverse_test(rho, sigma)
        f = GENS[i % 4]
        direct = d_max(rho, sigma, f)
        via_test = reverse_test_value(rt, f)
        if math.isinf(direct) or math.isinf(via_test):
            tilde_trace = float(np.trace(analyze(rho, sigma).rho_tilde).real)
            rho_trace = float(np.trace(rho).real)
            both = math.isinf(direct) and math.isinf(via_test)
            escapes = (math.isinf(f.recession)
                       and tilde_trace < rho_trace - 1e-10)
            worst = worst if (both and escapes) else math.inf
            inf_checked += 1
        else:
            worst = max(worst, abs(direct - via_test))
    _report(3, "reverse-test value equals d_max (incl. joint infinities)",
            worst <= 1e-8,
            f"worst gap = {worst:.2e}, infinite cases = {inf_checked}")


def test_c04_data_processing():
    worst = -math.inf
    worst_unitary = 0.0
    for i in range(500):
        rng = trial_rng(SEED, 40_000 + i)
        dim = 2 + i % 3
        rho, sigma = _pair(rng, dim)
        unitary = i % 5 == 0
        if unitary:
            ch = random_channel(dim, dim, 1, rng)
        else:
            ch = random_channel(dim, dim, int(rng.integers(1, 4)), rng)
        for f in GENS:
            res = dpi_check(rho, sigma, ch, f)
            if math.isinf(res.value_in):
                ok = res.holds and (not unitary or math.isinf(res.value_out))
                worst = worst if ok else math.inf
                continue
            worst = max(worst, res.value_out - res.value_in)
            if unitary:
                worst_unitary = max(worst_unitary,
                                    abs(res.value_out - res.value_in))
    ok = worst <= 1e-8 and worst_unitary <= 1e-9
    _report(4, "data processing under channels", ok,
            f"worst increase = {worst:.2e}, worst unitary gap = {worst_unitary:.2e}")


def test_c05_joint_convexity():
    worst = -math.inf
    for i in range(300):
        rng = trial_rng(SEED, 50_000 + i)
        dim = 2 + i % 3
        f = GENS[i % 4]
        rho0, sigma0 = _pair(rng, dim)
        rho1, sigma1 = _pair(rng, dim)
        d0 = d_max(rho0, sigma0, f)
        d1 = d_max(rho1, sigma1, f)
        for k in range(1, 10):
            c = k / 10
            mixed = d_max(c * rho0 + (1 - c) * rho1,
                          c * sigma0 + (1 - c) * sigma1, f)
            if math.isinf(d0) or math.isinf(d1):
                continue
            worst = max(worst, mixed - (c * d0 + (1 - c) * d1))
    _report(5, "joint convexity over mixtures", worst <= 1e-8,
            f"worst violation = {worst:.2e}")


def test_c06_sigma_monotonicity():
    worst = -math.inf
    for i in range(300):
        rng = trial_rng(SEED, 60_000 + i)
        dim = 2 + i % 3
        f = GENS[i % 4]
        rho, sigma = _pair(rng, dim)
        bigger = sigma + float(rng.uniform(0.05, 1.0)) * random_state(
            dim, int(rng.integers(1, dim + 1)), rng)
        hi = d_max(rho, sigma, f)
        lo = d_max(rho, bigger, f)
        if math.isinf(hi):
            continue
        worst = max(worst, lo - hi)
    _report(6, "monotone non-increasing in sigma", worst <= 1e-8,
            f"worst violation = {worst:.2e}")


def test_c07_perturbation_limit():
    eps_grid = np.logspace(-2, -8, 7)
    worst_gap = 0.0
    worst_mono = 0.0
    min_blowup = math.inf
    for i in range(100):
        rng = trial_rng(SEED, 70_000 + i)
        dim = 2 + i % 3
        rho, sigma = _undominated_pair(rng, dim)
        values = [v for _, v in perturbation_limit_probe(rho, sigma, HALF,
                                                         eps_grid)]
        worst_mono = max(worst_mono,
                         max(a - b for a, b in zip(values, values[1:])))
        worst_gap = max(worst_gap, abs(values[-1] - d_max(rho, sigma, HALF)))
        min_blowup = min(min_blowup,
                         d_prime(rho, sigma + 1e-8 * np.eye(dim), SQUARE))
    ok = worst_gap <= 1e-4 and worst_mono <= 1e-12 and min_blowup > 1e6
    _report(7, "perturbation limit and divergence", ok,
            f"gap = {worst_gap:.2e}, mono slip = {worst_mono:.2e}, "
            f"square blowup min = {min_blowup:.2e}")


def test_c08_worked_examples():
    v = d_max(np.diag([0.5, 0.5]).astype(complex),
              np.diag([0.25, 0.75]).astype(complex), SQUARE)
    ok_diag = abs(v - 4.0 / 3.0) <= 1e-12

    worst = 0.0
    for i in range(100):
        rng = trial_rng(SEED, 80_000 + i)
        dim = 2 + i % 3
        rho, sigma = _invertible_pair(rng, dim)
        worst = max(worst, abs(d_max(rho, sigma, XLOGX)
                               - bs_relative_entropy(rho, sigma)))
    ok_xlogx = worst <= 1e-9

    ket0 = np.array([1, 0], dtype=complex)
    ketp = np.array([1, 1], dtype=complex) / np.sqrt(2)
    pure = d_max(np.outer(ket0, ket0), np.outer(ketp, ketp), HALF)
    ok_pure = pure == 0.0

    _report(8, "worked examples (4/3, largest relative entropy, pure pair)",
            ok_diag and ok_xlogx and ok_pure,
            f"diag err = {abs(v - 4/3):.1e}, xlogx worst = {worst:.1e}, "
            f"pure value = {pure!r}")


def test_c09_umegaki_bound():
    worst = -math.inf
    best_gap = 0.0
    for i in range(300):
        rng = trial_rng(SEED, 90_000 + i)
        dim = 2 + i % 3
        rho, sigma = _invertible_pair(rng, dim)
        gap = d_max(rho, sigma, XLOGX) - umegaki_relative_entropy(rho, sigma)
        worst = max(worst, -gap)
        if np.abs(rho @ sigma - sigma @ rho).max() > 1e-3:
            best_gap = max(best_gap, gap)
    ok = worst <= 1e-8 and best_gap > 1e-3
    _report(9, "Umegaki entropy lower-bounds d_max", ok,
            f"worst violation = {worst:.2e}, best strict gap = {best_gap:.2e}")


def test_c10_rld_identity():
    worst = 0.0
    worst_square = 0.0
    for i in range(100):
        rng = trial_rng(SEED, 100_000 + i)
        dim = 2 + i % 2  # qubit / qutrit
        rho = 0.7 * random_state(dim, dim, rng) + 0.3 * np.eye(dim) / dim
        X = random_tangent(rho, rng).direction
        Y = random_tangent(rho, rng).direction
        for f in GENS:
            res = second_derivative_check(rho, X, Y, f, step=1e-3)
            worst = max(worst, res.abs_err)
        exact = second_derivative_check(rho, X, Y, SQUARE, step=0.25)
        worst_square = max(worst_square,
                           abs(exact.variants[2] - exact.analytic))
    ok = worst <= 1e-4 and worst_square <= 1e-9
    _report(10, "divergence Hessian equals f''(1) Re J_rho", ok,
            f"worst fd err = {worst:.2e}, square exact err = {worst_square:.2e}")


def test_c11_schur_reduction_maximality():
    worst_psd = 0.0
    worst_excess = -math.inf
    for i in range(300):
        rho, sigma = _mixed_ensemble(i, 300)
        tilde = analyze(rho, sigma).rho_tilde
        worst_psd = max(worst_psd,
                        -float(np.linalg.eigvalsh(rho - tilde).min()))
    for i in range(100):
        rng = trial_rng(SEED, 110_000 + i)
        dim = 2 + i % 3
        rho, sigma = (_undominated_pair(rng, dim) if i % 2 == 0
                      else _pair(rng, dim))
        tilde = analyze(rho, sigma).rho_tilde
        rho1 = shrunk_feasible_operator(rho, sigma, tilde, rng)
        worst_excess = max(worst_excess,
                           float(np.linalg.eigvalsh(rho1 - tilde).max()))
    ok = worst_psd <= 1e-10 and worst_excess <= 1e-9
    _report(11, "Schur reduction maximality", ok,
            f"worst -eig(rho - tilde) = {worst_psd:.2e}, "
            f"worst feasible excess = {worst_excess:.2e}")


def test_c12_equality_preservation():
    ok_all = True
    details = []
    for i in range(40):
        rng = trial_rng(SEED, 120_000 + i)
        dim = 2 + i % 3
        rho, sigma = _pair(rng, dim) if i % 2 else _pair(rng, dim, rank_sigma=dim)
        for ch in (random_channel(dim, dim, 1, rng),
                   embedding_channel(dim, dim + 1)):
            rep = equality_check(rho, sigma, ch, HALF, tol=1e-8)
            good = (rep.equal and rep.reverse_test_preserved and rep.p_match
                    and rep.q_match)
            ok_all = ok_all and good
            if not good:
                details.append(f"trial {i}: {rep}")
    rho = np.array([[0.75, 0.15], [0.15, 0.25]], dtype=complex)
    sigma = np.array([[0.4, -0.1j], [0.1j, 0.6]], dtype=complex)
    rep = equality_check(rho, sigma, depolarizing_channel(2, 0.3), SQUARE)
    decrease = rep.value_in - rep.value_out
    ok_noise = (not rep.equal) and decrease >= 1e-3
    _report(12, "equality preservation (unitary/embedding vs noisy)",
            ok_all and ok_noise,
            f"depolarizing decrease = {decrease:.3e}" +
            ("" if not details else f"; {details[0]}"))


def test_c13_lowner_quadrature():
    form = LownerForm(a=0.0, b=0.0, atoms=lebesgue_atoms())
    err = lowner_quadrature_check(XLOGX, form, np.linspace(0.1, 10.0, 400))
    _report(13, "xlogx reproduced by the Lebesgue quadrature", err <= 1e-12,
            f"sup error = {err:.2e}")


def test_c14_v_operator():
    worst_v2 = 0.0
    worst_contraction = -math.inf
    for i in range(200):
        rng = trial_rng(SEED, 140_000 + i)
        dim = 2 + i % 3
        dout = int(rng.integers(2, 5))
        env_min = -(-dim // dout)
        sigma = random_state(dim, int(rng.integers(1, dim + 1)), rng)
        ch = random_channel(dim, dout, int(rng.integers(env_min, env_min + 3)),
                            rng)
        worst_v2 = max(worst_v2, float(np.abs(
            v_operator(ch, sigma, matrix_sqrt(ch.apply(sigma)))
            - matrix_sqrt(sigma)).max()))
        Z = rng.standard_normal((dout, dout)) + 1j * rng.standard_normal(
            (dout, dout))
        worst_contraction = max(
            worst_contraction,
            float(np.linalg.norm(v_operator(ch, sigma, Z))
                  - np.linalg.norm(Z)))
    ok = worst_v2 <= 1e-9 and worst_contraction <= 1e-9
    _report(14, "V-operator identity and HS contraction", ok,
            f"worst identity err = {worst_v2:.2e}, "
            f"worst norm excess = {worst_contraction:.2e}")
