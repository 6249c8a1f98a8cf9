"""Tests for the divergence engine and the minimal reverse test."""

import json
import math

import numpy as np
import pytest

from qfdiv import errors, linalg
from qfdiv.channels import random_state as seeded_state
from qfdiv.cli import main
from qfdiv.divergence import (PairAnalysis, analyze, d_max, d_prime,
                              minimal_reverse_test, perturbation_limit_probe,
                              reverse_test_value)
from qfdiv.generators import (builtin, classical_f_divergence, custom)
from qfdiv.linalg import support_projector
from qfdiv.matio import save_matrix
from qfdiv.oracles import (bs_relative_entropy, classical_oracle,
                           umegaki_relative_entropy)

XLOGX = builtin("xlogx")
SQUARE = builtin("square")
HALF = builtin("neg_power", 0.5)
POW15 = builtin("power", 1.5)
GENS = [XLOGX, SQUARE, HALF, POW15]

KET0 = np.array([1, 0], dtype=complex)
KETP = np.array([1, 1], dtype=complex) / np.sqrt(2)
PROJ0 = np.outer(KET0, KET0.conj())
PROJP = np.outer(KETP, KETP.conj())


def random_state(rng, dim, rank=None):
    rank = rank or dim
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


class TestRnDerivative:
    def test_equal_pair_gives_support_projector(self):
        rng = np.random.default_rng(1)
        sigma = random_state(rng, 4, rank=2)
        d = analyze(sigma, sigma).d
        np.testing.assert_allclose(d, support_projector(sigma), atol=1e-10)

    def test_diagonal_arithmetic(self):
        d = analyze(np.diag([0.5, 0.5]), np.diag([0.25, 0.75])).d
        np.testing.assert_allclose(d, np.diag([2.0, 2.0 / 3.0]), atol=1e-12)

    def test_scalar_scaling(self):
        d = analyze(PROJ0, np.eye(2) / 2).d
        np.testing.assert_allclose(d, 2.0 * PROJ0, atol=1e-12)

    def test_reconstructs_rho(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            dim = int(rng.integers(2, 7))
            sigma = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
            pi = support_projector(sigma)
            raw = pi @ random_state(rng, dim) @ pi
            rho = raw / np.trace(raw).real
            pair = analyze(rho, sigma)
            assert pair.dominated
            d = pair.d
            from qfdiv.linalg import matrix_sqrt
            s = matrix_sqrt(sigma)
            assert np.abs(s @ d @ s - rho).max() < 1e-9

    def test_support_violation(self):
        assert not analyze(PROJ0, PROJP).dominated


class TestDPrime:
    def test_equal_pair_xlogx(self):
        rng = np.random.default_rng(3)
        rho = random_state(rng, 3)
        assert d_prime(rho, rho, XLOGX) == pytest.approx(0.0, abs=1e-12)

    def test_square_diagonal_example(self):
        v = d_prime(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]), SQUARE)
        assert v == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_disjoint_pure_neg_power_is_exactly_zero(self):
        assert d_prime(PROJ0, PROJP, HALF) == 0.0

    def test_generator_undefined_on_the_spectrum(self):
        # d = diag(2, 2/3); the generator is NaN above 1
        partial = custom("partial", lambda y: np.where(y > 1.0, np.nan, y * y),
                         recession=math.inf)
        with pytest.raises(errors.DomainError):
            d_prime(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]), partial)

    def test_zero_sigma(self):
        with pytest.raises(errors.ZeroSigma):
            d_prime(PROJ0, np.zeros((2, 2)), XLOGX)

    def test_infinite_iff_escaping_mass(self):
        assert d_prime(PROJ0, PROJP, XLOGX) == math.inf
        assert d_prime(PROJ0, PROJP, SQUARE) == math.inf
        assert math.isfinite(d_prime(PROJ0, PROJP, HALF))

    def test_never_below_tangent_bound(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for f in GENS:
            slope = float(f.eval(1 + h) - f.eval(1 - h)) / (2 * h)
            f1 = float(f.eval(1.0))
            for _ in range(30):
                dim = int(rng.integers(2, 6))
                rho = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
                sigma = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
                v = d_prime(rho, sigma, f)
                assert v > -math.inf
                if math.isfinite(v):
                    assert v >= slope + (f1 - slope) - 1e-6  # unit traces


class TestDMax:
    def test_requires_operator_convex_flag(self):
        plain = custom("plain", lambda y: y * y, recession=math.inf)
        with pytest.raises(errors.UnsupportedGenerator):
            d_max(np.eye(2) / 2, np.eye(2) / 2, plain)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_operand(self, bad):
        nonfinite = np.array([[bad, 0.0], [0.0, 0.5]])
        for rho, sigma in ((nonfinite, np.eye(2) / 2), (np.eye(2) / 2, nonfinite)):
            for f in GENS:
                with pytest.raises(errors.InvalidOperator):
                    d_max(rho, sigma, f)
            with pytest.raises(errors.InvalidOperator):
                minimal_reverse_test(rho, sigma)

    def test_commuting_matches_classical(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            U, _ = np.linalg.qr(G)
            p = rng.random(dim) + 0.05
            q = rng.random(dim) + 0.05
            p /= p.sum()
            q /= q.sum()
            rho = (U * p) @ U.conj().T
            sigma = (U * q) @ U.conj().T
            for f in GENS:
                assert d_max(rho, sigma, f) == pytest.approx(
                    classical_f_divergence(p, q, f), abs=1e-10)

    def test_equal_pair_is_f1_times_trace(self):
        rng = np.random.default_rng(6)
        sigma = 2.5 * random_state(rng, 3)
        for f in GENS:
            expect = float(f.eval(1.0)) * np.trace(sigma).real
            assert d_max(sigma, sigma, f) == pytest.approx(expect, abs=1e-10)

    def test_xlogx_equals_largest_relative_entropy(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            dim = int(rng.integers(2, 5))
            rho = 0.9 * random_state(rng, dim) + 0.1 * np.eye(dim) / dim
            sigma = 0.9 * random_state(rng, dim) + 0.1 * np.eye(dim) / dim
            assert d_max(rho, sigma, XLOGX) == pytest.approx(
                bs_relative_entropy(rho, sigma), abs=1e-9)

    def test_umegaki_lower_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            dim = int(rng.integers(2, 5))
            rho = 0.9 * random_state(rng, dim) + 0.1 * np.eye(dim) / dim
            sigma = 0.9 * random_state(rng, dim) + 0.1 * np.eye(dim) / dim
            assert (umegaki_relative_entropy(rho, sigma)
                    <= d_max(rho, sigma, XLOGX) + 1e-8)

    def test_neg_power_alpha_swap(self):
        rng = np.random.default_rng(9)
        for alpha in (0.2, 0.5, 0.8):
            rho = 0.9 * random_state(rng, 3) + 0.1 * np.eye(3) / 3
            sigma = 0.9 * random_state(rng, 3) + 0.1 * np.eye(3) / 3
            lhs = d_max(rho, sigma, builtin("neg_power", alpha))
            rhs = d_max(sigma, rho, builtin("neg_power", 1 - alpha))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_joint_convexity(self):
        rng = np.random.default_rng(10)
        for f in GENS:
            for _ in range(10):
                dim = 3
                pairs = [(random_state(rng, dim), random_state(rng, dim))
                         for _ in range(2)]
                vals = [d_max(r, s, f) for r, s in pairs]
                for c in (0.25, 0.5, 0.75):
                    mixed = d_max(c * pairs[0][0] + (1 - c) * pairs[1][0],
                                  c * pairs[0][1] + (1 - c) * pairs[1][1], f)
                    assert mixed <= c * vals[0] + (1 - c) * vals[1] + 1e-8

    def test_sigma_monotonicity(self):
        rng = np.random.default_rng(11)
        for f in GENS:
            for _ in range(10):
                rho = random_state(rng, 3, rank=2)
                sigma = random_state(rng, 3, rank=2)
                bigger = sigma + 0.5 * random_state(rng, 3)
                assert d_max(rho, bigger, f) <= d_max(rho, sigma, f) + 1e-8


class TestMinimalReverseTest:
    def test_equal_trace_one_pair(self):
        rng = np.random.default_rng(12)
        sigma = random_state(rng, 3)
        rt = minimal_reverse_test(sigma, sigma)
        assert len(rt) == 1
        assert rt.p[0] == pytest.approx(1.0, abs=1e-12)
        assert rt.q[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rt.outputs[0], sigma, atol=1e-10)

    def test_diagonal_atoms(self):
        rt = minimal_reverse_test(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]))
        assert len(rt) == 2
        order = np.argsort(rt.p / rt.q)
        np.testing.assert_allclose(rt.q[order], [0.75, 0.25], atol=1e-12)
        np.testing.assert_allclose(rt.p[order], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(rt.outputs[order[1]], np.diag([1.0, 0.0]),
                                   atol=1e-10)

    def test_disjoint_pure_pair_has_escape_atom(self):
        rt = minimal_reverse_test(PROJ0, PROJP)
        assert "x0" in rt.labels
        k = rt.labels.index("x0")
        assert rt.p[k] == pytest.approx(1.0, abs=1e-12)
        assert rt.q[k] == 0.0
        np.testing.assert_allclose(rt.outputs[k], PROJ0, atol=1e-10)
        # the remaining atom reconstructs sigma with p-weight zero
        rho_hat, sigma_hat = rt.reconstruct()
        np.testing.assert_allclose(rho_hat, PROJ0, atol=1e-10)
        np.testing.assert_allclose(sigma_hat, PROJP, atol=1e-10)

    def test_atom_count_matches_spectrum(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            sigma = random_state(rng, dim)
            rho = random_state(rng, dim)
            rt = minimal_reverse_test(rho, sigma)
            d = analyze(rho, sigma).d
            distinct = len(np.unique(np.round(np.linalg.eigvalsh(d), 6)))
            assert len(rt) == distinct

    def test_reconstruction_all_regimes(self):
        rng = np.random.default_rng(14)
        for k in range(100):
            dim = int(rng.integers(2, 7))
            rho = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
            sigma = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
            rt = minimal_reverse_test(rho, sigma)
            rho_hat, sigma_hat = rt.reconstruct()
            assert np.abs(rho_hat - rho).max() < 1e-9
            assert np.abs(sigma_hat - sigma).max() < 1e-9
            for out in rt.outputs:
                assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)
                assert np.linalg.eigvalsh(out).min() > -1e-9

    def test_zero_sigma(self):
        with pytest.raises(errors.ZeroSigma):
            minimal_reverse_test(PROJ0, np.zeros((2, 2)))


class TestReverseTestValue:
    def test_matches_d_max(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            dim = int(rng.integers(2, 6))
            rho = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
            sigma = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
            rt = minimal_reverse_test(rho, sigma)
            for f in GENS:
                direct = d_max(rho, sigma, f)
                via_test = reverse_test_value(rt, f)
                if math.isinf(direct):
                    assert math.isinf(via_test)
                else:
                    assert via_test == pytest.approx(direct, abs=1e-8)

    def test_escape_atom_forces_infinity(self):
        rt = minimal_reverse_test(PROJ0, PROJP)
        assert reverse_test_value(rt, XLOGX) == math.inf
        assert reverse_test_value(rt, HALF) == 0.0


class TestPerturbationProbe:
    def test_dominated_values_below_limit(self):
        rng = np.random.default_rng(16)
        rho = random_state(rng, 3)
        sigma = random_state(rng, 3)
        target = d_max(rho, sigma, HALF)
        probe = perturbation_limit_probe(rho, sigma, HALF, [1e-2, 1e-4, 1e-6])
        values = [v for _, v in probe]
        assert all(v <= target + 1e-9 for v in values)
        assert values == sorted(values)
        assert values[-1] == pytest.approx(target, abs=1e-4)

    def test_closed_form_two_level(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 0.5])
        probe = perturbation_limit_probe(rho, sigma, HALF, [1e-2, 1e-4, 1e-8])
        for eps, val in probe:
            assert val == pytest.approx(-math.sqrt(eps), abs=1e-10)
        assert d_max(rho, sigma, HALF) == 0.0

    def test_square_diverges_without_support(self):
        probe = perturbation_limit_probe(PROJ0, PROJP, SQUARE, [1e-4, 1e-8])
        assert probe[-1][1] > 1e6
        assert d_max(PROJ0, PROJP, SQUARE) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            perturbation_limit_probe(PROJ0, PROJP, HALF, [1e-4, 1e-2])
        with pytest.raises(ValueError):
            perturbation_limit_probe(PROJ0, PROJP, HALF, [0.0])


class TestClassicalOracle:
    def test_half_log_example(self):
        v = classical_oracle(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]), XLOGX)
        assert v == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
        assert v == pytest.approx(0.143841, abs=1e-6)

    def test_equal_pair(self):
        sigma = np.diag([0.3, 0.7])
        assert classical_oracle(sigma, sigma, SQUARE) == pytest.approx(1.0)

    def test_disjoint_finite_recession(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        lin = builtin("neg_power", 1.0)  # recession -1
        assert classical_oracle(rho, sigma, lin) == pytest.approx(-1.0)

    def test_non_commuting_rejected(self):
        with pytest.raises(errors.NonCommuting):
            classical_oracle(PROJ0, PROJP, XLOGX)

    def test_degenerate_rho_at_small_scale(self):
        # sigma's eigenvalues split into blocks by a gap relative to sigma,
        # so at small scale they stay apart and a degenerate rho cannot mix them
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        rho = Q @ np.diag([0.5, 0.25, 0.25]) @ Q.conj().T
        sigma = Q @ np.diag([0.2, 0.3, 0.5]) @ Q.conj().T
        want = d_max(rho, sigma, XLOGX)
        for c in (1.0, 1e-13):
            got = classical_oracle(c * rho, c * sigma, XLOGX)
            assert abs(got - c * want) <= 1e-9 * c * want


def test_schur_tilde_feeds_closed_form():
    # the general-case value is the dominated value of the reduction plus
    # recession-weighted escaping mass
    rng = np.random.default_rng(17)
    for _ in range(20):
        dim = 4
        rho = random_state(rng, dim)
        sigma = random_state(rng, dim, rank=2)
        tilde = analyze(rho, sigma).rho_tilde
        missing = np.trace(rho - tilde).real
        direct = d_prime(rho, sigma, HALF)
        assembled = d_prime(tilde, sigma, HALF) + missing * 0.0
        assert direct == pytest.approx(assembled, abs=1e-10)


def wishart(rng, n, k=None):
    k = n if k is None else k
    G = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    W = G @ G.conj().T
    W = W / np.trace(W).real
    return (W + W.conj().T) / 2


def near_threshold_pair(eps):
    """A fixed rho and a real rotation of diag(0.5, 0.5 - eps, eps)."""
    rho = seeded_state(3, 3, 5)
    O, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    sigma = (O * np.array([0.5, 0.5 - eps, eps])) @ O.T
    return rho, sigma.astype(complex)


def assert_optimal_reverse_test(rho, sigma, rt, rebuild_tol, value_tol):
    """Unit-trace PSD atoms that rebuild the pair and attain d_max."""
    for out in rt.outputs:
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-12
    rho_hat, sigma_hat = rt.reconstruct()
    assert np.abs(rho_hat - rho).max() < rebuild_tol
    assert np.abs(sigma_hat - sigma).max() < rebuild_tol
    for f in GENS:
        want = d_max(rho, sigma, f)
        got = reverse_test_value(rt, f)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert abs(got - want) <= value_tol * max(1.0, abs(want))


class TestReverseTestClustering:
    """Clusters of d are cut by their local relative gap, so a large
    eigenvalue cannot merge distinct small ones and drop their atoms."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_plain_wishart_dim_128(self, seed):
        rng = np.random.default_rng(seed)
        rho, sigma = wishart(rng, 128), wishart(rng, 128)
        rt = minimal_reverse_test(rho, sigma)
        assert len(rt) == 128
        assert_optimal_reverse_test(rho, sigma, rt, 1e-9, 1e-8)

    @pytest.mark.parametrize("eps", [1e-9, 3e-10, 1e-11, 3e-12])
    def test_near_threshold_keeps_three_atoms(self, eps):
        rho, sigma = near_threshold_pair(eps)
        rt = minimal_reverse_test(rho, sigma)
        assert len(rt) == 3
        assert_optimal_reverse_test(rho, sigma, rt, 1e-9, 1e-8)

    def test_direction_cut_from_sigma_leaves_no_atom(self):
        # at eps = 1e-13 the third direction of sigma is below the rank
        # cutoff; no atom is built from it, the rest escapes as x0
        rho, sigma = near_threshold_pair(1e-13)
        rt = minimal_reverse_test(rho, sigma)
        assert rt.labels[-1] == "x0"
        assert np.all(rt.q[:-1] > 1e-3)
        assert_optimal_reverse_test(rho, sigma, rt, 1e-9, 1e-8)

    @pytest.mark.parametrize("case", ["wishart-128", "degenerate", "kernel"])
    def test_atoms_match_their_cluster_products(self, case):
        rng = np.random.default_rng(0)
        if case == "wishart-128":
            rho, sigma = wishart(rng, 128), wishart(rng, 128)
        elif case == "degenerate":             # d = 1 on supp sigma: one cluster
            sigma = wishart(rng, 8)
            rho = sigma
        else:                                  # d has a 5-fold kernel cluster
            sigma, rho = wishart(rng, 8), wishart(rng, 8, 3)
        pair = analyze(rho, sigma)
        W = (pair.basis * np.sqrt(pair.sigma_evals)) @ pair.coords  # sigma^{1/2} V
        atoms, p, q = [], [], []
        for g in linalg.cluster_groups(pair.evals):
            qg = float(np.trace(W[:, g] @ W[:, g].conj().T).real)
            if qg > linalg.ATOM_FLOOR * float(np.trace(sigma).real):
                atoms.append(W[:, g] @ W[:, g].conj().T / qg)
                p.append(pair.evals[g].mean() * qg)
                q.append(qg)
        sizes = [g.size for g in linalg.cluster_groups(pair.evals)]
        assert max(sizes) == {"wishart-128": 1, "degenerate": 8, "kernel": 5}[case]
        rt = pair.reverse_test()
        assert len(rt) == len(atoms)
        for out, ref in zip(rt.outputs, atoms):
            assert np.abs(out - ref).max() <= 1e-14
            assert np.abs(out - out.conj().T).max() <= 1e-15
        np.testing.assert_allclose(rt.p, p, rtol=1e-14, atol=0)
        np.testing.assert_allclose(rt.q, q, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("eps", [1e-9, 3e-10, 1e-11, 3e-12, 1e-13, None])
    def test_cli_counts_atoms_without_building_them(self, eps, tmp_path,
                                                    capsys, monkeypatch):
        if eps is None:                        # mass escapes supp sigma: x0
            rng = np.random.default_rng(2)
            rho, sigma = random_state(rng, 4), random_state(rng, 4, 2)
        else:
            rho, sigma = near_threshold_pair(eps)
        want = len(minimal_reverse_test(rho, sigma))
        for name, M in [("rho", rho), ("sigma", sigma)]:
            save_matrix(str(tmp_path / f"{name}.json"), M)

        def refuse(self):
            raise AssertionError("qfdiv compute built the atoms")
        monkeypatch.setattr(PairAnalysis, "reverse_test", refuse)
        assert main(["compute", "--rho", str(tmp_path / "rho.json"), "--sigma",
                     str(tmp_path / "sigma.json"), "--f", "square"]) == 0
        assert json.loads(capsys.readouterr().out)["atoms"] == want


def homogeneity_pairs():
    """Seeded pairs at dims 2-4: dominated with full and deficient rank,
    rho inside a deficient supp sigma, and mass escaping supp sigma."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 3
        full, low = random_state(rng, dim), random_state(rng, dim, dim - 1)
        sigma_low = random_state(rng, dim, dim - 1)
        V = np.linalg.eigh(sigma_low)[1][:, 1:]      # supp sigma_low
        inside = V @ random_state(rng, dim - 1) @ V.conj().T
        yield from [(full, random_state(rng, dim)), (low, full),
                    (inside, sigma_low), (full, sigma_low), (low, sigma_low)]


@pytest.mark.parametrize("call", [lambda A, B: d_max(A, B, XLOGX),
                                  minimal_reverse_test])
def test_empty_operator_rejected(call):
    with pytest.raises(errors.InvalidOperator):
        call(np.zeros((0, 0)), np.zeros((0, 0)))


class TestScaleHomogeneity:
    """D(c rho || c sigma) = c D(rho || sigma): every tolerance decision is
    relative to the scale of its operand."""

    SCALES = (1e-14, 1e-12, 1e-10, 1e-6, 1e3, 1e10)

    def test_homogeneous_across_scales(self):
        infinite = 0
        for rho, sigma in homogeneity_pairs():
            base = analyze(rho, sigma)
            # eigensolver roundoff grows with the condition number of sigma
            # on its support; a scale-dependent decision errs by far more
            s = base.sigma_evals
            cond = max(1.0, s.max() / s.min() / 100)
            for c in self.SCALES:
                scaled = analyze(c * rho, c * sigma)
                for f in GENS:
                    want, got = base.d_max(f), scaled.d_max(f)
                    assert math.isinf(got) == math.isinf(want), (c, f.name)
                    if math.isinf(want):
                        infinite += 1
                    else:
                        assert abs(got / c - want) <= 1e-13 * max(1.0, abs(want)) * cond
        assert infinite > 0

    def test_escaped_mass_at_small_scale(self):
        # half of rho escapes supp sigma at every scale, so xlogx gives +inf
        c = 1e-12
        rho, sigma = c * np.diag([0.5, 0.5]), c * np.diag([1.0, 0.0])
        assert d_max(rho, sigma, XLOGX) == math.inf
        pair = analyze(rho, sigma)
        assert pair.escaped == pytest.approx(0.5 * c, rel=1e-12, abs=0)
        assert minimal_reverse_test(rho, sigma).labels[-1] == "x0"

    def test_not_psd_at_small_scale(self):
        rho = 1e-12 * np.diag([1.0, -0.5])
        with pytest.raises(errors.NotPSD):
            d_max(rho, 1e-12 * np.diag([0.5, 0.5]), XLOGX)
