"""Tests for the divergence engine and the minimal reverse test."""

import copy
import functools
import json
import math
import pickle

import numpy as np
import pytest

from qfdiv import divergence, errors, linalg, oracles
from qfdiv.channels import depolarizing_channel
from qfdiv.channels import random_state as seeded_state
from qfdiv.cli import main
from qfdiv.divergence import (ReverseTest, analyze, d_max, d_prime,
                              minimal_reverse_test, perturbation_limit_probe,
                              reverse_test_value)
from qfdiv.generators import (builtin, classical_f_divergence, custom,
                               from_spec, recession_value)
from qfdiv.linalg import support_projector
from qfdiv.matio import save_matrix
from qfdiv.oracles import (bs_relative_entropy, classical_oracle,
                           joint_eigenvalues, umegaki_relative_entropy)
from qfdiv.rld import random_tangent
from qfdiv.suites import (_commuting_pair, _ill_conditioned_pair, _pair,
                          _undominated_pair)

XLOGX = builtin("xlogx")
SQUARE = builtin("square")
HALF = builtin("neg_power", 0.5)
POW15 = builtin("power", 1.5)
GENS = [XLOGX, SQUARE, HALF, POW15]

KET0 = np.array([1, 0], dtype=complex)
KETP = np.array([1, 1], dtype=complex) / np.sqrt(2)
PROJ0 = np.outer(KET0, KET0.conj())
PROJP = np.outer(KETP, KETP.conj())
HALVES = [0.5, 0.5]


def random_state(rng, dim, rank=None):
    rank = rank or dim
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


class TestRnDerivative:
    def test_equal_pair_gives_support_projector(self):
        rng = np.random.default_rng(1)
        sigma = random_state(rng, 4, rank=2)
        pair = analyze(sigma, sigma)
        # d is the projector onto supp sigma: 1 on each of its 2 dimensions
        np.testing.assert_allclose(pair.evals, [1.0, 1.0], atol=1e-10)
        X = pair.factor
        np.testing.assert_allclose(X @ X.conj().T, sigma, atol=1e-12)

    def test_diagonal_arithmetic(self):
        # d = diag(2, 2/3), with the sigma-weights 1/4 and 3/4 of e_0, e_1
        pair = analyze(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]))
        np.testing.assert_allclose(pair.evals, [2.0 / 3.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(pair.weights, [0.75, 0.25], atol=1e-12)

    def test_scalar_scaling(self):
        # d = 2 |0><0|: X diag(evals) X^H = sigma^{1/2} d sigma^{1/2} = rho
        pair = analyze(PROJ0, np.eye(2) / 2)
        np.testing.assert_allclose(pair.evals, [0.0, 2.0], atol=1e-12)
        X = pair.factor
        np.testing.assert_allclose((X * pair.evals) @ X.conj().T, PROJ0,
                                   atol=1e-12)

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
            # X = sigma^{1/2} U: X X^H = sigma, X diag(evals) X^H = rho
            X = pair.factor
            assert np.abs(X @ X.conj().T - sigma).max() < 1e-9
            assert np.abs((X * pair.evals) @ X.conj().T - rho).max() < 1e-9

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

    @pytest.mark.parametrize("n", [3, 8, 16, 32])
    def test_two_faults_raise_one_error_at_every_dim(self, n):
        # sigma, then rho, are checked Hermitian before any PSD decision, so
        # the error does not depend on which route the dim picks
        rng = np.random.default_rng(n)
        rho = random_state(rng, n)
        rho[0, -1] += 0.1
        sigma = rotated(rng, np.concatenate(([-0.5], np.ones(n - 1))))
        with pytest.raises(errors.InvalidOperator):
            d_max(rho, sigma, GENS[0])
        with pytest.raises(errors.NotPSD):
            d_max(random_state(rng, n), sigma, GENS[0])

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

    @pytest.mark.parametrize("oracle", [umegaki_relative_entropy,
                                        bs_relative_entropy])
    def test_relative_entropies_are_infinite_off_supp_sigma(self, oracle):
        # they read -0.693 and -0.347 where d_max under xlogx is +inf
        rho, sigma = np.eye(2) / 2, np.diag([1.0, 0.0])
        assert math.isinf(d_max(rho, sigma, XLOGX))
        assert oracle(rho, sigma) == math.inf
        # rho inside supp sigma stays finite
        assert oracle(np.diag([1.0, 0.0]), sigma) == pytest.approx(0.0, abs=1e-12)

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
        # the escaped atom is the last, the one atom with q = 0
        k = len(rt) - 1
        assert rt.q[k] == 0.0 and np.all(rt.q[:k] > 0.0)
        assert rt.p[k] == pytest.approx(1.0, abs=1e-12)
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
            S = linalg.gen_inverse_sqrt(sigma)
            d = S @ rho @ S
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


def held_weight_tests():
    """(id, reverse test): the minimal test of a dominated, a rank-deficient,
    an escaping and a degenerate commuting pair, then disjoint, refined,
    concatenated and random tests."""
    rng = np.random.default_rng(60)
    dominated = random_state(rng, 3), random_state(rng, 3)
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0][:, :2]
    low = V @ random_state(rng, 2) @ V.T
    rank_deficient = V @ random_state(rng, 2) @ V.T, low
    escaping = random_state(rng, 3), low
    # d = diag(0.8, 0.8, 1.2): one cluster of two eigenvectors
    degenerate = np.diag([0.2, 0.2, 0.6]), np.diag([0.25, 0.25, 0.5])
    minimal = minimal_reverse_test(*dominated)
    yield "dominated", minimal
    yield "rank-deficient", minimal_reverse_test(*rank_deficient)
    yield "escaping", minimal_reverse_test(*escaping)
    yield "degenerate", minimal_reverse_test(*degenerate)
    yield "disjoint", oracles.disjoint_reverse_test(*escaping)
    yield "refined", oracles.refine_reverse_test(minimal, rng, 3)
    yield "concatenated", oracles.concat_reverse_tests(
        minimal, oracles.random_reverse_test(*dominated, rng), 0.3)
    yield "random", oracles.random_reverse_test(*escaping, rng)


class TestHeldWeights:
    """A ReverseTest checks and splits its weights once, when it is built;
    reverse_test_value sums that split."""

    @pytest.mark.parametrize("spec", ["xlogx", "square", "neg_power:0.5",
                                      "power:1.5", "psi:1"])
    def test_value_is_the_classical_divergence_bit_for_bit(self, spec):
        f = from_spec(spec)
        for name, rt in held_weight_tests():
            got = reverse_test_value(rt, f)
            want = classical_f_divergence(rt.p, rt.q, f)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), name

    def test_cases_cover_both_layouts_and_the_escape(self):
        tests = dict(held_weight_tests())
        assert tests["degenerate"].sizes.tolist() == [2, 1]
        assert tests["dominated"].sizes.tolist() == [1, 1, 1]
        assert tests["escaping"].q[-1] == 0.0 < tests["escaping"].p[-1]
        assert tests["rank-deficient"].q.min() > 0.0

    def test_nan_generator_raises_domain_error(self):
        partial = custom("partial", lambda y: np.where(y > 1.0, np.nan, y * y),
                         recession=math.inf)
        rt = minimal_reverse_test(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]))
        with pytest.raises(errors.DomainError):
            reverse_test_value(rt, partial)
        with pytest.raises(errors.DomainError):
            classical_f_divergence(rt.p, rt.q, partial)

    @pytest.mark.parametrize("p, q", [
        ([math.nan, 0.5], [0.5, 0.5]), ([0.5, 0.5], [math.inf, 0.5]),
        ([-math.inf, 0.5], [0.5, 0.5]), ([-0.1, 1.1], [0.5, 0.5]),
        ([1.0], [0.5, 0.5])],
        ids=["nan", "inf", "minus-inf", "negative", "unequal-lengths"])
    def test_bad_weights_raise_when_built(self, p, q):
        factors = np.eye(2, dtype=complex)
        with pytest.raises(errors.InvalidDistribution):
            ReverseTest(factors, np.ones(2, dtype=int), p, q)

    @pytest.mark.parametrize("factors, sizes, p", [
        (np.eye(2), [1, 1, 1], [0.5, 0.5, 0.0]), (np.eye(3), [1, 1], HALVES),
        (np.ones(2), [1, 1], HALVES), (np.ones((2, 2, 1)), [1, 1], HALVES),
        (np.eye(2), [2], HALVES), (np.eye(2), [2, 0], HALVES),
        (np.eye(3), [4, -1], HALVES), (np.eye(2), [1.0, 1.0], HALVES),
        (np.eye(2), [[1, 1]], HALVES)],
        ids=["too-few-columns", "a-column-left-over", "factors-1d",
             "factors-3d", "one-size-for-two-weights", "empty-atom",
             "negative-size", "float-sizes", "sizes-2d"])
    def test_bad_layout_raises_when_built(self, factors, sizes, p):
        # the first two built, then reconstruct() raised numpy's broadcasting
        # ValueError or ignored a column
        with pytest.raises(errors.DimensionMismatch):
            ReverseTest(factors, sizes, p, p)

    def test_non_finite_factors_raise_when_built(self):
        # such a test would reconstruct NaN while reverse_test_value reads
        # a finite value off the weights
        with pytest.raises(errors.InvalidOperator):
            ReverseTest(np.full((2, 1), np.nan), [1], [1.0], [1.0])
        rt = minimal_reverse_test(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]))
        factors = np.array(rt.factors)
        factors[1, 0] = np.inf
        with pytest.raises(errors.InvalidOperator):
            ReverseTest(factors, rt.sizes, rt.p, rt.q)
        # the checked entries are the test's own: neither a write to the
        # held factors nor one to the caller's array reaches them
        F = np.array(rt.factors)
        held = ReverseTest(F, rt.sizes, rt.p, rt.q)
        with pytest.raises(ValueError):
            held.factors[0, 0] = np.nan
        F[0, 0] = np.nan
        assert np.isfinite(held.reconstruct()[0]).all()
        # a pickled or copied test is built anew, with its own read-only copy
        for again in (pickle.loads(pickle.dumps(held)), copy.copy(held)):
            assert again.factors is not held.factors
            assert not again.factors.flags.writeable
            np.testing.assert_array_equal(again.factors, held.factors)

    def test_weights_are_read_only_copies(self):
        p, q = np.array([0.5, 0.5]), np.array([0.25, -1e-14])
        sizes = np.ones(2, dtype=int)
        F = np.eye(2, dtype=complex)
        rt = ReverseTest(F, sizes, p, q)
        for held in (rt.p, rt.q, rt.sizes, rt.factors):
            with pytest.raises(ValueError):
                held[0] = 0.0
        p[0] = 7.0
        sizes[0] = 2    # the checked layout is the test's own
        F[0, 0] = 0.0
        assert rt.p.tolist() == [0.5, 0.5] and p.flags.writeable
        assert rt.sizes.tolist() == [1, 1]
        assert rt.factors[0, 0] == 1.0 and F.flags.writeable
        # the dust below 0 that the check lets pass is held as 0
        assert rt.q.tolist() == [0.25, 0.0]


def _sigma_twice(rng, n):
    """(sigma, sigma) for the sigma of a commuting pair with a kernel: d = 1
    on supp sigma, one cluster of n - 1 eigenvectors."""
    sigma = _commuting_pair(rng, n, deficient=True)[1]
    return sigma, sigma


class TestWeightsFromTheAnalysis:
    """The minimal test's q(x) and p(x) are the cluster sums of the pair
    analysis's sigma-weights and rho_tilde-masses, weights and
    evals * weights."""

    @pytest.mark.parametrize("draw", [
        lambda rng, n: _pair(rng, n, n, n), _undominated_pair,
        lambda rng, n: _ill_conditioned_pair(rng, n, inside=False)],
        ids=["full-rank", "escaping", "ill-conditioned"])
    def test_one_eigenvector_clusters_are_the_weights(self, draw):
        rng = np.random.default_rng(70)
        for i in range(30):
            pair = analyze(*draw(rng, 2 + i % 3))
            rt = pair.reverse_test()
            n = pair.evals.size
            assert len(rt) == n + bool(pair.escaped)   # one atom per eigenvector
            assert rt.q[:n].tobytes() == pair.weights.tobytes()
            assert rt.p[:n].tobytes() == (pair.evals * pair.weights).tobytes()

    @pytest.mark.parametrize("draw, escapes, clusters", [
        (lambda rng, n: _commuting_pair(rng, n, deficient=True), False, False),
        (_sigma_twice, False, True),
        (_undominated_pair, True, False), (_pair, None, True),
        (lambda rng, n: _pair(rng, n, 1, n), None, True)],
        ids=["commuting-shared-kernel", "commuting-rho-is-sigma", "escaping",
             "random-ranks", "pure-rho"])
    def test_p_carries_the_trace_of_rho(self, draw, escapes, clusters):
        # the escaped atom carries escaped, the others the mass of rho_tilde
        rng = np.random.default_rng(71)
        seen = {"escaped": 0, "cluster": 0}
        for i in range(60):
            rho, sigma = draw(rng, 2 + i % 3)
            pair = analyze(rho, sigma)
            if not (pair.dominated or pair.escaped):
                continue        # mass below MASS_TOL * tr rho was dropped
            rt = pair.reverse_test()
            assert abs(rt.p.sum() - np.trace(rho).real) <= 1e-14
            seen["escaped"] += bool(pair.escaped)
            seen["cluster"] += len(rt) - bool(pair.escaped) < pair.evals.size
        if escapes is not None:
            assert seen["escaped"] == (60 if escapes else 0)
        assert (seen["cluster"] > 0) == clusters   # clusters of eigenvectors


def _records():
    """A builder for each record that holds arrays; each call builds anew."""
    rho, sigma = np.diag([0.5, 0.5]), np.diag([0.25, 0.75])
    return {
        "PairAnalysis": lambda: divergence._analysis(
            linalg.as_matrix(rho), linalg.as_matrix(sigma)),
        "ReverseTest": lambda: minimal_reverse_test(rho, sigma),
        "KrausChannel": lambda: depolarizing_channel(2, 0.3),
        "TangentPerturbation": lambda: random_tangent(rho, 0),
    }


class TestRecords:
    """Records that hold arrays compare by identity, and a copy of a checked
    record is built, and checked, anew."""

    @pytest.mark.parametrize("name", list(_records()))
    def test_compared_by_identity(self, name):
        build = _records()[name]
        x, y = build(), build()
        assert x == x and x in [x] and hash(x) == hash(x)
        assert x != y and x not in [y] and len({x, y}) == 2

    @pytest.mark.parametrize("copy_of", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("name", ["PairAnalysis", "ReverseTest",
                                      "KrausChannel"])
    def test_copies_keep_their_check(self, name, copy_of):
        x = _records()[name]()
        y = copy_of(x)
        assert type(y) is type(x) and y is not x
        for key, value in vars(x).items():
            if isinstance(value, np.ndarray):
                held = getattr(y, key)
                assert held is not value and np.array_equal(held, value), key
                assert held.flags.writeable == value.flags.writeable, key
        if name == "ReverseTest":
            with pytest.raises(ValueError):
                y.p[0] = 7.0
            for f in GENS:
                got = reverse_test_value(y, f)
                assert got == classical_f_divergence(y.p, y.q, f)
                assert got == reverse_test_value(x, f)
        if name == "KrausChannel":
            with pytest.raises(ValueError):
                y.kraus[0] *= 2
        if name == "PairAnalysis":
            assert y.dominated and y.d_max(XLOGX) == x.d_max(XLOGX)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, bad):
        # NaN passes both the sign and the order test by comparing False
        for grid in ([bad], [bad, 1e-4], [1e-2, bad]):
            with pytest.raises(ValueError):
                perturbation_limit_probe(PROJ0, PROJP, HALF, grid)

    @pytest.mark.parametrize("grid", [1e-3, np.float64(1e-3), None],
                             ids=["float", "numpy-float", "none"])
    def test_rejects_a_grid_that_is_not_iterable(self, grid):
        with pytest.raises(ValueError, match="epsilons"):
            perturbation_limit_probe(PROJ0, PROJP, HALF, grid)

    @pytest.mark.parametrize("grid", [["a", "b"], ["1e-2", "1e-3"], "1e-3",
                                      [1e-2, None], [1e-2, 1e-3j], [True],
                                      [np.True_]],
                             ids=["words", "numerals", "string", "none",
                                  "complex", "bool", "numpy-bool"])
    def test_rejects_a_grid_of_non_numbers(self, grid):
        with pytest.raises(ValueError, match="epsilons"):
            perturbation_limit_probe(PROJ0, PROJP, HALF, grid)


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

    def test_commutator_cut_is_relative(self):
        # the commutator is judged against ||rho|| ||sigma||, so neither a
        # large commuting pair is refused nor a small non-commuting one read
        rng = np.random.default_rng(5)
        rho, sigma = _commuting_pair(rng, 3)
        want = d_max(rho, sigma, XLOGX)
        got = classical_oracle(1e4 * rho, 1e4 * sigma, XLOGX)
        assert got == pytest.approx(1e4 * want, rel=1e-9)
        rho, sigma = _pair(rng, 3, 3, 3)
        with pytest.raises(errors.NonCommuting):
            classical_oracle(1e-6 * rho, 1e-6 * sigma, XLOGX)

    def test_degenerate_rho_at_small_scale(self):
        # joint_eigenvalues mixes rho and sigma at unit trace, so at small
        # scale sigma's part still splits rho's degenerate eigenspace
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        rho = Q @ np.diag([0.5, 0.25, 0.25]) @ Q.conj().T
        sigma = Q @ np.diag([0.2, 0.3, 0.5]) @ Q.conj().T
        want = d_max(rho, sigma, XLOGX)
        for c in (1.0, 1e-13):
            got = classical_oracle(c * rho, c * sigma, XLOGX)
            assert abs(got - c * want) <= 1e-9 * c * want


def degenerate_commuting_pairs():
    """(rho, sigma) with sigma = 1/n, and with sigma having a 2-fold
    eigenvalue whose block of rho is not diagonal in eigh's basis: in both,
    sigma's own eigenvectors are not a joint eigenbasis."""
    for n in range(2, 6):
        rng = np.random.default_rng(n)
        yield f"flat-{n}", seeded_state(n, n, [40, n]), np.eye(n) / n
        Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        block = seeded_state(2, 2, [41, n])
        rest = rng.uniform(0.5, 1.5, n - 2)
        rho = np.zeros((n, n), dtype=complex)
        rho[:2, :2] = block
        rho[2:, 2:] = np.diag(rest)
        s = np.concatenate(([0.3, 0.3], 0.4 + 0.1 * np.arange(n - 2)))
        sigma = (Q * s) @ Q.conj().T
        rho = Q @ rho @ Q.conj().T
        _, V = np.linalg.eigh(sigma)
        in_eigh = V[:, :2].conj().T @ rho @ V[:, :2]
        assert abs(in_eigh[0, 1]) > 1e-3   # the merged block is not diagonal
        yield f"twofold-{n}", rho / np.trace(rho).real, sigma / s.sum()


@pytest.mark.parametrize("f", [XLOGX, SQUARE, HALF], ids=lambda f: f.name)
@pytest.mark.parametrize("case", list(degenerate_commuting_pairs()),
                         ids=lambda case: case[0])
def test_classical_oracle_merges_degenerate_sigma(case, f):
    _, rho, sigma = case
    assert classical_oracle(rho, sigma, f) == pytest.approx(
        d_max(rho, sigma, f), abs=1e-12)


@pytest.mark.parametrize("rho, sigma", [
    ([[0.5, 0.2], [0.2, 0.5]], np.diag([0.5, 0.5 + 1e-10])),
    ([[0.3, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.4]],
     np.diag([1e-4, 1e-4 + 1e-11, 1.0])),
], ids=["split-1e-10", "split-1e-11"])
def test_classical_oracle_at_a_split_below_the_commutator_cut(rho, sigma):
    # sigma's two close eigenvalues leave [rho, sigma] under COMM_TOL; a
    # per-group eigensolve of sigma merged them and read -1.0e-10 and 4.4373
    assert abs(classical_oracle(rho, sigma, XLOGX)
               - d_max(rho, sigma, XLOGX)) <= 1e-12


def test_classical_oracle_on_a_degenerate_commuting_family():
    # exactly commuting pairs, dims 2-5: sigma with a kernel and an
    # eigenvalue 1e-6 above it, both spectra with repeated values; none is
    # refused, and each value agrees with d_max to its roundoff
    rng = np.random.default_rng(30)
    for i in range(600):
        n = int(rng.integers(2, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        kernel = int(rng.integers(0, n - 1))
        s = np.concatenate([np.zeros(kernel), [1e-6],
                            rng.choice([0.2, 0.5, 0.5, 1.0], n - kernel - 1)])
        p = rng.choice([0.0, 0.3, 0.3, 0.7, 1.0], n)
        p[-1] = p[-1] or 1.0
        rho = (Q * p) @ Q.conj().T
        sigma = (Q * rng.permutation(s)) @ Q.conj().T
        f = GENS[i % len(GENS)]
        got = classical_oracle(rho, sigma, f)
        want = d_max(rho, sigma, f)
        assert got == want or abs(got - want) <= 1e-9 * max(1.0, abs(want))


def tied_mixture_pair(rng, p, q):
    """rho, sigma with spectra p, q in one random complex eigenbasis."""
    n = len(p)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return (Q * p) @ Q.conj().T, (Q * q) @ Q.conj().T


def test_classical_oracle_splits_a_shared_mixture_eigenvalue():
    # (0.2, 0.5) and (0.2 + 0.1 t, 0.4) fall on one eigenvalue of the
    # mixture rho + t sigma, t = sqrt 2 - 1; the diagonals in its
    # eigenvectors read 0.65397 where the divergence is 0.65572
    t = math.sqrt(2.0) - 1.0
    p = np.array([0.2, 0.2 + 0.1 * t, 0.6 - 0.1 * t])
    q = np.array([0.5, 0.4, 0.1])
    rho, sigma = tied_mixture_pair(np.random.default_rng(3), p, q)
    want = classical_f_divergence(p, q, XLOGX)
    assert want == pytest.approx(0.65572427, abs=1e-8)
    assert classical_oracle(rho, sigma, XLOGX) == pytest.approx(want, abs=1e-12)
    assert d_max(rho, sigma, XLOGX) == pytest.approx(want, abs=1e-12)
    got = sorted(zip(*joint_eigenvalues(rho, sigma)))
    np.testing.assert_allclose(got, sorted(zip(p, q)), atol=1e-14)


def test_classical_oracle_on_a_family_of_shared_mixture_eigenvalues():
    # dims 3-5: the first two joint eigenpairs meet on one eigenvalue of
    # the mixture at unit traces; the rest carry weights of their own
    t = math.sqrt(2.0) - 1.0
    rng = np.random.default_rng(31)
    for i in range(200):
        n = 3 + i % 3
        q = rng.uniform(0.05, 1.0, n)
        q /= q.sum()
        p = np.empty(n)
        p[0] = rng.uniform(0.0, 0.2)
        p[1] = p[0] + t * (q[0] - q[1])
        if p[1] < 0:
            p[[0, 1]] -= p[1]
        p[2:] = rng.uniform(0.1, 1.0, n - 2)
        p[2:] *= (1.0 - p[0] - p[1]) / p[2:].sum()
        f = GENS[i % len(GENS)]
        want = classical_f_divergence(p, q, f)
        got = classical_oracle(*tied_mixture_pair(rng, p, q), f)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), i


def test_joint_eigenvalues_refuses_a_pair_with_no_joint_basis():
    # the commutator, 1.4e-11, passes its cut, and the mixture is
    # degenerate on the first two directions, but rho keeps an entry of
    # 1e-8 off sigma's eigenbasis there
    t = math.sqrt(2.0) - 1.0
    sigma = np.diag([0.3, 0.301, 0.399])
    rho = np.array([[0.3, 1e-8, 0.0], [1e-8, 0.3 - 1e-3 * t, 0.0],
                    [0.0, 0.0, 0.4 + 1e-3 * t]])
    with pytest.raises(errors.NonCommuting, match="joint eigenbasis"):
        joint_eigenvalues(rho, sigma)


@pytest.mark.parametrize("call", [
    joint_eigenvalues,
    lambda a, b: classical_oracle(a, b, XLOGX),
    umegaki_relative_entropy,
    bs_relative_entropy,
], ids=["joint_eigenvalues", "classical_oracle", "umegaki_relative_entropy",
        "bs_relative_entropy"])
def test_oracles_refuse_unequal_shapes(call):
    with pytest.raises(errors.DimensionMismatch):
        call(np.eye(2) / 2, np.eye(3) / 3)


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


@pytest.mark.parametrize("seed", [2037, 2079])
def test_pure_rho_leaking_out_keeps_no_mass(seed):
    # the Schur reduction of a pure rho not inside supp sigma is exactly 0;
    # roundoff left in it reads as d_max(neg_power 0.5) of -2e-8 and -9e-9
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    sigma = (Q * 10.0 ** rng.uniform(-4, 0, k)) @ Q.conj().T
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    pair = analyze(rho, sigma)
    assert not pair.dominated
    np.testing.assert_array_equal(pair.rho_tilde, np.zeros((n, n)))
    assert pair.escaped == np.trace(pair.rho).real
    assert d_max(rho, sigma, HALF) == 0.0


def test_small_kept_mass_is_read():
    # rho_tilde = diag(5e-11, 0) exactly: kept mass below MASS_TOL * tr rho
    # is real, and -sqrt reads it as -7.1e-6
    rho, sigma = np.diag([5e-11, 1 - 5e-11]), np.diag([1.0, 0.0])
    assert d_max(rho, sigma, HALF) == pytest.approx(-math.sqrt(5e-11), abs=1e-12)
    assert np.trace(analyze(rho, sigma).rho_tilde).real == pytest.approx(5e-11, rel=1e-12)


def leaking_rank_two_pair(seed):
    """rho = q |b><b| + (1 - q) |a><a| with b in supp sigma and a leaking out
    of it by 1e-3, sigma of rank k < n.  The Schur reduction is q |b><b|, so
    d_max(neg_power 0.5) = -sqrt(q / <b|sigma^+|b>); returns it and q."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 5))
    k = int(rng.integers(2, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = rng.uniform(0.1, 1.0, k)
    sigma = (Q[:, :k] * s) @ Q[:, :k].conj().T
    b = Q[:, :k] @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    a = Q @ np.concatenate((rng.standard_normal(k) + 1j * rng.standard_normal(k),
                            1e-3 * (rng.standard_normal(n - k)
                                    + 1j * rng.standard_normal(n - k))))
    b, a = b / np.linalg.norm(b), a / np.linalg.norm(a)
    q = rng.uniform(0.2, 0.8)
    rho = q * np.outer(b, b.conj()) + (1 - q) * np.outer(a, a.conj())
    b_sigma_b = float((np.abs(Q[:, :k].conj().T @ b) ** 2 / s).sum())
    return rho, sigma, -math.sqrt(q / b_sigma_b), q


@pytest.mark.parametrize("seed", [1, 5, 25])   # (n, k) = (3, 2), (4, 3), (4, 2)
def test_roundoff_of_rho_stays_out_of_a_kept_part(seed):
    # rho's roundoff eigenvalue, scaled by 1 / |leak|^2, once read as a
    # second eigenvalue of d: d_max off by 9e-7 ... 4e-5
    rho, sigma, expected, q = leaking_rank_two_pair(seed)
    pair = analyze(rho, sigma)
    assert not pair.dominated
    assert np.trace(pair.rho_tilde).real == pytest.approx(q, abs=1e-9)
    assert pair.d_max(HALF) == pytest.approx(expected, abs=1e-9)


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
        assert rt.q[-1] == 0.0
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
        W = pair.factor                                   # sigma^{1/2} V
        assert np.abs(W @ W.conj().T - pair.sigma).max() <= 1e-14
        starts = linalg.cluster_starts(pair.evals)   # every cluster is an atom
        sizes = np.diff(starts, append=pair.evals.size)
        assert max(sizes) == {"wishart-128": 1, "degenerate": 8, "kernel": 5}[case]
        atoms, p, q = [], [], []
        for a, k in zip(starts, sizes):
            Wg = W[:, a:a + k]
            qg = float(np.trace(Wg @ Wg.conj().T).real)
            atoms.append(Wg @ Wg.conj().T / qg)
            # the cluster's rho_tilde-mass, sum_i d_i |W e_i|^2
            p.append(float(np.trace((Wg * pair.evals[a:a + k]) @ Wg.conj().T).real))
            q.append(qg)
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
        pair = analyze(rho, sigma)
        rt = pair.reverse_test()
        want = len(rt)
        # every cluster of d is an atom, and none is so light that a floor
        # on q could drop it: q(x) >= the least kept eigenvalue of sigma
        assert want == linalg.cluster_starts(pair.evals).size + bool(pair.escaped)
        tr_sigma = float(np.trace(sigma).real)
        assert np.all(rt.q[rt.q > 0] > linalg.RANK_CUTOFF * tr_sigma)
        for name, M in [("rho", rho), ("sigma", sigma)]:
            save_matrix(str(tmp_path / f"{name}.json"), M)

        # the CLI counts the reverse test's factor groups; the dense atoms
        # X_x X_x^H are built only when ReverseTest.outputs is read
        def refuse(self):
            raise AssertionError("qfdiv compute built the atoms")
        monkeypatch.setattr(ReverseTest, "outputs", property(refuse))
        assert main(["compute", "--rho", str(tmp_path / "rho.json"), "--sigma",
                     str(tmp_path / "sigma.json"), "--f", "square"]) == 0
        assert json.loads(capsys.readouterr().out)["atoms"] == want


def homogeneity_pairs():
    """Seeded pairs at dims 2-4, 16 and 64: dominated with full and
    deficient rank, rho inside a deficient supp sigma, and mass escaping
    supp sigma."""
    for seed, dim in [(s, 2 + s % 3) for s in range(12)] + [(12, 16), (13, 64)]:
        rng = np.random.default_rng(seed)
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

    def test_homogeneous_across_scales(self, decompositions):
        infinite = 0
        for rho, sigma in homogeneity_pairs():
            decompositions.clear()
            base = analyze(rho, sigma)
            # the same route at every scale: the Cholesky proof's shift
            # scales with tr rho
            route = [name for name, _ in decompositions]
            # eigensolver roundoff grows with the condition number of sigma
            # on its support; a scale-dependent decision errs by far more
            s = np.linalg.eigvalsh(base.sigma)
            s = s[linalg.support_mask(s)]
            cond = max(1.0, s.max() / s.min() / 100)
            for c in self.SCALES:
                decompositions.clear()
                scaled = analyze(c * rho, c * sigma)
                assert [name for name, _ in decompositions] == route, c
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
        assert minimal_reverse_test(rho, sigma).q[-1] == 0.0

    def test_not_psd_at_small_scale(self):
        rho = 1e-12 * np.diag([1.0, -0.5])
        with pytest.raises(errors.NotPSD):
            d_max(rho, 1e-12 * np.diag([0.5, 0.5]), XLOGX)


class TestFactoredReverseTest:
    """The reverse test holds each atom as its factor X_x, X_x X_x^H."""

    @staticmethod
    def undominated_pairs():
        rng = np.random.default_rng(21)
        for dim in (2, 3, 4, 6, 8):
            yield _undominated_pair(rng, dim)
            yield random_state(rng, dim), random_state(rng, dim, rank=dim // 2)

    def test_escaped_atom_is_the_normalised_rest(self):
        for rho, sigma in self.undominated_pairs():
            pair = analyze(rho, sigma)
            assert pair.escaped > 0
            Y = pair.excess
            rest = pair.rho - pair.rho_tilde
            assert np.abs(Y @ Y.conj().T - rest).max() <= 1e-12
            rt = pair.reverse_test()
            assert rt.q[-1] == 0.0
            assert np.abs(rt.outputs[-1] - rest / pair.escaped).max() <= 1e-12

    def test_atoms_are_psd_unit_trace_by_their_factors(self):
        for rho, sigma in self.undominated_pairs():
            rt = minimal_reverse_test(rho, sigma)
            groups = rt.groups()
            assert len(groups) == len(rt) == len(rt.outputs)
            for X, out in zip(groups, rt.outputs):
                gram = np.linalg.eigvalsh(X.conj().T @ X)
                assert gram.min() >= 0.0
                assert gram.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.abs(X @ X.conj().T - out).max() == 0.0

    def test_outputs_are_fresh_on_each_read(self):
        rt = minimal_reverse_test(PROJ0, PROJP)
        first = rt.outputs
        first[0][...] = 0.0
        assert np.trace(rt.outputs[0]).real == pytest.approx(1.0, abs=1e-12)

    def test_dim_64_test_holds_its_factors_only(self):
        import tracemalloc
        rng = np.random.default_rng(64)
        pair = analyze(wishart(rng, 64), wishart(rng, 64))
        tracemalloc.start()
        try:
            rt = pair.reverse_test()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rt) == 64
        # the 64 dense atoms alone take 64 * 64 * 64 * 16 bytes = 4 MB
        assert peak < 1_000_000

    def test_dim_64_atoms_are_formed_one_at_a_time(self):
        import tracemalloc
        rng = np.random.default_rng(64)
        rt = analyze(wishart(rng, 64), wishart(rng, 64)).reverse_test()
        count = 0
        tracemalloc.start()
        try:
            for atom in rt.outputs:
                count += 1
                del atom
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 64
        # one atom takes 64 * 64 * 16 bytes = 64 KB (a peak of 76 KB here);
        # read as one tuple the 64 atoms peaked at 4.2 MB
        assert peak < 3 * 64 * 64 * 16

    @staticmethod
    def readable_tests():
        """A minimal reverse test with an escaped atom, and a test a caller
        builds with a two-column group."""
        rho, sigma = _undominated_pair(np.random.default_rng(34), 4)
        rng = np.random.default_rng(35)
        F = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        built = ReverseTest(F, [1, 2, 1], [0.2, 0.3, 0.5], [0.5, 0.5, 0.0])
        return {"analysis": analyze(rho, sigma).reverse_test(), "caller": built}

    @pytest.mark.parametrize("which", ["analysis", "caller"])
    def test_outputs_is_a_sequence_over_the_groups(self, which):
        rt = self.readable_tests()[which]
        atoms, groups = rt.outputs, rt.groups()
        m = len(groups)
        assert len(atoms) == len(rt) == m >= 3
        want = [(X @ X.conj().T).tobytes() for X in groups]
        assert [A.tobytes() for A in atoms] == want       # in the groups' order
        for x in range(m):
            for index in (x, np.int64(x), x - m):
                assert atoms[index].tobytes() == want[x]
        for index in (m, -m - 1, np.int64(m)):
            with pytest.raises(IndexError):
                atoms[index]
        for part, xs in ((atoms[1:], range(1, m)), (atoms[::-1], range(m)[::-1]),
                         (atoms[m:], ())):
            assert type(part) is tuple
            assert [A.tobytes() for A in part] == [want[x] for x in xs]
        # each read forms a new, writable atom: writing one changes no other
        first, again = atoms[0], atoms[0]
        assert first.flags.writeable and not np.shares_memory(first, again)
        assert not np.shares_memory(first, rt.factors)
        first[...] = 0.0
        assert atoms[0].tobytes() == again.tobytes() == want[0]
        assert [A.tobytes() for A in atoms] == want


def ill_conditioned_pair(seed):
    """The pair of the ill-conditioned ensemble (suites._ill_conditioned_pair)
    at a seed: n in 2..8, rho inside supp sigma on odd seeds."""
    rng = np.random.default_rng(10000 + seed)
    n = int(rng.integers(2, 9))
    return _ill_conditioned_pair(rng, n, inside=bool(seed % 2))


def ill_conditioned_at(seed, n, inside):
    """The ill-conditioned ensemble's pair at dim n and a seed."""
    return _ill_conditioned_pair(np.random.default_rng(seed), n, inside)


class TestIllConditionedSigma:
    """sigma with a spectrum spanning 1e-12..1: the kernel of d is decided by
    rho's mass and the Schur reduction divides by nothing."""

    @pytest.mark.parametrize("make", [
        *(pytest.param(functools.partial(ill_conditioned_pair, seed), id=str(seed))
          for seed in (216, 350, 546, 666, 1003, 377, 521, 871)),
        # at dim 16, sigma's Cholesky route runs on the draws whose bound
        # B = tr sigma |L^{-1}|_F^2 is below linalg.COND_BOUND (2091 at
        # 8.9e6, 827 at 5.1e6); on a leaking draw above it (1472 at 8.3e8)
        # that route would rebuild the pair only to about 1e-9.  The dim-8
        # draws (B of 9.6e6 at 615, 9.4e6 at 1862, 7.8e7 at 1584 and 1.4e8
        # at 132) run the eigen route, below linalg.CHOLESKY_MIN_DIM
        *(pytest.param(functools.partial(ill_conditioned_at, seed, n, inside),
                       id=f"{n}-{'inside' if inside else 'leak'}-{seed}")
          for n, inside, seeds in ((8, False, (615, 1584, 132)),
                                   (8, True, (615, 1862)),
                                   (16, False, (2091, 1472)),
                                   (16, True, (2091, 827)))
          for seed in seeds)])
    def test_reverse_test_rebuilds_pair(self, make):
        rho, sigma = make()
        rho_hat, sigma_hat = minimal_reverse_test(rho, sigma).reconstruct()
        assert np.abs(rho_hat - rho).max() <= 1e-9
        assert np.abs(sigma_hat - sigma).max() <= 1e-9

    def test_kernel_snapped_above_a_kept_eigenvalue(self):
        # d has eigenvalues 1e-3, 5e-3, 1.67 with rho-shares 4e-4, 5e-14, ~1:
        # only the middle one is zeroed, and it must not join the 1e-3 atom
        sigma = np.diag([0.4, 1e-11, 0.6])
        rho = np.diag([4e-4, 5e-14, 1 - 4e-4 - 5e-14])
        rt = minimal_reverse_test(rho, sigma)
        rho_hat, sigma_hat = rt.reconstruct()
        assert np.abs(rho_hat - rho).max() <= 1e-9
        assert np.abs(sigma_hat - sigma).max() <= 1e-9
        for f in GENS:
            assert reverse_test_value(rt, f) == pytest.approx(
                d_max(rho, sigma, f), rel=1e-12)

    def test_neg_power_matches_40_digit_value(self):
        # sigma has full rank here, so the value is -tr sigma (sigma^{-1/2}
        # rho sigma^{-1/2})^{1/2}, summed in 40-digit arithmetic
        import mpmath
        mp = mpmath.mp
        rho, sigma = ill_conditioned_pair(216)
        s = np.linalg.eigvalsh(sigma)
        with mp.workdps(40):
            S, R = mp.matrix(sigma.tolist()), mp.matrix(rho.tolist())
            lam, V = mp.eighe(S)
            inv_sqrt = V * mp.diag([1 / mp.sqrt(x) for x in lam]) * V.H
            M = inv_sqrt * R * inv_sqrt
            mu, W = mp.eighe((M + M.H) / 2)
            root = W * mp.diag([mp.sqrt(max(mp.re(x), 0)) for x in mu]) * W.H
            ref = float(-mp.re(sum((S * root)[i, i] for i in range(S.rows))))
        got = d_max(rho, sigma, HALF)
        assert abs(got - ref) <= 1e-16 * s.max() / s.min() * max(1.0, abs(ref))


def eigh_route(rho, sigma):
    """(rho_tilde, escaped, d_max under each of GENS, the leak's rank) of an
    undominated pair with rho's factor from its eigensolve and the leak split
    by one eigensolve of leak^H leak: the route that the SVD of the leak and
    the Cholesky factor of a full-rank rho replaced, kept as a reference."""
    rho, r_evals, r_vecs = linalg.psd_spectrum(rho)
    sigma, s_evals, s_vecs = linalg.psd_spectrum(sigma)
    n = rho.shape[0]
    k = n - np.count_nonzero(linalg.support_mask(s_evals))
    first = n - np.count_nonzero(linalg.support_mask(r_evals, linalg.ROUNDOFF_CUTOFF))
    R = (s_vecs.conj().T @ r_vecs)[:, first:] * np.sqrt(r_evals[first:])
    w, U = np.linalg.eigh(R[:k].conj().T @ R[:k])
    rest = w.size - np.count_nonzero(linalg.support_mask(w))
    basis, s = s_vecs[:, k:], s_evals[k:]
    T = basis @ R[k:] @ U[:, :rest]
    tilde = T @ T.conj().T
    tr_rho = rho.trace().real
    missing = tr_rho - tilde.trace().real
    escaped = 0.0 if linalg.negligible_mass(missing, tr_rho) else missing
    d = (basis.conj().T @ tilde @ basis) / np.sqrt(np.outer(s, s))
    evals, coords = np.linalg.eigh((d + d.conj().T) / 2)
    weights = s @ np.abs(coords) ** 2
    evals = linalg.snap_kernel(evals, evals * weights, tr_rho, n)
    values = [float(weights @ f.eval(evals))
              + (escaped * recession_value(f) if escaped else 0.0) for f in GENS]
    return tilde, escaped, values, w.size - rest


def wishart_against_rank_120():
    """A floored Wishart rho of full rank against a Wishart sigma of rank
    120, at dim 128."""
    rng = np.random.default_rng(128)
    return 0.9 * wishart(rng, 128) + 0.1 * np.eye(128) / 128, wishart(rng, 128, 120)


def pure_against_pure():
    """k > r: a rank-1 rho leaking out of a rank-1 sigma in dim 4."""
    rng = np.random.default_rng(4)
    return random_state(rng, 4, rank=1), random_state(rng, 4, rank=1)


def low_rank_leak():
    """sigma of rank 3 and rho of rank 4 in dim 6, three of rho's factor
    columns inside supp sigma: the leak has rank 1 < min(k, r) = 3."""
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    sigma = (Q[:, :3] * np.array([0.2, 0.3, 0.5])) @ Q[:, :3].conj().T
    G = np.hstack((Q[:, :3] @ (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))),
                   rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real, sigma


SCHUR_CASES = [wishart_against_rank_120, pure_against_pure, low_rank_leak] + [
    functools.partial(ill_conditioned_pair, seed) for seed in (10, 108, 150, 200)] + [
    functools.partial(ill_conditioned_at, seed, n, False) for seed, n in ((2, 8), (3, 16))]
SCHUR_IDS = ["wishart-128", "pure-pure", "low-rank-leak", "ill-10", "ill-108",
             "ill-150", "ill-200", "ill-8-leak", "ill-16-leak"]
# rho = h X h inside supp sigma (h = sigma^{1/2}) still leaks, at roundoff,
# out of the eigenvalues of sigma that the rank cutoff drops.  Its Schur
# reduction is ill-posed: the eigh route's value differs from analyze's by
# 1.6e-9 and 7.9e-6 relative under neg_power:0.5 (cond(sigma) 1.5e11 and
# 8.7e11), so these count decompositions only.
ROUNDOFF_LEAKS = [functools.partial(ill_conditioned_at, seed, n, True)
                  for seed, n in ((2, 8), (3, 16))]
ROUNDOFF_LEAK_IDS = ["ill-8-inside", "ill-16-inside"]


def leak_shape(rho, sigma):
    """(k, r): the rank of sigma's kernel, and the columns of rho's factor."""
    k = sigma.shape[0] - np.count_nonzero(linalg.support_mask(np.linalg.eigvalsh(sigma)))
    r = np.count_nonzero(linalg.support_mask(np.linalg.eigvalsh(rho),
                                             linalg.ROUNDOFF_CUTOFF))
    return k, r


class TestSchurSplit:
    """The Schur branch splits rho's factor by one SVD of the k x r leak,
    unless rho's conditioned factor whitens sigma (one eigh, no SVD)."""

    @pytest.mark.parametrize("make, case",
                             zip(SCHUR_CASES + ROUNDOFF_LEAKS,
                                 SCHUR_IDS + ROUNDOFF_LEAK_IDS),
                             ids=SCHUR_IDS + ROUNDOFF_LEAK_IDS)
    def test_one_svd_of_the_leak(self, decompositions, inverse_calls, make, case):
        rho, sigma = make()
        n, (k, r) = rho.shape[0], leak_shape(rho, sigma)
        chol, eigh = ("cholesky", (n, n)), ("eigh", (n, n))
        # the eigen route: one eigh each of sigma and rho, then the split,
        # with no Cholesky after eigh(sigma)
        eigen = [eigh, eigh, ("svd", (k, r)), ("eigh", (n - k, n - k))]
        # from CHOLESKY_MIN_DIM up, sigma's Cholesky fails (on its kernel,
        # or on the bound) first
        expected = {
            # rho's conditioned factor whitens sigma: one eigh, no SVD
            "wishart-128": [chol, chol, *inverse_calls(n), eigh, ("qr", (n, k))],
            # the whitening's proof fails (mu_max / mu_min above
            # COND_BOUND): the eigen route runs
            "ill-16-leak": [chol, chol, *inverse_calls(n), eigh, *eigen],
            # rho's Cholesky fails
            "ill-16-inside": [chol, chol, *eigen],
        }.get(case, eigen)   # below CHOLESKY_MIN_DIM
        decompositions.clear()
        assert not analyze(rho, sigma).dominated
        assert decompositions == expected

    @pytest.mark.parametrize("make", SCHUR_CASES, ids=SCHUR_IDS)
    def test_matches_the_eigh_route(self, decompositions, make):
        rho, sigma = make()
        n, (k, r) = rho.shape[0], leak_shape(rho, sigma)
        tilde, escaped, values, _ = eigh_route(rho, sigma)
        decompositions.clear()
        pair = analyze(rho, sigma)
        # the leak's SVD, or the whitening's QR of sigma's kernel
        assert ("svd", (k, r)) in decompositions or ("qr", (n, k)) in decompositions
        assert np.abs(pair.rho_tilde - tilde).max() <= 1e-13 * max(1.0, np.abs(tilde).max())
        assert pair.escaped == pytest.approx(escaped, rel=1e-13, abs=1e-13)
        for f, value in zip(GENS, values):
            assert pair.d_max(f) == pytest.approx(value, rel=1e-13, abs=1e-13)

    def test_full_rank_rho_gives_the_schur_complement(self, decompositions):
        # in sigma's eigenbasis, with C the block of rho on sigma's kernel,
        # rho_tilde = A - B C^{-1} B^H
        rho, sigma = wishart_against_rank_120()
        pair = analyze(rho, sigma)
        # rho's factor whitens sigma
        assert ("qr", (128, 8)) in decompositions
        _, V = np.linalg.eigh(pair.sigma)
        M = V.conj().T @ pair.rho @ V
        C, B, A = M[:8, :8], M[8:, :8], M[8:, 8:]
        schur = V[:, 8:] @ (A - B @ np.linalg.solve(C, B.conj().T)) @ V[:, 8:].conj().T
        assert np.abs(pair.rho_tilde - schur).max() <= 1e-15


def rotated(rng, spec):
    """U diag(spec) U^H for a Haar unitary U."""
    n = len(spec)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (U * spec) @ U.conj().T


def eigh_inputs(monkeypatch):
    """Records a copy of the matrix of each numpy.linalg.eigh call."""
    seen = []
    original = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        seen.append(np.array(a))
        return original(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return seen


def unwhitened(rho, sigma):
    """analyze's route without the whitening by rho's factor: the
    PairAnalysis, or the error it raises."""
    original = divergence._whitened_kernel
    divergence._whitened_kernel = lambda *args: None
    try:
        return divergence._analysis(linalg.as_matrix(rho), linalg.as_matrix(sigma))
    except errors.QfdivError as exc:
        return exc
    finally:
        divergence._whitened_kernel = original


class TestCholeskyProof:
    """From linalg.CHOLESKY_MIN_DIM up, Cholesky factors may settle the PSD
    and rank decisions of sigma and rho; each decision is still the eigen
    rule's."""

    @pytest.mark.parametrize("n", [2, 8, 12, 15, 16])
    def test_one_crossover(self, decompositions, n):
        # both Cholesky routes start at dim 16: below it no pair makes a
        # Cholesky, and from it sigma's comes first, whatever the supports
        rng = np.random.default_rng(300 + n)

        def floored(rank=None):
            return 0.9 * random_state(rng, n, rank) + 0.1 * np.eye(n) / n
        pairs = [(floored(), floored()),
                 (random_state(rng, n, n // 2), floored()),
                 (floored(), random_state(rng, n, n // 2))]
        for rho, sigma in pairs:
            decompositions.clear()
            analyze(rho, sigma)
            if n < 16:
                assert all(name != "cholesky" for name, _ in decompositions)
            else:
                assert decompositions[0] == ("cholesky", (n, n))

    @staticmethod
    def rhos(rng, n):
        """(rho, least eigenvalue, pivot floor RANK_CUTOFF dim tr rho):
        spectra of largest eigenvalue 1 whose least sits at multiples of
        psd_slack, of the support_mask cutoff and of the pivot floor, and
        rank-deficient ones."""
        rest = np.concatenate(([1.0], rng.uniform(0.1, 1.0, n - 2)))
        cutoff = linalg.RANK_CUTOFF * n
        slack = linalg.PSD_SLACK * cutoff
        floor = cutoff * rest.sum()       # up to the least eigenvalue's share
        lows = ([m * -slack for m in (2, 1.01, 0.99)]
                + [m * cutoff for m in (0.5, 1, 1.5, 2, 4)]
                + [m * floor for m in (0.5, 0.9, 1.1, 2)])
        for low in lows:
            yield rotated(rng, np.concatenate(([low], rest))), low, floor
        for kernel in (1, n // 2):
            spec = np.concatenate((np.zeros(kernel), rest[:n - kernel]))
            yield rotated(rng, spec), 0.0, floor

    @pytest.mark.parametrize("n", [16, 24, 64])
    def test_decisions_are_the_eigen_rules(self, decompositions, n):
        # on sigma's factor route rho needs only its PSD decision: rho's
        # own factor proves it, or eigvalsh decides
        rng = np.random.default_rng(n)
        sigma = random_state(rng, n)
        L = linalg.cholesky_factor(sigma)
        assert linalg.conditioned_inverse(sigma, L) is not None
        routes = set()
        for rho, low, floor in self.rhos(rng, n):
            try:       # the eigen route's check
                linalg.psd_spectrum(rho, vectors=False)
            except errors.NotPSD as exc:
                with pytest.raises(errors.NotPSD) as got:
                    analyze(rho, sigma)
                assert str(got.value) == str(exc)
                continue
            decompositions.clear()
            pair = analyze(rho, sigma)
            # sigma's factor and its inverse, then rho's Cholesky, then d'
            # alone when that proved rho PSD
            solves = [c for c in decompositions if c[0] in ("eigh", "eigvalsh")]
            proved = solves == [("eigh", (n, n))]
            assert proved or solves == [("eigvalsh", (n, n)), ("eigh", (n, n))]
            assert decompositions[0] == ("cholesky", (n, n))
            routes.add(proved)
            if low < 0:
                assert not proved, (n, low)
            elif low > 1.1 * floor:
                assert proved, (n, low)
            assert pair.dominated and pair.escaped == 0.0
            assert pair.factor.shape == (n, n)
        assert routes == {False, True}

    @staticmethod
    def sigmas(rng, n):
        """(sigma, B = tr sigma |L^{-1}|_F^2 or inf without a factor L):
        spectra of largest eigenvalue 1 whose least sits at multiples of
        psd_slack, of the support_mask cutoff, of the shift of rho's proof
        and of the bound's edge, and spectra with kernels of size 1 and
        n/2."""
        rest = np.concatenate(([1.0], rng.uniform(0.1, 1.0, n - 2)))
        cutoff = linalg.RANK_CUTOFF * n
        slack = linalg.PSD_SLACK * cutoff
        shift = 2 * cutoff * rest.sum()
        # B is about tr sigma / lambda_min once lambda_min is small
        edge = rest.sum() / (linalg.COND_BOUND - rest.sum() * np.sum(1 / rest))
        lows = ([m * -slack for m in (2, 0.99)]
                + [m * cutoff for m in (0.5, 1, 2, 4)]
                + [m * shift for m in (0.5, 1, 2)]
                + [m * edge for m in (0.5, 0.9, 0.99, 1.01, 1.1, 2, 10)])
        specs = [np.concatenate(([low], rest)) for low in lows] + [
            np.concatenate((np.zeros(kernel), rest[:n - kernel]))
            for kernel in (1, n // 2)]
        for spec in specs:
            sigma = rotated(rng, spec)
            try:
                L = np.linalg.cholesky(sigma)
            except np.linalg.LinAlgError:
                yield sigma, math.inf
                continue
            yield sigma, np.trace(sigma).real * np.linalg.norm(np.linalg.inv(L)) ** 2

    @pytest.mark.parametrize("n", [16, 24, 64])
    def test_sigma_decisions_are_the_eigen_rules(self, decompositions, monkeypatch, n):
        rng = np.random.default_rng(100 + n)
        rhos = [random_state(rng, n), random_state(rng, n, n // 2)]
        routes = set()
        seen = eigh_inputs(monkeypatch)
        for sigma, bound in self.sigmas(rng, n):
            try:       # the eigen route's check of sigma
                sym, s_evals, s_vecs = linalg.psd_spectrum(sigma)
            except errors.NotPSD as exc:
                for rho in rhos:
                    with pytest.raises(errors.NotPSD) as got:
                        analyze(rho, sigma)
                    assert str(got.value) == str(exc)
                continue
            k = n - np.count_nonzero(linalg.support_mask(s_evals))
            for rho in rhos:
                decompositions.clear()
                seen.clear()
                pair = analyze(rho, sigma)
                # neither sigma's eigh nor the whitening's QR of its kernel
                factored = not (any(np.array_equal(a, sym) for a in seen)
                                or ("qr", (n, k)) in decompositions)
                routes.add(factored)
                if bound > linalg.COND_BOUND:
                    assert not factored, (n, bound)
                elif bound < 0.99 * linalg.COND_BOUND:
                    assert factored, (n, bound)
                if factored:
                    assert k == 0
                assert pair.factor.shape[1] == n - k
                if not k:
                    assert pair.dominated and pair.escaped == 0.0
                    continue
                _, r_evals, r_vecs = linalg.psd_spectrum(rho)
                off = np.abs((s_vecs.conj().T @ r_vecs)[:k, linalg.support_mask(r_evals)])
                assert pair.dominated == (off.max(initial=0.0) <= linalg.DOMINATION_TOL)
                if pair.dominated:
                    assert pair.escaped == 0.0
                    continue
                _, escaped, _, live = eigh_route(rho, sigma)
                assert pair.excess.shape[1] == live
                assert pair.escaped == pytest.approx(escaped, rel=1e-12, abs=0)
        assert routes == {False, True}

    @staticmethod
    def kernel_pairs(rng, n):
        """(rho, sigma, B = tr rho |C^{-1}|_F^2 or inf without a factor C):
        sigma with a kernel of 1 or n/2 (exact, at half the support_mask
        cutoff, or below -psd_slack: not PSD), its least kept eigenvalue at
        multiples of the cutoff or in 0.1..1; rho with its least eigenvalue
        at 0.5, on both sides of the bound's edge, or 0, and one rho that
        shares sigma's eigenvectors, its least eigenvalue inside the bound
        on sigma's least kept one (so that only the kept side's proof, not
        the condition of d, tells a cut eigenvalue from a kept one)."""
        def with_bound(rho):
            try:
                C_inv = np.linalg.inv(np.linalg.cholesky(rho))
            except np.linalg.LinAlgError:
                return rho, math.inf
            return rho, np.trace(rho).real * np.linalg.norm(C_inv) ** 2

        cutoff = linalg.RANK_CUTOFF * n
        rest = np.concatenate(([1.0], rng.uniform(0.1, 1.0, n - 2)))
        edge = rest.sum() / (linalg.COND_BOUND - rest.sum() * np.sum(1 / rest))
        rhos = [with_bound(rotated(rng, np.concatenate(([low], rest))))
                for low in (0.5, 2 * edge, 0.5 * edge, 0.0)]
        for kernel in (1, n // 2):
            for least in (0.5, 2, 1e3, 1e5, None):
                kept = rest[:n - kernel].copy()
                if least is not None:
                    kept[-1] = least * cutoff
                for low in (0.0, 0.5 * cutoff, -2 * linalg.PSD_SLACK * cutoff):
                    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    U = np.linalg.qr(G)[0]
                    spec = np.concatenate((np.full(kernel, low), kept))
                    sigma = (U * spec) @ U.conj().T
                    shared = (U * np.append(rest, 2 * edge)) @ U.conj().T
                    for rho, bound in rhos + [with_bound(shared)]:
                        yield rho, sigma, bound

    @pytest.mark.parametrize("n", [16, 24, 64])
    def test_sigma_kernel_decisions_are_the_eigen_rules(self, decompositions,
                                                        monkeypatch, n):
        # whitening sigma by rho's factor decides sigma's PSD, rank and
        # leak as eigh does; whenever its proof fails, eigh of sigma runs
        # and the pair is the eigen route's, bit for bit
        rng = np.random.default_rng(200 + n)
        routes = set()
        seen = eigh_inputs(monkeypatch)
        for rho, sigma, bound in self.kernel_pairs(rng, n):
            want = unwhitened(rho, sigma)
            decompositions.clear()
            seen.clear()
            try:
                pair = analyze(rho, sigma)
            except errors.QfdivError as exc:
                assert type(exc) is type(want) and str(exc) == str(want)
                continue
            assert isinstance(want, divergence.PairAnalysis), want
            k = n - want.factor.shape[1]
            sym = linalg.as_hermitian(sigma)
            whitened = not any(np.array_equal(a, sym) for a in seen)
            routes.add(whitened)
            assert pair.factor.shape == want.factor.shape
            assert pair.dominated == want.dominated
            assert pair.excess.shape == want.excess.shape
            values = [(pair.d_max(f), want.d_max(f)) for f in GENS]
            if not whitened:
                assert pair.escaped == want.escaped
                assert all(got == value for got, value in values)
                continue
            # one eigensolve and the QR of sigma's kernel
            assert bound <= linalg.COND_BOUND
            assert [c for c in decompositions if c[0] in ("eigh", "qr", "svd")] == [
                ("eigh", (n, n)), ("qr", (n, k))]
            # the routes differ by about eps times the condition of rho (B,
            # which COND_BOUND caps) or of sigma on its support
            s = np.linalg.eigvalsh(sym)[k:]
            tol = max(1e-13, np.finfo(float).eps * max(bound, s.max() / s.min()))
            assert pair.escaped == pytest.approx(want.escaped, rel=tol, abs=0)
            for got, value in values:
                assert got == pytest.approx(value, rel=tol)
        assert routes == {False, n >= linalg.CHOLESKY_MIN_DIM}
