"""Tests for Kraus channels, Lambda_sigma, the V-operator, and equality."""

import math

import numpy as np
import pytest

from qfdiv import errors
from qfdiv.channels import (KrausChannel, depolarizing_channel, dpi_check,
                            embedding_channel, equality_check, kraus_channel,
                            lambda_sigma, random_channel, random_state,
                            unitary_channel, v_operator)
from qfdiv.divergence import analyze
from qfdiv.generators import builtin
from qfdiv.linalg import matrix_sqrt, support_projector

XLOGX = builtin("xlogx")
SQUARE = builtin("square")
HALF = builtin("neg_power", 0.5)
GENS = [XLOGX, SQUARE, HALF, builtin("power", 1.5)]


def haar_unitary(rng, dim):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d)).conj()


def derivative(rho, sigma):
    """d = sigma^{-1/2} rho sigma^{-1/2} of a dominated pair."""
    pair = analyze(rho, sigma)
    assert pair.dominated
    return pair.d


def calculus(A, h):
    """Reference functional calculus h(A) = V h(w) V^H, from np.linalg.eigh."""
    w, V = np.linalg.eigh(A)
    return (V * h(w)) @ V.conj().T


def compose(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """second after first, as one Kraus family."""
    ops = [K2 @ K1 for K1 in first.kraus for K2 in second.kraus]
    return kraus_channel(ops)


def rand_channel(rng, din, dout=None):
    """Random channel with an environment large enough for an isometry."""
    dout = dout or din
    env_min = -(-din // dout)
    env = int(rng.integers(env_min, env_min + 3))
    return random_channel(din, dout, env, rng)


class TestKrausBasics:
    def test_trace_preservation_enforced(self):
        with pytest.raises(errors.InvalidOperator):
            kraus_channel([0.5 * np.eye(2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_kraus_rejected(self, bad):
        with pytest.raises(errors.InvalidOperator):
            kraus_channel([[[bad, 0.0], [0.0, 1.0]]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        A = random_state(2, 2, rng)
        np.testing.assert_allclose(unitary_channel(np.eye(2)).apply(A), A)

    def test_unitary_action(self):
        rng = np.random.default_rng(1)
        U = haar_unitary(rng, 3)
        A = random_state(3, 3, rng)
        np.testing.assert_allclose(unitary_channel(U).apply(A), U @ A @ U.conj().T)

    def test_fully_depolarizing_direct_sum_oracle(self):
        rng = np.random.default_rng(2)
        dim = 3
        ch = depolarizing_channel(dim, 1.0)
        rho = random_state(dim, dim, rng)
        # direct summation over the |i><j| family
        acc = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            for j in range(dim):
                E = np.zeros((dim, dim), dtype=complex)
                E[i, j] = 1.0 / math.sqrt(dim)
                acc += E @ rho @ E.conj().T
        np.testing.assert_allclose(ch.apply(rho), acc, atol=1e-12)
        np.testing.assert_allclose(ch.apply(rho), np.eye(dim) / dim, atol=1e-12)

    def test_trace_and_adjoint_unitality(self):
        rng = np.random.default_rng(3)
        for i in range(20):
            din, dout = 3, int(rng.integers(2, 5))
            ch = rand_channel(rng, din, dout)
            A = random_state(din, din, rng)
            assert np.trace(ch.apply(A)).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(ch.apply(A)).min() > -1e-10
            np.testing.assert_allclose(ch.adjoint_apply(np.eye(dout)),
                                       np.eye(din), atol=1e-10)

    def test_dimension_mismatch(self):
        ch = embedding_channel(2, 4)
        with pytest.raises(errors.DimensionMismatch):
            ch.apply(np.eye(3))
        with pytest.raises(errors.DimensionMismatch):
            ch.adjoint_apply(np.eye(2))


class TestRandomObjects:
    def test_determinism(self):
        a = random_channel(3, 3, 2, seed=[9, 1])
        b = random_channel(3, 3, 2, seed=[9, 1])
        for K1, K2 in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(K1, K2)
        np.testing.assert_array_equal(random_state(4, 2, seed=7),
                                      random_state(4, 2, seed=7))

    def test_env_one_is_unitary(self):
        ch = random_channel(3, 3, 1, seed=5)
        assert len(ch.kraus) == 1
        U = ch.kraus[0]
        np.testing.assert_allclose(U @ U.conj().T, np.eye(3), atol=1e-12)

    def test_full_rank_state(self):
        rho = random_state(4, 4, seed=11)
        assert np.linalg.eigvalsh(rho).min() > 0

    def test_rank_validation(self):
        with pytest.raises(errors.DimensionMismatch):
            random_state(3, 4, seed=0)


class TestLambdaSigma:
    def test_unital_on_support(self):
        rng = np.random.default_rng(4)
        for rank in (3, 2):
            sigma = random_state(3, rank, rng)
            ch = random_channel(3, 3, 2, rng)
            target = support_projector(ch.apply(sigma))
            np.testing.assert_allclose(lambda_sigma(ch, sigma, np.eye(3)),
                                       target, atol=1e-9)
            np.testing.assert_allclose(
                lambda_sigma(ch, sigma, support_projector(sigma)), target,
                atol=1e-9)

    def test_intertwines_derivatives(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            sigma = random_state(dim, dim, rng)
            rho = random_state(dim, dim, rng)
            ch = rand_channel(rng, dim, int(rng.integers(2, 5)))
            lhs = lambda_sigma(ch, sigma, derivative(rho, sigma))
            rhs = derivative(ch.apply(rho), ch.apply(sigma))
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_zero_sigma(self):
        with pytest.raises(errors.ZeroSigma):
            lambda_sigma(unitary_channel(np.eye(2)), np.zeros((2, 2)), np.eye(2))


class TestSupportPropagation:
    def test_channels_preserve_domination(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            sigma = random_state(dim, dim, rng)
            pi = support_projector(random_state(dim, int(rng.integers(1, dim + 1)), rng))
            raw = pi @ random_state(dim, dim, rng) @ pi
            rho = raw / np.trace(raw).real
            sigma = 0.5 * sigma + 0.5 * rho  # ensures supp rho <= supp sigma
            ch = random_channel(dim, dim, 2, rng)
            assert analyze(rho, sigma).dominated
            assert analyze(ch.apply(rho), ch.apply(sigma)).dominated


class TestChannelJensen:
    def test_operator_inequality(self):
        rng = np.random.default_rng(7)
        for f in GENS:
            for _ in range(10):
                dim = 3
                sigma = random_state(dim, dim, rng)
                rho = random_state(dim, dim, rng)
                ch = random_channel(dim, dim, 2, rng)
                d = derivative(rho, sigma)
                s_half = matrix_sqrt(sigma)
                lhs = ch.apply(s_half @ calculus(d, f.eval) @ s_half)
                out_sigma = ch.apply(sigma)
                d_out = derivative(ch.apply(rho), out_sigma)
                o_half = matrix_sqrt(out_sigma)
                rhs = o_half @ calculus(d_out, f.eval) @ o_half
                assert np.linalg.eigvalsh(lhs - rhs).min() > -1e-8


class TestDpi:
    def test_unitary_is_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            rho = random_state(dim, dim, rng)
            sigma = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            ch = unitary_channel(haar_unitary(rng, dim))
            for f in GENS:
                res = dpi_check(rho, sigma, ch, f)
                assert res.holds
                if math.isfinite(res.value_in):
                    assert abs(res.value_in - res.value_out) <= 1e-9
                else:
                    assert math.isinf(res.value_out)

    def test_fully_depolarizing_collapses(self):
        rng = np.random.default_rng(9)
        rho = random_state(3, 3, rng)
        sigma = random_state(3, 3, rng)
        res = dpi_check(rho, sigma, depolarizing_channel(3, 1.0), XLOGX)
        assert res.value_out == pytest.approx(0.0, abs=1e-10)
        assert res.holds

    def test_equal_pair_fixed_point(self):
        rng = np.random.default_rng(10)
        sigma = random_state(3, 3, rng)
        ch = random_channel(3, 3, 2, rng)
        res = dpi_check(sigma, sigma, ch, SQUARE)
        assert res.value_in == pytest.approx(1.0, abs=1e-9)
        assert res.value_out == pytest.approx(1.0, abs=1e-9)

    def test_holds_across_random_ensembles(self):
        rng = np.random.default_rng(11)
        for i in range(120):
            dim = 2 + i % 3
            rho = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            sigma = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            ch = rand_channel(rng, dim, int(rng.integers(2, 5)))
            assert dpi_check(rho, sigma, ch, GENS[i % 4]).holds


class TestVOperator:
    def test_maps_output_root_to_input_root(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            sigma = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            ch = rand_channel(rng, dim, int(rng.integers(2, 5)))
            got = v_operator(ch, sigma, matrix_sqrt(ch.apply(sigma)))
            assert np.abs(got - matrix_sqrt(sigma)).max() < 1e-9

    def test_unitary_channel_is_isometry(self):
        rng = np.random.default_rng(13)
        U = haar_unitary(rng, 3)
        sigma = random_state(3, 3, rng)
        for _ in range(10):
            Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            out = v_operator(unitary_channel(U), sigma, Z)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(Z),
                                                        abs=1e-9)

    def test_hilbert_schmidt_contraction(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            dout = int(rng.integers(2, 5))
            sigma = random_state(dim, dim, rng)
            ch = rand_channel(rng, dim, dout)
            Z = rng.standard_normal((dout, dout)) + 1j * rng.standard_normal((dout, dout))
            out = v_operator(ch, sigma, Z)
            assert np.linalg.norm(out) <= np.linalg.norm(Z) + 1e-9

    def test_preservation_intertwining(self):
        # for a value-preserving channel, V carries the weighted functional
        # calculus of the image derivative back to that of the original:
        # V(Lambda(sigma)^{1/2} h(d')) = sigma^{1/2} h(d)
        rng = np.random.default_rng(20)
        U = haar_unitary(rng, 3)
        ch = unitary_channel(U)
        sigma = random_state(3, 3, rng)
        rho = random_state(3, 3, rng)
        d = derivative(rho, sigma)
        d_out = derivative(ch.apply(rho), ch.apply(sigma))
        out_half = matrix_sqrt(ch.apply(sigma))
        for h in (lambda y: y, lambda y: y * y / (1 + y)):
            lhs = v_operator(ch, sigma, out_half @ calculus(d_out, h))
            rhs = matrix_sqrt(sigma) @ calculus(d, h)
            assert np.abs(lhs - rhs).max() < 1e-9


class TestEqualityCheck:
    def test_unitary_full_report(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            rho = random_state(dim, dim, rng)
            sigma = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            rep = equality_check(rho, sigma, unitary_channel(haar_unitary(rng, dim)),
                                 HALF)
            assert rep.equal
            assert rep.multiplicative_domain_ok
            assert rep.reverse_test_preserved
            assert rep.p_match and rep.q_match

    def test_prepare_then_discard_ancilla_is_identity(self):
        rng = np.random.default_rng(17)
        dim, anc = 3, 2
        prepare = kraus_channel([np.kron(np.eye(dim),
                                         np.eye(anc)[:, [0]])])
        discard = kraus_channel([np.kron(np.eye(dim), np.eye(anc)[[j], :])
                                 for j in range(anc)])
        ch = compose(prepare, discard)
        rho = random_state(dim, dim, rng)
        sigma = random_state(dim, dim, rng)
        np.testing.assert_allclose(ch.apply(rho), rho, atol=1e-12)
        rep = equality_check(rho, sigma, ch, XLOGX)
        assert rep.equal and rep.reverse_test_preserved

    def test_embedding_preserves(self):
        rng = np.random.default_rng(18)
        rho = random_state(3, 3, rng)
        sigma = random_state(3, 2, rng)
        rep = equality_check(rho, sigma, embedding_channel(3, 5), HALF)
        assert rep.equal and rep.reverse_test_preserved
        assert rep.p_match and rep.q_match

    def test_depolarizing_strict_decrease(self):
        rho = np.array([[0.75, 0.15], [0.15, 0.25]], dtype=complex)
        sigma = np.array([[0.4, -0.1j], [0.1j, 0.6]], dtype=complex)
        rep = equality_check(rho, sigma, depolarizing_channel(2, 0.3), SQUARE)
        assert not rep.equal
        assert rep.value_in - rep.value_out >= 1e-3
        # square has no representing measure on (0, inf): sub-check skipped
        assert rep.multiplicative_domain_ok is None

    def test_infinite_divergence_rejected(self):
        ket0 = np.array([1, 0], dtype=complex)
        ketp = np.array([1, 1], dtype=complex) / np.sqrt(2)
        with pytest.raises(errors.InfiniteDivergence):
            equality_check(np.outer(ket0, ket0), np.outer(ketp, ketp),
                           unitary_channel(np.eye(2)), XLOGX)

    def test_commutation_corollary_for_dephasing(self):
        # whenever dephasing (the measurement in the computational basis)
        # preserves the divergence on this ensemble, the pair must commute
        rng = np.random.default_rng(19)
        seen_equal = 0
        for i in range(40):
            dim = 2 + i % 2
            ch = kraus_channel([np.diag(e) for e in np.eye(dim)])
            if i % 2 == 0:
                p = rng.random(dim) + 0.05
                q = rng.random(dim) + 0.05
                rho = np.diag(p / p.sum()).astype(complex)
                sigma = np.diag(q / q.sum()).astype(complex)
            else:
                rho = random_state(dim, dim, rng)
                sigma = random_state(dim, dim, rng)
            rep = equality_check(rho, sigma, ch, HALF)
            if rep.equal:
                seen_equal += 1
                assert np.linalg.norm(rho @ sigma - sigma @ rho) <= 1e-8
        assert seen_equal >= 10  # the diagonal half of the ensemble
