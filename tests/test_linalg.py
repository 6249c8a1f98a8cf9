"""Tests for the Hermitian linear algebra core."""

from types import SimpleNamespace

import numpy as np
import pytest

from qfdiv import errors
from qfdiv.divergence import analyze
from qfdiv.linalg import (as_hermitian, as_matrix, cluster_groups,
                          gen_inverse_sqrt, matrix_sqrt, projector,
                          snap_kernel, support_projector)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
KET0 = np.array([1, 0], dtype=complex)
KETP = np.array([1, 1], dtype=complex) / np.sqrt(2)
PROJ0 = np.outer(KET0, KET0.conj())
PROJP = np.outer(KETP, KETP.conj())


def eig2x2(A):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix (test oracle)."""
    a = A[0, 0].real
    d = A[1, 1].real
    b = A[0, 1]
    disc = np.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
    mid = (a + d) / 2
    return mid - disc, mid + disc


def herm_eig(A):
    """The clustered decomposition  A = sum_x d_x P_x  of a Hermitian A,
    formed as the analysis clusters d: eigh, the kernel snapped to exact
    zeros, then one projector per linalg.cluster_groups run, its eigenvalue
    the mean of the run."""
    A = as_hermitian(A)
    evals, vecs = np.linalg.eigh(A)
    evals = snap_kernel(evals, A.shape[0])
    groups = cluster_groups(evals)
    return SimpleNamespace(
        eigenvalues=np.array([evals[g].mean() for g in groups]),
        projectors=tuple(projector(vecs[:, g]) for g in groups),
        multiplicities=np.array([len(g) for g in groups]))


def reconstruct(dec):
    """sum_x d_x P_x of a clustered decomposition."""
    return sum(lam * P for lam, P in zip(dec.eigenvalues, dec.projectors))


def random_psd(rng, dim, rank=None):
    rank = rank or dim
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return G @ G.conj().T


class TestHermEig:
    """linalg.cluster_groups on the eigensystem of a Hermitian matrix."""

    def test_identity(self):
        dec = herm_eig(np.eye(2))
        assert len(dec.eigenvalues) == 1
        assert dec.eigenvalues[0] == pytest.approx(1.0)
        assert dec.multiplicities[0] == 2
        np.testing.assert_allclose(dec.projectors[0], np.eye(2), atol=1e-14)

    def test_near_degenerate_cluster(self):
        dec = herm_eig(np.diag([1.0, 1.0 + 1e-12]))
        assert len(dec.eigenvalues) == 1
        assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-11)

    def test_pauli_x_closed_form(self):
        dec = herm_eig(PAULI_X)
        lo, hi = eig2x2(PAULI_X)
        np.testing.assert_allclose(dec.eigenvalues, [lo, hi], atol=1e-14)
        np.testing.assert_allclose(dec.projectors[0], (np.eye(2) - PAULI_X) / 2,
                                   atol=1e-14)
        np.testing.assert_allclose(dec.projectors[1], (np.eye(2) + PAULI_X) / 2,
                                   atol=1e-14)

    def test_projector_algebra_and_reconstruction(self):
        rng = np.random.default_rng(11)
        for dim in range(2, 9):
            A = as_hermitian(random_psd(rng, dim) - random_psd(rng, dim))
            dec = herm_eig(A)
            total = sum(dec.projectors)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-12)
            for i, P in enumerate(dec.projectors):
                np.testing.assert_allclose(P @ P, P, atol=1e-12)
                for Q in dec.projectors[i + 1:]:
                    assert np.abs(P @ Q).max() < 1e-12
            err = np.abs(reconstruct(dec) - A).max()
            assert err <= 1e-10 * max(1.0, np.abs(A).max())

    def test_reconstruction_bulk(self):
        rng = np.random.default_rng(7)
        for k in range(1000):
            dim = 2 + k % 7
            G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            A = (G + G.conj().T) / 2
            dec = herm_eig(A)
            assert np.abs(reconstruct(dec) - A).max() <= 1e-10 * np.linalg.norm(A, 2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.InvalidOperator):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSupport:
    def test_diagonal(self):
        np.testing.assert_allclose(support_projector(np.diag([0.5, 0.0])),
                                   np.diag([1.0, 0.0]), atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_allclose(support_projector(np.zeros((3, 3))),
                                   np.zeros((3, 3)))

    def test_projector_is_own_support(self):
        np.testing.assert_allclose(support_projector(PROJP), PROJP, atol=1e-14)

    def test_support_absorbs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            A = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            pi = support_projector(A)
            np.testing.assert_allclose(pi @ pi, pi, atol=1e-11)
            np.testing.assert_allclose(pi @ A, A, atol=1e-10 * np.abs(A).max())

    def test_not_psd(self):
        with pytest.raises(errors.NotPSD):
            support_projector(np.diag([1.0, -0.2]))

    def test_validation_slack_scales_with_the_operand(self):
        # a negative eigenvalue or an asymmetry of half the scale is rejected
        # however small the scale; the roundoff of a valid kernel is not
        with pytest.raises(errors.NotPSD):
            support_projector(1e-12 * np.diag([1.0, -0.5]))
        with pytest.raises(errors.InvalidOperator):
            as_hermitian(1e-12 * np.array([[1.0, 0.5], [0.0, 1.0]]))
        np.testing.assert_array_equal(
            support_projector(1e-12 * np.diag([1.0, -1e-15])), np.diag([1.0, 0.0]))

    def test_dominates(self):
        assert analyze(np.diag([1.0, 0.0]), np.diag([1.0, 1.0])).dominated
        assert not analyze(PROJP, PROJ0).dominated
        assert analyze(PROJP, PROJP).dominated

    def test_rejects_empty_and_non_square(self):
        for shape in ((0, 0), (0,), (2, 3)):
            with pytest.raises(errors.InvalidOperator):
                as_matrix(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(errors.InvalidOperator):
            as_hermitian(np.array([[bad, 0.0], [0.0, 0.5]]))
        with pytest.raises(errors.InvalidOperator):
            support_projector(np.array([[0.5, bad], [bad, 0.5]]))


class TestFunctionalCalculus:
    def test_gen_inverse_sqrt_diagonal(self):
        np.testing.assert_allclose(gen_inverse_sqrt(np.diag([4.0, 0.0])),
                                   np.diag([0.5, 0.0]), atol=1e-14)
        np.testing.assert_allclose(gen_inverse_sqrt(np.eye(3)), np.eye(3),
                                   atol=1e-14)

    def test_gen_inverse_sqrt_rank_one(self):
        # eigenvalue 9 on the +1 eigenvector of X: closed form 1/3 there
        A = 9.0 * (np.eye(2) + PAULI_X) / 2
        expected = (1.0 / 3.0) * (np.eye(2) + PAULI_X) / 2
        np.testing.assert_allclose(gen_inverse_sqrt(A), expected, atol=1e-12)

    def test_gen_inverse_sqrt_property(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            dim = int(rng.integers(2, 9))
            A = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            S = gen_inverse_sqrt(A)
            pi = support_projector(A)
            assert np.abs(S @ A @ S - pi).max() < 1e-9

    def test_matrix_sqrt(self):
        rng = np.random.default_rng(8)
        A = random_psd(rng, 4)
        R = matrix_sqrt(A)
        np.testing.assert_allclose(R @ R, A, atol=1e-10 * np.abs(A).max())


class TestSchurTilde:
    def test_disjoint_pure_states(self):
        tilde = analyze(PROJ0, PROJP).rho_tilde
        np.testing.assert_allclose(tilde, np.zeros((2, 2)), atol=1e-12)

    def test_dominated_returns_rho(self):
        rng = np.random.default_rng(4)
        rho = random_psd(rng, 3, rank=2)
        sigma = random_psd(rng, 3)
        np.testing.assert_allclose(analyze(rho, sigma).rho_tilde, as_hermitian(rho))

    def test_diagonal_block_formula(self):
        rho = np.diag([0.3, 0.7])
        sigma = np.diag([0.9, 0.0])
        np.testing.assert_allclose(analyze(rho, sigma).rho_tilde,
                                   np.diag([0.3, 0.0]), atol=1e-12)

    def test_rho_minus_tilde_psd(self):
        rng = np.random.default_rng(12)
        for _ in range(80):
            dim = int(rng.integers(2, 7))
            rho = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            sigma = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            tilde = analyze(rho, sigma).rho_tilde
            assert np.linalg.eigvalsh(rho - tilde).min() > -1e-10 * np.abs(rho).max()
            assert analyze(tilde, sigma).dominated

    def test_maximality_against_feasible_operators(self):
        from qfdiv.oracles import shrunk_feasible_operator
        rng = np.random.default_rng(13)
        done = 0
        while done < 100:
            dim = int(rng.integers(2, 6))
            rho = random_psd(rng, dim)
            rho /= np.trace(rho).real
            sigma = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            tilde = analyze(rho, sigma).rho_tilde
            rho1 = shrunk_feasible_operator(rho, sigma, tilde, rng)
            assert np.linalg.eigvalsh(rho1 - tilde).max() <= 1e-9
            done += 1


    def test_feasible_operator_stays_below_rho_at_any_scale(self):
        # pi_sigma rho pi_sigma leaks out of supp rho here, so no multiple
        # of it fits under rho; the leak test is relative to its operand
        from qfdiv.oracles import shrunk_feasible_operator
        rng = np.random.default_rng(14)
        for c in (1.0, 1e-12):
            rho, sigma = c * PROJP, PROJ0
            for _ in range(20):
                rho1 = shrunk_feasible_operator(rho, sigma,
                                                analyze(rho, sigma).rho_tilde, rng)
                assert np.linalg.eigvalsh(rho - rho1).min() >= -1e-10 * c


class TestClusterRule:
    def test_large_eigenvalue_does_not_merge_small_ones(self):
        groups = cluster_groups(np.array([0.0, 0.0, 0.05, 0.87, 1e9]))
        assert [g.tolist() for g in groups] == [[0, 1], [2], [3], [4]]

    def test_relative_gap_merges_near_degenerate_neighbours(self):
        groups = cluster_groups(np.array([1e-6, 1e-6 * (1 + 1e-9), 2.0]))
        assert [g.tolist() for g in groups] == [[0, 1], [2]]

    def test_kernel_floor_snaps_to_zero(self):
        from qfdiv.linalg import snap_kernel
        snapped = snap_kernel(np.array([-1e-17, 1e-17, 1e-3, 1.0]), 4)
        np.testing.assert_array_equal(snapped, [0.0, 0.0, 1e-3, 1.0])

    def test_herm_eig_keeps_small_distinct_eigenvalues(self):
        dec = herm_eig(np.diag([0.05, 0.87, 1e9]))
        assert len(dec.eigenvalues) == 3

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            evals = np.sort(np.concatenate([
                np.zeros(int(rng.integers(0, 3))),
                10.0 ** rng.uniform(-12, 9, int(rng.integers(1, 8)))]))
            evals = np.repeat(evals, rng.integers(1, 3, evals.size))
            evals[1:] += evals[1:] * 1e-10 * rng.random(evals.size - 1)
            evals.sort()
            groups = [[0]]
            for i in range(1, evals.size):
                a, b = evals[i - 1], evals[i]
                if b - a <= 1e-8 * max(abs(a), abs(b)):
                    groups[-1].append(i)
                else:
                    groups.append([i])
            assert [g.tolist() for g in cluster_groups(evals)] == groups
