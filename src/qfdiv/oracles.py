"""Independent brute-force evaluators used to cross-check the main path.

Nothing here reuses the divergence engine's computation route: the
commutative oracle reads the joint spectrum from one eigensolve of a fixed
mixture of the pair, the entropy comparisons go through direct matrix
logarithms, and the alternative reverse tests through each operand's own
eigenvectors or through the spectrum of rho relative to a random mixture of
the pair.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .divergence import ReverseTest, _same_shape
from .errors import NonCommuting, NotPSD, ZeroSigma
from .generators import DivergenceGenerator, classical_f_divergence


def joint_eigenvalues(rho, sigma):
    """Simultaneously diagonalize a commuting PSD pair.

    Returns (p, q): the eigenvalues of rho and sigma in a common eigenbasis,
    read as the diagonals v^H rho v and v^H sigma v over the eigenvectors v
    of the one mixture rho / tr rho + t sigma / tr sigma, t = sqrt(2) - 1
    (a zero trace read as 1), and kernel-snapped (linalg.snap_kernel).
    Where two joint eigenpairs (p_i, q_i) != (p_j, q_j) fall on one
    eigenvalue of the mixture, its eigenvectors mix them: an off-diagonal
    entry of V^H rho V or V^H sigma V above linalg.COMM_TOL times the
    operand's Frobenius norm shows it, and sigma is diagonalized again
    inside each run of eigenvectors that such entries link.  Raises
    NonCommuting when ||[rho, sigma]||_F exceeds COMM_TOL ||rho||_F
    ||sigma||_F or when an off-diagonal entry is still above its cut after
    that, DimensionMismatch on unequal shapes.
    """
    rho = linalg.psd_spectrum(rho, vectors=False)[0]
    sigma = linalg.psd_spectrum(sigma, vectors=False)[0]
    _same_shape(rho, sigma)
    norms = float(np.linalg.norm(rho)), float(np.linalg.norm(sigma))
    if (float(np.linalg.norm(rho @ sigma - sigma @ rho))
            > linalg.COMM_TOL * norms[0] * norms[1]):
        raise NonCommuting("inputs do not commute within tolerance")
    tr_r, tr_s = (float(A.trace().real) or 1.0 for A in (rho, sigma))
    # an irrational weight, so that distinct joint eigenpairs seldom meet
    _, V = np.linalg.eigh(rho / tr_r + (math.sqrt(2.0) - 1.0) / tr_s * sigma)
    R, S, mixed = _in_basis(V, rho, sigma, norms)
    if mixed.any():
        for run in _linked_runs(mixed):
            V[:, run] = V[:, run] @ np.linalg.eigh(S[np.ix_(run, run)])[1]
        R, S, mixed = _in_basis(V, rho, sigma, norms)
        if mixed.any():
            raise NonCommuting("no joint eigenbasis within tolerance")
    p, q = R.diagonal().real, S.diagonal().real
    # snap diagonalization dust to exact zero so a vanishing entry cannot
    # masquerade as escaped mass and trigger a recession term
    return (linalg.snap_kernel(p, p, float(p.sum()), p.size),
            linalg.snap_kernel(q, q, float(q.sum()), q.size))


def _in_basis(V, rho, sigma, norms):
    """(V^H rho V, V^H sigma V, where either has an off-diagonal entry
    above linalg.COMM_TOL times its operand's norm)."""
    R, S = (V.conj().T @ A @ V for A in (rho, sigma))
    mixed = np.zeros(R.shape, dtype=bool)
    for B, norm in ((R, norms[0]), (S, norms[1])):
        off = np.abs(B)
        np.fill_diagonal(off, 0.0)
        mixed |= off > linalg.COMM_TOL * norm
    return R, S, mixed


def _linked_runs(mixed: np.ndarray) -> list[np.ndarray]:
    """The runs of consecutive indices, two or more long, that the entries
    of mixed link: i and j > i share a run with every index between."""
    runs, start, end = [], 0, 0
    for i, row in enumerate(mixed | mixed.T):
        end = max(end, i, *np.flatnonzero(row))
        if end == i:
            if i > start:
                runs.append(np.arange(start, i + 1))
            start = i + 1
    return runs


def classical_oracle(rho, sigma, f: DivergenceGenerator) -> float:
    """Brute-force divergence of a commuting pair via its joint spectrum."""
    p, q = joint_eigenvalues(rho, sigma)
    return classical_f_divergence(p, q, f)


def _sigma_map(rho: np.ndarray, sigma, fn) -> np.ndarray | None:
    """fn of sigma on its support (linalg.support_map) from the eigensolve
    that validates sigma; None, for a relative entropy of +inf, when rho's
    weight tr(P_ker rho) on ker sigma is not negligible against tr rho
    (linalg.negligible_mass)."""
    sigma, evals, vecs = linalg.psd_spectrum(sigma)
    _same_shape(rho, sigma)
    kernel = vecs[:, ~linalg.support_mask(evals)]
    if linalg.negligible_mass(np.vdot(kernel, rho @ kernel).real, np.trace(rho).real):
        return linalg.support_map(evals, vecs, fn)
    return None


def umegaki_relative_entropy(rho, sigma) -> float:
    """tr rho (log rho - log sigma) (nats); +inf off supp sigma (_sigma_map)."""
    rho, log_rho = linalg._spectral_map(rho, np.log)
    log_sigma = _sigma_map(rho, sigma, np.log)
    if log_sigma is None:
        return np.inf
    return float(np.trace(rho @ (log_rho - log_sigma)).real)


def bs_relative_entropy(rho, sigma) -> float:
    """The largest quantum relative entropy tr rho log(rho^{1/2} sigma^{-1} rho^{1/2})
    (nats); +inf off supp sigma (_sigma_map)."""
    rho, r_half = linalg._spectral_map(rho, np.sqrt)
    s_inv = _sigma_map(rho, sigma, lambda w: 1.0 / w)
    if s_inv is None:
        return np.inf
    _, log_m = linalg._spectral_map(r_half @ s_inv @ r_half, np.log)
    return float(np.trace(rho @ log_m).real)


def disjoint_reverse_test(rho, sigma) -> ReverseTest:
    """The always-valid reverse test from separate ensembles: the
    eigenvectors of each operand on its support (linalg.support_mask),
    weighted by their eigenvalues.

    rho-atoms carry q = 0 and sigma-atoms carry p = 0, so its divergence is
    tr(rho) times the recession constant whatever the atoms are; exact by
    construction.  DimensionMismatch on unequal shapes.
    """
    rho, r_evals, r_vecs = linalg.psd_spectrum(rho)
    sigma, s_evals, s_vecs = linalg.psd_spectrum(sigma)
    _same_shape(rho, sigma)
    r_keep = linalg.support_mask(r_evals)
    s_keep = linalg.support_mask(s_evals)
    w_r, w_s = r_evals[r_keep], s_evals[s_keep]
    p = np.concatenate([w_r, np.zeros(w_s.size)])
    q = np.concatenate([np.zeros(w_r.size), w_s])
    return ReverseTest(np.hstack((r_vecs[:, r_keep], s_vecs[:, s_keep])),
                       np.ones(p.size, dtype=int), p, q)


def refine_reverse_test(rt: ReverseTest, rng: np.random.Generator,
                        splits: int = 2) -> ReverseTest:
    """Split every atom into copies with independently divided p and q mass.

    Classical post-processing maps the refinement back onto rt, so it is an
    exact reverse test of the same pair; its divergence can only be larger.
    ValueError unless splits is an int >= 1.
    """
    if not linalg._is_int(splits) or splits < 1:
        raise ValueError(f"splits must be an integer >= 1, got {splits!r}")
    # each atom's factor again per copy; per atom, the shares of p then of q
    share = rng.dirichlet(np.ones(splits), size=(len(rt), 2))
    return ReverseTest(np.hstack([np.tile(X, splits) for X in rt.groups()]),
                       np.repeat(rt.sizes, splits),
                       (rt.p[:, None] * share[:, 0]).ravel(),
                       (rt.q[:, None] * share[:, 1]).ravel())


def concat_reverse_tests(first: ReverseTest, second: ReverseTest,
                         weight: float) -> ReverseTest:
    """Convex combination of two reverse tests of the same pair."""
    return ReverseTest(np.hstack((first.factors, second.factors)),
                       np.concatenate([first.sizes, second.sizes]),
                       np.concatenate([weight * first.p, (1 - weight) * second.p]),
                       np.concatenate([weight * first.q, (1 - weight) * second.q]))


def random_reverse_test(rho, sigma, rng: np.random.Generator) -> ReverseTest:
    """A random exact (generally suboptimal) reverse test of the pair.

    With t uniform in (0.1, 0.9) and tau = t rho + (1 - t) sigma, the
    eigenvectors u_j of M = tau^{-1/2} rho tau^{-1/2} on supp tau give atoms
    c_j c_j^H / w_j with c_j = tau^{1/2} u_j and w_j = |c_j|^2, weighted
    p_j = m_j w_j and q_j = n_j w_j, where n_j = <u_j|N|u_j> is read from
    N = tau^{-1/2} sigma tau^{-1/2} itself.  Since t M + (1 - t) N = 1 on
    supp tau, the atoms rebuild both operands; n_j is not formed as
    (1 - t m_j) / (1 - t), which cancels when t m_j is close to 1 (rank-1
    rho against an ill-conditioned sigma).  NotPSD when tau or one of the
    shares t m_j, (1 - t) n_j is not PSD, or when the operands do not
    vanish on ker tau; DimensionMismatch on unequal shapes; ZeroSigma when
    both are 0.
    """
    rho = linalg.as_hermitian(rho)
    sigma = linalg.as_hermitian(sigma)
    _same_shape(rho, sigma)
    t = rng.uniform(0.1, 0.9)
    _, evals, vecs = linalg.psd_spectrum(t * rho + (1.0 - t) * sigma)
    keep = linalg.support_mask(evals)
    R = vecs.conj().T @ rho @ vecs              # rho in the eigenbasis of tau
    S = vecs.conj().T @ sigma @ vecs            # and sigma
    # the shares see only supp tau, so rho's part on ker tau is checked here:
    # 0 <= t rho <= tau gives |t R_kj|^2 <= (lam_k + slack)(lam_j + slack)
    cap = np.sqrt(np.abs(evals) + linalg.psd_slack(evals))
    if (np.abs(t * R[~keep]) > np.outer(cap[~keep], cap)).any():
        raise NotPSD("rho and sigma do not vanish on the kernel of their mixture")
    if not keep.any():
        raise ZeroSigma("rho and sigma are both the zero operator")
    root = np.sqrt(evals[keep])
    scale = np.outer(root, root)
    M = R[np.ix_(keep, keep)] / scale
    m, U = np.linalg.eigh((M + M.conj().T) / 2)
    N = S[np.ix_(keep, keep)] / scale
    n = np.einsum("ij,ij->j", U.conj(), N @ U).real    # <u_j|N|u_j>
    shares = []
    for share in (t * m, (1.0 - t) * n):
        if share.min() < -linalg.psd_slack(share):
            raise NotPSD(f"share {share.min():.3e} of the mixture is negative")
        # snap dust to 0: a divergence with infinite slope at 0 amplifies it
        shares.append(np.where(linalg.support_mask(share), share, 0.0))
    C = (vecs[:, keep] * root) @ U          # columns c_j = tau^{1/2} u_j
    w = (C.real ** 2 + C.imag ** 2).sum(axis=0)
    return ReverseTest(C / np.sqrt(w), np.ones(w.size, dtype=int),   # c_j / |c_j|
                       shares[0] * w / t, shares[1] * w / (1.0 - t))


def shrunk_feasible_operator(rho, sigma, tilde, rng: np.random.Generator) -> np.ndarray:
    """A random PSD rho_1 with supp rho_1 in supp sigma and rho_1 <= rho.

    Built as a convex mix of the Schur reduction with a scaled compression
    pi_sigma rho pi_sigma, the compression shrunk until it fits under rho.
    Any such operator must sit below the Schur reduction.
    """
    rho, r_evals, r_vecs = linalg.psd_spectrum(rho)
    pi_s = linalg.support_projector(sigma)
    comp = pi_s @ rho @ pi_s
    comp = (comp + comp.conj().T) / 2
    pi_r = linalg.projector(r_vecs[:, linalg.support_mask(r_evals)])
    eye = np.eye(rho.shape[0])
    leak = (eye - pi_r) @ comp @ (eye - pi_r)
    if not linalg.negligible_mass(float(np.abs(leak).max()), float(np.abs(comp).max())):
        s_max = 0.0
    else:
        r_inv = linalg.support_map(r_evals, r_vecs, lambda w: 1.0 / np.sqrt(w))
        lam = float(np.linalg.eigvalsh(r_inv @ comp @ r_inv).max())
        s_max = 0.0 if lam <= 0 else 1.0 / lam
    t = rng.uniform(0.0, 1.0)
    s = rng.uniform(0.0, 1.0)
    rho1 = t * tilde + (1.0 - t) * (s * s_max) * comp
    return (rho1 + rho1.conj().T) / 2
