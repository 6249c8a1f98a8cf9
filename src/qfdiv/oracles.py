"""Independent brute-force evaluators used to cross-check the main path.

Nothing here reuses the divergence engine's computation route: the
commutative oracle goes through joint diagonalization, the entropy
comparisons through direct matrix logarithms, and the alternative reverse
tests through random rank-1 resolutions of each operand or through the
spectrum of rho relative to a random mixture of the pair.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .channels import _is_int
from .divergence import ReverseTest
from .errors import DimensionMismatch, NonCommuting, NotPSD, ZeroSigma
from .generators import DivergenceGenerator, classical_f_divergence

# Frobenius norm of [rho, sigma], relative to ||rho||_F ||sigma||_F, above
# which a pair does not commute.
_COMM_TOL = 1e-10
# Columns of a Haar rank-1 resolution of A with weight at most this * tr A
# are dropped (_rank1_resolution): a random column can carry almost none.
_ATOM_FLOOR = 1e-14


def _same_shape(rho: np.ndarray, sigma: np.ndarray) -> None:
    if rho.shape != sigma.shape:
        raise DimensionMismatch("rho and sigma must have equal dimensions")


def joint_eigenvalues(rho, sigma):
    """Simultaneously diagonalize a commuting PSD pair.

    Returns (p, q): the eigenvalues of rho and sigma in a common eigenbasis.
    Raises NonCommuting when ||[rho, sigma]||_F exceeds
    _COMM_TOL * ||rho||_F ||sigma||_F, DimensionMismatch on unequal shapes.
    """
    rho = linalg.psd_spectrum(rho, vectors=False)[0]
    sigma, w, V = linalg.psd_spectrum(sigma)
    _same_shape(rho, sigma)
    scale = float(np.linalg.norm(rho)) * float(np.linalg.norm(sigma))
    if float(np.linalg.norm(rho @ sigma - sigma @ rho)) > _COMM_TOL * scale:
        raise NonCommuting("inputs do not commute within tolerance")
    n = w.size
    gap = linalg.RANK_CUTOFF * n * float(np.abs(w).max())
    p = np.empty(n)
    q = np.empty(n)
    start = 0
    for stop in range(1, n + 1):
        if stop < n and w[stop] - w[stop - 1] <= gap:
            continue
        idx = slice(start, stop)
        B = V[:, idx]
        block = B.conj().T @ rho @ B
        wr, U = np.linalg.eigh((block + block.conj().T) / 2)
        p[idx] = wr
        q[idx] = np.diag(U.conj().T @ np.diag(w[idx]) @ U).real
        start = stop
    # snap diagonalization dust to exact zero so a vanishing entry cannot
    # masquerade as escaped mass and trigger a recession term
    return (linalg.snap_kernel(p, p, float(p.sum()), n),
            linalg.snap_kernel(q, q, float(q.sum()), n))


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


def _rank1_resolution(A, root, rng):
    """A = sum_j |c_j><c_j| with c_j the columns of root U, root = A^{1/2} and
    U Haar; columns of weight at most _ATOM_FLOOR * tr A are dropped."""
    n = A.shape[0]
    floor = _ATOM_FLOOR * float(np.trace(A).real)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U, _ = np.linalg.qr(G)
    cols = root @ U
    w = (cols.real ** 2 + cols.imag ** 2).sum(axis=0)
    keep = w > floor
    return cols[:, keep] / np.sqrt(w[keep]), w[keep]   # c_j / |c_j|, |c_j|^2


def disjoint_reverse_test(rho, sigma, rng: np.random.Generator) -> ReverseTest:
    """The always-valid reverse test from separate rank-1 ensembles.

    rho-atoms carry q = 0 and sigma-atoms carry p = 0, so its divergence is
    tr(rho) times the recession constant; exact by construction.
    """
    rho, r_half = linalg._spectral_map(rho, np.sqrt)
    sigma, s_half = linalg._spectral_map(sigma, np.sqrt)
    X_r, w_r = _rank1_resolution(rho, r_half, rng)
    X_s, w_s = _rank1_resolution(sigma, s_half, rng)
    p = np.concatenate([w_r, np.zeros(w_s.size)])
    q = np.concatenate([np.zeros(w_r.size), w_s])
    return ReverseTest(np.hstack((X_r, X_s)), np.ones(p.size, dtype=int), p, q)


def refine_reverse_test(rt: ReverseTest, rng: np.random.Generator,
                        splits: int = 2) -> ReverseTest:
    """Split every atom into copies with independently divided p and q mass.

    Classical post-processing maps the refinement back onto rt, so it is an
    exact reverse test of the same pair; its divergence can only be larger.
    ValueError unless splits is an int >= 1.
    """
    if not _is_int(splits) or splits < 1:
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
