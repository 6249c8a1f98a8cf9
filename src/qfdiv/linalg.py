"""Dense complex Hermitian linear algebra.

Eigenvalue clustering, functional calculus, support projectors and
generalized inverses, and the package's tolerance policy: one constant for
each numerical decision, and one function for each of the PSD, Hermiticity,
rank, kernel, clustering and mass decisions (divergence.analyze makes the
domination one).  The PSD and rank decisions are read off an eigensolve
(psd_eigh, support_mask); from CHOLESKY_MIN_DIM up, one Cholesky rule
settles them more cheaply when it holds: a factor A = L L^H whose pivots
pass proves A PSD (cholesky_factor), and an inverse L^{-1} that bounds
cond(A) by COND_BOUND proves A of full rank too (conditioned_inverse).
All functions are pure: inputs are never mutated and outputs are freshly
allocated.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidOperator, NotPSD

# The tolerance policy: each numerical decision of the package reads one of
# these constants, through the one function named in its comment.

# Rank (support_mask): eigenvalues <= dim * this * lambda_max are eigh roundoff.
RANK_CUTOFF = 1e-12
# Schur factor (support_mask): rho's eigenvalues <= dim * this * lambda_max are eigh error.
ROUNDOFF_CUTOFF = 4 * np.finfo(float).eps
# PSD check (psd_slack): a valid kernel dips to -PSD_SLACK rank cutoffs.
PSD_SLACK = 100
# Hermiticity (as_hermitian): relative asymmetry that products like K A K† leave.
HERMITIAN_TOL = 1e-12
# Kernel (snap_kernel): shares up to dim * this * total are 0, so f(0) = 0 applies.
KERNEL_FLOOR = 100 * np.finfo(float).eps
# Clusters (cluster_starts): neighbours within this relative gap share a projector.
CLUSTER_GAP = 1e-8
# Escaped mass (negligible_mass): up to this share of tr rho is Schur roundoff.
MASS_TOL = 1e-10
# Domination (divergence.analyze): |<s|r>| for s in ker sigma, r in supp rho.
DOMINATION_TOL = 1e-8
# Trace preservation (channels.KrausChannel): entrywise roundoff of sum K†K - 1.
TP_TOL = 1e-10
# Direction support (rld._check_in_support): max|X - pi X pi| up to this * max|X|.
SUPPORT_TOL = 1e-10
# Classical weights (generators._as_weights): entries down to -this * max|v| are 0.
WEIGHT_SLACK = 1e-12
# Cholesky routes (cholesky_factor): the least dim where one Cholesky beats
# an eigensolve.
CHOLESKY_MIN_DIM = 8
# Factor condition (conditioned_inverse): tr A |L^{-1}|_F^2 at most this for A = L L^H.
COND_BOUND = 1e7


def as_matrix(A) -> np.ndarray:
    """A as a complex array; InvalidOperator unless it is a non-empty square
    matrix or a stack (..., n, n) of them."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or not A.size:
        raise InvalidOperator(f"expected a non-empty square matrix, got shape {A.shape}")
    return A


def as_hermitian(A) -> np.ndarray:
    """Check A finite and Hermitian (see HERMITIAN_TOL), each matrix of a
    stack against its own scale; return (A + A†)/2."""
    A = as_matrix(A)
    scale = np.maximum.reduce(np.abs(A), axis=(-2, -1), keepdims=True)
    if np.count_nonzero(scale < np.inf) < scale.size:
        raise InvalidOperator("matrix has a non-finite entry")
    H = A.conj().swapaxes(-1, -2)
    if np.count_nonzero(np.abs(A - H) > HERMITIAN_TOL * scale):
        raise InvalidOperator("matrix is not Hermitian within tolerance")
    out = A + H
    out *= 0.5
    return out


def psd_spectrum(A, vectors: bool = True):
    """Check A (or each matrix of a stack) Hermitian (as_hermitian) and PSD
    from one eigensolve (psd_eigh).

    Returns (A symmetrized, ascending eigenvalues, eigenvectors or None).
    """
    A = as_hermitian(A)
    return (A, *psd_eigh(A, vectors))


def psd_eigh(A: np.ndarray, vectors: bool = True):
    """(ascending eigenvalues, eigenvectors or None) of a Hermitian A (or of
    each matrix of a stack).  Eigenvalues down to -psd_slack(eigenvalues)
    are accepted; NotPSD when a matrix of a stack dips lower.
    """
    if vectors:
        evals, vecs = np.linalg.eigh(A)
    else:
        evals, vecs = np.linalg.eigvalsh(A), None
    low, tol = evals[..., :1], psd_slack(evals)
    bad = low < -tol
    if np.count_nonzero(bad):
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise NotPSD(f"minimum eigenvalue {low[at]:.3e} below -{tol[at]:.3e}")
    return evals, vecs


def cholesky_factor(A: np.ndarray):
    """The Cholesky factor L of a Hermitian A = L L^H (of every matrix of a
    stack) whose pivots L_ii^2 all exceed RANK_CUTOFF dim tr A; None when
    the Cholesky fails or a pivot does not.  Such a factor proves A PSD by
    psd_eigh's rule: L L^H is positive definite, and A up to Cholesky's
    backward error, about dim^2 eps lambda_max, far inside psd_slack.  A
    pivot is at least lambda_min, so A may have a kernel when one fails.
    conditioned_inverse then decides whether L proves A of full rank too.

    None below CHOLESKY_MIN_DIM without a Cholesky, where one costs more
    than the eigensolve it saves.  Measured with numpy 2.4.6 on one BLAS
    thread of a shared 2-core host (best of 15 interleaved runs of
    divergence.analyze's body and the reverse test): a dominated random
    complex pair whose rho was checked by one Cholesky in place of
    eigvalsh took 107 against 104 us at dim 6 and 105 against 110 us at
    dim 8, and at dim 128 that Cholesky took 0.38 ms, eigvalsh 2.0 ms.
    sigma's factor route (floored Wishart pairs, two passes) took 170
    against 170 and 291 against 285 us at dim 8, 213 against 219 and 271
    against 289 us at 12, 1.75 against 2.25 ms at 64 and 6.7 against 9.4 ms
    at 128; a sigma with a kernel pays the failed Cholesky, 380 against 368
    and 227 against 217 us at dim 8, 506 against 490 and 312 against 306 us
    at 16.  The whitening of a sigma with a kernel by rho's factor (best of
    60 interleaved runs, floored Wishart rho against a Wishart sigma with a
    kernel of 1 or dim/2) took 220-232 against 210-219 us at dim 8, 241-256
    against 238-245 us at 12, 271-298 against 286-292 us at 16, and 6.8-7.1
    against 7.9-9.4 ms at 128: so analyze whitens from dim 16.
    """
    n = A.shape[-1]
    if n < CHOLESKY_MIN_DIM:
        return None
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    tr = A.trace(axis1=-2, axis2=-1).real
    if np.count_nonzero(_least_pivots(L) > RANK_CUTOFF * n * tr) < tr.size:
        return None
    return L


def conditioned_inverse(A: np.ndarray, L: np.ndarray):
    """L^{-1} for the factor L = cholesky_factor(A) when it proves A (every
    matrix of a stack) well conditioned and of full rank by the eigen rules,
    psd_eigh and support_mask; None otherwise.

    The proof is B = tr A |L^{-1}|_F^2 <= min(COND_BOUND, 1 / (2 RANK_CUTOFF
    dim)).  |L^{-1}|_F^2 = tr (L L^H)^{-1} >= 1 / lambda_min and tr A >=
    lambda_max, so B bounds cond(A) from above, whatever the scale of A,
    and L L^H has every eigenvalue above 2 RANK_CUTOFF dim lambda_max.
    L L^H is A up to Cholesky's backward error, far below that margin, and
    an eigensolve's own error is as small: the eigen rules would find A
    PSD and of full rank.  COND_BOUND caps the cond(A) eps error that a
    route through L^{-1} adds.  The pivots L_ii^2 are at least lambda_min,
    so B >= tr A / min L_ii^2 rejects an ill-conditioned A before L^{-1} is
    formed.
    """
    bound = min(COND_BOUND, 1.0 / (2 * RANK_CUTOFF * A.shape[-1]))
    tr = A.trace(axis1=-2, axis2=-1).real
    if np.count_nonzero(tr <= bound * _least_pivots(L)) < tr.size:
        return None
    L_inv = _lower_inverse(L)
    norm = np.linalg.norm(L_inv, axis=(-2, -1))
    if np.count_nonzero(tr * norm ** 2 <= bound) < tr.size:
        return None
    return L_inv


def _least_pivots(L: np.ndarray) -> np.ndarray:
    """min L_ii^2 of a Cholesky factor (of each of a stack)."""
    return np.minimum.reduce(np.diagonal(L, axis1=-2, axis2=-1).real ** 2, axis=-1)


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """L^{-1} of a lower-triangular L (or of each of a stack) by 2 x 2 block
    recursion: [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1},
    C^{-1}]], which does not spend the work of a general inverse on the
    zero upper triangle (numpy has no triangular inverse).

    A block with a half below 2 CHOLESKY_MIN_DIM rows is inverted whole,
    where a split's numpy calls cost more than its LAPACK time saves.
    Measured on the host of cholesky_factor (best of 11 interleaved
    runs on one factor): np.linalg.inv against this took 20 against 21 us
    at dim 16, 68 against 69 us at 32 (the first split), 302 against
    173 us at 64 and 1.53 against 0.52 ms at 128.
    """
    h = L.shape[-1] // 2
    if h < 2 * CHOLESKY_MIN_DIM:
        return np.linalg.inv(L)
    A_inv = _lower_inverse(L[..., :h, :h])
    C_inv = _lower_inverse(L[..., h:, h:])
    out = np.zeros_like(L)
    out[..., :h, :h] = A_inv
    out[..., h:, h:] = C_inv
    out[..., h:, :h] = -(C_inv @ L[..., h:, :h] @ A_inv)
    return out


def psd_slack(evals: np.ndarray) -> np.ndarray:
    """How far below 0 the eigenvalues of a PSD operator may reach:
    PSD_SLACK * RANK_CUTOFF * dim times the spectral radius, one per row of
    a stack of spectra (keepdims)."""
    return ((PSD_SLACK * RANK_CUTOFF * evals.shape[-1])
            * np.maximum.reduce(np.abs(evals), axis=-1, keepdims=True))


def support_mask(evals: np.ndarray, cutoff: float = RANK_CUTOFF) -> np.ndarray:
    """Eigenvalues of a PSD operator that count as its support.

    Those above cutoff * dim times the largest, dim the length of the
    spectrum, per row of a stack of spectra; none count when the largest is
    not positive.  Every rank decision of the package is made here, at
    RANK_CUTOFF, or at ROUNDOFF_CUTOFF for the Schur factor.
    """
    lam_max = np.maximum.reduce(evals, axis=-1, keepdims=True)
    return evals > cutoff * evals.shape[-1] * lam_max


def negligible_mass(mass: float, total: float) -> bool:
    """Whether mass is at most MASS_TOL * total: escaped mass that is roundoff."""
    return mass <= MASS_TOL * total


def projector(V: np.ndarray) -> np.ndarray:
    """The orthogonal projector V V† onto orthonormal columns V, symmetrized."""
    P = V @ V.conj().T
    return (P + P.conj().T) / 2


def snap_kernel(evals: np.ndarray, shares: np.ndarray, total,
                dim: int) -> np.ndarray:
    """evals, 0 where shares <= KERNEL_FLOOR * dim * total (negative ones
    too); total is one per row of a stack of spectra, with keepdims."""
    return np.where(shares > KERNEL_FLOOR * dim * total, evals, 0.0)


def cluster_starts(evals: np.ndarray) -> np.ndarray:
    """Start index of each run of ascending (kernel-snapped) eigenvalues
    sharing a cluster; the first is 0.

    Neighbours merge when their gap is at most CLUSTER_GAP times the larger
    of the two magnitudes.  The gap is local and relative, so one large
    eigenvalue cannot pull distinct small ones together, and the exact zeros
    left by snap_kernel form one cluster.
    """
    bound = CLUSTER_GAP * np.maximum(np.abs(evals[1:]), np.abs(evals[:-1]))
    return np.flatnonzero(np.concatenate(([True], evals[1:] - evals[:-1] > bound)))


def support_projector(A) -> np.ndarray:
    """Orthogonal projector onto the range (see support_mask) of a PSD operator."""
    A, evals, vecs = psd_spectrum(A)
    return projector(vecs[:, support_mask(evals)])


def support_map(evals: np.ndarray, vecs: np.ndarray, fn) -> np.ndarray:
    """fn of a PSD operator from its eigensystem: fn on the support, 0 on the kernel."""
    keep = support_mask(evals)
    vals = np.where(keep, fn(np.where(keep, evals, 1.0)), 0.0)
    out = (vecs * vals) @ vecs.conj().T
    return (out + out.conj().T) / 2


def _spectral_map(A, fn) -> tuple[np.ndarray, np.ndarray]:
    """A validated as PSD (see psd_spectrum) and fn applied on its support
    (see support_map), from one eigensolve."""
    A, evals, vecs = psd_spectrum(A)
    return A, support_map(evals, vecs, fn)


def gen_inverse_sqrt(A) -> np.ndarray:
    """A^{-1/2} on supp A, zero on the kernel (generalized inverse)."""
    return _spectral_map(A, lambda w: 1.0 / np.sqrt(w))[1]


def matrix_sqrt(A) -> np.ndarray:
    """Principal square root of a PSD operator."""
    return _spectral_map(A, np.sqrt)[1]
