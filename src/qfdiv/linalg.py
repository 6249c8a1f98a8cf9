"""Dense complex Hermitian linear algebra.

Eigenvalue clustering, functional calculus, support projectors and
generalized inverses, and the package's tolerance policy: one constant and
one function for each of the PSD, Hermiticity, rank, kernel, clustering,
escaped-mass and domination decisions.  All functions are pure: inputs are
never mutated and outputs are freshly allocated.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidOperator, NotPSD

# The tolerance policy: each numerical decision of the package reads one of
# these constants, through the one function named in its comment.

# Rank (support_mask): eigenvalues <= dim * this * lambda_max are eigh roundoff.
RANK_CUTOFF = 1e-12
# PSD check (psd_slack): a valid kernel dips to -PSD_SLACK rank cutoffs.
PSD_SLACK = 100
# Hermiticity (as_hermitian): relative asymmetry that products like K A K† leave.
HERMITIAN_TOL = 1e-12
# Kernel (snap_kernel): within dim * this * radius of 0 is 0, so f(0) = 0 applies.
KERNEL_FLOOR = 100 * np.finfo(float).eps
# Clusters (cluster_starts): neighbours within this relative gap share a projector.
CLUSTER_GAP = 1e-8
# Escaped mass (negligible_mass): up to this share of tr rho is Schur roundoff.
MASS_TOL = 1e-10
# Domination (projector_dominates): entrywise |P_A - P_B P_A|, projectors are O(1).
DOMINATION_TOL = 1e-8
# Atoms (divergence.PairAnalysis.reverse_test): q(x) <= this * tr sigma is dust.
ATOM_FLOOR = 1e-14
# Trace preservation (channels.kraus_channel): entrywise roundoff of sum K†K - 1.
TP_TOL = 1e-10


def as_matrix(A) -> np.ndarray:
    """A as a complex array; InvalidOperator unless it is a non-empty square matrix."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise InvalidOperator(f"expected a non-empty square matrix, got shape {A.shape}")
    return A


def as_hermitian(A) -> np.ndarray:
    """Check A finite and Hermitian (see HERMITIAN_TOL); return (A + A†)/2."""
    A = as_matrix(A)
    scale = float(np.abs(A).max())
    if not np.isfinite(scale):
        raise InvalidOperator("matrix has a non-finite entry")
    if float(np.abs(A - A.conj().T).max()) > HERMITIAN_TOL * scale:
        raise InvalidOperator("matrix is not Hermitian within tolerance")
    return (A + A.conj().T) / 2


def psd_spectrum(A, vectors: bool = True):
    """Check A Hermitian and PSD from one eigensolve.

    Returns (A symmetrized, ascending eigenvalues, eigenvectors or None).
    Eigenvalues down to -psd_slack(eigenvalues) are accepted.
    """
    A = as_hermitian(A)
    if vectors:
        evals, vecs = np.linalg.eigh(A)
    else:
        evals, vecs = np.linalg.eigvalsh(A), None
    tol = psd_slack(evals)
    if evals[0] < -tol:
        raise NotPSD(f"minimum eigenvalue {evals[0]:.3e} below -{tol:.3e}")
    return A, evals, vecs


def psd_slack(evals: np.ndarray) -> float:
    """How far below 0 the eigenvalues of a PSD operator may reach:
    PSD_SLACK * RANK_CUTOFF * dim times the spectral radius."""
    return RANK_CUTOFF * evals.size * float(np.abs(evals).max()) * PSD_SLACK


def support_mask(evals: np.ndarray) -> np.ndarray:
    """Eigenvalues of a PSD operator that count as its support.

    Those above RANK_CUTOFF * dim times the largest; none when the largest
    is not positive.  Every rank decision of the package is made here.
    """
    lam_max = float(evals.max())
    if lam_max <= 0.0:
        return np.zeros(evals.shape, dtype=bool)
    return evals > RANK_CUTOFF * evals.size * lam_max


def negligible_mass(mass: float, total: float) -> bool:
    """Whether mass is at most MASS_TOL * total: escaped mass, or a vanishing rho_tilde."""
    return mass <= MASS_TOL * total


def projector(V: np.ndarray) -> np.ndarray:
    """The orthogonal projector V V† onto orthonormal columns V, symmetrized."""
    P = V @ V.conj().T
    return (P + P.conj().T) / 2


def snap_kernel(evals: np.ndarray, dim: int) -> np.ndarray:
    """Eigenvalues within KERNEL_FLOOR * dim * spectral radius of 0, set to 0."""
    radius = float(np.abs(evals).max())
    return np.where(np.abs(evals) > KERNEL_FLOOR * dim * radius, evals, 0.0)


def cluster_starts(evals: np.ndarray) -> np.ndarray:
    """Start index of each run of ascending (kernel-snapped) eigenvalues
    sharing a cluster; the first is 0.

    Neighbours merge when their gap is at most CLUSTER_GAP times the larger
    of the two magnitudes.  The gap is local and relative, so one large
    eigenvalue cannot pull distinct small ones together, and the exact zeros
    left by snap_kernel form one cluster.
    """
    bound = CLUSTER_GAP * np.maximum(np.abs(evals[1:]), np.abs(evals[:-1]))
    return np.flatnonzero(np.concatenate(([True], np.diff(evals) > bound)))


def cluster_groups(evals: np.ndarray) -> list[np.ndarray]:
    """Index runs of the clusters of cluster_starts."""
    return np.split(np.arange(evals.size), cluster_starts(evals)[1:])


def support_projector(A) -> np.ndarray:
    """Orthogonal projector onto the range (see support_mask) of a PSD operator."""
    A, evals, vecs = psd_spectrum(A)
    return projector(vecs[:, support_mask(evals)])


def projector_dominates(pb: np.ndarray, pa: np.ndarray) -> bool:
    """True iff the range of projector pa lies in that of pb, entrywise
    within DOMINATION_TOL."""
    return float(np.abs(pa - pb @ pa).max()) <= DOMINATION_TOL


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
