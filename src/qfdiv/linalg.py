"""Dense complex Hermitian linear algebra.

Spectral decompositions with eigenvalue clustering, functional calculus,
support projectors and generalized inverses, and the shared tolerance rules
for PSD checks, numerical rank, kernel snapping and clustering.  All functions
are pure: inputs are never mutated and outputs are freshly allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidOperator, NotPSD

# Neighbouring eigenvalues whose gap is at most this share of the larger
# magnitude of the two are merged into one projector.
DEFAULT_CLUSTER_TOL = 1e-8

# Eigenvalues within this multiple of dim times the spectral radius of 0 are
# an exact kernel (so f(0) = 0 applies); see snap_kernel.
KERNEL_FLOOR = 100 * np.finfo(float).eps


def default_rank_tol(dim: int) -> float:
    """Relative eigenvalue cutoff for numerical rank decisions."""
    return dim * 1e-12


def as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidOperator(f"expected a square matrix, got shape {A.shape}")
    return A


def as_hermitian(A, tol: float | None = None) -> np.ndarray:
    """Check Hermiticity and return the symmetrized (A + A†)/2."""
    A = as_matrix(A)
    scale = max(1.0, float(np.abs(A).max())) if A.size else 1.0
    if tol is None:
        tol = 1e-12 * scale
    if float(np.abs(A - A.conj().T).max()) > tol:
        raise InvalidOperator("matrix is not Hermitian within tolerance")
    return (A + A.conj().T) / 2


def psd_spectrum(A, vectors: bool = True, tol: float | None = None):
    """Check A Hermitian and PSD (within tol) from one eigensolve.

    Returns (A symmetrized, ascending eigenvalues, eigenvectors or None).
    The default tol is 100 * dim * 1e-12 times max(1, spectral radius).
    """
    A = as_hermitian(A)
    if vectors:
        evals, vecs = np.linalg.eigh(A)
    else:
        evals, vecs = np.linalg.eigvalsh(A), None
    scale = max(1.0, float(np.abs(evals).max())) if evals.size else 1.0
    if tol is None:
        tol = default_rank_tol(A.shape[0]) * scale * 100
    if evals.size and evals[0] < -tol:
        raise NotPSD(f"minimum eigenvalue {evals[0]:.3e} below -{tol:.3e}")
    return A, evals, vecs


def require_psd(A, tol: float | None = None) -> np.ndarray:
    """Check positive semidefiniteness (within tol) and return A symmetrized."""
    return psd_spectrum(A, vectors=False, tol=tol)[0]


def support_mask(evals: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Eigenvalues of a PSD operator that count as its support.

    Those above rank_tol (default dim * 1e-12) times the largest; none when
    the largest is not positive.
    """
    if rank_tol is None:
        rank_tol = default_rank_tol(evals.size)
    lam_max = float(evals.max()) if evals.size else 0.0
    if lam_max <= 0.0:
        return np.zeros(evals.shape, dtype=bool)
    return evals > rank_tol * lam_max


def is_psd(A, tol: float = 1e-10) -> bool:
    """True iff A is Hermitian and its spectrum is above -tol."""
    try:
        A = as_hermitian(A)
    except InvalidOperator:
        return False
    evals = np.linalg.eigvalsh(A)
    return bool(evals.size == 0 or evals[0] >= -tol)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered spectral decomposition  A = sum_x d_x P_x.

    ``eigenvalues`` holds one representative per cluster (ascending), each
    the multiplicity-weighted mean of the merged eigenvalues; ``projectors``
    are the corresponding orthogonal eigenprojectors.
    """

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]
    multiplicities: np.ndarray

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.projectors[0])
        for lam, proj in zip(self.eigenvalues, self.projectors):
            out = out + lam * proj
        return out


def projector(V: np.ndarray) -> np.ndarray:
    """The orthogonal projector V V† onto orthonormal columns V, symmetrized."""
    P = V @ V.conj().T
    return (P + P.conj().T) / 2


def snap_kernel(evals: np.ndarray, dim: int) -> np.ndarray:
    """Eigenvalues within KERNEL_FLOOR * dim * spectral radius of 0, set to 0."""
    radius = float(np.abs(evals).max()) if evals.size else 0.0
    return np.where(np.abs(evals) > KERNEL_FLOOR * dim * radius, evals, 0.0)


def cluster_groups(evals: np.ndarray,
                   cluster_tol: float = DEFAULT_CLUSTER_TOL) -> list[np.ndarray]:
    """Index runs of ascending (kernel-snapped) eigenvalues sharing a cluster.

    Neighbours merge when their gap is at most cluster_tol times the larger
    of the two magnitudes.  The gap is local and relative, so one large
    eigenvalue cannot pull distinct small ones together, and the exact zeros
    left by snap_kernel form one cluster.
    """
    if not evals.size:
        return []
    bound = cluster_tol * np.maximum(np.abs(evals[1:]), np.abs(evals[:-1]))
    cuts = np.flatnonzero(np.diff(evals) > bound) + 1
    return np.split(np.arange(evals.size), cuts)


def clustered(evals: np.ndarray, vecs: np.ndarray,
              cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralDecomposition:
    """The clustered decomposition of an eigensystem (evals, vecs)."""
    groups = cluster_groups(evals, cluster_tol)
    reps = np.array([evals[g].mean() for g in groups])
    projs = tuple(projector(vecs[:, g]) for g in groups)
    mults = np.array([len(g) for g in groups], dtype=int)
    return SpectralDecomposition(reps, projs, mults)


def herm_eig(A, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralDecomposition:
    """Eigendecomposition with near-degenerate eigenvalues merged.

    Eigenvalues at the kernel floor become exact zeros; then neighbours merge
    by the local relative gap of cluster_groups.
    """
    A = as_hermitian(A)
    evals, vecs = np.linalg.eigh(A)
    return clustered(snap_kernel(evals, A.shape[0]), vecs, cluster_tol)


def support_projector(A, rank_tol: float | None = None) -> np.ndarray:
    """Orthogonal projector onto the range of a PSD operator.

    Eigenvalues at or below rank_tol times the largest eigenvalue count as
    kernel.  Default rank_tol is dim * 1e-12.
    """
    A, evals, vecs = psd_spectrum(A)
    return projector(vecs[:, support_mask(evals, rank_tol)])


def support_dominates(B, A, rank_tol: float | None = None, tol: float = 1e-8) -> bool:
    """True iff supp A is contained in supp B (both PSD), within tolerance."""
    return projector_dominates(support_projector(B, rank_tol),
                               support_projector(A, rank_tol), tol)


def projector_dominates(pb: np.ndarray, pa: np.ndarray, tol: float = 1e-8) -> bool:
    """True iff the range of projector pa lies in that of pb, entrywise within tol."""
    return float(np.abs(pa - pb @ pa).max()) <= tol


def _spectral_map(A, fn, rank_tol: float | None = None) -> np.ndarray:
    """Apply fn to the spectrum of PSD A, with kernel cut at rank_tol."""
    A, evals, vecs = psd_spectrum(A)
    keep = support_mask(evals, rank_tol)
    vals = np.where(keep, fn(np.where(keep, evals, 1.0)), 0.0)
    out = (vecs * vals) @ vecs.conj().T
    return (out + out.conj().T) / 2


def gen_inverse_sqrt(A, rank_tol: float | None = None) -> np.ndarray:
    """A^{-1/2} on supp A, zero on the kernel (generalized inverse)."""
    return _spectral_map(A, lambda w: 1.0 / np.sqrt(w), rank_tol)


def gen_inverse(A, rank_tol: float | None = None) -> np.ndarray:
    """Generalized (Moore-Penrose) inverse of a PSD operator."""
    return _spectral_map(A, lambda w: 1.0 / w, rank_tol)


def matrix_sqrt(A, rank_tol: float | None = None) -> np.ndarray:
    """Principal square root of a PSD operator."""
    return _spectral_map(A, np.sqrt, rank_tol)


def apply_scalar_function(A, h) -> np.ndarray:
    """Spectral functional calculus h(A) = sum_x h(d_x) P_x.

    h must accept a float array; a NaN or an exception from h raises
    DomainError.
    """
    from .errors import DomainError

    A = as_hermitian(A)
    evals, vecs = np.linalg.eigh(A)
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = np.asarray(h(evals), dtype=float)
    except (ValueError, ZeroDivisionError, FloatingPointError) as exc:
        raise DomainError(f"scalar function failed on spectrum: {exc}") from exc
    if vals.shape != evals.shape:
        vals = np.broadcast_to(vals, evals.shape)
    if np.isnan(vals).any():
        bad = evals[np.isnan(vals)]
        raise DomainError(f"scalar function undefined at eigenvalue(s) {bad}")
    out = (vecs * vals) @ vecs.conj().T
    return (out + out.conj().T) / 2


def schur_tilde(rho, sigma, rank_tol: float | None = None,
                mass_tol: float = 1e-10) -> np.ndarray:
    """Largest PSD operator below rho that is supported inside supp sigma.

    Blocks are taken against pi = supp projector of sigma and the smallest
    complement projector pibar covering the rest of supp rho:
    rho_11 - rho_12 rho_22^{-1} rho_21.  If supp rho is already inside
    supp sigma, rho itself is returned.  A result whose trace is below
    mass_tol * tr(rho) is snapped to exact zero.  Read from
    divergence.analyze, which computes it once per pair.
    """
    from .divergence import analyze  # the pair analysis builds on this module
    return analyze(rho, sigma, rank_tol, mass_tol).rho_tilde


def block_positivity_check(X, C, Y, tol: float = 1e-10) -> bool:
    """True iff the block matrix [[X, C], [C†, Y]] is PSD within tol."""
    X = as_hermitian(X)
    Y = as_hermitian(Y)
    C = np.asarray(C, dtype=complex)
    if C.ndim != 2 or C.shape != (X.shape[0], Y.shape[0]):
        raise DimensionMismatch(
            f"off-diagonal block shape {C.shape} incompatible with "
            f"{X.shape[0]}x{Y.shape[0]}")
    top = np.hstack([X, C])
    bottom = np.hstack([C.conj().T, Y])
    return is_psd(np.vstack([top, bottom]), tol)


def commutator_norm(A, B) -> float:
    """Frobenius norm of [A, B]."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return float(np.linalg.norm(A @ B - B @ A))
