"""Maximal f-divergence, the commutative Radon-Nikodym derivative, and the
minimal reverse test.

For PSD rho, sigma with supp rho inside supp sigma the divergence is the
spectral value  tr sigma f(d)  with  d = sigma^{-1/2} rho sigma^{-1/2}.
Outside that regime the pair is reduced by the Schur complement of rho
against supp sigma; the mass that cannot be pushed into supp sigma is
weighted by the recession constant of f.  The minimal reverse test realizes
the same value as a classical f-divergence and reconstructs the pair.

analyze() makes one spectral analysis of a pair (PairAnalysis); d_max,
d_prime, the reverse test, rho_tilde and d all read from it, and a repeated
call on the same pair returns the same analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, DomainError, UnsupportedGenerator,
                     ZeroSigma)
from .generators import DivergenceGenerator, classical_f_divergence, recession_value


@dataclass(frozen=True)
class ReverseTest:
    """A finite family of unit-trace PSD outputs with weight vectors p, q.

    Represents the classical-to-quantum simulation  Gamma(p) = rho,
    Gamma(q) = sigma,  where Gamma maps the point mass at x to outputs[x].
    """

    outputs: tuple[np.ndarray, ...]
    p: np.ndarray
    q: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.outputs)

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """(Gamma(p), Gamma(q)) assembled from the atoms."""
        dim = self.outputs[0].shape[0]
        rho = np.zeros((dim, dim), dtype=complex)
        sigma = np.zeros((dim, dim), dtype=complex)
        for w_p, w_q, out in zip(self.p, self.q, self.outputs):
            rho += w_p * out
            sigma += w_q * out
        return rho, sigma


@dataclass(frozen=True)
class PairAnalysis:
    """The spectral analysis of one (rho, sigma) pair, made once by analyze().

    Every quantity of the pair reads from it: the divergence for any
    generator, the minimal reverse test, rho_tilde and d.

    Every array it holds is read-only: analyze() hands the same object to
    each caller of a repeated pair.

    rho, sigma     the validated, symmetrized inputs
    rho_tilde      the Schur reduction of rho into supp sigma (rho itself
                   when supp rho lies inside supp sigma)
    dominated      whether supp rho lies inside supp sigma
    escaped        tr(rho - rho_tilde), or 0 when that is negligible
                   against tr rho (linalg.negligible_mass)
    basis          orthonormal columns spanning supp sigma
    sigma_evals    the eigenvalues of sigma on those columns
    evals          the eigenvalues of d = sigma^{-1/2} rho_tilde sigma^{-1/2}
                   on supp sigma, 0 where their share of tr rho, evals *
                   weights, is negligible (linalg.snap_kernel), ascending
                   after that snap
    coords         their eigenvectors, in the coordinates of basis
    weights        the sigma-weights <v|sigma|v> of those eigenvectors
    """

    rho: np.ndarray
    sigma: np.ndarray
    rho_tilde: np.ndarray
    dominated: bool
    escaped: float
    basis: np.ndarray
    sigma_evals: np.ndarray
    evals: np.ndarray
    coords: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvectors of d as columns of the full space."""
        return self.basis @ self.coords

    @property
    def d(self) -> np.ndarray:
        """The commutative Radon-Nikodym derivative d as a matrix."""
        V = self.eigenvectors
        out = (V * self.evals) @ V.conj().T
        return (out + out.conj().T) / 2

    def sigma_power(self, t: float) -> np.ndarray:
        """sigma^t on supp sigma, zero on its kernel (any real t)."""
        out = (self.basis * self.sigma_evals ** t) @ self.basis.conj().T
        return (out + out.conj().T) / 2

    def d_prime(self, f: DivergenceGenerator) -> float:
        """weights . f(evals) + escaped * recession(f); see d_prime()."""
        vals = np.asarray(f.eval(self.evals), dtype=float)
        if np.isnan(vals).any():
            raise DomainError(f"generator {f.name!r} undefined on the spectrum of d")
        base = float(np.dot(self.weights, vals))
        if not self.escaped:
            return base
        rec = recession_value(f)
        if rec == math.inf:
            return math.inf
        return base + self.escaped * rec

    def d_max(self, f: DivergenceGenerator) -> float:
        """The maximal f-divergence of the pair; see d_max()."""
        if not f.operator_convex:
            raise UnsupportedGenerator(
                f"d_max requires an operator convex generator, {f.name!r} is "
                "not flagged as one")
        return self.d_prime(f)

    def _atom_weights(self):
        """The weights pass of the reverse test: W = sigma^{1/2} V, the start
        and size of each cluster of d (linalg.cluster_starts), its d_x and
        q(x) = tr W_x W_x^H, and the mask of clusters kept as atoms (q(x)
        above linalg.ATOM_FLOOR * tr sigma)."""
        W = (self.basis * np.sqrt(self.sigma_evals)) @ self.coords
        starts = linalg.cluster_starts(self.evals)
        sizes = np.diff(starts, append=self.evals.size)
        q = np.add.reduceat((W.real ** 2 + W.imag ** 2).sum(axis=0), starts)
        d_x = np.add.reduceat(self.evals, starts) / sizes
        keep = q > linalg.ATOM_FLOOR * float(np.trace(self.sigma).real)
        return W, starts, sizes, d_x, q, keep

    def atom_count(self) -> int:
        """len(self.reverse_test()), without building the atoms."""
        return int(self._atom_weights()[-1].sum()) + bool(self.escaped)

    def reverse_test(self) -> ReverseTest:
        """The minimal reverse test; see minimal_reverse_test()."""
        W, starts, sizes, d_x, q, keep = self._atom_weights()
        scale = np.zeros(q.size)
        scale[keep] = 1.0 / np.sqrt(q[keep])
        X = W * np.repeat(scale, sizes)        # W_x / sqrt(q(x)), 0 when dropped
        Xh = X.conj().T
        outputs = [X[:, a:a + k] @ Xh[a:a + k]
                   for a, k in zip(starts[keep], sizes[keep])]
        p, q = d_x[keep] * q[keep], q[keep]
        labels = [str(i) for i in range(len(outputs))]
        if self.escaped:
            rest = (self.rho - self.rho_tilde) / self.escaped
            outputs.append((rest + rest.conj().T) / 2)
            p, q = np.append(p, self.escaped), np.append(q, 0.0)
            labels.append("x0")
        return ReverseTest(tuple(outputs), p, q, tuple(labels))


# analyze()'s one kept entry: (the key of its last pair, that pair's PairAnalysis).
_last = None


def _key(A: np.ndarray) -> tuple:
    """An exact key of an array: dtype, shape and bytes, which also serve as
    its copy (a caller may change the array in place afterwards)."""
    return A.dtype.str, A.shape, A.tobytes()


def analyze(rho, sigma) -> PairAnalysis:
    """Validate a PSD pair and analyse it with one spectral pass.

    One eigensolve of sigma gives its support and sigma^{+-1/2}; one of rho
    gives its PSD check and, unless sigma has full rank, Z = s_vecs^H r_vecs.
    supp rho lies in supp sigma unless an entry of Z on sigma's kernel and
    rho's support exceeds linalg.DOMINATION_TOL; only then the factor
    R = Z r_evals^{1/2} of rho, without the columns of eigenvalues that are
    eigh roundoff (linalg.ROUNDOFF_CUTOFF), split into rows R_1 on supp
    sigma and leak off it, and one eigensolve of leak^H leak give the Schur
    reduction rho_tilde = R_1 (1 - P) R_1^H, P onto the row space of leak:
    PSD, with no division.  One eigensolve of d, formed on supp sigma, gives
    its spectrum and the sigma-weights.

    The last successful call is kept: a pair bit-identical to it (as
    complex matrices) gets the same read-only PairAnalysis back without
    eigensolves, and any other pair replaces it.  So one pair's arrays stay
    in memory; a call that raises keeps nothing.
    """
    global _last
    sigma = linalg.as_matrix(sigma)
    rho = linalg.as_matrix(rho)
    key = _key(sigma) + _key(rho)
    last = _last
    if last is not None and last[0] == key:
        return last[1]
    sigma, s_evals, s_vecs = linalg.psd_spectrum(sigma)
    keep = linalg.support_mask(s_evals)
    # With sigma of full rank every support is dominated, so rho needs no
    # eigenvectors.
    full = bool(keep.all())
    rho, r_evals, r_vecs = linalg.psd_spectrum(rho, vectors=not full)
    if rho.shape != sigma.shape:
        raise DimensionMismatch("rho and sigma must have equal dimensions")
    if not keep.any():
        raise ZeroSigma("sigma is the zero operator")

    basis, s = s_vecs[:, keep], s_evals[keep]
    dominated, tilde = True, rho
    if not full:
        Z = s_vecs.conj().T @ r_vecs
        off = np.abs(Z[~keep][:, linalg.support_mask(r_evals)])
        if off.max(initial=0.0) > linalg.DOMINATION_TOL:
            dominated = False
            cols = linalg.support_mask(r_evals, linalg.ROUNDOFF_CUTOFF)
            R = Z[:, cols] * np.sqrt(r_evals[cols])
            leak = R[~keep]
            w, U = np.linalg.eigh(leak.conj().T @ leak)
            T = basis @ R[keep] @ U[:, ~linalg.support_mask(w)]
            tilde = T @ T.conj().T
    tr_rho = float(np.trace(rho).real)
    missing = tr_rho - float(np.trace(tilde).real)
    escaped = 0.0 if linalg.negligible_mass(missing, tr_rho) else missing

    inv_sqrt = 1.0 / np.sqrt(s)
    d = (basis.conj().T @ tilde @ basis) * np.outer(inv_sqrt, inv_sqrt)
    evals, coords = np.linalg.eigh((d + d.conj().T) / 2)
    weights = s @ np.abs(coords) ** 2
    evals = linalg.snap_kernel(evals, evals * weights, tr_rho, sigma.shape[0])
    # a zeroed eigenvalue may lie above a kept one; clusters need them ascending
    order = np.argsort(evals, kind="stable")
    pair = PairAnalysis(rho, sigma, tilde, dominated, escaped, basis, s,
                        evals[order], coords[:, order], weights[order])
    _last = key, pair
    return pair


def d_prime(rho, sigma, f: DivergenceGenerator) -> float:
    """The divergence tr sigma f(d(rho, sigma)), extended to all PSD pairs.

    When supp rho is not inside supp sigma, the value is
    d_prime(rho_tilde, sigma) + tr(rho - rho_tilde) * recession(f)
    with rho_tilde the Schur reduction of rho; +inf exactly when the
    recession is infinite and mass is left outside supp sigma.
    """
    return analyze(rho, sigma).d_prime(f)


def d_max(rho, sigma, f: DivergenceGenerator) -> float:
    """Maximal f-divergence: the infimum of D_f(p||q) over reverse tests.

    Computed in closed form (it coincides with d_prime for operator convex
    generators); refuses generators not flagged operator convex, since the
    closed form is only valid for them.
    """
    return analyze(rho, sigma).d_max(f)


def minimal_reverse_test(rho, sigma) -> ReverseTest:
    """The reverse test achieving d_max, built from the spectrum of d.

    One atom per clustered eigenvalue d_x of d(rho_tilde, sigma), with
    W_x = sigma^{1/2} V_x for the eigenvectors V_x of the cluster:
    output W_x W_x^H / q(x), q(x) = tr W_x W_x^H, p(x) = d_x q(x); atoms
    with q(x) at most linalg.ATOM_FLOOR * tr(sigma) are dropped.  When mass
    of rho escapes supp sigma (linalg.negligible_mass), one extra atom
    carries it with q = 0.
    """
    return analyze(rho, sigma).reverse_test()


def reverse_test_value(rt: ReverseTest, f: DivergenceGenerator) -> float:
    """The classical f-divergence D_f(p||q) of a reverse test."""
    return classical_f_divergence(rt.p, rt.q, f)


def perturbation_limit_probe(rho, sigma, f: DivergenceGenerator,
                             epsilons) -> list[tuple[float, float]]:
    """Evaluate d_prime(rho || sigma + eps * 1) along a descending eps grid.

    The sequence is non-decreasing as eps decreases; for finite recession it
    converges to d_max(rho||sigma), otherwise it diverges when supp rho is
    not inside supp sigma.
    """
    eps = [float(e) for e in epsilons]
    if any(e <= 0 for e in eps):
        raise ValueError("epsilons must be positive")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly descending")
    pair = analyze(rho, sigma)
    eye = np.eye(pair.sigma.shape[0])
    return [(e, d_prime(pair.rho, pair.sigma + e * eye, f)) for e in eps]
