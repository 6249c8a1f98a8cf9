"""Maximal f-divergence, the commutative Radon-Nikodym derivative, and the
minimal reverse test.

For PSD rho, sigma with supp rho inside supp sigma the divergence is the
spectral value  tr sigma f(d)  with  d = sigma^{-1/2} rho sigma^{-1/2}.
Outside that regime the pair is reduced by the Schur complement of rho
against supp sigma; the mass that cannot be pushed into supp sigma is
weighted by the recession constant of f.  The minimal reverse test realizes
the same value as a classical f-divergence and reconstructs the pair.

analyze() makes one spectral analysis of a pair (PairAnalysis); d_max,
d_prime, the reverse test and rho_tilde all read from it, and a repeated
call on the same pair returns the same analysis.  d_max and d_prime also
take a stack of pairs: the same analysis body reads it at once when every
sigma has full rank, and pair by pair otherwise.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, InvalidOperator, UnsupportedGenerator,
                     ZeroSigma)
from .generators import DivergenceGenerator, _f_sum, _split, _weights


@dataclass(frozen=True, eq=False)     # holds arrays: compared by identity
class ReverseTest:
    """A finite family of unit-trace PSD atoms with weight vectors p, q,
    held as their factors.

    Represents the classical-to-quantum simulation  Gamma(p) = rho,
    Gamma(q) = sigma,  where Gamma maps the point mass at x to the atom
    X_x X_x^H.  factors is one (n, m) array whose consecutive column groups,
    sizes[x] columns each, are the X_x, each of unit Frobenius norm; so
    each atom is PSD by construction and a test costs O(n m), not O(m n^2);
    outputs forms the dense atoms only as they are read.
    PairAnalysis.reverse_test gives the minimal test's layout, and builds
    it from arrays its analysis proves valid, without the checks below.

    A test that a caller builds is checked once, then, by the rules of
    classical_f_divergence: InvalidDistribution on a non-finite entry, on
    one below -linalg.WEIGHT_SLACK max|v|, or on unequal lengths.  p and q
    are then the test's own read-only float copies (the entries below 0
    that pass clamped to 0), and the test holds their split for
    reverse_test_value.
    The layout is checked then too: DimensionMismatch unless factors is 2-D
    and sizes holds positive integers, one per weight, that sum to its
    column count.  Then InvalidOperator on a non-finite entry of factors.
    factors and sizes are then the test's own read-only copies, so neither
    the checked layout nor the checked entries can change.  A pickled or
    copied test is built, and checked, anew.
    """

    factors: np.ndarray
    sizes: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p, q = _weights(np.array(self.p, dtype=float),
                        np.array(self.q, dtype=float))
        factors, sizes = np.array(self.factors), np.array(self.sizes)
        shape = factors.shape
        if (len(shape) != 2 or sizes.shape != p.shape
                or sizes.dtype.kind not in "iu"
                or np.minimum.reduce(sizes, initial=1) < 1
                or np.add.reduce(sizes) != shape[1]):
            raise DimensionMismatch(
                f"sizes {sizes.tolist()} do not lay out {len(p)} atoms over "
                f"the columns of factors of shape {shape}")
        if not np.isfinite(factors).all():
            raise InvalidOperator("factors has a non-finite entry")
        self._hold(factors, sizes, p, q, _split(p, q))

    def _hold(self, factors, sizes, p, q, split) -> None:
        """Store checked arrays, the test's own, read-only, with split, the
        split of p and q (generators._split) that reverse_test_value reads."""
        for name, value in (("factors", factors), ("p", p), ("q", q),
                            ("sizes", sizes)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_split", split)

    def __reduce__(self):
        return type(self), (self.factors, self.sizes, self.p, self.q)

    def __len__(self) -> int:
        return self.p.size

    @property
    def starts(self) -> np.ndarray:
        """The first column of each atom's factor."""
        return np.cumsum(self.sizes) - self.sizes

    def groups(self) -> list[np.ndarray]:
        """The factor X_x of each atom, a view of factors."""
        return [self.factors[:, a:a + k] for a, k in zip(self.starts, self.sizes)]

    @property
    def outputs(self) -> Sequence[np.ndarray]:
        """The dense atoms X_x X_x^H as a read-only sequence over groups():
        each atom is formed afresh (and writable) when it is read, so a
        reader that takes them one at a time holds n^2 entries per atom, not
        n^2 for every atom at once."""
        return _Atoms(self.groups())

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """(Gamma(p), Gamma(q)): F diag(p) F^H and F diag(q) F^H, each weight
        repeated over its atom's columns of F = factors."""
        F, sizes = self.factors, self.sizes
        Fh = F.conj().T
        return ((F * np.repeat(self.p, sizes)) @ Fh,
                (F * np.repeat(self.q, sizes)) @ Fh)


class _Atoms(Sequence):
    """The dense atoms X_x X_x^H of a reverse test's factor groups X_x.

    len() is the atom count.  Indexing by an int (a numpy integer, a
    negative index) forms that atom, IndexError out of range; a slice gives
    a tuple of atoms; iterating forms them in order.  Each read is new."""

    def __init__(self, groups: list[np.ndarray]):
        self._groups = groups

    def __len__(self) -> int:
        return len(self._groups)

    def __getitem__(self, x):
        if isinstance(x, slice):
            return tuple(map(_gram, self._groups[x]))
        return _gram(self._groups[x])

    def __iter__(self):
        return map(_gram, self._groups)


def _gram(X: np.ndarray) -> np.ndarray:
    """X X^H."""
    return X @ X.conj().T


@dataclass(frozen=True, eq=False)     # holds arrays: compared by identity
class PairAnalysis:
    """The spectral analysis of one (rho, sigma) pair, made once by analyze().

    Every quantity of the pair reads from it: the divergence for any
    generator, the minimal reverse test and rho_tilde.

    Every array it holds is read-only: analyze() hands the same object to
    each caller of a repeated pair.  A pickled or copied analysis is built
    anew, so its arrays are read-only too.  It holds no basis of supp sigma
    and no sigma^{-1/2}, which the values and the reverse test never need,
    and no reader makes an eigensolve.

    rho, sigma     the validated, symmetrized inputs
    tilde          a factor T of the Schur reduction of rho into supp
                   sigma, rho_tilde = T T^H, or None when rho_tilde is rho
                   itself (supp rho inside supp sigma); C V_+ when rho =
                   C C^H whitens sigma (analyze), V_+ the eigenvectors of
                   C^{-1} sigma C^{-H} off its kernel
    excess         a factor Y of the rest, rho - rho_tilde = Y Y^H up to
                   roundoff (no columns when supp rho lies inside supp
                   sigma); C V_0 for the kernel V_0 of C^{-1} sigma C^{-H}
                   when rho's factor whitens sigma
    dominated      whether supp rho lies inside supp sigma, read off excess:
                   the Schur reduction gives it at least one column
    escaped        tr(rho - rho_tilde), or 0 when that is negligible
                   against tr rho (linalg.negligible_mass)
    evals          the eigenvalues of d = sigma^{-1/2} rho_tilde sigma^{-1/2}
                   on supp sigma, 0 where their share of tr rho, evals *
                   weights, is negligible (linalg.snap_kernel), ascending
                   after that snap
    factor         X = sigma^{1/2} U for those eigenvectors U of d, one
                   column each: X X^H = sigma, and the minimal reverse
                   test's atoms are its clusters of columns
    weights        the sigma-weights <u|sigma|u> of those eigenvectors, the
                   squared column norms of factor
    """

    rho: np.ndarray
    sigma: np.ndarray
    tilde: np.ndarray | None
    excess: np.ndarray
    escaped: float
    evals: np.ndarray
    factor: np.ndarray
    weights: np.ndarray

    dominated = property(lambda self: self.excess.shape[-1] == 0)

    def __post_init__(self):
        for value in (self.rho, self.sigma, self.tilde, self.excess,
                      self.evals, self.factor, self.weights):
            if value is not None:
                value.setflags(write=False)

    def __reduce__(self):
        return type(self), tuple(vars(self).values())

    @property
    def rho_tilde(self) -> np.ndarray:
        """The Schur reduction of rho into supp sigma: rho itself when supp
        rho lies inside supp sigma, else T T^H built afresh on each read."""
        T = self.tilde
        return self.rho if T is None else _gram(T)

    def d_prime(self, f: DivergenceGenerator) -> float:
        """weights . f(evals) + escaped * recession(f); see d_prime()."""
        return float(_f_sum(f, self.evals, self.weights, self.escaped))

    def d_max(self, f: DivergenceGenerator) -> float:
        """The maximal f-divergence of the pair; see d_max()."""
        _require_operator_convex(f)
        return self.d_prime(f)

    def reverse_test(self) -> ReverseTest:
        """The minimal reverse test, which attains d_max; its length is the
        atom count.  One atom per cluster of d (linalg.cluster_starts), in
        ascending order of d_x: q(x) and p(x) sum the cluster's weights and
        evals * weights, and its factor is sigma^{1/2} V_x / sqrt(q(x)) for
        its eigenvectors V_x.  No floor on q drops a cluster: q(x) is at
        least sigma's least eigenvalue on its support.  When mass escapes
        supp sigma, one last atom with q = 0 carries it, with factor
        Y / |Y|_F for rho - rho_tilde = Y Y^H (excess).  It forms no dense
        atom and no product: the factors are the columns of X = factor,
        scaled.

        The test is built from these arrays without ReverseTest's checks,
        which they meet by construction: p and q are sums of non-negative
        weights, q > 0 but on the escaped atom, the layout is the clusters',
        and the factors are finite and new.  The test gets the split this
        proves, (p / q over the clusters, their q, escaped): no q is searched.
        """
        starts = linalg.cluster_starts(self.evals)
        sizes = np.concatenate((starts[1:], [self.evals.size])) - starts
        q = np.add.reduceat(self.weights, starts)
        p = np.add.reduceat(self.evals * self.weights, starts)
        split = p / q, q, self.escaped
        X = self.factor * (1.0 / np.sqrt(q)).repeat(sizes)
        if self.escaped:
            Y = self.excess
            X = np.concatenate((X, Y / np.linalg.norm(Y)), axis=1)
            p = np.concatenate((p, [self.escaped]))
            q = np.concatenate((q, [0.0]))
            sizes = np.concatenate((sizes, [Y.shape[1]]))
        test = object.__new__(ReverseTest)
        test._hold(X, sizes, p, q, split)
        return test


def _require_operator_convex(f: DivergenceGenerator) -> None:
    if not f.operator_convex:
        raise UnsupportedGenerator(
            f"d_max requires an operator convex generator, {f.name!r} is "
            "not flagged as one")


def _adjoint(A: np.ndarray) -> np.ndarray:
    return A.conj().swapaxes(-1, -2)


def _analysis(rho: np.ndarray, sigma: np.ndarray) -> PairAnalysis | None:
    """The analysis body of analyze() over one pair read by linalg.as_matrix,
    the spectrum of d ascending; it neither reads nor replaces the kept pair.
    It checks sigma, then rho, Hermitian, then takes one of three routes
    (see analyze).

    It broadcasts over a stack (..., n, n) whose sigmas all have full rank,
    each array one entry per pair: with no kernel, every pair is dominated
    and keeps its mass.  A stack where some sigma has a kernel gives None,
    and d_prime reads it pair by pair.
    """
    if rho.shape != sigma.shape:
        raise DimensionMismatch("rho and sigma must have equal dimensions")
    sigma = linalg.as_hermitian(sigma)
    rho = linalg.as_hermitian(rho)
    L = linalg.cholesky_factor(sigma)
    if L is not None:
        L_inv = linalg.conditioned_inverse(sigma, L)
        if L_inv is not None:
            return _sigma_factor_route(rho, sigma, L, L_inv)
    elif sigma.ndim == 2:
        # sigma may have a kernel: one pair whitens it by rho's factor
        C = linalg.cholesky_factor(rho)
        C_inv = None if C is None else linalg.conditioned_inverse(rho, C)
        if C_inv is not None:
            pair = _whitened_kernel(rho, sigma, C, C_inv)
            if pair is not None:
                return pair
    return _eigen_route(rho, sigma)


def _sigma_factor_route(rho, sigma, L, L_inv) -> PairAnalysis:
    """The analysis of sigma = L L^H of full rank, from one eigensolve of
    d' = L^{-1} rho L^{-H} = W^H d W for the unitary W = sigma^{-1/2} L:
    d's spectrum, and X = L U' = sigma^{1/2} W U'.  Every pair is dominated,
    so rho needs only its PSD check: its own factor proves it, or eigvalsh
    decides."""
    if linalg.cholesky_factor(rho) is None:
        linalg.psd_eigh(rho, vectors=False)
    evals, U = np.linalg.eigh(_whitened(L_inv, rho))
    X = L @ U
    excess = np.zeros(rho.shape[:-1] + (0,), dtype=complex)
    return _spectrum(rho, sigma, None, excess, 0.0, evals, X,
                     _squared_norms(X), rho.trace(axis1=-2, axis2=-1).real)


def _eigen_route(rho, sigma) -> PairAnalysis | None:
    """The analysis from one eigensolve each of sigma, rho and d; None for a
    stack where some sigma has a kernel.

    sigma's gives its support and sigma^{+-1/2}, and rho's its PSD check
    and, unless sigma has full rank, Z = s_vecs^H r_vecs.  supp rho lies in
    supp sigma unless an entry of Z on sigma's kernel and rho's support
    exceeds linalg.DOMINATION_TOL; only then rho's factor is
    R = Z r_evals^{1/2}, without the columns of eigenvalues that are eigh
    roundoff (linalg.ROUNDOFF_CUTOFF).  R, split into rows R_1 on supp
    sigma and the k x r leak off it, and one SVD of the leak give the Schur
    reduction rho_tilde = T T^H, T = basis M with M = R_1 (1 - P), P onto
    the row space of the leak: PSD, with no division.  d is formed on
    supp sigma as W^H rho W for W = basis s^{-1/2}, or as M' M'^H for
    M' = s^{-1/2} M, unsymmetrized (eigh reads one triangle), and its
    eigensolve gives its spectrum and, with X = basis s^{1/2} U, the
    sigma-weights.
    """
    n = sigma.shape[-1]
    s_evals, s_vecs = linalg.psd_eigh(sigma)
    # eigh sorts ascending, so sigma's kernel is the leading k columns of
    # its eigenbasis (in a stack, k counts every kernel)
    keep = linalg.support_mask(s_evals)
    k = keep.size - np.count_nonzero(keep)
    if k and sigma.ndim > 2:
        return None
    # with sigma of full rank every support is dominated, so rho needs no
    # eigenvectors
    r_evals, r_vecs = linalg.psd_eigh(rho, vectors=k > 0)
    if k == n:
        raise ZeroSigma("sigma is the zero operator")
    tr_rho = rho.trace(axis1=-2, axis2=-1).real
    tilde, escaped = None, 0.0
    excess = np.zeros(rho.shape[:-1] + (0,), dtype=complex)
    R = None      # rho's factor in sigma's eigenbasis, when rho leaks
    if k:
        Z = _adjoint(s_vecs) @ r_vecs
        # rows of sigma's kernel, columns of rho's support
        off = np.abs(Z[:k, linalg.support_mask(r_evals)])
        if off.max(initial=0.0) > linalg.DOMINATION_TOL:
            cols = linalg.support_mask(r_evals, linalg.ROUNDOFF_CUTOFF)
            first = n - np.count_nonzero(cols)
            R = Z[:, first:] * np.sqrt(r_evals[first:])
    basis, s = s_vecs[..., k:], s_evals[..., k:]
    root = np.sqrt(s)
    if R is None:
        W = basis / root[..., None, :]
        d = _adjoint(W) @ rho @ W
    else:
        M, tilde, excess, escaped = _schur_reduction(R, k, s_vecs, tr_rho)
        M /= root[:, None]
        d = M @ _adjoint(M)
    evals, coords = np.linalg.eigh(d)
    weights = (s[..., None, :] @ np.abs(coords) ** 2)[..., 0, :]
    X = (basis * root[..., None, :]) @ coords
    return _spectrum(rho, sigma, tilde, excess, escaped, evals, X, weights,
                     tr_rho)


def _schur_reduction(R: np.ndarray, k: int, s_vecs: np.ndarray, tr_rho):
    """(a factor M of rho_tilde in sigma's eigenbasis on supp sigma, a
    factor T = basis M of rho_tilde, a factor Y of rho - rho_tilde, escaped)
    from rho's factor R in sigma's eigenbasis s_vecs, whose leading k rows
    are the leak.  M is new, so the caller may scale it in place."""
    _, sv, Vh = np.linalg.svd(R[:k], full_matrices=True)
    # the leading live rows of Vh span the leak's row space (P), the rest
    # its kernel (1 - P); the rank is read from the squared singular
    # values, padded to the r eigenvalues of leak^H leak
    w = np.zeros(Vh.shape[0])
    w[:sv.size] = sv ** 2
    live = np.count_nonzero(linalg.support_mask(w))
    # rho_tilde = T T^H with T = basis M, so it is M M^H on the basis
    M = R[k:] @ _adjoint(Vh[live:])
    T = s_vecs[:, k:] @ M
    # the leak's row space carries the rest: rho - rho_tilde = Y Y^H
    Y = s_vecs @ (R @ _adjoint(Vh[:live]))
    missing = float(tr_rho - np.vdot(T, T).real)
    escaped = 0.0 if linalg.negligible_mass(missing, tr_rho) else missing
    return M, T, Y, escaped


def _whitened_kernel(rho, sigma, C, C_inv) -> PairAnalysis | None:
    """The PairAnalysis of one pair whose sigma may have a kernel, from one
    eigensolve of e = C^{-1} sigma C^{-H} for rho = C C^H and C_inv = C^{-1}
    from linalg.conditioned_inverse; None unless e proves sigma's rank
    and PSD decisions the eigen rules' (psd_eigh, support_mask) and d's
    spectrum accurate.

    e is congruent to sigma, and its nonzero eigenvalues mu are 1/lambda
    for the eigenvalues lambda of d: for the eigenvectors V_+ of mu,
    X = C V_+ diag(mu^{1/2}) is sigma^{1/2} times d's eigenvectors, and
    T = C V_+ and Y = C V_0, V_0 e's null space, split rho into
    rho_tilde = T T^H and its rest Y Y^H.  The proof:
    - kept side: mu > 2 cutoff tr sigma |C^{-1}|_F^2, cutoff the
      support_mask one, RANK_CUTOFF dim.  By Ostrowski's theorem each
      such mu gives sigma an eigenvalue of at least mu lambda_min(rho) >=
      mu / |C^{-1}|_F^2 > 2 cutoff tr sigma >= 2 cutoff lambda_max(sigma);
      the margin of 2 covers the error of forming e, of its eigensolve and
      of sigma's own, each about dim eps tr sigma |C^{-1}|_F^2.
    - cut side: the other k mu, with 0 < k < dim.  For Q = orth(C^{-H}
      V_0), 2 |sigma Q|_F plus eigh's own error, dim eps tr sigma, is
      below cutoff max diag(sigma) <= cutoff lambda_max(sigma).  By
      interlacing, sigma then has k eigenvalues within |sigma Q|_2 of 0:
      eigh would cut them and find sigma PSD.  A non-PSD sigma fails it.
    - accuracy: mu_max <= COND_BOUND min mu.  The route's error is then
      about eps (B + mu_max / min mu) for rho's bound B <= COND_BOUND, the
      budget of sigma's own Cholesky route.
    Before the cut side, one correction of V_0 by the generalized inverse
    G = C^{-H} V_+ diag(1/mu) V_+^H C^{-1} of sigma (sigma G sigma =
    sigma) turns V_0 away from V_+ by G's residual, and V_+ back by the
    same rotation, to first order: O(dim^2 k) work.  escaped is |Y|_F^2.
    """
    n = rho.shape[-1]
    mu, V = np.linalg.eigh(_whitened(C_inv, sigma))
    cutoff = linalg.RANK_CUTOFF * n
    tr_sigma = sigma.trace().real
    k = np.count_nonzero(mu <= 2 * cutoff * tr_sigma * np.vdot(C_inv, C_inv).real)
    if not (tr_sigma > 0 and 0 < k < n and mu[-1] <= linalg.COND_BOUND * mu[k]):
        return None
    V0, Vp, mu = V[:, :k], V[:, k:], mu[k:]
    C_inv_h = _adjoint(C_inv)
    turn = (_adjoint(Vp) @ (C_inv @ (sigma @ (C_inv_h @ V0)))) / mu[:, None]
    V0, Vp = V0 - Vp @ turn, Vp + V0 @ _adjoint(turn)
    Q = np.linalg.qr(C_inv_h @ V0)[0]
    eigh_error = n * np.finfo(float).eps * tr_sigma
    if (2 * np.linalg.norm(sigma @ Q) + eigh_error
            >= cutoff * sigma.diagonal().real.max()):
        return None
    Y = C @ V0
    missing = np.vdot(Y, Y).real
    tr_rho = rho.trace().real
    escaped = 0.0 if linalg.negligible_mass(missing, tr_rho) else missing
    # mu ascending is d's spectrum descending
    T = C @ Vp[:, ::-1]
    X = T * np.sqrt(mu[::-1])
    return _spectrum(rho, sigma, T, Y, escaped, 1.0 / mu[::-1], X,
                     _squared_norms(X), tr_rho)


def _squared_norms(X: np.ndarray) -> np.ndarray:
    """The squared column norms of X, with no temporary of X's size."""
    return (np.einsum("...ij,...ij->...j", X.real, X.real)
            + np.einsum("...ij,...ij->...j", X.imag, X.imag))


def _whitened(L_inv: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """L^{-1} rho L^{-H} for a Hermitian rho, with one n x n temporary."""
    d = L_inv @ rho
    # rho is Hermitian, so rho L^{-H} = (L^{-1} rho)^H
    return L_inv @ np.conjugate(d, out=d).swapaxes(-1, -2)


def _spectrum(rho, sigma, tilde, excess, escaped, evals, X, weights,
              tr_rho) -> PairAnalysis:
    """The PairAnalysis of d's spectrum evals, with the factor X and the
    sigma-weights of its eigenvectors: evals snapped to 0 where their share
    of tr rho is negligible (linalg.snap_kernel), then sorted ascending."""
    n = rho.shape[-1]
    evals = linalg.snap_kernel(evals, evals * weights, tr_rho[..., None], n)
    # a zeroed eigenvalue may lie above a kept one; clusters and sums need them ascending
    if np.count_nonzero(evals[..., 1:] < evals[..., :-1]):
        order = np.argsort(evals, axis=-1, kind="stable")
        evals = np.take_along_axis(evals, order, -1)
        weights = np.take_along_axis(weights, order, -1)
        X = np.take_along_axis(X, order[..., None, :], -1)
    return PairAnalysis(rho, sigma, tilde, excess, escaped, evals, X, weights)


# analyze()'s one kept entry: (the key of its last pair, that pair's
# PairAnalysis).  The key is the bytes of sigma, then of rho, both square
# complex128: exact, and a copy (a caller may change an array in place).
_last = None


def analyze(rho, sigma) -> PairAnalysis:
    """Validate a PSD pair and analyse it with one spectral pass.

    sigma, then rho, is checked Hermitian (linalg.as_hermitian) before any
    PSD decision, so a pair with two faults raises the same error at every
    dim.  Then one of three routes runs, picked by which operand has a
    conditioned Cholesky factor: one whose pivots prove it PSD
    (linalg.cholesky_factor) and whose inverse bounds its condition by
    linalg.COND_BOUND (linalg.conditioned_inverse).  cholesky_factor tries
    one only from the crossover linalg.CHOLESKY_MIN_DIM up, so below it
    the eigen route runs.
    1. sigma's factor (_sigma_factor_route): one eigensolve of
       L^{-1} rho L^{-H} for sigma = L L^H.
    2. A sigma with no factor may have a kernel, and rho's factor whitens
       it (_whitened_kernel): one eigensolve of C^{-1} sigma C^{-H} for
       rho = C C^H, when that proves the eigen rules' decisions on sigma
       and d's spectrum accurate.
    3. Otherwise the eigen route (_eigen_route): one eigensolve each of
       sigma, rho and d, and the Schur reduction when rho leaks out of
       supp sigma.

    analyze takes one pair (d_prime and d_max take stacks) and alone reads
    and writes the kept pair: a pair bit-identical to its last successful
    call (as complex matrices) gets the same read-only PairAnalysis back
    without eigensolves, and any other pair replaces it.  So one pair's
    arrays stay in memory.  A call that raises, a stack and the image in
    channels.dpi_check and channels.equality_check keep nothing.
    """
    global _last
    sigma = linalg.as_matrix(sigma)
    rho = linalg.as_matrix(rho)
    if sigma.ndim != 2 or rho.ndim != 2:
        raise InvalidOperator("analyze takes one pair of square matrices; "
                              "d_prime and d_max take stacks")
    key = sigma.tobytes(), rho.tobytes()
    last = _last
    if last is not None and last[0] == key:
        return last[1]
    pair = _analysis(rho, sigma)
    _last = key, pair
    return pair


def d_prime(rho, sigma, f: DivergenceGenerator):
    """The divergence tr sigma f(d(rho, sigma)), extended to all PSD pairs.

    When supp rho is not inside supp sigma, the value is
    d_prime(rho_tilde, sigma) + tr(rho - rho_tilde) * recession(f)
    with rho_tilde the Schur reduction of rho; +inf exactly when the
    recession is infinite and mass is left outside supp sigma.

    One pair is read through analyze().  Stacks (..., n, n) of equal shape
    give an array of shape (...), each value equal to its pair's alone.  A
    stack whose sigmas all have full rank takes one eigensolve of each kind
    (one Cholesky of the sigma stack in its place when its bound holds for
    every sigma, one of the rho stack when it proves every rho PSD; see
    analyze); a stack where some sigma has a kernel is read pair by pair.
    A stack neither reads nor replaces the pair analyze() keeps, and
    NotPSD (or any other error) on one pair raises for the stack.
    """
    if np.ndim(sigma) == np.ndim(rho) == 2:
        return analyze(rho, sigma).d_prime(f)
    sigma = linalg.as_matrix(sigma)
    rho = linalg.as_matrix(rho)
    pairs = _analysis(rho, sigma)
    if pairs is not None:
        return _f_sum(f, pairs.evals, pairs.weights, pairs.escaped)
    # some sigma has a kernel: each pair is read alone
    values = [_analysis(rho[i], sigma[i]).d_prime(f)
              for i in np.ndindex(sigma.shape[:-2])]
    return np.reshape(values, sigma.shape[:-2])


def d_max(rho, sigma, f: DivergenceGenerator):
    """Maximal f-divergence: the infimum of D_f(p||q) over reverse tests.

    Computed in closed form (it coincides with d_prime for operator convex
    generators); refuses generators not flagged operator convex, since the
    closed form is only valid for them.  Takes stacks as d_prime does.
    """
    _require_operator_convex(f)
    return d_prime(rho, sigma, f)


def minimal_reverse_test(rho, sigma) -> ReverseTest:
    """The reverse test achieving d_max: analyze(rho, sigma).reverse_test()
    (see PairAnalysis.reverse_test).  ReverseTest.outputs is a read-only
    sequence over its factor groups that forms each dense n x n atom when it
    is read: a reader that takes them one at a time holds n^2 entries per
    atom it keeps, not n^2 for each of the test's atoms at once."""
    return analyze(rho, sigma).reverse_test()


def reverse_test_value(rt: ReverseTest, f: DivergenceGenerator) -> float:
    """The classical f-divergence D_f(p||q) of a reverse test, summed from
    the split of its weights that the test holds: equal, bit for bit, to
    classical_f_divergence(rt.p, rt.q, f)."""
    return float(_f_sum(f, *rt._split))


def perturbation_limit_probe(rho, sigma, f: DivergenceGenerator,
                             epsilons) -> list[tuple[float, float]]:
    """Evaluate d_prime(rho || sigma + eps * 1) along a descending eps grid,
    every eps in one stacked d_prime call.

    The sequence is non-decreasing as eps decreases; for finite recession it
    converges to d_max(rho||sigma), otherwise it diverges when supp rho is
    not inside supp sigma.  ValueError unless epsilons is an iterable of
    real numbers (a bool is none), every eps positive and finite, that
    strictly descends.
    """
    grid = list(epsilons) if np.iterable(epsilons) else None
    if grid is None or not all(isinstance(e, numbers.Real)
                               and not isinstance(e, bool) for e in grid):
        raise ValueError(
            f"epsilons must be an iterable of real numbers, got {epsilons!r}")
    eps = [float(e) for e in grid]
    if not all(0 < e < math.inf for e in eps):
        raise ValueError("epsilons must be positive and finite")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly descending")
    pair = analyze(rho, sigma)
    if not eps:
        return []
    sigmas = pair.sigma + np.multiply.outer(eps, np.eye(pair.sigma.shape[0]))
    values = d_prime(np.broadcast_to(pair.rho, sigmas.shape), sigmas, f)
    return list(zip(eps, values.tolist()))
