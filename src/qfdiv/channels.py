"""CPTP maps in Kraus form and the divergence-preservation machinery.

Besides the plain Kraus action this module provides the sigma-weighted
conjugated map Lambda_sigma (unital on supp sigma), the data-processing
check, the V-operator contraction, the channel equality/preservation
checker, and seeded samplers for random channels and states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .divergence import analyze, d_max
from .errors import (DimensionMismatch, InfiniteDivergence, InvalidOperator,
                     ZeroSigma)
from .generators import DivergenceGenerator


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by Kraus operators K_i (each dim_out x dim_in)."""

    kraus: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int

    def apply(self, A) -> np.ndarray:
        """Channel action sum_i K_i A K_i†."""
        A = np.asarray(A, dtype=complex)
        if A.shape != (self.dim_in, self.dim_in):
            raise DimensionMismatch(
                f"operator of shape {A.shape} fed to a channel with input "
                f"dimension {self.dim_in}")
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for K in self.kraus:
            out += K @ A @ K.conj().T
        return out

    def adjoint_apply(self, B) -> np.ndarray:
        """Adjoint (Heisenberg) action sum_i K_i† B K_i; unital."""
        B = np.asarray(B, dtype=complex)
        if B.shape != (self.dim_out, self.dim_out):
            raise DimensionMismatch(
                f"operator of shape {B.shape} fed to a channel adjoint with "
                f"output dimension {self.dim_out}")
        out = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for K in self.kraus:
            out += K.conj().T @ B @ K
        return out


def kraus_channel(operators) -> KrausChannel:
    """Validate a Kraus family (trace preservation, linalg.TP_TOL) and wrap it."""
    ops = tuple(np.asarray(K, dtype=complex) for K in operators)
    if not ops:
        raise InvalidOperator("a channel needs at least one Kraus operator")
    dim_out, dim_in = ops[0].shape
    if any(K.shape != (dim_out, dim_in) for K in ops):
        raise DimensionMismatch("Kraus operators have inconsistent shapes")
    with np.errstate(invalid="ignore"):  # inf entries: nan fails the check
        acc = sum(K.conj().T @ K for K in ops)
    if not float(np.abs(acc - np.eye(dim_in)).max()) <= linalg.TP_TOL:
        raise InvalidOperator("Kraus family is not trace preserving")
    return KrausChannel(ops, dim_in, dim_out)


def unitary_channel(U) -> KrausChannel:
    return kraus_channel([np.asarray(U, dtype=complex)])


def depolarizing_channel(dim: int, noise: float) -> KrausChannel:
    """(1 - noise) * A + noise * tr(A) 1/dim as a Kraus family."""
    if not 0.0 <= noise <= 1.0:
        raise InvalidOperator(f"noise must lie in [0, 1], got {noise}")
    ops = []
    if noise < 1.0:
        ops.append(math.sqrt(1.0 - noise) * np.eye(dim))
    if noise > 0.0:
        w = math.sqrt(noise / dim)
        for i in range(dim):
            for j in range(dim):
                E = np.zeros((dim, dim), dtype=complex)
                E[i, j] = w
                ops.append(E)
    return kraus_channel(ops)


def embedding_channel(dim_in: int, dim_out: int) -> KrausChannel:
    """Direct-sum embedding A -> [[A, 0], [0, 0]] via an isometry."""
    if dim_out < dim_in:
        raise DimensionMismatch("embedding needs dim_out >= dim_in")
    V = np.zeros((dim_out, dim_in), dtype=complex)
    V[:dim_in, :dim_in] = np.eye(dim_in)
    return kraus_channel([V])


def _rng(seed) -> np.random.Generator:
    # Philox: 64-bit counter-based, so (seed, index) keys give independent
    # reproducible streams on every platform.  An existing Generator is
    # passed through so callers can chain draws.
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(key=np.asarray(seed, dtype=np.uint64)))


def random_state(dim: int, rank: int, seed) -> np.ndarray:
    """Random density matrix of the given rank (Gaussian factor G G†/tr)."""
    if not 1 <= rank <= dim:
        raise DimensionMismatch(f"rank must lie in [1, {dim}], got {rank}")
    rng = _rng(seed)
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_channel(dim_in: int, dim_out: int, env_dim: int, seed) -> KrausChannel:
    """Haar-random channel from a Stinespring isometry into out x env.

    env_dim = 1 with dim_in = dim_out yields a Haar-random unitary channel.
    Deterministic in the seed.
    """
    if min(dim_in, dim_out, env_dim) < 1:
        raise DimensionMismatch("dimensions must be positive")
    if dim_out * env_dim < dim_in:
        raise DimensionMismatch(
            "no isometry into a space smaller than the input")
    rng = _rng(seed)
    G = (rng.standard_normal((dim_out * env_dim, dim_in))
         + 1j * rng.standard_normal((dim_out * env_dim, dim_in)))
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R).copy()
    diag = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    V = Q * diag.conj()
    V = V.reshape(dim_out, env_dim, dim_in)
    return kraus_channel([V[:, e, :] for e in range(env_dim)])


def lambda_sigma(ch: KrausChannel, sigma, Z) -> np.ndarray:
    """The sigma-weighted conjugation of the channel:

    Lambda(sigma)^{-1/2} Lambda(sigma^{1/2} Z sigma^{1/2}) Lambda(sigma)^{-1/2}.

    Unital as a map from supp sigma to supp Lambda(sigma); intertwines the
    Radon-Nikodym derivatives of a dominated pair and its image.
    """
    sigma, evals, vecs = linalg.psd_spectrum(sigma)
    if not linalg.support_mask(evals).any():
        raise ZeroSigma("sigma is the zero operator")
    Z = linalg.as_hermitian(Z)
    s_half = linalg.support_map(evals, vecs, np.sqrt)
    out_inv = linalg.gen_inverse_sqrt(ch.apply(sigma))
    return _conjugated(ch, s_half, out_inv, Z)


def _conjugated(ch: KrausChannel, s_half, out_inv, Z) -> np.ndarray:
    res = out_inv @ ch.apply(s_half @ Z @ s_half) @ out_inv
    return (res + res.conj().T) / 2


@dataclass(frozen=True)
class DpiResult:
    value_in: float
    value_out: float
    holds: bool


def dpi_check(rho, sigma, ch: KrausChannel, f: DivergenceGenerator,
              tol: float = 1e-8) -> DpiResult:
    """Data processing: d_max may only decrease along the channel."""
    before = d_max(rho, sigma, f)
    after = d_max(ch.apply(rho), ch.apply(sigma), f)
    holds = after <= before + tol
    return DpiResult(before, after, bool(holds))


def v_operator(ch: KrausChannel, sigma, Z) -> np.ndarray:
    """V(Z) = Lambda†(Z Lambda(sigma)^{-1/2}) sigma^{1/2}.

    A Hilbert-Schmidt contraction mapping the output space back to the
    input space; V(Lambda(sigma)^{1/2}) = sigma^{1/2}.
    """
    sigma, evals, vecs = linalg.psd_spectrum(sigma)
    Z = np.asarray(Z, dtype=complex)
    if Z.shape != (ch.dim_out, ch.dim_out):
        raise DimensionMismatch(
            f"Z of shape {Z.shape} incompatible with output dimension "
            f"{ch.dim_out}")
    out_inv = linalg.gen_inverse_sqrt(ch.apply(sigma))
    s_half = linalg.support_map(evals, vecs, np.sqrt)
    return ch.adjoint_apply(Z @ out_inv) @ s_half


@dataclass(frozen=True)
class EqualityReport:
    """Outcome of the divergence-preservation check for one channel."""

    value_in: float
    value_out: float
    equal: bool
    multiplicative_domain_ok: bool | None
    reverse_test_preserved: bool
    p_match: bool
    q_match: bool


def _match_weights(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    if a.shape != b.shape:
        return False
    return bool(np.abs(a - b).max() <= tol) if a.size else True


def equality_check(rho, sigma, ch: KrausChannel, f: DivergenceGenerator,
                   tol: float = 1e-8, weight_tol: float = 1e-10) -> EqualityReport:
    """Check whether the channel preserves d_max(rho||sigma) and why.

    The pair and its image are each analysed once (divergence.analyze).
    Requires both divergence values finite.  When they agree within
    max(tol, tol*|value|) the structural consequences are verified:

    * each spectral indicator h of d = d(rho_tilde, sigma) satisfies
      Lambda_sigma(h(d)) = h(d_out), d_out the derivative of the image pair
      (equal to Lambda_sigma(d) when the channel maps rho_tilde onto the
      image's reduction); skipped, reported as None, for generators whose
      representing measure lacks full support;
    * the channel maps the minimal reverse test atomwise onto the minimal
      reverse test of the image pair, with identical weight vectors.
    """
    pair = analyze(rho, sigma)
    image = analyze(ch.apply(pair.rho), ch.apply(pair.sigma))
    value_in = pair.d_max(f)
    value_out = image.d_max(f)
    if not (math.isfinite(value_in) and math.isfinite(value_out)):
        raise InfiniteDivergence(
            "equality analysis requires finite divergences on both sides")
    equal = abs(value_in - value_out) <= max(tol, tol * abs(value_in))

    mult_ok: bool | None = None
    if f.mu_full_support:
        mult_ok = True
        s_half = pair.sigma_power(0.5)
        out_inv = image.sigma_power(-0.5)
        V_in, V_out = pair.eigenvectors, image.eigenvectors
        groups_out = linalg.cluster_groups(image.evals)
        for g in linalg.cluster_groups(pair.evals):
            dx = pair.evals[g].mean()
            if dx == 0.0:  # the kernel of d, already snapped to exact zero
                continue
            lhs = _conjugated(ch, s_half, out_inv, linalg.projector(V_in[:, g]))
            rhs = np.zeros_like(image.sigma)
            for h in groups_out:
                if abs(image.evals[h].mean() - dx) <= max(10 * tol, tol * abs(dx)):
                    rhs = rhs + linalg.projector(V_out[:, h])
            if float(np.abs(lhs - rhs).max()) > 10 * tol:
                mult_ok = False
                break

    rt_in = pair.reverse_test()
    rt_out = image.reverse_test()
    p_match = _match_weights(rt_in.p, rt_out.p, weight_tol)
    q_match = _match_weights(rt_in.q, rt_out.q, weight_tol)
    preserved = len(rt_in) == len(rt_out)
    if preserved:
        for out_in, out_img in zip(rt_in.outputs, rt_out.outputs):
            if float(np.abs(ch.apply(out_in) - out_img).max()) > tol:
                preserved = False
                break

    return EqualityReport(value_in, value_out, bool(equal), mult_ok,
                          bool(preserved), bool(p_match), bool(q_match))
