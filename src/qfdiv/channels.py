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
from .divergence import PairAnalysis, _adjoint, _analysis, analyze
from .errors import (DimensionMismatch, InfiniteDivergence, InvalidOperator,
                     ZeroSigma)
from .generators import DivergenceGenerator


@dataclass(frozen=True, eq=False)     # holds an array: compared by identity
class KrausChannel:
    """A CPTP map given by its Kraus operators K_i = kraus[i], one complex
    stack of shape (r, dim_out, dim_in) that also gives its dimensions.

    Built from a Kraus family, a sequence of equal-shape matrices or their
    stack, which it copies into its own read-only stack and checks once:
    DimensionMismatch if the matrices differ in shape, InvalidOperator
    unless the stack is 3-D and non-empty and sum K_i† K_i = 1 within
    linalg.TP_TOL entrywise.  A pickled or copied channel is built, and
    checked, anew.
    """

    kraus: np.ndarray

    dim_in = property(lambda self: self.kraus.shape[2])
    dim_out = property(lambda self: self.kraus.shape[1])

    def __post_init__(self):
        try:
            K = np.array(self.kraus, dtype=complex, order="C")
        except ValueError as exc:  # ragged: the matrices differ in shape
            raise DimensionMismatch(
                "Kraus operators have inconsistent shapes") from exc
        if K.ndim != 3 or not K.size:
            raise InvalidOperator("a channel needs non-empty Kraus matrices")
        with np.errstate(invalid="ignore"):  # inf entries: nan fails the check
            acc = (_adjoint(K) @ K).sum(axis=0)
        if not float(np.abs(acc - np.eye(K.shape[2])).max()) <= linalg.TP_TOL:
            raise InvalidOperator("Kraus family is not trace preserving")
        K.setflags(write=False)
        object.__setattr__(self, "kraus", K)

    def __reduce__(self):
        return type(self), (self.kraus,)

    def apply(self, A) -> np.ndarray:
        """Channel action sum_i K_i A K_i†."""
        A = np.asarray(A, dtype=complex)
        if A.shape != (self.dim_in, self.dim_in):
            raise DimensionMismatch(
                f"operator of shape {A.shape} fed to a channel with input "
                f"dimension {self.dim_in}")
        return (self.kraus @ A @ _adjoint(self.kraus)).sum(axis=0)

    def adjoint_apply(self, B) -> np.ndarray:
        """Adjoint (Heisenberg) action sum_i K_i† B K_i; unital."""
        B = np.asarray(B, dtype=complex)
        if B.shape != (self.dim_out, self.dim_out):
            raise DimensionMismatch(
                f"operator of shape {B.shape} fed to a channel adjoint with "
                f"output dimension {self.dim_out}")
        return (_adjoint(self.kraus) @ B @ self.kraus).sum(axis=0)


def unitary_channel(U) -> KrausChannel:
    return KrausChannel([U])


def depolarizing_channel(dim: int, noise: float) -> KrausChannel:
    """(1 - noise) * A + noise * tr(A) 1/dim as a Kraus family."""
    _check_dims(dim)
    if dim < 1:
        raise DimensionMismatch(f"dim must be at least 1, got {dim}")
    if isinstance(noise, (bool, np.bool_)) or not 0.0 <= noise <= 1.0:
        raise InvalidOperator(f"noise must lie in [0, 1], got {noise}")
    # the identity, then the matrix units |i><j| in row-major order, each
    # part kept only when its weight is not zero
    units = math.sqrt(noise / dim) * np.eye(dim * dim).reshape(-1, dim, dim)
    ops = np.concatenate(([math.sqrt(1.0 - noise) * np.eye(dim)], units))
    keep = np.repeat([noise < 1.0, noise > 0.0], [1, dim * dim])
    return KrausChannel(ops[keep])


def embedding_channel(dim_in: int, dim_out: int) -> KrausChannel:
    """Direct-sum embedding A -> [[A, 0], [0, 0]] via an isometry."""
    _check_dims(dim_in, dim_out)
    if dim_in < 1:
        raise InvalidOperator("embedding needs dim_in >= 1")
    if dim_out < dim_in:
        raise DimensionMismatch("embedding needs dim_out >= dim_in")
    return KrausChannel([np.eye(dim_out, dim_in)])


def _is_int(x) -> bool:
    """Whether x is an int or a numpy integer; a bool is not one here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_dims(*dims) -> None:
    """DimensionMismatch unless every dimension is an int (see _is_int)."""
    if not all(map(_is_int, dims)):
        raise DimensionMismatch(f"dimensions must be integers, got {dims!r}")


def _is_seed(x) -> bool:
    """Whether x is one Philox key entry: an int in 0..2**64-1."""
    return _is_int(x) and 0 <= x < 2 ** 64


def _rng(seed) -> np.random.Generator:
    # The package's one seed convention.  Philox: 64-bit counter-based, so
    # (seed, index) keys give independent reproducible streams on every
    # platform.  An existing Generator is passed through so callers can
    # chain draws.  Any other seed is an int or a tuple or list of ints, each
    # checked by _is_seed so that none is truncated or wrapped into uint64.
    if isinstance(seed, np.random.Generator):
        return seed
    keys = seed if isinstance(seed, (tuple, list)) else (seed,)
    if not all(map(_is_seed, keys)):
        raise ValueError(
            f"seed entries must be integers in 0..2**64-1, got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.asarray(seed, dtype=np.uint64)))


def random_state(dim: int, rank: int, seed) -> np.ndarray:
    """Random density matrix of the given rank (Gaussian factor G G†/tr)."""
    _check_dims(dim, rank)
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
    _check_dims(dim_in, dim_out, env_dim)
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
    return KrausChannel(V.reshape(dim_out, env_dim, dim_in).swapaxes(0, 1))


def _sigma_roots(ch: KrausChannel, sigma) -> tuple[np.ndarray, np.ndarray]:
    """(sigma^{1/2}, Lambda(sigma)^{-1/2}), each zero on its kernel, of a
    sigma validated as PSD; ZeroSigma when sigma = 0."""
    sigma, evals, vecs = linalg.psd_spectrum(sigma)
    if not linalg.support_mask(evals).any():
        raise ZeroSigma("sigma is the zero operator")
    return (linalg.support_map(evals, vecs, np.sqrt),
            linalg.gen_inverse_sqrt(ch.apply(sigma)))


def lambda_sigma(ch: KrausChannel, sigma, Z) -> np.ndarray:
    """The sigma-weighted conjugation of the channel:

    Lambda(sigma)^{-1/2} Lambda(sigma^{1/2} Z sigma^{1/2}) Lambda(sigma)^{-1/2}.

    Unital as a map from supp sigma to supp Lambda(sigma); intertwines the
    Radon-Nikodym derivatives of a dominated pair and its image.  Z is a
    finite Hermitian dim_in x dim_in operator; ZeroSigma when sigma = 0.
    """
    s_half, out_inv = _sigma_roots(ch, sigma)
    Z = linalg.as_hermitian(Z)
    if Z.shape != (ch.dim_in, ch.dim_in):
        raise DimensionMismatch(f"Z of shape {Z.shape}, not {ch.dim_in} x {ch.dim_in}")
    res = out_inv @ ch.apply(s_half @ Z @ s_half) @ out_inv
    return (res + res.conj().T) / 2


def check_tolerance(tol) -> None:
    """ValueError unless a check's comparison tolerance is finite and >= 0
    (a bool is not a number here)."""
    if isinstance(tol, (bool, np.bool_)) or not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


@dataclass(frozen=True)
class DpiResult:
    value_in: float
    value_out: float
    holds: bool


def _pair_and_image(rho, sigma,
                    ch: KrausChannel) -> tuple[PairAnalysis, PairAnalysis, float]:
    """The one reading of a pair and its image that both checks share: the
    pair through analyze, which keeps it; the image of its validated
    operands, Lambda(pair.rho) and Lambda(pair.sigma), analysed without
    replacing it; and the scale s = max(tr rho, tr sigma) at which the
    checks compare values and weights."""
    pair = analyze(rho, sigma)
    image = _analysis(ch.apply(pair.rho), ch.apply(pair.sigma))
    return pair, image, float(max(pair.rho.trace().real, pair.sigma.trace().real))


def dpi_check(rho, sigma, ch: KrausChannel, f: DivergenceGenerator,
              tol: float = 1e-8) -> DpiResult:
    """Data processing: d_max may only decrease along the channel.

    The pair and its image are read as in equality_check, and the image is
    not kept; holds when d_max of the image is at most d_max of the pair
    plus tol * max(s, |d_max|), s = max(tr rho, tr sigma), equality_check's
    scale, so the verdict is the same for (c rho, c sigma) at every c > 0.
    ValueError unless tol is finite and >= 0.
    """
    check_tolerance(tol)
    pair, image, s = _pair_and_image(rho, sigma, ch)
    before, after = pair.d_max(f), image.d_max(f)
    bound = before + tol * max(s, abs(before)) if math.isfinite(before) else before
    return DpiResult(before, after, bool(after <= bound))


def v_operator(ch: KrausChannel, sigma, Z) -> np.ndarray:
    """V(Z) = Lambda†(Z Lambda(sigma)^{-1/2}) sigma^{1/2}.

    A Hilbert-Schmidt contraction mapping the output space back to the
    input space; V(Lambda(sigma)^{1/2}) = sigma^{1/2}.  Z is any finite
    dim_out x dim_out operator; ZeroSigma when sigma = 0, as in
    lambda_sigma, whose roots of sigma and Lambda(sigma) it shares.
    """
    s_half, out_inv = _sigma_roots(ch, sigma)
    Z = np.asarray(Z, dtype=complex)
    if Z.shape != (ch.dim_out, ch.dim_out):
        raise DimensionMismatch(
            f"Z of shape {Z.shape} incompatible with output dimension "
            f"{ch.dim_out}")
    if not np.isfinite(Z).all():
        raise InvalidOperator("Z has a non-finite entry")
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


def _match_weights(a: np.ndarray, b: np.ndarray, s: float) -> bool:
    """Whether two weight vectors have one shape and their largest entry
    gap is negligible mass at the scale s (linalg.negligible_mass)."""
    return a.shape == b.shape and linalg.negligible_mass(
        float(np.abs(a - b).max(initial=0.0)), s)


def equality_check(rho, sigma, ch: KrausChannel, f: DivergenceGenerator,
                   tol: float = 1e-8) -> EqualityReport:
    """Check whether the channel preserves d_max(rho||sigma) and why.

    The pair and its image are each analysed once, as in dpi_check: the
    pair through divergence.analyze, which keeps it, the image without
    replacing it; and the channel maps the factor X_x of each atom of the
    pair's minimal reverse test once, to the one factor
    Y_x = [K_1 X_x | ... | K_r X_x] with Lambda(X_x X_x^H) = Y_x Y_x^H.
    Requires both divergence values finite; equal when they agree within
    tol * max(s, |value_in|), s = max(tr rho, tr sigma).  The structural
    consequences of equality are checked whatever the values:

    * the channel maps the minimal reverse test atomwise onto the minimal
      reverse test of the image pair, with weight vectors that match: one
      length, and entries within linalg.MASS_TOL * s (p_match, q_match);
    * each spectral projection P_x of d = d(rho_tilde, sigma) satisfies
      Lambda_sigma(P_x) = sum of the image's projections P'_h with d'_h
      within max(10*tol, tol*d_x) of d_x, to 10*tol entrywise; skipped,
      reported as None, for generators whose representing measure lacks
      full support.  Lambda_sigma(P_x) is read from the same channel pass:
      it is q(x) (S Y_x)(S Y_x)^H with S = Lambda(sigma)^{-1/2}, so no
      sigma^{1/2} congruence is formed.

    ValueError unless tol is finite and >= 0.
    """
    check_tolerance(tol)
    pair, image, s = _pair_and_image(rho, sigma, ch)
    value_in = pair.d_max(f)
    value_out = image.d_max(f)
    if not (math.isfinite(value_in) and math.isfinite(value_out)):
        raise InfiniteDivergence(
            "equality analysis requires finite divergences on both sides")
    equal = abs(value_in - value_out) <= tol * max(s, abs(value_in))

    rt_in = pair.reverse_test()
    rt_out = image.reverse_test()
    # the one channel pass: Y_x = [K_1 X_x | ... | K_r X_x] for each atom's
    # factor X_x, so that Lambda(X_x X_x^H) = Y_x Y_x^H
    mapped = [np.hstack(ch.kraus @ X) for X in rt_in.groups()]
    p_match = _match_weights(rt_in.p, rt_out.p, s)
    q_match = _match_weights(rt_in.q, rt_out.q, s)
    preserved = len(rt_in) == len(rt_out) and all(
        float(np.abs(Y @ Y.conj().T - A).max()) <= tol
        for Y, A in zip(mapped, rt_out.outputs))

    mult_ok: bool | None = None
    if f.mu_full_support:
        # S = Lambda(sigma)^{-1/2}, and the image's eigenvectors of d',
        # S X' for its factor X', grouped by its atoms
        S = linalg.gen_inverse_sqrt(image.sigma)
        groups_out = np.split(S @ image.factor, rt_out.starts[1:], axis=1)
        live = np.flatnonzero(rt_out.q > 0.0)
        d_out = rt_out.p[live] / rt_out.q[live]
        mult_ok = True
        for Y, p, q in zip(mapped, rt_in.p, rt_in.q):
            if p == 0.0 or q == 0.0:   # d's kernel, or the escaped atom
                continue
            d = p / q
            SY = S @ Y
            diff = q * (SY @ SY.conj().T)
            for h in live[np.abs(d_out - d) <= max(10 * tol, tol * d)]:
                g = groups_out[h]
                diff -= g @ g.conj().T
            if float(np.abs(diff).max()) > 10 * tol:
                mult_ok = False
                break

    return EqualityReport(value_in, value_out, bool(equal), mult_ok,
                          bool(preserved), bool(p_match), bool(q_match))
