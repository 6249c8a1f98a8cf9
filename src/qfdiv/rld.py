"""Right-logarithmic-derivative Fisher metric and its divergence Hessian.

The mixed second derivative of the divergence along two Hermitian
perturbation directions equals f''(1) times the real part of the RLD metric
tr X rho^{-1} Y.  This module evaluates the metric and verifies the identity
by central finite differences, in the three perturbation layouts that all
share that limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .divergence import d_prime
from .errors import NotPSD, StepError, SupportError, UnsupportedGenerator
from .generators import DivergenceGenerator

DEFAULT_STEP = 1e-3


def _spectrum(rho):
    """rho validated, with its eigensystem and its support projector.

    The one eigensolve of rho that each public function here makes: the
    support, lambda_min and the generalized inverse all read from it.
    """
    rho, evals, vecs = linalg.psd_spectrum(rho)
    return rho, evals, vecs, linalg.projector(vecs[:, linalg.support_mask(evals)])


def _lam_min(evals) -> float:
    """The smallest eigenvalue of rho on its support."""
    return float(evals[linalg.support_mask(evals)].min())


def _check_in_support(pi, X, label: str) -> np.ndarray:
    """X validated as Hermitian; SupportError unless X = pi X pi to within
    1e-10 of its own scale."""
    X = linalg.as_hermitian(X)
    if float(np.abs(X - pi @ X @ pi).max()) > 1e-10 * float(np.abs(X).max()):
        raise SupportError(f"{label} is not supported inside supp rho")
    return X


def _metric(evals, vecs, X, Y) -> complex:
    rho_inv = linalg.support_map(evals, vecs, lambda w: 1.0 / w)
    return complex(np.trace(X @ rho_inv @ Y))


def rld_metric(rho, X, Y) -> complex:
    """RLD Fisher metric tr X rho^{-1} Y (generalized inverse).

    Hermitian in its arguments: J(X, Y) = conj(J(Y, X)).  Requires X and Y
    supported inside supp rho.
    """
    rho, evals, vecs, pi = _spectrum(rho)
    return _metric(evals, vecs, _check_in_support(pi, X, "X"),
                   _check_in_support(pi, Y, "Y"))


@dataclass(frozen=True)
class TangentPerturbation:
    """A traceless Hermitian direction attached to a full-rank-on-support base.

    base + s * direction stays PSD for |s| <= step_bound.
    """

    base: np.ndarray
    direction: np.ndarray
    step_bound: float


def random_tangent(rho, seed_or_rng) -> TangentPerturbation:
    """Draw a random normalized traceless direction inside supp rho."""
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    rho, evals, _, pi = _spectrum(rho)
    n = rho.shape[0]
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = (G + G.conj().T) / 2
    X = pi @ X @ pi
    rank = round(float(np.trace(pi).real))
    X = X - (np.trace(X).real / rank) * pi
    X = (X + X.conj().T) / 2
    X = X / max(float(np.linalg.norm(X, 2)), 1e-300)
    norm = float(np.linalg.norm(X, 2))
    return TangentPerturbation(rho, X, _lam_min(evals) / norm if norm > 0 else np.inf)


@dataclass(frozen=True)
class SecondDerivativeResult:
    """Finite-difference estimates of the divergence Hessian.

    fd_value is the mixed difference of D(rho + sX || rho - tY); variants
    holds that value together with the two one-sided layouts
    D(rho || rho + sX + tY) and D(rho + sX + tY || rho), which share the
    same limit.  analytic is f''(1) * Re tr X rho^{-1} Y.
    """

    fd_value: float
    analytic: float
    abs_err: float
    variants: tuple[float, float, float]
    imag_part: float


def _mixed_difference(values, s, t) -> float:
    """(D(s,t) - D(s,-t) - D(-s,t) + D(-s,-t)) / (4 s t)."""
    dpp, dpm, dmp, dmm = values
    return (dpp - dpm - dmp + dmm) / (4.0 * s * t)


def second_derivative_check(rho, X, Y, f: DivergenceGenerator,
                            step: float = DEFAULT_STEP) -> SecondDerivativeResult:
    """Compare the mixed finite difference of the divergence with the metric.

    The raw step is rescaled by lambda_min(rho)/||direction|| per direction
    so the perturbed operators stay PSD; StepError if they do not, or if the
    step is not finite and positive.
    """
    if f.second_deriv_at_1 is None:
        raise UnsupportedGenerator(
            f"generator {f.name!r} has no declared second derivative at 1")
    rho, evals, vecs, pi = _spectrum(rho)
    X = _check_in_support(pi, X, "X")
    Y = _check_in_support(pi, Y, "Y")

    lam_min = _lam_min(evals)
    norm_x = float(np.linalg.norm(X, 2))
    norm_y = float(np.linalg.norm(Y, 2))
    s = step * lam_min / norm_x if norm_x > 0 else step
    t = step * lam_min / norm_y if norm_y > 0 else step
    if not (0 < step < math.inf and s * t > 0):
        raise StepError(f"step {step} is not finite and positive, or underflows")

    def probe(first, second) -> float:
        try:
            return d_prime(first, second, f)
        except NotPSD as exc:
            raise StepError("finite-difference step leaves the PSD cone") from exc

    fd1 = _mixed_difference(
        [probe(rho + a * s * X, rho - b * t * Y)
         for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))], s, t)
    fd2 = _mixed_difference(
        [probe(rho, rho + a * s * X + b * t * Y)
         for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))], s, t)
    fd3 = _mixed_difference(
        [probe(rho + a * s * X + b * t * Y, rho)
         for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))], s, t)

    metric = _metric(evals, vecs, X, Y)
    analytic = f.second_deriv_at_1 * metric.real
    return SecondDerivativeResult(
        fd_value=fd1, analytic=analytic, abs_err=abs(fd1 - analytic),
        variants=(fd1, fd2, fd3), imag_part=metric.imag)
