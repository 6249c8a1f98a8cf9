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
from .channels import _rng
from .divergence import d_prime
from .errors import (DimensionMismatch, NotPSD, StepError, SupportError,
                     UnsupportedGenerator)
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
    """X validated as Hermitian of rho's shape (else DimensionMismatch);
    SupportError unless X = pi X pi to within linalg.SUPPORT_TOL of its own
    scale."""
    X = linalg.as_hermitian(X)
    if X.shape != pi.shape:
        raise DimensionMismatch(
            f"{label} of shape {X.shape} does not match rho of shape {pi.shape}")
    if float(np.abs(X - pi @ X @ pi).max()) > linalg.SUPPORT_TOL * float(np.abs(X).max()):
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


@dataclass(frozen=True, eq=False)     # holds an array: compared by identity
class TangentPerturbation:
    """A traceless Hermitian direction inside the support of a state rho.

    rho + s * direction stays PSD for |s| <= step_bound.
    """

    direction: np.ndarray
    step_bound: float


def random_tangent(rho, seed_or_rng) -> TangentPerturbation:
    """Draw a random traceless direction inside supp rho, of spectral norm
    1, with step_bound the least eigenvalue of rho on its support; the zero
    direction, the only one when rho has rank 1, has step_bound inf.

    seed_or_rng is a Generator, or a Philox key as for random_state.
    SupportError when rho is 0.
    """
    rng = _rng(seed_or_rng)
    rho, evals, _, pi = _spectrum(rho)
    rank = round(float(np.trace(pi).real))
    if not rank:
        raise SupportError("rho has an empty support")
    n = rho.shape[0]
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = (G + G.conj().T) / 2
    X = pi @ X @ pi
    X = X - (np.trace(X).real / rank) * pi
    X = (X + X.conj().T) / 2
    norm = float(np.linalg.norm(X, 2))
    if not norm:
        return TangentPerturbation(X, np.inf)
    return TangentPerturbation(X / norm, _lam_min(evals))


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


def _mixed_difference(values, s, t) -> float:
    """(D(s,t) - D(s,-t) - D(-s,t) + D(-s,-t)) / (4 s t)."""
    dpp, dpm, dmp, dmm = values
    return (dpp - dpm - dmp + dmm) / (4.0 * s * t)


def second_derivative_check(rho, X, Y, f: DivergenceGenerator,
                            step: float = DEFAULT_STEP) -> SecondDerivativeResult:
    """Compare the mixed finite difference of the divergence with the metric.

    The raw step is rescaled by lambda_min(rho)/||direction|| per direction
    so the perturbed operators stay PSD; StepError if they do not, or if the
    step is not finite and positive.  The 12 divergences of the three
    layouts come from one stacked d_prime call.
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

    # the 12 probes as one stack: the sign pairs (a, b) of each layout
    a = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None] * s
    b = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None] * t
    base = np.broadcast_to(rho, (4,) + rho.shape)
    both = rho + a * X + b * Y
    try:
        values = d_prime(np.concatenate([rho + a * X, base, both]),
                         np.concatenate([rho - b * Y, both, base]), f)
    except NotPSD as exc:
        raise StepError("finite-difference step leaves the PSD cone") from exc
    fd1, fd2, fd3 = (_mixed_difference(v, s, t)
                     for v in values.reshape(3, 4).tolist())

    analytic = f.second_deriv_at_1 * _metric(evals, vecs, X, Y).real
    return SecondDerivativeResult(
        fd_value=fd1, analytic=analytic, abs_err=abs(fd1 - analytic),
        variants=(fd1, fd2, fd3))
