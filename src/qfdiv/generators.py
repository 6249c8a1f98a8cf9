"""Divergence generators and the classical f-divergence.

A generator is a convex function f on [0, inf) with f(0) = 0, together with
the analytic data the divergence machinery needs: the recession constant
lim_{y->inf} f(y)/y (may be +inf, never -inf), the second derivative at 1,
and an operator-convexity flag.  Built-ins cover the standard families

    xlogx           y log y
    neg_power:a     -y^a          0 < a <= 1
    power:a         y^a           1 < a <= 2
    square          y^2
    psi:t           -y / (y + t)  t > 0

all operator convex on [0, inf).  Natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import (DomainError, InvalidDistribution, MissingRecession,
                     UnsupportedGenerator)

INF = math.inf


@dataclass(frozen=True)
class DivergenceGenerator:
    """A scalar function f with the analytic side data used by divergences.

    ``fn`` must be vectorized (accept and return float arrays) and satisfy
    fn(0) == 0.  ``recession`` is lim f(y)/y for y -> inf; None means the
    user did not declare it and recession_value() will refuse to guess.
    ``mu_full_support`` records whether the measure in the operator-convex
    integral representation of f has full support on (0, inf); it gates the
    multiplicative-domain sub-check of the channel equality checker.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    recession: float | None
    second_deriv_at_1: float | None = None
    operator_convex: bool = False
    mu_full_support: bool = False

    def eval(self, y):
        return self.fn(np.asarray(y, dtype=float))


def _xlogx(y: np.ndarray) -> np.ndarray:
    """y log y where y > 0, else 0 (NaN and negative y too)."""
    pos = y > 0
    out = np.log(y, out=np.zeros(y.shape), where=pos)
    return np.multiply(out, y, out=out, where=pos)


def builtin(name: str, param: float | None = None) -> DivergenceGenerator:
    """Construct a built-in generator by name.

    neg_power and power take the exponent as parameter, psi the pole
    location; xlogx and square take none (UnsupportedGenerator if given).
    A parameter is a real number (linalg.is_real), else UnsupportedGenerator.
    """
    if param is not None and not linalg.is_real(param):
        raise UnsupportedGenerator(f"{name} takes a real parameter, got {param!r}")
    if name in ("xlogx", "square") and param is not None:
        raise UnsupportedGenerator(f"{name} takes no parameter, got {param}")
    if name == "xlogx":
        return DivergenceGenerator(
            "xlogx", _xlogx, recession=INF, second_deriv_at_1=1.0,
            operator_convex=True, mu_full_support=True)
    if name == "square":
        return DivergenceGenerator(
            "square", lambda y: y * y, recession=INF, second_deriv_at_1=2.0,
            operator_convex=True, mu_full_support=False)
    if name == "neg_power":
        if param is None or not 0.0 < param <= 1.0:
            raise UnsupportedGenerator(
                f"neg_power needs an exponent in (0, 1], got {param}")
        a = float(param)
        # a = 1 is linear: recession -1, curvature 0.
        rec = 0.0 if a < 1.0 else -1.0
        return DivergenceGenerator(
            f"neg_power:{a:g}", lambda y, a=a: -(y ** a), recession=rec,
            second_deriv_at_1=a * (1.0 - a), operator_convex=True,
            mu_full_support=True)
    if name == "power":
        if param is None or not 1.0 < param <= 2.0:
            raise UnsupportedGenerator(
                f"power needs an exponent in (1, 2] for operator convexity, "
                f"got {param}")
        a = float(param)
        return DivergenceGenerator(
            f"power:{a:g}", lambda y, a=a: y ** a, recession=INF,
            second_deriv_at_1=a * (a - 1.0), operator_convex=True,
            mu_full_support=True)
    if name == "psi":
        if param is None or not 0.0 < param < INF:
            raise UnsupportedGenerator(
                f"psi needs a finite pole t > 0, got {param}")
        t = float(param)
        # 2 t / (1 + t)^3 one factor at a time: the cube overflows from t ~ 1e103
        u = 1.0 + t
        return DivergenceGenerator(
            f"psi:{t:g}", lambda y, t=t: -y / (y + t), recession=0.0,
            second_deriv_at_1=2.0 * (t / u) / u / u, operator_convex=True,
            mu_full_support=False)
    raise UnsupportedGenerator(f"unknown generator {name!r}")


def from_spec(spec: str) -> DivergenceGenerator:
    """Parse a generator spec string like "xlogx" or "neg_power:0.5"."""
    name, _, param = spec.partition(":")
    if param:
        try:
            value = float(param)
        except ValueError:
            raise UnsupportedGenerator(f"bad parameter in spec {spec!r}")
        return builtin(name.strip(), value)
    return builtin(name.strip())


def custom(name: str, fn: Callable, recession: float | None = None,
           second_deriv_at_1: float | None = None,
           operator_convex: bool = False) -> DivergenceGenerator:
    """Wrap a user-supplied scalar function as a generator.

    fn(0) must be exactly zero; recession must be declared explicitly for
    the generator to be usable on support-deficient pairs, and lies in
    (-inf, +inf] when it is; second_deriv_at_1, when declared, is finite.
    Each is a real number (linalg.is_real), else UnsupportedGenerator.
    """
    value0 = float(np.asarray(fn(np.asarray(0.0))))
    if value0 != 0.0:
        raise UnsupportedGenerator(f"generator must satisfy f(0) = 0, got {value0}")
    if recession is not None and not (linalg.is_real(recession) and recession > -INF):
        raise UnsupportedGenerator(
            f"recession constant must be a real number above -inf, got {recession!r}")
    if second_deriv_at_1 is not None and not (linalg.is_real(second_deriv_at_1)
                                              and math.isfinite(second_deriv_at_1)):
        raise UnsupportedGenerator(
            f"second derivative at 1 must be a finite number, got {second_deriv_at_1!r}")
    return DivergenceGenerator(name, fn, recession, second_deriv_at_1,
                               operator_convex)


def recession_value(f: DivergenceGenerator) -> float:
    """The declared recession constant lim f(y)/y (no numerical guessing)."""
    if f.recession is None:
        raise MissingRecession(
            f"generator {f.name!r} has no declared recession constant")
    return f.recession


def _as_weights(v, label: str) -> np.ndarray:
    """v as a flat float array; InvalidDistribution on a non-finite entry or
    on one below -linalg.WEIGHT_SLACK max|v|.  The entries below 0 that pass
    are clamped to 0 in a copy; otherwise v itself (or a view of it) comes
    back."""
    v = np.asarray(v, dtype=float).ravel()
    if not v.size:
        return v
    lo, hi = np.minimum.reduce(v), np.maximum.reduce(v)   # nan reaches both
    if not -INF < lo <= hi < INF:
        raise InvalidDistribution(f"{label} has a non-finite entry")
    if lo < 0.0:
        if lo < -linalg.WEIGHT_SLACK * max(hi, -lo):
            raise InvalidDistribution(f"{label} has negative entries")
        v = np.maximum(v, 0.0)
    return v


def _weights(p, q) -> tuple[np.ndarray, np.ndarray]:
    """The weight vectors of a classical f-divergence, p then q, each
    checked by _as_weights; InvalidDistribution on unequal lengths."""
    p = _as_weights(p, "p")
    q = _as_weights(q, "q")
    if p.shape != q.shape:
        raise InvalidDistribution(
            f"length mismatch: p has {p.size} entries, q has {q.size}")
    return p, q


def _split(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(p/q where q > 0, q there, the p-mass where q = 0): the arguments of
    _f_sum for checked weights, read by classical_f_divergence and held by
    each divergence.ReverseTest a caller builds."""
    pos = q > 0
    return p[pos] / q[pos], q[pos], float(np.add.reduce(p[~pos]))


def _f_sum(f: DivergenceGenerator, ratios, weights, escaped):
    """weights . f(ratios) + escaped * recession(f): the one f-divergence
    sum, read by classical_f_divergence, by a reverse test's value and by
    d_max of a pair or a stack.  DomainError when f gives NaN at a ratio."""
    vals = np.asarray(f.eval(ratios), dtype=float)
    base = np.vecdot(weights, vals)
    # a NaN of f reaches the sum, so vals is searched only when the sum is
    # NaN; a one-pair sum is a scalar, compared without a numpy call
    nan = base != base
    if (nan.any() if nan.ndim else nan) and np.isnan(vals).any():
        raise DomainError(f"generator {f.name!r} returned NaN on a likelihood ratio")
    return base + escaped * recession_value(f) if escaped else base


def classical_f_divergence(p, q, f: DivergenceGenerator) -> float:
    """D_f(p||q) = sum_x q(x) f(p(x)/q(x)) with the recession convention.

    Entries with q(x) = 0 < p(x) contribute p(x) times the recession
    constant; entries with p(x) = q(x) = 0 contribute nothing.  The result
    lives in (-inf, +inf]; d_max's spectral value is the same sum (_f_sum).
    """
    return float(_f_sum(f, *_split(*_weights(p, q))))


@dataclass(frozen=True, eq=False)     # atoms may be an array: compared by identity
class LownerForm:
    """Finite quadrature form  a y + b y^2 + sum_j w_j (y/(1+t_j) + psi_{t_j}(y)).

    Used only as a verification device for the integral representation of
    operator convex functions; continuous measures enter through
    caller-supplied quadrature atoms (t_j, w_j): pairs ((t, w), ...) or an
    (n, 2) array such as lebesgue_atoms() gives.

    Each atom adds w (y/(1+t) - y/(y+t)) = w y (y - 1) / ((1 + t)(y + t)),
    so eval weighs the atoms once, c_j = w_j / (1 + t_j), and sums them for
    every point at once as one (points x atoms) product:
    y (y - 1) sum_j c_j / (y + t_j).
    """

    a: float
    b: float
    atoms: tuple[tuple[float, float], ...] | np.ndarray = ()

    def eval(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        t, w = np.asarray(self.atoms, dtype=float).reshape(-1, 2).T
        acc = (1.0 / (y[..., None] + t)) @ (w / (1.0 + t))
        return self.a * y + self.b * y * y + y * (y - 1.0) * acc


def lowner_quadrature_check(f: DivergenceGenerator, form: LownerForm,
                            grid) -> float:
    """Max absolute deviation of the quadrature form from f on the grid."""
    grid = np.asarray(grid, dtype=float)
    return float(np.abs(form.eval(grid) - f.eval(grid)).max())


# lebesgue_atoms: log10 of the ends of its grid, and its number of atoms.
_LEBESGUE_GRID = (-16.0, 16.0, 200)


def lebesgue_atoms() -> np.ndarray:
    """Quadrature atoms for the Lebesgue measure dt, the atoms that represent
    xlogx, as a (200, 2) array of rows (t, w) on a log-spaced grid from
    1e-16 to 1e16.

    They are the trapezoid rule in u = log t, where dt = t du: with step h,
    w = t h.  The integrand y (y - 1) t / ((1 + t)(y + t)) is analytic in u,
    so the rule converges geometrically; it decays like t and 1/t at the
    ends, so cutting the grid at 1e-16 and 1e16 costs about y^2 * 1e-16."""
    lo, hi, count = _LEBESGUE_GRID
    t = np.logspace(lo, hi, count)
    return np.column_stack((t, t * (np.log(10.0) * (hi - lo) / (count - 1))))
