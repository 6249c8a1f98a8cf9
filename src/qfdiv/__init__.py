"""qfdiv: maximal quantum f-divergences over finite-dimensional operators.

Computes D_f^max(rho||sigma) for positive semidefinite matrices (including
rank-deficient pairs), constructs the minimal reverse test achieving it,
and ships seeded property suites verifying the structural facts the value
obeys: data processing, joint convexity, monotonicity in sigma, the
perturbation limit, channel equality conditions, and the RLD-metric Hessian
identity.  Divergence values are floats in (-inf, +inf]; +inf is math.inf.
d_max and d_prime of a stack of pairs return an array of such values.

`import qfdiv` loads errors, linalg, generators and divergence.  The
channels, oracles, rld and suites modules, and the names this package
takes from them, load on first use (PEP 562): reading qfdiv.run_suite, or
qfdiv.channels itself, imports its module and binds the name here, so a
program that only computes divergences never loads them.
"""

from .divergence import (PairAnalysis, ReverseTest, analyze, d_max, d_prime,
                         minimal_reverse_test, perturbation_limit_probe,
                         reverse_test_value)
from .errors import (DimensionMismatch, DomainError, InfiniteDivergence,
                     InvalidDistribution, InvalidOperator, MissingRecession,
                     NonCommuting, NotPSD, QfdivError, StepError,
                     SupportError, UnsupportedGenerator, ZeroSigma)
from .generators import (DivergenceGenerator, LownerForm, builtin,
                         classical_f_divergence, custom, from_spec,
                         lebesgue_atoms, lowner_quadrature_check,
                         recession_value)
from .linalg import gen_inverse_sqrt, matrix_sqrt, support_projector

__version__ = "0.1.0"

# Each name loaded on first use, the four module names included, and the
# module that defines it.
_LAZY = {name: module for module, names in (
    ("channels", ("DpiResult", "EqualityReport", "KrausChannel",
                  "depolarizing_channel", "dpi_check", "embedding_channel",
                  "equality_check", "lambda_sigma", "random_channel",
                  "random_state", "unitary_channel", "v_operator")),
    ("oracles", ("bs_relative_entropy", "classical_oracle",
                 "umegaki_relative_entropy")),
    ("rld", ("SecondDerivativeResult", "TangentPerturbation", "random_tangent",
             "rld_metric", "second_derivative_check")),
    ("suites", ("SUITE_NAMES", "SuiteConfig", "SuiteReport", "run_suite",
                "trial_rng")),
) for name in (module, *names)}

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_LAZY))


def __getattr__(name):
    """Import the module of a name loaded on first use and bind the name."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{_LAZY[name]}")
    if name != _LAZY[name]:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
