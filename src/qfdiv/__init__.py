"""qfdiv: maximal quantum f-divergences over finite-dimensional operators.

Computes D_f^max(rho||sigma) for positive semidefinite matrices (including
rank-deficient pairs), constructs the minimal reverse test achieving it,
and ships seeded property suites verifying the structural facts the value
obeys: data processing, joint convexity, monotonicity in sigma, the
perturbation limit, channel equality conditions, and the RLD-metric Hessian
identity.  Divergence values are floats in (-inf, +inf]; +inf is math.inf.
d_max and d_prime of a stack of pairs return an array of such values.
"""

from .channels import (DpiResult, EqualityReport, KrausChannel,
                       depolarizing_channel, dpi_check, embedding_channel,
                       equality_check, lambda_sigma, random_channel,
                       random_state, unitary_channel, v_operator)
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
from .oracles import (bs_relative_entropy, classical_oracle,
                      umegaki_relative_entropy)
from .rld import (SecondDerivativeResult, TangentPerturbation, random_tangent,
                  rld_metric, second_derivative_check)
from .suites import SUITE_NAMES, SuiteConfig, SuiteReport, run_suite, trial_rng

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
