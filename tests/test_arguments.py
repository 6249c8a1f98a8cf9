"""Every public scalar parameter against values that are no number in its
range: each raises the error its docstring names, by linalg's one rule."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qfdiv import errors
from qfdiv.channels import depolarizing_channel, dpi_check, equality_check
from qfdiv.divergence import minimal_reverse_test, perturbation_limit_probe
from qfdiv.generators import builtin, custom
from qfdiv.oracles import refine_reverse_test
from qfdiv.rld import second_derivative_check
from qfdiv.suites import SuiteConfig, run_suite

RHO, SIGMA = np.diag([0.7, 0.3]), np.diag([0.3, 0.7])
X, Y = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
SQUARE = builtin("square")


def _square(y):
    return y * y


# parameter: (call with the value, documented error, what its message names)
CALLS = {
    "neg_power": (lambda v: builtin("neg_power", v), errors.UnsupportedGenerator,
                  "neg_power"),
    "power": (lambda v: builtin("power", v), errors.UnsupportedGenerator, "power"),
    "psi": (lambda v: builtin("psi", v), errors.UnsupportedGenerator, "psi"),
    "recession": (lambda v: custom("c", _square, recession=v),
                  errors.UnsupportedGenerator, "recession"),
    "second_deriv_at_1": (lambda v: custom("c", _square, second_deriv_at_1=v),
                          errors.UnsupportedGenerator, "second derivative"),
    "noise": (lambda v: depolarizing_channel(2, v), errors.InvalidOperator, "noise"),
    "dpi_check-tol": (lambda v: dpi_check(RHO, SIGMA, depolarizing_channel(2, 0.3),
                                          SQUARE, tol=v), ValueError, "tol"),
    "equality_check-tol": (lambda v: equality_check(
        RHO, SIGMA, depolarizing_channel(2, 0.3), SQUARE, tol=v), ValueError, "tol"),
    "run_suite-tol": (lambda v: run_suite(SuiteConfig(suite="dpi", trials=1, tol=v)),
                      ValueError, "tol"),
    "step": (lambda v: second_derivative_check(RHO, X, Y, SQUARE, step=v),
             errors.StepError, "step"),
    "epsilon": (lambda v: perturbation_limit_probe(RHO, SIGMA, SQUARE, [v]),
                ValueError, "epsilons"),
    "splits": (lambda v: refine_reverse_test(minimal_reverse_test(RHO, SIGMA),
                                             np.random.default_rng(0), v),
               ValueError, "splits"),
    "trials": (lambda v: run_suite(SuiteConfig(suite="dpi", trials=v)),
               ValueError, "trials"),
    "dims": (lambda v: run_suite(SuiteConfig(suite="dpi", dims=(v,), trials=1)),
             ValueError, "dims"),
    "seed": (lambda v: run_suite(SuiteConfig(suite="dpi", trials=1, seed=v)),
             ValueError, "seed"),
    "suite": (lambda v: run_suite(SuiteConfig(suite=v)), ValueError, "suite"),
}
# the list is of a suite name: as a suite it raised TypeError: unhashable
BAD = {"string": "0.5", "complex": 0.5j, "0-d-array": np.array(0.5),
       "bool": True, "numpy-bool": np.True_, "nan": math.nan, "inf": math.inf,
       "list": ["dpi"]}
# inf is a recession constant: the one value of BAD that a parameter takes
ROWS = [(param, kind) for param in CALLS for kind in BAD
        if (param, kind) != ("recession", "inf")]


@pytest.mark.parametrize("param, kind", ROWS, ids=[f"{p}-{k}" for p, k in ROWS])
def test_a_value_out_of_range_raises_the_documented_error(param, kind):
    call, error, named = CALLS[param]
    with pytest.raises(error, match=named):
        call(BAD[kind])


# parameter: a value in its range, then the same as other kinds of real number
GOOD = {"neg_power": 0.5, "power": 1.5, "psi": 1.0, "recession": 1.0,
        "second_deriv_at_1": 2.0, "noise": 0.5, "dpi_check-tol": 1e-8,
        "equality_check-tol": 1e-8, "run_suite-tol": 1e-8, "step": 1e-3,
        "epsilon": 1e-3, "splits": 2, "trials": 1, "dims": 2, "seed": 3}


@pytest.mark.parametrize("param", GOOD)   # a suite name is no number
def test_every_real_number_in_range_is_taken(param):
    value = GOOD[param]
    if isinstance(value, int):
        kinds = [value, np.int64(value), np.int32(value)]
    else:
        kinds = [value, np.float64(value), np.float32(value), Fraction(value)]
    for v in kinds:
        CALLS[param][0](v)
