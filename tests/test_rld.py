"""Tests for the RLD metric and the divergence Hessian identity."""

import math

import numpy as np
import pytest

from qfdiv import errors
from qfdiv.channels import random_state
from qfdiv.generators import builtin, custom
from qfdiv.rld import random_tangent, rld_metric, second_derivative_check

XLOGX = builtin("xlogx")
SQUARE = builtin("square")
GENS = [XLOGX, SQUARE, builtin("neg_power", 0.5), builtin("power", 1.5)]

Z_DIR = np.diag([0.5, -0.5]).astype(complex)
MAX_MIXED = np.eye(2, dtype=complex) / 2


class TestMetric:
    def test_maximally_mixed_qubit(self):
        assert rld_metric(MAX_MIXED, Z_DIR, Z_DIR) == pytest.approx(1.0)

    def test_zero_direction(self):
        assert rld_metric(MAX_MIXED, np.zeros((2, 2)), Z_DIR) == 0.0

    def test_diagonal_componentwise(self):
        rng = np.random.default_rng(0)
        d = rng.random(4) + 0.2
        d /= d.sum()
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        x -= x.mean()
        y -= y.mean()
        got = rld_metric(np.diag(d), np.diag(x), np.diag(y))
        assert got.real == pytest.approx(float(np.sum(x * y / d)), abs=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_hermitian_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(1)
        rho = random_state(3, 3, rng)
        dirs = [random_tangent(rho, rng).direction for _ in range(3)]
        X, Y, W = dirs
        assert rld_metric(rho, X, Y) == pytest.approx(
            np.conj(rld_metric(rho, Y, X)), abs=1e-12)
        lhs = rld_metric(rho, X, 0.7 * Y + 1.3 * W)
        rhs = 0.7 * rld_metric(rho, X, Y) + 1.3 * rld_metric(rho, X, W)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_support_violation(self):
        # the check is relative to the direction, so a direction half
        # outside supp rho is rejected however small it is
        rho = np.diag([1.0, 0.0])
        for c in (1.0, 1e-12):
            X = c * np.diag([0.5, -0.5])
            with pytest.raises(errors.SupportError):
                rld_metric(rho, X, X)


class TestTangent:
    def test_random_tangent_contract(self):
        rng = np.random.default_rng(2)
        for rank in (3, 2):
            rho = random_state(3, rank, rng)
            tp = random_tangent(rho, rng)
            assert abs(np.trace(tp.direction)) < 1e-12
            s = 0.99 * tp.step_bound
            assert np.linalg.eigvalsh(rho + s * tp.direction).min() > -1e-12
            assert np.linalg.eigvalsh(rho - s * tp.direction).min() > -1e-12

    def test_pure_state_has_only_the_zero_direction(self):
        tp = random_tangent(np.diag([1.0, 0.0]), 3)
        np.testing.assert_array_equal(tp.direction, np.zeros((2, 2)))
        assert tp.step_bound == np.inf

    def test_zero_rho_has_no_direction(self):
        with pytest.raises(errors.SupportError):
            random_tangent(np.zeros((2, 2)), 0)


class TestSecondDerivative:
    def test_zero_directions(self):
        res = second_derivative_check(MAX_MIXED, np.zeros((2, 2)),
                                      np.zeros((2, 2)), XLOGX)
        assert res.fd_value == 0.0
        assert res.analytic == 0.0

    def test_qubit_xlogx(self):
        res = second_derivative_check(MAX_MIXED, Z_DIR, Z_DIR, XLOGX)
        assert res.analytic == pytest.approx(1.0)
        assert res.abs_err <= 1e-4

    def test_qubit_square_exact(self):
        res = second_derivative_check(MAX_MIXED, Z_DIR, Z_DIR, SQUARE)
        assert res.analytic == pytest.approx(2.0)
        # the one-sided quadratic layout carries no truncation error
        assert abs(res.variants[2] - 2.0) <= 1e-9
        assert res.abs_err <= 1e-4

    @pytest.mark.parametrize("f", GENS, ids=lambda f: f.name)
    def test_variants_agree(self, f):
        rng = np.random.default_rng(hash(f.name) % 2 ** 30)
        step = 1e-3
        for _ in range(15):
            dim = int(rng.integers(2, 5))
            rho = 0.7 * random_state(dim, dim, rng) + 0.3 * np.eye(dim) / dim
            X = random_tangent(rho, rng).direction
            Y = random_tangent(rho, rng).direction
            res = second_derivative_check(rho, X, Y, f, step=step)
            spread = max(res.variants) - min(res.variants)
            assert spread <= max(1e-4, 10 * step ** 2)
            assert res.abs_err <= 1e-4

    def test_rank_deficient_base(self):
        # directions confined to the support: the identity restricts there
        rng = np.random.default_rng(3)
        rho = random_state(4, 2, rng)
        X = random_tangent(rho, rng).direction
        Y = random_tangent(rho, rng).direction
        res = second_derivative_check(rho, X, Y, SQUARE, step=0.2)
        assert abs(res.variants[2] - res.analytic) <= 1e-8

    def test_step_error(self):
        with pytest.raises(errors.StepError):
            second_derivative_check(MAX_MIXED, Z_DIR, Z_DIR, XLOGX, step=3.0)

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf, 1e-300])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(errors.StepError):
            second_derivative_check(MAX_MIXED, Z_DIR, Z_DIR, XLOGX, step=step)

    @pytest.mark.parametrize("step", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_step_must_not_be_a_bool(self, step):
        # along the zero direction step=True ran, as a step of 1.0
        zero = np.zeros((2, 2), dtype=complex)
        with pytest.raises(errors.StepError):
            second_derivative_check(MAX_MIXED, zero, zero, XLOGX, step=step)

    def test_requires_curvature(self):
        bare = custom("lin", lambda y: y - 1 + (1 - y), recession=0.0)
        with pytest.raises(errors.UnsupportedGenerator):
            second_derivative_check(MAX_MIXED, Z_DIR, Z_DIR, bare)


def test_check_takes_one_analysis_per_probe(decompositions):
    # one eigensolve of rho, then one stacked d_prime for all 12 probes of a
    # full-rank rho: one eigensolve each of sigma, rho and d for the stack
    rng = np.random.default_rng(5)
    rho = random_state(3, 3, rng)
    X = random_tangent(rho, rng).direction
    Y = random_tangent(rho, rng).direction
    decompositions.clear()
    second_derivative_check(rho, X, Y, XLOGX)
    assert len(decompositions) <= 4


@pytest.mark.parametrize("call", [
    lambda a, b: rld_metric(a, b, b),
    lambda a, b: rld_metric(b, b, a),
    lambda a, b: second_derivative_check(a, b, b, XLOGX),
], ids=["rld_metric-x", "rld_metric-y", "second_derivative_check"])
def test_unequal_shapes_raise_dimension_mismatch(call):
    with pytest.raises(errors.DimensionMismatch):
        call(MAX_MIXED, np.eye(3, dtype=complex) / 3)
