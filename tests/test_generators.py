"""Tests for divergence generators and the classical f-divergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qfdiv import errors
from qfdiv.generators import (LownerForm, builtin, classical_f_divergence,
                              custom, from_spec, lebesgue_atoms,
                              lowner_quadrature_check, recession_value)


def calculus(A, h):
    """Reference functional calculus h(A) = V h(w) V^H, from np.linalg.eigh."""
    w, V = np.linalg.eigh(A)
    return (V * h(w)) @ V.conj().T


ALL_BUILTINS = [
    builtin("xlogx"),
    builtin("square"),
    builtin("neg_power", 0.5),
    builtin("neg_power", 0.3),
    builtin("neg_power", 1.0),
    builtin("power", 1.5),
    builtin("power", 2.0),
    builtin("psi", 1.0),
    builtin("psi", 2.0),
]


@pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda f: f.name)
def test_zero_at_zero(f):
    assert float(f.eval(0.0)) == 0.0


def test_xlogx_is_pinned_bit_for_bit():
    # y log y where y > 0 and 0 elsewhere, NaN and negative y included,
    # to the bit of the formula it replaced (which warned on -inf * 0)
    y = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, np.inf,
                  -0.5, -np.inf, np.nan])
    pos = y > 0
    with np.errstate(invalid="ignore"):
        want = np.where(pos, y * np.log(np.where(pos, y, 1.0)), 0.0)
    xlogx = builtin("xlogx")
    assert xlogx.eval(y).tobytes() == want.tobytes()
    for one, expected in zip(y, want):
        got = xlogx.eval(one)
        assert got.shape == () and got.tobytes() == expected.tobytes()


def test_builtin_values():
    assert float(builtin("xlogx").eval(1.0)) == 0.0
    assert float(builtin("neg_power", 0.5).eval(4.0)) == pytest.approx(-2.0)
    assert float(builtin("psi", 1.0).eval(1.0)) == pytest.approx(-0.5)
    assert float(builtin("square").eval(3.0)) == 9.0


def test_recessions():
    assert recession_value(builtin("xlogx")) == math.inf
    assert recession_value(builtin("square")) == math.inf
    assert recession_value(builtin("power", 1.5)) == math.inf
    assert recession_value(builtin("neg_power", 0.5)) == 0.0
    assert recession_value(builtin("psi", 3.0)) == 0.0
    # the linear boundary case -y has slope -1 at infinity
    assert recession_value(builtin("neg_power", 1.0)) == -1.0


def test_second_derivatives():
    assert builtin("xlogx").second_deriv_at_1 == pytest.approx(1.0)
    assert builtin("square").second_deriv_at_1 == pytest.approx(2.0)
    assert builtin("neg_power", 0.5).second_deriv_at_1 == pytest.approx(0.25)
    assert builtin("power", 1.5).second_deriv_at_1 == pytest.approx(0.75)
    t = 2.0
    assert builtin("psi", t).second_deriv_at_1 == pytest.approx(2 * t / (1 + t) ** 3)


@pytest.mark.parametrize("t", [1e103, 1e200, 1e308])
def test_psi_second_derivative_with_a_far_pole(t):
    # (1 + t) ** 3 overflows a float from t ~ 1e103; 2 t / (1 + t)^3 is
    # about 2 / t^2, which underflows to 0 from t ~ 1e162
    value = builtin("psi", t).second_deriv_at_1
    assert value == pytest.approx(2.0 / t / t, rel=1e-15, abs=0)


@pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda f: f.name)
def test_second_derivative_matches_finite_difference(f):
    h = 1e-5
    fd = float(f.eval(1 + h) - 2 * f.eval(1.0) + f.eval(1 - h)) / h ** 2
    assert fd == pytest.approx(f.second_deriv_at_1, abs=1e-5)


def test_parameter_validation():
    with pytest.raises(errors.UnsupportedGenerator):
        builtin("power", 2.5)  # operator convexity fails past 2
    with pytest.raises(errors.UnsupportedGenerator):
        builtin("neg_power", 0.0)
    with pytest.raises(errors.UnsupportedGenerator):
        builtin("neg_power", 1.2)
    with pytest.raises(errors.UnsupportedGenerator):
        builtin("psi", -1.0)
    with pytest.raises(errors.UnsupportedGenerator):
        builtin("nope")


@pytest.mark.parametrize("make", [
    lambda: builtin("psi", math.nan),
    lambda: builtin("psi", math.inf),
    lambda: from_spec("psi:inf"),
    lambda: from_spec("psi:nan"),
    lambda: custom("rec-nan", lambda y: y * y, recession=math.nan),
    lambda: custom("rec-neg-inf", lambda y: y * y, recession=-math.inf),
    lambda: custom("d2-nan", lambda y: y * y, second_deriv_at_1=math.nan),
    lambda: custom("d2-inf", lambda y: y * y, second_deriv_at_1=math.inf),
    lambda: custom("d2-neg-inf", lambda y: y * y, second_deriv_at_1=-math.inf),
    lambda: builtin("square", -3.0),
    lambda: builtin("xlogx", 7.0),
    lambda: from_spec("square:-3"),
    lambda: from_spec("xlogx:7"),
    lambda: builtin("neg_power", True),
    lambda: builtin("neg_power", np.True_),
    lambda: builtin("psi", True),
    lambda: builtin("psi", np.True_),
    lambda: custom("rec-bool", lambda y: y * y, recession=True),
    lambda: custom("rec-numpy-bool", lambda y: y * y, recession=np.True_),
    lambda: custom("d2-bool", lambda y: y * y, second_deriv_at_1=True),
], ids=["psi-nan", "psi-inf", "spec-psi-inf", "spec-psi-nan",
        "custom-recession-nan", "custom-recession-neg-inf",
        "custom-second-derivative-nan", "custom-second-derivative-inf",
        "custom-second-derivative-neg-inf", "square-with-parameter",
        "xlogx-with-parameter", "spec-square-with-parameter",
        "spec-xlogx-with-parameter", "neg-power-bool", "neg-power-numpy-bool",
        "psi-bool", "psi-numpy-bool", "custom-recession-bool",
        "custom-recession-numpy-bool", "custom-second-derivative-bool"])
def test_parameter_outside_the_family_is_rejected(make):
    # psi:inf read d_max = 0 for every pair, a NaN recession gave a NaN
    # d_max where mass escapes supp sigma, a NaN second derivative gave
    # second_derivative_check analytic = nan, square:-3 read as square, and
    # a bool read as 1: neg_power:1, psi:1 and a recession constant True
    with pytest.raises(errors.UnsupportedGenerator):
        make()


def test_spec_strings():
    assert from_spec("xlogx").name == "xlogx"
    assert from_spec("neg_power:0.5").name == "neg_power:0.5"
    assert from_spec("power:1.5").name == "power:1.5"
    assert from_spec("psi:2.0").name == "psi:2"
    with pytest.raises(errors.UnsupportedGenerator):
        from_spec("neg_power:huh")


def test_custom_generator():
    f = custom("lin", lambda y: 2.0 * y, recession=2.0)
    assert float(f.eval(3.0)) == 6.0
    with pytest.raises(errors.MissingRecession):
        recession_value(custom("nodecl", lambda y: y * y))
    with pytest.raises(errors.UnsupportedGenerator):
        custom("bad", lambda y: y + 1.0)


@pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda f: f.name)
def test_scalar_convexity_chords(f):
    rng = np.random.default_rng(31)
    ys = np.sort(rng.uniform(0.0, 100.0, size=(1000, 3)), axis=1)
    y1, y2, y3 = ys[:, 0], ys[:, 1], ys[:, 2]
    span = y3 - y1
    keep = span > 1e-9
    lam = (y3[keep] - y2[keep]) / span[keep]
    chord = lam * f.eval(y1[keep]) + (1 - lam) * f.eval(y3[keep])
    assert (f.eval(y2[keep]) <= chord + 1e-12 * np.maximum(1, np.abs(chord))).all()


@settings(max_examples=200, derandomize=True)
@given(y1=st.floats(0.0, 100.0), y2=st.floats(0.0, 100.0),
       lam=st.floats(0.0, 1.0))
def test_convexity_hypothesis(y1, y2, lam):
    f = builtin("xlogx")
    mid = lam * y1 + (1 - lam) * y2
    chord = lam * float(f.eval(y1)) + (1 - lam) * float(f.eval(y2))
    assert float(f.eval(mid)) <= chord + 1e-9


@pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda f: f.name)
def test_recession_consistency(f):
    big = 1e8
    rec = recession_value(f)
    if math.isinf(rec):
        # the value must have grown past any finite-slope band and the
        # slope f(Y)/Y must still be climbing
        assert float(f.eval(big)) > 1e3
        assert float(f.eval(big)) / big > float(f.eval(big / 100)) / (big / 100)
    else:
        ratio = float(f.eval(big)) / big
        assert abs(ratio - rec) <= max(1e-3, 0.01 * abs(rec))


class TestClassicalDivergence:
    def test_equal_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert classical_f_divergence(p, p, builtin("xlogx")) == pytest.approx(0.0)
        sq = builtin("square")
        assert classical_f_divergence(p, p, sq) == pytest.approx(p.sum())

    def test_disjoint_supports_infinite(self):
        v = classical_f_divergence([1.0, 0.0], [0.0, 1.0], builtin("xlogx"))
        assert v == math.inf

    def test_disjoint_supports_finite_recession(self):
        v = classical_f_divergence([1.0, 0.0], [0.0, 1.0], builtin("neg_power", 0.5))
        assert v == pytest.approx(float(builtin("neg_power", 0.5).eval(0.0)))

    def test_hand_arithmetic(self):
        v = classical_f_divergence([0.6, 0.4], [0.5, 0.5], builtin("square"))
        assert v == pytest.approx(0.36 / 0.5 + 0.16 / 0.5)
        assert v == pytest.approx(1.04)

    def test_zero_zero_entries_ignored(self):
        v = classical_f_divergence([0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                                   builtin("xlogx"))
        assert v == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(errors.InvalidDistribution):
            classical_f_divergence([-0.1, 1.1], [0.5, 0.5], builtin("square"))
        with pytest.raises(errors.InvalidDistribution):
            classical_f_divergence([1.0], [0.5, 0.5], builtin("square"))
        # the slack for negative entries scales with the weights themselves
        with pytest.raises(errors.InvalidDistribution):
            classical_f_divergence([1e-12, -0.5e-12], [0.5, 0.5], builtin("square"))

    @pytest.mark.parametrize("p, q", [([math.nan, 1.0], [0.0, 1.0]),
                                      ([0.5, 0.5], [math.inf, 1.0]),
                                      ([math.inf, 1.0], [0.0, 1.0])])
    def test_rejects_non_finite_weights(self, p, q):
        with pytest.raises(errors.InvalidDistribution):
            classical_f_divergence(p, q, builtin("xlogx"))

    def test_tangent_line_lower_bound(self):
        # convexity gives D_f(p||q) >= f'(1) tr p + (f(1) - f'(1)) tr q,
        # the scalar engine must respect it (never -inf)
        rng = np.random.default_rng(77)
        h = 1e-6
        for f in ALL_BUILTINS:
            slope = float(f.eval(1 + h) - f.eval(1 - h)) / (2 * h)
            f1 = float(f.eval(1.0))
            for _ in range(50):
                n = int(rng.integers(1, 6))
                p = rng.random(n) * rng.integers(0, 2, n)
                q = rng.random(n) * rng.integers(0, 2, n)
                val = classical_f_divergence(p, q, f)
                bound = slope * p.sum() + (f1 - slope) * q.sum()
                assert val >= bound - 1e-6


class TestLownerForms:
    def test_psi_represents_itself(self):
        # a unit atom at t contributes y/(1+t) + psi_t; cancel the
        # compensator with the linear coefficient to recover psi_t exactly
        t = 2.0
        form = LownerForm(a=-1.0 / (1.0 + t), b=0.0, atoms=((t, 1.0),))
        err = lowner_quadrature_check(builtin("psi", t), form,
                                      np.linspace(0.0, 50.0, 300))
        assert err < 1e-12

    def test_square_is_pure_b_term(self):
        form = LownerForm(a=0.0, b=1.0)
        err = lowner_quadrature_check(builtin("square"), form,
                                      np.linspace(0.0, 10.0, 100))
        assert err == 0.0

    def test_xlogx_lebesgue_quadrature(self):
        form = LownerForm(a=0.0, b=0.0, atoms=lebesgue_atoms())
        grid = np.linspace(0.1, 10.0, 200)
        err = lowner_quadrature_check(builtin("xlogx"), form, grid)
        assert err <= 1e-12

    def test_atoms_match_the_explicit_sum(self):
        atoms = ((0.3, 0.7), (2.0, 1.5), (40.0, 0.25))
        y = np.linspace(0.0, 20.0, 41)
        explicit = 0.5 * y - 0.1 * y * y
        for t, w in atoms:
            explicit = explicit + w * (y / (1.0 + t) - y / (y + t))
        for given in (atoms, np.array(atoms)):
            got = LownerForm(a=0.5, b=-0.1, atoms=given).eval(y)
            np.testing.assert_allclose(got, explicit, rtol=1e-12, atol=0.0)
        assert LownerForm(0.5, -0.1, atoms).eval(2.0) == pytest.approx(
            explicit[4], rel=1e-12)

    def test_lebesgue_atoms_are_rows(self):
        atoms = lebesgue_atoms()
        assert atoms.shape == (200, 2)
        assert atoms[0, 0] == pytest.approx(1e-16) and atoms[-1, 0] == pytest.approx(1e16)
        # the trapezoid rule in log t: w = t h with one step h
        h = atoms[:, 1] / atoms[:, 0]
        np.testing.assert_allclose(h, np.log(1e32) / 199, rtol=1e-14)

    def test_xlogx_integral_identity_adaptive_oracle(self):
        # independent check of the identity behind the quadrature:
        # integral of y/(1+t) - y/(y+t) over t in (0, inf) equals y log y
        for y in (0.3, 1.0, 2.5, 7.0):
            val, est_err = quad(lambda t: y / (1 + t) - y / (y + t), 0, np.inf)
            assert val == pytest.approx(y * math.log(y), abs=1e-9)


class TestOperatorLevelProperties:
    def _random_psd(self, rng, dim):
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return G @ G.conj().T

    def _loewner_leq(self, A, B, tol):
        return np.linalg.eigvalsh(B - A).min() >= -tol

    @pytest.mark.parametrize("f", [b for b in ALL_BUILTINS if b.operator_convex],
                             ids=lambda f: f.name)
    def test_operator_jensen_compressions(self, f):
        # f(V† A V) <= V† f(A) V for isometries (unital CP adjoints)
        rng = np.random.default_rng(hash(f.name) % 2 ** 32)
        for _ in range(25):
            big, small = 5, 3
            G = rng.standard_normal((big, small)) + 1j * rng.standard_normal((big, small))
            V, _ = np.linalg.qr(G)
            A = self._random_psd(rng, big)
            lhs = calculus(V.conj().T @ A @ V, f.eval)
            rhs = V.conj().T @ calculus(A, f.eval) @ V
            assert self._loewner_leq(lhs, rhs, 1e-9 * max(1, np.abs(rhs).max()))

    @pytest.mark.parametrize("f", [b for b in ALL_BUILTINS if b.operator_convex],
                             ids=lambda f: f.name)
    def test_operator_convexity_contractions(self, f):
        # f(C† A C) <= C† f(A) C for ||C|| <= 1
        rng = np.random.default_rng(hash(f.name) % 2 ** 31)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            C = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            C /= max(1.0, np.linalg.norm(C, 2)) * 1.0000001
            A = self._random_psd(rng, dim)
            lhs = calculus(C.conj().T @ A @ C, f.eval)
            rhs = C.conj().T @ calculus(A, f.eval) @ C
            assert self._loewner_leq(lhs, rhs, 1e-9 * max(1, np.abs(rhs).max()))

    def test_psi_operator_monotone_decreasing(self):
        rng = np.random.default_rng(91)
        psi = builtin("psi", 1.5)
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            A = self._random_psd(rng, dim)
            B = A + self._random_psd(rng, dim)
            fa = calculus(A, psi.eval)
            fb = calculus(B, psi.eval)
            assert self._loewner_leq(fb, fa, 1e-10)
