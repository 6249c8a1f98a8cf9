"""Tests for Kraus channels, Lambda_sigma, the V-operator, and equality."""

import dataclasses
import math

import numpy as np
import pytest

from qfdiv import errors
from qfdiv.channels import (KrausChannel, depolarizing_channel,
                            dpi_check, embedding_channel, equality_check,
                            lambda_sigma, random_channel, random_state,
                            unitary_channel, v_operator)
from qfdiv.divergence import analyze
from qfdiv.generators import builtin
from qfdiv.linalg import (_rng, gen_inverse_sqrt, matrix_sqrt, projector,
                          support_projector)
from qfdiv.rld import random_tangent
from qfdiv.suites import _ill_conditioned_pair, trial_rng

XLOGX = builtin("xlogx")
SQUARE = builtin("square")
HALF = builtin("neg_power", 0.5)
GENS = [XLOGX, SQUARE, HALF, builtin("power", 1.5)]


def haar_unitary(rng, dim):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d)).conj()


def derivative(rho, sigma):
    """d = sigma^{-1/2} rho sigma^{-1/2} of a dominated pair, formed densely."""
    assert analyze(rho, sigma).dominated
    S = gen_inverse_sqrt(sigma)
    return S @ rho @ S


def calculus(A, h):
    """Reference functional calculus h(A) = V h(w) V^H, from np.linalg.eigh."""
    w, V = np.linalg.eigh(A)
    return (V * h(w)) @ V.conj().T


def compose(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """second after first, as one Kraus family."""
    ops = [K2 @ K1 for K1 in first.kraus for K2 in second.kraus]
    return KrausChannel(ops)


def rand_channel(rng, din, dout=None):
    """Random channel with an environment large enough for an isometry."""
    dout = dout or din
    env_min = -(-din // dout)
    env = int(rng.integers(env_min, env_min + 3))
    return random_channel(din, dout, env, rng)


class TestKrausBasics:
    def test_trace_preservation_enforced(self):
        with pytest.raises(errors.InvalidOperator):
            KrausChannel([0.5 * np.eye(2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_kraus_rejected(self, bad):
        with pytest.raises(errors.InvalidOperator):
            KrausChannel([[[bad, 0.0], [0.0, 1.0]]])

    def test_empty_or_non_matrix_operator_rejected(self):
        for make in (lambda: KrausChannel([np.zeros((0, 0))]),
                     lambda: KrausChannel([np.zeros((2, 0))]),
                     lambda: KrausChannel([np.zeros(3)]),
                     lambda: KrausChannel([np.zeros((2, 2, 2))]),
                     lambda: embedding_channel(0, 0),
                     lambda: embedding_channel(-1, 2)):
            with pytest.raises(errors.InvalidOperator):
                make()
        with pytest.raises(errors.DimensionMismatch):
            depolarizing_channel(0, 0.5)

    @pytest.mark.parametrize("make, error", [
        (lambda: KrausChannel([]), errors.InvalidOperator),
        (lambda: KrausChannel([np.eye(2), np.eye(3)]), errors.DimensionMismatch),
        (lambda: KrausChannel([np.eye(2), np.eye(2)[:, :1]]),
         errors.DimensionMismatch),
        (lambda: depolarizing_channel(2, -0.1), errors.InvalidOperator),
        (lambda: depolarizing_channel(2, 1.5), errors.InvalidOperator),
        (lambda: depolarizing_channel(2, math.nan), errors.InvalidOperator),
        (lambda: embedding_channel(3, 2), errors.DimensionMismatch),
        (lambda: random_channel(0, 2, 1, 0), errors.DimensionMismatch),
        (lambda: random_channel(2, 2, 0, 0), errors.DimensionMismatch),
        (lambda: random_channel(3, 2, 1, 0), errors.DimensionMismatch),
        # a bool noise read as 1, the fully depolarizing channel
        (lambda: depolarizing_channel(2, True), errors.InvalidOperator),
        (lambda: depolarizing_channel(2, np.True_), errors.InvalidOperator),
    ], ids=["kraus-empty-family", "kraus-square-shapes-differ",
            "kraus-column-counts-differ", "depolarizing-noise-negative",
            "depolarizing-noise-above-one", "depolarizing-noise-nan",
            "embedding-shrinks", "random-dim-zero", "random-env-zero",
            "random-env-too-small", "depolarizing-noise-bool",
            "depolarizing-noise-numpy-bool"])
    def test_constructor_rejects(self, make, error):
        with pytest.raises(error):
            make()

    def test_kraus_is_one_stack(self):
        # one complex (r, dim_out, dim_in) array; depolarizing holds the
        # identity, then the matrix units |i><j| in row-major order
        ch = depolarizing_channel(2, 0.2)
        assert ch.kraus.dtype == complex and ch.kraus.shape == (5, 2, 2)
        np.testing.assert_array_equal(ch.kraus[0], math.sqrt(0.8) * np.eye(2))
        for n, (i, j) in enumerate(np.ndindex(2, 2)):
            E = np.zeros((2, 2))
            E[i, j] = math.sqrt(0.1)
            np.testing.assert_array_equal(ch.kraus[1 + n], E)
        assert depolarizing_channel(2, 0.0).kraus.shape == (1, 2, 2)
        assert depolarizing_channel(2, 1.0).kraus.shape == (4, 2, 2)
        assert embedding_channel(2, 3).kraus.shape == (1, 3, 2)
        assert random_channel(2, 3, 4, seed=0).kraus.shape == (4, 3, 2)
        # a stack is itself a Kraus family
        again = KrausChannel(ch.kraus)
        np.testing.assert_array_equal(again.kraus, ch.kraus)
        assert (again.dim_in, again.dim_out) == (2, 2)

    def test_dimensions_are_read_from_the_stack(self):
        # the dims were fields of their own: KrausChannel(eye(2)[None], 3, 3)
        # built, and apply(eye(3)) failed in numpy's matmul
        stack = np.eye(3, 2, dtype=complex)[None]
        ch = KrausChannel(stack)
        assert (ch.dim_in, ch.dim_out) == (2, 3)
        assert [f.name for f in dataclasses.fields(KrausChannel)] == ["kraus"]
        with pytest.raises(TypeError):
            KrausChannel(np.eye(2, dtype=complex)[None], 3, 3)
        with pytest.raises(errors.DimensionMismatch):
            ch.apply(np.eye(3))

    @pytest.mark.parametrize("kraus", [
        np.eye(2),                                   # 2-D: IndexError on dim_in
        np.zeros((0, 2, 2), dtype=complex),
        2 * np.eye(2, dtype=complex)[None],          # tr of the image of 1/2 was 4
    ], ids=["two-dim", "empty", "not-trace-preserving"])
    def test_direct_construction_is_checked(self, kraus):
        with pytest.raises(errors.InvalidOperator):
            KrausChannel(kraus)

    @pytest.mark.parametrize("make", [
        lambda: random_state(2.5, 1, 0), lambda: random_state(2, 1.0, 0),
        lambda: random_state(True, 1, 0), lambda: random_channel(2, 2.0, 1, 0),
        lambda: random_channel(True, 1, 1, 0), lambda: random_channel(2, 2, 1.0, 0),
        lambda: embedding_channel(2, 3.0), lambda: embedding_channel(True, 2),
        lambda: depolarizing_channel(2.5, 0.1),
        lambda: depolarizing_channel(True, 0.1)],
        ids=["state-float-dim", "state-float-rank", "state-bool-dim",
             "random-float-dim-out", "random-bool-dim-in", "random-float-env",
             "embedding-float-dim-out", "embedding-bool-dim-in",
             "depolarizing-float-dim", "depolarizing-bool-dim"])
    def test_dimensions_must_be_integers(self, make):
        # a float reached numpy's shape arguments and failed there with a
        # TypeError; a bool read as 0 or 1
        with pytest.raises(errors.DimensionMismatch):
            make()
        assert random_state(np.int64(2), np.int64(1), 0).shape == (2, 2)

    def test_stack_is_a_read_only_copy(self):
        # a stack kept by reference could be scaled into a map with
        # tr of the image of 1/2 equal to 4 after the check
        stack = np.eye(2, dtype=complex)[None].copy()
        ch = KrausChannel(stack)
        stack *= 2
        np.testing.assert_array_equal(ch.kraus[0], np.eye(2))
        with pytest.raises(ValueError):
            ch.kraus[0] *= 2
        assert np.trace(ch.apply(np.eye(2) / 2)).real == 1.0
        with pytest.raises(errors.DimensionMismatch):
            KrausChannel([np.eye(2), np.eye(3)])

    def test_identity(self):
        rng = np.random.default_rng(0)
        A = random_state(2, 2, rng)
        np.testing.assert_allclose(unitary_channel(np.eye(2)).apply(A), A)

    def test_unitary_action(self):
        rng = np.random.default_rng(1)
        U = haar_unitary(rng, 3)
        A = random_state(3, 3, rng)
        np.testing.assert_allclose(unitary_channel(U).apply(A), U @ A @ U.conj().T)

    def test_fully_depolarizing_direct_sum_oracle(self):
        rng = np.random.default_rng(2)
        dim = 3
        ch = depolarizing_channel(dim, 1.0)
        rho = random_state(dim, dim, rng)
        # direct summation over the |i><j| family
        acc = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            for j in range(dim):
                E = np.zeros((dim, dim), dtype=complex)
                E[i, j] = 1.0 / math.sqrt(dim)
                acc += E @ rho @ E.conj().T
        np.testing.assert_allclose(ch.apply(rho), acc, atol=1e-12)
        np.testing.assert_allclose(ch.apply(rho), np.eye(dim) / dim, atol=1e-12)

    def test_trace_and_adjoint_unitality(self):
        rng = np.random.default_rng(3)
        for i in range(20):
            din, dout = 3, int(rng.integers(2, 5))
            ch = rand_channel(rng, din, dout)
            A = random_state(din, din, rng)
            assert np.trace(ch.apply(A)).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(ch.apply(A)).min() > -1e-10
            np.testing.assert_allclose(ch.adjoint_apply(np.eye(dout)),
                                       np.eye(din), atol=1e-10)

    def test_dimension_mismatch(self):
        ch = embedding_channel(2, 4)
        with pytest.raises(errors.DimensionMismatch):
            ch.apply(np.eye(3))
        with pytest.raises(errors.DimensionMismatch):
            ch.adjoint_apply(np.eye(2))


class TestRandomObjects:
    def test_determinism(self):
        a = random_channel(3, 3, 2, seed=[9, 1])
        b = random_channel(3, 3, 2, seed=[9, 1])
        for K1, K2 in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(K1, K2)
        np.testing.assert_array_equal(random_state(4, 2, seed=7),
                                      random_state(4, 2, seed=7))

    def test_env_one_is_unitary(self):
        ch = random_channel(3, 3, 1, seed=5)
        assert len(ch.kraus) == 1
        U = ch.kraus[0]
        np.testing.assert_allclose(U @ U.conj().T, np.eye(3), atol=1e-12)

    def test_full_rank_state(self):
        rho = random_state(4, 4, seed=11)
        assert np.linalg.eigvalsh(rho).min() > 0

    def test_rank_validation(self):
        with pytest.raises(errors.DimensionMismatch):
            random_state(3, 4, seed=0)

    @pytest.mark.parametrize("seed", [
        1.5, True, np.bool_(True), np.float64(1.0), -1, 2 ** 64, np.int64(-1),
        (1, 1.5), (1, -1), [1, True], (1, 2 ** 64)],
        ids=["float", "bool", "numpy-bool", "numpy-float", "negative",
             "two-to-64", "numpy-negative", "pair-float", "pair-negative",
             "pair-bool", "pair-two-to-64"])
    @pytest.mark.parametrize("draw", [
        lambda seed: random_state(2, 1, seed),
        lambda seed: random_channel(2, 2, 1, seed),
        lambda seed: random_tangent(np.eye(2) / 2, seed),
        lambda seed: trial_rng(seed, 0),
    ], ids=["random_state", "random_channel", "random_tangent", "trial_rng"])
    def test_bad_seed_is_rejected(self, draw, seed):
        # 1.5 and True were truncated to seed 1; -1 and 2**64 raised
        # numpy's OverflowError
        with pytest.raises(ValueError, match="seed"):
            draw(seed)

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1, np.uint64(2 ** 64 - 1),
                                      np.int32(5), (3, 4), [9, 1]])
    def test_valid_seed_keys_philox(self, seed):
        key = np.asarray(seed, dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(4)
        np.testing.assert_array_equal(_rng(seed).standard_normal(4), want)


class TestLambdaSigma:
    def test_unital_on_support(self):
        rng = np.random.default_rng(4)
        for rank in (3, 2):
            sigma = random_state(3, rank, rng)
            ch = random_channel(3, 3, 2, rng)
            target = support_projector(ch.apply(sigma))
            np.testing.assert_allclose(lambda_sigma(ch, sigma, np.eye(3)),
                                       target, atol=1e-9)
            np.testing.assert_allclose(
                lambda_sigma(ch, sigma, support_projector(sigma)), target,
                atol=1e-9)

    def test_intertwines_derivatives(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            sigma = random_state(dim, dim, rng)
            rho = random_state(dim, dim, rng)
            ch = rand_channel(rng, dim, int(rng.integers(2, 5)))
            lhs = lambda_sigma(ch, sigma, derivative(rho, sigma))
            rhs = derivative(ch.apply(rho), ch.apply(sigma))
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_zero_sigma(self):
        with pytest.raises(errors.ZeroSigma):
            lambda_sigma(unitary_channel(np.eye(2)), np.zeros((2, 2)), np.eye(2))

    def test_rejects_z_of_wrong_shape(self):
        ch = embedding_channel(2, 3)
        with pytest.raises(errors.DimensionMismatch):
            lambda_sigma(ch, np.eye(2) / 2, np.eye(3))


class TestSupportPropagation:
    def test_channels_preserve_domination(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            sigma = random_state(dim, dim, rng)
            pi = support_projector(random_state(dim, int(rng.integers(1, dim + 1)), rng))
            raw = pi @ random_state(dim, dim, rng) @ pi
            rho = raw / np.trace(raw).real
            sigma = 0.5 * sigma + 0.5 * rho  # ensures supp rho <= supp sigma
            ch = random_channel(dim, dim, 2, rng)
            assert analyze(rho, sigma).dominated
            assert analyze(ch.apply(rho), ch.apply(sigma)).dominated


class TestChannelJensen:
    def test_operator_inequality(self):
        rng = np.random.default_rng(7)
        for f in GENS:
            for _ in range(10):
                dim = 3
                sigma = random_state(dim, dim, rng)
                rho = random_state(dim, dim, rng)
                ch = random_channel(dim, dim, 2, rng)
                d = derivative(rho, sigma)
                s_half = matrix_sqrt(sigma)
                lhs = ch.apply(s_half @ calculus(d, f.eval) @ s_half)
                out_sigma = ch.apply(sigma)
                d_out = derivative(ch.apply(rho), out_sigma)
                o_half = matrix_sqrt(out_sigma)
                rhs = o_half @ calculus(d_out, f.eval) @ o_half
                assert np.linalg.eigvalsh(lhs - rhs).min() > -1e-8


class TestDpi:
    def test_unitary_is_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            rho = random_state(dim, dim, rng)
            sigma = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            ch = unitary_channel(haar_unitary(rng, dim))
            for f in GENS:
                res = dpi_check(rho, sigma, ch, f)
                assert res.holds
                if math.isfinite(res.value_in):
                    assert abs(res.value_in - res.value_out) <= 1e-9
                else:
                    assert math.isinf(res.value_out)

    def test_fully_depolarizing_collapses(self):
        rng = np.random.default_rng(9)
        rho = random_state(3, 3, rng)
        sigma = random_state(3, 3, rng)
        res = dpi_check(rho, sigma, depolarizing_channel(3, 1.0), XLOGX)
        assert res.value_out == pytest.approx(0.0, abs=1e-10)
        assert res.holds

    def test_equal_pair_fixed_point(self):
        rng = np.random.default_rng(10)
        sigma = random_state(3, 3, rng)
        ch = random_channel(3, 3, 2, rng)
        res = dpi_check(sigma, sigma, ch, SQUARE)
        assert res.value_in == pytest.approx(1.0, abs=1e-9)
        assert res.value_out == pytest.approx(1.0, abs=1e-9)

    def test_holds_across_random_ensembles(self):
        rng = np.random.default_rng(11)
        for i in range(120):
            dim = 2 + i % 3
            rho = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            sigma = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            ch = rand_channel(rng, dim, int(rng.integers(2, 5)))
            assert dpi_check(rho, sigma, ch, GENS[i % 4]).holds


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("check", [dpi_check, equality_check],
                         ids=["dpi_check", "equality_check"])
def test_bad_tolerance_is_rejected(check, tol):
    # under the identity channel value_in == value_out, yet a NaN or negative
    # tol read as a failed check and an infinite one passed every comparison
    rng = np.random.default_rng(12)
    rho, sigma = random_state(3, 3, rng), random_state(3, 2, rng)
    with pytest.raises(ValueError, match="tol must be finite"):
        check(rho, sigma, KrausChannel([np.eye(3)]), HALF, tol)


@pytest.mark.parametrize("c", [1e-14, 1e-6, 1.0, 1e4, 1e10])
class TestVerdictsAreScaleFree:
    """Both checks judge (c rho, c sigma) as they judge (rho, sigma): the
    value and weight verdicts compare at s = max(tr rho, tr sigma)."""

    def pairs(self, c):
        for i in range(20):
            yield (c * random_state(3, 3, (i, 0)), c * random_state(3, 3, (i, 1)),
                   random_channel(3, 3, 1, (i, 2)))

    def test_unitary_preserves(self, c):
        for rho, sigma, U in self.pairs(c):
            assert dpi_check(rho, sigma, U, XLOGX).holds
            rep = equality_check(rho, sigma, U, XLOGX)
            assert rep.equal and rep.p_match and rep.q_match

    def test_depolarizing_does_not(self, c):
        ch = depolarizing_channel(3, 0.3)
        for rho, sigma, _ in self.pairs(c):
            rep = equality_check(rho, sigma, ch, XLOGX)
            assert not (rep.equal or rep.p_match or rep.q_match)


class TestVOperator:
    def test_maps_output_root_to_input_root(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            sigma = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            ch = rand_channel(rng, dim, int(rng.integers(2, 5)))
            got = v_operator(ch, sigma, matrix_sqrt(ch.apply(sigma)))
            assert np.abs(got - matrix_sqrt(sigma)).max() < 1e-9

    def test_unitary_channel_is_isometry(self):
        rng = np.random.default_rng(13)
        U = haar_unitary(rng, 3)
        sigma = random_state(3, 3, rng)
        for _ in range(10):
            Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            out = v_operator(unitary_channel(U), sigma, Z)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(Z),
                                                        abs=1e-9)

    def test_hilbert_schmidt_contraction(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            dout = int(rng.integers(2, 5))
            sigma = random_state(dim, dim, rng)
            ch = rand_channel(rng, dim, dout)
            Z = rng.standard_normal((dout, dout)) + 1j * rng.standard_normal((dout, dout))
            out = v_operator(ch, sigma, Z)
            assert np.linalg.norm(out) <= np.linalg.norm(Z) + 1e-9

    def test_rejects_z_of_wrong_shape(self):
        ch = embedding_channel(2, 3)
        with pytest.raises(errors.DimensionMismatch):
            v_operator(ch, np.eye(2) / 2, np.eye(2))

    def test_zero_sigma(self):
        # the input contract of lambda_sigma: sigma = 0 has no weighted map
        with pytest.raises(errors.ZeroSigma):
            v_operator(unitary_channel(np.eye(2)), np.zeros((2, 2)), np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_z(self, bad):
        Z = np.eye(2, dtype=complex)
        Z[0, 1] = bad
        with pytest.raises(errors.InvalidOperator):
            v_operator(unitary_channel(np.eye(2)), np.eye(2) / 2, Z)

    def test_preservation_intertwining(self):
        # for a value-preserving channel, V carries the weighted functional
        # calculus of the image derivative back to that of the original:
        # V(Lambda(sigma)^{1/2} h(d')) = sigma^{1/2} h(d)
        rng = np.random.default_rng(20)
        U = haar_unitary(rng, 3)
        ch = unitary_channel(U)
        sigma = random_state(3, 3, rng)
        rho = random_state(3, 3, rng)
        d = derivative(rho, sigma)
        d_out = derivative(ch.apply(rho), ch.apply(sigma))
        out_half = matrix_sqrt(ch.apply(sigma))
        for h in (lambda y: y, lambda y: y * y / (1 + y)):
            lhs = v_operator(ch, sigma, out_half @ calculus(d_out, h))
            rhs = matrix_sqrt(sigma) @ calculus(d, h)
            assert np.abs(lhs - rhs).max() < 1e-9


class TestEqualityCheck:
    def test_unitary_full_report(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            rho = random_state(dim, dim, rng)
            sigma = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            rep = equality_check(rho, sigma, unitary_channel(haar_unitary(rng, dim)),
                                 HALF)
            assert rep.equal
            assert rep.multiplicative_domain_ok
            assert rep.reverse_test_preserved
            assert rep.p_match and rep.q_match

    @pytest.mark.parametrize("f", [XLOGX, SQUARE], ids=lambda f: f.name)
    def test_dim_64_check_forms_one_image_atom_at_a_time(self, f):
        import tracemalloc
        rho, sigma = random_state(64, 64, 1), random_state(64, 64, 101)
        ch = random_channel(64, 64, 1, 7)      # unitary: 64 image atoms
        tracemalloc.start()
        try:
            rep = equality_check(rho, sigma, ch, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.equal and rep.reverse_test_preserved
        # the 64 image atoms as one tuple took 4 MB, for a peak of 5.1 MB;
        # read one at a time the peak is 1.1 MB (xlogx) and 0.9 MB (square)
        assert peak < 2_000_000

    def test_prepare_then_discard_ancilla_is_identity(self):
        rng = np.random.default_rng(17)
        dim, anc = 3, 2
        prepare = KrausChannel([np.kron(np.eye(dim),
                                        np.eye(anc)[:, [0]])])
        discard = KrausChannel([np.kron(np.eye(dim), np.eye(anc)[[j], :])
                                for j in range(anc)])
        ch = compose(prepare, discard)
        rho = random_state(dim, dim, rng)
        sigma = random_state(dim, dim, rng)
        np.testing.assert_allclose(ch.apply(rho), rho, atol=1e-12)
        rep = equality_check(rho, sigma, ch, XLOGX)
        assert rep.equal and rep.reverse_test_preserved

    def test_embedding_preserves(self):
        rng = np.random.default_rng(18)
        rho = random_state(3, 3, rng)
        sigma = random_state(3, 2, rng)
        rep = equality_check(rho, sigma, embedding_channel(3, 5), HALF)
        assert rep.equal and rep.reverse_test_preserved
        assert rep.p_match and rep.q_match

    def test_depolarizing_strict_decrease(self):
        rho = np.array([[0.75, 0.15], [0.15, 0.25]], dtype=complex)
        sigma = np.array([[0.4, -0.1j], [0.1j, 0.6]], dtype=complex)
        rep = equality_check(rho, sigma, depolarizing_channel(2, 0.3), SQUARE)
        assert not rep.equal
        assert rep.value_in - rep.value_out >= 1e-3
        # square has no representing measure on (0, inf): sub-check skipped
        assert rep.multiplicative_domain_ok is None

    @pytest.mark.parametrize("f", [HALF, XLOGX, builtin("power", 1.5)],
                             ids=lambda f: f.name)
    def test_identity_preserves_ill_conditioned_pairs(self, f):
        # pair and image are one analysis, so every verdict must hold even
        # where cond(sigma) times eps reaches 10*tol
        for s in range(200):
            n = 2 + s % 4
            rho, sigma = _ill_conditioned_pair(np.random.default_rng(s), n,
                                               inside=True)
            try:
                rep = equality_check(rho, sigma, KrausChannel([np.eye(n)]), f)
            except errors.InfiniteDivergence:
                continue
            assert rep.equal and rep.multiplicative_domain_ok, s
            assert rep.reverse_test_preserved and rep.p_match and rep.q_match, s

    def test_embedding_keeps_both_readings_of_equality(self):
        # an atomwise-preserved test with equal values must also give the
        # multiplicative verdict: both read the same equality condition
        for s in range(200):
            n = 2 + s % 4
            rho, sigma = _ill_conditioned_pair(
                np.random.default_rng(20000 + s), n, inside=True)
            rep = equality_check(rho, sigma, embedding_channel(n, n + 1), HALF)
            if rep.reverse_test_preserved and rep.p_match and rep.equal:
                assert rep.multiplicative_domain_ok, s

    @pytest.mark.parametrize("noise", [1e-9, 1e-3])
    @pytest.mark.parametrize("f", [HALF, XLOGX, builtin("power", 1.5)],
                             ids=lambda f: f.name)
    def test_noise_on_the_kernel_of_sigma_breaks_the_projector_identity(
            self, f, noise):
        # depolarizing noise gives Lambda(sigma) weight noise/3 on the kernel
        # of sigma, and Lambda_sigma(P_x) weight of order one there, which no
        # projection of the image with d'_h near d_x covers; the mismatch
        # weighed by Lambda(sigma) instead would be of order noise
        U = haar_unitary(np.random.default_rng(21), 3)
        rho = U @ np.diag([0.3, 0.7, 0.0]) @ U.conj().T
        sigma = U @ np.diag([0.5, 0.5, 0.0]) @ U.conj().T
        assert equality_check(rho, sigma, depolarizing_channel(3, 0.0),
                              f).multiplicative_domain_ok
        rep = equality_check(rho, sigma, depolarizing_channel(3, noise), f)
        assert rep.multiplicative_domain_ok is False
        assert rep.equal == (noise < 1e-8)

    def test_verdict_is_the_projector_identity_under_unitaries(self):
        # reference: Lambda_sigma(P_x) by lambda_sigma against the sum of the
        # image's projectors; a unitary preserves d_max exactly, but on these
        # pairs the projectors carry roundoff near 10*tol, so only margins
        # of a factor 2 either side of that threshold are judged
        tol, judged = 1e-8, 0
        for s in range(200):
            n = 2 + s % 4
            rho, sigma = _ill_conditioned_pair(
                np.random.default_rng(20000 + s), n, inside=True)
            ch = random_channel(n, n, 1, s)
            pair = analyze(rho, sigma)
            image = analyze(ch.apply(pair.rho), ch.apply(pair.sigma))
            # each cluster of d, and of d', is an atom of the minimal test
            # with q > 0 (the escaped atom, with q = 0, is none)
            rt_in, rt_out = pair.reverse_test(), image.reverse_test()
            groups_out = [slice(a, a + k) for a, k, q in
                          zip(rt_out.starts, rt_out.sizes, rt_out.q) if q > 0]
            # d's eigenvectors sigma^{-1/2} X for the factor X = sigma^{1/2} U
            V_in = gen_inverse_sqrt(pair.sigma) @ pair.factor
            V_out = gen_inverse_sqrt(image.sigma) @ image.factor
            err = 0.0
            for a, k, q in zip(rt_in.starts, rt_in.sizes, rt_in.q):
                if q == 0.0:
                    continue
                g = slice(a, a + k)
                dx = pair.evals[g].mean()
                if dx == 0.0:
                    continue
                rhs = sum((projector(V_out[:, h])
                           for h in groups_out
                           if abs(image.evals[h].mean() - dx)
                           <= max(10 * tol, tol * dx)),
                          start=np.zeros_like(image.sigma))
                lhs = lambda_sigma(ch, pair.sigma,
                                   projector(V_in[:, g]))
                err = max(err, float(np.abs(lhs - rhs).max()))
            rep = equality_check(rho, sigma, ch, HALF, tol)
            if err < 5 * tol or err > 20 * tol:
                judged += 1
                assert rep.multiplicative_domain_ok == (err < 5 * tol), s
        assert judged >= 180

    def test_infinite_divergence_rejected(self):
        ket0 = np.array([1, 0], dtype=complex)
        ketp = np.array([1, 1], dtype=complex) / np.sqrt(2)
        with pytest.raises(errors.InfiniteDivergence):
            equality_check(np.outer(ket0, ket0), np.outer(ketp, ketp),
                           unitary_channel(np.eye(2)), XLOGX)

    def test_commutation_corollary_for_dephasing(self):
        # whenever dephasing (the measurement in the computational basis)
        # preserves the divergence on this ensemble, the pair must commute
        rng = np.random.default_rng(19)
        seen_equal = 0
        for i in range(40):
            dim = 2 + i % 2
            ch = KrausChannel([np.diag(e) for e in np.eye(dim)])
            if i % 2 == 0:
                p = rng.random(dim) + 0.05
                q = rng.random(dim) + 0.05
                rho = np.diag(p / p.sum()).astype(complex)
                sigma = np.diag(q / q.sum()).astype(complex)
            else:
                rho = random_state(dim, dim, rng)
                sigma = random_state(dim, dim, rng)
            rep = equality_check(rho, sigma, ch, HALF)
            if rep.equal:
                seen_equal += 1
                assert np.linalg.norm(rho @ sigma - sigma @ rho) <= 1e-8
        assert seen_equal >= 10  # the diagonal half of the ensemble
