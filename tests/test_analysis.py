"""Tests for the one-pass pair analysis and the work it saves."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qfdiv
import qfdiv.channels
import qfdiv.cli
from qfdiv import divergence, generators, linalg, oracles
from qfdiv.channels import (dpi_check, embedding_channel, equality_check,
                            unitary_channel)
from qfdiv.divergence import (PairAnalysis, ReverseTest, analyze, d_max,
                              d_prime, minimal_reverse_test,
                              reverse_test_value)
from qfdiv.errors import (DimensionMismatch, InvalidDistribution,
                          InvalidOperator, NotPSD, ZeroSigma)
from qfdiv.generators import builtin
from qfdiv.matio import channel_to_json, save_matrix
from qfdiv.suites import SuiteConfig, _ill_conditioned_pair, run_suite

GENS = [builtin("xlogx"), builtin("square"), builtin("neg_power", 0.5),
        builtin("power", 1.5)]


def random_state(rng, dim, rank=None):
    rank = rank or dim
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def dominated_pair():
    rng = np.random.default_rng(30)
    return random_state(rng, 4), random_state(rng, 4)


def schur_pair():
    rng = np.random.default_rng(31)
    return random_state(rng, 4), random_state(rng, 4, rank=2)


def count_analyses(monkeypatch, module):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return analyze(*args, **kwargs)
    monkeypatch.setattr(module, "analyze", counted)
    return calls


def count_pair_analyses(monkeypatch):
    """Records the shape of rho at each call of divergence._analysis, the
    analysis body, under both names it is called by."""
    calls = []
    original = divergence._analysis

    def counted(rho, sigma):
        calls.append(rho.shape)
        return original(rho, sigma)
    monkeypatch.setattr(divergence, "_analysis", counted)
    monkeypatch.setattr(qfdiv.channels, "_analysis", counted)
    return calls


class TestEigensolveCount:
    @pytest.mark.parametrize("make, ceiling", [(dominated_pair, 3),
                                               (schur_pair, 4)])
    def test_d_max(self, decompositions, make, ceiling):
        rho, sigma = make()
        d_max(rho, sigma, builtin("neg_power", 0.5))
        assert 0 < len(decompositions) <= ceiling

    @pytest.mark.parametrize("make, ceiling", [(dominated_pair, 3),
                                               (schur_pair, 4)])
    def test_minimal_reverse_test(self, decompositions, make, ceiling):
        rho, sigma = make()
        minimal_reverse_test(rho, sigma)
        assert 0 < len(decompositions) <= ceiling

    def test_dominated_dim_128(self, decompositions, inverse_calls):
        # one Cholesky of sigma and its block inverse stand for its eigh,
        # one of rho for its eigvalsh
        rng = np.random.default_rng(128)
        rho, sigma = random_state(rng, 128), random_state(rng, 128)
        decompositions.clear()
        d_max(rho, sigma, builtin("neg_power", 0.5))
        assert decompositions == [("cholesky", (128, 128)), *inverse_calls(128),
                                  ("cholesky", (128, 128)), ("eigh", (128, 128))]

    def test_equality_check_analyses_pair_and_image_once(self, monkeypatch):
        calls = count_pair_analyses(monkeypatch)
        rho, sigma = schur_pair()
        U, _ = np.linalg.qr(np.random.default_rng(32).standard_normal((4, 4)))
        rep = equality_check(rho, sigma, unitary_channel(U),
                             builtin("neg_power", 0.5))
        assert rep.equal and rep.reverse_test_preserved
        assert len(calls) == 2

    def test_second_channel_reads_the_kept_pair(self, monkeypatch):
        # the first image does not replace the kept pair, so the second
        # check analyses only its own image
        calls = count_pair_analyses(monkeypatch)
        rho, sigma = schur_pair()
        U, _ = np.linalg.qr(np.random.default_rng(32).standard_normal((4, 4)))
        for ch in (unitary_channel(U), embedding_channel(4, 5)):
            rep = equality_check(rho, sigma, ch, builtin("neg_power", 0.5))
            assert rep.equal and rep.reverse_test_preserved
        assert calls == [(4, 4), (4, 4), (5, 5)]

    def test_dpi_check_keeps_the_pair(self, monkeypatch):
        # dpi_check reads the pair and its image as equality_check does: the
        # image does not replace the kept pair, so d_max on the same arrays
        # under another generator makes no analysis
        calls = count_pair_analyses(monkeypatch)
        rho, sigma = schur_pair()
        ch = embedding_channel(4, 5)
        assert dpi_check(rho, sigma, ch, builtin("neg_power", 0.5)).holds
        assert calls == [(4, 4), (5, 5)]
        d_max(rho, sigma, builtin("square"))
        assert calls == [(4, 4), (5, 5)]

    def test_equality_suite_analyses_each_pair_once(self, monkeypatch):
        # three trials of a pair and two images each, then the depolarizing
        # check's pair and image
        calls = count_pair_analyses(monkeypatch)
        report = run_suite(SuiteConfig(suite="equality-preservation",
                                       dims=(2, 3, 4), trials=3, seed=0))
        assert report.ok()
        assert len(calls) == 11

    def test_cli_compute_analyses_once(self, monkeypatch, tmp_path, capsys,
                                       decompositions):
        calls = count_analyses(monkeypatch, qfdiv.cli)
        paths = []
        for name, M in zip(("rho", "sigma"), schur_pair()):
            paths.append(str(tmp_path / f"{name}.json"))
            save_matrix(paths[-1], M)
        decompositions.clear()
        code = qfdiv.cli.main(["compute", "--rho", paths[0], "--sigma",
                               paths[1], "--f", "neg_power:0.5"])
        assert code == 0
        assert len(calls) == 1
        assert len(decompositions) <= 6
        out = json.loads(capsys.readouterr().out)
        assert out["atoms"] == 3   # one per eigenvalue of d on supp sigma, one escaped


def square_value(rho, sigma):
    """d_max under square for full-rank sigma: tr rho sigma^{-1} rho."""
    return float(np.trace(rho @ np.linalg.solve(sigma, rho)).real)


class TestKeptPair:
    """analyze keeps its last pair: a bit-identical repeat reads the same
    analysis, any other pair replaces it."""

    @pytest.mark.parametrize("make, solves", [(dominated_pair, 3),
                                              (schur_pair, 4)])
    def test_pair_op_takes_one_analysis(self, decompositions, make, solves):
        rho, sigma = make()
        for f in GENS:
            d_max(rho, sigma, f)
        minimal_reverse_test(rho, sigma)
        assert len(decompositions) == solves

    @staticmethod
    def dim3_pairs():
        """A dominated, a rank-deficient and an escaping dim-3 pair."""
        rng = np.random.default_rng(40)
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0][:, :2]
        low = V @ random_state(rng, 2) @ V.T
        return [(random_state(rng, 3), random_state(rng, 3)),
                (V @ random_state(rng, 2) @ V.T, low),
                (random_state(rng, 3), low)]

    @staticmethod
    def count_weight_checks(monkeypatch):
        """Records the label of each generators._as_weights call."""
        checked = []
        original = generators._as_weights

        def counted(v, label):
            checked.append(label)
            return original(v, label)
        monkeypatch.setattr(generators, "_as_weights", counted)
        return checked

    def test_pairs_op_analyses_once_and_checks_weights_once(self, monkeypatch):
        # one pair op of perfbench: 4 d_max, the minimal test, 4 test values.
        # The inputs are checked once, by the analysis; the test it builds
        # from its own proven weights checks none of them again
        analyses = count_pair_analyses(monkeypatch)
        checked = self.count_weight_checks(monkeypatch)
        for rho, sigma in self.dim3_pairs():
            analyses.clear()
            checked.clear()
            values = [d_max(rho, sigma, f) for f in GENS]
            rt = minimal_reverse_test(rho, sigma)
            assert [reverse_test_value(rt, f) for f in GENS] == pytest.approx(
                values, rel=1e-9)
            assert len(analyses) == 1
            assert checked == []

    def test_a_caller_built_test_is_checked(self, monkeypatch):
        rt = minimal_reverse_test(*schur_pair())
        assert rt.q[-1] == 0.0 < rt.p[-1]     # the escaped atom is held too
        checked = self.count_weight_checks(monkeypatch)
        again = ReverseTest(rt.factors, rt.sizes, rt.p, rt.q)
        assert checked == ["p", "q"]
        for name in ("factors", "sizes", "p", "q"):
            np.testing.assert_array_equal(getattr(again, name), getattr(rt, name))
        assert again._split[2] == rt._split[2] > 0.0
        negative = np.array(rt.p)
        negative[0] = -0.1
        with pytest.raises(InvalidDistribution):
            ReverseTest(rt.factors, rt.sizes, negative, rt.q)
        for bad in (np.nan, np.inf):
            factors = np.array(rt.factors)
            factors[0, 0] = bad
            with pytest.raises(InvalidOperator):
                ReverseTest(factors, rt.sizes, rt.p, rt.q)

    @staticmethod
    def count_calls(monkeypatch, name, *modules):
        """Records the arguments of each call of modules[0].name, under
        that name in every module of modules."""
        calls = []
        original = getattr(modules[0], name)

        def counted(*args):
            calls.append(args)
            return original(*args)
        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def exact_kernel_pairs():
        """Dim-3 pairs whose kernels eigh finds as exact zeros: dominated,
        rank-deficient, escaping and commuting with a shared kernel."""
        rng = np.random.default_rng(41)

        def block(A):
            out = np.zeros((3, 3), dtype=complex)
            out[:2, :2] = A
            return out
        low = block(random_state(rng, 2))
        return [(random_state(rng, 3), random_state(rng, 3)),
                (block(random_state(rng, 2)), low),
                (random_state(rng, 3), low),
                (np.diag([0.3, 0.7, 0.0]), np.diag([0.6, 0.4, 0.0]))]

    def test_analysis_hands_its_test_the_split_it_proved(self):
        # every kind of pair, a Schur pair and a whitened dim-16 pair with
        # escaped mass, and a pair of one cluster: the split the analysis
        # hands its test is the one searched from p and q, bit for bit
        rng = np.random.default_rng(42)
        U = np.linalg.qr(rng.standard_normal((3, 3))
                         + 1j * rng.standard_normal((3, 3)))[0]
        shared = tuple((U * w) @ U.conj().T
                       for w in ([0.2, 0.8, 0.0], [0.5, 0.5, 0.0]))
        state = random_state(rng, 3)
        wide = random_state(rng, 16), random_state(rng, 16, rank=12)
        tests = [analyze(rho, sigma).reverse_test() for rho, sigma in
                 self.dim3_pairs() + self.exact_kernel_pairs()
                 + [shared, schur_pair(), wide, (state, state)]]
        for rt in tests:
            ratios, q, escaped = rt._split
            want = generators._split(rt.p, rt.q)
            np.testing.assert_array_equal(ratios, want[0], strict=True)
            np.testing.assert_array_equal(q, want[1], strict=True)
            assert escaped == want[2]
        assert tests[-3]._split[2] > 0.0 and tests[-2]._split[2] > 0.0
        assert len(tests[-1]) == 1      # d is 1 on supp sigma: one cluster

    def test_pairs_op_reads_no_psd_slack_and_searches_no_split(self, monkeypatch):
        # one perfbench pair op on spectra with no negative eigenvalue: no
        # PSD slack can matter, and the test holds the analysis's split
        slack = self.count_calls(monkeypatch, "psd_slack", linalg)
        split = self.count_calls(monkeypatch, "_split", generators, divergence)
        for rho, sigma in self.exact_kernel_pairs():
            for A in (rho, sigma):
                assert np.linalg.eigvalsh(linalg.as_hermitian(A))[0] >= 0
            divergence._last = None
            values = [d_max(rho, sigma, f) for f in GENS]
            rt = minimal_reverse_test(rho, sigma)
            assert [reverse_test_value(rt, f) for f in GENS] == pytest.approx(
                values, rel=1e-9)
            assert slack == [] and split == []
        # the counters count: a negative roundoff eigenvalue reads the
        # slack, a caller-built test searches its split
        linalg.psd_eigh(np.diag([1.0, -1e-17]))
        ReverseTest(rt.factors, rt.sizes, rt.p, rt.q)
        assert len(slack) == len(split) == 1

    @pytest.mark.parametrize("operand", [0, 1])
    def test_in_place_change_is_analysed_afresh(self, operand):
        pair = list(dominated_pair())
        f = builtin("square")
        before = d_max(*pair, f)
        assert before == pytest.approx(square_value(*pair), rel=1e-12)
        pair[operand][...] = random_state(np.random.default_rng(38), 4)
        after = d_max(*pair, f)
        assert after == pytest.approx(square_value(*pair), rel=1e-12)
        assert after != pytest.approx(before, rel=1e-6)

    def test_key_is_the_bytes_of_the_pair(self, decompositions):
        # a fresh bit-identical copy hits the kept pair; the complex
        # conjugate of an operand, PSD as well, differs in its bytes
        rho, sigma = dominated_pair()
        pair = analyze(rho, sigma)
        decompositions.clear()
        assert analyze(np.array(rho), sigma.copy()) is pair
        assert analyze(np.asfortranarray(rho), sigma) is pair
        assert not decompositions
        assert analyze(rho.conj(), sigma) is not pair
        assert analyze(rho, sigma.conj()) is not pair
        assert len(decompositions) == 6

    def test_kept_arrays_are_read_only(self):
        pair = analyze(*schur_pair())
        with pytest.raises(ValueError):
            pair.rho[0, 0] = 0.0
        held = [v for v in vars(pair).values() if isinstance(v, np.ndarray)]
        assert len(held) == 7 and not any(a.flags.writeable for a in held)
        rt = pair.reverse_test()
        rt.outputs[0][...] = 0.0
        for held in (rt.factors, rt.p):
            with pytest.raises(ValueError):
                held[...] = 0.0
        again = analyze(*schur_pair())
        assert again is pair
        assert again.reverse_test().p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_error_keeps_nothing(self):
        rho, sigma = dominated_pair()
        for _ in range(2):
            with pytest.raises(NotPSD):
                analyze(rho - 0.5 * np.eye(4), sigma)
            assert divergence._last is None
        pair = analyze(rho, sigma)
        with pytest.raises(NotPSD):
            analyze(rho, sigma - 0.5 * np.eye(4))
        assert analyze(rho, sigma) is pair

    def test_one_pair_is_kept(self, decompositions):
        a, b = dominated_pair(), schur_pair()
        first = analyze(*a)
        analyze(*b)
        decompositions.clear()
        again = analyze(*a)
        assert again is not first and len(decompositions) == 3
        assert analyze(*a) is again and len(decompositions) == 3

    def test_real_pair_reads_as_complex(self):
        rng = np.random.default_rng(39)
        G, H = rng.standard_normal((2, 4, 4))
        rho, sigma = G @ G.T / np.trace(G @ G.T), H @ H.T / np.trace(H @ H.T)
        pair = analyze(rho, sigma)
        values = [pair.d_max(f) for f in GENS]
        assert pair.rho.dtype == complex
        divergence._last = None
        twin = analyze(rho.astype(complex), sigma.astype(complex))
        assert twin is not pair
        assert [twin.d_max(f) for f in GENS] == values
        assert analyze(rho, sigma) is twin


def stack_items(rng, dim=4):
    """One pair of each kind: dominated with sigma of full rank, rho of rank
    1 and of full rank; rank-deficient and dominated; undominated against
    sigma of rank 2 and of rank 3 (mass escapes: finite recession for
    neg_power, infinite for the others)."""
    V = np.linalg.qr(rng.standard_normal((dim, dim))
                     + 1j * rng.standard_normal((dim, dim)))[0]
    low = V[:, :2] @ random_state(rng, 2) @ V[:, :2].conj().T
    inside = V[:, :2] @ random_state(rng, 2, rank=1) @ V[:, :2].conj().T
    return [(random_state(rng, dim), random_state(rng, dim)),
            (random_state(rng, dim, rank=1), random_state(rng, dim)),
            (inside, low),
            (random_state(rng, dim), low),
            (random_state(rng, dim), random_state(rng, dim, rank=3))]


def assert_matches_scalar(rhos, sigmas, values, f):
    expected = [d_max(r, s, f) for r, s in zip(rhos, sigmas)]
    assert values.shape == (len(expected),)
    for got, want in zip(values.tolist(), expected):
        assert got == want


class TestStackedAnalysis:
    """d_prime and d_max over a stack (..., n, n): one body, one eigensolve
    of each kind for the stack, the same values as pair by pair."""

    @pytest.mark.parametrize("f", GENS, ids=lambda f: f.name)
    def test_each_kind_alone_and_mixed(self, f):
        items = stack_items(np.random.default_rng(40))
        for item in items:
            rhos, sigmas = np.array([item[0]]), np.array([item[1]])
            assert_matches_scalar(rhos, sigmas, d_max(rhos, sigmas, f), f)
        rhos = np.array([r for r, _ in items] * 2)
        sigmas = np.array([s for _, s in items] * 2)
        order = np.random.default_rng(41).permutation(len(rhos))
        rhos, sigmas = rhos[order], sigmas[order]
        assert_matches_scalar(rhos, sigmas, d_max(rhos, sigmas, f), f)
        assert_matches_scalar(rhos, sigmas, d_prime(rhos, sigmas, f), f)
        grid = d_max(rhos.reshape(2, 5, 4, 4), sigmas.reshape(2, 5, 4, 4), f)
        assert grid.shape == (2, 5)
        np.testing.assert_array_equal(grid.ravel(), d_max(rhos, sigmas, f))

    @pytest.mark.parametrize("seed", [216, 350, 546, 666, 1003, 377, 521, 871])
    def test_ill_conditioned_seeds(self, seed):
        rng = np.random.default_rng(10000 + seed)
        dim = int(rng.integers(2, 9))
        rho, sigma = _ill_conditioned_pair(rng, dim, inside=bool(seed % 2))
        other = np.random.default_rng(seed)
        for f in GENS:
            rhos, sigmas = np.array([rho, rho]), np.array([sigma, sigma])
            assert_matches_scalar(rhos, sigmas, d_max(rhos, sigmas, f), f)
        # beside a full-rank pair and a pair whose sigma has another kernel,
        # each pair is read alone
        rhos = np.array([rho, random_state(other, dim), rho])
        sigmas = np.array([sigma, random_state(other, dim),
                           random_state(other, dim, rank=dim - 1)])
        for f in GENS:
            assert d_max(rhos, sigmas, f)[0] == d_max(rho, sigma, f)

    def test_one_bad_item_raises_for_the_stack(self):
        rho, sigma = dominated_pair()
        rhos = np.array([rho, rho - 0.5 * np.eye(4), rho])
        with pytest.raises(NotPSD):
            d_max(rhos, np.array([sigma] * 3), GENS[0])
        with pytest.raises(NotPSD):
            d_prime(np.array([rho] * 3), rhos, GENS[0])
        with pytest.raises(ZeroSigma):
            d_max(np.array([rho] * 3), np.array([sigma, sigma, 0 * sigma]),
                  GENS[0])

    def test_unequal_shapes_raise(self):
        rho, sigma = dominated_pair()
        for rhos, sigmas in [(rho[:3, :3], sigma), (np.array([rho] * 2), sigma),
                             (np.array([rho] * 2), np.array([sigma] * 3))]:
            with pytest.raises(DimensionMismatch):
                d_max(rhos, sigmas, GENS[0])

    def test_kept_pair_is_left_alone(self):
        kept = analyze(*dominated_pair())
        before = divergence._last
        rho, sigma = schur_pair()
        d_max(np.array([rho, sigma]), np.array([sigma, rho]), GENS[0])
        assert divergence._last is before
        assert analyze(*dominated_pair()) is kept

    def test_a_stack_takes_the_eigensolves_of_one_pair(self, decompositions):
        rng = np.random.default_rng(42)
        rhos = np.array([random_state(rng, 4) for _ in range(8)])
        sigmas = np.array([random_state(rng, 4) for _ in range(8)])
        decompositions.clear()
        d_max(rhos, sigmas, GENS[1])
        assert len(decompositions) == 3

    def test_one_cholesky_proves_a_stack(self, decompositions):
        # from linalg.CHOLESKY_MIN_DIM up one Cholesky of the sigma stack
        # stands for its eigh, and one of the rho stack for its eigvalsh;
        # one rank-deficient rho sends the whole stack to eigvalsh, one
        # rank-deficient sigma to eigh
        rng = np.random.default_rng(43)
        rhos = np.array([random_state(rng, 16) for _ in range(6)])
        sigmas = np.array([random_state(rng, 16) for _ in range(6)])
        stack = (6, 16, 16)
        for eig in ([], [("eigvalsh", stack)]):
            decompositions.clear()
            values = d_max(rhos, sigmas, GENS[2])
            assert decompositions == [("cholesky", stack), ("inv", stack),
                                      ("cholesky", stack), *eig, ("eigh", stack)]
            assert_matches_scalar(rhos, sigmas, values, GENS[2])
            rhos[3] = random_state(rng, 16, rank=15)
        sigmas[2] = random_state(rng, 16, rank=15)
        decompositions.clear()
        values = d_max(rhos, sigmas, GENS[2])
        assert decompositions[:2] == [("cholesky", stack), ("eigh", stack)]
        assert_matches_scalar(rhos, sigmas, values, GENS[2])

    def test_a_stack_with_a_kernel_is_read_pair_by_pair(self):
        rng = np.random.default_rng(42)
        rhos = np.array([random_state(rng, 4) for _ in range(8)])
        sigmas = np.array([random_state(rng, 4) for _ in range(8)])
        sigmas[5] = random_state(rng, 4, rank=2)
        for f in GENS:
            want = [d_max(r, s, f) for r, s in zip(rhos, sigmas)]
            kept = analyze(*dominated_pair())
            assert d_max(rhos, sigmas, f).tolist() == want
            assert divergence._last[1] is kept
        assert math.isinf(want[5])

    def test_analyze_takes_one_pair(self):
        rho, sigma = dominated_pair()
        with pytest.raises(InvalidOperator):
            analyze(np.array([rho]), np.array([sigma]))


class TestOracleEigensolveCount:
    """Each oracle validates an operand from the eigensolve it needs anyway."""

    @pytest.mark.parametrize("oracle, ceiling", [
        (oracles.umegaki_relative_entropy, 2),    # log rho, log sigma
        (oracles.bs_relative_entropy, 3),         # rho^1/2, sigma^-1, log M
    ])
    def test_entropies(self, decompositions, oracle, ceiling):
        rho, sigma = dominated_pair()
        oracle(rho, sigma)
        assert 0 < len(decompositions) <= ceiling

    @pytest.mark.parametrize("oracle", [
        oracles.disjoint_reverse_test,
        lambda rho, sigma: oracles.random_reverse_test(
            rho, sigma, np.random.default_rng(34)),
    ], ids=["disjoint_reverse_test", "random_reverse_test"])
    def test_reverse_tests(self, decompositions, oracle):
        rho, sigma = schur_pair()
        oracle(rho, sigma)
        assert 0 < len(decompositions) <= 2          # rho and sigma, or tau and M

    def test_shrunk_feasible_operator(self, decompositions):
        rho, sigma = schur_pair()
        tilde = analyze(rho, sigma).rho_tilde
        decompositions.clear()
        oracles.shrunk_feasible_operator(rho, sigma, tilde,
                                         np.random.default_rng(35))
        assert 0 < len(decompositions) <= 3          # rho, sigma, the fitting bound

    def test_joint_eigenvalues(self, decompositions):
        rng = np.random.default_rng(36)
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rho = U @ np.diag([0.2, 0.3, 0.5]) @ U.T
        sigma = U @ np.diag([0.1, 0.6, 0.3]) @ U.T
        decompositions.clear()
        oracles.joint_eigenvalues(rho, sigma)
        assert 0 < len(decompositions) <= 3          # rho, sigma, their mixture


class TestReaders:
    def test_readers_agree_with_analysis(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            rho = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
            sigma = random_state(rng, dim, rank=int(rng.integers(1, dim + 1)))
            pair = analyze(rho, sigma)
            assert isinstance(pair, PairAnalysis)
            for f in GENS:
                assert d_max(rho, sigma, f) == pair.d_max(f)
                assert d_prime(rho, sigma, f) == pair.d_prime(f)
                direct = pair.d_max(f)
                via_test = reverse_test_value(pair.reverse_test(), f)
                if math.isinf(direct):
                    assert math.isinf(via_test)
                else:
                    assert via_test == pytest.approx(direct, abs=1e-10)
            if pair.dominated:
                assert pair.escaped == 0.0

    def test_weights_and_sigma_power(self):
        rho, sigma = schur_pair()
        pair = analyze(rho, sigma)
        # the sigma-weights of the eigenvectors of d add up to tr sigma
        assert pair.weights.sum() == pytest.approx(np.trace(sigma).real, abs=1e-12)
        # they are the squared column norms of X = sigma^{1/2} U, X X^H = sigma
        X = pair.factor
        np.testing.assert_allclose(pair.weights, np.sum(np.abs(X) ** 2, axis=0),
                                   atol=1e-15)
        np.testing.assert_allclose(X @ X.conj().T, sigma, atol=1e-12)
        # sigma^{1/2} d sigma^{1/2} = X diag(evals) X^H gives rho_tilde back
        np.testing.assert_allclose((X * pair.evals) @ X.conj().T,
                                   pair.rho_tilde, atol=1e-12)

    def test_mass_tol_sets_escape_threshold(self):
        rho = np.diag([1.0, 1e-9]).astype(complex)
        sigma = np.diag([1.0, 0.0]).astype(complex)
        assert analyze(rho, sigma).escaped == pytest.approx(1e-9)


def _run_python(code: str) -> None:
    src = os.path.dirname(os.path.dirname(qfdiv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_import_does_not_load_scipy():
    _run_python("import qfdiv, sys; assert 'scipy' not in sys.modules")


# The package's public names, each under the module that defines it.
PUBLIC = {
    "channels": ("DpiResult", "EqualityReport", "KrausChannel",
                 "depolarizing_channel", "dpi_check", "embedding_channel",
                 "equality_check", "lambda_sigma", "random_channel",
                 "random_state", "unitary_channel", "v_operator"),
    "divergence": ("PairAnalysis", "ReverseTest", "analyze", "d_max",
                   "d_prime", "minimal_reverse_test",
                   "perturbation_limit_probe", "reverse_test_value"),
    "errors": ("DimensionMismatch", "DomainError", "InfiniteDivergence",
               "InvalidDistribution", "InvalidOperator", "MissingRecession",
               "NonCommuting", "NotPSD", "QfdivError", "StepError",
               "SupportError", "UnsupportedGenerator", "ZeroSigma"),
    "generators": ("DivergenceGenerator", "LownerForm", "builtin",
                   "classical_f_divergence", "custom", "from_spec",
                   "lebesgue_atoms", "lowner_quadrature_check",
                   "recession_value"),
    "linalg": ("gen_inverse_sqrt", "matrix_sqrt", "support_projector"),
    "oracles": ("bs_relative_entropy", "classical_oracle",
                "umegaki_relative_entropy"),
    "rld": ("SecondDerivativeResult", "TangentPerturbation", "random_tangent",
            "rld_metric", "second_derivative_check"),
    "suites": ("SUITE_NAMES", "SuiteConfig", "SuiteReport", "run_suite",
               "trial_rng"),
}
LAZY_MODULES = {"channels", "oracles", "rld", "suites"}


def _loaded(modules) -> str:
    """Child code asserting that, of LAZY_MODULES, exactly modules are loaded."""
    return ("loaded = {m for m in %r if 'qfdiv.' + m in sys.modules}\n"
            "assert loaded == %r, loaded\n" % (sorted(LAZY_MODULES), set(modules)))


def test_public_names_are_pinned():
    names = sorted([*PUBLIC, *(n for names in PUBLIC.values() for n in names)])
    assert len(names) == 66 and qfdiv.__all__ == names
    assert set(names) <= set(dir(qfdiv))
    with pytest.raises(AttributeError, match="no_such_name"):
        qfdiv.no_such_name


def test_pair_analysis_surface_is_pinned():
    # every public reader of an analysis; none makes an eigensolve on read
    names = {n for n in dir(analyze(*schur_pair())) if not n.startswith("_")}
    assert names == {"rho", "sigma", "tilde", "excess", "escaped", "evals",
                     "factor", "weights", "rho_tilde", "dominated", "d_prime",
                     "d_max", "reverse_test"}


def test_lazy_names_resolve_to_their_modules_objects():
    # in a fresh interpreter, so that each lazy name is resolved here first
    _run_python(
        "import importlib, sys, qfdiv\n"
        + _loaded(()) +
        "assert set(qfdiv.__all__) <= set(dir(qfdiv))\n"
        f"for module, names in {PUBLIC!r}.items():\n"
        "    mod = importlib.import_module('qfdiv.' + module)\n"
        "    assert getattr(qfdiv, module) is mod, module\n"
        "    for name in names:\n"
        "        assert getattr(qfdiv, name) is getattr(mod, name), name\n"
        "        assert name in vars(qfdiv), name\n")
    _run_python(
        "from qfdiv import *\n"
        "import qfdiv\n"
        "missing = [n for n in qfdiv.__all__ if globals().get(n) is not getattr(qfdiv, n)]\n"
        "assert missing == [], missing\n")


def test_divergences_load_no_lazy_module():
    _run_python(
        "import sys, numpy as np, qfdiv\n"
        "rho, sigma = np.diag([0.5, 0.3, 0.2]), np.diag([0.2, 0.3, 0.5])\n"
        "qfdiv.d_max(rho, sigma, qfdiv.builtin('xlogx'))\n"
        "qfdiv.minimal_reverse_test(rho, sigma)\n"
        + _loaded(()))


@pytest.mark.parametrize("command, modules", [
    ("compute", set()), ("reverse-test", set()), ("check", {"channels"}),
    ("rld", {"rld"}), ("suite", LAZY_MODULES)])
def test_each_command_loads_only_its_modules(tmp_path, command, modules):
    rho, sigma = np.diag([0.5, 0.3, 0.2]), np.diag([0.2, 0.3, 0.5])
    files = {}
    for name, A in (("rho", rho), ("sigma", sigma), ("x", sigma - rho),
                    ("y", rho - sigma)):
        files[name] = str(tmp_path / f"{name}.json")
        save_matrix(files[name], A)
    files["channel"] = str(tmp_path / "channel.json")
    with open(files["channel"], "w") as fh:
        json.dump(channel_to_json(unitary_channel(np.eye(3))), fh)
    argv = {
        "compute": ["--rho", files["rho"], "--sigma", files["sigma"], "--f", "xlogx"],
        "reverse-test": ["--rho", files["rho"], "--sigma", files["sigma"]],
        "check": ["--rho", files["rho"], "--sigma", files["sigma"],
                  "--channel", files["channel"], "--f", "xlogx"],
        "rld": ["--rho", files["rho"], "--x", files["x"], "--y", files["y"],
                "--f", "xlogx"],
        "suite": ["--suite", "lowner-quadrature", "--dims", "2", "--trials", "1",
                  "--out", str(tmp_path / "report.json")],
    }[command]
    # what `python -m qfdiv COMMAND ...` runs, then a look at sys.modules
    _run_python(
        "import runpy, sys\n"
        f"sys.argv = ['qfdiv', {command!r}, *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('qfdiv', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        + _loaded(modules))


def test_oracles_load_no_channels():
    # the oracles read the scalar rules from linalg, not from channels
    _run_python("import sys, qfdiv.oracles\n" + _loaded({"oracles"}))


def test_suites_do_not_load_scipy():
    _run_python(
        "import sys, qfdiv\n"
        "for name in qfdiv.SUITE_NAMES:\n"
        "    assert qfdiv.run_suite(qfdiv.SuiteConfig(suite=name, trials=4)).ok()\n"
        "assert 'scipy' not in sys.modules, 'a suite loaded scipy'\n")
