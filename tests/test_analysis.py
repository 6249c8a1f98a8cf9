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
from qfdiv import oracles
from qfdiv.channels import equality_check, unitary_channel
from qfdiv.divergence import (PairAnalysis, analyze, d_max, d_prime,
                              minimal_reverse_test, reverse_test_value)
from qfdiv.generators import builtin
from qfdiv.matio import save_matrix

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


@pytest.fixture
def eigensolves(monkeypatch):
    """Counts calls of numpy.linalg.eigh and eigvalsh."""
    count = [0]
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            count[0] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return count


def count_analyses(monkeypatch, module):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return analyze(*args, **kwargs)
    monkeypatch.setattr(module, "analyze", counted)
    return calls


class TestEigensolveCount:
    @pytest.mark.parametrize("make, ceiling", [(dominated_pair, 3),
                                               (schur_pair, 6)])
    def test_d_max(self, eigensolves, make, ceiling):
        rho, sigma = make()
        d_max(rho, sigma, builtin("neg_power", 0.5))
        assert 0 < eigensolves[0] <= ceiling

    @pytest.mark.parametrize("make, ceiling", [(dominated_pair, 3),
                                               (schur_pair, 6)])
    def test_minimal_reverse_test(self, eigensolves, make, ceiling):
        rho, sigma = make()
        minimal_reverse_test(rho, sigma)
        assert 0 < eigensolves[0] <= ceiling

    def test_equality_check_analyses_pair_and_image_once(self, monkeypatch):
        calls = count_analyses(monkeypatch, qfdiv.channels)
        rho, sigma = schur_pair()
        U, _ = np.linalg.qr(np.random.default_rng(32).standard_normal((4, 4)))
        rep = equality_check(rho, sigma, unitary_channel(U),
                             builtin("neg_power", 0.5))
        assert rep.equal and rep.reverse_test_preserved
        assert len(calls) == 2

    def test_cli_compute_analyses_once(self, monkeypatch, tmp_path, capsys,
                                       eigensolves):
        calls = count_analyses(monkeypatch, qfdiv.cli)
        paths = []
        for name, M in zip(("rho", "sigma"), schur_pair()):
            paths.append(str(tmp_path / f"{name}.json"))
            save_matrix(paths[-1], M)
        eigensolves[0] = 0
        code = qfdiv.cli.main(["compute", "--rho", paths[0], "--sigma",
                               paths[1], "--f", "neg_power:0.5"])
        assert code == 0
        assert len(calls) == 1
        assert eigensolves[0] <= 6
        out = json.loads(capsys.readouterr().out)
        assert out["atoms"] == 3   # one per eigenvalue of d on supp sigma, one escaped


class TestOracleEigensolveCount:
    """Each oracle validates an operand from the eigensolve it needs anyway."""

    @pytest.mark.parametrize("oracle, ceiling", [
        (oracles.umegaki_relative_entropy, 2),    # log rho, log sigma
        (oracles.bs_relative_entropy, 3),         # rho^1/2, sigma^-1, log M
    ])
    def test_entropies(self, eigensolves, oracle, ceiling):
        rho, sigma = dominated_pair()
        oracle(rho, sigma)
        assert 0 < eigensolves[0] <= ceiling

    @pytest.mark.parametrize("oracle", [oracles.disjoint_reverse_test,
                                        oracles.random_reverse_test])
    def test_reverse_tests(self, eigensolves, oracle):
        rho, sigma = schur_pair()
        oracle(rho, sigma, np.random.default_rng(34))
        assert 0 < eigensolves[0] <= 2          # rho^1/2 and sigma^1/2, or tau and M

    def test_shrunk_feasible_operator(self, eigensolves):
        rho, sigma = schur_pair()
        tilde = analyze(rho, sigma).rho_tilde
        eigensolves[0] = 0
        oracles.shrunk_feasible_operator(rho, sigma, tilde,
                                         np.random.default_rng(35))
        assert 0 < eigensolves[0] <= 3          # rho, sigma, the fitting bound

    def test_joint_eigenvalues(self, eigensolves):
        rng = np.random.default_rng(36)
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rho = U @ np.diag([0.2, 0.3, 0.5]) @ U.T
        sigma = U @ np.diag([0.1, 0.6, 0.3]) @ U.T
        eigensolves[0] = 0
        oracles.joint_eigenvalues(rho, sigma)
        assert 0 < eigensolves[0] <= 5          # rho, sigma, one per block


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
        half = pair.sigma_power(0.5)
        np.testing.assert_allclose(half @ half, sigma, atol=1e-12)
        inv = pair.sigma_power(-0.5)
        np.testing.assert_allclose(inv @ sigma @ inv,
                                   pair.basis @ pair.basis.conj().T, atol=1e-10)
        # sigma^{1/2} d sigma^{1/2} gives rho_tilde back
        np.testing.assert_allclose(half @ pair.d @ half, pair.rho_tilde,
                                   atol=1e-12)

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


def test_suites_do_not_load_scipy():
    _run_python(
        "import sys, qfdiv\n"
        "for name in qfdiv.SUITE_NAMES:\n"
        "    assert qfdiv.run_suite(qfdiv.SuiteConfig(suite=name, trials=4)).ok()\n"
        "assert 'scipy' not in sys.modules, 'a suite loaded scipy'\n")
