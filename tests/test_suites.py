"""Tests for the suite runner: determinism, reporting, and the oracles."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from qfdiv import matio
from qfdiv.channels import random_state
from qfdiv.divergence import minimal_reverse_test, reverse_test_value
from qfdiv.errors import DimensionMismatch, NotPSD
from qfdiv.generators import builtin
from qfdiv.oracles import (concat_reverse_tests, disjoint_reverse_test,
                           random_reverse_test, refine_reverse_test)
from qfdiv.suites import (SUITE_NAMES, SuiteConfig, _csv, _undominated_pair,
                          run_suite, trial_rng)


def _strip_time(report_json: str) -> dict:
    obj = json.loads(report_json)
    obj.pop("wall_time_s", None)
    return obj


class TestRunner:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_deterministic_reports(self, suite):
        # the second run starts with the pair the first left kept, so a kept
        # analysis left over from an earlier run changes no row
        cfg = SuiteConfig(suite=suite, dims=(2, 3), trials=3, seed=42)
        a = matio.dumps(run_suite(cfg).as_dict(include_rows=True))
        b = matio.dumps(run_suite(cfg).as_dict(include_rows=True))
        assert _strip_time(a) == _strip_time(b)
        # byte-identical apart from the timing field
        assert json.dumps(_strip_time(a), sort_keys=True) == \
            json.dumps(_strip_time(b), sort_keys=True)

    def test_different_seeds_differ(self):
        cfg_a = SuiteConfig(suite="dpi", trials=10, seed=1)
        cfg_b = SuiteConfig(suite="dpi", trials=10, seed=2)
        ra = [r.lhs for r in run_suite(cfg_a).rows]
        rb = [r.lhs for r in run_suite(cfg_b).rows]
        assert ra != rb

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(suite="does-not-exist"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(suite="convexity", trials=0))
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(suite="convexity", dims=(1,)))
        # dims=2 raised TypeError from iterating an int
        for dims in (2, None, "23"):
            with pytest.raises(ValueError, match="dims"):
                run_suite(SuiteConfig(suite="dpi", dims=dims, trials=2))

    @pytest.mark.parametrize("seed", [1.5, True, -1, 2 ** 64])
    @pytest.mark.parametrize("suite", ["dpi", "lowner-quadrature"])
    def test_bad_seed_is_rejected(self, suite, seed):
        # seed 1.5 ran seed 1's trials under a report that said 1.5
        with pytest.raises(ValueError, match="seed"):
            run_suite(SuiteConfig(suite=suite, trials=4, seed=seed))

    @pytest.mark.parametrize("field", [
        {"tol": float("nan")}, {"tol": -1.0}, {"tol": float("inf")},
        {"trials": 2.5}, {"trials": True}, {"dims": (2.5, 3)}],
        ids=["tol-nan", "tol-negative", "tol-inf", "trials-float", "trials-bool",
             "dims-float"])
    def test_bad_config_is_rejected(self, field):
        # trials=2.5 and dims=(2.5, 3) raised TypeError mid-suite, trials=True
        # ran, and a NaN, negative or infinite tol judged every row
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(suite="dpi", **field))

    def test_catalog_complete(self):
        assert set(SUITE_NAMES) == {
            "dpi", "convexity", "sigma-monotonicity", "perturbation-limit",
            "rho-tilde-maximality", "umegaki-bound",
            "reverse-test-reconstruction", "reverse-test-optimality",
            "equality-preservation", "rld-second-derivative",
            "lowner-quadrature", "geometric-mean-symmetry",
            "commutative-oracle"}

    @pytest.mark.parametrize("seed", [358, 3037])
    def test_random_reverse_test_at_rank_one_rho(self, seed):
        # trial 1 is a dim-3 pair with rank-1 rho and cond(sigma) ~ 1e4; the
        # random reverse test once formed sigma's share as 1 - t m, which
        # cancelled and undercut the minimum by 2e-8 under square
        report = run_suite(SuiteConfig(suite="reverse-test-optimality",
                                       trials=3, dims=(2, 3, 4), seed=seed))
        assert report.ok()

    def test_all_suites_pass_smoke(self):
        for name in SUITE_NAMES:
            rep = run_suite(SuiteConfig(suite=name, trials=12, seed=3))
            assert rep.ok(), f"{name}: {[r for r in rep.rows if not r.passed]}"

    @pytest.mark.parametrize("seed", [2531, 2802, 3271, 4179])
    def test_equality_preservation_where_rho_tilde_is_zero(self, seed):
        # each run holds pairs whose Schur reduction is exactly 0; roundoff
        # left in it reads as d_max(neg_power 0.5) of -4e-8 ... -8e-7 on one
        # side of the channel only
        rep = run_suite(SuiteConfig(suite="equality-preservation", trials=3,
                                    dims=(2, 3, 4), seed=seed))
        assert rep.ok(), [r for r in rep.rows if not r.passed]

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_shorter_run_is_a_prefix(self, name):
        # trial i reads only its own stream, so the trials of a short run
        # replay as the first trials of a longer one at the same seed; the
        # one fixed row of equality-preservation (seed -1) closes each run
        short, longer = (run_suite(SuiteConfig(suite=name, trials=n, seed=11)).rows
                         for n in (3, 6))
        short = [r for r in short if r.seed >= 0]
        assert short and short == longer[:len(short)]

    def test_csv_schema(self):
        rep = run_suite(SuiteConfig(suite="umegaki-bound", trials=5, seed=0))
        lines = _csv([rep]).strip().splitlines()
        assert lines[0] == "suite,dim,seed,lhs,rhs,margin,pass"
        assert len(lines) == 1 + len(rep.rows)
        first = lines[1].split(",")
        assert first[-1] in ("0", "1")
        float(first[3]), float(first[4]), float(first[5])

    def test_property_summary_structure(self):
        rep = run_suite(SuiteConfig(suite="perturbation-limit", trials=6, seed=5))
        props = rep.property_summary()
        assert set(props) == {"neg-power-limit", "square-divergence"}
        for entry in props.values():
            assert entry["fail"] == 0
            assert entry["failing_seeds"] == []

    def test_failing_seed_reproduces(self):
        # force failures with an absurd tolerance and replay one trial
        cfg = SuiteConfig(suite="rld-second-derivative", dims=(2,), trials=4,
                          seed=9, tol=1e-300)
        rep = run_suite(cfg)
        assert rep.total_fail > 0
        props = rep.property_summary()
        seeds = [s for e in props.values() for s in e["failing_seeds"]]
        assert seeds
        # per-trial streams are pure functions of (master seed, index)
        np.testing.assert_array_equal(
            trial_rng(9, seeds[0]).standard_normal(4),
            trial_rng(9, seeds[0]).standard_normal(4))


class TestAlternativeReverseTests:
    def test_exact_families_reconstruct(self):
        rng = np.random.default_rng(0)
        rho = random_state(3, 3, rng)
        sigma = random_state(3, 2, rng)
        minimal = minimal_reverse_test(rho, sigma)
        for alt in (disjoint_reverse_test(rho, sigma, rng),
                    refine_reverse_test(minimal, rng, 3),
                    concat_reverse_tests(minimal,
                                         disjoint_reverse_test(rho, sigma, rng),
                                         0.4)):
            rho_hat, sigma_hat = alt.reconstruct()
            assert np.abs(rho_hat - rho).max() < 1e-12
            assert np.abs(sigma_hat - sigma).max() < 1e-12

    def test_families_rebuild_undominated_pairs_from_factors(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4, 6):
            rho, sigma = _undominated_pair(rng, dim)
            minimal = minimal_reverse_test(rho, sigma)
            disjoint = disjoint_reverse_test(rho, sigma, rng)
            for alt in (disjoint,
                        refine_reverse_test(minimal, rng, 3),
                        concat_reverse_tests(minimal, disjoint, 0.3),
                        random_reverse_test(rho, sigma, rng)):
                F = alt.factors
                assert F.shape[0] == dim and len(alt.starts) == len(alt)
                norms = np.add.reduceat((np.abs(F) ** 2).sum(axis=0), alt.starts)
                np.testing.assert_allclose(norms, 1.0, atol=1e-12)
                rho_hat, sigma_hat = alt.reconstruct()    # F diag(p) F^H
                assert np.abs(rho_hat - rho).max() < 1e-12
                assert np.abs(sigma_hat - sigma).max() < 1e-12
                dense = sum(a * out for a, out in zip(alt.p, alt.outputs))
                assert np.abs(dense - rho_hat).max() < 1e-14

    @pytest.mark.parametrize("splits", [2, 3])
    def test_refinement_matches_the_atom_loop(self, splits):
        # reference: per atom, draw the p shares then the q shares, and
        # repeat its factor once per copy
        rho, sigma = _undominated_pair(np.random.default_rng(4), 3)
        rt = minimal_reverse_test(rho, sigma)
        rng = np.random.default_rng(9)
        cols, p, q = [], [], []
        for X, a, b in zip(rt.groups(), rt.p, rt.q):
            p_share = rng.dirichlet(np.ones(splits))
            q_share = rng.dirichlet(np.ones(splits))
            cols += [X] * splits
            p += [a * s for s in p_share]
            q += [b * s for s in q_share]
        got = refine_reverse_test(rt, np.random.default_rng(9), splits)
        assert np.array_equal(got.factors, np.hstack(cols))
        assert np.array_equal(got.sizes, np.repeat(rt.sizes, splits))
        assert np.array_equal(got.p, p) and np.array_equal(got.q, q)

    @pytest.mark.parametrize("splits", [0, -1, 1.5, True])
    def test_refinement_needs_a_positive_integer_split(self, splits):
        # splits=0 gave an empty test that rebuilt (0, 0)
        rt = minimal_reverse_test(*_undominated_pair(np.random.default_rng(4), 3))
        with pytest.raises(ValueError, match="splits"):
            refine_reverse_test(rt, np.random.default_rng(9), splits)
        one = refine_reverse_test(rt, np.random.default_rng(9), 1)
        assert np.array_equal(one.p, rt.p) and np.array_equal(one.q, rt.q)

    def test_disjoint_family_at_small_scale(self):
        # rank-1 columns are cut relative to the trace of the operand, so a
        # tiny pair keeps its atoms and is rebuilt
        rng = np.random.default_rng(3)
        c = 1e-15
        rho, sigma = c * random_state(3, 3, rng), c * random_state(3, 2, rng)
        alt = disjoint_reverse_test(rho, sigma, rng)
        assert len(alt) == 6
        rho_hat, sigma_hat = alt.reconstruct()
        assert np.abs(rho_hat - rho).max() < 1e-12 * c
        assert np.abs(sigma_hat - sigma).max() < 1e-12 * c

    def test_alternatives_never_beat_minimal(self):
        rng = np.random.default_rng(1)
        half = builtin("neg_power", 0.5)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            rho = random_state(dim, dim, rng)
            sigma = random_state(dim, int(rng.integers(1, dim + 1)), rng)
            minimal = minimal_reverse_test(rho, sigma)
            best = reverse_test_value(minimal, half)
            for alt in (disjoint_reverse_test(rho, sigma, rng),
                        refine_reverse_test(minimal, rng, 2),
                        random_reverse_test(rho, sigma, rng)):
                assert reverse_test_value(alt, half) >= best - 1e-8

    @pytest.mark.parametrize("rank_rho, rank_sigma, support", [
        (3, 3, 3),   # dominated, both invertible
        (2, 3, 3),   # dominated, rho rank-deficient
        (2, 2, 2),   # both inside one plane: the mixture has a kernel
        (2, 2, 3),   # rank-deficient, supp rho escapes supp sigma
        (3, 1, 3),   # undominated
    ])
    def test_random_reverse_test_is_exact(self, rank_rho, rank_sigma, support):
        rng = np.random.default_rng(2)
        pad = ((0, 3 - support), (0, 3 - support))
        for _ in range(20):
            rho = np.pad(random_state(support, rank_rho, rng), pad)
            sigma = np.pad(random_state(support, rank_sigma, rng), pad)
            alt = random_reverse_test(rho, sigma, rng)
            assert (alt.p >= 0).all() and (alt.q >= 0).all()
            # weights on the kernel of an operand are exact zeros, not dust
            # that a generator with infinite slope at 0 would amplify
            assert np.count_nonzero(alt.p) == rank_rho
            assert np.count_nonzero(alt.q) == rank_sigma
            for out in alt.outputs:
                assert abs(np.trace(out).real - 1.0) < 1e-12
                assert np.linalg.eigvalsh(out).min() > -1e-12
            rho_hat, sigma_hat = alt.reconstruct()
            assert np.abs(rho_hat - rho).max() < 1e-12
            assert np.abs(sigma_hat - sigma).max() < 1e-12

    def test_random_reverse_test_validates_the_pair(self):
        rng = np.random.default_rng(4)
        state = np.eye(2) / 2
        bad = np.diag([1.0, -0.3])
        with pytest.raises(NotPSD):
            random_reverse_test(bad, state, rng)
        with pytest.raises(NotPSD):
            random_reverse_test(state, bad, rng)
        # neither operand is PSD and their mixture is diag(1, 0) for every
        # t; only the check on the kernel of the mixture sees rho's part there
        t = 0.5
        rho = np.array([[1.0, 1.0], [1.0, 0.0]])
        sigma = np.array([[1.0, -t / (1 - t)], [-t / (1 - t), 0.0]])
        fixed_t = SimpleNamespace(uniform=lambda low, high: t)
        with pytest.raises(NotPSD):
            random_reverse_test(rho, sigma, fixed_t)
        with pytest.raises(DimensionMismatch):
            random_reverse_test(np.eye(2) / 2, np.eye(3) / 3, rng)
