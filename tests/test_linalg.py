"""Tests for the Hermitian linear algebra core."""

import ast
import importlib
import pathlib
import pkgutil
import re
from types import SimpleNamespace

import numpy as np
import pytest

import qfdiv
from qfdiv import channels, divergence, errors, generators, linalg, oracles, rld
from qfdiv.divergence import analyze
from qfdiv.linalg import (KERNEL_FLOOR, as_hermitian, as_matrix,
                          cluster_starts, gen_inverse_sqrt, matrix_sqrt,
                          projector, snap_kernel, support_projector)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
KET0 = np.array([1, 0], dtype=complex)
KETP = np.array([1, 1], dtype=complex) / np.sqrt(2)
PROJ0 = np.outer(KET0, KET0.conj())
PROJP = np.outer(KETP, KETP.conj())


def eig2x2(A):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix (test oracle)."""
    a = A[0, 0].real
    d = A[1, 1].real
    b = A[0, 1]
    disc = np.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
    mid = (a + d) / 2
    return mid - disc, mid + disc


def signed_cluster_starts(evals):
    """linalg.cluster_starts over an ascending spectrum of either sign.  It
    takes a non-negative one, so the negative head is clustered as its
    mirror image, whose cluster ends are the head's starts; a sign change
    always starts a cluster."""
    neg = np.count_nonzero(evals < 0)
    head = (neg - np.append(cluster_starts(-evals[neg - 1::-1])[1:], neg)
            if neg else [])
    tail = neg + cluster_starts(evals[neg:]) if neg < evals.size else []
    return np.concatenate((np.sort(head), tail)).astype(int)


def herm_eig(A):
    """The clustered decomposition  A = sum_x d_x P_x  of a Hermitian A,
    formed as the analysis clusters d: eigh, eigenvalues within
    KERNEL_FLOOR * dim * spectral radius of 0 snapped to exact zeros (A need
    not be PSD, so no share of a trace applies), then one projector per
    signed_cluster_starts run, its eigenvalue the mean of the run."""
    A = as_hermitian(A)
    evals, vecs = np.linalg.eigh(A)
    floor = KERNEL_FLOOR * A.shape[0] * np.abs(evals).max()
    evals = np.where(np.abs(evals) > floor, evals, 0.0)
    starts = signed_cluster_starts(evals)
    sizes = np.diff(starts, append=evals.size)
    return SimpleNamespace(
        eigenvalues=np.add.reduceat(evals, starts) / sizes,
        projectors=tuple(projector(vecs[:, a:a + k])
                         for a, k in zip(starts, sizes)),
        multiplicities=sizes)


def reconstruct(dec):
    """sum_x d_x P_x of a clustered decomposition."""
    return sum(lam * P for lam, P in zip(dec.eigenvalues, dec.projectors))


def random_psd(rng, dim, rank=None):
    rank = rank or dim
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return G @ G.conj().T


class TestHermEig:
    """linalg.cluster_starts on the eigensystem of a Hermitian matrix."""

    def test_identity(self):
        dec = herm_eig(np.eye(2))
        assert len(dec.eigenvalues) == 1
        assert dec.eigenvalues[0] == pytest.approx(1.0)
        assert dec.multiplicities[0] == 2
        np.testing.assert_allclose(dec.projectors[0], np.eye(2), atol=1e-14)

    def test_near_degenerate_cluster(self):
        dec = herm_eig(np.diag([1.0, 1.0 + 1e-12]))
        assert len(dec.eigenvalues) == 1
        assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-11)

    def test_pauli_x_closed_form(self):
        dec = herm_eig(PAULI_X)
        lo, hi = eig2x2(PAULI_X)
        np.testing.assert_allclose(dec.eigenvalues, [lo, hi], atol=1e-14)
        np.testing.assert_allclose(dec.projectors[0], (np.eye(2) - PAULI_X) / 2,
                                   atol=1e-14)
        np.testing.assert_allclose(dec.projectors[1], (np.eye(2) + PAULI_X) / 2,
                                   atol=1e-14)

    def test_projector_algebra_and_reconstruction(self):
        rng = np.random.default_rng(11)
        for dim in range(2, 9):
            A = as_hermitian(random_psd(rng, dim) - random_psd(rng, dim))
            dec = herm_eig(A)
            total = sum(dec.projectors)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-12)
            for i, P in enumerate(dec.projectors):
                np.testing.assert_allclose(P @ P, P, atol=1e-12)
                for Q in dec.projectors[i + 1:]:
                    assert np.abs(P @ Q).max() < 1e-12
            err = np.abs(reconstruct(dec) - A).max()
            assert err <= 1e-10 * max(1.0, np.abs(A).max())

    def test_reconstruction_bulk(self):
        rng = np.random.default_rng(7)
        for k in range(1000):
            dim = 2 + k % 7
            G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            A = (G + G.conj().T) / 2
            dec = herm_eig(A)
            assert np.abs(reconstruct(dec) - A).max() <= 1e-10 * np.linalg.norm(A, 2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.InvalidOperator):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSupport:
    def test_diagonal(self):
        np.testing.assert_allclose(support_projector(np.diag([0.5, 0.0])),
                                   np.diag([1.0, 0.0]), atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_allclose(support_projector(np.zeros((3, 3))),
                                   np.zeros((3, 3)))

    def test_roundoff_cutoff_keeps_what_the_rank_cutoff_drops(self):
        # 1e-13 is below the rank cutoff (4e-12 here) but far above eigh
        # roundoff (3.6e-15); -1e-16 and 1e-16 are roundoff
        evals = np.array([-1e-16, 1e-16, 1e-13, 1.0])
        np.testing.assert_array_equal(linalg.support_mask(evals),
                                      [False, False, False, True])
        np.testing.assert_array_equal(
            linalg.support_mask(evals, linalg.ROUNDOFF_CUTOFF),
            [False, False, True, True])

    def test_projector_is_own_support(self):
        np.testing.assert_allclose(support_projector(PROJP), PROJP, atol=1e-14)

    def test_support_absorbs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            A = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            pi = support_projector(A)
            np.testing.assert_allclose(pi @ pi, pi, atol=1e-11)
            np.testing.assert_allclose(pi @ A, A, atol=1e-10 * np.abs(A).max())

    def test_not_psd(self):
        with pytest.raises(errors.NotPSD):
            support_projector(np.diag([1.0, -0.2]))

    def test_a_stack_is_judged_matrix_by_matrix(self):
        # beside a matrix of scale 1, a small one is held to its own scale
        big = np.diag([1.0, 0.5])
        with pytest.raises(errors.InvalidOperator):
            as_hermitian(np.array([big, 1e-12 * np.array([[1.0, 0.5], [0.0, 1.0]])]))
        with pytest.raises(errors.NotPSD):
            linalg.psd_spectrum(np.array([big, 1e-12 * np.diag([1.0, -0.5])]))
        _, evals, _ = linalg.psd_spectrum(np.array([big, 1e-12 * big]))
        np.testing.assert_array_equal(linalg.support_mask(evals),
                                      [[True, True], [True, True]])

    def test_validation_slack_scales_with_the_operand(self):
        # a negative eigenvalue or an asymmetry of half the scale is rejected
        # however small the scale; the roundoff of a valid kernel is not
        with pytest.raises(errors.NotPSD):
            support_projector(1e-12 * np.diag([1.0, -0.5]))
        with pytest.raises(errors.InvalidOperator):
            as_hermitian(1e-12 * np.array([[1.0, 0.5], [0.0, 1.0]]))
        np.testing.assert_array_equal(
            support_projector(1e-12 * np.diag([1.0, -1e-15])), np.diag([1.0, 0.0]))

    def test_dominates(self):
        assert analyze(np.diag([1.0, 0.0]), np.diag([1.0, 1.0])).dominated
        assert not analyze(PROJP, PROJ0).dominated
        assert analyze(PROJP, PROJP).dominated

    def test_rejects_empty_and_non_square(self):
        for shape in ((0, 0), (0,), (2, 3)):
            with pytest.raises(errors.InvalidOperator):
                as_matrix(np.zeros(shape))

    # The validation boundaries, one matrix alone or planted in a stack of
    # three valid ones: (where in the stack, entry, value, error or None).
    # SLACK is psd_slack of GOOD's spectrum: a planted least eigenvalue
    # below 1 in magnitude leaves its radius at 1.
    GOOD = np.diag([1.0, 0.5, 0.25]).astype(complex)
    SLACK = float(linalg.psd_slack(np.array([0.25, 0.5, 1.0]))[0])
    DECISIONS = {
        "nan": (1, (0, 1), np.nan, errors.InvalidOperator),
        "+inf": (1, (0, 1), np.inf, errors.InvalidOperator),
        "-inf": (1, (2, 2), -np.inf, errors.InvalidOperator),
        "imaginary inf": (1, (1, 1), complex(0.0, np.inf), errors.InvalidOperator),
        "asymmetry at the bound": (2, (0, 1), linalg.HERMITIAN_TOL, None),
        "asymmetry just above": (2, (0, 1), np.nextafter(linalg.HERMITIAN_TOL, 1.0),
                                 errors.InvalidOperator),
        "least eigenvalue -0.0": (2, (2, 2), -0.0, None),
        "negative within the slack": (2, (2, 2), -0.5 * SLACK, None),
        "negative just past the slack": (2, (2, 2), -1.5 * SLACK, errors.NotPSD),
    }

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("row", DECISIONS)
    def test_validation_decision_table(self, row, stacked):
        at, entry, value, error = self.DECISIONS[row]
        A = np.array([self.GOOD] * 3)
        A[(at,) + entry] = value
        if not stacked:
            A = A[at]
        checks = [linalg.psd_spectrum,
                  lambda A: linalg.psd_spectrum(A, vectors=False)]
        if error is errors.InvalidOperator:
            checks.append(as_hermitian)
        else:       # a finite Hermitian input: psd_eigh alone decides
            as_hermitian(A)
            checks.append(linalg.psd_eigh)
        for check in checks:
            if error is None:
                check(A)
            else:
                with pytest.raises(error):
                    check(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(errors.InvalidOperator):
            as_hermitian(np.array([[bad, 0.0], [0.0, 0.5]]))
        with pytest.raises(errors.InvalidOperator):
            support_projector(np.array([[0.5, bad], [bad, 0.5]]))


class TestFunctionalCalculus:
    def test_gen_inverse_sqrt_diagonal(self):
        np.testing.assert_allclose(gen_inverse_sqrt(np.diag([4.0, 0.0])),
                                   np.diag([0.5, 0.0]), atol=1e-14)
        np.testing.assert_allclose(gen_inverse_sqrt(np.eye(3)), np.eye(3),
                                   atol=1e-14)

    def test_gen_inverse_sqrt_rank_one(self):
        # eigenvalue 9 on the +1 eigenvector of X: closed form 1/3 there
        A = 9.0 * (np.eye(2) + PAULI_X) / 2
        expected = (1.0 / 3.0) * (np.eye(2) + PAULI_X) / 2
        np.testing.assert_allclose(gen_inverse_sqrt(A), expected, atol=1e-12)

    def test_gen_inverse_sqrt_property(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            dim = int(rng.integers(2, 9))
            A = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            S = gen_inverse_sqrt(A)
            pi = support_projector(A)
            assert np.abs(S @ A @ S - pi).max() < 1e-9

    def test_matrix_sqrt(self):
        rng = np.random.default_rng(8)
        A = random_psd(rng, 4)
        R = matrix_sqrt(A)
        np.testing.assert_allclose(R @ R, A, atol=1e-10 * np.abs(A).max())


class TestSchurTilde:
    def test_disjoint_pure_states(self):
        tilde = analyze(PROJ0, PROJP).rho_tilde
        np.testing.assert_allclose(tilde, np.zeros((2, 2)), atol=1e-12)

    def test_dominated_returns_rho(self):
        rng = np.random.default_rng(4)
        rho = random_psd(rng, 3, rank=2)
        sigma = random_psd(rng, 3)
        np.testing.assert_allclose(analyze(rho, sigma).rho_tilde, as_hermitian(rho))

    def test_diagonal_block_formula(self):
        rho = np.diag([0.3, 0.7])
        sigma = np.diag([0.9, 0.0])
        np.testing.assert_allclose(analyze(rho, sigma).rho_tilde,
                                   np.diag([0.3, 0.0]), atol=1e-12)

    def test_rho_minus_tilde_psd(self):
        rng = np.random.default_rng(12)
        for _ in range(80):
            dim = int(rng.integers(2, 7))
            rho = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            sigma = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            tilde = analyze(rho, sigma).rho_tilde
            assert np.linalg.eigvalsh(rho - tilde).min() > -1e-10 * np.abs(rho).max()
            assert analyze(tilde, sigma).dominated

    def test_maximality_against_feasible_operators(self):
        from qfdiv.oracles import shrunk_feasible_operator
        rng = np.random.default_rng(13)
        done = 0
        while done < 100:
            dim = int(rng.integers(2, 6))
            rho = random_psd(rng, dim)
            rho /= np.trace(rho).real
            sigma = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            tilde = analyze(rho, sigma).rho_tilde
            rho1 = shrunk_feasible_operator(rho, sigma, tilde, rng)
            assert np.linalg.eigvalsh(rho1 - tilde).max() <= 1e-9
            done += 1


    def test_feasible_operator_stays_below_rho_at_any_scale(self):
        # pi_sigma rho pi_sigma leaks out of supp rho here, so no multiple
        # of it fits under rho; the leak test is relative to its operand
        from qfdiv.oracles import shrunk_feasible_operator
        rng = np.random.default_rng(14)
        for c in (1.0, 1e-12):
            rho, sigma = c * PROJP, PROJ0
            for _ in range(20):
                rho1 = shrunk_feasible_operator(rho, sigma,
                                                analyze(rho, sigma).rho_tilde, rng)
                assert np.linalg.eigvalsh(rho - rho1).min() >= -1e-10 * c


class TestClusterRule:
    def test_large_eigenvalue_does_not_merge_small_ones(self):
        starts = cluster_starts(np.array([0.0, 0.0, 0.05, 0.87, 1e9]))
        assert starts.tolist() == [0, 2, 3, 4]

    def test_relative_gap_merges_near_degenerate_neighbours(self):
        starts = cluster_starts(np.array([1e-6, 1e-6 * (1 + 1e-9), 2.0]))
        assert starts.tolist() == [0, 2]

    def test_kernel_floor_snaps_to_zero(self):
        evals = np.array([-1e-17, 1e-17, 1e-3, 1.0])
        snapped = snap_kernel(evals, evals, 1.0, 4)
        np.testing.assert_array_equal(snapped, [0.0, 0.0, 1e-3, 1.0])
        # the share, not the spectral radius, decides: an eigenvalue of 1e-3
        # beside one of 1e10 stays when it carries mass
        evals = np.array([-1e-3, 1e-3, 1e10])
        snapped = snap_kernel(evals, evals * [0.5, 0.5, 1e-11], 1.0, 3)
        np.testing.assert_array_equal(snapped, [0.0, 1e-3, 1e10])

    def test_herm_eig_keeps_small_distinct_eigenvalues(self):
        dec = herm_eig(np.diag([0.05, 0.87, 1e9]))
        assert len(dec.eigenvalues) == 3

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            evals = np.sort(np.concatenate([
                np.zeros(int(rng.integers(0, 3))),
                10.0 ** rng.uniform(-12, 9, int(rng.integers(1, 8)))]))
            evals = np.repeat(evals, rng.integers(1, 3, evals.size))
            evals[1:] += evals[1:] * 1e-10 * rng.random(evals.size - 1)
            evals.sort()
            starts = [0]
            for i in range(1, evals.size):
                a, b = evals[i - 1], evals[i]
                if b - a > 1e-8 * max(abs(a), abs(b)):
                    starts.append(i)
            assert cluster_starts(evals).tolist() == starts

    @staticmethod
    def symmetric_rule(evals):
        """The cut of cluster_starts by the larger magnitude of the two
        neighbours, the rule it states, for an ascending spectrum of either
        sign."""
        larger = np.maximum(np.abs(evals[1:]), np.abs(evals[:-1]))
        cut = evals[1:] - evals[:-1] > linalg.CLUSTER_GAP * larger
        return np.flatnonzero(np.concatenate(([True], cut))).tolist()

    def test_upper_neighbour_is_the_larger_magnitude(self):
        # snapped spectra: exact ties, runs of zeros, ties 1e-6 apart, gaps
        # at CLUSTER_GAP's edge and one ulp either side of it
        edge = 1.0 - linalg.CLUSTER_GAP
        cases = [np.zeros(3), np.array([0.0, 0.0, 0.0, 0.4, 0.4, 0.4]),
                 np.array([0.0, 1e-6, 1e-6, 2e-6, 3e-6, 1.0]),
                 np.array([0.0, 0.0, 5e-324, 1e-300, 1.0]),
                 np.array([edge, 1.0]), np.array([np.nextafter(edge, 2), 1.0]),
                 np.array([np.nextafter(edge, 0), 1.0])]
        rng = np.random.default_rng(24)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            values = rng.choice([0.0, 1e-6, 2e-6, 0.3, 0.3 + 1e-9, 0.7], n)
            values = np.repeat(values, rng.integers(1, 3, n))
            shares = values * rng.choice([1.0, 1e-20], values.size)
            cases.append(np.sort(snap_kernel(values, shares, 1.0, values.size)))
        for evals in cases:
            assert cluster_starts(evals).tolist() == self.symmetric_rule(evals)

    def test_signed_spectra_keep_the_symmetric_rule(self):
        # herm_eig's clusters of a spectrum of either sign
        rng = np.random.default_rng(25)
        for _ in range(300):
            values = rng.choice([-1.0, -1.0 + 1e-9, -0.5, -1e-6, -2e-6, 0.0,
                                 1e-6, 0.5, 0.5 + 1e-9], int(rng.integers(1, 9)))
            evals = np.sort(values)
            assert signed_cluster_starts(evals).tolist() == self.symmetric_rule(evals)


@pytest.mark.parametrize("dim", [8, 33, 64, 128])
def test_lower_inverse_matches_a_general_inverse(dim):
    # the block recursion splits from dim 32 up, odd halves included, and
    # broadcasts over a stack
    rng = np.random.default_rng(dim)
    L = np.linalg.cholesky(np.array([random_psd(rng, dim) + np.eye(dim) / dim
                                     for _ in range(3)]))
    got = linalg._lower_inverse(L)
    want = np.linalg.inv(L)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestToleranceTable:
    """The README's Tolerances table against the policy at the top of linalg."""

    README = pathlib.Path(__file__).parent.parent / "README.md"

    def rows(self):
        section = self.README.read_text().split("## Tolerances")[1].split("\n## ")[0]
        return [line for line in section.splitlines() if line.startswith("| `")]

    def test_each_constant_has_one_row(self):
        named = [re.match(r"\| `(\w+)`", row).group(1) for row in self.rows()]
        constants = [name for name, value in vars(linalg).items()
                     if name.isupper() and isinstance(value, (int, float))]
        assert sorted(named) == sorted(constants)

    def test_each_named_function_exists(self):
        for row in self.rows():
            names = re.findall(r"\(`([\w.]+)`\)", row)
            assert names, row
            for name in names:
                head, *rest = name.split(".")
                owner = next((m for m in (linalg, divergence, channels,
                                          generators, rld, oracles)
                              if hasattr(m, head)), None)
                assert owner is not None, f"{name} of {row}"
                obj = getattr(owner, head)
                for attr in rest:
                    obj = getattr(obj, attr)
                assert callable(obj), name


def test_no_threshold_outside_the_policy():
    # every numeric upper-case name of a qfdiv module outside linalg is one
    # of these, so a new cut joins the table above instead of hiding in its
    # own module
    allowed = {"generators.INF", "rld.DEFAULT_STEP"}
    modules = {info.name: importlib.import_module(f"qfdiv.{info.name}")
               for info in pkgutil.iter_modules(qfdiv.__path__)
               if info.name not in ("__main__", "linalg")}
    modules["qfdiv"] = qfdiv
    found = {f"{name}.{key}" for name, module in modules.items()
             for key, value in vars(module).items()
             if key.isupper() and isinstance(value, (int, float, np.number))
             and not isinstance(value, bool)}
    assert found <= allowed
    # nor does a bare literal: every float below 1e-6 in the source of a
    # module other than linalg and suites (whose table holds the suites'
    # tolerances) is a parameter default or an allowed name's value
    bare = []
    for name, module in modules.items():
        if name == "suites":
            continue
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                values = node.args.defaults + node.args.kw_defaults
            elif isinstance(node, ast.keyword) and node.arg == "default":
                values = [node.value]
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and f"{name}.{t.id}" in allowed
                    for t in node.targets):
                values = [node.value]
            else:
                continue
            exempt.update(id(leaf) for value in values if value is not None
                          for leaf in ast.walk(value))
        bare += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, float)
                 and 0 < abs(node.value) < 1e-6 and id(node) not in exempt]
    assert not bare


def _outside_linalg():
    """(module name, node) for each AST node of the package but linalg."""
    for info in pkgutil.iter_modules(qfdiv.__path__):
        if info.name != "linalg":
            path = pathlib.Path(qfdiv.__path__[0]) / f"{info.name}.py"
            for node in ast.walk(ast.parse(path.read_text())):
                yield info.name, node


def _names(node, names) -> bool:
    """Whether node names one of names, as a name, an attribute or an import."""
    return (isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.alias) and node.name in names)


def test_no_cholesky_outside_linalg():
    # every Cholesky of the package is linalg.cholesky_factor's, so its
    # pivot rule is the one proof a factor gives, and only linalg reads the
    # crossover CHOLESKY_MIN_DIM, so that it has one meaning
    calls = [f"{name}:{node.lineno}" for name, node in _outside_linalg()
             if _names(node, ("cholesky", "CHOLESKY_MIN_DIM"))]
    assert not calls


def _is_call_of(node, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def test_no_scalar_rule_outside_linalg():
    # what a scalar argument may be is linalg's to say (is_real, _is_int,
    # _is_seed, check_tolerance), so no other module names numbers or
    # np.bool_, puts bool in an isinstance type or tests type(x) is int
    rules = [f"{name}:{node.lineno}" for name, node in _outside_linalg()
             if _names(node, ("numbers", "bool_"))
             or _is_call_of(node, "isinstance") and any(
                 _names(leaf, ("bool",)) for leaf in ast.walk(node.args[1]))
             or isinstance(node, ast.Compare) and _is_call_of(node.left, "type")
             and any(_names(leaf, ("int",)) for leaf in node.comparators)]
    assert not rules
