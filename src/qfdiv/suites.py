"""Seeded ensemble property suites.

Each suite draws its random instances from a Philox counter-based generator
keyed by (master seed, trial index), so runs are reproducible across
platforms and any failing trial can be replayed from its recorded index.
A suite returns one row per checked inequality; ``margin`` is the signed
violation the check rule compares against its tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .channels import (depolarizing_channel, embedding_channel, random_channel,
                       random_state, equality_check, dpi_check, unitary_channel)
from .divergence import (analyze, d_max, d_prime, minimal_reverse_test,
                         perturbation_limit_probe, reverse_test_value)
from .generators import (LownerForm, builtin, lebesgue_atoms,
                         lowner_quadrature_check)
from .rld import random_tangent, second_derivative_check

# The generators the ensembles cycle through, trial by trial.
_GENERATORS = (builtin("xlogx"), builtin("square"), builtin("neg_power", 0.5),
               builtin("power", 1.5))

SUITE_TOLS = {
    "dpi": 1e-8,
    "convexity": 1e-8,
    "sigma-monotonicity": 1e-8,
    "perturbation-limit": 1e-4,
    "rho-tilde-maximality": 1e-9,
    "umegaki-bound": 1e-8,
    "reverse-test-reconstruction": 1e-9,
    "reverse-test-optimality": 1e-8,
    "equality-preservation": 1e-8,
    "rld-second-derivative": 1e-4,
    "lowner-quadrature": 1e-3,
    "geometric-mean-symmetry": 1e-8,
    "commutative-oracle": 1e-10,
}


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    dims: tuple[int, ...] = (2, 3, 4)
    trials: int = 100
    seed: int = 0
    tol: float | None = None


@dataclass(frozen=True)
class TrialRow:
    prop: str
    dim: int
    seed: int
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass
class SuiteReport:
    suite: str
    seed: int
    dims: tuple[int, ...]
    trials: int
    tol: float
    rows: list[TrialRow] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def total_pass(self) -> int:
        return sum(1 for r in self.rows if r.passed)

    @property
    def total_fail(self) -> int:
        return sum(1 for r in self.rows if not r.passed)

    def ok(self) -> bool:
        return self.total_fail == 0

    def property_summary(self) -> dict:
        props: dict[str, dict] = {}
        for r in self.rows:
            entry = props.setdefault(r.prop, {
                "pass": 0, "fail": 0, "worst_violation": -math.inf,
                "failing_seeds": []})
            entry["pass" if r.passed else "fail"] += 1
            if r.margin > entry["worst_violation"]:
                entry["worst_violation"] = r.margin
            if not r.passed and len(entry["failing_seeds"]) < 20:
                entry["failing_seeds"].append(r.seed)
        return props

    def as_dict(self, include_rows: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "dims": list(self.dims),
            "trials": self.trials,
            "tol": self.tol,
            "pass": self.total_pass,
            "fail": self.total_fail,
            "ok": self.ok(),
            "properties": self.property_summary(),
            "wall_time_s": self.wall_time_s,
        }
        if include_rows:
            out["rows"] = [vars(r) | {} for r in self.rows]
        return out

    def to_json(self, include_rows: bool = False) -> str:
        return json.dumps(self.as_dict(include_rows), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["suite", "dim", "seed", "lhs", "rhs", "margin", "pass"])
        for r in self.rows:
            writer.writerow([r.prop, r.dim, r.seed, repr(r.lhs), repr(r.rhs),
                             repr(r.margin), int(r.passed)])
        return buf.getvalue()


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """The per-trial stream: Philox keyed by (master seed, trial index)."""
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _le_margin(lhs: float, rhs: float) -> float:
    """Signed violation of lhs <= rhs with extended-real conventions."""
    if math.isinf(rhs) and rhs > 0:
        return 0.0
    if math.isinf(lhs) and lhs > 0:
        return math.inf
    return lhs - rhs


# ---------------------------------------------------------------- ensembles

def _pair(rng, dim, rank_rho=None, rank_sigma=None):
    rank_rho = rank_rho or int(rng.integers(1, dim + 1))
    rank_sigma = rank_sigma or int(rng.integers(1, dim + 1))
    return random_state(dim, rank_rho, rng), random_state(dim, rank_sigma, rng)


def _haar_unitary(rng, dim):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R)
    return Q * (diag / np.abs(diag)).conj()


def _commuting_pair(rng, dim, floor=0.05, deficient=False):
    """rho = U diag(p) U†, sigma = U diag(q) U† with floored spectra.

    With deficient=True the last direction is removed from both (aligned
    supports), exercising the rank-deficient dominated regime.
    """
    U = _haar_unitary(rng, dim)
    p = rng.random(dim) + floor
    q = rng.random(dim) + floor
    if deficient and dim > 1:
        p[-1] = 0.0
        q[-1] = 0.0
    p /= p.sum()
    q /= q.sum()
    rho = (U * p) @ U.conj().T
    sigma = (U * q) @ U.conj().T
    return (rho + rho.conj().T) / 2, (sigma + sigma.conj().T) / 2, p, q


def _undominated_pair(rng, dim, m_cap=0.4):
    """sigma of rank dim-1 and rho with calibrated mass outside its support.

    The mass tr(rho - rho_tilde) escaping supp sigma is kept inside
    roughly [0.1, m_cap]: large enough that recession effects are visible,
    small enough that the eps-perturbation gap sqrt(eps * mass) stays well
    inside the suite tolerance.  Uses that the escaping mass is convex in
    rho, so blending toward an in-support state can only shrink it.
    """
    U = _haar_unitary(rng, dim)
    spec = rng.random(dim - 1) + 0.1
    spec /= spec.sum()
    sigma = (U[:, :-1] * spec) @ U[:, :-1].conj().T
    sigma = (sigma + sigma.conj().T) / 2
    e = U[:, -1]
    pi_in = np.eye(dim) - np.outer(e, e.conj())
    raw = pi_in @ random_state(dim, dim, rng) @ pi_in
    bulk_in = (raw + raw.conj().T) / (2 * np.trace(raw).real)
    bulk_full = random_state(dim, dim, rng)
    w = float(rng.uniform(0.18, 0.35))
    c = float(rng.uniform(0.1, 0.3))
    rho = (1 - w) * ((1 - c) * bulk_in + c * bulk_full) + w * np.outer(e, e.conj())
    rho = (rho + rho.conj().T) / 2
    tilde = analyze(rho, sigma).rho_tilde
    mass = float(np.trace(rho - tilde).real)
    if mass > m_cap:
        lam = m_cap / mass
        rho = lam * rho + (1 - lam) * bulk_in
        rho = (rho + rho.conj().T) / 2
    return rho, sigma


def _invertible_pair(rng, dim, floor=0.1):
    eye = np.eye(dim)
    rho = (1 - floor) * random_state(dim, dim, rng) + floor * eye / dim
    sigma = (1 - floor) * random_state(dim, dim, rng) + floor * eye / dim
    return rho, sigma


# ------------------------------------------------------------------- suites

def _suite_dpi(cfg, tol):
    rows = []
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = cfg.dims[i % len(cfg.dims)]
        f = _GENERATORS[i % len(_GENERATORS)]
        # alternate between arbitrary ranks and guaranteed-dominated pairs
        if i % 2 == 0:
            rho, sigma = _pair(rng, dim)
        else:
            rho, sigma = _pair(rng, dim, rank_sigma=dim)
        ch = random_channel(dim, dim, int(rng.integers(1, 4)), rng)
        res = dpi_check(rho, sigma, ch, f, tol)
        margin = _le_margin(res.value_out, res.value_in)
        rows.append(TrialRow("dpi", dim, i, res.value_out, res.value_in,
                             margin, margin <= tol))
    return rows


def _suite_convexity(cfg, tol):
    rows = []
    weights = [k / 10 for k in range(1, 10)]
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = cfg.dims[i % len(cfg.dims)]
        f = _GENERATORS[i % len(_GENERATORS)]
        rho0, sigma0 = _pair(rng, dim)
        rho1, sigma1 = _pair(rng, dim)
        d0 = d_max(rho0, sigma0, f)
        d1 = d_max(rho1, sigma1, f)
        for c in weights:
            mixed = d_max(c * rho0 + (1 - c) * rho1,
                          c * sigma0 + (1 - c) * sigma1, f)
            bound = (c * d0 + (1 - c) * d1
                     if math.isfinite(d0) and math.isfinite(d1) else math.inf)
            margin = _le_margin(mixed, bound)
            rows.append(TrialRow("convexity", dim, i, mixed, bound, margin,
                                 margin <= tol))
    return rows


def _suite_sigma_monotonicity(cfg, tol):
    rows = []
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = cfg.dims[i % len(cfg.dims)]
        f = _GENERATORS[i % len(_GENERATORS)]
        rho, sigma = _pair(rng, dim)
        bigger = sigma + float(rng.uniform(0.1, 1.0)) * random_state(
            dim, int(rng.integers(1, dim + 1)), rng)
        lhs = d_max(rho, bigger, f)
        rhs = d_max(rho, sigma, f)
        margin = _le_margin(lhs, rhs)
        rows.append(TrialRow("sigma-monotonicity", dim, i, lhs, rhs, margin,
                             margin <= tol))
    return rows


def _suite_perturbation_limit(cfg, tol):
    rows = []
    half = builtin("neg_power", 0.5)
    square = builtin("square")
    eps_grid = np.logspace(-2, -8, 7)
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = max(cfg.dims[i % len(cfg.dims)], 2)
        rho, sigma = _undominated_pair(rng, dim)
        probe = perturbation_limit_probe(rho, sigma, half, eps_grid)
        values = [v for _, v in probe]
        mono_violation = max(
            (a - b for a, b in zip(values, values[1:])), default=0.0)
        target = d_max(rho, sigma, half)
        gap = abs(values[-1] - target)
        margin = max(gap, mono_violation)
        rows.append(TrialRow("neg-power-limit", dim, i, values[-1], target,
                             margin, margin <= tol))
        blowup = d_prime(rho, sigma + 1e-8 * np.eye(dim), square)
        rows.append(TrialRow("square-divergence", dim, i, blowup, 1e6,
                             _le_margin(1e6, blowup), blowup > 1e6))
    return rows


def _suite_rho_tilde_maximality(cfg, tol):
    rows = []
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = cfg.dims[i % len(cfg.dims)]
        if i % 2 == 0 and dim > 1:
            rho, sigma = _undominated_pair(rng, dim)
        else:
            rho, sigma = _pair(rng, dim)
        tilde = analyze(rho, sigma).rho_tilde
        lam_min = float(np.linalg.eigvalsh(rho - tilde).min())
        rows.append(TrialRow("rho-minus-tilde-psd", dim, i, -lam_min, 0.0,
                             -lam_min, -lam_min <= 1e-10))
        rho1 = oracles.shrunk_feasible_operator(rho, sigma, tilde, rng)
        excess = float(np.linalg.eigvalsh(rho1 - tilde).max())
        rows.append(TrialRow("feasible-below-tilde", dim, i, excess, 0.0,
                             excess, excess <= tol))
    return rows


def _suite_umegaki(cfg, tol):
    rows = []
    xlogx = builtin("xlogx")
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = cfg.dims[i % len(cfg.dims)]
        rho, sigma = _invertible_pair(rng, dim)
        lhs = oracles.umegaki_relative_entropy(rho, sigma)
        rhs = d_max(rho, sigma, xlogx)
        margin = _le_margin(lhs, rhs)
        rows.append(TrialRow("umegaki-bound", dim, i, lhs, rhs, margin,
                             margin <= tol))
    return rows


def _reconstruction_error(rt, rho, sigma) -> float:
    got_rho, got_sigma = rt.reconstruct()
    err = max(float(np.abs(got_rho - rho).max()),
              float(np.abs(got_sigma - sigma).max()))
    for out in rt.outputs:
        err = max(err, abs(float(np.trace(out).real) - 1.0))
        err = max(err, max(0.0, -float(np.linalg.eigvalsh(out).min())))
    return err


def _suite_reverse_test_reconstruction(cfg, tol):
    rows = []
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = cfg.dims[i % len(cfg.dims)]
        kind = i % 3
        if kind == 0:
            rho, sigma = _pair(rng, dim)
        elif kind == 1:
            rho, sigma = _pair(rng, dim, rank_sigma=max(1, dim - 1))
        else:
            rho, sigma = (_undominated_pair(rng, dim) if dim > 1
                          else _pair(rng, dim))
        rt = minimal_reverse_test(rho, sigma)
        err = _reconstruction_error(rt, rho, sigma)
        rows.append(TrialRow("reconstruction", dim, i, err, 0.0, err,
                             err <= tol))
    return rows


def _suite_reverse_test_optimality(cfg, tol):
    rows = []
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = min(cfg.dims[i % len(cfg.dims)], 4)
        f = _GENERATORS[i % len(_GENERATORS)]
        rho, sigma = _pair(rng, dim)
        minimal = minimal_reverse_test(rho, sigma)
        best = reverse_test_value(minimal, f)
        if not math.isfinite(best):
            continue  # an infinite optimum cannot be undercut
        disjoint = oracles.disjoint_reverse_test(rho, sigma, rng)
        alternatives = [
            disjoint,
            oracles.refine_reverse_test(minimal, rng,
                                        splits=int(rng.integers(2, 4))),
            oracles.concat_reverse_tests(minimal, disjoint,
                                         float(rng.uniform(0.2, 0.8))),
            oracles.random_reverse_test(rho, sigma, rng),
        ]
        for alt in alternatives:
            value = reverse_test_value(alt, f)
            margin = _le_margin(best, value)
            rows.append(TrialRow("optimality", dim, i, best, value, margin,
                                 margin <= tol))
    return rows


# Fixed non-commuting qubit pair for the noisy-channel decrease check.
_QUBIT_RHO = np.array([[0.75, 0.15], [0.15, 0.25]], dtype=complex)
_QUBIT_SIGMA = np.array([[0.4, -0.1j], [0.1j, 0.6]], dtype=complex)


def _suite_equality_preservation(cfg, tol):
    rows = []
    half = builtin("neg_power", 0.5)
    square = builtin("square")
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = cfg.dims[i % len(cfg.dims)]
        rho, sigma = _pair(rng, dim) if i % 2 else _pair(rng, dim, rank_sigma=dim)
        rep = equality_check(rho, sigma, unitary_channel(_haar_unitary(rng, dim)),
                             half, tol)
        good = (rep.equal and rep.reverse_test_preserved and rep.p_match
                and rep.q_match and rep.multiplicative_domain_ok in (True, None))
        gap = abs(rep.value_in - rep.value_out)
        rows.append(TrialRow("unitary-preserves", dim, i, rep.value_out,
                             rep.value_in, gap, good))
        rep = equality_check(rho, sigma, embedding_channel(dim, dim + 1),
                             half, tol)
        good = (rep.equal and rep.reverse_test_preserved and rep.p_match
                and rep.q_match and rep.multiplicative_domain_ok in (True, None))
        gap = abs(rep.value_in - rep.value_out)
        rows.append(TrialRow("embedding-preserves", dim, i, rep.value_out,
                             rep.value_in, gap, good))
    rep = equality_check(_QUBIT_RHO, _QUBIT_SIGMA, depolarizing_channel(2, 0.3),
                         square, tol)
    decrease = rep.value_in - rep.value_out
    rows.append(TrialRow("depolarizing-decreases", 2, -1, rep.value_out,
                         rep.value_in, -decrease,
                         (not rep.equal) and decrease >= 1e-3))
    return rows


def _suite_rld(cfg, tol):
    rows = []
    square = builtin("square")
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = min(cfg.dims[i % len(cfg.dims)], 3)
        f = _GENERATORS[i % len(_GENERATORS)]
        rho = 0.7 * random_state(dim, dim, rng) + 0.3 * np.eye(dim) / dim
        X = random_tangent(rho, rng).direction
        Y = random_tangent(rho, rng).direction
        res = second_derivative_check(rho, X, Y, f)
        rows.append(TrialRow("mixed-difference", dim, i, res.fd_value,
                             res.analytic, res.abs_err, res.abs_err <= tol))
        spread = max(res.variants) - min(res.variants)
        rows.append(TrialRow("variant-agreement", dim, i, max(res.variants),
                             min(res.variants), spread, spread <= tol))
        # the quadratic layout is step-independent, so a large step keeps
        # float cancellation out of the 1e-9 budget
        exact = second_derivative_check(rho, X, Y, square, step=0.25)
        err = abs(exact.variants[2] - exact.analytic)
        rows.append(TrialRow("square-exact", dim, i, exact.variants[2],
                             exact.analytic, err, err <= 1e-9))
    return rows


def _suite_lowner(cfg, tol):
    rows = []
    grid = np.linspace(0.1, 10.0, 200)
    form = LownerForm(a=0.0, b=0.0, atoms=lebesgue_atoms())
    err = lowner_quadrature_check(builtin("xlogx"), form, grid)
    rows.append(TrialRow("xlogx-lebesgue", 0, 0, err, 0.0, err, err <= tol))
    # a unit atom at t contributes y/(1+t) + psi_t(y); the linear term
    # a = -1/(1+t) cancels the compensator, leaving psi_t exactly
    psi = builtin("psi", 2.0)
    self_form = LownerForm(a=-1.0 / 3.0, b=0.0, atoms=((2.0, 1.0),))
    err = lowner_quadrature_check(psi, self_form, grid)
    rows.append(TrialRow("psi-self", 0, 0, err, 0.0, err, err <= 1e-12))
    err = lowner_quadrature_check(builtin("square"), LownerForm(0.0, 1.0), grid)
    rows.append(TrialRow("square-b-term", 0, 0, err, 0.0, err, err <= 1e-12))
    return rows


def _suite_geometric_mean_symmetry(cfg, tol):
    rows = []
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = cfg.dims[i % len(cfg.dims)]
        rho, sigma = _invertible_pair(rng, dim)
        alpha = float(rng.uniform(0.05, 0.95))
        lhs = d_max(rho, sigma, builtin("neg_power", alpha))
        rhs = d_max(sigma, rho, builtin("neg_power", 1.0 - alpha))
        err = abs(lhs - rhs)
        rows.append(TrialRow("alpha-swap", dim, i, lhs, rhs, err, err <= tol))
    return rows


def _suite_commutative_oracle(cfg, tol):
    rows = []
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        dim = cfg.dims[i % len(cfg.dims)]
        f = _GENERATORS[i % len(_GENERATORS)]
        rho, sigma, _, _ = _commuting_pair(rng, dim, deficient=(i % 3 == 0))
        lhs = d_max(rho, sigma, f)
        rhs = oracles.classical_oracle(rho, sigma, f)
        if math.isinf(lhs) and math.isinf(rhs):
            err = 0.0
        else:
            err = abs(lhs - rhs)
        rows.append(TrialRow("commutative-recovery", dim, i, lhs, rhs, err,
                             err <= tol))
    return rows


_SUITES = {
    "dpi": _suite_dpi,
    "convexity": _suite_convexity,
    "sigma-monotonicity": _suite_sigma_monotonicity,
    "perturbation-limit": _suite_perturbation_limit,
    "rho-tilde-maximality": _suite_rho_tilde_maximality,
    "umegaki-bound": _suite_umegaki,
    "reverse-test-reconstruction": _suite_reverse_test_reconstruction,
    "reverse-test-optimality": _suite_reverse_test_optimality,
    "equality-preservation": _suite_equality_preservation,
    "rld-second-derivative": _suite_rld,
    "lowner-quadrature": _suite_lowner,
    "geometric-mean-symmetry": _suite_geometric_mean_symmetry,
    "commutative-oracle": _suite_commutative_oracle,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Execute one suite; deterministic in (config, seed)."""
    if cfg.suite not in _SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; available: "
                         f"{', '.join(SUITE_NAMES)}")
    if cfg.trials < 1:
        raise ValueError("trials must be at least 1")
    if not cfg.dims or min(cfg.dims) < 2:
        raise ValueError("dims must contain integers >= 2")
    tol = SUITE_TOLS[cfg.suite] if cfg.tol is None else cfg.tol
    start = time.perf_counter()
    rows = _SUITES[cfg.suite](cfg, tol)
    wall = time.perf_counter() - start
    return SuiteReport(cfg.suite, cfg.seed, cfg.dims, cfg.trials, tol,
                       rows, wall)
