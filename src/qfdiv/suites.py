"""Seeded ensemble property suites.

Each per-trial suite walks one trial loop, ``_trials``: trial i draws its
random instances from a Philox counter-based generator keyed by (master
seed, i) and cycles through the configured dims and the fixed generators,
so runs are reproducible across platforms and any failing trial can be
replayed from its recorded index.  A suite yields one row per checked
inequality; ``margin`` is the signed violation the check rule compares
against its tolerance, which ``_SUITES`` keeps next to the suite.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .channels import (_is_int, _is_seed, _rng, check_tolerance,
                       depolarizing_channel, embedding_channel, random_channel,
                       random_state, equality_check, dpi_check)
from .divergence import (analyze, d_max, d_prime, minimal_reverse_test,
                         perturbation_limit_probe, reverse_test_value)
from .generators import (LownerForm, builtin, lebesgue_atoms,
                         lowner_quadrature_check)
from .rld import random_tangent, second_derivative_check

# The generators the ensembles cycle through, trial by trial.
_GENERATORS = (builtin("xlogx"), builtin("square"), builtin("neg_power", 0.5),
               builtin("power", 1.5))


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


def _csv(reports) -> str:
    """One header line, then the rows of each report in turn."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["suite", "dim", "seed", "lhs", "rhs", "margin", "pass"])
    for report in reports:
        for r in report.rows:
            writer.writerow([r.prop, r.dim, r.seed, repr(r.lhs), repr(r.rhs),
                             repr(r.margin), int(r.passed)])
    return buf.getvalue()


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """The per-trial stream: Philox keyed by (master seed, trial index)."""
    return _rng((master_seed, index))


def _trials(cfg):
    """(index, stream, dim, generator) of each trial, cycling dims and
    generators."""
    for i in range(cfg.trials):
        yield (i, trial_rng(cfg.seed, i), cfg.dims[i % len(cfg.dims)],
               _GENERATORS[i % len(_GENERATORS)])


def _le_margin(lhs: float, rhs: float) -> float:
    """Signed violation of lhs <= rhs with extended-real conventions."""
    if math.isinf(rhs) and rhs > 0:
        return 0.0
    if math.isinf(lhs) and lhs > 0:
        return math.inf
    return lhs - rhs


def _le_row(prop, dim, index, lhs, rhs, tol) -> TrialRow:
    """The row of the check lhs <= rhs within tol."""
    margin = _le_margin(lhs, rhs)
    return TrialRow(prop, dim, index, lhs, rhs, margin, margin <= tol)


# ---------------------------------------------------------------- ensembles

def _pair(rng, dim, rank_rho=None, rank_sigma=None):
    rank_rho = rank_rho or int(rng.integers(1, dim + 1))
    rank_sigma = rank_sigma or int(rng.integers(1, dim + 1))
    return random_state(dim, rank_rho, rng), random_state(dim, rank_sigma, rng)


def _commuting_pair(rng, dim, deficient=False):
    """rho = U diag(p) U†, sigma = U diag(q) U† with spectra floored at 0.05.

    With deficient=True the last direction is removed from both (aligned
    supports), exercising the rank-deficient dominated regime.
    """
    U = random_channel(dim, dim, 1, rng).kraus[0]
    p = rng.random(dim) + 0.05
    q = rng.random(dim) + 0.05
    if deficient:
        p[-1] = 0.0
        q[-1] = 0.0
    p /= p.sum()
    q /= q.sum()
    rho = (U * p) @ U.conj().T
    sigma = (U * q) @ U.conj().T
    return (rho + rho.conj().T) / 2, (sigma + sigma.conj().T) / 2


def _undominated_pair(rng, dim):
    """sigma of rank dim-1 and rho with calibrated mass outside its support.

    The mass tr(rho - rho_tilde) escaping supp sigma is kept inside
    roughly [0.1, 0.4]: large enough that recession effects are visible,
    small enough that the eps-perturbation gap sqrt(eps * mass) stays well
    inside the suite tolerance.  Uses that the escaping mass is convex in
    rho, so blending toward an in-support state can only shrink it.
    """
    U = random_channel(dim, dim, 1, rng).kraus[0]
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
    mass = analyze(rho, sigma).escaped
    if mass > 0.4:
        lam = 0.4 / mass
        rho = lam * rho + (1 - lam) * bulk_in
        rho = (rho + rho.conj().T) / 2
    return rho, sigma


def _ill_conditioned_pair(rng, dim, inside):
    """sigma = U diag(s) U† with U Haar (random_channel's unitary) and s
    log-uniform in 1e-12..1 (trace 1); rho = X / tr X for a Wishart
    X = G G†, or with inside, h X h / tr for h = sigma^{1/2}.
    """
    U = random_channel(dim, dim, 1, rng).kraus[0]
    s = 10.0 ** rng.uniform(-12, 0, dim)
    s /= s.sum()
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    X = G @ G.conj().T
    if inside:
        h = (U * np.sqrt(s)) @ U.conj().T
        X = h @ X @ h
    return X / np.trace(X).real, (U * s) @ U.conj().T


def _invertible_pair(rng, dim):
    """Two full-rank states: random states mixed with 1/dim at weight 0.1."""
    eye = np.eye(dim)
    rho = 0.9 * random_state(dim, dim, rng) + 0.1 * eye / dim
    sigma = 0.9 * random_state(dim, dim, rng) + 0.1 * eye / dim
    return rho, sigma


# ------------------------------------------------------------------- suites

def _suite_dpi(cfg, tol):
    for i, rng, dim, f in _trials(cfg):
        # alternate between arbitrary ranks and guaranteed-dominated pairs
        if i % 2 == 0:
            rho, sigma = _pair(rng, dim)
        else:
            rho, sigma = _pair(rng, dim, rank_sigma=dim)
        ch = random_channel(dim, dim, int(rng.integers(1, 4)), rng)
        res = dpi_check(rho, sigma, ch, f, tol)
        yield _le_row("dpi", dim, i, res.value_out, res.value_in, tol)


def _suite_convexity(cfg, tol):
    weights = [k / 10 for k in range(1, 10)]
    c = np.array(weights)[:, None, None]
    for i, rng, dim, f in _trials(cfg):
        rho0, sigma0 = _pair(rng, dim)
        rho1, sigma1 = _pair(rng, dim)
        d0 = d_max(rho0, sigma0, f)
        d1 = d_max(rho1, sigma1, f)
        mixed = d_max(c * rho0 + (1 - c) * rho1,
                      c * sigma0 + (1 - c) * sigma1, f)
        for w, value in zip(weights, mixed.tolist()):
            bound = (w * d0 + (1 - w) * d1
                     if math.isfinite(d0) and math.isfinite(d1) else math.inf)
            yield _le_row("convexity", dim, i, value, bound, tol)


def _suite_sigma_monotonicity(cfg, tol):
    for i, rng, dim, f in _trials(cfg):
        rho, sigma = _pair(rng, dim)
        bigger = sigma + float(rng.uniform(0.1, 1.0)) * random_state(
            dim, int(rng.integers(1, dim + 1)), rng)
        yield _le_row("sigma-monotonicity", dim, i, d_max(rho, bigger, f),
                      d_max(rho, sigma, f), tol)


def _suite_perturbation_limit(cfg, tol):
    half = builtin("neg_power", 0.5)
    square = builtin("square")
    eps_grid = np.logspace(-2, -8, 7)
    for i, rng, dim, _ in _trials(cfg):
        rho, sigma = _undominated_pair(rng, dim)
        probe = perturbation_limit_probe(rho, sigma, half, eps_grid)
        values = [v for _, v in probe]
        mono_violation = max(
            (a - b for a, b in zip(values, values[1:])), default=0.0)
        target = d_max(rho, sigma, half)
        gap = abs(values[-1] - target)
        margin = max(gap, mono_violation)
        yield TrialRow("neg-power-limit", dim, i, values[-1], target,
                       margin, margin <= tol)
        blowup = d_prime(rho, sigma + 1e-8 * np.eye(dim), square)
        yield TrialRow("square-divergence", dim, i, blowup, 1e6,
                       _le_margin(1e6, blowup), blowup > 1e6)


def _suite_rho_tilde_maximality(cfg, tol):
    for i, rng, dim, _ in _trials(cfg):
        if i % 2 == 0:
            rho, sigma = _undominated_pair(rng, dim)
        else:
            rho, sigma = _pair(rng, dim)
        tilde = analyze(rho, sigma).rho_tilde
        lam_min = float(np.linalg.eigvalsh(rho - tilde).min())
        yield TrialRow("rho-minus-tilde-psd", dim, i, -lam_min, 0.0,
                       -lam_min, -lam_min <= 1e-10)
        rho1 = oracles.shrunk_feasible_operator(rho, sigma, tilde, rng)
        excess = float(np.linalg.eigvalsh(rho1 - tilde).max())
        yield TrialRow("feasible-below-tilde", dim, i, excess, 0.0,
                       excess, excess <= tol)


def _suite_umegaki(cfg, tol):
    xlogx = builtin("xlogx")
    for i, rng, dim, _ in _trials(cfg):
        rho, sigma = _invertible_pair(rng, dim)
        yield _le_row("umegaki-bound", dim, i,
                      oracles.umegaki_relative_entropy(rho, sigma),
                      d_max(rho, sigma, xlogx), tol)


def _reconstruction_error(rt, rho, sigma) -> float:
    got_rho, got_sigma = rt.reconstruct()
    err = max(float(np.abs(got_rho - rho).max()),
              float(np.abs(got_sigma - sigma).max()))
    for X in rt.groups():
        # X^H X has the trace and the nonzero spectrum of the atom X X^H
        w = np.linalg.eigvalsh(X.conj().T @ X)
        err = max(err, abs(float(w.sum()) - 1.0), -float(w.min()))
    return err


def _suite_reverse_test_reconstruction(cfg, tol):
    for i, rng, dim, _ in _trials(cfg):
        kind = i % 4
        if kind == 0:
            rho, sigma = _pair(rng, dim)
        elif kind == 1:
            rho, sigma = _pair(rng, dim, rank_sigma=dim - 1)
        elif kind == 2:
            rho, sigma = _undominated_pair(rng, dim)
        else:
            rho, sigma = _ill_conditioned_pair(rng, dim, inside=i % 8 == 7)
        rt = minimal_reverse_test(rho, sigma)
        err = _reconstruction_error(rt, rho, sigma)
        yield TrialRow("reconstruction", dim, i, err, 0.0, err, err <= tol)


def _suite_reverse_test_optimality(cfg, tol):
    for i, rng, dim, f in _trials(cfg):
        dim = min(dim, 4)
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
            yield _le_row("optimality", dim, i, best,
                          reverse_test_value(alt, f), tol)


# Fixed non-commuting qubit pair for the noisy-channel decrease check.
_QUBIT_RHO = np.array([[0.75, 0.15], [0.15, 0.25]], dtype=complex)
_QUBIT_SIGMA = np.array([[0.4, -0.1j], [0.1j, 0.6]], dtype=complex)


def _suite_equality_preservation(cfg, tol):
    half = builtin("neg_power", 0.5)
    square = builtin("square")
    for i, rng, dim, _ in _trials(cfg):
        rho, sigma = _pair(rng, dim) if i % 2 else _pair(rng, dim, rank_sigma=dim)
        for prop, ch in (("unitary-preserves", random_channel(dim, dim, 1, rng)),
                         ("embedding-preserves", embedding_channel(dim, dim + 1))):
            rep = equality_check(rho, sigma, ch, half, tol)
            good = (rep.equal and rep.reverse_test_preserved and rep.p_match
                    and rep.q_match and rep.multiplicative_domain_ok in (True, None))
            yield TrialRow(prop, dim, i, rep.value_out, rep.value_in,
                           abs(rep.value_in - rep.value_out), good)
    rep = equality_check(_QUBIT_RHO, _QUBIT_SIGMA, depolarizing_channel(2, 0.3),
                         square, tol)
    decrease = rep.value_in - rep.value_out
    yield TrialRow("depolarizing-decreases", 2, -1, rep.value_out,
                   rep.value_in, -decrease, (not rep.equal) and decrease >= 1e-3)


def _suite_rld(cfg, tol):
    square = builtin("square")
    for i, rng, dim, f in _trials(cfg):
        dim = min(dim, 3)
        rho = 0.7 * random_state(dim, dim, rng) + 0.3 * np.eye(dim) / dim
        X = random_tangent(rho, rng).direction
        Y = random_tangent(rho, rng).direction
        res = second_derivative_check(rho, X, Y, f)
        yield TrialRow("mixed-difference", dim, i, res.fd_value,
                       res.analytic, res.abs_err, res.abs_err <= tol)
        spread = max(res.variants) - min(res.variants)
        yield TrialRow("variant-agreement", dim, i, max(res.variants),
                       min(res.variants), spread, spread <= tol)
        # the quadratic layout is step-independent, so a large step keeps
        # float cancellation out of the 1e-9 budget
        exact = second_derivative_check(rho, X, Y, square, step=0.25)
        err = abs(exact.variants[2] - exact.analytic)
        yield TrialRow("square-exact", dim, i, exact.variants[2],
                       exact.analytic, err, err <= 1e-9)


def _suite_lowner(cfg, tol):
    grid = np.linspace(0.1, 10.0, 200)
    form = LownerForm(a=0.0, b=0.0, atoms=lebesgue_atoms())
    err = lowner_quadrature_check(builtin("xlogx"), form, grid)
    yield TrialRow("xlogx-lebesgue", 0, 0, err, 0.0, err, err <= tol)
    # a unit atom at t contributes y/(1+t) + psi_t(y); the linear term
    # a = -1/(1+t) cancels the compensator, leaving psi_t exactly
    psi = builtin("psi", 2.0)
    self_form = LownerForm(a=-1.0 / 3.0, b=0.0, atoms=((2.0, 1.0),))
    err = lowner_quadrature_check(psi, self_form, grid)
    yield TrialRow("psi-self", 0, 0, err, 0.0, err, err <= 1e-12)
    err = lowner_quadrature_check(builtin("square"), LownerForm(0.0, 1.0), grid)
    yield TrialRow("square-b-term", 0, 0, err, 0.0, err, err <= 1e-12)


def _suite_geometric_mean_symmetry(cfg, tol):
    for i, rng, dim, _ in _trials(cfg):
        rho, sigma = _invertible_pair(rng, dim)
        alpha = float(rng.uniform(0.05, 0.95))
        lhs = d_max(rho, sigma, builtin("neg_power", alpha))
        rhs = d_max(sigma, rho, builtin("neg_power", 1.0 - alpha))
        err = abs(lhs - rhs)
        yield TrialRow("alpha-swap", dim, i, lhs, rhs, err, err <= tol)


def _suite_commutative_oracle(cfg, tol):
    for i, rng, dim, f in _trials(cfg):
        rho, sigma = _commuting_pair(rng, dim, deficient=(i % 3 == 0))
        lhs = d_max(rho, sigma, f)
        rhs = oracles.classical_oracle(rho, sigma, f)
        if math.isinf(lhs) and math.isinf(rhs):
            err = 0.0
        else:
            err = abs(lhs - rhs)
        yield TrialRow("commutative-recovery", dim, i, lhs, rhs, err,
                       err <= tol)


# Each suite with its default tolerance.
_SUITES = {
    "dpi": (_suite_dpi, 1e-8),
    "convexity": (_suite_convexity, 1e-8),
    "sigma-monotonicity": (_suite_sigma_monotonicity, 1e-8),
    "perturbation-limit": (_suite_perturbation_limit, 1e-4),
    "rho-tilde-maximality": (_suite_rho_tilde_maximality, 1e-9),
    "umegaki-bound": (_suite_umegaki, 1e-8),
    "reverse-test-reconstruction": (_suite_reverse_test_reconstruction, 1e-9),
    "reverse-test-optimality": (_suite_reverse_test_optimality, 1e-8),
    "equality-preservation": (_suite_equality_preservation, 1e-8),
    "rld-second-derivative": (_suite_rld, 1e-4),
    "lowner-quadrature": (_suite_lowner, 1e-12),
    "geometric-mean-symmetry": (_suite_geometric_mean_symmetry, 1e-8),
    "commutative-oracle": (_suite_commutative_oracle, 1e-10),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Execute one suite; deterministic in (config, seed).

    ValueError unless trials is an int >= 1, dims a non-empty tuple or list
    of ints >= 2 (bool is not an int here), the seed an int in 0..2**64-1
    and tol, when given, finite and >= 0.
    """
    if cfg.suite not in _SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; available: "
                         f"{', '.join(SUITE_NAMES)}")
    if not _is_int(cfg.trials) or cfg.trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {cfg.trials!r}")
    if (not isinstance(cfg.dims, (tuple, list)) or not cfg.dims
            or not all(_is_int(d) and d >= 2 for d in cfg.dims)):
        raise ValueError(f"dims must contain integers >= 2, got {cfg.dims!r}")
    if not _is_seed(cfg.seed):
        raise ValueError(
            f"seed must lie in 0..2**64-1 as an integer, got {cfg.seed!r}")
    suite, default_tol = _SUITES[cfg.suite]
    tol = default_tol if cfg.tol is None else cfg.tol
    check_tolerance(tol)
    start = time.perf_counter()
    rows = list(suite(cfg, tol))
    wall = time.perf_counter() - start
    return SuiteReport(cfg.suite, cfg.seed, cfg.dims, cfg.trials, tol,
                       rows, wall)
