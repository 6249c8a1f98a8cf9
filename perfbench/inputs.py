"""Seeded inputs for the benchmark workloads.

Every matrix is made here, from ``numpy.random.default_rng``, without any
call into qfdiv; the program only ever receives the finished arrays.  Each
pair carries the facts of its construction (kind, rank of sigma) that the
reference and the checks use.  The near-threshold and plain-Wishart pairs
do not depend on the seed; the known reverse-test fault shows on some of
them (their ``fault``), so that the failed count is the same in every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The four default generators of the property suites.
GENERATORS = ("xlogx", "square", "neg_power:0.5", "power:1.5")

SUITE_DIMS = (2, 3, 4)
SUITE_TRIALS = 3
SUITE_SEEDS = 12       # suite passes per round, one master seed each

SMALL_DIMS = (2, 3, 4)
SMALL_PER_KIND = 25
SMALL_KINDS = ("dominated", "rank-deficient", "undominated", "commuting")

# Near-threshold sigma = U diag(0.5, 0.5 - eps, eps) U^T; every eps is at
# least twice the rank cutoff 3e-12 * 0.5, so sigma has full rank.
NEAR_EPS = (1e-6, 1e-9, 3e-10, 1e-11, 3e-12)
NEAR_FAULT_EPS = 1e-9  # eps at or below which the reverse test fails

LARGE_DIM = 128
LARGE_DEFICIT = 8      # sigma of rank dim - 8 in the undominated pairs
FLOOR = 0.1            # share of the identity mixed into floored spectra
# Seeds of the fixed plain-Wishart pairs at dim 128, and of those on which
# the reverse test fails.
PLAIN_SEEDS = (0, 1, 2)
PLAIN_FAULT_SEEDS = (0, 1)

CLI_DIM = 3


@dataclass
class Pair:
    name: str
    kind: str
    rho: np.ndarray
    sigma: np.ndarray
    rho_rank: int
    sigma_rank: int
    escapes: bool = False  # part of rho lies outside supp sigma
    fault: str | None = None  # the known fault shown here (checks.KNOWN_FAULTS)
    # joint spectrum of a commuting pair, in its common eigenbasis
    p: np.ndarray | None = None
    q: np.ndarray | None = None


def _herm(A: np.ndarray) -> np.ndarray:
    return (A + A.conj().T) / 2


def haar_unitary(rng, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d)).conj()


def wishart(rng, n: int, k: int | None = None) -> np.ndarray:
    """Complex Wishart G G† with G of shape n x k, normalised to unit trace."""
    k = n if k is None else k
    G = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    W = G @ G.conj().T
    return _herm(W / np.trace(W).real)


def floored(W: np.ndarray, floor: float = FLOOR) -> np.ndarray:
    n = W.shape[0]
    return _herm((1 - floor) * W + floor * np.eye(n) / n)


def _on_subspace(U: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """U[:, :r] diag(spec) U[:, :r]† for r = len(spec)."""
    V = U[:, :spec.size]
    return _herm((V * spec) @ V.conj().T)


def _spectrum(rng, r: int) -> np.ndarray:
    s = rng.random(r) + FLOOR
    return s / s.sum()


def small_pair(rng, kind: str, dim: int, name: str) -> Pair:
    U = haar_unitary(rng, dim)
    if kind == "commuting":
        p = _spectrum(rng, dim)
        q = _spectrum(rng, dim)
        if rng.random() < 0.5:        # a shared kernel direction
            p[-1] = q[-1] = 0.0
            p /= p.sum()
            q /= q.sum()
        rank = int(np.count_nonzero(q))
        return Pair(name, kind, _herm((U * p) @ U.conj().T),
                    _herm((U * q) @ U.conj().T), rank, rank, p=p, q=q)
    if kind == "dominated":
        sigma = _on_subspace(U, _spectrum(rng, dim))
        r = int(rng.integers(1, dim + 1))
        rho = _on_subspace(haar_unitary(rng, dim), _spectrum(rng, r))
        return Pair(name, kind, rho, sigma, r, dim)
    # sigma of rank dim - 1 with a floored spectrum on its support
    sigma = _on_subspace(U, _spectrum(rng, dim - 1))
    if kind == "rank-deficient":
        # rho of rank r inside supp sigma
        r = int(rng.integers(1, dim))
        basis = U[:, :dim - 1] @ haar_unitary(rng, dim - 1)
        rho = _on_subspace(basis, _spectrum(rng, r))
        return Pair(name, kind, rho, sigma, r, dim - 1)
    if kind == "undominated":
        rho = _on_subspace(haar_unitary(rng, dim), _spectrum(rng, dim))
        return Pair(name, kind, rho, sigma, dim, dim - 1, escapes=True)
    raise ValueError(kind)


def near_threshold_pairs() -> list[Pair]:
    """The reproducer family: a fixed rho and a real rotation of
    diag(0.5, 0.5 - eps, eps), one pair per eps in NEAR_EPS."""
    rng = np.random.default_rng(5)
    rho = _on_subspace(haar_unitary(rng, 3), _spectrum(rng, 3))
    O, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    out = []
    for eps in NEAR_EPS:
        sigma = _herm((O * np.array([0.5, 0.5 - eps, eps])) @ O.T).astype(complex)
        fault = "clustering-near-threshold" if eps <= NEAR_FAULT_EPS else None
        out.append(Pair(f"near-{eps:g}", "near-threshold", rho, sigma, 3, 3,
                        fault=fault))
    return out


def small_pairs(seed: int) -> list[Pair]:
    rng = np.random.default_rng(seed)
    pairs = []
    for kind in SMALL_KINDS:
        for i in range(SMALL_PER_KIND):
            dim = SMALL_DIMS[i % len(SMALL_DIMS)]
            pairs.append(small_pair(rng, kind, dim, f"{kind}-{i}"))
    return pairs + near_threshold_pairs()


def large_pairs(seed: int, n: int = LARGE_DIM) -> list[Pair]:
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(2):
        pairs.append(Pair(f"floored-dominated-{i}", "dominated",
                          floored(wishart(rng, n)), floored(wishart(rng, n)), n, n))
    for i in range(2):
        U = haar_unitary(rng, n)
        sigma = _on_subspace(U, _spectrum(rng, n - LARGE_DEFICIT))
        pairs.append(Pair(f"floored-undominated-{i}", "undominated",
                          floored(wishart(rng, n)), sigma, n, n - LARGE_DEFICIT,
                          escapes=True))
    for s in PLAIN_SEEDS:
        r = np.random.default_rng(s)
        fault = "clustering" if s in PLAIN_FAULT_SEEDS else None
        pairs.append(Pair(f"plain-dominated-{s}", "dominated", wishart(r, n),
                          wishart(r, n), n, n, fault=fault))
    r = np.random.default_rng(PLAIN_SEEDS[-1] + 1)
    pairs.append(Pair("plain-undominated", "undominated", wishart(r, n),
                      wishart(r, n, n - LARGE_DEFICIT), n, n - LARGE_DEFICIT,
                      escapes=True))
    return pairs


def cli_pairs(seed: int) -> list[tuple[Pair, str]]:
    """One small pair of each kind, each with its own generator."""
    rng = np.random.default_rng(seed)
    return [(small_pair(rng, kind, CLI_DIM, f"cli-{kind}"), spec)
            for kind, spec in zip(SMALL_KINDS, GENERATORS)]
