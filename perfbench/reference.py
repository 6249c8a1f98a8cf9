"""Reference values computed apart from the program.

At dims 2-4 the maximal f-divergence is evaluated in 50-digit arithmetic
(mpmath) straight from its closed form: rotate into the eigenbasis of
sigma, split rho into blocks against supp sigma, take the Schur complement
rho_tilde, and sum tr S f(S^{-1/2} rho_tilde S^{-1/2}) on the support, plus
the escaped mass times the recession constant.  The rank of sigma is the
one the pair was built with.  At dim 128, where that is too slow, the
references are the closed forms that need no eigendecomposition.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from inputs import GENERATORS, Pair

mp = mpmath.mp
DPS = 50
INF = math.inf

# (f on a nonnegative mp number, recession constant)
_GEN = {
    "xlogx": (lambda y: y * mp.log(y) if y > 0 else mp.mpf(0), INF),
    "square": (lambda y: y * y, INF),
    "neg_power:0.5": (lambda y: -mp.sqrt(y), 0.0),
    "power:1.5": (lambda y: y * mp.sqrt(y), INF),
}


def _mpmat(A) -> mpmath.matrix:
    A = np.asarray(A, dtype=complex)
    return mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in A])


def _eigh(A: mpmath.matrix):
    """Eigenvalues (ascending, real) and eigenvector columns."""
    E, Q = mp.eighe(A)
    order = sorted(range(len(E)), key=lambda i: mp.re(E[i]))
    n = A.rows
    vals = [mp.re(E[i]) for i in order]
    vecs = mp.matrix(n, len(order))
    for c, i in enumerate(order):
        for r in range(n):
            vecs[r, c] = Q[r, i]
    return vals, vecs


def _cols(M: mpmath.matrix, idx) -> mpmath.matrix:
    out = mp.matrix(M.rows, len(idx))
    for c, i in enumerate(idx):
        for r in range(M.rows):
            out[r, c] = M[r, i]
    return out


def _trace(M) -> mpmath.mpf:
    return mp.re(sum(M[i, i] for i in range(M.rows)))


def exact(pair: Pair) -> dict:
    """d_max for every generator, tr rho_tilde and cond(sigma on its support)."""
    with mp.workdps(DPS):
        rho, sigma = _mpmat(pair.rho), _mpmat(pair.sigma)
        n, r = rho.rows, pair.sigma_rank
        s_vals, s_vecs = _eigh(sigma)
        support = list(range(n - r, n))
        V_in = _cols(s_vecs, support)
        S = [s_vals[i] for i in support]
        tilde = V_in.H * rho * V_in
        if pair.escapes:
            # every pair built with escaping mass has rho of full rank, so
            # the block of rho outside supp sigma is invertible
            V_out = _cols(s_vecs, list(range(n - r)))
            R12 = V_in.H * rho * V_out
            R22 = V_out.H * rho * V_out
            tilde = tilde - R12 * mp.inverse(R22) * R12.H
        missing = _trace(rho) - _trace(tilde)
        d = mp.matrix(r, r)
        for i in range(r):
            for j in range(r):
                d[i, j] = tilde[i, j] / mp.sqrt(S[i] * S[j])
        d = (d + d.H) / 2
        lam, U = _eigh(d)
        # d has the rank of rho_tilde; what float rounding left of its
        # kernel is zero
        kernel = r - min(pair.rho_rank, r)
        lam = [mp.mpf(0)] * kernel + lam[kernel:]
        weights = [mp.re(sum(mp.conj(U[k, i]) * S[k] * U[k, i] for k in range(r)))
                   for i in range(r)]
        values = {}
        for spec in GENERATORS:
            f, rec = _GEN[spec]
            base = sum(w * f(l) for w, l in zip(weights, lam))
            if pair.escapes and rec == INF:
                values[spec] = INF
            else:
                values[spec] = float(base + (missing * rec if pair.escapes else 0))
        return {"values": values, "tilde_trace": float(_trace(tilde)),
                "cond": float(S[-1] / S[0])}


def large(pair: Pair) -> dict:
    """References at dim 128: tr rho sigma^{-1} rho by a linear solve when
    sigma has full rank, +inf for infinite recession when mass escapes."""
    values = {spec: None for spec in GENERATORS}
    if pair.escapes:
        for spec in GENERATORS:
            if _GEN[spec][1] == INF:
                values[spec] = INF
    else:
        values["square"] = float(np.trace(
            pair.rho @ np.linalg.solve(pair.sigma, pair.rho)).real)
    s = np.linalg.eigvalsh(pair.sigma)[-pair.sigma_rank:]
    return {"values": values, "tilde_trace": None, "cond": float(s[-1] / s[0])}
