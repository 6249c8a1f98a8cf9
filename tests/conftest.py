"""Fixtures shared by every test module."""

import numpy as np
import pytest

from qfdiv import divergence, linalg


@pytest.fixture(autouse=True)
def no_kept_pair():
    """Start each test without the pair analyze() keeps, so a decomposition
    count reads a fresh analysis whatever order the tests run in."""
    divergence._last = None


@pytest.fixture
def decompositions(monkeypatch):
    """Records each call of numpy.linalg.eigh, eigvalsh, svd, cholesky, inv
    and qr as (name, shape of the matrix): its length is the decomposition
    count."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "cholesky", "inv", "qr"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def inverse_calls():
    """inverse_calls(n, stack=()): the entries that linalg._lower_inverse
    adds to decompositions for an n x n factor (of each of a stack), its
    halves split down to a half below 2 CHOLESKY_MIN_DIM."""
    def calls(n, stack=()):
        h = n // 2
        if h < 2 * linalg.CHOLESKY_MIN_DIM:
            return [("inv", (*stack, n, n))]
        return calls(h, stack) + calls(n - h, stack)
    return calls
