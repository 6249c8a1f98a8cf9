"""Fixtures shared by every test module."""

import numpy as np
import pytest

from qfdiv import divergence


@pytest.fixture(autouse=True)
def no_kept_pair():
    """Start each test without the pair analyze() keeps, so a decomposition
    count reads a fresh analysis whatever order the tests run in."""
    divergence._last = None


@pytest.fixture
def decompositions(monkeypatch):
    """Records each call of numpy.linalg.eigh, eigvalsh, svd and cholesky as
    (name, shape of the matrix): its length is the decomposition count."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "cholesky"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
