"""Fixtures shared by every test module."""

import pytest

from qfdiv import divergence


@pytest.fixture(autouse=True)
def no_kept_pair():
    """Start each test without the pair analyze() keeps, so an eigensolve
    count reads a fresh analysis whatever order the tests run in."""
    divergence._last = None
