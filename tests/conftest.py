"""Fixtures shared by the tests."""

from functools import partial

import pytest
from strategies import record_calls


@pytest.fixture
def record(monkeypatch):
    """record(owner, name[, calls]): `record_calls`, undone after the test."""
    return partial(record_calls, monkeypatch)
