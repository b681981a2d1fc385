"""Observability suite fixtures.

These tests assert exact event streams and counter reconciliation, so an
ambient ``REPRO_FAULTS``/``REPRO_VALIDATE`` (e.g. from a CI matrix job)
must not leak in; fault behaviour is pinned per-test.
"""

import pytest

from repro import Database


@pytest.fixture(autouse=True)
def _no_ambient_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)


@pytest.fixture
def db(empdept_catalog) -> Database:
    return Database(empdept_catalog)
