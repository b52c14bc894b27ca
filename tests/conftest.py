"""Shared fixtures."""

import pytest

import tauscreen.rankcorr as rankcorr


@pytest.fixture
def sign_passes(monkeypatch):
    """Names of the O(p^2 n^2) sign kernels called during the test, in call
    order: ``_sign_flat`` (the cube path) and ``_sign_moments`` (the
    row-by-row path)."""
    calls = []
    for name in ("_sign_flat", "_sign_moments"):
        def counted(*args, _fn=getattr(rankcorr, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(rankcorr, name, counted)
    return calls
