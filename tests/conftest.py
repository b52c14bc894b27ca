"""Shared fixtures."""

import pytest

import tauscreen.rankcorr as rankcorr


@pytest.fixture
def sign_passes(monkeypatch):
    """One ``"_sign_moments"`` entry per O(p^2 n^2) sign-kernel pass made
    during the test, in call order."""
    calls = []
    kernel = rankcorr._sign_moments

    def counted(*args, **kwargs):
        calls.append("_sign_moments")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(rankcorr, "_sign_moments", counted)
    return calls
