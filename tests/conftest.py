"""Shared fixtures."""

import pytest

import tauscreen.evalbench as evalbench
import tauscreen.rankcorr as rankcorr
import tauscreen.screening as screening


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


@pytest.fixture
def screen_calls(monkeypatch):
    """One entry per ``screen_edges`` call made during the test, through the
    names that ``screening`` and ``evalbench`` bind."""
    calls = []
    for module, name in ((screening, "screen_edges"), (evalbench, "screen_edges")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls
