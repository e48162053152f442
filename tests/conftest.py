import pytest


@pytest.fixture(autouse=True)
def _private_cache_home(tmp_path_factory, monkeypatch):
    """Point the CLI's forecast row cache at a fresh directory per test, in
    this process and in every child that inherits its environment."""
    monkeypatch.setenv("XDG_CACHE_HOME",
                       str(tmp_path_factory.mktemp("cache-home")))
