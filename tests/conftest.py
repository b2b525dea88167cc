import pytest


@pytest.fixture(autouse=True)
def hermetic_cache(tmp_path, monkeypatch):
    """Point the b-file cache at an empty per-test directory, so no test
    reads or writes the user's ~/.cache/cubefactor."""
    monkeypatch.setenv("CUBEFACTOR_CACHE", str(tmp_path / "oeis-cache"))
