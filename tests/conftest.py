import pytest

from pubrank.registry import load_registry_dir
from pubrank.samples import sample_registry_dir, sample_taxonomy_path
from pubrank.taxonomy import load_taxonomy


@pytest.fixture(autouse=True)
def ingest_cache(tmp_path_factory, monkeypatch):
    """Each test's own empty ingest cache directory: no test reads an entry
    that another wrote, and no test writes under the user's home."""
    cache_home = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    return cache_home / "pubrank"


@pytest.fixture(scope="session")
def registry():
    return load_registry_dir(sample_registry_dir())


@pytest.fixture(scope="session")
def taxonomy():
    return load_taxonomy(sample_taxonomy_path())
