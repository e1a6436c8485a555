import pytest

from pubrank.registry import load_registry_dir
from pubrank.samples import sample_registry_dir, sample_taxonomy_path
from pubrank.taxonomy import load_taxonomy


@pytest.fixture(scope="session")
def registry():
    return load_registry_dir(sample_registry_dir())


@pytest.fixture(scope="session")
def taxonomy():
    return load_taxonomy(sample_taxonomy_path())
